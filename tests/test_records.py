"""The value-type contract of the 13 public record types: constructor
signatures, immutability, re-validation through ``replace``, equality and
hashing, repr, copy and pickle."""

import copy
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from spinotto import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    BlochVector,
    CycleBranch,
    CyclePropagator,
    CycleSpec,
    CycleSpectrum,
    IsochoreParams,
    LimitCycleReport,
    ThermoLedger,
    TrajectorySample,
    adiabat_partials,
    compose_cycle,
    eigenvalue_tuple,
    isochore_partials,
    isochore_propagator,
    limit_cycle,
    replace,
    spectrum,
    trajectory,
)
from spinotto.algebra import is_physical
from spinotto.cli import RunConfig
from conftest import fig1_spec, fig6_spec

_ZERO3 = (0.0, 0.0, 0.0)
REQUIRED = inspect.Parameter.empty

# constructor parameters as in 0.7.0 (CycleBranch's as in 2.0.0,
# CyclePropagator's as in 4.5.0, which added rotation), "name"
# (required) or "name=None"; every parameter is positional-or-keyword unless
# listed in KEYWORD_ONLY
SIGNATURES = {
    BlochVector: "b1 b2 b3 b4 b5",
    BathParams: "conductance dephasing temperature",
    IsochoreParams: "omega j bath tau",
    AdiabatParams: "omega_start omega_end j tau",
    AffinePropagator: [("m", None), ("b4_scale", 1.0), ("b5_scale", 1.0),
                       ("b5_drive", _ZERO3), ("b5_shift", 0.0), ("block", None),
                       ("shift", _ZERO3)],
    CycleSpec: "t_cold t_hot omega_a omega_b j gamma_cold gamma_hot dephasing_cold "
               "dephasing_hot tau_cold tau_hot tau_ab tau_ba",
    CycleBranch: "name stroke prop",
    CyclePropagator: "cycle branches spec rotation",
    CycleSpectrum: "eigenvalues phi",
    LimitCycleReport: "b_a eigenvalues phi gap propagator ledger",
    ThermoLedger: "q_hot q_cold w_ab w_ba power ds_ext ds_u_hot ds_u_cold ds_e_hot "
                  "ds_e_cold ds_e_ab ds_e_ba b_a b_b b_c b_d",
    TrajectorySample: "branch t omega state",
    RunConfig: "spec engine_raw run output",
}
KEYWORD_ONLY = {AffinePropagator: {"block", "shift"}}

# these compared by identity as dataclasses with eq=False; the rest by value
IDENTITY_TYPES = {AffinePropagator, CycleBranch, CyclePropagator, CycleSpectrum, LimitCycleReport}


# a new value for the last field: a valid one for the types that check
# their values, any other object for the rest
LAST_FIELD_CHANGE = {BathParams: 2.0, IsochoreParams: 1.0, AdiabatParams: 0.02, CycleSpec: 0.02,
                     AffinePropagator: 0.5}


def _expected_parameters(cls):
    spec = SIGNATURES[cls]
    if isinstance(spec, list):
        return spec
    return [(item[:-5], None) if item.endswith("=None") else (item, REQUIRED)
            for item in spec.split()]


def _with_last_field_changed(obj):
    value = LAST_FIELD_CHANGE.get(type(obj), "changed")
    changed = replace(obj, **{obj._fields[-1]: value})
    assert getattr(changed, obj._fields[-1]) == value != getattr(obj, obj._fields[-1])
    return changed


def one_of_each():
    spec = fig1_spec()
    report = limit_cycle(spec)
    prop = compose_cycle(spec)
    bath = BathParams(0.3423, 0.0, 7.5)
    iso = IsochoreParams(12.6355, 2.0, bath, 2.5)
    return [
        BlochVector(0.1, -0.05, 0.02, 0.01, 0.1),
        bath,
        iso,
        AdiabatParams(12.6355, 5.08364, 2.0, 0.01),
        isochore_propagator(iso),
        spec,
        prop.branches[0],
        prop,
        spectrum(spec),
        report,
        report.ledger,
        trajectory(prop, report.b_a, 2)[0],
        RunConfig(spec, {"t_cold": 1.5}, {}, {}),
    ]


def records():
    """:func:`one_of_each`, then a sweep branch: its ``stroke`` is an
    :class:`AdiabatParams` where the bath branch's is an
    :class:`IsochoreParams`."""
    return one_of_each() + [compose_cycle(fig1_spec()).branches[1]]


def test_one_of_each_type():
    assert [type(x) for x in one_of_each()] == list(SIGNATURES)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature_unchanged(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [name for name, _ in _expected_parameters(cls)]
    for p, (name, default) in zip(params, _expected_parameters(cls)):
        kind = (inspect.Parameter.KEYWORD_ONLY if name in KEYWORD_ONLY.get(cls, ())
                else inspect.Parameter.POSITIONAL_OR_KEYWORD)
        assert p.kind == kind, name
        assert p.default == default, name


@pytest.mark.parametrize("index", range(14))
def test_records_are_immutable(index):
    obj = records()[index]
    first = obj._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1.0


@pytest.mark.parametrize("index", range(14))
def test_replace_rebuilds_through_the_constructor(index):
    obj = records()[index]
    cls = type(obj)
    copied = replace(obj)
    assert type(copied) is cls and copied is not obj
    assert tuple(copied) == tuple(obj)
    changed = _with_last_field_changed(obj)
    assert type(changed) is cls
    assert tuple(changed)[:-1] == tuple(obj)[:-1]
    with pytest.raises(TypeError):
        replace(obj, not_a_field=1.0)
    # namedtuple's own _replace and _make go through the constructor too
    assert tuple(obj._replace()) == tuple(obj)
    assert tuple(cls._make(tuple(obj))) == tuple(obj)
    with pytest.raises(ValueError):
        cls._make(tuple(obj)[:-1])


@pytest.mark.parametrize("make, changes, match", [
    (lambda: fig1_spec(), {"t_cold": -1.0}, "temperatures"),
    (lambda: fig1_spec(), {"tau_hot": -0.1}, "tau_hot"),
    (lambda: fig1_spec(), {"omega_a": 20.0}, "omega_a"),
    (lambda: fig1_spec(), {"omega_b": 1e300}, "MAX_SWEEP_ANGLE"),
    (lambda: BathParams(0.3, 0.0, 1.5), {"temperature": 0.0}, "temperature"),
    (lambda: BathParams(0.3, 0.0, 1.5), {"conductance": -1.0}, "conductance"),
    (lambda: IsochoreParams(5.0, 2.0, BathParams(0.3, 0.0, 1.5), 1.0), {"tau": -1.0}, "tau"),
    (lambda: IsochoreParams(5.0, 2.0, BathParams(0.3, 0.0, 1.5), 1.0),
     {"omega": 0.0, "j": 0.0}, "FIELD_RANGE"),
    (lambda: AdiabatParams(12.0, 5.0, 2.0, 0.01), {"tau": 1e9}, "MAX_SWEEP_ANGLE"),
    (lambda: AffinePropagator(block=((1.0, 0.0, 0.0),) * 3), {"block": None}, "m or block"),
    (lambda: BathParams(0.3, 0.0, 1.5), {"conductance": math.nan}, "conductance"),
    (lambda: BathParams(0.3, 0.0, 1.5), {"dephasing": math.nan}, "dephasing"),
    (lambda: BathParams(0.3, 0.0, 1.5), {"temperature": math.nan}, "temperature"),
])
def test_replace_validates_again(make, changes, match):
    obj = make()
    error = TypeError if "block" in changes else ValueError
    with pytest.raises(error, match=match):
        replace(obj, **changes)
    with pytest.raises(error, match=match):
        obj._replace(**changes)
    fields = obj._asdict()
    fields.update(changes)
    with pytest.raises(error, match=match):
        type(obj)._make(fields.values())
    if hasattr(copy, "replace"):  # Python 3.13
        with pytest.raises(error, match=match):
            copy.replace(obj, **changes)


@pytest.mark.parametrize("field", CycleSpec._fields)
def test_cycle_spec_rejects_nan_naming_the_field(field):
    # `nan <= 0.0` is false, so range checks written that way let NaN through
    # to a NonUniqueLimitCycleError or a message about the sweep angle
    with pytest.raises(ValueError) as info:
        replace(fig1_spec(), **{field: math.nan})
    message = str(info.value)
    assert re.search(rf"\b{field}\b", message) and "nan" in message, message


@pytest.mark.parametrize("index", range(14))
def test_equality_and_hash_as_before(index):
    obj = records()[index]
    cls = type(obj)
    twin = replace(obj)
    assert obj == obj and not obj != obj
    assert obj != tuple(obj) and tuple(obj) != obj  # never equal to a plain tuple
    if cls in IDENTITY_TYPES:
        # eq=False: identity equality and the default object hash
        assert obj != twin and not obj == twin
        assert hash(obj) == object.__hash__(obj)
    else:
        assert obj == twin and not obj != twin
        if cls is not RunConfig:  # its dict fields were never hashable
            # the frozen-dataclass hash: that of the tuple of the field values
            assert hash(obj) == hash(twin) == hash(tuple(getattr(obj, f) for f in obj._fields))
        else:
            with pytest.raises(TypeError):
                hash(obj)
        assert obj != _with_last_field_changed(obj)


def test_records_of_different_types_with_equal_fields_differ():
    a = AdiabatParams(12.0, 5.0, 2.0, 0.5)
    b = BlochVector(12.0, 5.0, 2.0, 0.5, 0.0)
    t = TrajectorySample(12.0, 5.0, 2.0, 0.5)
    assert a != t and t != a and not a == t
    assert tuple(a) == tuple(t)
    assert b != a


def test_repr_as_before():
    assert repr(BlochVector(0.1, 0, 0, 0, 0.5)) == "BlochVector(b1=0.1, b2=0, b3=0, b4=0, b5=0.5)"
    assert repr(BathParams(0.3, 0.0, 1.5)) == (
        "BathParams(conductance=0.3, dephasing=0.0, temperature=1.5)")
    ledger = limit_cycle(fig1_spec()).ledger
    text = repr(ledger)
    assert text.startswith("ThermoLedger(q_hot=") and text.endswith(f"ds_e_ba={ledger.ds_e_ba!r})")
    assert "b_a" not in text and "BlochVector" not in text


@pytest.mark.parametrize("index", range(14))
def test_copy_and_pickle(index):
    obj = records()[index]
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj)
        if type(obj) in IDENTITY_TYPES:
            assert len(clone) == len(obj)
        else:
            assert clone == obj


def _sampled_maps():
    """Maps from every sampler that builds them with tuple.__new__, past the
    constructor: the public samplers and the whole-stroke maps of
    compose_cycle, the reversed hot->cold sweep and the zero-duration branch
    (fig6's hot stroke) among them."""
    prop = compose_cycle(fig1_spec())
    hot, sweep = prop.branches[0].stroke, prop.branches[1].stroke
    maps = isochore_partials(hot, [0.0, 0.7, hot.tau]) + adiabat_partials(sweep, 3)
    for cycle in (prop, compose_cycle(fig6_spec())):
        maps += [branch.prop for branch in cycle.branches]
    return maps


def _same_fields(a, b):
    assert type(a) is type(b) is AffinePropagator
    assert tuple(a) == tuple(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
    for x, y in zip(a.block, b.block):
        assert type(x) is type(y) is tuple


def test_sampled_maps_equal_constructed_maps():
    for m in _sampled_maps():
        _same_fields(m, AffinePropagator(**m._asdict()))
        for clone in (copy.deepcopy(m), pickle.loads(pickle.dumps(m)), replace(m)):
            _same_fields(clone, m)
        changed = replace(m, b5_shift=0.5)
        assert changed.b5_shift == 0.5 and tuple(changed)[:-1] == tuple(m)[:-1]
        matrix = m.m
        assert matrix.shape == (4, 4)
        assert np.array_equal(matrix[:3, :3], np.array(m.block))
        assert np.array_equal(matrix[:3, 3], np.array(m.shift))
        assert np.array_equal(matrix[3], [0.0, 0.0, 0.0, 1.0])


def test_bloch_vector_norm_overflows_to_inf():
    assert BlochVector(1e200, 0.0, 0.0, 0.0, 0.0).d == math.inf
    assert BlochVector(0.0, -1e300, 0.0, 0.0, 0.0).d == math.inf
    assert BlochVector(0.3, 0.4, 0.0, 0.0, 0.0).d == math.sqrt(0.3**2 + 0.4**2)
    assert not is_physical(eigenvalue_tuple(BlochVector(0.0, 0.0, 1e200, 0.0, 0.0)))
