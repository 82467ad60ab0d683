"""Four-stroke quantum Otto engine simulator for a coupled two-spin medium.

The working-medium state lives in five expectation values (a
:class:`BlochVector`); branch evolutions are completely positive affine maps
(:mod:`spinotto.propagators`); their one-period product has a unique fixed
point, the limit cycle, whose spectrum and thermodynamics are analyzed in
:mod:`spinotto.engine`; entropy and distance diagnostics live in
:mod:`spinotto.measures`; :mod:`spinotto.cli` is the batch CSV front end.
The value types are immutable named tuples (:mod:`spinotto.records`);
:func:`replace` copies one with fields changed, checking the new values.
The package needs only the standard library; ``AffinePropagator.m`` and
the sweep oracle ``adiabat_propagator_direct`` import numpy when called.
"""

from .algebra import BlochVector, eigenvalue_tuple, energy_populations, thermal_state
from .engine import (
    CycleBranch,
    CyclePropagator,
    CycleSpec,
    CycleSpectrum,
    LimitCycleReport,
    NonUniqueLimitCycleError,
    ThermoLedger,
    TrajectorySample,
    compose_cycle,
    energy,
    iterate,
    limit_cycle,
    spectrum,
    trajectory,
)
from .measures import (
    conditional_entropy,
    energy_entropy,
    quantum_distance,
    vn_entropy,
    wootters_energy_distance,
)
from .propagators import (
    AdiabatParams,
    AffinePropagator,
    BathParams,
    IsochoreParams,
    adiabat_partials,
    adiabat_propagator_direct,
    compose,
    isochore_partials,
    isochore_propagator,
)
from .records import replace

__version__ = "4.7.0"
