"""Batch front end: JSON config in, CSV tables out.

Commands
--------
limit-cycle       one summary row: corner states, spectrum, heats, works,
                  power and all entropy-production measures
iterate           anchor states and distances to the limit cycle per cycle
trajectory        densely sampled states over one period
spectrum          the six cycle-map eigenvalues and the transverse phase
sweep             one limit-cycle row per point of a one-parameter grid
equilibrium-curve energy entropy of the thermal state across a field range
figure            benchmark presets (fig1, fig2, fig3, fig5, fig6)

Command line (``_USAGE``)::

    spinotto <command> --config PATH [--out PATH]
    spinotto figure <preset> [--out PATH]

Options come in any order, as ``--name value`` or ``--name=value``, and are
named in full; ``-h``/``--help`` in place of an option prints the usage.
The grammar is parsed directly (``_parse_args``): importing argparse and
building its parsers cost every run several milliseconds.

Exit status: 0 success, 2 usage or config error, 3 no unique limit cycle
(4 is reserved; no longer emitted).  Failures emit one JSON error record on
stderr: ``{"error": "usage" | "config" | "non-unique-limit-cycle",
"message": ...}``.
"""

from __future__ import annotations

import gc
import json
import math
import operator
import os
import sys
from collections import namedtuple
from itertools import repeat

from .algebra import BlochVector, eigenvalue_tuple, field_magnitude, is_physical, thermal_state
from .engine import (
    CyclePropagator,
    CycleSpec,
    LimitCycleReport,
    NonUniqueLimitCycleError,
    _iterate_columns,
    _stroke_states,
    compose_cycle,
    limit_cycle,
    linspace,
    spectrum,
)
from .measures import _measures_to, _state_entropies
from .records import Record

SCHEMA_VERSION = 1

# config key -> CycleSpec field
ENGINE_KEYS = {
    "t_cold": "t_cold",
    "t_hot": "t_hot",
    "omega_a": "omega_a",
    "omega_b": "omega_b",
    "j": "j",
    "gamma_cold_conductance": "gamma_cold",
    "gamma_hot_conductance": "gamma_hot",
    "dephasing_cold": "dephasing_cold",
    "dephasing_hot": "dephasing_hot",
    "tau_cold": "tau_cold",
    "tau_hot": "tau_hot",
    "tau_ab": "tau_ab",
    "tau_ba": "tau_ba",
}

RUN_KEYS = {
    "n_cycles",
    "samples_per_branch",
    "sweep",
    "initial_state",
    "omega_from",
    "omega_to",
    "steps",
    "temperature",
}

SWEEP_KEYS = {"key", "from", "to", "steps"}


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


class RunConfig(Record, namedtuple("RunConfig", "spec engine_raw run output")):
    """A validated config: the :class:`CycleSpec`, the engine section as
    given (echoed in the CSV header), and the run and output sections."""

    __slots__ = ()


def _require_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return number


def _section(value, path, allowed, required=()):
    """`value` as a config object: a dict with every `required` key and no
    key outside `allowed`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    missing = sorted(set(required) - set(value))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {', '.join(missing)}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    return value


# largest value of an integer run key (n_cycles, samples_per_branch, steps,
# sweep.steps): each counts rows of the table, so this bounds a run's time
# and memory (a sweep row is a limit-cycle solve, a trajectory has four
# branches of samples)
MAX_RUN_COUNT = 100_000


def _require_int(value, path, minimum):
    if (isinstance(value, bool) or not isinstance(value, int)
            or not minimum <= value <= MAX_RUN_COUNT):
        raise ConfigError(
            f"{path}: expected an integer in [{minimum}, {MAX_RUN_COUNT}], got {value!r}"
        )
    return value


def _cycle_spec(fields) -> CycleSpec:
    """The CycleSpec of ``fields``, in field order; a bound it breaks is a ConfigError."""
    try:
        return CycleSpec(*fields)
    except ValueError as exc:
        raise ConfigError(f"engine: {exc}") from exc


def spec_from_engine_dict(engine: dict) -> CycleSpec:
    _section(engine, "engine", ENGINE_KEYS, ENGINE_KEYS)
    fields = {ENGINE_KEYS[k]: _require_number(v, f"engine.{k}") for k, v in engine.items()}
    return _cycle_spec([fields[name] for name in CycleSpec._fields])


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, integers past the digit limit, deep nesting
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _section(raw, "config", ("engine", "run", "output"), ("engine",))
    spec = spec_from_engine_dict(raw["engine"])
    run = _section(raw.get("run", {}), "run", RUN_KEYS)
    output = _section(raw.get("output", {}), "output", ("path", "precision"))
    if "path" in output and not (isinstance(output["path"], str) and output["path"]):
        raise ConfigError("output.path: expected a non-empty string")
    precision = output.get("precision", 12)
    if not isinstance(precision, int) or isinstance(precision, bool) or not 1 <= precision <= 17:
        raise ConfigError("output.precision: expected an integer in [1, 17]")

    return RunConfig(spec=spec, engine_raw=dict(raw["engine"]), run=run, output=output)


# run.initial_state keys per kind
_INITIAL_STATE_KEYS = {
    "maximally-mixed": ("kind",),
    "thermal": ("kind", "temperature"),
    "bloch": ("kind", "b"),
}


def _initial_state(config: RunConfig) -> BlochVector:
    sel = config.run.get("initial_state", {"kind": "thermal"})
    kind = sel.get("kind") if isinstance(sel, dict) else None
    if not isinstance(kind, str) or kind not in _INITIAL_STATE_KEYS:
        raise ConfigError("run.initial_state: expected an object whose kind is one of "
                          + ", ".join(_INITIAL_STATE_KEYS))
    _section(sel, f"run.initial_state ({kind})", _INITIAL_STATE_KEYS[kind])
    if kind == "maximally-mixed":
        return BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    if kind == "thermal":
        temp = _require_number(sel.get("temperature", config.spec.t_cold),
                               "run.initial_state.temperature")
        if temp <= 0.0:
            raise ConfigError("run.initial_state.temperature must be > 0")
        # thermal start at the anchor field omega_b
        return thermal_state(config.spec.omega_b, config.spec.j, temp)
    values = sel.get("b")
    if not isinstance(values, list) or len(values) != 5:
        raise ConfigError("run.initial_state.b: expected a list of 5 numbers")
    b = BlochVector(*(_require_number(v, "run.initial_state.b") for v in values))
    if not is_physical(eigenvalue_tuple(b)):
        raise ConfigError("run.initial_state.b: not a physical state")
    return b


# ---------------------------------------------------------------------------
# CSV assembly


def render_csv(command, config_echo, header, blocks, precision, notes=()) -> str:
    """CSV text of a table given as blocks of rows, each block one cell per
    header column.  A list, tuple or range cell holds its column's values on
    the block's rows; any other cell is shared by all of them and formatted
    once, into the block's row template.  Each column takes the type of its
    first value in the block: text and integers as they are, floats to
    `precision` digits (+ 0.0 prints -0.0 as 0)."""
    lines = [
        f"# spinotto-csv schema-version {SCHEMA_VERSION}",
        f"# command: {command}",
        "# config: " + json.dumps(config_echo, sort_keys=True, separators=(",", ":")),
    ]
    lines.extend(f"# note: {note}" for note in notes)
    lines.append(",".join(header))
    real = f"%.{precision}g"
    add = operator.add
    for block in blocks:
        fields, columns = [], []
        for cell in block:
            if isinstance(cell, (list, tuple, range)):
                first = cell[0]
                if isinstance(first, (str, int)) and not isinstance(first, bool):
                    fields.append("%s")
                    columns.append(cell)
                else:
                    # + 0.0 prints -0.0 as 0; a column without a zero (of
                    # either sign: -0.0 == 0.0) prints the same without it
                    fields.append(real)
                    columns.append(map(add, cell, repeat(0.0)) if 0.0 in cell else cell)
            elif isinstance(cell, str):
                fields.append(cell.replace("%", "%%"))
            elif isinstance(cell, int) and not isinstance(cell, bool):
                fields.append(str(cell))
            else:
                fields.append(real % (cell + 0.0))
        template = ",".join(fields)
        lines += [template % t for t in zip(*columns)]
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    try:
        if out_path is None:
            if sys.stdout is None:  # fd 1 was closed when the interpreter started
                raise ConfigError("cannot write output to stdout: it is closed")
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        if out_path is not None:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from exc
        if sys.stdout is sys.__stdout__:
            # the exit flush retries: send it to the null device (signal docs, SIGPIPE)
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write output to stdout: {exc}") from exc


# ---------------------------------------------------------------------------
# command table builders: rows and blocks of render_csv

_CORNER_COLS = [f"b{i}_{c}" for c in "abcd" for i in range(1, 6)]
_MU_COLS = [f"mu{i}_{p}" for i in range(6) for p in ("re", "im")]
_LEDGER_COLS = [
    "q_hot", "q_cold", "w_ab", "w_ba", "power", "ds_ext",
    "ds_u_hot", "ds_u_cold", "ds_u_total",
    "ds_e_hot", "ds_e_cold", "ds_e_ab", "ds_e_ba",
]
LIMIT_CYCLE_HEADER = _CORNER_COLS + _MU_COLS + _LEDGER_COLS


def limit_cycle_row(spec: CycleSpec) -> list:
    _, (mu0, mu1, mu2, mu3, mu4, mu5), _, _, _, ledger = limit_cycle(spec)
    (q_hot, q_cold, w_ab, w_ba, power, ds_ext, ds_u_hot, ds_u_cold, ds_e_hot, ds_e_cold,
     ds_e_ab, ds_e_ba, b_a, b_b, b_c, b_d) = ledger
    row = [
        *b_a, *b_b, *b_c, *b_d,
        mu0.real, mu0.imag, mu1.real, mu1.imag, mu2.real, mu2.imag,
        mu3.real, mu3.imag, mu4.real, mu4.imag, mu5.real, mu5.imag,
        q_hot, q_cold, w_ab, w_ba, power, ds_ext,
        ds_u_hot, ds_u_cold, ds_u_hot + ds_u_cold,  # ds_u_total
        ds_e_hot, ds_e_cold, ds_e_ab, ds_e_ba,
    ]
    if not all(map(math.isfinite, row)):
        # the states and eigenvalues are finite; heat / temperature can overflow
        bad = [name for name, value in zip(LIMIT_CYCLE_HEADER, row) if not math.isfinite(value)]
        raise ConfigError(
            f"engine: column(s) {', '.join(bad)} not finite: heats divided by the bath "
            f"temperatures t_hot = {spec.t_hot!r}, t_cold = {spec.t_cold!r} overflow"
        )
    return row


ITERATE_HEADER = (
    ["k"] + [f"b{i}" for i in range(1, 6)]
    + ["quantum_distance", "wootters_energy_distance", "conditional_entropy"]
)


def iterate_block(report: LimitCycleReport, b0: BlochVector, n: int) -> list:
    """The ITERATE_HEADER block of the anchor states b_k, k = 0..n: the
    states' columns (``engine._iterate_columns``) and those of their
    distances and relative entropy to the limit cycle, the Wootters distance
    at the anchor field omega_b, placed as they are.  The measures' one
    implementation (``measures._measures_to``), bound once per table, gives
    the last three, those of :func:`quantum_distance`,
    :func:`wootters_energy_distance` and :func:`conditional_entropy`."""
    spec = report.propagator.spec
    measures = _measures_to(report.b_a, spec.omega_b, spec.j)
    columns = _iterate_columns(report.propagator, b0, n)
    return [range(n + 1), *columns, *measures(columns)]


TRAJECTORY_HEADER = (
    ["branch", "t", "omega"] + [f"b{i}" for i in range(1, 6)]
    + ["s_vn", "s_e", "energy"]
)


def trajectory_blocks(prop: CyclePropagator, b_start: BlochVector, samples: int) -> list:
    """One TRAJECTORY_HEADER block per stroke of :func:`trajectory`'s
    samples, the strokes' columns (``engine._stroke_states``) placed as
    they are, without a sample record.  s_vn, s_e and the energy come from
    one call per stroke of ``measures._state_entropies``, the implementation
    of :func:`vn_entropy` and :func:`energy_entropy`; it checks no sample,
    as the caller checked b_start.  A stroke's rows share its branch name, a
    bath stroke's also its constant field.  A sweep is unitary: it rotates
    (b1, b2, b3) and keeps b4 and b5, its two constants, and its rows share
    s_vn, that of the stroke's first state, as the paper's friction
    signature has it: only s_e moves.  The energy basis is undefined at
    omega = J = 0 (a J = 0 sweep through zero field); s_e takes its limit
    there, equal from either side."""
    j = prop.spec.j
    blocks = []
    for index, (branch, t0, times, columns, omega_at) in enumerate(
            _stroke_states(prop, b_start, samples)):
        # strokes 1 and 3 are the sweeps; a bath stroke's field is constant
        field = list(map(omega_at, times)) if index % 2 else omega_at(0.0)
        entropies = _state_entropies(columns, field if index % 2 else repeat(field), j)
        blocks.append((branch, [t0 + t for t in times], field, *columns, *entropies))
    return blocks


SPECTRUM_HEADER = _MU_COLS + ["phi", "gap"]


def spectrum_row(spec: CycleSpec) -> list:
    info = spectrum(spec)
    row = []
    for mu in info.eigenvalues:
        row.extend((mu.real, mu.imag))
    row.extend((info.phi, info.gap))
    return row


# ---------------------------------------------------------------------------
# commands


def cmd_limit_cycle(config: RunConfig):
    # one block of one-element columns
    return LIMIT_CYCLE_HEADER, [list(zip(limit_cycle_row(config.spec)))]


def cmd_iterate(config: RunConfig):
    n = _require_int(config.run.get("n_cycles", 50), "run.n_cycles", 0)
    return ITERATE_HEADER, [iterate_block(limit_cycle(config.spec), _initial_state(config), n)]


def cmd_trajectory(config: RunConfig):
    samples = _require_int(config.run.get("samples_per_branch", 50), "run.samples_per_branch", 2)
    if "initial_state" in config.run:
        # no fixed point needed, so this also runs without a unique limit cycle
        prop, b_start = compose_cycle(config.spec), _initial_state(config)
    else:
        report = limit_cycle(config.spec)
        prop, b_start = report.propagator, report.b_a
    return TRAJECTORY_HEADER, trajectory_blocks(prop, b_start, samples)


def cmd_spectrum(config: RunConfig):
    return SPECTRUM_HEADER, [list(zip(spectrum_row(config.spec)))]


def cmd_sweep(config: RunConfig):
    sweep = _section(config.run.get("sweep"), "run.sweep", SWEEP_KEYS, SWEEP_KEYS)
    key = sweep["key"]
    if not isinstance(key, str) or key not in ENGINE_KEYS:
        raise ConfigError(f"run.sweep.key: {key!r} is not an engine key")
    start = _require_number(sweep["from"], "run.sweep.from")
    stop = _require_number(sweep["to"], "run.sweep.to")
    steps = _require_int(sweep["steps"], "run.sweep.steps", 1)
    # load_config checked the engine section, so a row checks only its value
    # of the swept key, then builds the spec, with the errors of
    # spec_from_engine_dict
    path = f"engine.{key}"
    fields = list(config.spec)
    index = CycleSpec._fields.index(ENGINE_KEYS[key])

    def one(value):
        fields[index] = _require_number(value, path)
        return [value] + limit_cycle_row(_cycle_spec(fields))

    return [key] + LIMIT_CYCLE_HEADER, [list(zip(*map(one, linspace(start, stop, steps))))]


def cmd_equilibrium_curve(config: RunConfig):
    run = config.run
    lo = _require_number(run.get("omega_from"), "run.omega_from") if "omega_from" in run else None
    hi = _require_number(run.get("omega_to"), "run.omega_to") if "omega_to" in run else None
    if lo is None or hi is None:
        raise ConfigError("equilibrium-curve requires run.omega_from and run.omega_to")
    if lo <= 0.0 or hi <= 0.0:
        raise ConfigError("run.omega_from/omega_to must be > 0")
    j = config.spec.j
    try:
        # Omega grows with omega > 0, so the two ends bound the whole range
        field_magnitude(lo, j)
        field_magnitude(hi, j)
    except ValueError as exc:
        raise ConfigError(f"run.omega_from/omega_to: {exc}") from exc
    steps = _require_int(run.get("steps", 100), "run.steps", 1)
    temp = _require_number(run.get("temperature", config.spec.t_hot), "run.temperature")
    if temp <= 0.0:
        raise ConfigError("run.temperature must be > 0")
    omegas = linspace(lo, hi, steps)
    states = [thermal_state(omega, j, temp) for omega in omegas]
    _, s_e, _ = _state_entropies(tuple(zip(*states)), omegas, j)
    return ["omega", "s_e_equilibrium"], [[omegas, s_e]]


# ---------------------------------------------------------------------------
# benchmark presets; parameter values are pinned digit for digit so the
# emitted tables are comparable with the reference results

_FIG1_ENGINE = {
    "t_cold": 1.5, "t_hot": 7.5,
    "omega_a": 5.08364, "omega_b": 12.6355, "j": 2.0,
    "gamma_cold_conductance": 0.3423, "gamma_hot_conductance": 0.3423,
    "dephasing_cold": 0.0, "dephasing_hot": 0.0,
    "tau_cold": 3.0, "tau_hot": 2.5, "tau_ab": 0.01, "tau_ba": 0.01,
}

_FIG5_COMMON = {
    "t_cold": 1.5, "t_hot": 7.5,
    "omega_a": 5.0836387, "omega_b": 12.63545, "j": 2.0,
    "gamma_cold_conductance": 0.10662, "gamma_hot_conductance": 1.0048,
    "dephasing_cold": 0.0, "dephasing_hot": 0.0,
    "tau_ab": 0.05, "tau_ba": 0.06,
}

_FIG5_CYCLES = {
    "1": {"tau_hot": 0.32, "tau_cold": 0.64},
    "2": {"tau_hot": 0.581, "tau_cold": 1.1602},
    "3": {"tau_hot": 1.5, "tau_cold": 3.6},
}

_FIG6_ENGINE = {
    "t_cold": 1.5, "t_hot": 7.5,
    "omega_a": 5.0836387, "omega_b": 12.635485, "j": 2.0,
    "gamma_cold_conductance": 1.7, "gamma_hot_conductance": 1.7,
    "dephasing_cold": 0.0, "dephasing_hot": 0.0,
    "tau_cold": 0.6, "tau_hot": 0.0, "tau_ab": 0.03, "tau_ba": 0.03,
}

# adiabat time and dephasing per fig3 case; everything else falls back to
# the fig1 values (the source states only times and dephasing for these)
_FIG3_CASES = {
    "1": {"tau_adiabat": 0.01, "dephasing_hot": 0.0, "dephasing_cold": 0.0},
    "2": {"tau_adiabat": 0.01, "dephasing_hot": 0.01, "dephasing_cold": 0.03},
    "3": {"tau_adiabat": 1.0, "dephasing_hot": 0.0, "dephasing_cold": 0.0},
    "4": {"tau_adiabat": 1.0, "dephasing_hot": 0.01, "dephasing_cold": 0.03},
}


def _fig3_engine(case: str) -> dict:
    overrides = _FIG3_CASES[case]
    engine = dict(_FIG1_ENGINE)
    engine.update({
        "tau_hot": 0.6, "tau_cold": 0.6,
        "tau_ab": overrides["tau_adiabat"], "tau_ba": overrides["tau_adiabat"],
        "dephasing_hot": overrides["dephasing_hot"],
        "dephasing_cold": overrides["dephasing_cold"],
    })
    return engine


def figure_preset(name: str):
    """Run one benchmark preset: (config echo, header, blocks, notes)."""
    if name == "fig1":
        report = limit_cycle(spec_from_engine_dict(_FIG1_ENGINE))
        return (
            {"preset": "fig1", "engine": _FIG1_ENGINE}, TRAJECTORY_HEADER,
            trajectory_blocks(report.propagator, report.b_a, 200),
            ["limit-cycle trajectory in the (omega, entropy) plane"],
        )
    if name == "fig2":
        spec = spec_from_engine_dict(_FIG1_ENGINE)
        report = limit_cycle(spec)
        blocks = [[label, *iterate_block(report, thermal_state(spec.omega_b, spec.j, temp), 15)]
                  for label, temp in (("cold", spec.t_cold), ("hot", 100.0))]
        return (
            {"preset": "fig2", "engine": _FIG1_ENGINE}, ["start"] + ITERATE_HEADER, blocks,
            ["two-start convergence; hot start is a thermal state at T=100"],
        )
    if name == "fig3":
        blocks = []
        for case in sorted(_FIG3_CASES):
            report = limit_cycle(spec_from_engine_dict(_fig3_engine(case)))
            # starting from the cycle's own mid-cycle state leaves a purely
            # coherent displacement, which exposes the projected-distance
            # oscillation of the dephasing-free cases
            blocks.append([case, *iterate_block(report, report.ledger.b_c, 40)])
        return (
            {"preset": "fig3", "cases": _FIG3_CASES, "engine_fallback": _FIG1_ENGINE},
            ["case"] + ITERATE_HEADER, blocks,
            [
                "fields and bath couplings are not stated for these insets;"
                " they fall back to the fig1 values",
                "initial state: the limit cycle's mid-cycle state (corner C)",
            ],
        )
    if name == "fig5":
        rows = []
        for label in sorted(_FIG5_CYCLES):
            engine = dict(_FIG5_COMMON)
            engine.update(_FIG5_CYCLES[label])
            rows.append([label] + limit_cycle_row(spec_from_engine_dict(engine)))
        return (
            {"preset": "fig5", "engine_common": _FIG5_COMMON, "cycles": _FIG5_CYCLES},
            ["cycle"] + LIMIT_CYCLE_HEADER, [list(zip(*rows))], [],
        )
    if name == "fig6":
        return (
            {"preset": "fig6", "engine": _FIG6_ENGINE}, LIMIT_CYCLE_HEADER,
            [list(zip(limit_cycle_row(spec_from_engine_dict(_FIG6_ENGINE))))],
            ["gamma_hot_conductance is irrelevant here (tau_hot = 0)"],
        )
    raise ConfigError(f"unknown figure preset {name!r}")


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "limit-cycle": cmd_limit_cycle,
    "iterate": cmd_iterate,
    "trajectory": cmd_trajectory,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "equilibrium-curve": cmd_equilibrium_curve,
}
_PRESETS = ("fig1", "fig2", "fig3", "fig5", "fig6")


def _error_record(code: str, message: str, **extra) -> str:
    record = {"error": code, "message": message}
    record.update(extra)
    return json.dumps(record, sort_keys=True)


# every option, each by its full name only
_OPTIONS = ("--config", "--out", "--help", "-h")

_USAGE = """\
usage: spinotto <command> --config PATH [--out PATH]
       spinotto figure <preset> [--out PATH]

Four-stroke two-spin quantum Otto engine simulator.

commands: limit-cycle, iterate, trajectory, spectrum, sweep, equilibrium-curve
presets:  fig1, fig2, fig3, fig5, fig6

  --config PATH  JSON run configuration (every command but figure)
  --out PATH     CSV output; default output.path from the config, else stdout
  -h, --help     print this text
"""


class _UsageError(ValueError):
    """A command line outside the grammar of the usage text."""


def _is_option(token: str) -> bool:
    return token.startswith("--") or token == "-h"


def _parse_args(argv):
    """(command, preset or config path, out path) from the command line, or
    None for -h/--help.  Options come in any order, as `--name value` or
    `--name=value`; the last of a repeated option wins and `--` ends them."""
    positional, options = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            positional.extend(tokens)
        elif not _is_option(token):
            positional.append(token)
        else:
            option, eq, value = token.partition("=")
            if option not in _OPTIONS:
                raise _UsageError(f"unknown option {option}")
            if option in ("--help", "-h"):
                return None
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    raise _UsageError(f"{option} expects a value")
            options[option] = value
    if not positional:
        raise _UsageError("missing command")
    command, *rest = positional
    if command == "figure":
        if len(rest) != 1 or rest[0] not in _PRESETS:
            raise _UsageError("figure takes one preset of " + ", ".join(_PRESETS))
        if "--config" in options:
            raise _UsageError("figure takes no --config")
        argument = rest[0]
    elif command not in _COMMANDS:
        raise _UsageError(f"unknown command {command!r}")
    elif rest:
        raise _UsageError(f"unexpected argument {rest[0]!r}")
    elif "--config" not in options:
        raise _UsageError(f"{command} requires --config")
    else:
        argument = options["--config"]
    return command, argument, options.get("--out")


def main(argv=None) -> int:
    """Run one command line; the exit status.  Cyclic garbage collection is
    paused meanwhile and then left as the caller had it: a run builds no
    reference cycles, so reference counting frees all it allocates, while
    the collector's passes would walk the growing table again and again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(_error_record("usage", f"{exc}; see spinotto --help"), file=sys.stderr)
        return 2
    try:
        if parsed is None:
            _emit(_USAGE, None)
            return 0
        command, argument, out_path = parsed
        if command == "figure":
            command, precision = f"figure {argument}", 12
            echo, header, blocks, notes = figure_preset(argument)
        else:
            config = load_config(argument)
            precision = config.output.get("precision", 12)
            if out_path is None:
                out_path = config.output.get("path")
            echo, notes = {"engine": config.engine_raw, "run": config.run}, ()
            header, blocks = _COMMANDS[command](config)
        _emit(render_csv(command, echo, header, blocks, precision, notes), out_path)
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=sys.stderr)
        return 2
    except NonUniqueLimitCycleError as exc:
        # each of limit_cycle's refusals carries the six eigenvalues
        moduli = [abs(m) for m in exc.eigenvalues]
        print(_error_record("non-unique-limit-cycle", str(exc), eigenvalue_moduli=moduli),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
