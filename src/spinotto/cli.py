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

Exit status: 0 success, 2 config error, 3 no unique limit cycle (4 is
reserved; no longer emitted).  Failures emit a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from collections import namedtuple

from .algebra import BlochVector, eigenvalue_tuple, field_magnitude, is_physical, thermal_state
from .engine import (
    CyclePropagator,
    CycleSpec,
    LimitCycleReport,
    NonUniqueLimitCycleError,
    compose_cycle,
    energy,
    iterate,
    limit_cycle,
    linspace,
    spectrum,
    trajectory,
)
from .measures import Reference, energy_entropy, vn_entropy, wootters_distance_to
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


def spec_from_engine_dict(engine: dict, path: str = "engine") -> CycleSpec:
    if not isinstance(engine, dict):
        raise ConfigError(f"{path}: expected an object")
    missing = sorted(set(ENGINE_KEYS) - set(engine))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {', '.join(missing)}")
    unknown = sorted(set(engine) - set(ENGINE_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")
    fields = {
        ENGINE_KEYS[k]: _require_number(v, f"{path}.{k}") for k, v in engine.items()
    }
    try:
        return CycleSpec(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(set(raw) - {"engine", "run", "output"})
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {', '.join(unknown)}")
    if "engine" not in raw:
        raise ConfigError("missing required section: engine")
    spec = spec_from_engine_dict(raw["engine"])

    run = raw.get("run", {})
    if not isinstance(run, dict):
        raise ConfigError("run: expected an object")
    unknown = sorted(set(run) - RUN_KEYS)
    if unknown:
        raise ConfigError(f"run: unknown key(s) {', '.join(unknown)}")

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    unknown = sorted(set(output) - {"path", "precision"})
    if unknown:
        raise ConfigError(f"output: unknown key(s) {', '.join(unknown)}")
    if "path" in output and not (isinstance(output["path"], str) and output["path"]):
        raise ConfigError("output.path: expected a non-empty string")
    precision = output.get("precision", 12)
    if not isinstance(precision, int) or isinstance(precision, bool) or not 1 <= precision <= 17:
        raise ConfigError("output.precision: expected an integer in [1, 17]")

    return RunConfig(spec=spec, engine_raw=dict(raw["engine"]), run=run, output=output)


def _initial_state(config: RunConfig) -> BlochVector:
    sel = config.run.get("initial_state", {"kind": "thermal", "temperature": config.spec.t_cold})
    if not isinstance(sel, dict) or "kind" not in sel:
        raise ConfigError("run.initial_state: expected an object with a 'kind'")
    kind = sel["kind"]
    if kind == "maximally-mixed":
        return BlochVector(0.0, 0.0, 0.0, 0.0, 0.0)
    if kind == "thermal":
        temp = _require_number(sel.get("temperature", config.spec.t_cold),
                               "run.initial_state.temperature")
        if temp <= 0.0:
            raise ConfigError("run.initial_state.temperature must be > 0")
        # thermal start at the anchor field omega_b
        return thermal_state(config.spec.omega_b, config.spec.j, temp)
    if kind == "bloch":
        values = sel.get("b")
        if not isinstance(values, list) or len(values) != 5:
            raise ConfigError("run.initial_state.b: expected a list of 5 numbers")
        b = BlochVector(*(_require_number(v, "run.initial_state.b") for v in values))
        if not is_physical(eigenvalue_tuple(b)):
            raise ConfigError("run.initial_state.b: not a physical state")
        return b
    raise ConfigError(f"run.initial_state.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# CSV assembly


def render_csv(command, config_echo, header, rows, precision, notes=()) -> str:
    """CSV text; each column keeps its first-row type: text and integers as
    they are, floats to `precision` digits (+ 0.0 prints -0.0 as 0)."""
    lines = [
        f"# spinotto-csv schema-version {SCHEMA_VERSION}",
        f"# command: {command}",
        "# config: " + json.dumps(config_echo, sort_keys=True, separators=(",", ":")),
    ]
    lines.extend(f"# note: {note}" for note in notes)
    lines.append(",".join(header))
    if rows:
        fields, zeros = [], []
        for value in rows[0]:
            if isinstance(value, str):
                fields.append("%s")
                zeros.append("")
            elif isinstance(value, int) and not isinstance(value, bool):
                fields.append("%s")
                zeros.append(0)
            else:
                fields.append(f"%.{precision}g")
                zeros.append(0.0)
        template = ",".join(fields)
        add = operator.add
        lines.extend([template % tuple(map(add, row, zeros)) for row in rows])
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command row builders

_CORNER_COLS = [f"b{i}_{c}" for c in "abcd" for i in range(1, 6)]
_MU_COLS = [f"mu{i}_{p}" for i in range(6) for p in ("re", "im")]
_LEDGER_COLS = [
    "q_hot", "q_cold", "w_ab", "w_ba", "power", "ds_ext",
    "ds_u_hot", "ds_u_cold", "ds_u_total",
    "ds_e_hot", "ds_e_cold", "ds_e_ab", "ds_e_ba",
]
LIMIT_CYCLE_HEADER = _CORNER_COLS + _MU_COLS + _LEDGER_COLS


def limit_cycle_row(spec: CycleSpec) -> list:
    report = limit_cycle(spec)
    ledger = report.ledger
    row = []
    for corner in (ledger.b_a, ledger.b_b, ledger.b_c, ledger.b_d):
        row.extend(corner)
    for mu in report.eigenvalues:
        row.extend((mu.real, mu.imag))
    row.extend([
        ledger.q_hot, ledger.q_cold, ledger.w_ab, ledger.w_ba, ledger.power,
        ledger.ds_ext, ledger.ds_u_hot, ledger.ds_u_cold, ledger.ds_u_total,
        ledger.ds_e_hot, ledger.ds_e_cold, ledger.ds_e_ab, ledger.ds_e_ba,
    ])
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


def iterate_rows(report: LimitCycleReport, b0: BlochVector, n: int) -> list[list]:
    spec, b_lc = report.propagator.spec, report.b_a
    ref = Reference(b_lc)
    wootters = wootters_distance_to(b_lc, spec.omega_b, spec.j)
    rows = []
    for k, b in enumerate(iterate(report.propagator, b0, n)):
        lam = eigenvalue_tuple(b)
        rows.append(
            [k, b.b1, b.b2, b.b3, b.b4, b.b5,
             ref.quantum_distance(b, lam),
             wootters(b),
             ref.conditional_entropy(b, lam)]
        )
    return rows


TRAJECTORY_HEADER = (
    ["branch", "t", "omega"] + [f"b{i}" for i in range(1, 6)]
    + ["s_vn", "s_e", "energy"]
)


def trajectory_rows(prop: CyclePropagator, b_start: BlochVector, samples: int) -> list[list]:
    j = prop.spec.j
    rows = []
    for branch, t, omega, b in trajectory(prop, b_start, samples):
        # the energy basis is undefined at omega = J = 0 (a J = 0 sweep through
        # zero field); s_e takes its limit there, equal from either side
        s_e = energy_entropy(b, omega, j) if omega or j else energy_entropy(b, 1.0, 0.0)
        rows.append(
            [branch, t, omega, b.b1, b.b2, b.b3, b.b4, b.b5,
             vn_entropy(b), s_e, energy(b, omega, j)]
        )
    return rows


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


def cmd_limit_cycle(config: RunConfig, out_path):
    text = render_csv(
        "limit-cycle", {"engine": config.engine_raw, "run": config.run},
        LIMIT_CYCLE_HEADER, [limit_cycle_row(config.spec)],
        config.output.get("precision", 12),
    )
    _emit(text, out_path)


def cmd_iterate(config: RunConfig, out_path):
    n = config.run.get("n_cycles", 50)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ConfigError("run.n_cycles: expected a nonnegative integer")
    rows = iterate_rows(limit_cycle(config.spec), _initial_state(config), n)
    text = render_csv(
        "iterate", {"engine": config.engine_raw, "run": config.run},
        ITERATE_HEADER, rows, config.output.get("precision", 12),
    )
    _emit(text, out_path)


def cmd_trajectory(config: RunConfig, out_path):
    samples = config.run.get("samples_per_branch", 50)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ConfigError("run.samples_per_branch: expected an integer >= 2")
    if "initial_state" in config.run:
        # no fixed point needed, so this also runs without a unique limit cycle
        prop, b_start = compose_cycle(config.spec), _initial_state(config)
    else:
        report = limit_cycle(config.spec)
        prop, b_start = report.propagator, report.b_a
    rows = trajectory_rows(prop, b_start, samples)
    text = render_csv(
        "trajectory", {"engine": config.engine_raw, "run": config.run},
        TRAJECTORY_HEADER, rows, config.output.get("precision", 12),
    )
    _emit(text, out_path)


def cmd_spectrum(config: RunConfig, out_path):
    text = render_csv(
        "spectrum", {"engine": config.engine_raw, "run": config.run},
        SPECTRUM_HEADER, [spectrum_row(config.spec)],
        config.output.get("precision", 12),
    )
    _emit(text, out_path)


def cmd_sweep(config: RunConfig, out_path):
    sweep = config.run.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError("run.sweep: expected an object with key/from/to/steps")
    unknown = sorted(set(sweep) - SWEEP_KEYS)
    if unknown:
        raise ConfigError(f"run.sweep: unknown key(s) {', '.join(unknown)}")
    missing = sorted(SWEEP_KEYS - set(sweep))
    if missing:
        raise ConfigError(f"run.sweep: missing key(s) {', '.join(missing)}")
    key = sweep["key"]
    if key not in ENGINE_KEYS:
        raise ConfigError(f"run.sweep.key: {key!r} is not an engine key")
    start = _require_number(sweep["from"], "run.sweep.from")
    stop = _require_number(sweep["to"], "run.sweep.to")
    steps = sweep["steps"]
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ConfigError("run.sweep.steps: expected an integer >= 1")

    values = [start] if steps == 1 else linspace(start, stop, steps)

    def one(value):
        engine = dict(config.engine_raw)
        engine[key] = value
        return [value] + limit_cycle_row(spec_from_engine_dict(engine))

    rows = [one(v) for v in values]
    text = render_csv(
        "sweep", {"engine": config.engine_raw, "run": config.run},
        [key] + LIMIT_CYCLE_HEADER, rows, config.output.get("precision", 12),
    )
    _emit(text, out_path)


def cmd_equilibrium_curve(config: RunConfig, out_path):
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
    steps = run.get("steps", 100)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ConfigError("run.steps: expected an integer >= 1")
    temp = _require_number(run.get("temperature", config.spec.t_hot), "run.temperature")
    if temp <= 0.0:
        raise ConfigError("run.temperature must be > 0")
    rows = []
    for omega in ([lo] if steps == 1 else linspace(lo, hi, steps)):
        rows.append([omega, energy_entropy(thermal_state(omega, j, temp), omega, j)])
    text = render_csv(
        "equilibrium-curve", {"engine": config.engine_raw, "run": config.run},
        ["omega", "s_e_equilibrium"], rows, config.output.get("precision", 12),
    )
    _emit(text, out_path)


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


def figure_preset(name: str, out_path, precision=12):
    """Run one benchmark preset and emit its CSV."""
    if name == "fig1":
        report = limit_cycle(spec_from_engine_dict(_FIG1_ENGINE))
        rows = trajectory_rows(report.propagator, report.b_a, 200)
        text = render_csv(
            "figure fig1", {"preset": "fig1", "engine": _FIG1_ENGINE},
            TRAJECTORY_HEADER, rows, precision,
            notes=["limit-cycle trajectory in the (omega, entropy) plane"],
        )
    elif name == "fig2":
        spec = spec_from_engine_dict(_FIG1_ENGINE)
        report = limit_cycle(spec)
        rows = []
        for label, temp in (("cold", spec.t_cold), ("hot", 100.0)):
            b0 = thermal_state(spec.omega_b, spec.j, temp)
            rows.extend([label] + row for row in iterate_rows(report, b0, 15))
        text = render_csv(
            "figure fig2", {"preset": "fig2", "engine": _FIG1_ENGINE},
            ["start"] + ITERATE_HEADER, rows, precision,
            notes=["two-start convergence; hot start is a thermal state at T=100"],
        )
    elif name == "fig3":
        rows = []
        for case in sorted(_FIG3_CASES):
            report = limit_cycle(spec_from_engine_dict(_fig3_engine(case)))
            # starting from the cycle's own mid-cycle state leaves a purely
            # coherent displacement, which exposes the projected-distance
            # oscillation of the dephasing-free cases
            for row in iterate_rows(report, report.ledger.b_c, 40):
                rows.append([case] + row)
        text = render_csv(
            "figure fig3",
            {"preset": "fig3", "cases": _FIG3_CASES, "engine_fallback": _FIG1_ENGINE},
            ["case"] + ITERATE_HEADER, rows, precision,
            notes=[
                "fields and bath couplings are not stated for these insets;"
                " they fall back to the fig1 values",
                "initial state: the limit cycle's mid-cycle state (corner C)",
            ],
        )
    elif name == "fig5":
        rows = []
        for label in sorted(_FIG5_CYCLES):
            engine = dict(_FIG5_COMMON)
            engine.update(_FIG5_CYCLES[label])
            rows.append([label] + limit_cycle_row(spec_from_engine_dict(engine)))
        text = render_csv(
            "figure fig5",
            {"preset": "fig5", "engine_common": _FIG5_COMMON, "cycles": _FIG5_CYCLES},
            ["cycle"] + LIMIT_CYCLE_HEADER, rows, precision,
        )
    elif name == "fig6":
        rows = [limit_cycle_row(spec_from_engine_dict(_FIG6_ENGINE))]
        text = render_csv(
            "figure fig6", {"preset": "fig6", "engine": _FIG6_ENGINE},
            LIMIT_CYCLE_HEADER, rows, precision,
            notes=["gamma_hot_conductance is irrelevant here (tau_hot = 0)"],
        )
    else:
        raise ConfigError(f"unknown figure preset {name!r}")
    _emit(text, out_path)


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


def _error_record(code: str, message: str, **extra) -> str:
    record = {"error": code, "message": message}
    record.update(extra)
    return json.dumps(record, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinotto",
        description="Four-stroke two-spin quantum Otto engine simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    fig = sub.add_parser("figure")
    fig.add_argument("preset", choices=["fig1", "fig2", "fig3", "fig5", "fig6"])
    fig.add_argument("--out", default=None)
    fig.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            figure_preset(args.preset, args.out)
        else:
            config = load_config(args.config)
            out_path = args.out if args.out is not None else config.output.get("path")
            _COMMANDS[args.command](config, out_path)
    except ConfigError as exc:
        print(_error_record("config", str(exc)), file=sys.stderr)
        return 2
    except NonUniqueLimitCycleError as exc:
        moduli = (
            [abs(m) for m in exc.eigenvalues] if exc.eigenvalues is not None else None
        )
        print(
            _error_record("non-unique-limit-cycle", str(exc), eigenvalue_moduli=moduli),
            file=sys.stderr,
        )
        return 3
    return 0
