"""Output checks, run by the parent outside the timed region.

Each check takes the generated config and the CSV text the CLI wrote and
returns ``(rows_expected, rows_failed, problems)``.  A row fails when it is
missing, malformed, non-finite, or breaks the workload's invariant.
"""

from __future__ import annotations

import math

import numpy as np

# the sweep oracle is Richardson-extrapolated from two midpoint products; at
# 1000/2000 steps it is within ~1e-11 of the integrated propagator
ORACLE_STEPS = 1000
B_A_TOL = 1e-9
CLOSURE_TOL = 1e-9
# in-branch sweep samples come from dense output, good to ~3e-10 at seed
IN_SWEEP_TOL = 1e-8
# relative entropy to the limit cycle never rises along an iteration; the
# slack covers the 12 significant digits of the CSV
ENTROPY_RISE_TOL = 1e-10
CONVERGED_TOL = 1e-6
FIG6_TARGETS = {"power": -4.293e-2, "ds_u_total": 1.889e-2}
FIG6_REL_TOL = 1e-3


def parse_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _floats(row, columns):
    try:
        values = [float(row[c]) for c in columns]
    except (IndexError, ValueError):
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _columns(header, names):
    try:
        return [header.index(n) for n in names]
    except ValueError:
        return None


B_NAMES = [f"b{i}" for i in range(1, 6)]


def _sweep_oracle(omega_start, omega_end, j, tau):
    """Map of a linear field sweep from the direct midpoint product,
    independent of the sweep integrator the CLI uses."""
    from spinotto.propagators import AdiabatParams, AffinePropagator, adiabat_propagator_direct

    params = AdiabatParams(omega_start, omega_end, j, tau)
    coarse = adiabat_propagator_direct(params, ORACLE_STEPS).m
    fine = adiabat_propagator_direct(params, 2 * ORACLE_STEPS).m
    return AffinePropagator(m=(4.0 * fine - coarse) / 3.0)


def _oracle_anchor(engine):
    """Limit-cycle state at A with both sweeps from :func:`_sweep_oracle`."""
    from spinotto.propagators import BathParams, IsochoreParams, compose, isochore_propagator

    e = engine
    hot = isochore_propagator(IsochoreParams(
        e["omega_b"], e["j"],
        BathParams(e["gamma_hot_conductance"], e["dephasing_hot"], e["t_hot"]), e["tau_hot"]))
    cold = isochore_propagator(IsochoreParams(
        e["omega_a"], e["j"],
        BathParams(e["gamma_cold_conductance"], e["dephasing_cold"], e["t_cold"]), e["tau_cold"]))
    cyc = compose(_sweep_oracle(e["omega_a"], e["omega_b"], e["j"], e["tau_ab"]), cold,
                  _sweep_oracle(e["omega_b"], e["omega_a"], e["j"], e["tau_ba"]), hot)
    b123 = np.linalg.solve(np.eye(3) - cyc.m[:3, :3], cyc.m[:3, 3])
    b5 = (float(cyc.b5_drive @ b123) + cyc.b5_shift) / (1.0 - cyc.b5_scale)
    return np.array([*b123, 0.0, b5])


def check_sweep(config, text):
    sweep = config["run"]["sweep"]
    key, steps = sweep["key"], sweep["steps"]
    values = np.linspace(sweep["from"], sweep["to"], steps)
    header, rows = parse_csv(text)
    cols = _columns(header, [key] + [f"{b}_a" for b in B_NAMES])
    if cols is None:
        return steps, steps, ["header lacks the sweep or corner-A columns"]
    failed, problems = max(0, steps - len(rows)), []
    for value, row in zip(values, rows):
        got = _floats(row, cols) if len(row) == len(header) else None
        if got is None:
            failed += 1
            problems.append(f"malformed row at {key}={value}")
            continue
        engine = dict(config["engine"], **{key: float(value)})
        err = float(np.max(np.abs(np.array(got[1:]) - _oracle_anchor(engine))))
        if abs(got[0] - value) > 1e-9 * max(1.0, abs(value)) or err > B_A_TOL:
            failed += 1
            problems.append(f"{key}={value}: b_a off the direct oracle by {err:.2e}")
    return steps, failed, problems


def check_iterate(config, text):
    n = config["run"]["n_cycles"]
    expected = n + 1
    header, rows = parse_csv(text)
    names = ["k"] + B_NAMES + ["quantum_distance", "wootters_energy_distance",
                               "conditional_entropy"]
    cols = _columns(header, names)
    if cols is None:
        return expected, expected, ["header lacks iterate columns"]
    failed, problems = max(0, expected - len(rows)), []
    start = np.array(config["run"]["initial_state"]["b"])
    prev = math.inf
    for k, row in enumerate(rows[:expected]):
        got = _floats(row, cols) if len(row) == len(header) else None
        bad = got is None or got[0] != k or min(got[6:8]) < 0.0 or got[8] < -1e-12
        if not bad:
            ce = got[8]
            bad = ce > prev + ENTROPY_RISE_TOL * max(1.0, abs(prev))
            if k == 0:
                bad = bad or np.max(np.abs(np.array(got[1:6]) - start)) > 1e-11
            prev = ce
        if bad:
            failed += 1
            problems.append(f"row k={k} fails its invariant")
    last = _floats(rows[-1], cols) if len(rows) == expected else None
    if last is None or max(last[6:]) > CONVERGED_TOL:
        failed += 1
        problems.append("last row has not converged to the limit cycle")
    return expected, min(failed, expected), problems


def check_trajectory(config, text):
    samples = config["run"]["samples_per_branch"]
    expected = 4 * samples
    header, rows = parse_csv(text)
    cols = _columns(header, ["t", "omega"] + B_NAMES + ["s_vn", "s_e", "energy"])
    if cols is None or "branch" not in header:
        return expected, expected, ["header lacks trajectory columns"]
    branch_col = header.index("branch")
    failed, problems = max(0, expected - len(rows)), []
    parsed = []
    for i, row in enumerate(rows[:expected]):
        got = _floats(row, cols) if len(row) == len(header) else None
        # the energy-basis entropy bounds the von Neumann entropy from above
        if got is None or got[7] > got[8] + 1e-12:
            failed += 1
            problems.append(f"row {i} malformed or s_vn > s_e")
            got = None
        parsed.append((row[branch_col] if got else None, got))
    for i in range(1, len(parsed)):
        (name0, prev), (name1, cur) = parsed[i - 1], parsed[i]
        if prev is None or cur is None:
            continue
        same_branch = name0 == name1
        if cur[0] < prev[0] or same_branch == (i % samples == 0):
            bad = True
        elif same_branch and name1.startswith("adiabat"):
            # (b4, b5) commute with the sweep generator
            bad = cur[5] != prev[5] or cur[6] != prev[6]
        elif not same_branch:
            # consecutive branches share their corner state
            bad = np.max(np.abs(np.array(cur[2:7]) - np.array(prev[2:7]))) > CLOSURE_TOL
        else:
            bad = False
        if bad:
            failed += 1
            problems.append(f"row {i} breaks the branch invariants")
    # a few in-branch samples of each sweep against the direct product
    j = config["engine"]["j"]
    for start in range(0, len(parsed) - samples + 1, samples):
        name, origin = parsed[start]
        if origin is None or not name.startswith("adiabat"):
            continue
        for i in (start + samples // 3, start + samples // 2, start + 2 * samples // 3):
            got = parsed[i][1]
            if got is None:
                continue
            sweep = _sweep_oracle(origin[1], got[1], j, got[0] - origin[0])
            err = np.max(np.abs(sweep.m[:3, :3] @ np.array(origin[2:5]) - np.array(got[2:5])))
            if err > IN_SWEEP_TOL:
                failed += 1
                problems.append(f"row {i}: in-sweep state off the direct oracle by {err:.2e}")
    first, last = parsed[0][1] if parsed else None, parsed[-1][1] if parsed else None
    if (first is None or last is None or len(parsed) != expected
            or np.max(np.abs(np.array(first[2:7]) - np.array(last[2:7]))) > CLOSURE_TOL):
        failed += 1
        problems.append("trajectory does not close on itself")
    return expected, min(failed, expected), problems


def check_fig6(text):
    """The friction-cycle preset against its reference power and entropy."""
    header, rows = parse_csv(text)
    cols = _columns(header, list(FIG6_TARGETS))
    got = _floats(rows[0], cols) if cols is not None and len(rows) == 1 else None
    if got is None:
        return ["fig6 output malformed"]
    return [
        f"fig6 {name} = {value:.6e}, reference {target:.4e}"
        for (name, target), value in zip(FIG6_TARGETS.items(), got)
        if abs(value - target) > FIG6_REL_TOL * abs(target)
    ]


CHECKS = {"sweep": check_sweep, "iterate": check_iterate, "trajectory": check_trajectory}
