"""Benchmark for the spinotto CLI: end-to-end runs and a traced per-layer run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed run is one ``spinotto.cli.main(argv)`` call in a fresh child
interpreter (perfbench/child.py), started one at a time, so each run pays
interpreter start-up and imports as a CLI user does.  The seed draws one JSON
config per child from the ranges in perfbench/workloads.json; the program
sees only the configs.  Children run until S seconds have passed and at
least MIN_RUNS have finished.  Each output is checked outside the timed
region (perfbench/checks.py); every row that fails, and every expected row
of a child that exits non-zero, counts in ``failed``.

Host-speed normalization: a shared 2-core x86_64 host was seen to switch
every few seconds between a fast state and one about 1.7x slower, so the raw
median of a 30 s run moved by 20-40% from run to run.  Each child therefore
times a fixed calibration kernel just before and just after its CLI call,
and the gated timings are rescaled per child to a host on which that kernel
takes CAL_REF_S (``wall_s_norm = median(wall_s * CAL_REF_S / calibration_s)``,
with the mean of the two calibrations).  The raw median, the tail and the
run count are reported beside them.  ``setup_s`` is the raw median.

--trace 0 reports the end-to-end metrics.  --trace 1 cycles through traced
children (spans around each layer, perfbench/tracer.py), untraced children
(for the tracing overhead) and ``-X importtime`` children (for the set-up
breakdown), and reports the per-layer metrics, with times normalized in the
same way.  The JSON line carries the metrics BENCHMARK.json declares: the
self time of a function that a workload never calls reads 0 on every run,
so only spans that every workload enters have their self time there; the
report lists every span.  Both modes print a human-readable report, write it
to .perfbench/results/, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
from tracer import FUNCTIONS, METHODS, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# enough runs for a steady median; a run of 21 or more also has a tail
# percentile above the median with ten runs beyond it
MIN_RUNS = 15
# calibration kernel time (child.calibrate) that normalized timings refer
# to: its time on an uncontended 2-core x86_64 host, Python 3.11, numpy 2.4
CAL_REF_S = 0.025
MIN_TRACE_RUNS = 3  # of each child kind in a traced run
HARD_LIMIT_S = 120.0  # stop starting children after this, whatever MIN_RUNS says
CHILD_TIMEOUT_S = 30.0
# the child is the plain single-threaded baseline: one BLAS/OpenMP thread,
# at most nproc threads in all
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SPAN_NAMES = sorted({name for name, *_ in FUNCTIONS + METHODS} | {"cli.main"})
LAYERS = sorted({name.split(".")[0] for name in SPAN_NAMES})


# ---------------------------------------------------------------------------
# seeded configs


def make_config(spec, base_engine, workload, seed, index):
    """The config of child ``index`` of a run; a function of (seed, index)."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ranges, size = spec["ranges"], spec["size"]
    engine = dict(base_engine, **spec["fixed"])
    run = {}
    command = spec["command"]
    if command in ("sweep", "trajectory"):
        engine["tau_hot"] = rng.uniform(*ranges["tau_hot"])
        engine["tau_cold"] = rng.uniform(*ranges["tau_cold"])
    if command == "sweep":
        run["sweep"] = {"key": size["sweep_key"],
                        "from": rng.uniform(*ranges["sweep_from"]),
                        "to": rng.uniform(*ranges["sweep_to"]),
                        "steps": size["steps"]}
    elif command == "iterate":
        run["n_cycles"] = size["n_cycles"]
        run["initial_state"] = {"kind": "bloch", "b": _physical_bloch(rng, ranges)}
    elif command == "trajectory":
        run["samples_per_branch"] = size["samples_per_branch"]
    return {"engine": engine, "run": run}


def _physical_bloch(rng, ranges):
    """Rejection-sample b1..b5 whose closed-form eigenvalues all exceed the
    stated minimum (the spectrum formula of spinotto.algebra.vn_eigenvalues)."""
    while True:
        b = [rng.uniform(*ranges["initial_bloch_component"]) for _ in range(5)]
        d = (b[0] ** 2 + b[1] ** 2 + b[2] ** 2) ** 0.5
        r2 = 2.0 ** 0.5
        lams = (0.25 - d / r2 + b[4] / 2, 0.25 + b[3] / r2 - b[4] / 2,
                0.25 - b[3] / r2 - b[4] / 2, 0.25 + d / r2 + b[4] / 2)
        if min(lams) >= ranges["min_initial_eigenvalue"]:
            return b


# ---------------------------------------------------------------------------
# children


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({name: BLAS_THREADS for name in BLAS_VARS})
    return env


def run_child(mode, workdir, index, cli_args, env):
    """Start one child, wait for it, return (record or None, stderr text)."""
    record_path = os.path.join(workdir, f"record-{index}.json")
    cmd = [sys.executable]
    if mode == "import":
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "child.py")]
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd + [repr(spawn), mode, record_path] + cli_args,
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not os.path.exists(record_path):
        return None, proc.stderr
    with open(record_path) as fh:
        record = json.load(fh)
    os.remove(record_path)
    return record, proc.stderr


def importtime_breakdown(stderr):
    """Cumulative import seconds of numpy, scipy and the rest of spinotto.

    Each ``-X importtime`` line is ``self | cumulative | <indent>name``;
    only the outermost entry of each package counts, since its cumulative
    time already holds what it imports.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "spinotto": 0.0}
    outer = {}  # package -> indent depth of its outermost entries so far
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        cumulative, name = fields[1].strip(), fields[2]
        package = name.strip().split(".")[0]
        if package not in totals or not cumulative.isdigit():
            continue
        # an entry prints after everything it imports, so a shallower entry
        # of the same package replaces the deeper ones summed so far
        depth = len(name) - len(name.lstrip())
        if depth < outer.get(package, depth + 1):
            totals[package], outer[package] = 0.0, depth
        if depth == outer[package]:
            totals[package] += int(cumulative) / 1e6
    nested = totals["numpy"] + totals["scipy"]
    return {
        "setup.numpy_s": totals["numpy"],
        "setup.scipy_integrate_s": totals["scipy"],
        "setup.spinotto_s": totals["spinotto"] - nested,
    }


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """The highest percentile with at least ten runs beyond it, and its
    level; None when no percentile above the median has that many."""
    ordered = sorted(values)
    rank = len(ordered) - 11
    if rank < len(ordered) / 2:
        return None, None
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(record, specs):
    """Per-layer metrics of one traced child, times host-normalized."""
    per_span = self_times(record["spans"])
    scale = CAL_REF_S / record["calibration_s"]
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = per_span.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s * scale
    for layer in LAYERS:
        out[f"{layer}.self_s"] = scale * sum(
            s for name, (_, s) in per_span.items() if name.startswith(layer + "."))
    out["propagators.sweep.rhs_evals"] = record["counters"].get("propagators.sweep.rhs_evals", 0)
    out["propagators.sweep.per_spec"] = out["propagators.sweep.calls"] / specs
    out["engine.compose_per_spec"] = out["engine.compose_cycle.calls"] / specs
    out["trace.wall_s_norm"] = record["wall_s"] * scale
    # self times partition the root span, so this is the time no span saw
    out["trace.unaccounted_s"] = abs(record["wall_s"] - sum(s for _, s in per_span.values()))
    return out


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": read_commit(),
        "blas_threads": BLAS_THREADS,
    }


def read_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinotto", "cli.py")):
        print(f"perfbench: no spinotto sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        catalogue = json.load(fh)
    spec = catalogue["workloads"].get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(catalogue['workloads'])}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spinotto.cli

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, spec, catalogue["engine_base"], workdir, spinotto.cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, base_engine, workdir, cli):
    env = child_env()
    check = checks.CHECKS[spec["command"]]
    kinds = ["traced", "plain", "import"] if args.trace else ["plain"]
    min_runs = MIN_TRACE_RUNS * len(kinds) if args.trace else MIN_RUNS
    out_path = os.path.join(workdir, "out.csv")
    config_path = os.path.join(workdir, "config.json")

    def child_args(index):
        config = make_config(spec, base_engine, args.workload, args.seed, index)
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        return config, [spec["command"], "--config", config_path, "--out", out_path]

    # warm-up: byte-compiles the sources and fills the file cache; untimed
    run_child("plain", workdir, -1, child_args(-1)[1], env)

    attempted = failed = 0
    problems = []
    records = {kind: [] for kind in kinds}
    started = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - started
        if elapsed >= HARD_LIMIT_S or (elapsed >= args.seconds and index >= min_runs):
            break
        kind = kinds[index % len(kinds)]
        config, cli_args = child_args(index)
        if os.path.exists(out_path):
            os.remove(out_path)
        record, stderr = run_child(kind, workdir, index, [] if kind == "import" else cli_args, env)
        index += 1
        if kind == "import":
            if record is not None:
                record.update(importtime_breakdown(stderr))
                records[kind].append(record)
            continue
        if record is None or not os.path.exists(out_path):
            expected = check(config, "")[0]
            attempted += expected
            failed += expected
            problems.append(f"child {index - 1} ({kind}) failed: {stderr.strip()[-300:]}")
            continue
        with open(out_path) as fh:
            text = fh.read()
        expected, bad, why = check(config, text)
        attempted += expected
        failed += bad
        problems.extend(why)
        record["rows"] = len(checks.parse_csv(text)[1])
        record["specs"] = config["run"]["sweep"]["steps"] if "sweep" in config["run"] else 1
        records[kind].append(record)
    measured_s = time.monotonic() - started

    # once per invocation: the fig6 preset against its reference values
    fig6_path = os.path.join(workdir, "fig6.csv")
    attempted += 1
    fig6_problems = ["fig6 preset exited non-zero"]
    if cli.main(["figure", "fig6", "--out", fig6_path]) == 0:
        with open(fig6_path) as fh:
            fig6_problems = checks.check_fig6(fh.read())
    failed += bool(fig6_problems)
    problems.extend(fig6_problems)

    if not all(records[kind] for kind in kinds):
        # nothing to measure: failed_frac is 1 and there is no metric to report
        print(f"perfbench: no {kinds} child succeeded ({failed} of {attempted} rows failed); "
              f"first problem: {problems[0] if problems else 'none'}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        computed, detail = trace_metrics(records)
    else:
        computed, detail = end_to_end_metrics(records["plain"])
    metrics = {name: computed[name] for name in units}

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "runs": index,
        "environment": environment(), "metrics": metrics, "detail": detail,
        "attempted": attempted, "failed": failed, "problems": problems[:50],
    }
    report(result, units)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def end_to_end_metrics(plain):
    walls = [r["wall_s"] for r in plain]
    norm = [r["wall_s"] * CAL_REF_S / r["calibration_s"] for r in plain]
    tail_value, tail_level = tail(walls)
    metrics = {
        "wall_s_norm": statistics.median(norm),
        "rows_per_s_norm": statistics.median(r["rows"] / w for r, w in zip(plain, norm)),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    detail = {
        "runs": len(plain),
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail_value,
        "wall_s_tail_percentile": tail_level,
        "wall_s_min": min(walls),
        "wall_s_max": max(walls),
        "rows_per_s_median": statistics.median(r["rows"] / r["wall_s"] for r in plain),
        "calibration_s_median": statistics.median(r["calibration_s"] for r in plain),
        "per_run": [[r["wall_s"], r["setup_s"], r["rss_mb"], r["calibration_s"]] for r in plain],
    }
    return metrics, detail


def trace_metrics(records):
    per_child = [layer_metrics(r, r["specs"]) for r in records["traced"]]
    medians = {n: statistics.median(c[n] for c in per_child) for n in per_child[0]}
    untraced = statistics.median(
        r["wall_s"] * CAL_REF_S / r["calibration_s"] for r in records["plain"])
    medians["trace.overhead_s"] = medians["trace.wall_s_norm"] - untraced
    for name in ("setup.numpy_s", "setup.scipy_integrate_s", "setup.spinotto_s"):
        medians[name] = statistics.median(r[name] for r in records["import"])
    unaccounted = max(c["trace.unaccounted_s"] for c in per_child)
    detail = {
        "traced_runs": len(per_child),
        "untraced_wall_s_norm": untraced,
        "max_unaccounted_s": unaccounted,
        "self_sum_within_overhead": unaccounted <= abs(medians["trace.overhead_s"]),
        "all_layer_metrics": medians,
    }
    return medians, detail


def report(result, units):
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"runs={result['runs']} measured={result['measured_s']:.1f}s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    detail = result["detail"]
    for name, value in detail.items():
        if name not in ("all_layer_metrics", "per_run"):
            print(f"  {name:42s} {value}")
    if "all_layer_metrics" in detail:
        print("  other span metrics (median over traced runs):")
        for name, value in sorted(detail["all_layer_metrics"].items()):
            if name not in result["metrics"]:
                print(f"    {name:40s} {value:14.6g}")
    frac = result["failed"] / result["attempted"]
    print(f"  failed_frac {frac:.6g} ({result['failed']} of {result['attempted']} rows)")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
