"""One CLI invocation in a fresh interpreter, started by run.py.

Usage: child.py SPAWN_CLOCK MODE RECORD_PATH [CLI ARGS...]

SPAWN_CLOCK is CLOCK_MONOTONIC as the parent read it just before starting
this process, so set-up time covers interpreter start-up and every import.
MODE is ``plain`` (timed run), ``traced`` (spans around each layer) or
``import`` (import only, for ``-X importtime``).  The record is written as
JSON to RECORD_PATH; a crash leaves no record and a non-zero exit status.
"""

import sys
import time

import spinotto.cli

ready = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402


def calibrate():
    """Seconds for a fixed mix of interpreter work and small-matrix numpy
    calls like the package's own; run just before and just after the timed
    call, it measures how fast the host was meanwhile."""
    import math

    import numpy as np

    a = np.eye(4) + 0.1
    start = time.perf_counter()
    for i in range(2000):
        np.linalg.eigh(a)
        a @ a
        np.array([math.sqrt(i), 1.0, 2.0]).sum()
    return time.perf_counter() - start


def run():
    spawn, mode, record_path, cli_args = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    record = {"setup_s": ready - spawn}
    if mode != "import":
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            main = tracer.wrap("cli.main", spinotto.cli.main)
        else:
            main = spinotto.cli.main
        before = calibrate()
        start = time.perf_counter()
        record["exit_code"] = main(cli_args)
        record["wall_s"] = time.perf_counter() - start
        record["calibration_s"] = (before + calibrate()) / 2.0
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counters"] = tracer.counters
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0 if record.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(run())
