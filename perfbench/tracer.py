"""Span tracing of spinotto's layers from outside the package.

Each public function is rebound under the name its callers look up (a call
from ``spinotto.cli`` to ``limit_cycle`` goes through ``spinotto.cli.limit_cycle``),
so the package itself is not edited.  Spans stay in memory as
``[name, start, end, parent_index]`` and are written out by the caller when
the traced call has returned.  Names that a later version of the package no
longer has are skipped; their metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module where callers look the name up, attribute)
FUNCTIONS = [
    ("cli.load_config", "spinotto.cli", "load_config"),
    ("cli.render_csv", "spinotto.cli", "render_csv"),
    ("engine.limit_cycle", "spinotto.cli", "limit_cycle"),
    ("engine.thermo_ledger", "spinotto.cli", "thermo_ledger"),
    ("engine.iterate", "spinotto.cli", "iterate"),
    ("engine.trajectory", "spinotto.cli", "trajectory"),
    ("engine.compose_cycle", "spinotto.engine", "compose_cycle"),
    ("propagators.sweep", "spinotto.engine", "wei_norman_alphas"),
    ("propagators.sweep_build", "spinotto.engine", "adiabat_propagator"),
    ("propagators.bath", "spinotto.engine", "isochore_propagator"),
    ("propagators.bath", "spinotto.engine", "partial_isochore"),
    ("propagators.compose", "spinotto.engine", "compose"),
    ("measures.quantum_distance", "spinotto.cli", "quantum_distance"),
    ("measures.conditional_entropy", "spinotto.cli", "conditional_entropy"),
    ("measures.wootters_energy_distance", "spinotto.cli", "wootters_energy_distance"),
    ("measures.vn_entropy", "spinotto.cli", "vn_entropy"),
    ("measures.vn_entropy", "spinotto.engine", "vn_entropy"),
    ("measures.energy_entropy", "spinotto.cli", "energy_entropy"),
    ("measures.energy_entropy", "spinotto.engine", "energy_entropy"),
    ("algebra.reconstruct_density", "spinotto.measures", "reconstruct_density"),
    ("algebra.matrix_sqrt", "spinotto.measures", "matrix_sqrt"),
    ("algebra.vn_eigenvalues", "spinotto.measures", "vn_eigenvalues"),
    ("algebra.vn_eigenvalues", "spinotto.cli", "vn_eigenvalues"),
    ("algebra.energy_populations", "spinotto.measures", "energy_populations"),
]

# (span name, module, class, method)
METHODS = [
    ("propagators.sweep_dense", "spinotto.propagators", "WeiNormanPath", "at"),
]

# (counter name, module, attribute, result field): sums a field of the result
RESULT_COUNTERS = [
    ("propagators.sweep.rhs_evals", "spinotto.propagators", "solve_ivp", "nfev"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {name: 0 for name, *_ in RESULT_COUNTERS}
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def count(self, name, field, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += int(getattr(result, field, 0))
            return result

        return counted

    def install(self):
        """Rebind every traced name that the loaded package has."""
        for name, module, attr in FUNCTIONS:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        for name, module, attr, field in RESULT_COUNTERS:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.count(name, field, getattr(mod, attr)))


def self_times(spans):
    """Per span name: (calls, self seconds), self = duration minus children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - inner)
    return out
