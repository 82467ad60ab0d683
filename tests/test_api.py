"""The public API (its names as of 1.0 less the two removed in 3.0, the
two removed in 4.0 and the three removed in 5.0, its branch shape as of
2.0), its documentation and its version number."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import spinotto
from spinotto import (
    AdiabatParams, BathParams, BlochVector, CycleBranch, IsochoreParams, compose_cycle,
)
from conftest import fig1_spec

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = {
    "AdiabatParams", "AffinePropagator", "BathParams", "BlochVector", "CycleBranch",
    "CyclePropagator", "CycleSpec", "CycleSpectrum", "IsochoreParams", "LimitCycleReport",
    "NonUniqueLimitCycleError", "ThermoLedger", "adiabat_propagator_direct", "compose",
    "compose_cycle", "conditional_entropy", "eigenvalue_tuple", "energy", "energy_entropy",
    "energy_populations", "isochore_propagator",
    "iterate", "limit_cycle", "quantum_distance", "replace", "spectrum", "thermal_state",
    "trajectory", "vn_entropy", "wootters_energy_distance",
}

# name removed in 1.0, 3.0, 4.0 or 5.0 -> the module that used to define it
REMOVED = {
    "SpectralInfo": "algebra",
    "vn_eigenvalues": "algebra",
    "reconstruct_density": "algebra",
    "thermo_ledger": "engine",
    "measurement_entropy": "measures",
    "energy_conditional_entropy": "measures",
    "Reference": "measures",
    "wootters_distance_to": "measures",
    "identity_propagator": "propagators",
    "adiabat_propagator": "propagators",
    "TrajectorySample": "engine",
    "adiabat_partials": "propagators",
    "isochore_partials": "propagators",
}


# CycleBranch members removed in 2.0: the branch is (name, stroke, prop)
REMOVED_BRANCH_MEMBERS = ("adiabat", "duration", "isochore", "kind", "omega_at", "partials")


def test_public_api_is_exactly_the_1_0_names():
    exported = {name for name, value in vars(spinotto).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_API


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_name_raises_import_error(name):
    for module in ("spinotto", f"spinotto.{REMOVED[name]}"):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def test_cycle_branch_is_name_stroke_prop():
    assert CycleBranch._fields == ("name", "stroke", "prop")
    assert CycleBranch._field_defaults == {}
    branch = compose_cycle(fig1_spec()).branches[0]
    for name in REMOVED_BRANCH_MEMBERS:
        assert not hasattr(CycleBranch, name) and not hasattr(branch, name), name


def test_both_stroke_types_answer_tau_and_omega_at():
    hot = IsochoreParams(12.6355, 2.0, BathParams(0.3423, 0.0, 7.5), 2.5)
    assert (hot.tau, hot.omega_at(0.0), hot.omega_at(1.7)) == (2.5, 12.6355, 12.6355)
    up = AdiabatParams(5.0, 12.0, 2.0, 0.5)
    assert (up.tau, up.omega_at(0.0), up.omega_at(0.25), up.omega_at(0.5)) == (0.5, 5.0, 8.5, 12.0)


def test_bloch_vector_is_its_own_tuple():
    for member in ("values", "as_array", "from_array"):
        assert not hasattr(BlochVector, member)
    b = BlochVector(0.1, -0.05, 0.02, 0.01, 0.1)
    assert tuple(b) == (b.b1, b.b2, b.b3, b.b4, b.b5)
    assert np.array_equal(np.array(b), [0.1, -0.05, 0.02, 0.01, 0.1])
    assert BlochVector(*np.array(b)) == b


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        # an ellipsis stands for code the reader cannot run
        assert "..." not in block, f"README python block {number} has a placeholder"
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert versions == [spinotto.__version__]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_leftover_name():
    assert _unused_imports("import math\nfrom .a import b, c as d\nprint(d)\n") == ["b", "math"]


# every module but __init__.py, which imports to re-export
@pytest.mark.parametrize("path", sorted(
    path for path in (ROOT / "src" / "spinotto").glob("*.py") if path.name != "__init__.py"
), ids=lambda path: path.name)
def test_modules_use_every_name_they_import(path):
    assert _unused_imports(path.read_text()) == []


def _unread_private_names(sources: dict) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore that no module in ``sources`` (module name -> source) reads,
    as "module.name"."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_unread_private_names_finds_a_helper_without_a_caller():
    sources = {
        "a": "def _f():\n    pass\n_C, __all__ = 1, []\ndef _g():\n    return _C\n",
        "b": "from .a import _g\nclass _K:\n    pass\nx: int = _g()\n_y: int = 2\n",
    }
    assert _unread_private_names(sources) == ["a._f", "b._K", "b._y"]


def test_every_private_module_name_is_read_in_the_package():
    sources = {path.stem: path.read_text()
               for path in (ROOT / "src" / "spinotto").glob("*.py")}
    assert _unread_private_names(sources) == []
