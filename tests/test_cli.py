"""Config validation, CSV emission, presets and exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinotto import (
    AdiabatParams,
    BlochVector,
    adiabat_propagator_direct,
    conditional_entropy,
    energy_entropy,
    energy_populations,
    limit_cycle,
    quantum_distance,
    replace,
    thermal_state,
    wootters_energy_distance,
)
from spinotto.cli import (
    ITERATE_HEADER,
    TRAJECTORY_HEADER,
    ConfigError,
    iterate_rows,
    load_config,
    main,
    render_csv,
    trajectory_rows,
)
from conftest import SQRT2, fig1_spec, fig6_spec, random_bloch, random_spec

FIG1_ENGINE = {
    "t_cold": 1.5, "t_hot": 7.5,
    "omega_a": 5.08364, "omega_b": 12.6355, "j": 2.0,
    "gamma_cold_conductance": 0.3423, "gamma_hot_conductance": 0.3423,
    "dephasing_cold": 0.0, "dephasing_hot": 0.0,
    "tau_cold": 3.0, "tau_hot": 2.5, "tau_ab": 0.01, "tau_ba": 0.01,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path) as f:
        text = f.read()
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta.setdefault(key, value)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def column(header, rows, name, convert=float):
    idx = header.index(name)
    return [convert(r[idx]) for r in rows]


# ---------------------------------------------------------------------------
# config loading


def test_load_config_fig1_values(tmp_path):
    config = load_config(write_config(tmp_path, {"engine": FIG1_ENGINE}))
    assert config.spec == fig1_spec()


def test_load_config_missing_key_is_named(tmp_path):
    engine = dict(FIG1_ENGINE)
    del engine["tau_cold"]
    with pytest.raises(ConfigError, match="tau_cold"):
        load_config(write_config(tmp_path, {"engine": engine}))


def test_load_config_negative_temperature(tmp_path):
    engine = dict(FIG1_ENGINE, t_cold=-1.5)
    with pytest.raises(ConfigError, match="temperature"):
        load_config(write_config(tmp_path, {"engine": engine}))


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="tau_extra"):
        load_config(write_config(tmp_path, {"engine": dict(FIG1_ENGINE, tau_extra=1.0)}))
    with pytest.raises(ConfigError, match="extra_section"):
        load_config(write_config(tmp_path, {"engine": FIG1_ENGINE, "extra_section": {}}))
    with pytest.raises(ConfigError, match="cycles"):
        load_config(write_config(tmp_path, {"engine": FIG1_ENGINE, "run": {"cycles": 3}}))


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    # a syntax error, an integer past the digit limit, nesting past the recursion limit
    for text in ("{not json", '{"engine": {"t_hot": 1' + "0" * 5000 + "}}",
                 "[" * 100000 + "]" * 100000):
        path.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(str(path))


def test_load_config_precision_validation(tmp_path):
    payload = {"engine": FIG1_ENGINE, "output": {"precision": 0}}
    with pytest.raises(ConfigError, match="precision"):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("via, path", [
    ("output.path", True),
    ("output.path", 12345),
    ("output.path", ["x"]),
    ("output.path", "<directory>"),
    ("--out", "<directory>"),
    ("output.path", "<missing directory>"),
    ("--out", "<missing directory>"),
], ids=["bool", "int", "list", "directory", "directory-out", "missing", "missing-out"])
def test_bad_output_path_is_a_config_error(tmp_path, capsys, via, path):
    if path == "<directory>":
        path = str(tmp_path)
    elif path == "<missing directory>":
        path = str(tmp_path / "missing" / "out.csv")
    payload = {"engine": FIG1_ENGINE, "run": {"n_cycles": 2}}
    argv = ["iterate"]
    if via == "--out":
        argv += ["--out", path]
    else:
        payload["output"] = {"path": path}
    assert main(argv + ["--config", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert ("output.path" if not isinstance(path, str) else path) in record["message"]


# ---------------------------------------------------------------------------
# CSV rendering and the row builders


def _fmt_reference(value, spec):
    """Per-cell formatting: text and integers as they are, floats through
    format(v + 0.0, spec) so -0.0 prints as 0."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return format(value + 0.0, spec)


def test_render_csv_matches_per_cell_format():
    spec = fig1_spec()
    report = limit_cycle(spec)
    b0 = thermal_state(spec.omega_b, spec.j, 100.0)
    tables = [
        (["text", "int", "a", "b", "c"], [
            ["hot", 0, -0.0, 1.5, -2.5e-300],
            ["cold", -12, 0.1, -0.0, math.inf],
            ["x", 10**20, math.nan, 1.0 / 3.0, -1e300],
        ]),
        (["start"] + ITERATE_HEADER, [["hot"] + row for row in iterate_rows(report, b0, 20)]),
        (TRAJECTORY_HEADER, trajectory_rows(report.propagator, report.b_a, 20)),
    ]
    for header, rows in tables:
        for precision in (1, 6, 12, 17):
            text = render_csv("c", {"k": 1}, header, rows, precision)
            lines = text.splitlines()
            assert lines[-len(rows) - 1] == ",".join(header)
            spec = f".{precision}g"
            assert lines[-len(rows):] == [
                ",".join(_fmt_reference(v, spec) for v in row) for row in rows
            ]


def _wootters_reference(b, b_ref, omega, j):
    """The Wootters distance recomputed per state: both states' energy
    populations, each clipped at 0, summed left to right, then arccos."""
    overlap = 0.0
    for pj, qj in zip(energy_populations(b, omega, j), energy_populations(b_ref, omega, j)):
        overlap += math.sqrt(max(pj, 0.0) * max(qj, 0.0))
    if overlap >= 1.0 - 1e-12:
        return 0.0
    return math.acos(max(overlap, -1.0))


@pytest.mark.parametrize("dephasing", [False, True])
def test_iterate_rows_measures_equal_public_functions(rng, dephasing):
    spec = random_spec(rng, dephasing=dephasing)
    report = limit_cycle(spec)
    # the outer ground state pushed 1e-14 past the edge: a population of
    # about -2.5e-15, inside PHYSICALITY_TOL, that the reference must clip
    scale = SQRT2 * 0.25 * (1.0 + 1e-14) / math.hypot(spec.omega_b, spec.j)
    b_edge = BlochVector(scale * spec.omega_b, scale * spec.j, 0.0, 0.0, 0.0)
    assert min(energy_populations(b_edge, spec.omega_b, spec.j)) < 0.0
    references = [
        report.b_a,
        BlochVector(0.0, 0.0, 0.0, 0.0, 0.0),  # lam1 == lam4: the gap_ref == 0 branch
        BlochVector(0.0, SQRT2 / 4, 0.0, 0.0, 0.0),  # lam1 == 0: the inf sentinel
        BlochVector(0.0, 0.0, 0.0, 0.0, 0.5),  # lam2 == lam3 == 0 and lam1 == lam4
        b_edge,
    ]
    entropies = []
    for b_ref in references:
        rows = iterate_rows(replace(report, b_a=b_ref), random_bloch(rng), 30)
        for row in rows:
            b = BlochVector(*row[1:6])
            assert row[6] == quantum_distance(b, b_ref)
            assert row[7] == wootters_energy_distance(b, b_ref, spec.omega_b, spec.j)
            assert row[7] == _wootters_reference(b, b_ref, spec.omega_b, spec.j)
            assert row[8] == conditional_entropy(b, b_ref)
            entropies.append(row[8])
    assert math.inf in entropies


# ---------------------------------------------------------------------------
# commands


def test_limit_cycle_command(tmp_path):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    out = tmp_path / "lc.csv"
    assert main(["limit-cycle", "--config", config, "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert meta["command"] == "limit-cycle"
    assert len(rows) == 1
    expected = limit_cycle(fig1_spec()).ledger
    assert column(header, rows, "power")[0] == pytest.approx(expected.power, rel=1e-10)
    assert column(header, rows, "q_hot")[0] == pytest.approx(expected.q_hot, rel=1e-10)
    echoed = json.loads(meta["config"])
    assert echoed["engine"] == FIG1_ENGINE


def test_spectrum_command(tmp_path):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert column(header, rows, "mu0_re")[0] == 1.0
    spec = fig1_spec()
    expected = math.exp(-(spec.gamma_hot * spec.tau_hot + spec.gamma_cold * spec.tau_cold))
    assert column(header, rows, "mu1_re")[0] == pytest.approx(expected, abs=1e-12)


def test_iterate_from_fixed_point_reports_zero_distances(tmp_path):
    spec = fig1_spec()
    b_lc = limit_cycle(spec).b_a
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"n_cycles": 5,
                "initial_state": {"kind": "bloch", "b": list(b_lc)}},
    }
    out = tmp_path / "it.csv"
    assert main(["iterate", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 6
    for name in ("quantum_distance", "wootters_energy_distance", "conditional_entropy"):
        assert max(abs(v) for v in column(header, rows, name)) <= 1e-10


def test_trajectory_command(tmp_path):
    payload = {"engine": FIG1_ENGINE, "run": {"samples_per_branch": 5}}
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 20
    omegas = column(header, rows, "omega")
    assert omegas[0] == FIG1_ENGINE["omega_b"]
    branches = column(header, rows, "branch", convert=str)
    assert branches[0] == "isochore-hot"
    assert branches[-1] == "adiabat-cold-hot"


def test_sweep_produces_one_row_per_grid_point(tmp_path):
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"sweep": {"key": "tau_hot", "from": 0.5, "to": 3.0, "steps": 10}},
    }
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 10
    assert header[0] == "tau_hot"
    taus = column(header, rows, "tau_hot")
    assert taus[0] == 0.5 and taus[-1] == 3.0


def test_sweep_parallel_matches_serial(tmp_path):
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"sweep": {"key": "tau_cold", "from": 0.4, "to": 2.4, "steps": 8}},
    }
    config = write_config(tmp_path, payload)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(["sweep", "--config", config, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", config, "--out", str(parallel), "--threads", "4"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_identical_config_gives_identical_bytes(tmp_path):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["limit-cycle", "--config", config, "--out", str(first)]) == 0
    assert main(["limit-cycle", "--config", config, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_equilibrium_curve_values(tmp_path):
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"omega_from": 4.0, "omega_to": 14.0, "steps": 5, "temperature": 7.5},
    }
    out = tmp_path / "eq.csv"
    assert main(["equilibrium-curve", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 5
    omega = column(header, rows, "omega")[0]
    value = column(header, rows, "s_e_equilibrium")[0]
    expected = energy_entropy(thermal_state(omega, 2.0, 7.5), omega, 2.0)
    assert value == pytest.approx(expected, rel=1e-10)


def test_equilibrium_curve_infinite_temperature_limit(tmp_path):
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"omega_from": 4.0, "omega_to": 14.0, "steps": 3, "temperature": 1e9},
    }
    out = tmp_path / "eq.csv"
    assert main(["equilibrium-curve", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    for value in column(header, rows, "s_e_equilibrium"):
        assert value == pytest.approx(math.log(4), abs=1e-9)


def test_equilibrium_curve_zero_temperature_limit(tmp_path):
    payload = {
        "engine": FIG1_ENGINE,
        "run": {"omega_from": 4.0, "omega_to": 14.0, "steps": 3, "temperature": 1e-3},
    }
    out = tmp_path / "eq.csv"
    assert main(["equilibrium-curve", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    for value in column(header, rows, "s_e_equilibrium"):
        assert abs(value) < 1e-9


# ---------------------------------------------------------------------------
# figure presets


def test_figure_fig6_power_matches_reference(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "fig6", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert len(rows) == 1
    assert column(header, rows, "power")[0] == pytest.approx(-4.293e-2, rel=0.05)
    assert column(header, rows, "ds_u_total")[0] == pytest.approx(1.889e-2, rel=0.05)


def test_figure_fig6_parameters_round_trip(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "fig6", "--out", str(out)]) == 0
    meta, _, _ = read_csv(out)
    engine = json.loads(meta["config"])["engine"]
    assert engine["tau_hot"] == 0.0
    assert engine["tau_cold"] == 0.6
    assert engine["tau_ab"] == 0.03 and engine["tau_ba"] == 0.03
    assert engine["omega_a"] == 5.0836387
    assert engine["omega_b"] == 12.635485
    assert engine["gamma_cold_conductance"] == 1.7
    assert engine["t_hot"] == 7.5 and engine["t_cold"] == 1.5 and engine["j"] == 2.0


def test_figure_fig5_parameters_round_trip(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(["figure", "fig5", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert [r[0] for r in rows] == ["1", "2", "3"]
    config = json.loads(meta["config"])
    assert config["cycles"] == {
        "1": {"tau_hot": 0.32, "tau_cold": 0.64},
        "2": {"tau_hot": 0.581, "tau_cold": 1.1602},
        "3": {"tau_hot": 1.5, "tau_cold": 3.6},
    }
    common = config["engine_common"]
    assert common["gamma_hot_conductance"] == 1.0048
    assert common["gamma_cold_conductance"] == 0.10662
    assert common["tau_ab"] == 0.05 and common["tau_ba"] == 0.06
    assert common["omega_b"] == 12.63545 and common["omega_a"] == 5.0836387


def test_figure_fig1_is_closed_trajectory(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert json.loads(meta["config"])["engine"] == FIG1_ENGINE
    assert len(rows) == 4 * 200
    first = [float(v) for v in rows[0][3:8]]
    last = [float(v) for v in rows[-1][3:8]]
    assert np.abs(np.array(first) - np.array(last)).max() < 1e-9


def test_figure_fig2_two_starts_converge(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    starts = {r[0] for r in rows}
    assert starts == {"cold", "hot"}
    finals = {}
    for label in ("cold", "hot"):
        rows_label = [r for r in rows if r[0] == label]
        finals[label] = np.array([float(v) for v in rows_label[-1][2:7]])
    assert np.linalg.norm(finals["cold"] - finals["hot"]) < 1e-6


def test_figure_fig3_case_one_oscillates(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    config = json.loads(meta["config"])
    assert config["cases"]["2"] == {
        "tau_adiabat": 0.01, "dephasing_hot": 0.01, "dephasing_cold": 0.03,
    }
    assert config["engine_fallback"] == FIG1_ENGINE
    case1 = [r for r in rows if r[0] == "1"]
    wd = [float(r[header.index("wootters_energy_distance")]) for r in case1]
    assert any(wd[k + 1] > wd[k] + 1e-12 for k in range(len(wd) - 1))


# ---------------------------------------------------------------------------
# exit codes and error records


# sha256 of each preset's CSV, unchanged since 0.11.0.  Every printed digit
# goes through libm (exp, log, sin, cos, pow); these are the bytes with
# glibc's libm, on Python 3.10 to 3.13.
FIGURE_SHA256 = {
    "fig1": "c790c40b555593c54c90f8a54099d5dfc199f6010781d23cb8e4a12f451f76e1",
    "fig2": "5bb4a04c8d0db74b1c79817f96ee901ff63a4af43542a94895a1c4acb5811354",
    "fig3": "29d6ddf330a38ef1ae8d03c712eb5f01c71437b99e64a4b618e6a4e8d68c424f",
    "fig5": "f827a6110a5a46a82cc7c70eda9bb59f7073e0ab103b574de48d8ba72a1e0f57",
    "fig6": "28f3ac93ba260a037c7cb7ada8937740177eb87ff51e79dbc036d29e5dad5b57",
}


@pytest.mark.parametrize("preset", sorted(FIGURE_SHA256))
def test_figure_csv_bytes_are_pinned(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["figure", preset, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIGURE_SHA256[preset]


def test_exit_code_config_error(tmp_path, capsys):
    engine = dict(FIG1_ENGINE)
    del engine["j"]
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine})])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "j" in record["message"]


def test_exit_code_missing_config_file(tmp_path, capsys):
    code = main(["limit-cycle", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_exit_code_non_unique_limit_cycle(tmp_path, capsys):
    engine = dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0)
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine})])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "non-unique-limit-cycle"
    assert max(record["eigenvalue_moduli"]) <= 1.0 + 1e-9


def test_near_zero_field_sweep_exits_zero(tmp_path):
    # the sweep hugs omega = 0, where the Wei-Norman angle chart is singular
    engine = dict(FIG1_ENGINE, omega_a=1e-6, omega_b=2e-6, tau_ab=1.0, tau_ba=1.0)
    out = tmp_path / "lc.csv"
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine}),
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    assert all(math.isfinite(float(v)) for v in rows[0])
    corner = {c: BlochVector(*(column(header, rows, f"b{i}_{c}")[0] for i in range(1, 6)))
              for c in "abcd"}
    e = engine
    sweeps = [
        (AdiabatParams(e["omega_b"], e["omega_a"], e["j"], e["tau_ba"]), "b", "c"),
        (AdiabatParams(e["omega_a"], e["omega_b"], e["j"], e["tau_ab"]), "d", "a"),
    ]
    for params, start, end in sweeps:
        image = adiabat_propagator_direct(params, 20000).apply(corner[start])
        assert np.abs(np.array(image) - np.array(corner[end])).max() < 1e-9


def test_exit_code_sweep_angle_limit(tmp_path, capsys):
    engine = dict(FIG1_ENGINE, omega_b=1e300)
    start = time.perf_counter()
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine})])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "MAX_SWEEP_ANGLE" in record["message"]


def test_limit_cycle_with_strong_dephasing(tmp_path):
    # exp(2 * dephasing * Omega^2 * tau_hot) = exp(818) is past the float
    # range, so the bath stroke must not form it on its own
    engine = dict(FIG1_ENGINE, dephasing_hot=1.0)
    out = tmp_path / "lc.csv"
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine}),
                 "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 1
    assert all(math.isfinite(float(v)) for v in rows[0])


@pytest.mark.parametrize("command, engine_overrides, run", [
    ("limit-cycle", {"omega_b": 1e300}, {}),
    ("limit-cycle", {"omega_b": 1e300, "j": 1e300}, {}),
    ("limit-cycle", {"omega_a": -1e300}, {}),
    ("limit-cycle", {"omega_a": 1e-200, "omega_b": 2e-200, "j": 0.0}, {}),
    ("equilibrium-curve", {}, {"omega_from": 1.0, "omega_to": 1e300, "steps": 3}),
])
def test_exit_code_field_range(tmp_path, capsys, command, engine_overrides, run):
    # zero-length sweeps pass the sweep-angle limit, so only the field bound
    # stands between these fields and an overflowing Omega**2
    engine = dict(FIG1_ENGINE, tau_ab=0.0, tau_ba=0.0, **engine_overrides)
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main([command, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "FIELD_RANGE" in record["message"]


def test_zero_time_stroke_with_overflowing_dephasing_rate(tmp_path):
    # 2 * dephasing * Omega^2 overflows to inf, which a zero-length stroke
    # must not turn into NaN
    engine = dict(FIG1_ENGINE, dephasing_hot=1e308, tau_hot=0.0)
    out = tmp_path / "lc.csv"
    code = main(["limit-cycle", "--config", write_config(tmp_path, {"engine": engine}),
                 "--out", str(out)])
    assert code == 0
    _, _, rows = read_csv(out)
    assert all(math.isfinite(float(v)) for v in rows[0])


# each command reads only its own run keys
_ANY_RUN = {"n_cycles": 2, "samples_per_branch": 3,
            "sweep": {"key": "omega_a", "from": 4.0, "to": 5.0, "steps": 2}}


@pytest.mark.parametrize("command, engine_overrides, run", [
    *((command, {key: 1e308}, _ANY_RUN)
      for command in ("limit-cycle", "iterate", "trajectory", "spectrum", "sweep")
      for key in ("tau_cold", "tau_hot")),
    ("sweep", {}, {"sweep": {"key": "tau_hot", "from": 1e308, "to": 1.0, "steps": 3}}),
])
def test_overflowing_bath_stroke_phase_is_a_config_error(
    tmp_path, capsys, command, engine_overrides, run
):
    # sqrt(2) * Omega * tau overflows to inf, whose cos raised a math domain
    # error from the bath-stroke closed form
    engine = dict(FIG1_ENGINE, **engine_overrides)
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main([command, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "sqrt(2) * Omega * tau" in record["message"]


@pytest.mark.parametrize("command", ["limit-cycle", "iterate", "trajectory", "spectrum", "sweep"])
def test_overflowing_period_is_a_config_error(tmp_path, capsys, command):
    # every stroke is finite, but tau_hot + tau_ba + tau_cold + tau_ab
    # overflows: trajectory printed t = inf and limit-cycle power = 0 at exit 0
    engine = dict(FIG1_ENGINE, omega_a=0.1, omega_b=0.5, j=0.5,
                  tau_cold=1e308, tau_hot=1e308, tau_ab=0.0, tau_ba=0.0)
    run = dict(_ANY_RUN, sweep={"key": "j", "from": 0.5, "to": 0.6, "steps": 2})
    out = tmp_path / "o.csv"
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main([command, "--config", config, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "config"
    assert "period" in record["message"] and "inf is not finite" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, engine_overrides, columns", [
    ("limit-cycle", {"t_hot": 5e-324}, "ds_ext, ds_u_hot, ds_u_total, ds_e_hot"),
    ("limit-cycle", {"t_cold": 5e-324}, "ds_ext, ds_u_cold, ds_u_total, ds_e_cold"),
    ("sweep", {"t_hot": 5e-324}, "ds_ext, ds_u_hot, ds_u_total, ds_e_hot"),
])
def test_overflowing_ledger_is_a_config_error(tmp_path, capsys, command, engine_overrides,
                                              columns):
    # heat / temperature overflows at a subnormal temperature; the row used
    # to print inf at exit 0
    engine = dict(FIG1_ENGINE, **engine_overrides)
    config = write_config(tmp_path, {"engine": engine, "run": _ANY_RUN})
    assert main([command, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert f"column(s) {columns} not finite" in record["message"]
    assert "5e-324" in record["message"]


def test_trajectory_rejects_initial_state_the_measures_reject(tmp_path, capsys):
    # lam1 = -5e-11: accepted by a looser loader, this state ended in a
    # "negative probability" traceback from the entropy column
    b = [math.sqrt(2.0) * (0.5 + 5e-11), 0.0, 0.0, 0.0, 0.5]
    run = {"samples_per_branch": 3, "initial_state": {"kind": "bloch", "b": b}}
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    assert main(["trajectory", "--config", config, "--out", str(tmp_path / "t.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "run.initial_state.b" in record["message"]


@pytest.mark.parametrize("command", ["iterate", "trajectory"])
def test_overflowing_bloch_start_is_a_config_error(tmp_path, capsys, command):
    # b1**2 overflows above about 1.3e154; the norm is then inf, which makes
    # the state non-physical instead of raising OverflowError
    run = {"initial_state": {"kind": "bloch", "b": [1e200, 0, 0, 0, 0]},
           "n_cycles": 2, "samples_per_branch": 2}
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    assert main([command, "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert "run.initial_state.b" in record["message"]


_magnitudes = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                        st.sampled_from([1.0, -1.0]), st.integers(-300, 300))
_components = st.sampled_from([0.0]) | _magnitudes | st.floats(-0.3, 0.3)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["iterate", "trajectory"]),
       st.lists(_components, min_size=5, max_size=5),
       st.booleans())
def test_bloch_start_error_contract(command, b, unitary):
    # every finite start ends in a table (0), a config error (2) or no
    # unique limit cycle (3, iterate only), never in a traceback; a failure
    # writes exactly one JSON record to stderr
    engine = dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0) if unitary else FIG1_ENGINE
    run = {"initial_state": {"kind": "bloch", "b": b}, "n_cycles": 3, "samples_per_branch": 3}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump({"engine": engine, "run": run}, fh)
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", config, "--out", os.path.join(tmp, "o.csv")])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == ("config" if code == 2 else "non-unique-limit-cycle")


def test_cli_import_adds_no_dataclasses_inspect_or_numpy():
    import spinotto

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinotto.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import spinotto.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    added = set(json.loads(result.stdout))
    assert "spinotto.cli" in added
    assert not added & {"dataclasses", "inspect", "numpy"}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    import spinotto

    # a fresh interpreter: this one has numpy and scipy loaded by the test
    # oracles; there numpy is blocked, so any import of it fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinotto.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {f"figure-{name}": ["figure", name] for name in ("fig1", "fig2", "fig3", "fig5", "fig6")}
    for command, run in [
        ("limit-cycle", {}),
        ("iterate", {"n_cycles": 5}),
        ("trajectory", {"samples_per_branch": 5}),
        ("spectrum", {}),
        ("sweep", {"sweep": {"key": "omega_a", "from": 3.0, "to": 8.0, "steps": 3}}),
        ("equilibrium-curve", {"omega_from": 1.0, "omega_to": 20.0, "steps": 5}),
    ]:
        config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run}, f"{command}.json")
        runs[command] = [command, "--config", config]
    for name, argv in runs.items():
        argv += ["--out", str(tmp_path / f"{name}.csv")]
    probe = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import spinotto.cli\n"
        f"codes = {{name: spinotto.cli.main(argv) for name, argv in {runs!r}.items()}}\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    codes, scipy_loaded = json.loads(result.stdout)
    assert not scipy_loaded
    assert codes == {name: 0 for name in runs}
    for name in runs:
        assert (tmp_path / f"{name}.csv").read_text().startswith("# spinotto-csv")


@pytest.mark.parametrize("section, key, value, path", [
    ("engine", "t_hot", float("nan"), "engine.t_hot"),
    ("engine", "tau_cold", float("inf"), "engine.tau_cold"),
    ("sweep", "from", float("-inf"), "run.sweep.from"),
    ("engine", "omega_b", 10**400, "engine.omega_b"),
])
def test_exit_code_non_finite_number(tmp_path, capsys, section, key, value, path):
    engine = dict(FIG1_ENGINE)
    sweep = {"key": "tau_hot", "from": 0.5, "to": 3.0, "steps": 3}
    if section == "engine":
        engine[key] = value
    else:
        sweep[key] = value
    # json.dumps writes NaN/Infinity, which json.load accepts back
    config = write_config(tmp_path, {"engine": engine, "run": {"sweep": sweep}})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert path in record["message"]


def test_trajectory_through_zero_field_at_zero_coupling(tmp_path):
    # J = 0 sweeps -1 -> 1 and back; the middle of five samples per branch
    # sits at omega == 0.0, where the energy basis is undefined
    engine = dict(FIG1_ENGINE, omega_a=-1.0, omega_b=1.0, j=0.0, tau_ab=0.5, tau_ba=0.5)
    out = tmp_path / "traj.csv"
    config = write_config(tmp_path, {"engine": engine, "run": {"samples_per_branch": 5}})
    assert main(["trajectory", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    omegas = column(header, rows, "omega")
    s_e = column(header, rows, "s_e")
    zero = [i for i, omega in enumerate(omegas) if omega == 0.0]
    assert zero == [7, 17]
    assert all(math.isfinite(value) for value in s_e)
    # the limit along the sweep: at J = 0 both signs of omega give the same
    # populations with the outer pair swapped
    report = limit_cycle(load_config(config).spec)
    table = trajectory_rows(report.propagator, report.b_a, 5)
    index = TRAJECTORY_HEADER.index("s_e")
    for i in zero:
        b = BlochVector(*table[i][3:8])
        assert table[i][index] == energy_entropy(b, 1.0, 0.0)
        assert energy_entropy(b, -1.0, 0.0) == pytest.approx(energy_entropy(b, 1.0, 0.0), abs=1e-15)
        assert rows[i][header.index("s_e")] == f"{energy_entropy(b, 1.0, 0.0):.12g}"


def test_trajectory_from_initial_state_needs_no_unique_limit_cycle(tmp_path):
    engine = dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0)
    run = {"samples_per_branch": 3, "initial_state": {"kind": "maximally-mixed"}}
    out = tmp_path / "traj.csv"
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main(["trajectory", "--config", config, "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert len(rows) == 12


def test_each_command_composes_each_spec_once(tmp_path, monkeypatch):
    import spinotto.cli
    import spinotto.engine

    calls = []
    compose_cycle = spinotto.engine.compose_cycle

    def counting(spec):
        calls.append(spec)
        return compose_cycle(spec)

    monkeypatch.setattr(spinotto.engine, "compose_cycle", counting)
    monkeypatch.setattr(spinotto.cli, "compose_cycle", counting)
    sweep = {"key": "tau_hot", "from": 0.5, "to": 3.0, "steps": 5}
    initial = {"kind": "thermal", "temperature": 3.0}
    runs = [
        (["limit-cycle"], {}, 1),
        (["iterate"], {"n_cycles": 3}, 1),
        (["trajectory"], {"samples_per_branch": 3}, 1),
        (["trajectory"], {"samples_per_branch": 3, "initial_state": initial}, 1),
        (["sweep"], {"sweep": sweep}, 5),
        (["figure", "fig2"], None, 1),
        (["figure", "fig3"], None, 4),
    ]
    for argv, run, expected in runs:
        calls.clear()
        if run is not None:
            config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
            argv = argv + ["--config", config]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == expected, argv
        assert len(set(calls)) == expected, argv


def test_spectrum_still_works_for_unitary_cycle(tmp_path):
    engine = dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0)
    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", write_config(tmp_path, {"engine": engine}),
                 "--out", str(out)])
    assert code == 0
    _, header, rows = read_csv(out)
    moduli = [
        math.hypot(float(rows[0][header.index(f"mu{i}_re")]),
                   float(rows[0][header.index(f"mu{i}_im")]))
        for i in range(6)
    ]
    assert all(abs(m - 1.0) < 1e-9 for m in moduli)


def test_stdout_emission(tmp_path, capsys):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    assert main(["spectrum", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# spinotto-csv schema-version 1")
