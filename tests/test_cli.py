"""Config validation, CSV emission, presets and exit codes."""

import cmath
import contextlib
import gc
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinotto import (
    AdiabatParams,
    BlochVector,
    adiabat_propagator_direct,
    compose_cycle,
    conditional_entropy,
    energy_entropy,
    energy_populations,
    limit_cycle,
    quantum_distance,
    replace,
    thermal_state,
    trajectory,
    vn_entropy,
    wootters_energy_distance,
)
from spinotto.cli import (
    ENGINE_KEYS,
    ITERATE_HEADER,
    MAX_RUN_COUNT,
    TRAJECTORY_HEADER,
    ConfigError,
    figure_preset,
    iterate_block,
    load_config,
    main,
    render_csv,
    trajectory_blocks,
)
from conftest import (
    EXAMPLE_SCALE, SQRT2, cycle_specs, eigenvalues_mp, expand_blocks, fig1_spec, fig6_spec,
    physical_states, random_bloch, random_spec, wootters_distance_oracle,
)

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
    # blocks against the per-cell format of their expanded rows: shared and
    # varying cells of each type, a shared -0.0 and shared text holding % and
    # %s, which the renderer folds into the block's row template
    spec = fig1_spec()
    report = limit_cycle(spec)
    b0 = thermal_state(spec.omega_b, spec.j, 100.0)
    tables = [
        (["text", "int", "a", "b", "c"], [
            [["hot", "cold", "x"], [0, -12, 10**20], [-0.0, 0.1, math.nan],
             (1.5, -0.0, 1.0 / 3.0), [-2.5e-300, math.inf, -1e300]],
            ["50% %s %%d", 10**20, [-0.0, 5e-324], -0.0, (math.nan, -math.inf)],
            [("a%b", "%s", "%%d"), range(-1, 2), math.nan, (5e-324, -5e-324, 2.2e-308), -math.inf],
            ["cold", -12, math.inf, 5e-324, (1e20,)],
            [("x",), (0,), (-0.0,), -2.5e-310, 1.0 / 3.0],
        ]),
        (["start"] + ITERATE_HEADER, [["hot", *iterate_block(report, b0, 20)]]),
        (TRAJECTORY_HEADER, trajectory_blocks(report.propagator, report.b_a, 20)),
    ]
    for header, blocks in tables:
        rows = expand_blocks(blocks)
        for precision in (1, 6, 12, 17):
            text = render_csv("c", {"k": 1}, header, blocks, precision)
            lines = text.splitlines()
            assert lines[-len(rows) - 1] == ",".join(header)
            spec = f".{precision}g"
            assert lines[-len(rows):] == [
                ",".join(_fmt_reference(v, spec) for v in row) for row in rows
            ]


_SHARED_ON_SWEEPS = {"branch", "b4", "b5", "s_vn"}
_SHARED_ON_BATHS = {"branch", "omega"}


@settings(max_examples=50 * EXAMPLE_SCALE, deadline=None)
@given(cycle_specs(), physical_states(), st.sampled_from([2, 3, 17]))
def test_trajectory_blocks_share_exactly_the_stroke_invariants_property(spec, b0, samples):
    # one block per stroke; a cell is shared by the stroke's rows exactly
    # where its value cannot change along the stroke: the branch, a bath
    # stroke's field, and a sweep's b4, b5 and s_vn (a sweep is unitary),
    # each equal to every sample's value from the public trajectory
    prop = compose_cycle(spec)
    blocks = trajectory_blocks(prop, b0, samples)
    points = trajectory(prop, b0, samples)
    assert len(blocks) == len(prop.branches) == 4
    for index, (block, branch) in enumerate(zip(blocks, prop.branches)):
        cells = dict(zip(TRAJECTORY_HEADER, block, strict=True))
        shared = {name for name, cell in cells.items()
                  if not isinstance(cell, (list, tuple, range))}
        sweep = index % 2 == 1
        assert shared == (_SHARED_ON_SWEEPS if sweep else _SHARED_ON_BATHS), index
        assert all(len(cells[name]) == samples for name in cells.keys() - shared)
        stroke = points[index * samples:(index + 1) * samples]
        assert cells["branch"] == branch.name
        if sweep:
            assert cells["s_vn"] == vn_entropy(stroke[0].state)
        else:
            assert cells["omega"] == branch.stroke.omega
        for point in stroke:
            assert point.branch == cells["branch"]
            if sweep:
                assert (point.state.b4, point.state.b5) == (cells["b4"], cells["b5"])
            else:
                assert point.omega == cells["omega"]


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
        block = iterate_block(replace(report, b_a=b_ref), random_bloch(rng), 30)
        rows = expand_blocks([block])
        for row in rows:
            b = BlochVector(*row[1:6])
            assert row[6] == quantum_distance(b, b_ref)
            assert row[7] == wootters_energy_distance(b, b_ref, spec.omega_b, spec.j)
            assert row[7] == wootters_distance_oracle(b, b_ref, spec.omega_b, spec.j)
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
# CSV bytes


# The CLI's byte contract: every CSV below, pinned by its sha256.  Every
# printed digit goes through libm (exp, log, sin, cos, pow); these are the
# bytes with glibc's libm, and CI runs these tests on each supported Python
# (3.10 to 3.13), so two Pythons that match a digest print the same bytes.
# CSV_PINS[section][case] = (argv, config, sha256); a config is written to a
# file and passed as --config.
_CI_ENGINE = dict(FIG1_ENGINE, dephasing_cold=0.01, tau_ab=1.0, tau_ba=1.0)
_CI_TRAJECTORY = {"engine": _CI_ENGINE, "run": {"samples_per_branch": 101}}
_CI_COMMANDS = {
    "engine": _CI_ENGINE,
    "run": {"n_cycles": 40, "initial_state": {"kind": "thermal", "temperature": 40.0},
            "omega_from": 1.0, "omega_to": 20.0, "steps": 50},
}
CSV_PINS = {
    # each preset, re-pinned in 1.2.0 for the eighth-order sweep step (no
    # cell moved by more than 2.2e-10); fig1 re-pinned in 2.1.0, where each
    # trajectory stroke starts at the previous stroke's last sample (61
    # cells moved, none by more than 1e-11); fig2, fig3, fig5 and fig6
    # re-pinned in 3.8.0, where each sweep forms one product of the
    # estimated step count and the bath strokes form 1 - g with expm1 (fig3:
    # 337 of 1,650 cells moved; fig2: 39 of 330; none by more than 2.2e-10,
    # in the distances near 1e-6, which are square roots of state
    # differences; elsewhere by at most 1e-11); fig3 re-pinned in 4.1.0,
    # where the dephasing-free fixed point is solved along and across the
    # cycle's rotation axis (73 of 1,640 cells moved, all in the distances
    # and relative entropies of cases 1 and 3, by at most 2.2e-10, in a
    # quantum distance near 1e-6); all five re-pinned in 4.4.0 for the
    # tenth-order sweep step (fig3: 324 of 1,640 cells moved; none by more
    # than 2.2e-10, in the distances near 1.5e-6; elsewhere by at most 1e-11)
    "figure": {
        "fig1": (["figure", "fig1"], None,
                 "227588dade52d0561bddbf2d9ce69ff9c2ed4bde13b810df6fc91abf5d3bca16"),
        "fig2": (["figure", "fig2"], None,
                 "15f28983325c3c2bc90e1ec922ceb8ca6241078536ccabd5a1a3ea28f925613a"),
        "fig3": (["figure", "fig3"], None,
                 "cb6993c3c2bbf43a68463e53c1d3a0c40d00be20a86c8cd8cb7425e629e6d72b"),
        "fig5": (["figure", "fig5"], None,
                 "3642f1ca52a2f67d4f13d4690f0e824fd951e39f994b6b7688788dd745e9fd8a"),
        "fig6": (["figure", "fig6"], None,
                 "ef7890e822e99970f9c1e0c9a89d8c350e9120318cd3bb18d3d633209aa5d79c"),
    },
    # one fixed config per command, computed before the commands handed their
    # tables to one render path in main (1.0.1); re-pinned in 1.2.0 for the
    # eighth-order sweep step, but for equilibrium-curve, which integrates no
    # sweep; trajectory re-pinned in 2.1.0, where each stroke starts at the
    # previous stroke's last sample (5 cells moved, none by more than 1e-13);
    # spectrum re-pinned in 3.7.0 for the shifted-QR eigensolver (phi and
    # the transverse pair's imaginary parts moved by one unit in the last
    # printed digit, none by more than 1e-12); limit-cycle, iterate and
    # trajectory re-pinned in 3.8.0 for the one-product sweep and the expm1
    # bath shift (at most 13 cells moved, none by more than 5.9e-11, in
    # iterate's distances near 4e-6); iterate re-pinned in 4.1.0 for the
    # dephasing-free fixed point along and across the rotation axis (one
    # relative entropy near 4.6e-9 moved, by 5.5e-16); iterate, trajectory,
    # spectrum and sweep re-pinned in 4.4.0 for the tenth-order sweep step
    # (at most 29 cells moved, none by more than 5.9e-11, in iterate's
    # distances near 3.8e-6; elsewhere by at most 1e-12)
    "command": {
        "limit-cycle": (
            ["limit-cycle"],
            {"engine": dict(FIG1_ENGINE, dephasing_cold=0.01, tau_ab=1.0, tau_ba=0.8)},
            "c2dcccc223ace899e14cd1bb2ca53380d0e4e025e17acb6364c1e52920b234b6"),
        "iterate": (
            ["iterate"],
            {"engine": FIG1_ENGINE,
             "run": {"n_cycles": 12, "initial_state": {"kind": "thermal", "temperature": 40.0}},
             "output": {"precision": 9}},
            "407101dd37561570392d31fa4d0b7c712b526c1fba25d146e9825049d5f6f79d"),
        "trajectory": (
            ["trajectory"],
            {"engine": dict(FIG1_ENGINE, dephasing_hot=0.02, tau_ab=0.5, tau_ba=0.5),
             "run": {"samples_per_branch": 9}},
            "30d0e78ee16af36cf406739be46795e40a1ebf768dab547a8a8504cc2bad8460"),
        "spectrum": (
            ["spectrum"],
            {"engine": dict(FIG1_ENGINE, dephasing_cold=0.03, dephasing_hot=0.01)},
            "c2b420e91f46fec72dab853db49b53686b8ffad897bc7076e82a0f206b0e3919"),
        "sweep": (
            ["sweep"],
            {"engine": FIG1_ENGINE,
             "run": {"sweep": {"key": "tau_cold", "from": 0.4, "to": 2.4, "steps": 4}}},
            "537341a5cd03eba6ee03ecb8f11da9b7d500e1e10bec59099a70af3eec748902"),
        "equilibrium-curve": (
            ["equilibrium-curve"],
            {"engine": FIG1_ENGINE,
             "run": {"omega_from": 1.0, "omega_to": 20.0, "steps": 7, "temperature": 3.0}},
            "ed112f8a94ff99498ad93700ab45fa0db27d4642be3947a7d8da58cc2b75645a"),
    },
    # tables shaped like the benchmark workloads and the edge cases of the
    # samplers, which CI once compared between two Pythons; computed with 3.1.0, iterate-long with 2.1.1, the two sweeps over
    # tau_ba and j with 3.1.1, and trajectory-dense with 3.2.0;
    # trajectory-dense and trajectory-unequal re-pinned with 3.4.0; all but
    # trajectory-subnormal, trajectory-zero-field and equilibrium-curve
    # re-pinned in 3.8.0 for the one-product sweep and the expm1 bath shift
    # (none moved by more than 1e-11, but for the distances of iterate and
    # iterate-long near 1e-6, by at most 1.6e-10, and cells in the measures'
    # noise floors below 1e-15); all but trajectory-subnormal,
    # trajectory-zero-field, spectrum and equilibrium-curve re-pinned in
    # 4.4.0 for the tenth-order sweep step (none moved by more than 1e-11,
    # but for iterate-long's distances near 6.6e-6, by at most 3.4e-11)
    "ci": {
        "trajectory": (
            ["trajectory"], _CI_TRAJECTORY,
            "a48a8a302e146d65154bba1d141cea7aac47817c2e9a39bedf97afbd2db27141"),
        # unequal sweeps: the hot->cold samples are the time reversals of a
        # second ascending ramp, run for tau_ba; re-pinned in 3.4.0, where
        # that ramp runs backwards from the stroke's end corner (2 of 4,040
        # numeric cells moved, by at most 1e-14 printed, one unit in the
        # twelfth digit)
        "trajectory-unequal": (
            ["trajectory"], dict(_CI_TRAJECTORY, engine=dict(_CI_ENGINE, tau_ba=0.8)),
            "f95ce9c43b3f283f68e5a0c74f0ff9c7cef7fcf1bccd1e30f524d95421b44b3c"),
        # subnormal sweep durations: the field is scaled before it divides
        "trajectory-subnormal": (
            ["trajectory"],
            {"engine": dict(_CI_ENGINE, tau_ab=5e-324, tau_ba=1e-310),
             "run": {"samples_per_branch": 9}},
            "709ed23810e57b573c38e58e20bcceed56e2b98596b4f205827c9020b74e515f"),
        # shaped like fig6: a zero-length hot bath stroke, sampled by the
        # bath-stroke closed form at t = 0
        "trajectory-fig6": (
            ["trajectory"],
            {"engine": dict(FIG1_ENGINE, omega_a=5.0836387, omega_b=12.635485,
                            gamma_cold_conductance=1.7, gamma_hot_conductance=1.7,
                            tau_cold=0.6, tau_hot=0, tau_ab=0.03, tau_ba=0.03),
             "run": {"samples_per_branch": 101}},
            "bf29370f16232dddb363f3853116466622df45eb7cc6a2776675c87eb9efe547"),
        # shaped like perfbench's trajectory-dense: 1000 samples of 1.0-long
        # sweeps, where the sweep is one product of one step per sample
        # interval; re-pinned in 3.4.0, where the hot->cold samples
        # run the ramp backwards from the stroke's end corner (1 of 40,000
        # numeric cells moved, by 1e-17 printed)
        "trajectory-dense": (
            ["trajectory"],
            {"engine": dict(FIG1_ENGINE, tau_ab=1.0, tau_ba=1.0),
             "run": {"samples_per_branch": 1000}},
            "c834edf947c69bf8bf14a74a11c63f1cbebc4be5beda32a6eb529e27924188d4"),
        # J = 0 and sweeps through zero field: the sweeps' middle samples sit
        # at omega = 0, where s_e takes its limit
        "trajectory-zero-field": (
            ["trajectory"],
            dict(_CI_TRAJECTORY, engine=dict(_CI_ENGINE, j=0.0, omega_a=-4.0, omega_b=4.0)),
            "351060d454dd04fba24b5d9eb0e71e64dbd16766c5ec92c5db72c73dd36083ba"),
        # shaped like perfbench's grid-long-sweep: equal 0.5-long sweeps, so
        # the bytes also cover the time-reversed hot->cold sweep; re-pinned
        # in 4.1.0 for the dephasing-free fixed point along and across the
        # rotation axis (2 of 920 cells moved, ds_e_ba by 1e-15)
        "sweep": (
            ["sweep"],
            {"engine": dict(FIG1_ENGINE, tau_ab=0.5, tau_ba=0.5),
             "run": {"sweep": {"key": "omega_a", "from": 3.0, "to": 8.0, "steps": 20}}},
            "8923749058d73f1de3f0d650ea2dd3dbf9c9753fa4eb9a22a398764ef7383af9"),
        # from the second row on the two sweeps differ: the hot->cold maps come
        # from a second ascending ramp, run for tau_ba
        "sweep-tau-ba": (
            ["sweep"],
            {"engine": dict(FIG1_ENGINE, tau_ab=0.5, tau_ba=0.5),
             "run": {"sweep": {"key": "tau_ba", "from": 0.5, "to": 0.8, "steps": 7}}},
            "b815d7ed586f8a67c09eac8224b3181a67050ab10c34483dbf5dfc5cd7c68cee"),
        # every row changes both sweeps and both bath strokes
        "sweep-j": (
            ["sweep"],
            {"engine": dict(FIG1_ENGINE, tau_ab=0.5, tau_ba=0.5),
             "run": {"sweep": {"key": "j", "from": 1.0, "to": 3.0, "steps": 7}}},
            "c313c921e5fe716a9b798697b1c4aff6cb12ffd1e56dd67b006314a1505e178f"),
        # the fig1 cycle for 3,000 cycles from a bloch start, far past
        # convergence, so most rows sit in the measures' noise floors
        "iterate-long": (
            ["iterate"],
            {"engine": FIG1_ENGINE,
             "run": {"n_cycles": 3000,
                     "initial_state": {"kind": "bloch", "b": [0.12, -0.21, 0.05, 0.1, -0.03]}}},
            "e35a4bd1fbec5135d004e8d0c0eee0b43876feab5b4b9b315e0782b5685f6c66"),
        # one config for the other four commands, which each read only their
        # own run keys
        "limit-cycle": (
            ["limit-cycle"], _CI_COMMANDS,
            "dc03612f1e7fc87a536cbfb8d208a558bebcedc89722be8a04fe38a6784eaa32"),
        "iterate": (
            ["iterate"], _CI_COMMANDS,
            "e7d7e334d68974f4ed44e3c0c902172e2e5f3c0ee4ce0cab3b0f043bd60e2f7e"),
        "spectrum": (
            ["spectrum"], _CI_COMMANDS,
            "d5482d3ad076a4d6e47c5994773978f6786a0ae1f366b0533f2b78ea0057931b"),
        "equilibrium-curve": (
            ["equilibrium-curve"], _CI_COMMANDS,
            "2c0827f727d7ff285350f83343b0417ece30d01e8b1c7263d4ad956e23a4fb1d"),
    },
    # a subnormal or tiny sweep next to a 1.0-long one: the tiny sweep's
    # step-error estimate is 0 and divides by no rotation angle; computed
    # with 3.1.3, each case named "<command>-engine<k>-<sha256 at 3.1.3>",
    # a name it keeps when its bytes move; re-pinned in 3.8.0, where the
    # 1.0-long sweep takes one 60-step product (at most 69 cells moved, none
    # by more than 1e-12); re-pinned in 4.4.0, where it takes one 33-step
    # product of tenth-order steps (at most 32 cells moved, none by more
    # than 1e-12)
    "tiny": {
        f"{argv[0]}-engine{k}-{first}": (argv, {"engine": engine}, digest)
        for k, (argv, engine, first, digest) in enumerate([
            (["limit-cycle"], dict(FIG1_ENGINE, tau_ab=1.0, tau_ba=5e-324),
             "4126a4d951639f20a5de35bd05f714a0db431546627c3a0fade54165c20b5b76",
             "0842b71420614d70534b25d831bca542dae411234ded0d966d89ab8d321bfc45"),
            (["trajectory"], dict(FIG1_ENGINE, tau_ab=1.0, tau_ba=5e-324),
             "12280e57c3dca2b466fec5778c4143a117b98cc790e07e85a3e330ae36a83d77",
             "3739d142b6f46bf20f5cf9c62f69b16364d0bbfb381189cafed2520fb54f89d8"),
            (["limit-cycle"], dict(FIG1_ENGINE, tau_ab=1e-150, tau_ba=1.0),
             "78b18827f79382339a10dfe6d755aebe83975b55e32e9dacbc482f4a46b73077",
             "b6fdd08ac1038ddc9faf4c188d8fe67d0ba974b373868d1db9feaebce7890d0c"),
            (["trajectory"], dict(FIG1_ENGINE, tau_ab=1e-150, tau_ba=1.0),
             "1da1f76c54c921ab5671134ee196b0366e58be459ec12cc7c0cbfe329e24a7d8",
             "34d1d79c353f1ca893e5f56797087fac49f6a0bb88199fdfd52acb54a01782b8"),
        ])
    },
}


def _pin_argv(tmp_path, pin, out):
    """The command line of a CSV_PINS case, writing to out."""
    argv, config, _ = pin
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    return argv + ["--out", str(out)]


def _pinned(section):
    """The one run-and-hash test, over the cases of one CSV_PINS section;
    each section is collected under its own name, which with the case name
    makes the test id (test_figure_csv_bytes_are_pinned[fig1])."""
    pins = CSV_PINS[section]

    @pytest.mark.parametrize("pin", list(pins.values()), ids=list(pins))
    def test(tmp_path, capsys, pin):
        out = tmp_path / "out.csv"
        assert main(_pin_argv(tmp_path, pin, out)) == 0
        assert capsys.readouterr().err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin[2]

    return test


test_figure_csv_bytes_are_pinned = _pinned("figure")
test_command_csv_bytes_are_pinned = _pinned("command")
test_ci_table_csv_bytes_are_pinned = _pinned("ci")
test_tiny_sweeps_keep_their_tables = _pinned("tiny")


# ---------------------------------------------------------------------------
# exit codes and error records


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


# failures by exit status 2 (usage, config, unreadable config) and 3
_FAILURES = {
    "usage": (lambda tmp_path: ["limit-cycle"], 2),
    "config": (lambda tmp_path: ["limit-cycle", "--config",
                                 write_config(tmp_path, {"engine": {}})], 2),
    "unreadable-config": (lambda tmp_path: ["limit-cycle", "--config",
                                            str(tmp_path / "nope.json")], 2),
    "non-unique-limit-cycle": (lambda tmp_path: [
        "limit-cycle", "--config",
        write_config(tmp_path, {"engine": dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0)})], 3),
}


def _run_case(tmp_path, case):
    """(argv, exit status) of a command, a preset or a failure of _FAILURES."""
    if case in _FAILURES:
        make_argv, status = _FAILURES[case]
        return make_argv(tmp_path), status
    pin = CSV_PINS["command"].get(case) or CSV_PINS["figure"][case]
    return _pin_argv(tmp_path, pin, tmp_path / "out.csv"), 0


@pytest.mark.parametrize("case", sorted(CSV_PINS["command"]) + sorted(CSV_PINS["figure"])
                         + sorted(_FAILURES))
def test_runs_leave_no_reference_cycles(tmp_path, capsys, case):
    # main pauses cyclic GC because a run builds no reference cycles: with
    # GC off, everything it allocates must be freed by reference counting
    argv, status = _run_case(tmp_path, case)
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == status
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_gc_and_restores_the_callers_state(tmp_path, capsys, monkeypatch, enabled):
    import spinotto.cli

    seen = []
    render_csv = spinotto.cli.render_csv

    def recording(*args):
        seen.append(gc.isenabled())
        return render_csv(*args)

    def failing(spec):
        raise RuntimeError("an error main does not handle")

    set_state = gc.enable if enabled else gc.disable
    monkeypatch.setattr(spinotto.cli, "render_csv", recording)
    try:
        for case in ("iterate", "usage", "config", "non-unique-limit-cycle"):
            argv, status = _run_case(tmp_path, case)
            set_state()
            assert main(argv) == status
            assert gc.isenabled() == enabled, case
        monkeypatch.setattr(spinotto.cli, "limit_cycle", failing)
        set_state()
        with pytest.raises(RuntimeError):
            main(_run_case(tmp_path, "limit-cycle")[0])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert seen == [False]  # paused while the iterate run rendered its table


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


@pytest.mark.parametrize("run, message", [
    ({"omega_from": 0.0, "omega_to": 20.0}, "run.omega_from/omega_to must be > 0"),
    ({"omega_from": 1.0, "omega_to": -20.0}, "run.omega_from/omega_to must be > 0"),
    ({"omega_from": 1.0, "omega_to": 20.0, "temperature": 0.0}, "run.temperature must be > 0"),
], ids=["omega-from-zero", "omega-to-negative", "temperature-zero"])
def test_equilibrium_curve_run_values_are_checked(tmp_path, capsys, run, message):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    assert main(["equilibrium-curve", "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "config", "message": message}


def test_figure_preset_rejects_an_unknown_name():
    # the command line refuses it as a usage error before the preset runs
    with pytest.raises(ConfigError, match="unknown figure preset 'fig4'"):
        figure_preset("fig4")


# a sweep checks each row's spec as it reaches it: a value that is not a
# number or breaks a spec bound, and a row whose ledger overflows, end the
# run with the error record of a one-spec command and write no table
@pytest.mark.parametrize("key, start, stop, steps, message", [
    ("omega_a", -1.7e308, 1.7e308, 3, "engine.omega_a: expected a finite number, got nan"),
    ("j", 0, 1e200, 3, "engine: sweep rotation angle 3.536e+199 rad exceeds the limit "
                       "MAX_SWEEP_ANGLE = 10000 rad"),
    ("omega_b", 20, 5, 4, "engine: omega_a must be < omega_b, got omega_a = 5.08364, "
                          "omega_b = 5.0"),
    ("t_hot", 5e-324, 1e-300, 3, "engine: column(s) ds_ext, ds_u_hot, ds_u_total, ds_e_hot "
                                 "not finite: heats divided by the bath temperatures "
                                 "t_hot = 5e-324, t_cold = 1.5 overflow"),
], ids=["nan", "sweep-angle", "field-order", "ledger-overflow"])
def test_sweep_error_in_a_later_row(tmp_path, capsys, key, start, stop, steps, message):
    engine = dict(FIG1_ENGINE, tau_ab=0.5, tau_ba=0.5)
    run = {"sweep": {"key": key, "from": start, "to": stop, "steps": steps}}
    out = tmp_path / "sweep.csv"
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main(["sweep", "--config", config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == json.dumps({"error": "config", "message": message},
                                      sort_keys=True) + "\n"
    assert not out.exists()


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


def test_subnormal_cold_temperature_gives_an_infinite_ledger(tmp_path, capsys):
    # the cold heat over t_cold = 5e-324 overflows: limit_cycle documents the
    # +-inf ledger entries and returns them, the limit-cycle command refuses
    # the row, and iterate and trajectory, which print no ledger, print finite
    # rows
    engine = dict(FIG1_ENGINE, t_cold=5e-324)
    ledger = limit_cycle(load_config(write_config(tmp_path, {"engine": engine})).spec).ledger
    infinite = {"ds_ext", "ds_u_cold", "ds_e_cold"}
    for name, value in ledger._asdict().items():
        if name in infinite:
            assert value == math.inf, name
        elif name not in ("b_a", "b_b", "b_c", "b_d"):
            assert math.isfinite(value), name
    assert ledger.ds_u_total == math.inf
    config = write_config(tmp_path, {"engine": engine, "run": _ANY_RUN})
    assert main(["limit-cycle", "--config", config, "--out", str(tmp_path / "lc.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    for command in ("iterate", "trajectory"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        numeric = header[1:] if header[0] == "branch" else header
        assert rows and all(math.isfinite(value) for name in numeric
                            for value in column(header, rows, name))


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


@pytest.mark.parametrize("key", [["omega_a"], {"omega_a": 1.0}, 3, None, "tau"])
def test_sweep_key_must_be_an_engine_key(tmp_path, capsys, key):
    # a list or an object raised TypeError (unhashable type) at `key not in`
    run = {"sweep": {"key": key, "from": 0.5, "to": 3.0, "steps": 3}}
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    assert main(["sweep", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert "run.sweep.key" in record["message"]


@pytest.mark.parametrize("command", ["iterate", "trajectory"])
@pytest.mark.parametrize("initial_state", [
    {"kind": "thermal", "temprature": 40.0},
    {"kind": "thermal", "b": [0.0, 0.0, 0.0, 0.0, 0.0]},
    {"kind": "maximally-mixed", "temperature": 3.0},
    {"kind": "bloch", "b": [0.0, 0.0, 0.0, 0.0, 0.0], "temperature": 3.0},
    {"kind": ["thermal"]},
    {"kind": {"thermal": 1.0}},
    {"kind": 3},
    {"temperature": 3.0},
    ["thermal"],
    {"kind": "thermal", "temperature": 0.0},
    {"kind": "bloch", "b": [0.0, 0.0, 0.0, 0.0]},
], ids=["misspelled", "thermal-b", "mixed-temperature", "bloch-temperature", "kind-list",
        "kind-object", "kind-number", "no-kind", "not-an-object", "thermal-zero-temperature",
        "bloch-four-numbers"])
def test_initial_state_keys_are_checked_per_kind(tmp_path, capsys, command, initial_state):
    # a misspelled key used to be ignored: the run started from t_cold
    run = {"n_cycles": 2, "samples_per_branch": 2, "initial_state": initial_state}
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "config"
    assert "run.initial_state" in record["message"]


_magnitudes = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                        st.sampled_from([1.0, -1.0]), st.integers(-300, 300))
_components = st.sampled_from([0.0]) | _magnitudes | st.floats(-0.3, 0.3)


def _check_error_contract(commands, payload):
    """Run each command on one config; every run ends in a table (0), a
    config error (2) or no unique limit cycle (3), never in a traceback.  A
    failure writes exactly one JSON record to stderr, a success nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as fh:
            json.dump(payload, fh)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", config, "--out", os.path.join(tmp, "o.csv")])
            assert code in (0, 2, 3), command
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], command
            else:
                assert len(lines) == 1, command
                record = json.loads(lines[0])
                assert record["error"] == ("config" if code == 2 else "non-unique-limit-cycle")
                assert isinstance(record["message"], str)


# a start whose smallest eigenvalue, -9.99978e-13, is just inside the
# tolerance: rounding in a unitary stroke carries it about 1e-16 past
_EDGE_START = [-0.3374445367124179, -0.2586309225132191, -0.20308354279666913, 0.0,
               0.16633579341141647]


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(st.sampled_from(["iterate", "trajectory"]),
       st.lists(_components, min_size=5, max_size=5),
       st.booleans())
@example("trajectory", _EDGE_START, True)
def test_bloch_start_error_contract(command, b, unitary):
    engine = dict(FIG1_ENGINE, tau_hot=0.0, tau_cold=0.0) if unitary else FIG1_ENGINE
    run = {"initial_state": {"kind": "bloch", "b": b}, "n_cycles": 3, "samples_per_branch": 3}
    _check_error_contract([command], {"engine": engine, "run": run})


@pytest.mark.parametrize("engine_overrides", [
    {"tau_hot": 0},  # no hot stroke
    {"gamma_hot_conductance": 0},  # a bath-free hot stroke without dephasing
], ids=["no-hot-stroke", "bath-free-hot-stroke"])
def test_unitary_strokes_from_the_edge_of_the_state_space(tmp_path, capsys, engine_overrides):
    # the states the strokes make from a checked start are not checked again,
    # so rounding past the tolerance still gives a table; s_vn, as printed,
    # does not move on a unitary stroke (no friction)
    engine = dict(FIG1_ENGINE, tau_ab=1.0, tau_ba=1.0, **engine_overrides)
    run = {"initial_state": {"kind": "bloch", "b": _EDGE_START}, "samples_per_branch": 50}
    out = tmp_path / "trajectory.csv"
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main(["trajectory", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_csv(out)
    assert all(map(math.isfinite, column(header, rows, "s_vn") + column(header, rows, "s_e")))
    s_vn = {}
    for branch, printed in zip(column(header, rows, "branch", str),
                               column(header, rows, "s_vn", str)):
        s_vn.setdefault(branch, []).append(printed)
    for branch in ("isochore-hot", "adiabat-hot-cold", "adiabat-cold-hot"):
        assert len(set(s_vn[branch])) == 1, branch
    assert s_vn["adiabat-hot-cold"][0] == s_vn["isochore-hot"][0]
    assert s_vn["adiabat-cold-hot"][0] == s_vn["isochore-cold"][-1]


COMMANDS = ["limit-cycle", "iterate", "trajectory", "spectrum", "sweep", "equilibrium-curve"]

# values that no config key takes, or that no section takes as an object
_ODD = st.sampled_from([None, True, "x", -1, 0, 3, 1e308, -1e308, math.nan, math.inf, 10**400,
                        [], ["omega_a"], {}, {"kind": "thermal"}])


@st.composite
def _or_odd(draw, good, one_in, odd=_ODD):
    """A draw from `good`, or with chance 1 / one_in a value from `odd`
    (the fault is the largest choice, so examples shrink towards none)."""
    return draw(odd) if draw(st.integers(1, one_in)) == one_in else draw(good)


@st.composite
def _sections(draw, entries, optional=None, one_in=12):
    """A dict of the drawn entries; with chance 1 / one_in each, a required
    key is dropped, an unknown key is added, or the section is not an object."""
    section = draw(st.fixed_dictionaries(entries, optional=optional))
    fault = one_in - draw(st.integers(1, one_in))
    if fault == 0:
        return draw(_ODD)
    if fault == 1:
        section[draw(st.sampled_from(["extra", "temprature", "Key"]))] = draw(_ODD)
    elif fault == 2 and entries:
        del section[draw(st.sampled_from(sorted(entries)))]
    return section


@st.composite
def _engines(draw):
    spec = draw(cycle_specs())
    keys = {key: _or_odd(st.just(getattr(spec, field)), 60)
            for key, field in ENGINE_KEYS.items()}
    return draw(_sections(keys, one_in=20))


def _ints(lo, hi):
    """Integers in [lo, hi], or below the minimum lo, or past MAX_RUN_COUNT, or
    not integers."""
    beyond = st.integers(lo - 2, lo - 1) | st.sampled_from([MAX_RUN_COUNT + 1, 2**63])
    return _or_odd(st.integers(lo, hi), 4, _ODD | beyond)


_omegas = _or_odd(st.floats(0.5, 20.0), 6)
_NOT_STRINGS = st.sampled_from([["omega_a"], {"thermal": 1.0}, 3])
_initial_states = _sections(
    {"kind": _or_odd(st.sampled_from(["thermal", "bloch", "maximally-mixed", "pure"]), 3,
                     _NOT_STRINGS)},
    optional={"temperature": _or_odd(st.floats(0.1, 100.0), 6),
              "b": _or_odd(physical_states().map(list), 6)},
)
_sweeps = _sections({
    "key": _or_odd(st.sampled_from(sorted(ENGINE_KEYS) + ["tau"]), 2, _NOT_STRINGS),
    "from": _or_odd(st.floats(0.0, 3.0), 8),
    "to": _or_odd(st.floats(0.0, 3.0), 8),
    "steps": _ints(1, 3),
})
_runs = _sections({"sweep": _sweeps}, optional={
    "n_cycles": _ints(0, 4), "samples_per_branch": _ints(2, 4), "steps": _ints(1, 4),
    "initial_state": _initial_states,
    "omega_from": _omegas, "omega_to": _omegas, "temperature": _or_odd(st.floats(0.1, 100.0), 6),
}, one_in=20)
# --out is always given, so a valid output.path is never written
_outputs = _sections({}, optional={"precision": _ints(1, 18),
                                   "path": _or_odd(st.just("unused.csv"), 4)}, one_in=20)
_configs = _sections({"engine": _engines(), "run": _runs}, optional={"output": _outputs},
                    one_in=30)


@settings(max_examples=100 * EXAMPLE_SCALE, deadline=None)
@given(_configs)
def test_config_error_contract(payload):
    # ROADMAP item 4(f): every finite config, through every command
    _check_error_contract(COMMANDS, payload)


@pytest.mark.parametrize("command, run, path", [
    ("iterate", {"n_cycles": MAX_RUN_COUNT + 1}, "run.n_cycles"),
    ("trajectory", {"samples_per_branch": 10**400}, "run.samples_per_branch"),
    ("sweep", {"sweep": {"key": "omega_a", "from": 3.0, "to": 8.0, "steps": MAX_RUN_COUNT + 1}},
     "run.sweep.steps"),
    ("equilibrium-curve", {"omega_from": 1.0, "omega_to": 20.0, "steps": 2**63}, "run.steps"),
])
def test_integer_run_keys_are_bounded(tmp_path, capsys, command, run, path):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE, "run": run})
    out = tmp_path / "out.csv"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "config"
    assert record["message"].startswith(f"{path}: expected an integer in [")
    assert f", {MAX_RUN_COUNT}]" in record["message"]
    assert not out.exists()


def _fresh_env(buffered=False) -> dict:
    """This environment, with this spinotto first on PYTHONPATH; ``buffered``
    drops PYTHONUNBUFFERED."""
    import spinotto

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinotto.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def _fresh_python(*args, stdout=subprocess.PIPE, buffered=False, **kwargs):
    """Run args in a fresh interpreter that imports this spinotto
    (:func:`_fresh_env`); the subprocess.run result, with text output
    captured (stdout unless another is given)."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(buffered), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, **kwargs)


def test_cli_import_adds_no_dataclasses_inspect_or_numpy():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import spinotto.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    added = set(json.loads(_fresh_python("-c", probe, check=True).stdout))
    assert "spinotto.cli" in added
    assert not added & {"dataclasses", "inspect", "numpy"}


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # a fresh interpreter: this one has numpy and scipy loaded by the test
    # oracles; there numpy is blocked, so any import of it fails
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
    codes, scipy_loaded = json.loads(_fresh_python("-c", probe, check=True).stdout)
    assert not scipy_loaded
    assert codes == {name: 0 for name in runs}
    for name in runs:
        assert (tmp_path / f"{name}.csv").read_text().startswith("# spinotto-csv")


def test_cli_run_leaves_argparse_gettext_and_locale_unloaded(tmp_path):
    # a fresh interpreter, as a CLI user starts one: the command line is
    # parsed without argparse, whose import (with gettext, which imports
    # locale on its first lookup) cost every run several milliseconds
    argv = ["figure", "fig6", "--out", str(tmp_path / "fig6.csv")]
    probe = (
        "import json, sys\n"
        "import spinotto.cli\n"
        f"code = spinotto.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))]))\n"
    )
    assert json.loads(_fresh_python("-c", probe, check=True).stdout) == [0, []]


def test_module_runs_as_a_script(tmp_path):
    # `python -m spinotto.cli` is the console script without installing
    script = ["-X", "dev", "-W", "error", "-m", "spinotto.cli"]
    result = _fresh_python(*script, "figure", "fig6", cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("# spinotto-csv schema-version 1\n")
    result = _fresh_python(*script, "bogus", cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert json.loads(result.stderr) == {
        "error": "usage", "message": "unknown command 'bogus'; see spinotto --help"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["figure", "config"])
def test_full_stdout_is_a_config_error(tmp_path, command, buffered):
    # a write to a full stdout fails in the write (unbuffered) or in the
    # flush (buffered); either is one config record, and the interpreter's
    # exit flush must not fail again
    argv = ["figure", "fig6"]
    if command == "config":
        argv = ["limit-cycle", "--config", write_config(tmp_path, {"engine": FIG1_ENGINE})]
    script = ["-X", "dev", "-W", "error"] + ([] if buffered else ["-u"])
    with open("/dev/full", "w") as full:
        result = _fresh_python(*script, "-m", "spinotto.cli", *argv, stdout=full,
                               buffered=buffered, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert json.loads(line) == {
        "error": "config",
        "message": "cannot write output to stdout: [Errno 28] No space left on device"}


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="no /bin/sh")
@pytest.mark.parametrize("argv", [["figure", "fig6"], ["--help"]], ids=["figure", "help"])
def test_closed_stdout_is_a_config_error(tmp_path, argv):
    # with fd 1 closed the interpreter starts with sys.stdout None
    script = [sys.executable, "-X", "dev", "-W", "error", "-m", "spinotto.cli", *argv]
    result = subprocess.run(["/bin/sh", "-c", 'exec "$0" "$@" >&-', *script], env=_fresh_env(),
                            stderr=subprocess.PIPE, text=True, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    (line,) = result.stderr.splitlines()
    assert json.loads(line) == {
        "error": "config", "message": "cannot write output to stdout: it is closed"}


class _FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_failing_stdout_write_is_a_config_error(tmp_path, capsys, monkeypatch):
    stdout = _FailingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    assert main(["limit-cycle", "--config", config]) == 2
    assert main(["--help"]) == 2
    records = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert records == [{
        "error": "config",
        "message": "cannot write output to stdout: [Errno 28] No space left on device"}] * 2
    assert stdout.getvalue() == ""


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
    table = expand_blocks(trajectory_blocks(report.propagator, report.b_a, 5))
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


def test_sweep_rows_enter_each_traced_span_once(tmp_path, monkeypatch):
    # perfbench's tracer counts the row path by rebinding these module
    # attributes: a row calls limit_cycle through spinotto.cli, which calls
    # compose_cycle and compose through spinotto.engine, once each per row
    import spinotto.cli
    import spinotto.engine

    calls = {}
    for module, name in [(spinotto.cli, "limit_cycle"), (spinotto.engine, "compose_cycle"),
                         (spinotto.engine, "compose")]:
        def counting(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    steps = 6
    engine = dict(FIG1_ENGINE, tau_ab=0.5, tau_ba=0.5)
    run = {"sweep": {"key": "omega_a", "from": 3.0, "to": 8.0, "steps": steps}}
    config = write_config(tmp_path, {"engine": engine, "run": run})
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == {"limit_cycle": steps, "compose_cycle": steps, "compose": steps}


def test_runs_enter_the_traced_cli_spans_once(tmp_path, monkeypatch):
    # perfbench's tracer spans cli.render_csv, cli.load_config and
    # engine.iterate by rebinding these spinotto.cli attributes: every
    # command and preset renders once and every command loads its config
    # once, through the module; iterate runs once per iterated table
    # (figure has no config; fig2 iterates two starts, fig3 four cases)
    import spinotto.cli

    calls = {}
    for name in ("render_csv", "load_config", "iterate"):
        def counting(*args, _name=name, _fn=getattr(spinotto.cli, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(spinotto.cli, name, counting)
    iterated = {"iterate": 1, "fig2": 2, "fig3": 4}
    for section in ("command", "figure"):
        for case, pin in CSV_PINS[section].items():
            calls.clear()
            assert main(_pin_argv(tmp_path, pin, tmp_path / "out.csv")) == 0
            expected = {"render_csv": 1}
            if section == "command":
                expected["load_config"] = 1
            if case in iterated:
                expected["iterate"] = iterated[case]
            assert calls == expected, case


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


# fig1's fields and temperatures with every stroke near the identity and a
# cold bath alone (gap 1 - exp(-2e-8), the block's eigenvalues clustered
# near mu4), and a unitary cycle of one 1e-10-long sweep (gap 0)
NEAR_IDENTITY_ENGINE = dict(FIG1_ENGINE, gamma_cold_conductance=2.0, gamma_hot_conductance=0.0,
                            tau_cold=1e-8, tau_hot=1e-8, tau_ab=1e-7, tau_ba=1e-7)
UNITARY_NEAR_IDENTITY_ENGINE = {
    "t_cold": 1.0, "t_hot": 1.0, "omega_a": 0.0, "omega_b": 2.0, "j": 1.0,
    "gamma_cold_conductance": 0.0, "gamma_hot_conductance": 0.0,
    "dephasing_cold": 0.0, "dephasing_hot": 0.0,
    "tau_cold": 0.0, "tau_hot": 0.0, "tau_ab": 0.0, "tau_ba": 1e-10,
}


def test_near_identity_cycle_has_a_unique_limit_cycle(tmp_path, capsys):
    # the gap is 1 - mu4 = g_hot g_cold, not 1 minus the eigensolver's |mu1|
    config = write_config(tmp_path, {"engine": NEAR_IDENTITY_ENGINE})
    assert main(["limit-cycle", "--config", config, "--out", str(tmp_path / "lc.csv")]) == 0
    assert capsys.readouterr().err == ""
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert column(header, rows, "gap", str) == ["1.99999997674e-08"]
    # without dephasing the longitudinal eigenvalue is mu4; phi is
    # 2.8258138156323e-6 to 50 digits, read from the cycle's rotation (the
    # shifted-QR pair printed 2.82581381562e-06 up to 4.0.0)
    assert column(header, rows, "mu1_re", str) == column(header, rows, "mu4_re", str)
    assert column(header, rows, "mu1_re", str) == ["0.99999998"]
    assert column(header, rows, "phi", str) == ["2.82581381563e-06"]


def test_tiny_cycle_block_prints_its_spectrum(tmp_path):
    # mu4 = exp(-390): the block's entries are too small to square, so an
    # unscaled 2x2 discriminant underflows.  An absolute bound is blind at
    # this scale
    engine = dict(FIG1_ENGINE, gamma_cold_conductance=0.0, gamma_hot_conductance=130.0,
                  tau_hot=3.0, tau_cold=3.0)
    config = write_config(tmp_path, {"engine": engine})
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    mu = [complex(column(header, rows, f"mu{i}_re")[0], column(header, rows, f"mu{i}_im")[0])
          for i in range(1, 4)]
    exact = sorted(eigenvalues_mp(compose_cycle(load_config(config).spec).cycle.block),
                   key=lambda e: e.imag)
    for got, want in zip(mu, [exact[1], exact[2], exact[0]]):
        assert abs(got - want) <= 1e-11 * abs(want), (got, want)
    phi = abs(cmath.phase(exact[2]))
    assert abs(column(header, rows, "phi")[0] - phi) <= 1e-11 * phi


def test_unitary_near_identity_cycle_prints_a_zero_gap(tmp_path):
    out = tmp_path / "spec.csv"
    config = write_config(tmp_path, {"engine": UNITARY_NEAR_IDENTITY_ENGINE})
    assert main(["spectrum", "--config", config, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert column(header, rows, "gap", str) == ["0"]


def test_stdout_emission(tmp_path, capsys):
    config = write_config(tmp_path, {"engine": FIG1_ENGINE})
    assert main(["spectrum", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# spinotto-csv schema-version 1")


# ---------------------------------------------------------------------------
# the command line: {P} is a config, {Q} one whose output.path is the
# output file {O}.  Each valid form writes the bytes of the first of its kind
# (spectrum --config {P} --out {O}, figure fig6 --out {O}), to stdout where
# it names no output file.

VALID_COMMAND_LINES = [
    ["spectrum", "--config", "{P}", "--out", "{O}"],
    ["spectrum", "--config", "{P}"],
    ["spectrum", "--config", "{Q}"],
    ["spectrum", "--out", "{O}", "--config", "{P}"],
    ["spectrum", "--config={P}", "--out={O}"],
    ["spectrum", "--config", "unused.json", "--out", "{O}", "--config", "{P}"],
    ["spectrum", "--config", "{P}", "--out", "{O}", "--"],
    ["figure", "fig6", "--out", "{O}"],
    ["figure", "fig6"],
    ["figure", "--out", "{O}", "fig6"],
    ["figure", "--out={O}", "--", "fig6"],
]

# (command line, the usage record's message before "; see spinotto --help")
INVALID_COMMAND_LINES = [
    ([], "missing command"),
    (["--config", "{P}"], "missing command"),
    (["simulate", "--config", "{P}"], "unknown command 'simulate'"),
    (["Spectrum", "--config", "{P}"], "unknown command 'Spectrum'"),
    (["spectrum"], "spectrum requires --config"),
    (["spectrum", "--out", "{O}"], "spectrum requires --config"),
    (["spectrum", "--config", "{P}", "{P}"], "unexpected argument {P!r}"),
    (["spectrum", "--config", "{P}", "-c"], "unexpected argument '-c'"),
    (["figure"], "figure takes one preset of fig1, fig2, fig3, fig5, fig6"),
    (["figure", "fig4", "--out", "{O}"], "figure takes one preset of fig1, fig2, fig3, fig5, fig6"),
    (["figure", "fig6", "fig5"], "figure takes one preset of fig1, fig2, fig3, fig5, fig6"),
    (["figure", "fig6", "--config", "{P}"], "figure takes no --config"),
    (["spectrum", "--config"], "--config expects a value"),
    (["spectrum", "--config", "{P}", "--out"], "--out expects a value"),
    (["spectrum", "--out", "--config", "{P}"], "--out expects a value"),
    (["spectrum", "--config", "{P}", "--bogus", "1"], "unknown option --bogus"),
    (["spectrum", "--config", "{P}", "--outfile", "{O}"], "unknown option --outfile"),
    (["spectrum", "--config", "{P}", "---out", "{O}"], "unknown option ---out"),
    (["spectrum", "--={P}"], "unknown option --"),
    # --threads, accepted and ignored before 4.0, is an unknown option
    (["figure", "fig6", "--threads"], "unknown option --threads"),
    (["spectrum", "--config", "{P}", "--threads", "x"], "unknown option --threads"),
    (["spectrum", "--config", "{P}", "--threads=2.5"], "unknown option --threads"),
    (["figure", "fig6", "--threads", ""], "unknown option --threads"),
    (["spectrum", "--config", "{P}", "--out", "{O}", "--threads", "4"],
     "unknown option --threads"),
    (["spectrum", "--threads", "-1", "--config", "{P}", "--out", "{O}"],
     "unknown option --threads"),
    (["figure", "fig6", "--out", "{O}", "--threads", "4"], "unknown option --threads"),
    # so is a prefix of an option, which named it before 4.0
    (["spectrum", "--conf", "{P}", "--o={O}", "--th", "1"], "unknown option --conf"),
    (["spectrum", "--config", "{P}", "--o={O}"], "unknown option --o"),
    (["figure", "--out", "{O}", "fig6", "--thr=2"], "unknown option --thr"),
    (["spectrum", "--config", "{P}", "--he"], "unknown option --he"),
]

HELP_COMMAND_LINES = [
    ["-h"],
    ["--help"],
    ["spectrum", "-h"],
    ["figure", "fig6", "--out", "{O}", "--help"],
    ["simulate", "-h"],
]


def _paths(tmp_path):
    """The paths {P}, {Q} and {O} stand for, under tmp_path."""
    out = str(tmp_path / "out.csv")
    return {
        "P": write_config(tmp_path, {"engine": FIG1_ENGINE}),
        "Q": write_config(tmp_path, {"engine": FIG1_ENGINE, "output": {"path": out}}, "q.json"),
        "O": out,
    }


def _command_line(tmp_path, form):
    """`form` with {P}, {Q} and {O} filled in with paths under tmp_path."""
    paths = _paths(tmp_path)
    return [token.format(**paths) for token in form]


@pytest.mark.parametrize("form", VALID_COMMAND_LINES, ids=" ".join)
def test_valid_command_lines_give_the_same_bytes(tmp_path, capsys, form):
    first = next(line for line in VALID_COMMAND_LINES if line[0] == form[0])
    reference = tmp_path / "reference"
    reference.mkdir()
    assert main(_command_line(reference, first)) == 0
    expected = (reference / "out.csv").read_text()
    capsys.readouterr()
    assert main(_command_line(tmp_path, form)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = tmp_path / "out.csv"
    if any("{O}" in token or "{Q}" in token for token in form):
        assert (captured.out, out.read_text()) == ("", expected)
    else:
        assert captured.out == expected
        assert not out.exists()


@pytest.mark.parametrize("form, message", [
    pytest.param(form, message, id=" ".join(form)) for form, message in INVALID_COMMAND_LINES
])
def test_invalid_command_lines_are_usage_errors(tmp_path, capsys, form, message):
    paths = _paths(tmp_path)
    code = main([token.format(**paths) for token in form])  # SystemExit would fail the test
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "usage", "message": message.format(**paths) + "; see spinotto --help",
    }
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("form", HELP_COMMAND_LINES, ids=" ".join)
def test_help_prints_the_usage(tmp_path, capsys, form):
    assert main(_command_line(tmp_path, form)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: spinotto <command> --config PATH")
    for name in COMMANDS + ["figure", "fig1", "fig2", "fig3", "fig5", "fig6"]:
        assert name in captured.out
    assert not (tmp_path / "out.csv").exists()
