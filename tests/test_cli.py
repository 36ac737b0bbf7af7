import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condrift
from condrift.characteristics import evaluate_smooth_grid
from condrift.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    ConfigError,
    RunConfig,
    load_config,
    main,
    simulate,
    trace_time_tolerance,
    write_blocks,
    write_csv,
)
from condrift.conslaw import SIGNS
from condrift.frames import GammaConfig
from oracles import write_csv_per_value


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "gamma": 1.0,
        "datum": {"kind": "example36"},
        "grid_cells": 256,
        "cfl": 0.9,
        "t_end": 0.5,
        "snapshot_cadence": 0.25,
        "z_count": 64,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, gamma=1.5, t_end=2.0)
    cfg = load_config(str(path))
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_and_invalid_keys(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"gamma": 1.0, "datum": {"kind": "example36"},
                             "volume": 3})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"gamma": -1.0, "datum": {"kind": "example36"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"gamma": 1.0, "datum": {"kind": "mystery"}}).build_datum()
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_simulate_zero_horizon_keeps_initial_state(tmp_path):
    config = RunConfig.from_dict({
        "gamma": 1.0, "datum": {"kind": "example36"}, "grid_cells": 64,
        "t_end": 0.0, "snapshot_cadence": 0.25, "z_count": 32})
    res = simulate(config)
    assert len(res.ms_series) == 1
    assert res.ms_series[0].dirac_mass == 0.0
    assert res.ms_series[0].time == 0.0


def test_cmd_simulate_writes_artifacts_and_is_deterministic(tmp_path):
    path = write_config(tmp_path, t_end=1.5, grid_cells=512)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(path), "--output", str(out1),
                 "--quiet"]) == 0
    assert main(["simulate", "--config", str(path), "--output", str(out2),
                 "--quiet"]) == 0
    names = ["resolved_config.json", "snapshots_left.csv", "snapshots_right.csv",
             "ledger_left.csv", "ledger_right.csv", "measures.csv",
             "pseudoinverse.csv", "summary.json"]
    for name in names:
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["version"] == "1"
    assert summary["gamma"] == 1.0
    assert 0.0 < summary["final_dirac_fraction"] < 1.0
    assert summary["t_star_trace"] == pytest.approx(1.0, abs=0.4)
    assert summary["violation_counts"] == {}

    # measures.csv carries the frozen column schema
    header = (out1 / "measures.csv").read_text().splitlines()[0]
    assert header == "t,dirac_mass,ac_mass,support_lo,support_hi,w1_to_dirac"


def test_write_csv_matches_per_value_format(tmp_path):
    table = np.array([[-0.0, 5e-324, 0.1],
                      [1.0 / 3.0, 1e16, 123456789012345678.0]])
    header = ["a", "b", "c"]
    reference = tmp_path / "reference.csv"
    write_csv_per_value(reference, header, table)
    expected = reference.read_bytes()
    assert expected.splitlines()[1] == b"-0,4.9406564584124654e-324,0.10000000000000001"
    # a 2-D array, a list of tuples, and a generator of 1-D rows (what a
    # wrapper that counts the rows passes on)
    for rows in (table, [tuple(r) for r in table.tolist()], (r for r in table)):
        out = tmp_path / "out.csv"
        write_csv(out, header, rows)
        assert out.read_bytes() == expected


def test_write_csv_empty_table_writes_header_only(tmp_path):
    for rows in (np.empty((0, 2)), [], iter(())):
        out = tmp_path / "empty.csv"
        write_csv(out, ["t", "u"], rows)
        assert out.read_text() == "t,u\n"


def test_write_blocks_matches_per_value_format(tmp_path):
    special = np.array([-0.0, 0.0, 5e-324, 1e308, -1.0 / 3.0, -2.5e-300])
    other = special[::-1] * 0.7
    # -0.0 == 0.0, so a column keyed on float equality would reuse the
    # other column's "-0"
    plus_zero = np.where(special == 0.0, 0.0, special)
    blocks = [(0.0, special, other), (-0.0, other, special),
              (1e308, plus_zero, -special), (5e-324, special, 2.0 * other),
              (-1.0 / 3.0, special[:1], other[:1])]
    cases = {"shared-and-returning": blocks, "one-block": blocks[:1],
             "one-row": blocks[-1:], "no-blocks": []}
    for name, case in cases.items():
        reference = tmp_path / f"{name}-reference.csv"
        write_csv_per_value(reference, ["t", "c", "v"],
                            [(t, c, v) for t, cs, vs in case
                             for c, v in zip(cs, vs)])
        out = tmp_path / f"{name}.csv"
        write_blocks(out, ["t", "c", "v"], iter(case))
        assert out.read_bytes() == reference.read_bytes(), name
    assert (tmp_path / "no-blocks.csv").read_text() == "t,c,v\n"
    lines = (tmp_path / "shared-and-returning.csv").read_text().splitlines()
    assert lines[13:15] == ["1e+308,0,0", "1e+308,0,-0"]
    assert lines[1] == "0,-0,%.17g" % other[0]


def test_blocked_outputs_match_per_value_format(tmp_path):
    # simulate and characteristics on a two-sided datum that falls away
    # from the origin: the blocked files equal a per-value writer on the
    # same arrays
    datum = {"kind": "piecewise_linear", "breakpoints": [-0.4, 0.0, 0.5],
             "values": [0.5, 1.0, 0.6]}
    path = write_config(tmp_path, datum=datum, grid_cells=64, z_count=32,
                        t_end=0.6, snapshot_cadence=0.2)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(run),
                 "--quiet"]) == 0
    res = simulate(load_config(str(path)))
    reference = tmp_path / "reference.csv"
    for row, side in enumerate(("left", "right")):
        write_csv_per_value(reference, ["t", "xi_center", "u"], [
            (snap.time, SIGNS[row] * xi, u) for snap in res.snapshots
            for xi, u in zip(snap.grid.centers, snap.cells[row])])
        assert (run / f"snapshots_{side}.csv").read_bytes() == reference.read_bytes()
    write_csv_per_value(reference, ["t", "z", "X"], [
        (ms.time, z, x) for ms, ps in zip(res.ms_series, res.ps_series)
        for z, x in zip(ps.z_grid, ps.x_values)])
    assert (run / "pseudoinverse.csv").read_bytes() == reference.read_bytes()

    chars = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(chars), "--quiet"]) == 0
    smooth = load_config(str(path)).build_datum()
    xs = np.linspace(-0.4, 0.5, 64)
    times = np.arange(0.0, 0.6 + 1e-12, 0.2)  # the last one is 0.6000000000000001
    write_csv_per_value(reference, ["t", "x", "rho"], [
        (t, x, r) for t in times
        for x, r in zip(xs, evaluate_smooth_grid(xs, t, smooth,
                                                 GammaConfig(gamma=1.0)))])
    assert (chars / "characteristics.csv").read_bytes() == reference.read_bytes()


def test_cmd_simulate_csv_reads_back_to_the_same_floats(tmp_path):
    path = write_config(tmp_path, t_end=1.5)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--quiet"]) == 0
    res = simulate(load_config(str(path)))

    def table(name):
        lines = (out / name).read_text().splitlines()[1:]
        return np.array([[float(v) for v in line.split(",")] for line in lines])

    n = res.state.grid.cell_count
    for row, side in enumerate(("left", "right")):
        snaps = table(f"snapshots_{side}.csv")
        assert snaps.shape == (n * len(res.snapshots), 3)
        for k, snap in enumerate(res.snapshots):
            block = snaps[k * n:(k + 1) * n]
            assert np.all(block[:, 0] == snap.time)
            assert np.array_equal(block[:, 1], SIGNS[row] * snap.grid.centers)
            assert np.array_equal(block[:, 2], snap.cells[row])

    pinv = table("pseudoinverse.csv")
    z_count = res.ps_series[0].z_grid.size
    assert pinv.shape == (z_count * len(res.ps_series), 3)
    for k, (ms, ps) in enumerate(zip(res.ms_series, res.ps_series)):
        block = pinv[k * z_count:(k + 1) * z_count]
        assert np.all(block[:, 0] == ms.time)
        assert np.array_equal(block[:, 1], ps.z_grid)
        assert np.array_equal(block[:, 2], ps.x_values)


@pytest.mark.parametrize("command", ["simulate", "characteristics"])
@pytest.mark.parametrize("override", [{"snapshot_cadence": 1e-12},
                                      {"grid_cells": 10**9}],
                         ids=["tiny-cadence", "huge-grid"])
def test_output_budget_exits_2(tmp_path, capsys, command, override):
    path = write_config(tmp_path, **override)
    code = main([command, "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "budget" in error["error"]


# Without the budget these runs would step for hours.
@pytest.mark.parametrize("command, override", [
    ("simulate", {"grid_cells": 10**6, "t_end": 100.0, "snapshot_cadence": 100.0}),
    ("verify", {"grid_cells": 10**6, "snapshot_cadence": 1.0}),
], ids=["simulate", "verify"])
def test_cell_step_budget_exits_2(tmp_path, capsys, command, override):
    path = write_config(tmp_path, **override)
    code = main([command, "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "cell-step budget" in error["error"]
    assert error["exit_code"] == EXIT_CONFIG


def test_cmd_simulate_final_mass_matches_law(tmp_path):
    path = write_config(tmp_path, t_end=4.0, grid_cells=1024,
                        snapshot_cadence=1.0)
    out = tmp_path / "law"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # m(4)/M = 1 - (1/(gamma t))^(1/gamma) = 0.75
    assert summary["final_dirac_fraction"] == pytest.approx(0.75, rel=0.01)


def test_cmd_simulate_original_frame_output(tmp_path):
    path = write_config(tmp_path, t_end=1.0, frame="original")
    out = tmp_path / "orig"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--quiet"]) == 0
    lines = (out / "original_frame.csv").read_text().splitlines()
    assert lines[0].startswith("tau,t_driftfree,dirac_mass")
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(math.log(2.0), rel=1e-12)  # tau = ln(1+t)


def test_cmd_convert_round_trip(tmp_path):
    path = write_config(tmp_path, t_end=1.0)
    run_dir = tmp_path / "run"
    conv_dir = tmp_path / "conv"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    assert main(["convert", "--input", str(run_dir), "--output", str(conv_dir),
                 "--quiet"]) == 0
    lines = (conv_dir / "original_frame.csv").read_text().splitlines()
    assert len(lines) == 6  # header + 5 snapshots (cadence 0.25 up to t=1)
    row = [float(v) for v in lines[-1].split(",")]
    assert row[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_cmd_convert_reproduces_original_frame_csv(tmp_path):
    path = write_config(tmp_path, t_end=1.0, frame="original")
    run_dir = tmp_path / "run"
    conv_dir = tmp_path / "conv"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    assert main(["convert", "--input", str(run_dir), "--output", str(conv_dir),
                 "--quiet"]) == 0
    assert ((conv_dir / "original_frame.csv").read_bytes()
            == (run_dir / "original_frame.csv").read_bytes())


@pytest.mark.parametrize("override", [
    {"t_end": math.nan},
    {"grid_cells": 100.5},
    {"datum": {"kind": "piecewise_constant", "breakpoints": [0.0, 1.0],
               "values": [math.nan]}},
    {"datum": {"kind": "piecewise_constant", "breakpoints": [0.0, math.inf],
               "values": [1.0]}},
    {"gamma": 1e-3},
    {"output_dir": 5},
], ids=["t_end-nan", "grid_cells-fraction", "values-nan", "breakpoints-inf",
        "gamma-underflow", "output_dir-int"])
def test_non_finite_input_fails_with_json_error(tmp_path, capsys, override):
    # json.dumps writes the NaN and Infinity literals that json.loads accepts
    path = write_config(tmp_path, **override)
    code = main(["simulate", "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code in (EXIT_CONFIG, EXIT_NUMERICAL)
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["exit_code"] == code


@pytest.mark.parametrize("command", ["simulate", "characteristics"])
def test_zero_mass_datum_exits_2_with_one_json_line(tmp_path, command):
    # a fresh interpreter: stderr is exactly what a user sees, numpy
    # warnings included
    path = write_config(tmp_path, datum={"kind": "piecewise_constant",
                                         "breakpoints": [0.0, 1.0],
                                         "values": [0]})
    src = str(Path(condrift.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "condrift.cli", command, "--config", str(path),
         "--output", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)
    assert error["exit_code"] == EXIT_CONFIG and "zero mass" in error["error"]


@pytest.mark.parametrize("bad_row", ["0,1,2", "0,1,2,3,4,five"],
                         ids=["wrong-column-count", "non-numeric"])
def test_cmd_convert_malformed_measures_exits_2(tmp_path, capsys, bad_row):
    path = write_config(tmp_path, t_end=0.5)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    measures = run_dir / "measures.csv"
    measures.write_text(measures.read_text() + bad_row + "\n")
    capsys.readouterr()
    code = main(["convert", "--input", str(run_dir), "--output",
                 str(tmp_path / "conv"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["exit_code"] == EXIT_CONFIG and "measures.csv" in error["error"]
    assert not (tmp_path / "conv").exists()


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # package itself imports
    src = str(Path(condrift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, condrift.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_exit_codes(tmp_path):
    # config error
    bad = tmp_path / "bad.json"
    bad.write_text("{\"gamma\": -3}")
    assert main(["simulate", "--config", str(bad), "--output",
                 str(tmp_path / "x"), "--quiet"]) == EXIT_CONFIG
    # numerical-validity error: disconnected support
    holes = write_config(
        tmp_path, datum={"kind": "piecewise_constant",
                         "breakpoints": [0.0, 1.0, 2.0, 3.0],
                         "values": [1.0, 0.0, 1.0]})
    assert main(["simulate", "--config", str(holes), "--output",
                 str(tmp_path / "y"), "--quiet"]) == EXIT_NUMERICAL


def test_cmd_characteristics_echoes_datum_at_zero(tmp_path):
    path = write_config(tmp_path, t_end=0.0,
                        datum={"kind": "piecewise_linear",
                               "breakpoints": [0.0, 0.5, 1.0],
                               "values": [1.0, 1.0, 0.0]})
    out = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(out), "--quiet"]) == 0
    report = json.loads((out / "characteristics_report.json").read_text())
    assert report["t_star_smooth"] == pytest.approx(1.0)
    assert report["first_shock_time"] is None
    rows = (out / "characteristics.csv").read_text().splitlines()[1:]
    xs, vals = [], []
    for row in rows:
        t, x, rho = (float(v) for v in row.split(","))
        assert t == 0.0
        xs.append(x)
        vals.append(rho)
    assert vals[0] == pytest.approx(1.0)
    assert vals[-1] == pytest.approx(0.0)


def test_cmd_characteristics_d3_blow_up_time(tmp_path):
    path = write_config(tmp_path, t_end=0.1, dim=3,
                        datum={"kind": "piecewise_linear",
                               "breakpoints": [0.0, 0.5, 1.0],
                               "values": [1.0, 1.0, 0.0]})
    out = tmp_path / "chars3"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(out), "--quiet"]) == 0
    report = json.loads((out / "characteristics_report.json").read_text())
    # (gamma * d * max f^gamma)^-1 with gamma=1, d=3, max f=1
    assert report["t_star_smooth"] == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("breakpoints, values", [
    ([0.2, 1.0], [1.0]),
    ([0.0, 0.5, 1.0], [0.5, 1.0]),
], ids=["block-off-origin", "step-up"])
def test_cmd_characteristics_rejects_shock_at_start(tmp_path, breakpoints, values):
    path = write_config(tmp_path, t_end=0.3,
                        datum={"kind": "piecewise_constant",
                               "breakpoints": breakpoints, "values": values})
    assert main(["characteristics", "--config", str(path), "--output",
                 str(tmp_path / "z"), "--quiet"]) == EXIT_NUMERICAL


def test_cmd_characteristics_rejects_past_horizon(tmp_path):
    path = write_config(tmp_path, t_end=2.0,
                        datum={"kind": "piecewise_linear",
                               "breakpoints": [0.0, 0.5, 1.0],
                               "values": [1.0, 1.0, 0.0]})
    assert main(["characteristics", "--config", str(path), "--output",
                 str(tmp_path / "z"), "--quiet"]) == EXIT_NUMERICAL


def test_cmd_characteristics_computes_the_horizon_once(tmp_path, monkeypatch):
    from condrift import characteristics, cli

    calls = []

    def counted(datum, cfg, real=characteristics.first_shock_time):
        calls.append(datum)
        return real(datum, cfg)

    monkeypatch.setattr(characteristics, "first_shock_time", counted)
    monkeypatch.setattr(cli, "first_shock_time", counted)
    path = write_config(tmp_path, t_end=0.8, snapshot_cadence=0.2,
                        datum={"kind": "piecewise_linear",
                               "breakpoints": [0.0, 0.5, 1.0],
                               "values": [1.0, 1.0, 0.0]})
    assert main(["characteristics", "--config", str(path), "--output",
                 str(tmp_path / "chars"), "--quiet"]) == 0
    assert len(calls) == 1


def test_characteristics_cross_check_against_solver(tmp_path):
    # the smooth solution and the finite-volume run agree at t*/2
    from condrift import evaluate_smooth_grid, piecewise_linear
    from condrift.frames import GammaConfig

    config = RunConfig.from_dict({
        "gamma": 1.0,
        "datum": {"kind": "piecewise_linear",
                  "breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 1.0, 0.0]},
        "grid_cells": 1024, "t_end": 0.5, "snapshot_cadence": 0.5,
        "z_count": 64})
    res = simulate(config)
    ms = res.ms_series[-1]
    cfg = GammaConfig(gamma=1.0)
    datum = piecewise_linear([0.0, 0.5, 1.0], [1.0, 1.0, 0.0])
    mask = ms.x > 0
    rho_smooth = evaluate_smooth_grid(ms.x[mask], 0.5, datum, cfg)
    dx_weights = ms.mass_weights[mask] / np.maximum(ms.rho[mask], 1e-300)
    l1 = float(np.sum(np.abs(ms.rho[mask] - rho_smooth) * dx_weights))
    assert l1 <= 2e-3


def test_trace_time_tolerance_scales():
    # refinement sharpens the resolution limit linearly
    assert trace_time_tolerance(1.0, 1e-4, 1e-2) == pytest.approx(
        10 * trace_time_tolerance(1.0, 1e-5, 1e-2))
    # gamma = 1, threshold 1e-2: 50 + 100 cells of time
    assert trace_time_tolerance(1.0, 1e-4, 1e-2) == pytest.approx(150e-4)


def test_cmd_verify_coarse_marks_convergence_informational(tmp_path, capsys):
    path = write_config(tmp_path, grid_cells=64, z_count=64)
    out = tmp_path / "verify64"
    assert main(["verify", "--config", str(path), "--output", str(out)]) == 0
    table = (out / "verify_report.txt").read_text()
    assert "INFO" in table
    assert "FAIL" not in table.replace("pass/fail", "")
