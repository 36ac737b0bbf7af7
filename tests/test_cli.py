import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import condrift
from condrift import cli, conslaw, measure, oracle, output
from condrift.characteristics import evaluate_smooth_grid
from condrift.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    load_config,
    main,
    simulate,
    trace_time_tolerance,
)
from condrift.conslaw import SIGNS
from condrift.datum import example_block_datum
from condrift.frames import GammaConfig
from condrift.measure import TRACE_THRESHOLD
from condrift.output import FORMAT_BATCH, format_floats, write_blocks, write_csv
from oracles import VERIFY_REPORTS, write_csv_per_value


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



# a two-sided table, and the one-sided block, whose left row never steps
CLOSURE_RUNS = {
    "two-sided": {"gamma": 1.5, "t_end": 1.2, "grid_cells": 128,
                  "datum": {"kind": "piecewise_constant",
                            "breakpoints": [-0.5, -0.1, 0.3, 0.6],
                            "values": [0.8, 1.3, 0.6]}},
    "example36": {"gamma": 1.5, "t_end": 1.2, "grid_cells": 128},
}


@pytest.mark.parametrize("overrides", CLOSURE_RUNS.values(), ids=CLOSURE_RUNS)
def test_trace_ledger_closes_on_the_concentrated_mass(tmp_path, overrides):
    # outflux_cumulative is the solver's own ledger: each file's last value
    # is the run's ledger, and the two add up to the final concentrated
    # mass bit for bit
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--quiet"]) == 0
    ledgers = [np.loadtxt(out / f"ledger_{side}.csv", delimiter=",", skiprows=1)
               for side in cli.SIDES]
    assert np.array_equal(ledgers[0][:, 0], ledgers[1][:, 0])
    assert all(ledger[0, 2] == 0.0 for ledger in ledgers)
    state = simulate(load_config(str(path))).state
    assert [ledger[-1, 2] for ledger in ledgers] == state.outflux_ledger.tolist()
    # each file holds the records' bits, in write_csv's format
    for row, side in enumerate(cli.SIDES):
        reference = tmp_path / f"reference_{side}.csv"
        write_csv_per_value(reference, ["t", "trace_u0", "outflux_cumulative"],
                            np.column_stack([state.trace_times, state.trace_values[:, row],
                                             state.ledger_history[:, row]]))
        assert (out / f"ledger_{side}.csv").read_bytes() == reference.read_bytes()
    dirac = np.loadtxt(out / "measures.csv", delimiter=",", skiprows=1)[-1, 1]
    assert ledgers[0][-1, 2] + ledgers[1][-1, 2] == dirac
    assert ledgers[1][-1, 2] > 0
    if "datum" in overrides:
        assert ledgers[0][-1, 2] > 0
    else:
        assert not ledgers[0][:, 2].any()


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


def test_write_blocks_matches_per_value_format(tmp_path, monkeypatch):
    special = np.array([-0.0, 0.0, 5e-324, 1e308, -1.0 / 3.0, -2.5e-300])
    other = special[::-1] * 0.7
    blocks = [(0.0, other), (-0.0, special), (1e308, -special), (5e-324, 2.0 * other)]
    # a column longer than FORMAT_BATCH: every batch holds one block
    long = np.concatenate([special, np.random.default_rng(28).normal(size=FORMAT_BATCH)])
    cases = {"several-blocks": (special, blocks), "one-block": (special, blocks[:1]),
             "one-row": (special[:1], [(-1.0 / 3.0, other[:1])]),
             "no-blocks": (special, []),
             "long-column": (long, [(0.0, long), (-0.0, -long), (5e-324, long[::-1])])}
    calls = []

    def counted(values):
        calls.append(np.size(values))
        return format_floats(values)

    monkeypatch.setattr(output, "format_floats", counted)
    for name, (column, case) in cases.items():
        reference = tmp_path / f"{name}-reference.csv"
        write_csv_per_value(reference, ["t", "c", "v"],
                            [(t, c, v) for t, vs in case for c, v in zip(column, vs)])
        out = tmp_path / f"{name}.csv"
        calls.clear()
        write_blocks(out, ["t", "c", "v"], column, iter(case))
        assert out.read_bytes() == reference.read_bytes(), name
    # the column once, then one call per block of time and values
    assert calls == [long.size] + [long.size + 1] * 3
    assert (tmp_path / "no-blocks.csv").read_text() == "t,c,v\n"
    lines = (tmp_path / "several-blocks.csv").read_text().splitlines()
    assert lines[1] == "0,-0,%.17g" % other[0]
    assert lines[13:15] == ["1e+308,-0,0", "1e+308,0,-0"]


def per_value_g17(values) -> list:
    return [format(float(v), ".17g").encode() for v in np.ravel(values)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, 1e308, -1e308, 5e-324, -2.2250738585072014e-308])
def test_format_floats_matches_per_value_format(values):
    assert format_floats(np.array(values)) == per_value_g17(values)


def test_format_floats_matches_per_value_format_on_random_bits():
    bits = np.random.default_rng(27).integers(0, 2**64, 220_000, dtype=np.uint64)
    values = bits.view(float)
    values = values[np.isfinite(values)]
    assert values.size >= 200_000
    assert format_floats(values) == per_value_g17(values)


def test_format_floats_matches_per_value_format_at_the_edges():
    powers = [Fraction(10) ** j for j in range(-323, 309)]
    decades = np.array([float(p) for p in powers])
    # both ends of the fast range, 1e-4 <= |v| < 2^51
    ends = np.array([1e-4, 2.0 ** 51])
    # exact ties at the 17th digit: 18 significant digits ending in 5,
    # (2^52 + i) / 8 for odd i, and odd / 2^(17 - k) at every k of the range
    rng = np.random.default_rng(27)
    ties = [(2**52 + i) / 8 for i in range(1, 400, 2)]
    for k in range(-4, 16):
        low = int(Fraction(10) ** k * 2 ** (17 - k)) + 1
        high = min(int(Fraction(10) ** (k + 1) * 2 ** (17 - k)), 2**53)
        ties += [int(n) / 2 ** (17 - k) for n in rng.integers(low, high, 50) | 1]
    for t in ties:
        n, d = t.as_integer_ratio()  # t = n 5^j / 10^j for d = 2^j, n odd
        assert len(str(n * 5 ** (d.bit_length() - 1))) == 18
    # doubles whose 17-digit rounding carries to the next power of ten
    carries = [float(p) for p in powers if Fraction(float(p)) < p
               and p - Fraction(float(p)) < p * Fraction(5, 10**18)]
    assert len(carries) >= 10
    assert all(format(c, ".17g").startswith("1e") for c in carries)
    edges = np.concatenate([decades, np.nextafter(decades, 0.0),
                            np.nextafter(decades, np.inf), ends,
                            np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
                            ties, carries])
    edges = np.concatenate([edges, -edges])
    assert format_floats(edges) == per_value_g17(edges)


def test_write_blocks_memory_does_not_grow_with_the_block_count(tmp_path):
    column = np.linspace(-1.0, 1.0, 1024)

    def peak(count):
        rng = np.random.default_rng(count)
        blocks = ((0.25 * i, rng.uniform(0.0, 1.0, 1024)) for i in range(count))
        tracemalloc.start()
        try:
            write_blocks(tmp_path / f"{count}.csv", ["t", "x", "u"], column, blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one batch: FORMAT_BATCH float64 values
    assert abs(peak(400) - peak(40)) < 8 * FORMAT_BATCH


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
        (ms.time, z, x) for ms, X in zip(res.ms_series, res.X_series)
        for z, x in zip(res.z, X)])
    assert (run / "pseudoinverse.csv").read_bytes() == reference.read_bytes()

    chars = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(chars), "--quiet"]) == 0
    smooth = load_config(str(path)).build_datum()
    xs = np.linspace(-0.4, 0.5, 64)
    # k * 0.2 short of t_end, then t_end itself, not 3 * 0.2 = 0.6000000000000001
    times = [0.0, 0.2, 0.4, 0.6]
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
    z_count = res.z.size
    assert pinv.shape == (z_count * len(res.X_series), 3)
    for k, (ms, X) in enumerate(zip(res.ms_series, res.X_series)):
        block = pinv[k * z_count:(k + 1) * z_count]
        assert np.all(block[:, 0] == ms.time)
        assert np.array_equal(block[:, 1], res.z)
        assert np.array_equal(block[:, 2], X)


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


# Without the budget these runs would step for hours; verify's law run at
# 60 000 cells is inside the row budget and past the cell-step budget
@pytest.mark.parametrize("command, override", [
    ("simulate", {"grid_cells": 10**6, "t_end": 100.0, "snapshot_cadence": 100.0}),
    ("verify", {"grid_cells": 60_000, "snapshot_cadence": 1.0}),
], ids=["simulate", "verify"])
def test_cell_step_budget_exits_2(tmp_path, capsys, command, override):
    path = write_config(tmp_path, **override)
    code = main([command, "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "cell-step budget" in error["error"]
    assert error["exit_code"] == EXIT_CONFIG


# 8 cells at cfl 1e-3 to t_end 1e4: about 5.2e8 cell steps, inside the
# cell-step budget, in up to 6.5e7 steps, so the two ledger files would
# hold about 1.3e8 rows and the run about 13 GB of step records
LEDGER_PAST_THE_BUDGET = {"grid_cells": 8, "z_count": 16, "cfl": 1e-3, "t_end": 1e4,
                          "snapshot_cadence": 1e4}


def test_simulate_checks_its_ledger_rows_before_its_first_step(tmp_path, monkeypatch):
    # a step would be a missed check: it fails the run at once, before the
    # run's records grow
    def refuse(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(conslaw, "_advance", refuse)
    path = write_config(tmp_path, **LEDGER_PAST_THE_BUDGET)
    out = tmp_path / "out"
    code, stderr = run_command(["simulate", "--config", str(path), "--output", str(out)])
    assert code == EXIT_CONFIG
    assert stderr.count("\n") == 1
    assert "ledger rows exceed the budget" in json.loads(stderr)["error"]
    assert not out.exists()


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
    # simulate and convert map the same measures.csv rows, so their bytes
    # agree; the two-sided datum has a negative support_lo
    two_sided = {"kind": "piecewise_constant", "breakpoints": [-0.7, -0.2, 0.1, 0.4],
                 "values": [0.6, 1.2, 0.8]}
    for name, datum in (("block", {"kind": "example36"}), ("two-sided", two_sided)):
        path = write_config(tmp_path, t_end=1.0, frame="original", datum=datum)
        run_dir = tmp_path / name / "run"
        conv_dir = tmp_path / name / "conv"
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


def fresh_json_error(tmp_path: Path, command: str, path: Path, code: int) -> str:
    """Run one command in a fresh interpreter, so that stderr is exactly
    what a user sees, numpy warnings included; check that it exits with
    ``code``, prints nothing on stdout and one JSON error line on stderr,
    and return the error message."""
    src = str(Path(condrift.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "condrift.cli", command, "--config", str(path),
         "--output", str(tmp_path / "out"), "--quiet"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)
    assert error["exit_code"] == code
    return error["error"]


@pytest.mark.parametrize("command", ["simulate", "characteristics"])
def test_zero_mass_datum_exits_2_with_one_json_line(tmp_path, command):
    path = write_config(tmp_path, datum={"kind": "piecewise_constant",
                                         "breakpoints": [0.0, 1.0],
                                         "values": [0]})
    assert "zero mass" in fresh_json_error(tmp_path, command, path, EXIT_CONFIG)


HUGE_BLOCK = {"gamma": 2.0, "datum": {"kind": "piecewise_constant",
                                      "breakpoints": [0.0, 1.0], "values": [1e200]}}


@pytest.mark.parametrize("command, override", [
    ("simulate", HUGE_BLOCK),
    ("simulate", {**HUGE_BLOCK, "gamma": 3.0}),
    ("characteristics", HUGE_BLOCK),
    ("simulate", {"datum": {"kind": "piecewise_constant",
                            "breakpoints": [0.0, 1e300], "values": [1.0]}}),
    ("characteristics", {"gamma": 2.0, "datum": {
        "kind": "piecewise_constant", "breakpoints": [0.0, 1.0], "values": [6e-264]}}),
], ids=["simulate-values-1e200", "simulate-values-1e200-gamma3",
        "characteristics-values-1e200",
        "simulate-breakpoints-1e300", "characteristics-values-6e-264"])
def test_float_overflow_exits_3_with_one_json_line(tmp_path, command, override):
    # max(u)**gamma in the CFL step (products at gamma = 2 and 3, which raise
    # as ** does), sup**gamma in blow_up_time, the measure
    # of a huge support, and the blow-up time of a datum whose sup**gamma
    # underflows overflow a float
    path = write_config(tmp_path, **override)
    fresh_json_error(tmp_path, command, path, EXIT_NUMERICAL)


# 10^400 is within Python's digit limit and past the float range; 10^308
# is within it, and twice the cell count, the rows of a snapshot, is not
@pytest.mark.parametrize("command, key, value", [
    *[pytest.param(command, key, 10**400, id=f"{command}-{key}-401-digits")
      for command, keys in (("simulate", ("gamma", "grid_cells", "z_count")),
                            ("verify", ("gamma", "grid_cells", "z_count")),
                            ("characteristics", ("gamma", "grid_cells", "dim")))
      for key in keys],
    *[pytest.param(command, "grid_cells", 10**308, id=f"{command}-grid_cells-1e308")
      for command in ("simulate", "verify", "characteristics")],
])
def test_a_number_past_the_float_range_exits_2(tmp_path, command, key, value):
    path = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    code, stderr = run_command([command, "--config", str(path), "--output", str(out)])
    assert code == EXIT_CONFIG
    assert stderr.count("\n") == 1
    assert json.loads(stderr)["exit_code"] == EXIT_CONFIG
    assert not out.exists()


# at gamma = 1e-3, x(xi) underflows to 0 at the block's innermost cell
# centers; a grid maps its centers on first use, in assemble after the
# run, so verify's law run at 200 000 cells fails its cell-step check first
@pytest.mark.parametrize("command, cells, code, message", [
    ("verify", 200_000, EXIT_CONFIG, "cell-step budget"),
    ("simulate", 64, EXIT_NUMERICAL, "underflows to 0 at a cell center"),
])
def test_a_run_checks_its_cell_steps_before_the_underflow(tmp_path, command, cells,
                                                          code, message):
    path = write_config(tmp_path, gamma=1e-3, grid_cells=cells)
    out = tmp_path / "out"
    exit_code, stderr = run_command([command, "--config", str(path), "--output", str(out)])
    assert exit_code == code
    assert message in json.loads(stderr)["error"]
    assert not out.exists()


def test_simulate_at_gamma_1e6_runs_with_finite_outputs(tmp_path, capsys):
    gamma = 1e6
    path = write_config(tmp_path, gamma=gamma, t_end=1e-3, snapshot_cadence=5e-4)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--output", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    for csv in out.glob("*.csv"):
        table = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(table)), csv.name
    summary = json.loads((out / "summary.json").read_text())
    # the explicit mass law is in the unit-height scale, whose mass is 1/(1+gamma)
    assert summary["final_dirac_fraction"] == pytest.approx(
        oracle.mass_explicit(1e-3, gamma) * (1 + gamma), rel=0.01)


@pytest.mark.parametrize("override, horizon", [
    ({"gamma": 0.5, "t_end": 5e-5, "snapshot_cadence": 1e-5,
      "datum": {"kind": "piecewise_linear", "breakpoints": [0.5, 1.0, 1.5],
                "values": [0.0, 1.0, 0.0]}}, "0.0"),
    ({"dim": 3, "t_end": 0.3, "snapshot_cadence": 0.1,
      "datum": {"kind": "piecewise_linear", "breakpoints": [0.0, 0.5, 1.0],
                "values": [0.2, 1.0, 0.0]}}, "0.2173913"),
], ids=["gamma-0.5-zero-rising-outward", "radial-rising-segment"])
def test_characteristics_past_the_exact_shock_exits_3(tmp_path, override, horizon):
    # the foot map has folded by t_end: at once where f^(gamma-1) is
    # unbounded, and at 1/4.6 on the radial segment f = 0.2 + 1.6*r
    path = write_config(tmp_path, **override)
    message = fresh_json_error(tmp_path, "characteristics", path, EXIT_NUMERICAL)
    assert f"smooth horizon {horizon}" in message


def test_characteristics_radial_datum_at_negative_radius_exits_2(tmp_path):
    path = write_config(tmp_path, dim=3, t_end=0.1,
                        datum={"kind": "piecewise_constant",
                               "breakpoints": [-0.5, 0.5], "values": [1.0]})
    message = fresh_json_error(tmp_path, "characteristics", path, EXIT_CONFIG)
    assert "breakpoints >= 0" in message and "radius" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("datum, message", [
    ({"kind": "piecewise_constant", "breakpoints": [0.0, 1.0], "values": [0]},
     "zero mass"),
    ({"kind": "bogus"}, "unknown datum kind"),
    ({"kind": "piecewise_constant", "breakpoints": [0.0, 1.0]}, "invalid datum table"),
    ({"kind": ["example36"]}, "unknown datum kind"),
    ({"kind": "example36", "breakpoints": [0, 5], "values": [3]},
     "unknown datum keys ['breakpoints', 'values']"),
    ({"kind": "piecewise_linear", "breakpoints": [0.0, 1.0], "values": [1.0, 0.5],
      "height": 2.0}, "unknown datum keys ['height']"),
], ids=["zero-mass", "unknown-kind", "no-values", "unhashable-kind",
        "example36-with-table", "piecewise-extra-key"])
def test_verify_rejects_a_bad_datum_with_one_json_line(tmp_path, datum, message):
    # verify runs the block, but the configured datum must still be valid
    path = write_config(tmp_path, datum=datum)
    assert message in fresh_json_error(tmp_path, "verify", path, EXIT_CONFIG)
    assert not (tmp_path / "out").exists()


def test_verify_rejects_dim_2(tmp_path, capsys):
    # the suite runs the 1-D block only, as simulate does
    path = write_config(tmp_path, dim=2)
    code = main(["verify", "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert "dim = 1" in error["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, column", [
    ("values", [True]),
    ("values", [[1.0]]),
    ("values", 1.0),
    ("breakpoints", [0.0, "1"]),
    ("breakpoints", [0.0, None]),
    ("breakpoints", {"0": 1.0}),
], ids=["bool", "nested", "scalar", "string", "null", "object"])
def test_datum_table_takes_flat_lists_of_numbers(tmp_path, capsys, key, column):
    datum = {"kind": "piecewise_constant", "breakpoints": [0.0, 1.0], "values": [1.0]}
    path = write_config(tmp_path, datum=dict(datum, **{key: column}))
    code = main(["simulate", "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert f"{key} must be a flat list of numbers" in error["error"]


@pytest.mark.parametrize("bad_row", ["0,1,2", "0,1,2,3,4,five", "0,1,2,3,4,nan",
                                     "0,1,2,-inf,4,5", "-3,1,2,3,4,5"],
                         ids=["wrong-column-count", "non-numeric", "nan", "inf",
                              "negative-time"])
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
    assert bad_row in error["error"]
    assert not (tmp_path / "conv").exists()


@pytest.mark.parametrize("edit", [lambda text: text.split("\n", 1)[1], lambda text: ""],
                         ids=["headerless", "empty"])
def test_cmd_convert_needs_the_measures_header_and_a_row(tmp_path, capsys, edit):
    # a headerless file would lose its first snapshot as the header
    path = write_config(tmp_path, t_end=0.5)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    measures = run_dir / "measures.csv"
    measures.write_text(edit(measures.read_text()))
    capsys.readouterr()
    code = main(["convert", "--input", str(run_dir), "--output",
                 str(tmp_path / "conv"), "--quiet"])
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().err)
    assert error["exit_code"] == EXIT_CONFIG and "measures.csv" in error["error"]
    assert not (tmp_path / "conv").exists()


def test_cmd_convert_rejects_dim_2(tmp_path, capsys):
    # the original-frame map is one-dimensional, as simulate is
    path = write_config(tmp_path, t_end=0.5)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    resolved = run_dir / "resolved_config.json"
    resolved.write_text(json.dumps(dict(json.loads(resolved.read_text()), dim=2)))
    code = main(["convert", "--input", str(run_dir), "--output",
                 str(tmp_path / "conv"), "--quiet"])
    assert code == EXIT_CONFIG
    assert "convert requires dim = 1" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "conv").exists()


BAD_CONFIG_BYTES = {
    "byte-0xff": b'{"gamma": 1.0, "datum": {"kind": "example36\xff"}}',
    "nested-arrays": b"[" * 200_000 + b"]" * 200_000,
    "5000-digit-integer": b'{"gamma": 1.0, "datum": {"kind": "example36"}, '
                          b'"grid_cells": 1' + b"0" * 4999 + b"}",
}


@pytest.mark.parametrize("command", ["simulate", "verify", "characteristics"])
@pytest.mark.parametrize("raw", BAD_CONFIG_BYTES.values(), ids=BAD_CONFIG_BYTES)
def test_a_config_that_does_not_parse_exits_2(tmp_path, capsys, command, raw):
    # undecodable bytes, nesting past the recursion limit and an integer
    # past Python's digit limit are config errors, whatever the locale
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out),
                 "--quiet"]) == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["exit_code"] == EXIT_CONFIG
    assert not out.exists()


def test_cmd_convert_measures_that_are_not_ascii_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, t_end=0.5)
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output", str(run_dir),
                 "--quiet"]) == 0
    measures = run_dir / "measures.csv"
    measures.write_bytes(measures.read_bytes() + b"0,1,2,3,4,5\xff\n")
    capsys.readouterr()
    code = main(["convert", "--input", str(run_dir), "--output",
                 str(tmp_path / "conv"), "--quiet"])
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == EXIT_CONFIG and "measures.csv" in error["error"]
    assert not (tmp_path / "conv").exists()


def test_every_csv_file_goes_through_the_cli_writer_names(tmp_path, monkeypatch):
    # the benchmark tracer replaces cli.write_csv; a command that called
    # the output module's writers directly would write files it never sees
    written = []

    def recorded(writer):
        def record(path, *args):
            written.append(path)
            writer(path, *args)
        return record

    for name in ("write_csv", "write_blocks"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    path = write_config(tmp_path, frame="original")
    runs = {"run": (["simulate", "--config", str(path)], 7),
            "conv": (["convert", "--input", str(tmp_path / "run")], 1),
            "chars": (["characteristics", "--config", str(path)], 1)}
    for name, (argv, count) in runs.items():
        written.clear()
        out = tmp_path / name
        assert main(argv + ["--output", str(out), "--quiet"]) == 0
        assert len(written) == count
        assert sorted(written) == sorted(out.glob("*.csv"))


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # package itself imports
    src = str(Path(condrift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, condrift.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_verify_in_a_fresh_interpreter_never_builds_the_formatter_tables(tmp_path):
    # verify writes no CSV, so format_floats' tables are never built; the
    # first format_floats call builds them
    src = str(Path(condrift.__file__).resolve().parents[1])
    argv = ["verify", "--config", str(write_config(tmp_path, grid_cells=64)),
            "--output", str(tmp_path / "out"), "--quiet"]
    probe = ("from condrift import cli, output; code = cli.main(%r); "
             "built = output._tables.cache_info().currsize; "
             "output.format_floats([0.5]); "
             "print(code, built, output._tables.cache_info().currsize)" % argv)
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["0", "0", "1"]


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
    # an interior vacuum narrower than any sampling spacing is one too
    narrow = write_config(
        tmp_path, datum={"kind": "piecewise_constant",
                         "breakpoints": [0.0, 1.0, 1.000001, 2.0],
                         "values": [1.0, 0.0, 1.0]})
    assert main(["simulate", "--config", str(narrow), "--output",
                 str(tmp_path / "z"), "--quiet"]) == EXIT_NUMERICAL


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


def test_cmd_characteristics_rejects_past_horizon(tmp_path, capsys):
    # the evaluator names the first output time at or past the horizon 1
    path = write_config(tmp_path, t_end=2.0,
                        datum={"kind": "piecewise_linear",
                               "breakpoints": [0.0, 0.5, 1.0],
                               "values": [1.0, 1.0, 0.0]})
    assert main(["characteristics", "--config", str(path), "--output",
                 str(tmp_path / "z"), "--quiet"]) == EXIT_NUMERICAL
    assert json.loads(capsys.readouterr().err)["error"] == (
        "numerical validity error: t=1.0 is at or past the smooth horizon 1.0")
    assert not (tmp_path / "z").exists()


TENT = {"kind": "piecewise_linear", "breakpoints": [0.0, 0.5, 1.0],
        "values": [1.0, 1.0, 0.0]}


def block_times(csv: Path) -> list:
    """The t of each block of a blocked CSV file, in order."""
    lines = csv.read_text().splitlines()[1:]
    return list(dict.fromkeys(float(line.split(",", 1)[0]) for line in lines))


@pytest.mark.parametrize("t_end, cadence, times", [
    (0.9, 0.225, [k * 0.225 for k in range(4)] + [0.9]),
    # 3 * 0.1 = 0.30000000000000004 and 3 * 0.2 = 0.6000000000000001
    # overshot t_end
    (0.3, 0.1, [0.0, 0.1, 0.2, 0.3]),
    (0.6, 0.2, [0.0, 0.2, 0.4, 0.6]),
    # 4 * 0.125 is short of t_end by less than 1e-12: t_end stands for it
    (0.5 + 5e-13, 0.125, [0.0, 0.125, 0.25, 0.375, 0.5 + 5e-13]),
    (1e-13, 0.25, [0.0, 1e-13]),
    (0.0, 0.25, [0.0]),
    # past t_end = 1 the solver's tolerance is 1e-12 * t_end, so 3, which
    # is 2e-12 short of t_end, gives way to t_end
    (3 + 2e-12, 1.0, [0.0, 1.0, 2.0, 3 + 2e-12]),
], ids=["workload", "0.3-by-0.1", "0.6-by-0.2", "just-past-a-multiple", "tiny", "zero",
        "past-one"])
def test_characteristics_time_grid_ends_at_t_end(tmp_path, t_end, cadence, times):
    # sup 0.25 puts the tent's blow-up at t = 4, past every t_end here
    path = write_config(tmp_path, t_end=t_end, snapshot_cadence=cadence,
                        grid_cells=16, datum={**TENT, "values": [0.25, 0.25, 0.0]})
    out = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(out), "--quiet"]) == 0
    assert block_times(out / "characteristics.csv") == times


@pytest.mark.parametrize("t_end", [0.0, 1e-13, 0.5, 0.4321987654321],
                         ids=["zero", "below-the-landing-tolerance", "cadence-multiple",
                              "off-the-cadence"])
def test_simulate_and_characteristics_write_the_same_output_times(tmp_path, t_end):
    # both commands take their times from conslaw.output_times, so the t
    # column of measures.csv is the t of characteristics.csv's blocks, as
    # written; a run shorter than the landing tolerance ends at t_end too
    datum = {"kind": "piecewise_linear", "breakpoints": [-0.5, 0.0, 0.6],
             "values": [0.4, 1.0, 0.4]}
    path = write_config(tmp_path, datum=datum, grid_cells=16, t_end=t_end,
                        snapshot_cadence=0.125)
    columns = {}
    for command, csv in (("simulate", "measures.csv"),
                         ("characteristics", "characteristics.csv")):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--output", str(out),
                     "--quiet"]) == 0
        lines = (out / csv).read_text().splitlines()[1:]
        columns[command] = list(dict.fromkeys(line.split(",", 1)[0] for line in lines))
    assert columns["simulate"] == columns["characteristics"]
    assert float(columns["simulate"][-1]) == t_end and len(columns["simulate"]) == (
        1 if t_end == 0.0 else 2 if t_end < 0.125 else 5)


def test_characteristics_budgets_only_the_rows_it_writes(tmp_path, capsys):
    # characteristics writes grid_cells rows per time and no pseudo-inverse,
    # so a z_count of 10^7 adds no row to its budget
    datum = {"kind": "piecewise_linear", "breakpoints": [-0.5, 0.0, 0.6],
             "values": [0.4, 1.0, 0.4]}
    path = write_config(tmp_path, datum=datum, grid_cells=64, z_count=10**7,
                        t_end=0.5, snapshot_cadence=0.25)
    out = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(out), "--quiet"]) == 0
    assert len((out / "characteristics.csv").read_text().splitlines()) == 1 + 3 * 64
    # t_end / snapshot_cadence overflows to inf, still past the budget
    path = write_config(tmp_path, datum=datum, grid_cells=64, t_end=1e300,
                        snapshot_cadence=1e-300)
    assert main(["characteristics", "--config", str(path), "--output",
                 str(tmp_path / "inf"), "--quiet"]) == EXIT_CONFIG
    assert "budget" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "inf").exists()


def test_characteristics_runs_to_a_t_end_just_inside_the_horizon(tmp_path):
    # sup 1/nextafter(0.3, 1) puts the blow-up time at 0.30000000000000004:
    # t_end 0.3 lies inside it, 3 * 0.1 does not
    sup = 1.0 / np.nextafter(0.3, 1.0)
    path = write_config(tmp_path, t_end=0.3, snapshot_cadence=0.1, grid_cells=16,
                        datum={**TENT, "values": [sup, sup, 0.0]})
    out = tmp_path / "chars"
    assert main(["characteristics", "--config", str(path), "--output",
                 str(out), "--quiet"]) == 0
    report = json.loads((out / "characteristics_report.json").read_text())
    assert report["t_star_smooth"] == np.nextafter(0.3, 1.0)
    assert block_times(out / "characteristics.csv") == [0.0, 0.1, 0.2, 0.3]


def draw_datum(draw, max_value: float) -> dict:
    """A config datum table, valid or not: example36, or one to four
    piecewise segments from a start in [-1, 0.5] with values in [0,
    max_value]."""
    kind = draw(st.sampled_from(["example36", "piecewise_constant", "piecewise_linear"]))
    datum = {"kind": kind}
    if kind != "example36":
        n = draw(st.integers(1, 4))
        start = draw(st.floats(-1.0, 0.5))
        widths = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        count = n + (kind == "piecewise_linear")
        value = st.floats(0.0, max_value)
        datum.update(breakpoints=[float(x) for x in np.cumsum([start] + widths)],
                     values=draw(st.lists(value, min_size=count, max_size=count)))
    return datum


@st.composite
def characteristics_configs(draw):
    """Config dicts for characteristics, valid or not: at most 256 cells
    and 20 output times."""
    datum = draw_datum(draw, 3.0)
    t_end = draw(st.floats(0.0, 1.5))
    return {"gamma": draw(st.floats(0.2, 4.0)), "dim": draw(st.integers(1, 3)),
            "datum": datum, "grid_cells": draw(st.integers(8, 256)), "t_end": t_end,
            "snapshot_cadence": draw(st.floats(max(t_end / 19, 1e-3), 2.0))}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(characteristics_configs())
def test_characteristics_config_fuzz(raw):
    # every config runs, or fails with one JSON error and exit 2 or 3
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(raw))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["characteristics", "--config", str(path), "--output",
                         str(out), "--quiet"])
        event(f"exit {code}")
        assert code in (0, EXIT_CONFIG, EXIT_NUMERICAL)
        if stderr.getvalue():
            error = json.loads(stderr.getvalue())
            assert error["exit_code"] == code
        else:
            assert code == 0
        if code != 0:
            assert not out.exists()
        else:
            rows = np.loadtxt(out / "characteristics.csv", delimiter=",", skiprows=1,
                              ndmin=2)
            assert np.all(np.isfinite(rows)) and np.all(rows[:, 2] >= 0)
            assert rows[-1, 0] == raw["t_end"]
            assert len(block_times(out / "characteristics.csv")) <= 20


# gamma = 2 flux of the trace value 1e150 overflows: the run used to
# write its config and snapshot files, then exit 3 in the trace ledger
OVERFLOWING_TRACE = {
    "gamma": 2.0, "grid_cells": 8, "z_count": 64, "t_end": 0,
    "snapshot_cadence": 0.001,
    "datum": {"kind": "piecewise_constant",
              "breakpoints": [-0.22038238595773185, 0.7866340851152702],
              "values": [1e150]}}


def run_simulate(raw: dict, tmp: Path) -> tuple:
    """(exit code, stderr, output directory) of simulate on a config dict."""
    path, out = tmp / "config.json", tmp / "out"
    path.write_text(json.dumps(raw))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["simulate", "--config", str(path), "--output", str(out),
                     "--quiet"])
    return code, stderr.getvalue(), out


def assert_finite_outputs(out: Path) -> None:
    """Every number of every CSV file and of summary.json is finite."""
    for csv in out.glob("*.csv"):
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows)), csv.name
    summary = json.loads((out / "summary.json").read_text())
    numbers = [summary["gamma"], summary["t_end"], summary["final_dirac_fraction"],
               summary["total_mass"], *summary["grid"].values()]
    if summary["t_star_trace"] is not None:
        numbers.append(summary["t_star_trace"])
    assert all(map(math.isfinite, numbers)), summary


@pytest.mark.parametrize("late_failure", [False, True], ids=["repro", "late-failure"])
def test_failed_simulate_leaves_no_partial_directory(tmp_path, monkeypatch, late_failure):
    # every artifact is computed before the output directory is made
    if late_failure:
        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow encountered in power")

        monkeypatch.setattr(cli.measure, "trace_onset_time", overflow)
    code, stderr, out = run_simulate(OVERFLOWING_TRACE, tmp_path)
    if late_failure:
        assert code == EXIT_NUMERICAL and json.loads(stderr)["exit_code"] == code
        assert not out.exists()
    else:
        assert code == 0 and stderr == ""
        assert_finite_outputs(out)


@st.composite
def simulate_configs(draw):
    """Config dicts for simulate, valid or not: at most 256 cells, 1024
    z-points, t_end 4 and 20 snapshots."""
    datum = draw_datum(draw, 2.0)
    t_end = draw(st.floats(0.0, 4.0))
    return {"gamma": draw(st.floats(0.2, 3.0)), "dim": draw(st.integers(1, 2)),
            "datum": datum, "grid_cells": draw(st.integers(8, 256)),
            "z_count": draw(st.integers(16, 1024)), "t_end": t_end,
            "snapshot_cadence": draw(st.floats(max(t_end / 19, 1e-3), 2.0)),
            "frame": draw(st.sampled_from(["driftfree", "original"]))}


@settings(max_examples=50, deadline=5000, derandomize=True)
@given(simulate_configs())
@example(OVERFLOWING_TRACE)
def test_simulate_config_fuzz(raw):
    # every config runs to finite outputs, or fails with one JSON error,
    # exit 2, 3 or 4, and no output directory
    with tempfile.TemporaryDirectory() as tmp:
        code, stderr, out = run_simulate(raw, Path(tmp))
        event(f"exit {code}")
        assert code in (0, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO)
        if stderr:
            assert stderr.count("\n") == 1
            assert json.loads(stderr)["exit_code"] == code
        else:
            assert code == 0
        if code != 0:
            assert not out.exists()
        else:
            assert_finite_outputs(out)


NON_FINITE = {"nan", "inf", "infinity"}


def assert_no_non_finite_token(out: Path) -> None:
    """No file in ``out`` holds a nan or inf token, of any case or sign."""
    for path in out.iterdir():
        tokens = re.split(r"[\s,:\[\]{}\"]+", path.read_text())
        assert not NON_FINITE & {t.lstrip("+-").lower() for t in tokens}, path.name


def run_command(argv: list) -> tuple:
    """(exit code, stderr) of one quiet command."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([*argv, "--quiet"])
    return code, stderr.getvalue()


def assert_exit_contract(code: int, stderr: str, out: Path, codes: set) -> None:
    """The exit code is one of ``codes``; stderr is empty on exit 0 and one
    JSON error line otherwise; an exit 0 or 5 leaves outputs without nan or
    inf, and any other exit leaves no output directory."""
    event(f"exit {code}")
    assert code in codes
    if code == 0:
        assert stderr == ""
    else:
        assert stderr.count("\n") == 1
        assert json.loads(stderr)["exit_code"] == code
    if code in (0, EXIT_VERIFY):
        assert_no_non_finite_token(out)
    else:
        assert not out.exists()


@st.composite
def verify_configs(draw):
    """Config dicts for verify, valid or not: at most 256 cells, 1024
    z-points, t_end 4 and cfl from 0.5."""
    raw = draw(simulate_configs())
    raw.update(cfl=draw(st.floats(0.5, 1.0)))
    if draw(st.booleans()):
        raw["datum"] = {"kind": "example36"}
    return raw


# the pseudo-inverse row reads X_explicit at t = 2/gamma = 1, past 1/gamma,
# where region A's power would take the square root of 1 - 2 = -1
PAST_THE_ONSET = {"gamma": 2.0, "datum": {"kind": "example36"}, "grid_cells": 64,
                  "z_count": 64}


@settings(max_examples=40, deadline=10000, derandomize=True)
@given(verify_configs())
@example(PAST_THE_ONSET)
def test_verify_config_fuzz(raw):
    # every config writes a report free of nan and inf and exits 0 or 5,
    # or fails with one JSON error, exit 2, 3 or 4, and no report
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(raw))
        code, stderr = run_command(["verify", "--config", str(path), "--output", str(out)])
        assert_exit_contract(code, stderr, out, {0, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO,
                                                 EXIT_VERIFY})


def simulated_run(tmp: Path) -> Path:
    """The run directory of a small simulate of the block to t = 2."""
    run = tmp / "run"
    path = write_config(tmp, t_end=2.0, grid_cells=64, z_count=64,
                        snapshot_cadence=0.5)
    assert main(["simulate", "--config", str(path), "--output", str(run), "--quiet"]) == 0
    return run


@pytest.mark.parametrize("gamma, row, operation", [
    (1e10, "2e300,0,1,0,1,1", "multiply"),
    (1.0, "2,0,1,-1e308,1e308,1", "subtract"),
], ids=["tau", "support-diameter"])
def test_convert_overflow_leaves_no_output_directory(tmp_path, gamma, row, operation):
    # tau = log(1 + gamma*t)/gamma overflows at gamma 1e10, t 2e300, and the
    # support diameter support_hi - support_lo at edges -1e308 and 1e308;
    # the output directory used to be made before the rows were computed,
    # and the diameter, a Python float subtraction, used to read inf
    run = simulated_run(tmp_path)
    resolved = run / "resolved_config.json"
    resolved.write_text(json.dumps(dict(json.loads(resolved.read_text()), gamma=gamma)))
    measures = run / "measures.csv"
    lines = edit_row(measures.read_text().splitlines(), -1, lambda line: row)
    measures.write_text("\n".join(lines) + "\n")
    out = tmp_path / "conv"
    code, stderr = run_command(["convert", "--input", str(run), "--output", str(out)])
    assert code == EXIT_NUMERICAL
    assert json.loads(stderr) == {"error": "numerical validity error: overflow "
                                           f"encountered in {operation}",
                                  "exit_code": EXIT_NUMERICAL}
    assert not out.exists()


@pytest.fixture(scope="module")
def convert_source(tmp_path_factory) -> Path:
    return simulated_run(tmp_path_factory.mktemp("convert"))


def edit_row(lines: list, row: int, change) -> list:
    """``lines`` with the data row ``row``, modulo the row count, mapped by
    ``change``; unchanged if there is no data row."""
    if len(lines) < 2:
        return lines
    row = 1 + row % (len(lines) - 1)
    return [*lines[:row], change(lines[row]), *lines[row + 1:]]


def set_cell(line: str, column: int, value: str) -> str:
    cells = line.split(",")
    cells[column % len(cells)] = value
    return ",".join(cells)


@st.composite
def measures_edits(draw):
    """One corruption of measures.csv, as a function of its lines."""
    row, column = draw(st.integers(0, 20)), draw(st.integers(0, 5))
    value = draw(st.sampled_from(["nan", "inf", "-inf", "x", "", "1e300"]))
    at = draw(st.integers(0, 6))
    return draw(st.sampled_from([
        lambda lines: lines[1:],  # no header
        lambda lines: [*lines[:at], lines[0] if lines else "", *lines[at:]],  # a header again
        lambda lines: edit_row(lines, row, lambda line: set_cell(line, column, value)),
        lambda lines: edit_row(lines, row, lambda line: set_cell(line, 0, "-0.5")),
        lambda lines: edit_row(lines, row, lambda line: line + ",1"),  # too wide
        lambda lines: edit_row(lines, row, lambda line: line.rsplit(",", 1)[0]),  # too narrow
        lambda lines: [*lines[:at], "", *lines[at:]],  # a blank line
        lambda lines: [],  # an empty file
    ]))


@st.composite
def convert_inputs(draw):
    """(measures.csv edits, resolved_config.json edit, CRLF line ends)."""
    config_edit = draw(st.none() | st.sampled_from([
        "bad-json", "unknown-key", "dim-2", "huge-gamma-and-t"]))
    return (draw(st.lists(measures_edits(), max_size=2)), config_edit,
            draw(st.booleans()))


@settings(max_examples=60, deadline=2000, derandomize=True)
@given(convert_inputs())
def test_convert_input_fuzz(convert_source, edits):
    # every corrupted copy of a run converts to finite rows, or fails with
    # one JSON error, exit 2, 3 or 4, and no output directory
    row_edits, config_edit, crlf = edits
    with tempfile.TemporaryDirectory() as tmp:
        run, out = Path(tmp) / "run", Path(tmp) / "out"
        run.mkdir()
        lines = (convert_source / "measures.csv").read_text().splitlines()
        config = json.loads((convert_source / "resolved_config.json").read_text())
        for edit in row_edits:
            lines = edit(lines)
        if config_edit == "huge-gamma-and-t" and len(lines) > 1:
            config["gamma"] = 1e10
            lines = edit_row(lines, -1, lambda line: set_cell(line, 0, "1e300"))
        edited = {"unknown-key": {**config, "spare": 1}, "dim-2": {**config, "dim": 2}}
        config_text = json.dumps(edited.get(config_edit, config))
        if config_edit == "bad-json":
            config_text = config_text[:-1]
        (run / "resolved_config.json").write_text(config_text)
        end = "\r\n" if crlf else "\n"
        (run / "measures.csv").write_bytes("".join(line + end for line in lines).encode())
        code, stderr = run_command(["convert", "--input", str(run), "--output", str(out)])
        assert_exit_contract(code, stderr, out, {0, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO})


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
    assert trace_time_tolerance(1.0, 1e-4) == pytest.approx(
        10 * trace_time_tolerance(1.0, 1e-5))
    # gamma = 1, threshold 1e-2: 50 + 100 cells of time
    assert trace_time_tolerance(1.0, 1e-4) == pytest.approx(150e-4)


def test_verify_at_an_integer_gamma_writes_the_float_gamma_report(tmp_path):
    # gamma**gamma in exact integer arithmetic would take far longer than
    # the timeout at gamma = 10^7; the tolerance is taken in floats
    src = str(Path(condrift.__file__).resolve().parents[1])
    reports = []
    for gamma in (10**7, 1e7):
        run = tmp_path / repr(gamma)
        run.mkdir()
        path = write_config(run, gamma=gamma, grid_cells=64)
        proc = subprocess.run(
            [sys.executable, "-m", "condrift.cli", "verify", "--config", str(path),
             "--output", str(run / "out"), "--quiet"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)
        assert proc.returncode == 0
        reports.append((run / "out" / "verify_report.txt").read_bytes())
    assert reports[0] == reports[1]


def test_cmd_verify_coarse_marks_convergence_informational(tmp_path, capsys):
    path = write_config(tmp_path, grid_cells=64, z_count=64)
    out = tmp_path / "verify64"
    assert main(["verify", "--config", str(path), "--output", str(out)]) == 0
    table = (out / "verify_report.txt").read_text()
    assert "INFO" in table
    assert "FAIL" not in table.replace("pass/fail", "")


def count_steppers(monkeypatch) -> list:
    """The list that the state of every ``conslaw._advance`` call from now
    on is appended to."""
    built = []
    real = conslaw._advance

    def counted(state, *args, **kwargs):
        built.append(state)
        real(state, *args, **kwargs)

    monkeypatch.setattr(conslaw, "_advance", counted)
    return built


@pytest.mark.parametrize("gamma, cells", list(VERIFY_REPORTS))
def test_verify_keeps_its_report_bytes_with_three_solver_runs(tmp_path, monkeypatch,
                                                              gamma, cells):
    # the convergence size grid_cells and the pseudo-inverse row come off
    # the law run: two convergence runs and the law run build a stepper each
    built = count_steppers(monkeypatch)
    path = write_config(tmp_path, gamma=gamma, grid_cells=cells, z_count=cells)
    out = tmp_path / "verify"
    report = VERIFY_REPORTS[gamma, cells]
    code = main(["verify", "--config", str(path), "--output", str(out), "--quiet"])
    assert code == (EXIT_VERIFY if "FAIL" in report else 0)
    assert (out / "verify_report.txt").read_text() == report
    assert len(built) == 3


# the report of verify at grid_cells = z_count = 100, gamma = 1, as written
# when its two diagnostics rows were computed in verify itself
VERIFY_REPORT_100 = (
    'check                                      status measured           target\n'
    'L1 convergence order vs explicit u         INFO   0.776              >= 0.8\n'
    'trace onset time vs 1/gamma                INFO   0.28597            1.00000 +/- 8.2\n'
    'condensed-mass law rel error               INFO   0.0387             <= 0.01\n'
    'pseudo-inverse Linf vs explicit X          INFO   3.42e-02           <= 1e-2\n'
    'entropy-measure diagnostics                PASS   0 violations       0\n'
)


def test_verify_makes_four_solver_runs_when_no_size_is_grid_cells(tmp_path, monkeypatch):
    # at 100 cells the convergence sizes are 64, 128 and 256: none comes
    # off the law run, so each builds a stepper of its own besides it
    built = count_steppers(monkeypatch)
    path = write_config(tmp_path, gamma=1.0, grid_cells=100, z_count=100)
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--output", str(out), "--quiet"]) == 0
    assert (out / "verify_report.txt").read_text() == VERIFY_REPORT_100
    assert len(built) == 4


def test_verify_exits_5_after_writing_a_failed_report(tmp_path, capsys):
    path = write_config(tmp_path, gamma=1.0, grid_cells=256, z_count=256)
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--output", str(out)]) == EXIT_VERIFY == 5
    captured = capsys.readouterr()
    report = VERIFY_REPORTS[1.0, 256]
    assert (out / "verify_report.txt").read_text() == report
    assert captured.out == report
    error = json.loads(captured.err)
    assert error["exit_code"] == 5
    failed = [line[:42].strip() for line in report.splitlines() if " FAIL " in line]
    assert error["error"] == "verification failed: " + ", ".join(failed)


# exit 5 is the limitation README's Verification section documents: X Linf
# fails at gamma = 0.1, 0.4 and 0.5, the L1 order at 0.1 and 16; at gamma =
# 1000, as a float and as a JSON integer, the onset tolerance's powers pass
# the largest float and its row reads INFO
@pytest.mark.parametrize("gamma, code", [(g, EXIT_VERIFY) for g in (0.1, 0.4, 0.5, 16.0)]
                         + [(g, 0) for g in (0.25, 0.75, 1.0, 2.0, 4.0, 1000.0, 1000)])
def test_verify_exit_code_on_the_block_across_gamma(tmp_path, gamma, code):
    # the block at the default sizes, grid_cells = z_count = 1024
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gamma": gamma, "datum": {"kind": "example36"}}))
    out = tmp_path / "verify"
    assert main(["verify", "--config", str(path), "--output", str(out),
                 "--quiet"]) == code
    assert_no_non_finite_token(out)


# cmd_verify's onset row has no case for a trace that cannot reach the
# threshold: whenever the law run's state and its grid's x-image can be built
# (under main's errstate; otherwise verify exits 3), its largest initial
# cell, which bounds the trace, is above TRACE_THRESHOLD
@pytest.mark.parametrize("cells", [8, 16, 64, 256, 1024, 4096, 16384])
def test_verify_law_run_starts_above_the_trace_threshold(cells):
    built = 0
    for gamma in np.geomspace(1e-4, 0.1, 400).tolist() + [1.0, 16.0, 1e3, 1e5]:
        cfg = GammaConfig(gamma=gamma)
        datum = example_block_datum(gamma)
        try:
            with np.errstate(over="raise"):
                state = conslaw.init_from_datum(
                    datum, conslaw.make_grid(datum, cfg, cells))
                state.grid.dxi_dx  # builds the x-image, raising on an underflow
        except FloatingPointError:
            continue
        assert state.sup_initial > TRACE_THRESHOLD, gamma
        built += 1
    assert built > 4


def test_simulate_maps_the_grid_edges_once():
    # init_from_datum integrates the datum over the grid's x-image and
    # assemble slices the same arrays: x_of_xi sees the edges once and the
    # centers once, in whichever condrift module calls it
    config = RunConfig.from_dict({"gamma": 1.0, "grid_cells": 256, "t_end": 1.0,
                                  "datum": {"kind": "piecewise_linear",
                                            "breakpoints": [-0.8, 0.0, 0.6],
                                            "values": [0.3, 1.0, 0.2]}})
    holders = [module for name, module in sorted(sys.modules.items())
               if name.startswith("condrift.") and hasattr(module, "x_of_xi")]
    with contextlib.ExitStack() as stack:
        maps = [stack.enter_context(mock.patch.object(module, "x_of_xi",
                                                      wraps=module.x_of_xi))
                for module in holders]
        res = simulate(config)
    arguments = [call.args[0] for map_ in maps for call in map_.call_args_list]
    grid = res.state.grid
    assert len(res.ms_series) == 5
    for points in (grid.edges, grid.centers):
        assert sum(np.array_equal(xi, points) for xi in arguments) == 1


def test_simulate_returns_the_checks_of_its_own_run():
    # simulate's result holds the diagnostics and the onset of its run,
    # as the two functions give them on its state, series, grid and datum
    config = RunConfig.from_dict({"gamma": 2.0, "grid_cells": 128, "z_count": 64,
                                  "t_end": 1.0, "datum": {
                                      "kind": "piecewise_linear",
                                      "breakpoints": [-0.8, 0.0, 0.6],
                                      "values": [0.3, 1.0, 0.2]}})
    res = simulate(config)
    state = res.state
    assert res.violations == measure.check_entropy_measure(
        res.ms_series, res.X_series, state.grid.cfg, state.sup_initial,
        datum=config.build_datum())
    assert res.onset == measure.trace_onset_time(state.trace_times, state.trace_values)
    assert math.isfinite(res.onset)


def test_readme_library_example_runs_as_written():
    # the python block under "Library example", executed as it stands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["ms"].dirac_mass == pytest.approx(0.25, abs=1e-3)


ZERO_MASS = {"datum": {"kind": "piecewise_constant", "breakpoints": [0.0, 1.0],
                       "values": [0]}}


@pytest.mark.parametrize("command, override, message", [
    ("simulate", ZERO_MASS, "zero mass"),
    ("verify", ZERO_MASS, "zero mass"),
    ("characteristics", ZERO_MASS, "zero mass"),
    # the 9 snapshots of verify's law run (to 4/gamma at cadence 0.5/gamma)
    # with 2*10^6 z-points each are past the row budget
    ("verify", {"z_count": 2 * 10**6}, "budget"),
    # the onset threshold is a constant now: a config that sets it is
    # rejected as any unknown key is
    *((command, {"trace_threshold": 0.01},
       "config error: unknown config keys: ['trace_threshold']")
      for command in ("simulate", "verify")),
], ids=["simulate", "verify", "characteristics", "verify-law-run-budget",
        "simulate-old-key", "verify-old-key"])
def test_rejected_run_leaves_no_output_directory(tmp_path, capsys, monkeypatch, command,
                                                 override, message):
    # verify checks its law run's rows before it builds any state, and
    # run_until checks the law run's cell steps before its first step
    built = count_steppers(monkeypatch)
    path = write_config(tmp_path, **override)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--output", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert message in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()
    assert built == []


# 10^7 cells puts the law run's 9 snapshots past the row budget; 60 000 is
# inside it and just past the cell-step budget (about 1.5e10 cell steps)
@pytest.mark.parametrize("cells, message, states", [
    (10**7, "law-run snapshot rows exceed the budget", 0),
    (60_000, "cell-step budget", 1),
], ids=["screened", "counted"])
def test_verify_counts_cell_steps_before_building_a_large_state(tmp_path, capsys,
                                                                monkeypatch, cells,
                                                                message, states):
    # the rows are checked before any state is built; the law run goes
    # first, and run_until counts its cell steps before its first step
    built = []
    real = conslaw.HalfLineState.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(conslaw.HalfLineState, "__post_init__", counted)
    steppers = count_steppers(monkeypatch)
    path = write_config(tmp_path, grid_cells=cells)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert message in json.loads(capsys.readouterr().err)["error"]
    assert len(built) == states and steppers == [] and not out.exists()


@pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0, 3.0, 7.0])
def test_verify_rejects_its_law_run_with_the_built_block_count(tmp_path, capsys,
                                                               monkeypatch, gamma):
    # at 60 000 cells the law run to 4/gamma is just past the cell-step
    # budget for every gamma; verify's rejection is check_cell_steps of the
    # built block state, to the digit, before any step
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    state = conslaw.init_from_datum(datum, conslaw.make_grid(datum, cfg, 60_000))
    with pytest.raises(conslaw.WorkBudgetExceeded) as expected:
        conslaw.check_cell_steps(state, 4.0 / gamma, 0.9)
    steppers = count_steppers(monkeypatch)
    path = write_config(tmp_path, gamma=gamma, grid_cells=60_000)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output", str(out),
                 "--quiet"]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().err)["error"] == f"config error: {expected.value}"
    assert steppers == [] and not out.exists()


def test_verify_budget_ignores_t_end_and_snapshot_cadence(tmp_path, capsys):
    # verify runs the block on its own times, so these simulate keys, which
    # would ask simulate for about 3.8e8 CSV rows, leave it unaffected
    path = write_config(tmp_path, t_end=50.0, snapshot_cadence=1e-4, grid_cells=64)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--output", str(out),
                 "--quiet"]) in (0, EXIT_VERIFY)
    assert (out / "verify_report.txt").exists()
    assert "budget" not in capsys.readouterr().err


def test_unexpected_exception_exits_1_with_one_json_line(tmp_path, capsys, monkeypatch):
    def broken(config, out_dir, quiet=False):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    path = write_config(tmp_path)
    assert main(["verify", "--config", str(path), "--output",
                 str(tmp_path / "out"), "--quiet"]) == EXIT_INTERNAL == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    error = json.loads(captured.err)
    assert error["exit_code"] == 1 and set(error) == {"error", "exit_code"}
    # the message names the exception and where it was raised
    assert error["error"].startswith("internal error: RuntimeError: unexpected state "
                                     "(raised at test_cli.py:")


def test_main_reuses_one_parser_with_the_output_of_fresh_calls(tmp_path):
    # the grammar is built on the first call and kept; a call after a bad
    # argv, or after another command, must print, exit and write exactly
    # what the same call does with a newly built grammar
    chars = write_config(tmp_path, t_end=0.25,
                         datum={"kind": "piecewise_linear",
                                "breakpoints": [-0.5, 0.0, 0.6],
                                "values": [0.4, 1.0, 0.4]})
    (tmp_path / "block").mkdir()
    block = write_config(tmp_path / "block", grid_cells=64)
    argvs = [["characteristics", "--config", str(chars)],
             ["characteristics", "--quiet"],
             ["verify", "--config", str(block), "--quiet"],
             ["characteristics", "--config", str(chars)]]

    def call(argv: list, out: Path) -> tuple:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv + (["--output", str(out)] if "--config" in argv else []))
            except SystemExit as exc:
                code = exc.code
        files = {f.name: f.read_bytes() for f in sorted(out.glob("*"))}
        return code, stdout.getvalue(), stderr.getvalue(), files

    cli._parser.cache_clear()
    reused = [call(argv, tmp_path / f"reused{i}") for i, argv in enumerate(argvs)]
    assert cli._parser.cache_info().misses == 1
    for i, argv in enumerate(argvs):
        cli._parser.cache_clear()
        assert call(argv, tmp_path / f"fresh{i}") == reused[i]
    assert [r[0] for r in reused] == [0, 2, 0, 0]
    assert reused[0][3] and reused[2][3] and "usage: condrift characteristics" in reused[1][2]
