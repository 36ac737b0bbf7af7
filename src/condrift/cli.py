"""Command-line front end: simulate, verify, characteristics, convert.

A run is configured by a single JSON file (flat keys plus a nested datum
table, documented in the README); every run writes its resolved
configuration next to its outputs so results are reproducible bit for bit.

Exit codes: 0 success, 2 config error (including non-finite numbers, a
zero-mass datum, a malformed measures.csv given to convert, a run past
the output budget MAX_OUTPUT_ROWS and a run past the cell-step budget
conslaw.MAX_CELL_STEPS),
3 numerical-validity error (including a NaN produced while stepping and
a coordinate map that underflows), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import conslaw, measure, oracle
from .characteristics import (
    NotSmoothRegime,
    blow_up_time,
    evaluate_smooth_grid,
    first_shock_time,
)
from .conslaw import (
    RIGHT,
    SIGNS,
    CflViolation,
    SupportOverflow,
    WorkBudgetExceeded,
    init_from_datum,
    make_grid,
    run_until,
)
from .datum import (
    DisconnectedSupport,
    InitialDatum,
    example_block_datum,
    piecewise_constant,
    piecewise_linear,
)
from .frames import GammaConfig

SIDES = ("left", "right")  # file-name suffix of each row
SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
TRACE_THRESHOLD = 1e-2
MAX_OUTPUT_ROWS = 10_000_000  # CSV rows of one run, about 550 MB


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run parameters. ``datum`` is a dict tagged by ``kind``."""

    gamma: float
    datum: dict
    dim: int = 1
    grid_cells: int = 1024
    cfl: float = 0.9
    t_end: float = 1.0
    snapshot_cadence: float = 0.25
    z_count: int = 1024
    frame: str = "driftfree"
    output_dir: str = "out"
    trace_threshold: float = TRACE_THRESHOLD

    def __post_init__(self):
        for name in ("gamma", "cfl", "t_end", "snapshot_cadence", "trace_threshold"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number")
        for name in ("dim", "grid_cells", "z_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer")
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.grid_cells < 8:
            raise ConfigError("grid_cells must be >= 8")
        if not 0 < self.cfl <= 1:
            raise ConfigError("cfl must be in (0, 1]")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if self.snapshot_cadence <= 0:
            raise ConfigError("snapshot_cadence must be positive")
        if self.z_count < 16:
            raise ConfigError("z_count must be >= 16")
        rows = ((self.t_end / self.snapshot_cadence + 2)
                * (2 * self.grid_cells + self.z_count))
        if rows > MAX_OUTPUT_ROWS:
            raise ConfigError(f"about {rows:.3g} output rows exceed the budget "
                              f"of {MAX_OUTPUT_ROWS}; raise snapshot_cadence "
                              f"or lower grid_cells or z_count")
        if self.frame not in ("driftfree", "original"):
            raise ConfigError("frame must be 'driftfree' or 'original'")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")
        if not isinstance(self.datum, dict) or "kind" not in self.datum:
            raise ConfigError("datum must be a table with a 'kind' key")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)

    def build_datum(self) -> InitialDatum:
        kind = self.datum["kind"]
        if kind not in ("example36", "piecewise_constant", "piecewise_linear"):
            raise ConfigError(f"unknown datum kind {kind!r}")
        try:
            if kind == "example36":
                datum = example_block_datum(self.gamma)
            elif kind == "piecewise_constant":
                datum = piecewise_constant(self.datum["breakpoints"], self.datum["values"])
            else:
                datum = piecewise_linear(self.datum["breakpoints"], self.datum["values"])
        except DisconnectedSupport:
            raise
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid datum table: {exc}") from exc
        if not datum.mass > 0:
            raise ConfigError("datum has zero mass")
        return datum

    def gamma_config(self) -> GammaConfig:
        return GammaConfig(gamma=self.gamma, dim=self.dim)


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict(raw)


def write_csv(path: Path, header: list, rows) -> None:
    """Write a float table, every value as %.17g so that it reads back to
    the same float. ``rows`` is a 2-D array or any iterable of equal-length
    rows; the whole table is formatted by one % operation."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    path.write_text(",".join(header) + "\n"
                    + (line * len(table)) % tuple(table.ravel().tolist()))


def write_blocks(path: Path, header: list, blocks) -> None:
    """Write blocks ``(t, column, values)`` as rows ``t, column[i],
    values[i]``, every value as %.17g, one block at a time; ``column``
    and ``values`` are float arrays of one length. Each distinct
    ``column`` (by its bytes, so -0.0 stays apart from 0.0) is formatted
    once, and each block by one % operation."""
    tails: dict = {}
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for t, column, values in blocks:
            key = column.tobytes()
            if key not in tails:
                tails[key] = [""] + [",%.17g,%%.17g\n" % c for c in column.tolist()]
            block = ("%.17g" % t).join(tails[key])
            out.write(block % tuple(values.tolist()))


def write_snapshot_csv(path: Path, snapshots, row: int) -> None:
    """One row's snapshot rows: t, xi_center, u (signed original xi); the
    snapshots of one run share its grid."""
    centers = SIGNS[row] * snapshots[0].grid.centers
    write_blocks(path, ["t", "xi_center", "u"],
                 ((snap.time, centers, snap.cells[row]) for snap in snapshots))


def write_measure_csv(path: Path, ms_series) -> None:
    rows = [
        (ms.time, ms.dirac_mass, ms.ac_mass, ms.support[0], ms.support[1],
         measure.wasserstein_to_dirac(ms, 1.0))
        for ms in ms_series
    ]
    write_csv(path, ["t", "dirac_mass", "ac_mass", "support_lo", "support_hi",
                     "w1_to_dirac"], rows)


def write_pseudoinverse_csv(path: Path, ms_series, ps_series) -> None:
    write_blocks(path, ["t", "z", "X"],
                 ((ms.time, ps.z_grid, ps.x_values)
                  for ms, ps in zip(ms_series, ps_series)))


def write_original_frame_csv(path: Path, series) -> None:
    rows = [
        (s.tau, s.t_driftfree, s.dirac_mass, s.support_lo, s.support_hi,
         s.diameter, s.w1)
        for s in series
    ]
    write_csv(path, ["tau", "t_driftfree", "dirac_mass", "support_lo",
                     "support_hi", "support_diameter", "w1_to_dirac"], rows)


@dataclass
class SimulationResult:
    """Everything cmd_simulate needs to write its artifacts."""

    state: conslaw.HalfLineState
    snapshots: list
    ms_series: list
    ps_series: list
    datum: InitialDatum


def simulate(config: RunConfig) -> SimulationResult:
    """Run the half-line solver and assemble measure snapshots."""
    if config.dim != 1:
        raise ConfigError("simulate requires dim = 1")
    cfg = config.gamma_config()
    datum = config.build_datum()
    grid = make_grid(datum, cfg, config.grid_cells)
    state = init_from_datum(datum, grid, cfg)
    snapshots: list = []
    run_until(state, config.t_end, config.cfl, cfg,
              observer=snapshots.append, cadence=config.snapshot_cadence)
    ms_series = [measure.assemble(snap, cfg) for snap in snapshots]
    ps_series = [measure.pseudo_inverse(ms, config.z_count) for ms in ms_series]
    return SimulationResult(state, snapshots, ms_series, ps_series, datum)


def cmd_simulate(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    res = simulate(config)
    ms_series, ps_series = res.ms_series, res.ps_series
    cfg = config.gamma_config()

    (out_dir / "resolved_config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    for row, side in enumerate(SIDES):
        write_snapshot_csv(out_dir / f"snapshots_{side}.csv", res.snapshots, row)
    _write_trace_ledger(out_dir, res.state, cfg)
    write_measure_csv(out_dir / "measures.csv", ms_series)
    write_pseudoinverse_csv(out_dir / "pseudoinverse.csv", ms_series, ps_series)
    if config.frame == "original":
        series = measure.original_frame_series(ms_series, cfg)
        write_original_frame_csv(out_dir / "original_frame.csv", series)

    report = measure.check_entropy_measure(ms_series, ps_series, cfg,
                                           datum=res.datum)
    onset = min(measure.trace_onset_time(res.state, config.trace_threshold))
    summary = {
        "version": SCHEMA_VERSION,
        "gamma": config.gamma,
        "dim": config.dim,
        "grid": {"cells": config.grid_cells,
                 "dxi": res.state.grid.cell_width,
                 "extent": res.state.grid.extent},
        "t_end": config.t_end,
        "t_star_trace": None if math.isinf(onset) else onset,
        "final_dirac_fraction": ms_series[-1].dirac_mass
        / max(ms_series[-1].total_mass, 1e-300),
        "total_mass": ms_series[-1].total_mass,
        "violation_counts": report.counts(),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"simulated to t={config.t_end}: condensed fraction "
              f"{summary['final_dirac_fraction']:.4f}, "
              f"violations {sum(report.counts().values())}")
    return EXIT_OK


def _write_trace_ledger(out_dir: Path, state: conslaw.HalfLineState,
                        cfg: GammaConfig) -> None:
    """ledger_<side>.csv: t, trace_u0, outflux_cumulative, one row per
    recorded step; both files share the time column."""
    times = np.asarray(state.trace_times)
    values = np.asarray(state.trace_values)
    fluxes = conslaw.godunov_flux(values, cfg)
    # left-endpoint quadrature matches the explicit stepping exactly
    increments = np.concatenate([np.zeros((1, 2)),
                                 fluxes[:-1] * np.diff(times)[:, None]])
    cumulative = np.cumsum(increments, axis=0)
    for row, side in enumerate(SIDES):
        write_csv(out_dir / f"ledger_{side}.csv",
                  ["t", "trace_u0", "outflux_cumulative"],
                  zip(times, values[:, row], cumulative[:, row]))


def cmd_verify(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Oracle-comparison suite; prints a pass/fail table with measured numbers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    g = config.gamma
    cfg = GammaConfig(gamma=g, dim=1)
    rows = []

    def add(name, status, value, target):
        rows.append((name, status, value, target))

    # convergence against the explicit conservation-law profile
    spec = oracle.ExplicitSolutionSpec(gamma=g, mass_convention="unit_height")
    t_probe = 0.5 / g
    sizes = [max(64, config.grid_cells // 4), max(128, config.grid_cells // 2),
             max(256, config.grid_cells)]
    errors = []
    for n in sizes:
        datum = example_block_datum(g)
        grid = make_grid(datum, cfg, n)
        state = init_from_datum(datum, grid, cfg)
        run_until(state, t_probe, config.cfl, cfg)
        exact = oracle.u_explicit(grid.centers, t_probe, spec)
        errors.append(float(np.sum(np.abs(state.cells[RIGHT] - exact)) * grid.cell_width))
    order = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0] * -1)
    informational = config.grid_cells < 256
    add("L1 convergence order vs explicit u",
        "INFO" if informational else ("PASS" if order >= 0.8 else "FAIL"),
        f"{order:.3f}", ">= 0.8")

    # one run to 4/gamma serves the onset and the condensed-mass law
    law_cfg = RunConfig(gamma=g, datum={"kind": "example36"},
                        grid_cells=config.grid_cells, cfl=config.cfl,
                        t_end=4.0 / g, snapshot_cadence=0.5 / g,
                        z_count=config.z_count)
    law_res = simulate(law_cfg)
    ms2, ps2 = law_res.ms_series, law_res.ps_series

    # trace onset vs 1/gamma
    onset = measure.trace_onset_time(law_res.state, config.trace_threshold)[RIGHT]
    tol = 5.0 * trace_time_tolerance(g, law_res.state.grid.cell_width,
                                     config.trace_threshold)
    status = "PASS" if abs(onset - 1.0 / g) <= tol else "FAIL"
    add("trace onset time vs 1/gamma", status,
        f"{onset:.5f}", f"{1.0 / g:.5f} +/- {tol:.2g}")

    # condensed-mass law on [1.5/gamma, 4/gamma]
    worst = 0.0
    for ms in ms2:
        if ms.time >= 1.5 / g:
            target = oracle.mass_explicit(ms.time, spec)
            worst = max(worst, abs(ms.dirac_mass - target) / target)
    status = "INFO" if informational else ("PASS" if worst <= 0.01 else "FAIL")
    add("condensed-mass law rel error", status, f"{worst:.4f}", "<= 0.01")

    # pseudo-inverse against the explicit rearrangement (unit datum)
    unit_cfg = RunConfig(gamma=g, datum={"kind": "piecewise_constant",
                                         "breakpoints": [0.0, 1.0],
                                         "values": [1.0]},
                         grid_cells=config.grid_cells, cfl=config.cfl,
                         t_end=2.0 / g, snapshot_cadence=2.0 / g,
                         z_count=config.z_count)
    unit_res = simulate(unit_cfg)
    unit_spec = oracle.ExplicitSolutionSpec(gamma=g, mass_convention="unit_mass")
    ps_last = unit_res.ps_series[-1]
    exact_X = oracle.X_explicit(ps_last.z_grid, unit_res.ms_series[-1].time, unit_spec)
    linf = float(np.max(np.abs(ps_last.x_values - exact_X)))
    status = "INFO" if informational else ("PASS" if linf <= 1e-2 else "FAIL")
    add("pseudo-inverse Linf vs explicit X", status, f"{linf:.2e}", "<= 1e-2")

    # structural diagnostics on the run
    report = measure.check_entropy_measure(ms2, ps2, cfg, datum=law_res.datum)
    n_viols = sum(report.counts().values())
    add("entropy-measure diagnostics", "PASS" if n_viols == 0 else "FAIL",
        f"{n_viols} violations", "0")

    lines = [f"{'check':<42} {'status':<6} {'measured':<18} target"]
    for name, status, value, target in rows:
        lines.append(f"{name:<42} {status:<6} {value:<18} {target}")
    table = "\n".join(lines)
    (out_dir / "verify_report.txt").write_text(table + "\n")
    if not quiet:
        print(table)
    return EXIT_OK


def trace_time_tolerance(gamma: float, dxi: float, threshold: float) -> float:
    """Onset-detection resolution of a grid with spacing dxi, as a time.

    Before onset the boundary cell reads the compressing profile, not zero:
    its exact average reaches the detection threshold tau already at
    1/gamma - t = dxi * gamma^gamma * ((1+gamma)*tau)^(-gamma), and the
    level-tau value sits one cell from the boundary at
    1/gamma - t = dxi * tau^(-gamma).  The sum of the two is the sharpest
    time scale at which a threshold detector on this grid can place the
    onset; it vanishes under grid refinement.  For small thresholds and
    gamma > 1 it can exceed 1/gamma itself, which correctly signals that
    the onset is unresolvable at that threshold and resolution.
    """
    return dxi * (gamma**gamma * ((1.0 + gamma) * threshold) ** (-gamma)
                  + threshold ** (-gamma))


def cmd_characteristics(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Smooth-regime evaluation on a grid plus blow-up/shock report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = config.gamma_config()
    datum = config.build_datum()
    t_star = blow_up_time(datum, cfg)
    shock = first_shock_time(datum, cfg) if cfg.dim == 1 else math.inf
    horizon = min(t_star, shock)
    if config.t_end >= horizon:
        raise NotSmoothRegime(
            f"t_end={config.t_end} is past the smooth horizon {horizon}")
    xs = np.linspace(datum.a, datum.b, config.grid_cells)
    times = np.arange(0.0, config.t_end + 1e-12, config.snapshot_cadence)
    if times[-1] < config.t_end:
        times = np.append(times, config.t_end)
    rho = [evaluate_smooth_grid(xs, float(t), datum, cfg, horizon=horizon)
           for t in times]
    write_blocks(out_dir / "characteristics.csv", ["t", "x", "rho"],
                 ((t, xs, r) for t, r in zip(times, rho)))
    report = {
        "version": SCHEMA_VERSION,
        "gamma": config.gamma,
        "dim": config.dim,
        "t_star_smooth": t_star,
        "first_shock_time": None if math.isinf(shock) else shock,
        "t_end": config.t_end,
    }
    (out_dir / "characteristics_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"smooth solution written; t_star_smooth={t_star:.6g}, "
              f"first_shock={'none before blow-up' if math.isinf(shock) else shock}")
    return EXIT_OK


def cmd_convert(input_dir: Path, out_dir: Path, quiet: bool = False) -> int:
    """Re-express an existing run's measure series in the original frame."""
    config = load_config(str(input_dir / "resolved_config.json"))
    cfg = config.gamma_config()
    series = []
    text = (input_dir / "measures.csv").read_text().strip().splitlines()
    for line in text[1:]:
        try:
            t, dirac, ac, lo, hi, w1 = (float(v) for v in line.split(","))
        except ValueError as exc:
            raise ConfigError(f"malformed measures.csv row {line!r}: {exc}") from exc
        series.append(measure.to_original_frame(t, dirac, dirac + ac, (lo, hi), w1, cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_original_frame_csv(out_dir / "original_frame.csv", series)
    if not quiet:
        print(f"converted {len(series)} snapshots to the original frame")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="condrift",
        description="Finite-volume condensation dynamics in one dimension")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "verify", "characteristics"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--output", default=None, help="output directory")
    p = sub.add_parser("convert", parents=[common])
    p.add_argument("--input", required=True, help="existing run directory")
    p.add_argument("--output", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "convert":
            return cmd_convert(Path(args.input), Path(args.output), args.quiet)
        config = load_config(args.config)
        out_dir = Path(args.output) if args.output else Path(config.output_dir)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, args.quiet)
        if args.command == "verify":
            return cmd_verify(config, out_dir, args.quiet)
        return cmd_characteristics(config, out_dir, args.quiet)
    except (ConfigError, WorkBudgetExceeded) as exc:
        _fail(f"config error: {exc}", EXIT_CONFIG)
        return EXIT_CONFIG
    except (SupportOverflow, NotSmoothRegime, CflViolation,
            DisconnectedSupport, FloatingPointError) as exc:
        _fail(f"numerical validity error: {exc}", EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except OSError as exc:
        _fail(f"i/o error: {exc}", EXIT_IO)
        return EXIT_IO


def _fail(message: str, code: int) -> None:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
