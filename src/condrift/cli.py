"""Command-line front end: simulate, verify, characteristics, convert.

A run is configured by a single JSON file (flat keys plus a nested datum
table, documented in the README); ``simulate`` writes its resolved
configuration next to its outputs so results are reproducible bit for bit.
``simulate()`` checks its run once: both commands that run the solver
read the diagnostics and the trace onset off its result.

Exit codes: 0 success, 1 internal error (any other exception), 2 config
error (including a config whose bytes do not decode, that nests past the
recursion limit or holds an integer past Python's digit limit,
non-finite numbers, a number past the float range, a datum key its kind
does not read, a zero-mass datum, a radial datum with a breakpoint below
0, a convert input with dim other than 1, with a measures.csv that is
not ASCII, lacks its header or has no row, or with a row that is not six
finite numbers with t >= 0, a run past the row budget MAX_OUTPUT_ROWS,
its ledger rows included, and a run past the cell-step budget
conslaw.MAX_CELL_STEPS), 3
numerical-validity error (including a NaN produced while stepping, a
coordinate map that underflows and a float overflow anywhere), 4 I/O
error, 5 verification failed (a verify row reads FAIL; the report is
written first).  Every error is one JSON line on stderr, never a
traceback.
"""

from __future__ import annotations

import argparse
import collections
import functools
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
from .datum import DisconnectedSupport, InitialDatum, example_block_datum
from .frames import GammaConfig
from .output import write_blocks, write_csv, write_json

SIDES = ("left", "right")  # file-name suffix of each row
SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_VERIFY = 5
MAX_OUTPUT_ROWS = 10_000_000  # CSV rows of one run, about 550 MB
# config datum kinds that are breakpoint tables, and their InitialDatum kind
PIECEWISE_KINDS = {"piecewise_constant": "constant", "piecewise_linear": "linear"}
# the keys each config datum kind reads
DATUM_KEYS = {"example36": {"kind"},
              **{kind: {"kind", "breakpoints", "values"} for kind in PIECEWISE_KINDS}}


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

    def __post_init__(self):
        for name in ("gamma", "cfl", "t_end", "snapshot_cadence"):
            value = getattr(self, name)
            if not _is_real(value) or not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{name} must be a finite number")
        for name in ("dim", "grid_cells", "z_count"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{name} must be an integer in the float range")
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

    def check_output_budget(self, rows_per_time: float, sizes: str) -> None:
        """simulate and characteristics: the CSV rows the run writes, at
        most t_end / snapshot_cadence + 2 output times of ``rows_per_time``,
        which the config keys ``sizes`` set."""
        rows = (self.t_end / self.snapshot_cadence + 2) * rows_per_time
        _check_rows(rows, "output", f"raise snapshot_cadence or lower {sizes}")

    def build_datum(self) -> InitialDatum:
        kind = self.datum["kind"]
        if not isinstance(kind, str) or kind not in DATUM_KEYS:
            raise ConfigError(f"unknown datum kind {kind!r}")
        unknown = set(self.datum) - DATUM_KEYS[kind]
        if unknown:
            raise ConfigError(f"unknown datum keys {sorted(unknown)} for kind "
                              f"{kind!r}")
        if kind == "example36":
            return example_block_datum(self.gamma)
        for key in ("breakpoints", "values"):
            column = self.datum.get(key)
            if not isinstance(column, list) or not all(map(_is_real, column)):
                raise ConfigError(f"invalid datum table: {key} must be a flat "
                                  f"list of numbers")
        try:
            datum = InitialDatum(PIECEWISE_KINDS[kind], self.datum["breakpoints"],
                                 self.datum["values"])
        except DisconnectedSupport:
            raise
        except ValueError as exc:
            raise ConfigError(f"invalid datum table: {exc}") from exc
        if not datum.mass > 0:
            raise ConfigError("datum has zero mass")
        if self.dim >= 2 and datum.a < 0:
            raise ConfigError("a radial datum (dim >= 2) needs breakpoints >= 0: "
                              "its coordinate is the radius")
        return datum

    def gamma_config(self) -> GammaConfig:
        return GammaConfig(gamma=self.gamma, dim=self.dim)


def _check_rows(rows: float, what: str, remedy: str) -> None:
    """``rows`` is a float, which saturates at inf where the sizes overflow."""
    if rows > MAX_OUTPUT_ROWS:
        raise ConfigError(f"about {rows:.3g} {what} rows exceed the budget of "
                          f"{MAX_OUTPUT_ROWS}; {remedy}")


def _is_real(value) -> bool:
    """A real number that is not a bool (JSON true and false parse as bools)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_bytes())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict(raw)


@dataclass
class SimulationResult:
    """A checked run: everything cmd_simulate writes and cmd_verify reads."""

    state: conslaw.HalfLineState
    snapshots: list
    ms_series: list
    z: np.ndarray  # the z-grid of every pseudo-inverse in X_series
    X_series: list
    violations: list  # measure.check_entropy_measure's, against the datum
    onset: float  # measure.trace_onset_time's, inf when the trace stays low


def simulate(config: RunConfig) -> SimulationResult:
    """Run the half-line solver, assemble measure snapshots, check them."""
    if config.dim != 1:
        raise ConfigError("simulate requires dim = 1")
    datum = config.build_datum()
    grid = make_grid(datum, config.gamma_config(), config.grid_cells)
    state = init_from_datum(datum, grid)
    # each ledger file: a row for the start and one per step, which are at
    # most the uncapped steps and the step that lands on t_end
    steps = conslaw.check_cell_steps(state, config.t_end, config.cfl)
    _check_rows(2.0 * (steps + 2), "ledger", "lower t_end or grid_cells, or raise cfl")
    snapshots: list = []
    run_until(state, config.t_end, config.cfl,
              observer=snapshots.append, cadence=config.snapshot_cadence)
    ms_series = [measure.assemble(snap) for snap in snapshots]
    z = measure.z_grid(ms_series[0], config.z_count)
    X_series = [measure.pseudo_inverse(ms, z) for ms in ms_series]
    violations = measure.check_entropy_measure(ms_series, X_series, grid.cfg,
                                               state.sup_initial, datum=datum)
    onset = measure.trace_onset_time(state.trace_times, state.trace_values)
    return SimulationResult(state, snapshots, ms_series, z, X_series,
                            violations, onset)


def cmd_simulate(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Run, then write the artifacts; every one is computed before the
    output directory is made, so a run that fails leaves none."""
    # per output time: a snapshot block per row and a pseudo-inverse block
    config.check_output_budget(2.0 * config.grid_cells + config.z_count,
                               "grid_cells or z_count")
    res = simulate(config)
    ms_series = res.ms_series
    state = res.state
    rows = measure.measure_rows(ms_series)
    frame_rows = (measure.original_frame_series(rows, config.gamma)
                  if config.frame == "original" else None)
    summary = {
        "version": SCHEMA_VERSION,
        "gamma": config.gamma,
        "dim": config.dim,
        "grid": {"cells": config.grid_cells,
                 "dxi": state.grid.cell_width,
                 "extent": state.grid.extent},
        "t_end": config.t_end,
        "t_star_trace": None if math.isinf(res.onset) else res.onset,
        "final_dirac_fraction": ms_series[-1].dirac_mass
        / max(ms_series[-1].total_mass, 1e-300),
        "total_mass": ms_series[-1].total_mass,
        "violation_counts": collections.Counter(v.kind for v in res.violations),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "resolved_config.json", config.to_dict())
    for row, side in enumerate(SIDES):
        # snapshots_<side>.csv: t, xi_center, u (signed original xi)
        write_blocks(out_dir / f"snapshots_{side}.csv", ["t", "xi_center", "u"],
                     SIGNS[row] * state.grid.centers,
                     ((snap.time, snap.cells[row]) for snap in res.snapshots))
        # ledger_<side>.csv: the solver's ledger after each step
        write_csv(out_dir / f"ledger_{side}.csv", ["t", "trace_u0", "outflux_cumulative"],
                  np.column_stack([state.trace_times, state.trace_values[:, row],
                                   state.ledger_history[:, row]]))
    write_csv(out_dir / "measures.csv", measure.MEASURE_COLUMNS, rows)
    write_blocks(out_dir / "pseudoinverse.csv", ["t", "z", "X"], res.z,
                 ((ms.time, X) for ms, X in zip(ms_series, res.X_series)))
    if frame_rows is not None:
        write_csv(out_dir / "original_frame.csv", measure.ORIGINAL_FRAME_COLUMNS,
                  frame_rows)
    write_json(out_dir / "summary.json", summary)
    if not quiet:
        print(f"simulated to t={config.t_end}: condensed fraction "
              f"{summary['final_dirac_fraction']:.4f}, "
              f"violations {len(res.violations)}")
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Oracle-comparison suite; prints a pass/fail table with measured numbers
    and returns EXIT_VERIFY, after writing the table, when a row reads FAIL.

    The suite runs on the block; the configured datum is only validated.
    It makes three solver runs when grid_cells is a convergence size (as
    it is from 256 on): one to 0.5/gamma for each other size, and the law
    run to 4/gamma, whose gamma the others take from its grid. The law
    run's result gives the onset and the diagnostics, which ``simulate``
    computes, the mass law, the convergence size grid_cells from its
    snapshot at 0.5/gamma, and the pseudo-inverse row from its snapshot
    at 2/gamma, read in the unit-mass scale through the exact dilation of
    the block onto the unit-mass block on [0, 1]. The law run's snapshot
    rows are checked first, before any state is built; then the law run
    goes first, so its own cell-step and ledger checks (``simulate``'s)
    reject it before its first step and before any other run.
    """
    if config.dim != 1:
        raise ConfigError("verify requires dim = 1")
    config.build_datum()
    g = config.gamma

    # one run to 4/gamma serves every row but the smaller convergence
    # sizes; its snapshot at a time t equals a run that lands on t, to
    # rounding. Its snapshots and their pseudo-inverses stay in memory.
    law_cfg = RunConfig(gamma=g, datum={"kind": "example36"},
                        grid_cells=config.grid_cells, cfl=config.cfl,
                        t_end=4.0 / g, snapshot_cadence=0.5 / g,
                        z_count=config.z_count)
    # the times of the law run's snapshots, element for element
    law_times = conslaw.output_times(0.0, law_cfg.t_end, law_cfg.snapshot_cadence)
    _check_rows(len(law_times) * (2.0 * config.grid_cells + config.z_count),
                "law-run snapshot", "lower grid_cells or z_count")
    law_res = simulate(law_cfg)
    ms2 = law_res.ms_series

    # convergence against the explicit conservation-law profile; the size
    # equal to grid_cells is read off the law run
    t_probe = 0.5 / g
    sizes = [max(64, config.grid_cells // 4), max(128, config.grid_cells // 2),
             max(256, config.grid_cells)]

    def l1_error(snap: conslaw.Snapshot) -> float:
        exact = oracle.u_explicit(snap.grid.centers, t_probe, g)
        return float(np.sum(np.abs(snap.cells[RIGHT] - exact)) * snap.grid.cell_width)

    datum = example_block_datum(g)
    errors = {}
    for n in sizes:
        if n == config.grid_cells:
            snap = law_res.snapshots[np.argmin(abs(law_times - t_probe))]
        else:
            grid = make_grid(datum, law_res.state.grid.cfg, n)
            snap = run_until(init_from_datum(datum, grid), t_probe, config.cfl)
        errors[n] = l1_error(snap)
    order = float(np.polyfit(np.log(sizes), np.log([errors[n] for n in sizes]),
                             1)[0] * -1)
    informational = config.grid_cells < 256
    rows = [("L1 convergence order vs explicit u",
             "INFO" if informational else ("PASS" if order >= 0.8 else "FAIL"),
             f"{order:.3f}", ">= 0.8")]

    # trace onset vs 1/gamma; a tolerance of 1/gamma or more passes every
    # onset in [0, 1/gamma], and one past the largest float reads as a bound
    onset = law_res.onset
    tol = 5.0 * trace_time_tolerance(g, law_res.state.grid.cell_width)
    status = ("INFO" if tol >= 1.0 / g
              else "PASS" if abs(onset - 1.0 / g) <= tol else "FAIL")
    rows.append(("trace onset time vs 1/gamma", status,
                 "none" if math.isinf(onset) else f"{onset:.5f}",
                 f"{1.0 / g:.5f} +/- " + (f"{tol:.2g}" if math.isfinite(tol)
                                          else f">{sys.float_info.max:.2g}")))

    # condensed-mass law on [1.5/gamma, 4/gamma]
    worst = 0.0
    for ms in ms2:
        if ms.time >= 1.5 / g:
            target = oracle.mass_explicit(ms.time, g)
            worst = max(worst, abs(ms.dirac_mass - target) / target)
    status = "INFO" if informational else ("PASS" if worst <= 0.01 else "FAIL")
    rows.append(("condensed-mass law rel error", status, f"{worst:.4f}", "<= 0.01"))

    # pseudo-inverse against the explicit rearrangement at 2/gamma, in the
    # unit-mass scale: that block is an exact dilation of this one, with X
    # scaled by 1+gamma
    k = np.argmin(abs(law_times - 2.0 / g))
    exact_X = oracle.X_explicit(law_res.z, ms2[k].time, g)
    linf = (1.0 + g) * float(np.max(np.abs(law_res.X_series[k] - exact_X)))
    status = "INFO" if informational else ("PASS" if linf <= 1e-2 else "FAIL")
    rows.append(("pseudo-inverse Linf vs explicit X", status, f"{linf:.2e}", "<= 1e-2"))

    # structural diagnostics on the law run
    n_viols = len(law_res.violations)
    rows.append(("entropy-measure diagnostics", "PASS" if n_viols == 0 else "FAIL",
                 f"{n_viols} violations", "0"))

    lines = [f"{'check':<42} {'status':<6} {'measured':<18} target"]
    for name, status, value, target in rows:
        lines.append(f"{name:<42} {status:<6} {value:<18} {target}")
    table = "\n".join(lines)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verify_report.txt").write_text(table + "\n")
    if not quiet:
        print(table)
    failed = [name for name, status, _, _ in rows if status == "FAIL"]
    if failed:
        _fail(f"verification failed: {', '.join(failed)}", EXIT_VERIFY)
        return EXIT_VERIFY
    return EXIT_OK


def trace_time_tolerance(gamma: float, dxi: float) -> float:
    """Onset-detection resolution of a grid with spacing dxi, as a time.

    Before onset the boundary cell reads the compressing profile, not zero:
    its exact average reaches the detection threshold tau
    (measure.TRACE_THRESHOLD) already at
    1/gamma - t = dxi * gamma^gamma * ((1+gamma)*tau)^(-gamma), and the
    level-tau value sits one cell from the boundary at
    1/gamma - t = dxi * tau^(-gamma).  The sum of the two is the sharpest
    time scale at which a threshold detector on this grid can place the
    onset; it vanishes under grid refinement.  For gamma > 1 it can exceed
    1/gamma itself, which correctly signals that the onset is unresolvable
    at that resolution.  Where a power passes the largest float (from
    gamma near 144) it is inf.
    """
    tau = measure.TRACE_THRESHOLD
    # in floats: a JSON integer gamma would take gamma**gamma exactly
    gamma = float(gamma)
    try:
        return dxi * (gamma**gamma * ((1.0 + gamma) * tau) ** (-gamma)
                      + tau ** (-gamma))
    except OverflowError:
        return math.inf


def cmd_characteristics(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Smooth-regime evaluation on a grid plus blow-up/shock report."""
    config.check_output_budget(config.grid_cells, "grid_cells")
    cfg = config.gamma_config()
    datum = config.build_datum()
    t_star = blow_up_time(datum, cfg)
    shock = first_shock_time(datum, cfg)
    xs = np.linspace(datum.a, datum.b, config.grid_cells)
    # the output times of simulate's run, from 0
    times = conslaw.output_times(0.0, config.t_end, config.snapshot_cadence)
    # raises NotSmoothRegime if a time is at or past the smooth horizon
    rho = evaluate_smooth_grid(xs, times, datum, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_blocks(out_dir / "characteristics.csv", ["t", "x", "rho"], xs,
                 zip(times, rho))
    report = {
        "version": SCHEMA_VERSION,
        "gamma": config.gamma,
        "dim": config.dim,
        "t_star_smooth": t_star,
        "first_shock_time": None if math.isinf(shock) else shock,
        "t_end": config.t_end,
    }
    write_json(out_dir / "characteristics_report.json", report)
    if not quiet:
        print(f"smooth solution written; t_star_smooth={t_star:.6g}, "
              f"first_shock={'none before blow-up' if math.isinf(shock) else shock}")
    return EXIT_OK


def cmd_convert(input_dir: Path, out_dir: Path, quiet: bool = False) -> int:
    """Re-express an existing run's measure series in the original frame."""
    config = load_config(str(input_dir / "resolved_config.json"))
    if config.dim != 1:
        raise ConfigError("convert requires dim = 1")
    width = len(measure.MEASURE_COLUMNS)
    rows = []
    try:
        text = (input_dir / "measures.csv").read_bytes().decode("ascii")
    except ValueError as exc:
        raise ConfigError(f"measures.csv is not ASCII: {exc}") from exc
    text = text.strip().splitlines()
    header = ",".join(measure.MEASURE_COLUMNS)
    if len(text) < 2 or text[0] != header:
        raise ConfigError(f"measures.csv needs the header {header!r} and at "
                          f"least one row")
    for line in text[1:]:
        try:
            row = tuple(map(float, line.split(",")))
        except ValueError:
            row = ()
        if len(row) != width or not all(map(math.isfinite, row)) or row[0] < 0:
            raise ConfigError(f"malformed measures.csv row {line!r}: need "
                              f"{width} finite numbers, t >= 0")
        rows.append(row)
    frame_rows = measure.original_frame_series(rows, config.gamma)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "original_frame.csv", measure.ORIGINAL_FRAME_COLUMNS, frame_rows)
    if not quiet:
        print(f"converted {len(rows)} snapshots to the original frame")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line grammar, built on the first call to :func:`main`
    (not at import) and reused by every later call in the process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a float overflow anywhere raises FloatingPointError: exit 3
    try:
        with np.errstate(over="raise"):
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
            DisconnectedSupport, FloatingPointError, OverflowError) as exc:
        _fail(f"numerical validity error: {exc}", EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except OSError as exc:
        _fail(f"i/o error: {exc}", EXIT_IO)
        return EXIT_IO
    except Exception as exc:  # last resort: a JSON line, not a traceback
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the frame that raised
            tb = tb.tb_next
        _fail(f"internal error: {type(exc).__name__}: {exc} (raised at "
              f"{Path(tb.tb_frame.f_code.co_filename).name}:{tb.tb_lineno})",
              EXIT_INTERNAL)
        return EXIT_INTERNAL


def _fail(message: str, code: int) -> None:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
