"""Command-line front end: simulate, verify, characteristics, convert.

A run is configured by a single JSON file (flat keys plus a nested datum
table, documented in the README); every run writes its resolved
configuration next to its outputs so results are reproducible bit for bit.

Exit codes: 0 success, 1 internal error (any other exception), 2 config
error (including non-finite numbers, a datum key its kind does not read,
a trace_threshold that is not positive, a zero-mass datum, a radial
datum with a breakpoint below 0, a convert input with dim other than 1,
with a measures.csv that lacks its header or has no row, or with a row
that is not six finite numbers with t >= 0, a run past the row budget
MAX_OUTPUT_ROWS and a run past the cell-step budget
conslaw.MAX_CELL_STEPS), 3 numerical-validity error (including a
NaN produced while stepping, a coordinate map that underflows and a
float overflow anywhere), 4 I/O error, 5 verification failed (a verify
row reads FAIL; the report is written first).  Every error is one JSON
line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

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

SIDES = ("left", "right")  # file-name suffix of each row
SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_VERIFY = 5
TRACE_THRESHOLD = 1e-2
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
    trace_threshold: float = TRACE_THRESHOLD

    def __post_init__(self):
        for name in ("gamma", "cfl", "t_end", "snapshot_cadence", "trace_threshold"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
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
        if self.trace_threshold <= 0:
            raise ConfigError("trace_threshold must be positive")
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

    def check_output_budget(self, rows_per_time: int, sizes: str) -> None:
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
    if rows > MAX_OUTPUT_ROWS:
        raise ConfigError(f"about {rows:.3g} {what} rows exceed the budget of "
                          f"{MAX_OUTPUT_ROWS}; {remedy}")


def _is_real(value) -> bool:
    """A real number that is not a bool (JSON true and false parse as bools)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


FORMAT_BATCH = 1 << 13  # values per numpy pass of format_floats and per write
_U64 = np.uint64


def _byte_words(chars) -> np.ndarray:
    """Rows of 24 bytes as three rows of native uint64 words: entry [w, i]
    is bytes 8w to 8w + 7 of row i, the first byte in the low bits."""
    words = np.asarray(chars, dtype=np.uint8).reshape(-1, 24).view("<u8")
    return np.ascontiguousarray(words.astype(np.uint64).T)


@functools.cache
def _tables() -> SimpleNamespace:
    """format_floats' tables, built on its first call: 5^s and 10^s by
    s = 16 - k; by j + 4, the smallest double at or above 10^j (1 / 10^-j
    lies above 10^j); by a four-digit group g, its ASCII digits and, at g's
    place p in the 17 digits, how many of them run to the last nonzero one
    (0 for g = 0); byte masks of the 17-digit string, by w: its first w
    bytes; by w * 18 + end: bytes w to end - 1; and the marks %g adds, by
    2 * (k + 4) + (a fraction is written): "0." and -k - 1 zeros below 1,
    else a point after k + 1 digits if a fraction follows."""
    pow5 = 5 ** np.arange(21, dtype=np.uint64)
    pow10 = np.ldexp(pow5.astype(float), np.arange(21))
    group = np.arange(10_000, dtype=np.int16)
    byte = np.arange(24)
    k = np.arange(-4, 16)[:, None, None]
    return SimpleNamespace(
        pow5=pow5, pow10=pow10,
        ten_at_least=np.concatenate([1.0 / pow10[4:0:-1], pow10[:17]]),
        ascii4=(48 + group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
                ).astype(np.uint8).view("<u4").ravel().astype(np.uint64),
        significant=np.where(group > 0, np.arange(4, 17, 4, dtype=np.uint8)[:, None]
                             - sum(group % 10 ** j == 0 for j in (1, 2, 3)), 0
                             ).astype(np.uint8),
        leading=_byte_words(np.where(byte < np.arange(17)[:, None], 0xFF, 0)),
        between=_byte_words(np.where((byte >= np.arange(17)[:, None, None])
                                     & (byte < np.arange(18)[:, None]), 0xFF, 0)),
        marks=_byte_words(np.where(
            k < 0, np.where(byte == 1, ord("."), np.where(byte <= -k, ord("0"), 0)),
            np.where((byte == k + 1) & (np.arange(2)[:, None] == 1), ord("."), 0))))


def _shift_bytes(words: list, bits: np.ndarray) -> list:
    """Strings held in three word arrays, moved up by ``bits`` (< 64) each."""
    back = _U64(64) - bits
    return [words[0] << bits, (words[1] << bits) | (words[0] >> back),
            (words[2] << bits) | (words[1] >> back)]


def _decimal(x: np.ndarray, tab: SimpleNamespace) -> tuple:
    """D and k of |x| where 1e-4 <= |x| < 2^51 (``fast``), D = 0 and k = 0
    elsewhere."""
    size = np.abs(x)
    fast = (size >= 1e-4) & (size < 2.0 ** 51)
    y = np.where(fast, size, 1.0)
    u = y.view(np.uint64)
    biased = (u >> _U64(52)).view(np.int64)
    # floor(e log10 2) for the binary exponent e is k or k - 1
    k = ((biased - 1023) * 78913) >> 18
    k += y >= tab.ten_at_least[k + 5]
    s = 16 - k
    b = (1059 - biased + k).view(np.uint64)  # -(q + s)
    m = (u & _U64((1 << 52) - 1)) | _U64(1 << 52)
    # an even estimate 20 to 46 units below |x| 10^s, and the remainder
    est = ((y * tab.pow10[s]).astype(np.uint64) - _U64(32)) & _U64((1 << 64) - 2)
    rest = m * tab.pow5[s] - (est << b)
    # add rest / 2^b rounded half to even: est is even, so the parity of
    # the sum is that of rest >> b
    half = (_U64(1) << (b - _U64(1))) - _U64(1)
    d = (est + ((rest + half + ((rest >> b) & _U64(1))) >> b)).view(np.int64)
    d *= fast  # zeros format as D = 0, k = 0: "0"
    k *= fast
    return d, k, fast


def _digits(d: np.ndarray, tab: SimpleNamespace) -> tuple:
    """The 17 ASCII digits of D in three words, and how many of them run
    to the last nonzero one."""
    high = d // 10 ** 9
    low = d - high * 10 ** 9
    tens = low // 10
    units = low - tens * 10
    first, third = high // 10_000, tens // 10_000
    groups = (first, high - first * 10_000, third, tens - third * 10_000)
    ascii4, counts = tab.ascii4, tab.significant
    words = [ascii4.take(groups[0]) | (ascii4.take(groups[1]) << _U64(32)),
             ascii4.take(groups[2]) | (ascii4.take(groups[3]) << _U64(32)),
             units.view(np.uint64) + _U64(ord("0"))]
    significant = np.maximum(
        np.maximum(counts[0].take(groups[0]), counts[1].take(groups[1])),
        np.maximum(counts[2].take(groups[2]), counts[3].take(groups[3])))
    significant[units != 0] = 17
    return words, significant


def _layout(words: list, significant: np.ndarray, k: np.ndarray,
            sign: np.ndarray, tab: SimpleNamespace) -> np.ndarray:
    """%g's text of each D, k and sign, as rows of three words."""
    whole = np.maximum(k + 1, 0)  # digits before the point
    fraction = significant > whole
    marks = 2 * (k + 4) + fraction
    cut = whole * 18 + np.maximum(significant, whole)
    head = [w & lead.take(whole) | mark.take(marks)
            for w, lead, mark in zip(words, tab.leading, tab.marks)]
    tail = [w & between.take(cut) for w, between in zip(words, tab.between)]
    lift = (sign + _U64(1) + np.maximum(-k, 0).view(np.uint64)) << _U64(3)
    head = _shift_bytes(head, sign << _U64(3))
    tail = _shift_bytes(tail, lift)
    head[0] |= sign * _U64(ord("-"))
    return np.stack([h | t for h, t in zip(head, tail)], axis=1)


def _format_batch(x: np.ndarray, tab: SimpleNamespace) -> list:
    d, k, fast = _decimal(x, tab)
    words, significant = _digits(d, tab)
    sign = x.view(np.uint64) >> _U64(63)
    out = _layout(words, significant, k, sign, tab)
    texts = out.astype("<u8", copy=False).view("S24").ravel().tolist()
    for i in np.flatnonzero(~fast & (x != 0)).tolist():
        texts[i] = b"%.17g" % x[i]
    return texts


def format_floats(values) -> list:
    """The bytes of ``b"%.17g" % v`` for every float ``v`` of ``values``,
    which reads back to the same float, as a list in ``ravel`` order.

    Zeros and 1e-4 <= |v| < 2^51 (the fast range) are formatted by numpy,
    FORMAT_BATCH values a pass; every other value (subnormals, tiny or
    huge values, inf and nan) by ``b"%.17g" % v`` itself.

    For |v| = m 2^q, m the 53-bit significand, the decimal exponent k
    (10^k <= |v| < 10^(k+1)) is floor(log10 2^(q+52)) or one more, which
    one comparison with the table of powers of ten decides exactly. The
    17 significant digits are D = m 5^s 2^(q+s), s = 16 - k, rounded half
    to even as CPython rounds. In the fast range s <= 20 and b = -(q+s)
    is 1 to 46, so D is m 5^s, below 2^100, shifted down by b bits. The
    float |v| 10^s is within 12 units of that quotient; the remainder of
    m 5^s over an even estimate 20 to 46 units below it, times 2^b, is
    below 2^52, so it is exact in uint64 arithmetic, which wraps, and
    gives D and its rounding without forming the product. No D rounds up
    to 10^17 there: that needs |v| within 5e-18 of 10^(k+1), relative,
    and the double below each power of ten in the range is more than
    2^-54 below it. The digits come from a 10 000-entry table of four
    ASCII digits and are laid out as %g lays them out for -4 <= k < 17:
    positional, trailing zeros and a bare point dropped, and a "-" for
    a set sign bit, so -0.0 gives "-0".
    """
    x = np.ascontiguousarray(values, dtype=float).ravel()
    tab = _tables()
    texts: list = []
    for start in range(0, x.size, FORMAT_BATCH):
        texts += _format_batch(x[start:start + FORMAT_BATCH], tab)
    return texts


def write_csv(path: Path, header: list, rows) -> None:
    """Write a float table, every value as format_floats writes it (the
    bytes of %.17g, which read back to the same float). ``rows`` is a
    2-D array or any iterable of equal-length rows; each FORMAT_BATCH
    values of it are formatted by one format_floats call and written by
    one bytes % operation."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    line = b",".join([b"%s"] * len(header)) + b"\n"
    step = max(1, FORMAT_BATCH // len(header))
    with path.open("wb") as out:
        out.write(",".join(header).encode() + b"\n")
        for start in range(0, len(table), step):
            chunk = table[start:start + step]
            out.write(line * len(chunk) % tuple(format_floats(chunk)))


def write_blocks(path: Path, header: list, column, blocks) -> None:
    """Write blocks ``(t, values)`` as rows ``t, column[i], values[i]``,
    every value as format_floats writes it (the bytes of %.17g); ``column``
    and each ``values`` are float arrays of one length, and ``column`` is
    formatted once. The blocks are read one at a time and written in
    batches of FORMAT_BATCH // (len(column) + 1) blocks, or one larger
    block: a batch's times and values go through one format_floats call and
    one bytes % operation, so memory does not grow with the block count."""
    tail = [b""] + [b",%s,%%s\n" % c for c in format_floats(column)]
    per_batch = max(1, FORMAT_BATCH // (len(column) + 1))
    blocks = iter(blocks)
    with path.open("wb") as out:
        out.write(",".join(header).encode() + b"\n")
        while batch := list(itertools.islice(blocks, per_batch)):
            texts = format_floats(np.concatenate(
                [[t for t, _ in batch]] + [values for _, values in batch]))
            template = b"".join(t.join(tail) for t in texts[:len(batch)])
            out.write(template % tuple(texts[len(batch):]))


@dataclass
class SimulationResult:
    """Everything cmd_simulate needs to write its artifacts."""

    state: conslaw.HalfLineState
    snapshots: list
    ms_series: list
    z: np.ndarray  # the z-grid of every pseudo-inverse in X_series
    X_series: list
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
    geometry = measure.grid_geometry(snapshots[0], cfg)
    ms_series = [measure.assemble(snap, cfg, geometry) for snap in snapshots]
    z = measure.z_grid(ms_series[0], config.z_count)
    X_series = [measure.pseudo_inverse(ms, z) for ms in ms_series]
    return SimulationResult(state, snapshots, ms_series, z, X_series, datum)


def cmd_simulate(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Run, then write the artifacts; every one is computed before the
    output directory is made, so a run that fails leaves none."""
    # per output time: a snapshot block per row and a pseudo-inverse block
    config.check_output_budget(2 * config.grid_cells + config.z_count,
                               "grid_cells or z_count")
    res = simulate(config)
    ms_series = res.ms_series
    cfg, state = config.gamma_config(), res.state
    rows = measure.measure_rows(ms_series)
    frame_rows = (measure.original_frame_series(rows, config.gamma)
                  if config.frame == "original" else None)
    violations = measure.check_entropy_measure(ms_series, res.X_series, cfg,
                                               datum=res.datum)
    onset = min(measure.trace_onset_time(state.trace_times, state.trace_values,
                                         config.trace_threshold))
    summary = {
        "version": SCHEMA_VERSION,
        "gamma": config.gamma,
        "dim": config.dim,
        "grid": {"cells": config.grid_cells,
                 "dxi": state.grid.cell_width,
                 "extent": state.grid.extent},
        "t_end": config.t_end,
        "t_star_trace": None if math.isinf(onset) else onset,
        "final_dirac_fraction": ms_series[-1].dirac_mass
        / max(ms_series[-1].total_mass, 1e-300),
        "total_mass": ms_series[-1].total_mass,
        "violation_counts": collections.Counter(v.kind for v in violations),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    # snapshots_<side>.csv: t, xi_center, u (signed original xi)
    for row, side in enumerate(SIDES):
        write_blocks(out_dir / f"snapshots_{side}.csv", ["t", "xi_center", "u"],
                     SIGNS[row] * state.grid.centers,
                     ((snap.time, snap.cells[row]) for snap in res.snapshots))
    # ledger_<side>.csv: the solver's ledger after each step
    for row, side in enumerate(SIDES):
        write_csv(out_dir / f"ledger_{side}.csv", ["t", "trace_u0", "outflux_cumulative"],
                  np.column_stack([state.trace_times, state.trace_values[:, row],
                                   state.ledger_history[:, row]]))
    write_csv(out_dir / "measures.csv", measure.MEASURE_COLUMNS, rows)
    write_blocks(out_dir / "pseudoinverse.csv", ["t", "z", "X"], res.z,
                 ((ms.time, X) for ms, X in zip(ms_series, res.X_series)))
    if frame_rows is not None:
        write_csv(out_dir / "original_frame.csv", measure.ORIGINAL_FRAME_COLUMNS,
                  frame_rows)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if not quiet:
        print(f"simulated to t={config.t_end}: condensed fraction "
              f"{summary['final_dirac_fraction']:.4f}, "
              f"violations {len(violations)}")
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: Path, quiet: bool = False) -> int:
    """Oracle-comparison suite; prints a pass/fail table with measured numbers
    and returns EXIT_VERIFY, after writing the table, when a row reads FAIL.

    The suite runs on the block; the configured datum is only validated.
    It makes three solver runs when grid_cells is a convergence size (as
    it is from 256 on): one to 0.5/gamma for each other size, and the law
    run to 4/gamma. The law run gives the onset, the mass law and the
    diagnostics, the convergence size grid_cells from its snapshot at
    0.5/gamma, and the pseudo-inverse row from its snapshot at 2/gamma,
    read in the unit-mass scale through the exact dilation of the block
    onto the unit-mass block on [0, 1]. The law run's snapshot rows are
    checked first, before any state is built; then the law run goes
    first, so its own cell-step check (``run_until``'s) rejects it before
    its first step and before any other run.
    """
    if config.dim != 1:
        raise ConfigError("verify requires dim = 1")
    config.build_datum()
    g = config.gamma
    cfg = GammaConfig(gamma=g, dim=1)
    rows = []

    # one run to 4/gamma serves every row but the smaller convergence
    # sizes; its snapshot at a time t equals a run that lands on t, to
    # rounding. Its snapshots and their pseudo-inverses stay in memory.
    law_cfg = RunConfig(gamma=g, datum={"kind": "example36"},
                        grid_cells=config.grid_cells, cfl=config.cfl,
                        t_end=4.0 / g, snapshot_cadence=0.5 / g,
                        z_count=config.z_count)
    law_times = conslaw.output_times(0.0, law_cfg.t_end, law_cfg.snapshot_cadence)
    _check_rows(len(law_times) * (2 * config.grid_cells + config.z_count),
                "law-run snapshot", "lower grid_cells or z_count")
    law_res = simulate(law_cfg)
    ms2 = law_res.ms_series

    def add(name, status, value, target):
        rows.append((name, status, value, target))

    # convergence against the explicit conservation-law profile; the size
    # equal to grid_cells is read off the law run
    t_probe = 0.5 / g
    sizes = [max(64, config.grid_cells // 4), max(128, config.grid_cells // 2),
             max(256, config.grid_cells)]

    def l1_error(snap: conslaw.Snapshot) -> float:
        exact = oracle.u_explicit(snap.grid.centers, t_probe, g)
        return float(np.sum(np.abs(snap.cells[RIGHT] - exact)) * snap.grid.cell_width)

    errors = {}
    for n in sizes:
        if n != config.grid_cells:
            datum = example_block_datum(g)
            state = init_from_datum(datum, make_grid(datum, cfg, n), cfg)
            errors[n] = l1_error(run_until(state, t_probe, config.cfl, cfg))

    times = np.array([ms.time for ms in ms2])
    if config.grid_cells in sizes:
        errors[config.grid_cells] = l1_error(
            law_res.snapshots[np.argmin(abs(times - t_probe))])
    order = float(np.polyfit(np.log(sizes), np.log([errors[n] for n in sizes]),
                             1)[0] * -1)
    informational = config.grid_cells < 256
    add("L1 convergence order vs explicit u",
        "INFO" if informational else ("PASS" if order >= 0.8 else "FAIL"),
        f"{order:.3f}", ">= 0.8")

    # trace onset vs 1/gamma
    onset = measure.trace_onset_time(law_res.state.trace_times,
                                     law_res.state.trace_values,
                                     config.trace_threshold)[RIGHT]
    tol = 5.0 * trace_time_tolerance(g, law_res.state.grid.cell_width,
                                     config.trace_threshold)
    # a tolerance of 1/gamma or more passes every onset in [0, 1/gamma]; max u
    # never grows, so the trace never reaches a threshold of sup_initial or more
    unreachable = config.trace_threshold >= law_res.state.sup_initial
    status = ("INFO" if tol >= 1.0 / g or unreachable
              else "PASS" if abs(onset - 1.0 / g) <= tol else "FAIL")
    add("trace onset time vs 1/gamma", status,
        "none" if math.isinf(onset) else f"{onset:.5f}", f"{1.0 / g:.5f} +/- {tol:.2g}")

    # condensed-mass law on [1.5/gamma, 4/gamma]
    worst = 0.0
    for ms in ms2:
        if ms.time >= 1.5 / g:
            target = oracle.mass_explicit(ms.time, g)
            worst = max(worst, abs(ms.dirac_mass - target) / target)
    status = "INFO" if informational else ("PASS" if worst <= 0.01 else "FAIL")
    add("condensed-mass law rel error", status, f"{worst:.4f}", "<= 0.01")

    # pseudo-inverse against the explicit rearrangement at 2/gamma, in the
    # unit-mass scale: that block is an exact dilation of this one, with X
    # scaled by 1+gamma
    k = np.argmin(abs(times - 2.0 / g))
    exact_X = oracle.X_explicit(law_res.z, ms2[k].time, g)
    linf = (1.0 + g) * float(np.max(np.abs(law_res.X_series[k] - exact_X)))
    status = "INFO" if informational else ("PASS" if linf <= 1e-2 else "FAIL")
    add("pseudo-inverse Linf vs explicit X", status, f"{linf:.2e}", "<= 1e-2")

    # structural diagnostics on the run
    n_viols = len(measure.check_entropy_measure(ms2, law_res.X_series, cfg,
                                                datum=law_res.datum))
    add("entropy-measure diagnostics", "PASS" if n_viols == 0 else "FAIL",
        f"{n_viols} violations", "0")

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
    (out_dir / "characteristics_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
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
    text = (input_dir / "measures.csv").read_text().strip().splitlines()
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
