"""Godunov finite-volume solver for the half-line conservation laws.

Both half-line problems are reflected onto the single canonical form

    u_t - (u^(1+gamma)/(1+gamma))_xi = 0,   xi > 0,

whose wave speeds -u^gamma are nonpositive: everything drifts toward the
origin and leaves through xi = 0.  The scheme is the first-order monotone
Godunov update; since the flux is monotone in u and all speeds share one
sign, the interface flux is pure upwinding from the right cell.  No
boundary condition is imposed at xi = 0 (outflow only); the ghost cell
copies the boundary cell.  Mass leaving through the origin accumulates in
``outflux_ledger`` so that the discrete total is conserved exactly.

The two half-lines share one clock and are coupled only through the mass
they feed into the origin, so they are stepped together as the two rows
of one ``(2, N)`` array: row 0 is the reflected left half-line, row 1 the
right one.

``run_until`` and ``step`` call ``_advance``, which steps only through
the last occupied column: the far ghost feeds no mass and every speed
points at the origin, so the empty cells beyond stay exactly +0.0.  It
copies the state for snapshot interpolation only on the steps that reach
a snapshot time.  ``step`` is the one-step case of the same loop.

A step is six array passes: the flux's power and divide, the
subtraction, the scaling, the update, and one reduction, a max over the
bit patterns of the updated cells.  At gamma = 1 the flux is a square
and a halving instead: ``np.square`` rounds the same product as
``np.power(u, 2.0)`` and halving is exact, so the bits do not change.
A double with its sign bit clear orders like its unsigned bit pattern,
every negative value (-0.0 included) has a pattern of at least
0x8000..., and every NaN one above +inf's.  So a largest pattern below
+inf's proves every cell +0.0 or positive and finite, which is the case
where the positivity guard has nothing to do, and the float with that
pattern is the max that sets the next CFL step.

A step does not add its outflux to the ledger: it appends ``dt`` and the
rows' outflux to two lists, and the run folds them into the ledger with
one sequential ``np.add.accumulate`` at each step that reaches a snapshot
time and at the end.  The accumulate adds the products dt * outflux in
step order, left to right, so the ledger equals the per-step float sum
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .datum import InitialDatum, integrate_piecewise
from .frames import GammaConfig, x_of_xi, xi_of_x

EPS_SPEED = 1e-14
CLIP_TOL = 1e-13
MAX_CELL_STEPS = 10**10  # cell updates of one run_until call
INF_BITS = 0x7FF0000000000000  # bit pattern of +inf
GRID_MARGIN = 1.1  # grid extent over the xi-image of the datum support
# row indices of the two half-lines, and the sign that maps a row's xi to x
LEFT, RIGHT = 0, 1
SIGNS = (-1.0, 1.0)


class SupportOverflow(ValueError):
    """The xi-image of the datum support does not fit on the grid."""


class CflViolation(ValueError):
    """CFL number outside (0, 1]."""


class WorkBudgetExceeded(ValueError):
    """A run would need more than MAX_CELL_STEPS cell updates."""


@dataclass(frozen=True)
class HalfLineGrid:
    """Uniform cell grid covering (0, L] in canonical coordinates."""

    cell_count: int
    cell_width: float

    def __post_init__(self):
        if self.cell_count < 8:
            raise ValueError("need at least 8 cells")
        if not self.cell_width > 0:
            raise ValueError("cell width must be positive")

    @property
    def extent(self) -> float:
        return self.cell_count * self.cell_width

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.cell_count) + 0.5) * self.cell_width

    @property
    def edges(self) -> np.ndarray:
        return np.arange(self.cell_count + 1) * self.cell_width


@dataclass
class Snapshot:
    """Cell averages of u on both reflected half-lines at one instant.

    ``cells`` has shape (2, N): row LEFT is the left half-line reflected
    xi -> -xi, row RIGHT the right one.  ``outflux_ledger`` holds the mass
    each row has fed into the origin.
    """

    grid: HalfLineGrid
    cells: np.ndarray
    time: float = 0.0
    outflux_ledger: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sup_initial: float = 0.0

    @property
    def mass(self) -> np.ndarray:
        """Discrete mass remaining on each half-line."""
        return self.cells.sum(axis=1) * self.grid.cell_width


@dataclass
class HalfLineState(Snapshot):
    """A snapshot that steps, plus the boundary trace u(0, t) of each row.

    ``rows`` is the slice of rows that carry mass at construction; only
    those are stepped.  A row that starts empty stays exactly zero, since
    the far ghost has zero inflow and the origin is outflow-only.
    """

    trace_times: list = field(default_factory=list)
    trace_values: list = field(default_factory=list)
    rows: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        self.outflux_ledger = np.array(self.outflux_ledger, dtype=float)
        if self.cells.shape != (2, self.grid.cell_count):
            raise ValueError("cells must have shape (2, cell_count)")
        if self.outflux_ledger.shape != (2,):
            raise ValueError("outflux_ledger must hold one value per row")
        if np.any(self.cells < 0):
            raise ValueError("cell averages must be nonnegative")
        # -0.0 -> +0.0, so that step need not clip a state free of negatives
        np.maximum(self.cells, 0.0, out=self.cells)
        if not self.trace_times:
            self.trace_times.append(self.time)
            self.trace_values.append(self.cells[:, 0].tolist())
        if self.sup_initial == 0.0:
            self.sup_initial = float(self.cells.max(initial=0.0))
        occupied = np.flatnonzero(self.cells.any(axis=1))
        self.rows = slice(occupied[0], occupied[-1] + 1) if occupied.size else slice(0, 0)

    def snapshot(self) -> Snapshot:
        """Decoupled copy of the time, cells and ledger."""
        return Snapshot(self.grid, self.cells.copy(), self.time,
                        self.outflux_ledger.copy(), self.sup_initial)


def xi_extent_of_datum(datum: InitialDatum, cfg: GammaConfig) -> float:
    """Largest |xi| in the image of the datum support."""
    reach = max(abs(datum.a), abs(datum.b))
    return float(abs(xi_of_x(reach, cfg)))


def make_grid(datum: InitialDatum, cfg: GammaConfig, cell_count: int) -> HalfLineGrid:
    """Grid sized to GRID_MARGIN times the xi-image of the datum support."""
    extent = GRID_MARGIN * xi_extent_of_datum(datum, cfg)
    if extent <= 0:
        raise ValueError("datum support has empty xi-image")
    return HalfLineGrid(cell_count=cell_count, cell_width=extent / cell_count)


def _cell_averages(datum: InitialDatum, grid: HalfLineGrid, cfg: GammaConfig,
                   sign: float, first: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Cell averages of u_I(xi) = (gamma*xi)^(1/gamma) * f(sign * x(xi)) on
    the cells [first, stop), all of them by default.

    The integral over each cell equals the exact datum mass over the
    cell's x-image, so the averages are exact.  A cell's average depends
    only on its own two edges: it has the same bits in any range.
    """
    stop = grid.cell_count if stop is None else stop
    ends = sign * np.asarray(x_of_xi(np.arange(first, stop + 1) * grid.cell_width, cfg))
    lo, hi = np.sort([ends[:-1], ends[1:]], axis=0)
    return integrate_piecewise(datum, lo, hi) / grid.cell_width


def init_from_datum(datum: InitialDatum, grid: HalfLineGrid,
                    cfg: GammaConfig) -> HalfLineState:
    """Build the two-row half-line state from an initial datum.

    The left problem is reflected xi -> -xi into row LEFT so both rows
    evolve under the canonical equation.  Raises :class:`SupportOverflow`
    if the grid is too short.
    """
    if cfg.dim != 1:
        raise ValueError("half-line solver requires dim = 1")
    reach = xi_extent_of_datum(datum, cfg)
    if reach > grid.extent:
        raise SupportOverflow(
            f"xi-image of support reaches {reach}, grid extent is only {grid.extent}")
    cells = np.stack([_cell_averages(datum, grid, cfg, sign) for sign in SIGNS])
    return HalfLineState(grid=grid, cells=cells)


def godunov_flux(u_upwind, cfg: GammaConfig):
    """Interface flux u^(1+gamma)/(1+gamma), fed by the right-side cell.

    In canonical orientation all speeds are <= 0, so exact Godunov upwinding
    reduces to evaluating the flux at the downwind (right) value.
    """
    u = np.asarray(u_upwind, dtype=float)
    if u.min(initial=0.0) < 0:
        raise ValueError("flux requires u >= 0")
    return _flux(u, cfg.gamma)


def _flux(u: np.ndarray, gamma: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u^(1+gamma)/(1+gamma) of a nonnegative array, into ``out`` or one new
    array; at gamma = 1 a square and an exact halving, with the same bits."""
    if gamma == 1.0:
        flux = np.square(u, out)
        flux *= 0.5
    else:
        flux = np.power(u, 1 + gamma, out)
        flux /= 1 + gamma
    return flux


def _cfl_dt(peak: float, cfl: float, cell_width: float, gamma: float) -> float:
    """cfl * dxi / max(peak^gamma, EPS_SPEED), peak the largest cell value."""
    speed = peak ** gamma
    return cfl * cell_width / max(speed, EPS_SPEED)


def stable_dt(state: HalfLineState, cfl: float, cfg: GammaConfig) -> float:
    """CFL time step cfl * dxi / max(speed) over both rows, floored at EPS_SPEED."""
    return _cfl_dt(float(state.cells[state.rows].max(initial=0.0)), cfl,
                   state.grid.cell_width, cfg.gamma)


def check_cell_steps(state: HalfLineState, t_end: float, cfl: float,
                     cfg: GammaConfig) -> float:
    """The most uncapped steps that stepping the state to t_end can take;
    raises :class:`WorkBudgetExceeded` if they could make more than
    MAX_CELL_STEPS cell updates.

    The monotone scheme never raises max u, so no uncapped step is shorter
    than the current ``stable_dt``, which bounds the step count.
    """
    return _check_steps(t_end - state.time, stable_dt(state, cfl, cfg),
                        state.cells[state.rows].size)


def check_block_cell_steps(datum: InitialDatum, grid: HalfLineGrid, t_end: float,
                           cfl: float, cfg: GammaConfig) -> float:
    """``check_cell_steps`` of ``init_from_datum(datum, grid, cfg)`` from
    t = 0 to t_end, without building its cells, for a block on [0, b].

    Only the right row is stepped, and its largest cell average is
    ``block_peak``, so the count is the same, with the same bits.
    """
    dt = _cfl_dt(block_peak(datum, grid, cfg), cfl, grid.cell_width, cfg.gamma)
    return _check_steps(t_end, dt, grid.cell_count)


def block_peak(datum: InitialDatum, grid: HalfLineGrid, cfg: GammaConfig) -> float:
    """The largest right-row cell average of a block datum on [0, b].

    On a block u_I = (gamma*xi)^(1/gamma) * f increases in xi up to the
    xi-image of b, so every full cell's average is below the next one's,
    and the largest is the last full cell's or the partial cell's at the
    support's end, which GRID_MARGIN keeps short of the grid's end.  Only
    those two cells are computed, as ``_cell_averages`` computes them.
    """
    last = int(xi_extent_of_datum(datum, cfg) / grid.cell_width)
    return float(_cell_averages(datum, grid, cfg, 1.0, last - 1, last + 1).max())


def _check_steps(duration: float, dt: float, cells: int) -> float:
    """ceil(duration / dt); raises :class:`WorkBudgetExceeded` if that many
    steps of ``cells`` cells exceed MAX_CELL_STEPS."""
    steps = np.ceil(duration / dt)
    cell_steps = cells * steps
    if cell_steps > MAX_CELL_STEPS:
        raise WorkBudgetExceeded(
            f"about {cell_steps:.3g} cell-steps exceed the cell-step budget "
            f"of {MAX_CELL_STEPS:.3g}; lower t_end or grid_cells")
    return float(steps)


def _clip_roundoff(u: np.ndarray, what: str) -> None:
    """Clip roundoff-level negatives to 0; NaN or a real negative raises."""
    low = u.min(initial=0.0)
    if not low >= -CLIP_TOL:
        raise FloatingPointError(f"{what}: negative or NaN cell average")
    if low < 0:
        np.maximum(u, 0.0, out=u)


def _fold(state: HalfLineState, dts: list, outs: list) -> np.ndarray:
    """Add the pending steps' dt * outflux to the stepped rows' ledger and
    empty both lists; returns the ledger before the last pending step.

    ``add.accumulate`` adds row after row, left to right, so the ledger
    has the bits of adding each step's outflux as it is made."""
    sums = np.add.accumulate(np.concatenate(
        [state.outflux_ledger[None, state.rows], np.multiply(outs, np.array(dts)[:, None])]))
    state.outflux_ledger[state.rows] = sums[-1]
    dts.clear()
    outs.clear()
    return sums[-2]


def _advance(state: HalfLineState, cfl: float, cfg: GammaConfig, t_end: float,
             tiny: float, observer: Optional[Callable[[Snapshot], None]] = None,
             snap_times: Iterable[float] = (), dt_cap: Optional[float] = None) -> None:
    """Godunov updates of the state's stepped rows, in place, until
    t_end - time <= tiny; with ``dt_cap``, the one step min(cfl dt, dt_cap).

    It checks the cfl, clips the state and fixes the column window [0, hi),
    hi one past the last occupied column; the columns beyond stay exactly
    +0.0, so they are never touched.  The flux and increment go into
    buffers reused from step to step; the flux buffer has one ghost column
    past the window, so one subtraction gives every increment.

    Each step is u_i += (dt/dxi) * (G(u_{i+1}) - G(u_i)), six array passes
    and no Python call but ``_flux``, then the exit check and the peak, the
    ledger, the time and the trace.  A bit-pattern max at or above +inf's
    (see the module docstring) runs ``_clip_roundoff`` and a float max.
    ``_fold`` adds the steps' dt * outflux to the ledger at the steps that
    reach a snapshot time and at the end.  The snapshots at ``snap_times``,
    increasing times the run reaches, go to ``observer``, linearly
    interpolated between the two steps that bracket them.
    """
    if not 0 < cfl <= 1:
        raise CflViolation(f"cfl must be in (0, 1], got {cfl}")
    u = state.cells[state.rows]
    _clip_roundoff(u, "state before the update")
    # by bit pattern, so that a -0.0 cell is stepped (and becomes +0.0)
    occupied = np.flatnonzero(u.view(np.uint64).any(axis=0))
    hi = occupied[-1] + 1 if occupied.size else 1
    gamma, width = cfg.gamma, state.grid.cell_width
    u = u[:, :hi]
    bits = u.view(np.uint64)
    increment = np.empty_like(u)
    # the ghost column is never written: the last window cell's increment
    # is ghost - flux, +0.0 - flux for the zero cell hi and -0.0 - flux
    # (that is, -flux) past the grid's end
    flux_buffer = np.empty((u.shape[0], hi + 1))
    flux_buffer[:, -1] = 0.0 if hi < state.grid.cell_count else -0.0
    # views of the buffer, sliced once
    flux_cells, flux_right, outflux = flux_buffer[:, :-1], flux_buffer[:, 1:], flux_buffer[:, 0]
    # the largest bit pattern, and the same 8 bytes read as a float
    peak_bits = np.zeros((), np.uint64)
    peak_float = peak_bits.view(np.float64)
    peak = float(u.max(initial=0.0))
    flux, subtract, reduce_max = _flux, np.subtract, np.maximum.reduce
    cw, eps, inf_bits = cfl * width, EPS_SPEED, INF_BITS
    dts, outs = [], []
    add_dt, add_out = dts.append, outs.append
    add_time, add_value = state.trace_times.append, state.trace_values.append
    boundary = state.cells[:, 0]
    t = state.time
    snap_times = iter(snap_times)
    next_snap = next(snap_times, math.inf)
    try:
        while t_end - t > tiny:
            # cfl * dxi / max(peak^gamma, EPS_SPEED), in _cfl_dt's order
            speed = peak ** gamma
            dt = cw / (eps if eps > speed else speed)
            cap = t_end - t if dt_cap is None else dt_cap
            if cap < dt:
                dt = cap
            # only a step that reaches the next snapshot time needs a copy
            # of the state before it, to interpolate
            snap = next_snap <= t + dt + tiny
            if snap:
                prev_cells, prev_time = state.cells.copy(), t
            flux(u, gamma, flux_cells)
            subtract(flux_right, flux_cells, increment)
            increment *= dt / width
            u += increment
            reduce_max(bits, None, None, peak_bits, False, 0)
            if peak_bits.item() < inf_bits:
                peak = peak_float.item()
            else:
                _clip_roundoff(u, "monotone update")
                peak = float(u.max(initial=0.0))
            add_dt(dt)
            add_out(outflux.tolist())
            t += dt
            add_time(t)
            add_value(boundary.tolist())
            if snap:
                prev_ledger = state.outflux_ledger.copy()
                prev_ledger[state.rows] = _fold(state, dts, outs)
                state.time = t
                while next_snap <= t + tiny:
                    w = 0.0 if t == prev_time else (next_snap - prev_time) / (t - prev_time)
                    observer(Snapshot(state.grid,
                                      (1 - w) * prev_cells + w * state.cells,
                                      next_snap,
                                      (1 - w) * prev_ledger + w * state.outflux_ledger,
                                      state.sup_initial))
                    next_snap = next(snap_times, math.inf)
            if dt_cap is not None:
                break
    finally:
        if dts:
            _fold(state, dts, outs)
        state.time = t


def step(state: HalfLineState, cfl: float, cfg: GammaConfig,
         dt_cap: Optional[float] = None) -> HalfLineState:
    """One conservative explicit update of both rows, in place; returns the state.

    dt = cfl * dxi / max(max_i u_i^gamma, EPS_SPEED), optionally capped by
    ``dt_cap`` (used to land exactly on a target time).  The flux through
    xi = 0 is added to each row's outflux ledger so that
    dxi * sum(cells) + ledger is constant to rounding, row by row.
    """
    _advance(state, cfl, cfg, math.inf, 0.0,
             dt_cap=math.inf if dt_cap is None else dt_cap)
    return state


def run_until(state: HalfLineState, t_end: float, cfl: float, cfg: GammaConfig,
              observer: Optional[Callable[[Snapshot], None]] = None,
              cadence: Optional[float] = None) -> HalfLineState:
    """Step until t_end, landing on it exactly.

    If an observer is given, it is called with decoupled snapshots at the
    times t0 + k*cadence (k = 0, 1, ...) short of t_end by more than
    1e-12 * max(1, |t_end|), linearly interpolated in time between the two
    bracketing steps, and then at t_end; the stepping sequence itself is
    independent of the cadence.

    Raises :class:`WorkBudgetExceeded` before the first step if the run
    could take more than MAX_CELL_STEPS cell updates (``check_cell_steps``).
    """
    if t_end < state.time:
        raise ValueError("t_end precedes the current state time")
    if observer is not None and (cadence is None or cadence <= 0):
        raise ValueError("observer requires a positive cadence")
    if cfl > 0:  # otherwise the first step raises CflViolation
        check_cell_steps(state, t_end, cfl, cfg)
    tiny = 1e-12 * max(1.0, abs(t_end))
    t0 = state.time
    if observer is not None:
        observer(state.snapshot())
    if t_end - t0 > tiny:
        times = () if observer is None else _snapshot_times(t0, t_end - tiny, cadence)
        _advance(state, cfl, cfg, t_end, tiny, observer, times)
    state.time = t_end
    if observer is not None and t0 < t_end - tiny:
        observer(state.snapshot())
    return state


def _snapshot_times(t0: float, before: float, cadence: float) -> Iterator[float]:
    """t0 + k*cadence for k = 1, 2, ... while below ``before``."""
    k = 1
    while (time := t0 + k * cadence) < before:
        yield time
        k += 1
