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

A grid in xi means something only for the gamma that sized it, so
``HalfLineGrid`` carries it, and its x-image: a run's steps read gamma off
its grid, and the projection and ``measure.assemble`` the x-image.

The two half-lines share one clock and are coupled only through the mass
they feed into the origin, so they are stepped together as the two rows
of one ``(2, N)`` array: row 0 is the reflected left half-line, row 1 the
right one.

``run_until`` and ``step`` call ``_advance``, which steps only the
occupied rows through the last occupied column, both read off the cells'
bit patterns at its entry: the far ghost feeds no mass and every speed
points at the origin, so an empty row and the empty cells beyond stay
exactly +0.0.  It steps a column-major copy of that window, so that each
pass over two rows walks one contiguous run of memory, and writes it back
into the state at the steps that reach a snapshot time, where it copies
the state for snapshot interpolation, and at the end.  ``step`` runs the
same loop to a t_end one CFL step ahead, so it lands in one step.

A step is five array passes and one argmax at every gamma: the power
u^(1+gamma), the subtraction, the scaling, the update, and the argmax
over the bit patterns of the updated cells.  The step never divides the
flux by 1+gamma: it folds 1/(1+gamma) into the scaling, which multiplies
the increment by dt / (dxi (1+gamma)).  At gamma = 1, 2 and 3 the power
is a product of correctly rounded multiplications, u*u, (u*u)*u and
(u*u)*(u*u), and so is the CFL speed peak^gamma (``_speed``); every
other gamma takes ``np.power`` and Python's ``**``.  A product does not
depend on numpy's SIMD dispatch, and scaling a factor by a power of two
scales the rounded product by that power exactly, barring overflow and
underflow.  So at integer gamma and a power-of-two lambda, a run of
lambda*u0 to t/lambda^gamma takes the same steps as a run of u0 to t, with
every dt divided by lambda^gamma and every cell and ledger times lambda,
bit for bit: the paper's amplitude scaling.
A double with its sign bit clear orders like its unsigned bit pattern,
every negative value (-0.0 included) has a pattern of at least
0x8000..., and every NaN one above +inf's.  So a largest pattern below
+inf's proves every cell +0.0 or positive and finite, which is the case
where the positivity guard has nothing to do, and the cell at the argmax
holds the max that sets the next CFL step.

A step does not add its outflux to the ledger, and it records itself in
two Python lists: its ``dt``, and the stepped rows' boundary cells
extended onto a flat list.  A step's outflux is the flux of the boundary
cells it starts from, the record before its own, so the run folds the
pending steps into the ledger with one ``_flux`` call over those cells
and one sequential ``np.add.accumulate``, at each step that reaches a
snapshot time and at the end.  The accumulate adds the products
dt * outflux in step order, left to right, so the ledger equals the
per-step float sum bit for bit; another one over the dts gives the step
times with the bits of the run's own clock.  The fold also gives the ledger after each step, the
one outflux integration, which ``simulate`` writes.  The run appends
the folded times, boundary cells and ledgers to the state's three
record arrays once, at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .datum import InitialDatum, integrate_piecewise
from .frames import GammaConfig, dxi_dx, x_of_xi, xi_of_x

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
    """Uniform cell grid covering (0, L] in canonical coordinates, for the
    gamma of ``cfg``, which sized it and which every run on it steps with.

    Its x-image is computed on first use, once, and read-only: ``x_edges``
    and ``x_centers``, x_of_xi of the edges and centers, unsigned (row
    LEFT's is their negation), and ``dxi_dx`` at the centers.  The maps are
    elementwise, so a slice has the bits of the maps on that slice.
    """

    cell_count: int
    cell_width: float
    cfg: GammaConfig

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

    @cached_property
    def x_edges(self) -> np.ndarray:
        return _read_only(x_of_xi(self.edges, self.cfg))

    @cached_property
    def x_centers(self) -> np.ndarray:
        """Raises FloatingPointError where x(xi) underflows to 0 at a cell
        center."""
        x_centers = _read_only(x_of_xi(self.centers, self.cfg))
        if np.any(x_centers == 0):  # cell centers sit at xi > 0; x(xi) underflowed
            raise FloatingPointError(
                f"x(xi) underflows to 0 at a cell center for gamma = {self.cfg.gamma}")
        return x_centers

    @cached_property
    def dxi_dx(self) -> np.ndarray:
        return _read_only(dxi_dx(self.x_centers, self.cfg))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class Snapshot:
    """Cell averages of u on both reflected half-lines at one instant.

    ``cells`` has shape (2, N): row LEFT is the left half-line reflected
    xi -> -xi, row RIGHT the right one.  ``outflux_ledger`` holds the mass
    each row has fed into the origin.  The run's sup u0 is its state's.
    """

    grid: HalfLineGrid
    cells: np.ndarray
    time: float = 0.0
    outflux_ledger: np.ndarray = field(default_factory=lambda: np.zeros(2))

    @property
    def mass(self) -> np.ndarray:
        """Discrete mass remaining on each half-line."""
        return self.cells.sum(axis=1) * self.grid.cell_width


@dataclass
class HalfLineState(Snapshot):
    """A snapshot that steps, plus the boundary trace u(0, t) and the
    ledger of each row, one entry per step after the initial one:
    float64 arrays ``trace_times`` of shape (k+1,), and ``trace_values``
    and ``ledger_history`` of shape (k+1, 2), one column per row, after
    k steps.  ``sup_initial``, the largest cell at construction, is the
    run's sup u0.
    """

    trace_times: np.ndarray = field(init=False)
    trace_values: np.ndarray = field(init=False)
    ledger_history: np.ndarray = field(init=False)
    sup_initial: float = field(init=False)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        self.outflux_ledger = np.array(self.outflux_ledger, dtype=float)
        if self.cells.shape != (2, self.grid.cell_count):
            raise ValueError("cells must have shape (2, cell_count)")
        if self.outflux_ledger.shape != (2,):
            raise ValueError("outflux_ledger must hold one value per row")
        if np.any(self.cells < 0):
            raise ValueError("cell averages must be nonnegative")
        # -0.0 -> +0.0: a -0.0 cell has a nonzero bit pattern, so it would
        # widen the rows and columns that _advance steps
        np.maximum(self.cells, 0.0, out=self.cells)
        self.trace_times = np.array([self.time], dtype=float)
        self.trace_values = self.cells[None, :, 0].copy()
        self.ledger_history = self.outflux_ledger[None].copy()
        self.sup_initial = float(self.cells.max(initial=0.0))

    def snapshot(self) -> Snapshot:
        """Decoupled copy of the time, cells and ledger."""
        return Snapshot(self.grid, self.cells.copy(), self.time,
                        self.outflux_ledger.copy())


def xi_extent_of_datum(datum: InitialDatum, cfg: GammaConfig) -> float:
    """Largest |xi| in the image of the datum support."""
    reach = max(abs(datum.a), abs(datum.b))
    return float(abs(xi_of_x(reach, cfg)))


def make_grid(datum: InitialDatum, cfg: GammaConfig, cell_count: int) -> HalfLineGrid:
    """Grid sized to GRID_MARGIN times the xi-image of the datum support."""
    extent = GRID_MARGIN * xi_extent_of_datum(datum, cfg)
    if extent <= 0:
        raise ValueError("datum support has empty xi-image")
    return HalfLineGrid(cell_count=cell_count, cell_width=extent / cell_count, cfg=cfg)


def init_from_datum(datum: InitialDatum, grid: HalfLineGrid) -> HalfLineState:
    """Build the two-row half-line state from an initial datum.

    The left problem is reflected xi -> -xi into row LEFT so both rows
    evolve under the canonical equation.  A cell of row RIGHT holds the
    exact datum mass over its x-image per unit xi, and of row LEFT over the
    negated x-image: the grid's ``x_edges`` and one integration give both.
    Raises :class:`SupportOverflow` if the grid is too short.
    """
    if grid.cfg.dim != 1:
        raise ValueError("half-line solver requires dim = 1")
    reach = xi_extent_of_datum(datum, grid.cfg)
    if reach > grid.extent:
        raise SupportOverflow(
            f"xi-image of support reaches {reach}, grid extent is only {grid.extent}")
    x = grid.x_edges
    lo, hi = np.stack([-x[1:], x[:-1]]), np.stack([-x[:-1], x[1:]])
    return HalfLineState(grid=grid,
                         cells=integrate_piecewise(datum, lo, hi) / grid.cell_width)


def _power(u: np.ndarray, gamma: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """u^(1+gamma) of a nonnegative array, into ``out`` or one new array.

    At gamma = 1, 2 and 3 it is a product, u*u, (u*u)*u or (u*u)*(u*u),
    each multiplication correctly rounded on every SIMD path, so that
    scaling u by a power of two scales the result exactly; gamma = 1, the
    benchmark's common case, is tested first.  Every other gamma takes
    ``np.power``.  An overflow gives inf with numpy's warning, as
    ``np.power`` does."""
    if gamma == 1.0:
        return np.square(u, out)
    if gamma == 2.0:
        return np.multiply(np.square(u, out), u, out)
    if gamma == 3.0:
        return np.square(np.square(u, out), out)
    return np.power(u, 1 + gamma, out)


def _flux(u: np.ndarray, gamma: float) -> np.ndarray:
    """The flux u^(1+gamma)/(1+gamma) of a nonnegative array."""
    return _power(u, gamma) / (1 + gamma)


def _speed(peak: float, gamma: float) -> float:
    """The CFL speed peak^gamma of a float peak >= 0: at gamma = 2 and 3 the
    products peak*peak and (peak*peak)*peak, which raise OverflowError
    where a finite peak gives inf, as ``**`` does; else ``peak ** gamma``,
    which is peak itself at gamma = 1."""
    if gamma == 2.0:
        speed = peak * peak
    elif gamma == 3.0:
        speed = peak * peak * peak
    else:
        return peak ** gamma
    if speed == math.inf > peak:
        raise OverflowError(f"CFL speed {peak!r}**{gamma:g} overflows")
    return speed


def _stepped_rows(cells: np.ndarray) -> slice:
    """The rows from the first through the last that hold a cell other
    than +0.0, by bit pattern; the rows outside stay exactly +0.0."""
    occupied = np.flatnonzero(cells.view(np.uint64).any(axis=1))
    return slice(occupied[0], occupied[-1] + 1) if occupied.size else slice(0, 0)


def stable_dt(state: HalfLineState, cfl: float) -> float:
    """cfl * dxi / max(peak^gamma, EPS_SPEED), peak the largest cell of both
    rows and peak^gamma its ``_speed``, as ``_advance`` takes them.  Raises
    OverflowError where peak^gamma overflows."""
    speed = _speed(float(state.cells.max(initial=0.0)), state.grid.cfg.gamma)
    return cfl * state.grid.cell_width / max(speed, EPS_SPEED)


def check_cell_steps(state: HalfLineState, t_end: float, cfl: float) -> float:
    """The most uncapped steps that stepping the state to t_end can take;
    raises :class:`WorkBudgetExceeded` if they could make more than
    MAX_CELL_STEPS cell updates.

    The monotone scheme never raises max u, so no uncapped step is shorter
    than the current ``stable_dt``, which bounds the step count.
    """
    steps = np.ceil((t_end - state.time) / stable_dt(state, cfl))
    cell_steps = state.cells[_stepped_rows(state.cells)].size * steps
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


def _fold(state: HalfLineState, rows: slice, steps: list, flat: list,
          gamma: float, records: tuple) -> np.ndarray:
    """Add the pending steps' dt * outflux to the ledger of the stepped
    ``rows``, append their times, boundary cells and ledgers to the three
    lists of ``records``, and return the ledger before the last of them.

    ``steps`` holds the run's time at the last fold, then each pending
    step's dt; ``flat`` the stepped rows' boundary cells that each pending
    step starts from, then those after each step.  A row that is not
    stepped keeps the +0.0 boundary cell it had at the run's entry, the
    last trace record, so its column is filled from that.  Each step's outflux
    is the flux of the cells it starts from.  ``add.accumulate`` adds left
    to right, so each time has the bits of the run's clock and each ledger
    the bits of adding each step's outflux as it is made.  Both lists are
    left holding what the next step starts from."""
    n = len(steps) - 1
    clock = np.array(steps)
    stepped = np.array(flat).reshape(n + 1, -1)
    times = np.add.accumulate(clock)
    sums = np.add.accumulate(np.concatenate(
        [state.outflux_ledger[None, rows],
         _flux(stepped[:-1], gamma) * clock[1:, None]]))
    values = np.repeat(state.trace_values[-1:], n + 1, axis=0)
    values[:, rows] = stepped
    ledgers = np.repeat(state.outflux_ledger[None], n + 1, axis=0)
    ledgers[:, rows] = sums
    state.outflux_ledger[:] = ledgers[-1]
    for record, folded in zip(records, (times, values, ledgers)):
        record.append(folded[1:])
    steps[:] = [times.item(-1)]
    del flat[:n * stepped.shape[1]]
    return ledgers[-2]


def _advance(state: HalfLineState, cfl: float, t_end: float, tiny: float,
             observer: Optional[Callable[[Snapshot], None]] = None,
             snap_times: Iterable[float] = ()) -> None:
    """Godunov updates of the state's stepped rows, in place, each dt capped
    by t_end - time, until t_end - time <= tiny: none for a NaN t_end.

    It checks the cfl, fixes the stepped rows, clips them and fixes the
    column window [0, hi), hi one past the last occupied column; the rows
    and columns outside stay exactly +0.0, so they are never touched.  It
    steps a column-major copy of the window, so that every pass over two
    rows walks one contiguous run of memory, and writes it back into the cells at each
    step that reaches a snapshot time and at the end, also when a step
    raises.  The flux and increment go into buffers of the same order
    reused from step to step; the flux buffer has one ghost column past
    the window, so one subtraction gives every increment.

    Each step is u_i += (dt/(dxi (1+gamma))) * (P(u_{i+1}) - P(u_i)), P the
    power u^(1+gamma), five array passes (see the module docstring) and no
    Python call but ``_power`` (and ``_speed`` at gamma = 2 and 3; the
    run picks the speed's path before its first step, and ``_power`` tests
    gamma = 1 first), then the argmax
    of the window's bit patterns, which is the exit check and the peak,
    the time, ``dt`` appended to a list and the stepped rows' boundary
    cells extended onto a flat one.  ``argmax`` and ``item`` take
    flat indices of the window's transpose, its memory order, so they
    copy nothing, and one code path serves one row and two.  A largest
    pattern at or above +inf's runs ``_clip_roundoff`` and a float max.
    ``_fold`` adds the steps' dt * outflux to the ledger and turns the two
    lists into records, at the steps that reach a snapshot time and at the
    end, where the records are appended to the state's arrays.  The
    snapshots at ``snap_times``, increasing times the run reaches, go to
    ``observer``, linearly interpolated between the two steps that bracket
    them; ``_fold`` returns the ledger before the second.
    """
    if not 0 < cfl <= 1:
        raise CflViolation(f"cfl must be in (0, 1], got {cfl}")
    rows = _stepped_rows(state.cells)
    u = state.cells[rows]
    _clip_roundoff(u, "state before the update")
    # refresh the pre-run record to the clipped boundary the run starts
    # from, even if the cells were set after it was recorded; ``_fold``
    # fills an unstepped row's trace column from it
    state.trace_values[-1] = state.cells[:, 0]
    # by bit pattern, so that a -0.0 cell is stepped (and becomes +0.0)
    occupied = np.flatnonzero(u.view(np.uint64).any(axis=0))
    hi = occupied[-1] + 1 if occupied.size else 1
    gamma, width = state.grid.cfg.gamma, state.grid.cell_width
    window = u[:, :hi]
    u = np.asfortranarray(window)
    # the zero state steps no row: its peak is read off one +0.0 cell
    peaks = u.T if u.size else np.zeros(1)
    bits = peaks.view(np.uint64)
    increment = np.empty_like(u)
    # the ghost column is never written: the last window cell's increment
    # is ghost - flux, +0.0 - flux for the zero cell hi and -0.0 - flux
    # (that is, -flux) past the grid's end
    flux_buffer = np.empty((u.shape[0], hi + 1), order="F")
    flux_buffer[:, -1] = 0.0 if hi < state.grid.cell_count else -0.0
    # views of the buffer, sliced once
    flux_cells, flux_right = flux_buffer[:, :-1], flux_buffer[:, 1:]
    # the flux buffer holds the power u^(1+gamma): the step scales the
    # increment by dt / (dxi (1+gamma)) in place of dividing the flux
    scaled_width = width * (1 + gamma)
    # the CFL speed's path, chosen once: _speed's products at gamma = 2
    # and 3, else its peak ** gamma inline
    products = gamma in (2.0, 3.0)
    peak = float(u.max(initial=0.0))
    power, subtract = _power, np.subtract
    argmax, bits_at, peak_at = bits.argmax, bits.item, peaks.item
    boundary = u[:, 0].tolist
    cw, eps, inf_bits = cfl * width, EPS_SPEED, INF_BITS
    t = state.time
    steps, flat = [t], boundary()
    add_dt, add_values = steps.append, flat.extend
    records = ([state.trace_times], [state.trace_values], [state.ledger_history])
    snap_times = iter(snap_times)
    next_snap = next(snap_times, math.inf)
    try:
        while t_end - t > tiny:
            # cfl * dxi / max(peak^gamma, EPS_SPEED), as stable_dt takes it
            speed = _speed(peak, gamma) if products else peak ** gamma
            dt = cw / (eps if eps > speed else speed)
            cap = t_end - t
            if cap < dt:
                dt = cap
            # only a step that reaches the next snapshot time needs a copy
            # of the state before it, to interpolate
            snap = next_snap <= t + dt + tiny
            if snap:
                window[...] = u
                prev_cells, prev_time = state.cells.copy(), t
            power(u, gamma, flux_cells)
            subtract(flux_right, flux_cells, increment)
            increment *= dt / scaled_width
            u += increment
            i = argmax()
            if bits_at(i) < inf_bits:
                peak = peak_at(i)
            else:
                _clip_roundoff(u, "monotone update")
                peak = float(u.max(initial=0.0))
            add_dt(dt)
            t += dt
            add_values(boundary())
            if snap:
                window[...] = u
                prev_ledger = _fold(state, rows, steps, flat, gamma, records)
                state.time = t
                while next_snap <= t + tiny:
                    w = 0.0 if t == prev_time else (next_snap - prev_time) / (t - prev_time)
                    observer(Snapshot(state.grid,
                                      (1 - w) * prev_cells + w * state.cells,
                                      next_snap,
                                      (1 - w) * prev_ledger + w * state.outflux_ledger))
                    next_snap = next(snap_times, math.inf)
    finally:
        window[...] = u
        if len(steps) > 1:
            _fold(state, rows, steps, flat, gamma, records)
        state.trace_times, state.trace_values, state.ledger_history = map(
            np.concatenate, records)
        state.time = t


def step(state: HalfLineState, cfl: float) -> HalfLineState:
    """One conservative explicit update of both rows, in place; returns the state.

    It runs ``_advance`` one ``stable_dt`` ahead, within half that dt, so
    its entry checks raise on a cfl outside (0, 1] or a NaN cell and it
    takes one step of any positive dt.  The flux through xi = 0 goes to
    each row's ledger; dxi * sum + ledger is constant to rounding.
    """
    t_end = state.time + stable_dt(state, cfl)
    _advance(state, cfl, t_end, 0.5 * (t_end - state.time))
    state.time = t_end
    return state


def run_until(state: HalfLineState, t_end: float, cfl: float,
              observer: Optional[Callable[[Snapshot], None]] = None,
              cadence: Optional[float] = None) -> HalfLineState:
    """Step from the state's time t0 until t_end, landing on it exactly.

    It steps the rows that hold a cell other than +0.0 at its start, by
    the CFL step of the largest cell, and stops within
    ``landing_tolerance(t_end)`` of t_end, its time then t_end: a shorter
    run takes no step.  An observer gets a decoupled snapshot at each of
    ``output_times(t0, t_end, cadence)``, the inner ones interpolated
    linearly between the two steps around them; the cadence does not
    change the steps.

    Raises ValueError on a t_end that is NaN or before t0, or an observer
    without a cadence > 0; :class:`WorkBudgetExceeded` before the first
    step if the run could take more than MAX_CELL_STEPS cell updates
    (``check_cell_steps``); :class:`FloatingPointError` on a NaN or a real
    negative in a stepped row.  A run stopped so leaves the cells of the
    faulting update and the time, ledger and records of its last whole step.
    """
    if not t_end >= state.time:
        raise ValueError("t_end precedes the current state time")
    if observer is not None and (cadence is None or not cadence > 0):
        raise ValueError("observer requires a positive cadence")
    if cfl > 0:  # otherwise the first step raises CflViolation
        check_cell_steps(state, t_end, cfl)
    tiny = landing_tolerance(t_end)
    times = [] if observer is None else output_times(state.time, t_end, cadence).tolist()
    if observer is not None:
        observer(state.snapshot())
    if t_end - state.time > tiny:
        _advance(state, cfl, t_end, tiny, observer, times[1:-1])
    state.time = t_end
    if len(times) > 1:
        observer(state.snapshot())
    return state


def landing_tolerance(t_end: float) -> float:
    """1e-12 * max(1, |t_end|): a run ends once it is this close to t_end,
    and an output time this close to t_end gives way to t_end itself."""
    return 1e-12 * max(1.0, abs(t_end))


def output_times(t0: float, t_end: float, cadence: float) -> np.ndarray:
    """The output times of a run from t0 to t_end: t0, then t0 + k*cadence
    for k = 1, 2, ... while below t_end - landing_tolerance(t_end), then
    t_end whenever t_end > t0."""
    before = t_end - landing_tolerance(t_end)
    k = np.arange(1.0, max(1.0, (before - t0) / cadence + 2.0))
    times = t0 + k * cadence
    return np.concatenate([[t0], times[times < before], [t_end] if t_end > t0 else []])
