"""Assembly of the global measure solution m(t)*delta_0 + rho(x,t).

The two rows of a half-line snapshot are stitched together around the
origin: cell masses map exactly through the coordinate change (the
integral of u over a xi-cell equals the integral of rho over the cell's
x-image), the accumulated boundary outflux becomes the concentrated mass
m(t), and the cumulative distribution F carries a jump of height m at
x = 0.  The pseudo-inverse X(z) of F encodes the concentrated mass as a
plateau at zero.  ``check_entropy_measure`` reads seven of the paper's
statements off a series, one per violation kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conslaw import LEFT, RIGHT, SIGNS, HalfLineGrid, Snapshot
from .datum import InitialDatum, integrate_piecewise
from .frames import GammaConfig, dxi_dx, time_driftfree_to_original, x_of_xi

MASS_REL_TOL = 1e-10
# columns of measures.csv and original_frame.csv
MEASURE_COLUMNS = ["t", "dirac_mass", "ac_mass", "support_lo", "support_hi",
                   "w1_to_dirac"]
ORIGINAL_FRAME_COLUMNS = ["tau", "t_driftfree", "dirac_mass", "support_lo",
                          "support_hi", "support_diameter", "w1_to_dirac"]


@dataclass
class MeasureState:
    """Concentrated mass + sampled density at one instant.

    ``F_x``/``F_val`` are the breakpoints of the cumulative distribution,
    trimmed to the support; the Dirac mass appears as a vertical segment
    (two breakpoints with x = 0).  Density samples sit at the x-images of
    the xi-cell centers with their exact per-cell masses.
    """

    time: float
    dirac_mass: float
    total_mass: float
    x: np.ndarray
    rho: np.ndarray
    mass_weights: np.ndarray
    F_x: np.ndarray
    F_val: np.ndarray
    support: tuple
    sup_u_initial: float = 0.0

    @property
    def ac_mass(self) -> float:
        """Mass of the absolutely continuous part."""
        return float(self.mass_weights.sum())


@dataclass(frozen=True)
class Violation:
    kind: str
    time: float
    detail: str


@dataclass(frozen=True)
class GridGeometry:
    """The x-images of a run's cells, computed once per run.

    Row r of ``x_edges`` and ``x_centers`` is SIGNS[r] * x_of_xi of the
    grid's edges and centers, and ``dxi_dx`` is dxi/dx at the centers, the
    same for both rows (it reads |x|).  The maps are elementwise, so a
    snapshot's slice of these arrays has the bits of the maps evaluated on
    that slice.  They cover the cells up to the outermost one that carries
    mass in the snapshot they were computed from; see :func:`grid_geometry`.
    """

    grid: HalfLineGrid
    x_edges: np.ndarray
    x_centers: np.ndarray
    dxi_dx: np.ndarray


def grid_geometry(snap: Snapshot, cfg: GammaConfig) -> GridGeometry:
    """GridGeometry of ``snap``'s grid up to its outermost cell with mass.

    Every characteristic speed points to the origin, so a vacuum cell
    beyond the support stays vacuum: the first snapshot's geometry covers
    every later snapshot of the run.  Raises FloatingPointError where x(xi)
    underflows to 0 at a cell center.
    """
    occupied = np.flatnonzero((snap.cells > 0).any(axis=0))
    size = int(occupied[-1]) + 1 if occupied.size else 0
    x_edges = np.asarray(x_of_xi(snap.grid.edges[: size + 1], cfg))
    x_centers = np.asarray(x_of_xi(snap.grid.centers[:size], cfg))
    if np.any(x_centers == 0):  # cell centers sit at xi > 0; x(xi) underflowed
        raise FloatingPointError(
            f"x(xi) underflows to 0 at a cell center for gamma = {cfg.gamma}")
    signs = np.array(SIGNS)[:, None]
    return GridGeometry(snap.grid, signs * x_edges, signs * x_centers,
                        dxi_dx(x_centers, cfg))


def _side_breakpoints(snap: Snapshot, row: int, geometry: GridGeometry):
    """Ascending (x_edges, cell_masses, x_centers, dxi_dx, u_cells) for one
    row.

    Trailing vacuum beyond the outermost nonzero cell is trimmed so that the
    final breakpoint is the support edge.
    """
    u = snap.cells[row]
    nz = np.flatnonzero(u > 0)
    if nz.size == 0:
        return (np.empty(0),) * 5
    last = int(nz[-1])
    if last >= geometry.dxi_dx.size or geometry.grid != snap.grid:
        raise ValueError("the grid geometry does not cover the snapshot")
    side = (geometry.x_edges[row, : last + 2], u[: last + 1] * snap.grid.cell_width,
            geometry.x_centers[row, : last + 1], geometry.dxi_dx[: last + 1],
            u[: last + 1])
    if row == LEFT:  # reflected side: ascending order is reversed canonical order
        return tuple(a[::-1] for a in side)
    return side


def assemble(snap: Snapshot, cfg: GammaConfig,
             geometry: Optional[GridGeometry] = None) -> MeasureState:
    """Stitch the two rows of a half-line snapshot into one measure snapshot.

    A run passes the ``geometry`` of its first snapshot to every snapshot;
    without one, the snapshot's own is computed.
    """
    if geometry is None:
        geometry = grid_geometry(snap, cfg)
    dirac = snap.outflux_ledger[LEFT] + snap.outflux_ledger[RIGHT]
    row_mass = snap.mass
    total = dirac + row_mass[LEFT] + row_mass[RIGHT]

    lx_edges, lmass, lx_centers, ldxi, lu = _side_breakpoints(snap, LEFT, geometry)
    rx_edges, rmass, rx_centers, rdxi, ru = _side_breakpoints(snap, RIGHT, geometry)

    xs = [lx_edges if lx_edges.size else np.array([0.0])]
    vs = [np.concatenate([[0.0], np.cumsum(lmass)]) if lmass.size else np.array([0.0])]
    left_total = float(lmass.sum())
    # vertical segment at the origin encodes the concentrated mass
    xs.append(np.array([0.0]))
    vs.append(np.array([left_total + dirac]))
    if rmass.size:
        xs.append(rx_edges)
        vs.append(left_total + dirac + np.concatenate([[0.0], np.cumsum(rmass)]))
    F_x = np.concatenate(xs)
    F_val = np.concatenate(vs)

    x = np.concatenate([lx_centers, rx_centers])
    weights = np.concatenate([lmass, rmass])
    rho = np.concatenate([ldxi, rdxi]) * np.concatenate([lu, ru])
    return MeasureState(
        time=snap.time,
        dirac_mass=dirac,
        total_mass=total,
        x=x,
        rho=rho,
        mass_weights=weights,
        F_x=F_x,
        F_val=F_val,
        support=(float(F_x[0]), float(F_x[-1])),
        sup_u_initial=snap.sup_initial,
    )


def z_grid(ms: MeasureState, z_count: int) -> np.ndarray:
    """z_count points spaced uniformly over [0, ms.total_mass].

    A run builds one, over its first snapshot, for every snapshot: the
    total mass of later snapshots drifts in the last bits.
    """
    if z_count < 16:
        raise ValueError("z_count must be at least 16")
    return np.linspace(0.0, ms.total_mass, z_count)


def pseudo_inverse(ms: MeasureState, z: np.ndarray) -> np.ndarray:
    """The monotone rearrangement X(z) on [0, M]: the inversion of the
    cumulative distribution at each point of the z-grid ``z``.

    Flat stretches of F (vacuum) resolve to the infimum convention.  The
    concentrated mass m shows up as the plateau X = 0 on z in [a, a + m],
    a the absolutely continuous mass left of the origin.
    """
    F_x, F_val = ms.F_x, ms.F_val
    k = np.searchsorted(F_val, z, side="right")
    k = np.clip(k, 1, F_val.size - 1)
    denom = F_val[k] - F_val[k - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(denom > 0, (z - F_val[k - 1]) / denom, 0.0)
    w = np.clip(w, 0.0, 1.0)
    return F_x[k - 1] + w * (F_x[k] - F_x[k - 1])


def wasserstein_to_dirac(ms: MeasureState) -> float:
    """W1 distance to the fully condensed state M*delta_0.

    Transport to a point gives W1 = integral of |x| against the measure,
    i.e. the z-integral of |X| through the rearrangement.
    """
    return float(np.sum(ms.mass_weights * np.abs(ms.x)))


def measure_rows(ms_series) -> list:
    """Rows of MEASURE_COLUMNS, one per snapshot."""
    return [(ms.time, ms.dirac_mass, ms.ac_mass, ms.support[0], ms.support[1],
             wasserstein_to_dirac(ms)) for ms in ms_series]


def original_frame_series(rows, gamma: float) -> list:
    """Map rows of MEASURE_COLUMNS to rows of ORIGINAL_FRAME_COLUMNS in one
    dimension: tau = log(1 + gamma*t)/gamma, and supports and W1 contract
    by e^-tau.  The diameter hi - lo is a numpy subtraction, so that an
    overflow follows np.errstate as the other numpy operations do."""
    cfg = GammaConfig(gamma=gamma, dim=1)
    out = []
    for t, dirac, _, lo, hi, w1 in rows:
        tau = float(time_driftfree_to_original(t, cfg))
        shrink = math.exp(-tau)
        out.append((tau, t, dirac, lo * shrink, hi * shrink,
                    float(np.subtract(hi, lo)) * shrink, w1 * shrink))
    return out


def check_entropy_measure(ms_series, X_series, cfg: GammaConfig,
                          datum: Optional[InitialDatum] = None) -> list:
    """Structural diagnostics of a solution series: the list of every
    Violation found, in order of time.  ``X_series`` holds the output of
    ``pseudo_inverse`` for each snapshot.  Each kind checks one statement:

    - initial-datum: the projection matches the datum (cumulative
      distributions at the breakpoints, no Dirac mass; with a ``datum``);
    - mass-conservation: the ledger identity m + ac mass = M(0);
    - mass-monotonicity: m(t) never decreases;
    - decay-bound: the paper's sup bound
      rho |x|^(1/(1+gamma)) <= (1+gamma)^(-1/(1+gamma)) sup u0;
    - monotonicity: X, the output of ``pseudo_inverse``, is monotone;
    - continuity: on each side, no massless cell lies between cells with
      mass, nor, once m > 0, between the origin and the side's mass, so the
      support stays connected;
    - interior-slope: F is vertical (a zero-width step with a rise) only
      at x = 0, so mass concentrates only at the origin.
    """
    if len(ms_series) == 0 or len(ms_series) != len(X_series):
        raise ValueError("need matching non-empty snapshot series")
    times = [ms.time for ms in ms_series]
    if any(t2 <= t1 for t1, t2 in zip(times[:-1], times[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    violations = []
    g = cfg.gamma

    M = max(ms_series[0].total_mass, 1e-300)

    if datum is not None:
        ms0 = ms_series[0]
        F_ref = integrate_piecewise(datum, datum.a, ms0.F_x)
        sup_err = float(np.max(np.abs(F_ref - ms0.F_val)))
        if sup_err > 1e-8 * max(M, 1.0) or ms0.dirac_mass != 0.0:
            violations.append(Violation(
                "initial-datum", ms0.time,
                f"cumulative mismatch {sup_err:.3e} or nonzero initial Dirac mass"))

    decay_bound = (1 + g) ** (-1 / (1 + g))
    prev_m = -math.inf
    for ms, X in zip(ms_series, X_series):
        t = ms.time
        # both the per-snapshot closure and conservation across snapshots
        mass_err = max(abs(ms.dirac_mass + ms.ac_mass - ms.total_mass),
                       abs(ms.total_mass - ms_series[0].total_mass))
        if mass_err > MASS_REL_TOL * max(ms.total_mass, 1.0):
            violations.append(Violation(
                "mass-conservation", t, f"m + ac - M = {mass_err:.3e}"))
        if ms.dirac_mass < prev_m - 1e-12 * max(ms.total_mass, 1.0):
            violations.append(Violation(
                "mass-monotonicity", t,
                f"concentrated mass decreased from {prev_m} to {ms.dirac_mass}"))
        prev_m = max(prev_m, ms.dirac_mass)

        if ms.sup_u_initial > 0 and ms.x.size:
            lhs = ms.rho * np.abs(ms.x) ** (1 / (1 + g))
            bound = decay_bound * ms.sup_u_initial
            if float(lhs.max()) > bound * (1 + 1e-9):
                violations.append(Violation(
                    "decay-bound", t,
                    f"rho*|x|^(1/(1+gamma)) reached {lhs.max():.3e} > {bound:.3e}"))

        diam = max(ms.support[1] - ms.support[0], 1e-300)
        defect = float(max(0.0, -np.min(np.diff(X)))) if X.size > 1 else 0.0
        if defect > 1e-12 * diam:
            violations.append(Violation(
                "monotonicity", t, f"X decreases by {defect:.3e}"))

        # cell masses from mass_weights: F_val, their running sum, rounds
        # away cells far lighter than the mass before them, such as the
        # subnormal ones ahead of a shock that nears the origin
        n_left = int(np.count_nonzero(ms.x < 0))  # cells in ascending x
        has_mass = ms.mass_weights > 0
        occupied = np.flatnonzero(has_mass)
        split = int(np.searchsorted(occupied, n_left))
        for side, cells, origin in (("left", occupied[:split], n_left - 1),
                                    ("right", occupied[split:], n_left)):
            if cells.size == 0:
                continue
            lo, hi = int(cells[0]), int(cells[-1])
            if ms.dirac_mass > 0:  # the side's mass must reach the origin
                lo, hi = min(lo, origin), max(hi, origin)
            if hi - lo + 1 > cells.size:
                empty = lo + np.flatnonzero(~has_mass[lo: hi + 1])
                violations.append(Violation(
                    "continuity", t, f"{side} side: massless cells at x in "
                    f"[{ms.x[empty[0]]:.6g}, {ms.x[empty[-1]]:.6g}]"))
        for j in np.flatnonzero(np.diff(ms.F_x) == 0):  # zero-width steps of F
            rise = ms.F_val[j + 1] - ms.F_val[j]
            if rise > 0 and ms.F_x[j] != 0:
                violations.append(Violation(
                    "interior-slope", t,
                    f"F jumps by {rise:.3e} at x={ms.F_x[j]:.6g}, off the origin"))

    return violations


def trace_onset_time(times, values, threshold: float = 1e-2) -> tuple:
    """First of the recorded ``times`` at which each row's boundary trace,
    a column of the array ``values`` (one row per time), exceeds the
    threshold, as (left, right); inf for a row whose trace never does."""
    onsets = []
    for column in values.T:
        above = np.flatnonzero(column > threshold)
        onsets.append(float(times[above[0]]) if above.size else math.inf)
    return tuple(onsets)
