"""Independent references used only by the tests.

Exact Riemann solutions and the discrete total variation check the
Godunov scheme; a per-segment loop checks the vectorized datum
integration; a fixed-step RK4 integrator checks the closed-form
characteristics.  The per-value CSV writer checks its blocked
counterpart in ``cli``; ``eq_residual_l1`` measures how well sampled
pseudo-inverses satisfy their equation.
``step_reference`` is the straightforward Godunov step (unconditional
clips, the power, increment and update as plain expressions), and
``run_until_reference`` a frozen copy of the run loop that called a step
per step, driving ``step_reference``, that ``conslaw.run_until`` (and so
``conslaw.step``) must match bit for bit.  ``step_six_pass_reference`` is
the step as it was when it took ``np.power`` at every gamma and divided
the power by 1+gamma, which the step now stays within a stated ulp
distance of.
``assemble_reference`` is a frozen copy of ``measure.assemble`` when it
evaluated the coordinate maps on every snapshot, which the one-pass
version must match bit for bit.  ``check_entropy_measure_reference`` is a
frozen copy of ``measure.check_entropy_measure`` when it took the
differences, slopes and interior mask of each pseudo-inverse up to three
times and had nine kinds, and read ``continuity`` and ``interior-slope``
off X with tolerances; its two slope thresholds and its interior mask,
which ``eq_residual_l1`` uses too, are frozen here.  Two kinds,
``oleinik`` (slope-jump admissibility) and ``edge-slope``, flagged valid
runs and are gone from ``measure``; on valid runs the seven kept kinds
must give its list without them.
``VERIFY_REPORTS`` freezes the verify report text of the five-run
``verify``.  ``rho_explicit`` is the closed-form density of the block,
which ``oracle`` gives as u and X only, and ``X_unit_mass`` and
``mass_unit_mass`` read the block solution in the unit-mass scale.  None
of these is used by the library itself.  ``right_row_state`` builds the
one-sided states the scheme tests step.
``evaluate_smooth_grid_reference`` is a frozen copy of
``characteristics.evaluate_smooth_grid`` when it ran all FOOT_HALVINGS
halvings on every foot bracket, support-edge fans included, which the
version that gives fan points their final bracket without bisecting must
match bit for bit.
"""

import math

import numpy as np

from condrift import characteristics
from condrift.characteristics import (
    NotSmoothRegime,
    advance,
    blow_up_time,
    first_shock_time,
)
from condrift.conslaw import (
    LEFT,
    MAX_CELL_STEPS,
    RIGHT,
    SIGNS,
    CflViolation,
    HalfLineState,
    Snapshot,
    WorkBudgetExceeded,
    stable_dt,
)
from condrift.datum import integrate_piecewise
from condrift.frames import dxi_dx, x_of_xi
from condrift.measure import (
    MASS_REL_TOL,
    MeasureState,
    Violation,
    pseudo_inverse,
    z_grid,
)
from condrift.oracle import X_explicit, mass_explicit


def rho_explicit(x, t, gamma: float):
    """Density rho(x, t) of the explicit solution of the unit-height block
    on [0, 1/(1+gamma)]: a plateau, a rarefaction fan and vacuum."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = gamma
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    # plateau-branch x-boundary is the image of the fan edge,
    # (1 - gamma*t)^((1+gamma)/gamma) / (1+gamma)
    xb = (1.0 - g * t) ** ((1.0 + g) / g) / (1.0 + g) if t < 1.0 / g else 0.0
    if t > 0:
        fan = (xs >= xb) & (xs <= 1.0 / (1.0 + g))
        xf = xs[fan]
        with np.errstate(divide="ignore"):
            val = ((((1.0 + g) * xf) ** (-g / (1.0 + g)) - 1.0) / (g * t)) ** (1.0 / g)
        out[fan] = val
    if t < 1.0 / g:
        plateau = (xs >= 0) & (xs <= xb)
        out[plateau] = (1.0 / (1.0 - g * t)) ** (1.0 / g)
    return out if np.ndim(x) else float(out[0])


# The unit-mass block on [0, 1] is the exact dilation xi -> lam*xi,
# u -> lam^(1/gamma)*u, lam = (1+gamma)^(gamma/(1+gamma)), of the
# unit-height block; in x, z and the mass it is the factor 1+gamma.

def X_unit_mass(z, t, gamma: float):
    """X(z, t) of the unit-mass block, z in [0, 1]: (1+gamma)*X(z/(1+gamma))."""
    return (1.0 + gamma) * X_explicit(np.asarray(z, dtype=float) / (1.0 + gamma),
                                      t, gamma)


def mass_unit_mass(t, gamma: float):
    """Concentrated mass of the unit-mass block, 1 - (gamma*t)^(-1/gamma)
    after 1/gamma: (1+gamma)*m."""
    return (1.0 + gamma) * mass_explicit(t, gamma)


def riemann_exact(u_l: float, u_r: float, xi_over_t: float, cfg) -> float:
    """Self-similar entropy solution of the canonical Riemann problem.

    The flux -u^(1+gamma)/(1+gamma) is concave on u >= 0, so a jump is an
    admissible shock iff u_l <= u_r (speed from the Rankine-Hugoniot
    condition); otherwise the jump opens into the rarefaction fan
    u = (-xi/t)^(1/gamma) between speeds -u_l^gamma and -u_r^gamma.
    """
    if u_l < 0 or u_r < 0:
        raise ValueError("Riemann data must be nonnegative")
    g = cfg.gamma
    if u_l == u_r:
        return u_l
    if u_l < u_r:  # admissible shock
        s = -(u_r ** (1 + g) - u_l ** (1 + g)) / ((1 + g) * (u_r - u_l))
        return u_l if xi_over_t < s else u_r
    # rarefaction between speeds -u_l^gamma < -u_r^gamma
    if xi_over_t <= -(u_l**g):
        return u_l
    if xi_over_t >= -(u_r**g):
        return u_r
    return (-xi_over_t) ** (1 / g)


def total_variation(u: np.ndarray) -> float:
    """Discrete total variation of one row, including the jumps to vacuum
    at both ends."""
    return float(u[0] + np.abs(np.diff(u)).sum() + u[-1])


def integrate_segments(datum, lo: float, hi: float) -> float:
    """Integral of a piecewise datum over [lo, hi], one breakpoint segment
    at a time: midpoint value times width for constant data, trapezoid for
    linear data (both exact on a segment)."""
    lo, hi = max(lo, datum.a), min(hi, datum.b)
    if hi <= lo:
        return 0.0
    bp = datum.breakpoints
    cuts = np.unique(np.concatenate([[lo, hi], bp[(bp > lo) & (bp < hi)]]))
    total = 0.0
    for p, q in zip(cuts[:-1], cuts[1:]):
        if datum.kind == "constant":
            total += float(datum(0.5 * (p + q))) * (q - p)
        else:
            total += 0.5 * (float(datum(p)) + float(datum(q))) * (q - p)
    return total


def right_row_state(grid, cells) -> HalfLineState:
    """Two-row state whose right row holds ``cells`` and whose left row is empty."""
    cells = np.asarray(cells, dtype=float)
    return HalfLineState(grid=grid, cells=np.stack([np.zeros_like(cells), cells]))


def rk4_characteristics(x0, u0, t, gamma, dim, steps=4000):
    """Fixed-step fourth-order integration of the characteristic system
    x' = -(1+gamma) x u^gamma, u' = dim u^(1+gamma) up to time t.

    Every argument may be an array of cases; returns (position, value).
    """
    x0, u0, t, gamma, dim = (np.asarray(a, dtype=float) for a in (x0, u0, t, gamma, dim))

    def rhs(y):
        pos, val = y
        return np.array([-(1 + gamma) * pos * val**gamma,
                         dim * val ** (1 + gamma)])

    y = np.array([x0, u0])
    h = t / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


REFERENCE_EDGE_EXCLUDE_CELLS = 2


def _plateau(ms) -> tuple:
    """The z-range (a, a + m) of the plateau X = 0, a the absolutely
    continuous mass left of the origin, as ``measure.pseudo_inverse``
    computed it when it returned one."""
    F_x, F_val = ms.F_x, ms.F_val
    left_ac = float(F_val[np.nonzero(F_x < 0)[0][-1] + 1]) if np.any(F_x < 0) else 0.0
    return left_ac, left_ac + ms.dirac_mass


def _interior_mask(X: np.ndarray, z: np.ndarray, plateau: tuple,
                   x_tol: float) -> np.ndarray:
    """Nodes of the pseudo-inverse X on the z-grid z away from the plateau
    (one-cell buffer) and the support edges."""
    dz = z[1] - z[0]
    mask = np.ones(z.size, dtype=bool)
    mask[: REFERENCE_EDGE_EXCLUDE_CELLS] = False
    mask[-REFERENCE_EDGE_EXCLUDE_CELLS:] = False
    z_lo, z_hi = plateau
    mask &= ~((z >= z_lo - dz) & (z <= z_hi + dz))
    mask &= np.abs(X) > x_tol
    return mask


def eq_residual_l1(ms_series, X_series, z: np.ndarray, gamma: float) -> list:
    """(t1, L1) per pair of consecutive snapshots, their pseudo-inverses
    ``X_series`` on the one z-grid ``z``: the discrete L1 norm of the
    pseudo-inverse equation residual X_t |X_z|^gamma + X, off the plateaus
    and the support edges."""
    diam0 = max(ms_series[0].support[1] - ms_series[0].support[0], 1e-300)
    x_tol = 1e-9 * diam0
    residuals = []
    dz = z[1] - z[0]
    for (ms1, X1), (ms2, X2) in zip(zip(ms_series[:-1], X_series[:-1]),
                                    zip(ms_series[1:], X_series[1:])):
        dt = ms2.time - ms1.time
        Xt = (X2 - X1) / dt
        Xz = np.gradient(X1, dz)
        resid = Xt * np.abs(Xz) ** gamma + X1
        mask = _interior_mask(X1, z, _plateau(ms1), x_tol) & _interior_mask(
            X1, z, _plateau(ms2), x_tol)
        residuals.append((ms1.time, float(np.sum(np.abs(resid[mask])) * dz)))
    return residuals


def _side_breakpoints_reference(snap, row: int, cfg):
    u = snap.cells[row]
    sign = SIGNS[row]
    nz = np.nonzero(u > 0)[0]
    if nz.size == 0:
        return (np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    last = int(nz[-1])
    edges = snap.grid.edges[: last + 2]
    centers = snap.grid.centers[: last + 1]
    masses = u[: last + 1] * snap.grid.cell_width
    x_edges = sign * np.asarray(x_of_xi(edges, cfg))
    x_centers = sign * np.asarray(x_of_xi(centers, cfg))
    if row == LEFT:
        return (x_edges[::-1], masses[::-1], x_centers[::-1], u[: last + 1][::-1])
    return (x_edges, masses, x_centers, u[: last + 1])


def assemble_reference(snap, cfg) -> MeasureState:
    """``measure.assemble`` as it was when it evaluated x(xi) and dxi/dx on
    each snapshot's own cells."""
    dirac = snap.outflux_ledger[LEFT] + snap.outflux_ledger[RIGHT]
    row_mass = snap.mass
    total = dirac + row_mass[LEFT] + row_mass[RIGHT]

    lx_edges, lmass, lx_centers, lu = _side_breakpoints_reference(snap, LEFT, cfg)
    rx_edges, rmass, rx_centers, ru = _side_breakpoints_reference(snap, RIGHT, cfg)

    xs = [lx_edges if lx_edges.size else np.array([0.0])]
    vs = [np.concatenate([[0.0], np.cumsum(lmass)]) if lmass.size else np.array([0.0])]
    left_total = float(lmass.sum())
    xs.append(np.array([0.0]))
    vs.append(np.array([left_total + dirac]))
    if rmass.size:
        xs.append(rx_edges)
        vs.append(left_total + dirac + np.concatenate([[0.0], np.cumsum(rmass)]))
    F_x = np.concatenate(xs)
    F_val = np.concatenate(vs)

    x = np.concatenate([lx_centers, rx_centers])
    u_vals = np.concatenate([lu, ru])
    weights = np.concatenate([lmass, rmass])
    if np.any(x == 0):
        raise FloatingPointError(
            f"x(xi) underflows to 0 at a cell center for gamma = {cfg.gamma}")
    rho = dxi_dx(x, cfg) * u_vals if x.size else np.empty(0)
    return MeasureState(time=snap.time, dirac_mass=dirac, total_mass=total, x=x,
                        rho=rho, mass_weights=weights, F_x=F_x, F_val=F_val,
                        support=(float(F_x[0]), float(F_x[-1])))


REFERENCE_SLOPE_JUMP_RATIO = 3.0
REFERENCE_EDGE_SLOPE_FACTOR = 5.0


def _oleinik_flags_reference(ms, X, z, x_tol: float):
    s = np.diff(X) / (z[1] - z[0])
    interior = _interior_mask(X, z, _plateau(ms), x_tol)
    floor = 1e-12 * max(np.max(np.abs(X)), 1.0)
    j = np.flatnonzero(interior[:-2] & interior[1:-1]
                       & (s[:-1] > floor) & (s[1:] > floor)) + 1
    ratio = s[j] / s[j - 1]
    inadmissible = (((ratio > REFERENCE_SLOPE_JUMP_RATIO) & (X[j] > x_tol))
                    | ((ratio < 1.0 / REFERENCE_SLOPE_JUMP_RATIO) & (X[j] < -x_tol)))
    return list(zip(j[inadmissible].tolist(), ratio[inadmissible]))


def check_entropy_measure_reference(ms_series, X_series, z_series, cfg,
                                    sup_initial, datum=None) -> list:
    """``measure.check_entropy_measure`` as it was when it took np.diff(X),
    the slopes and the interior mask of a snapshot up to three times, with
    the ``edge-slope`` and ``oleinik`` kinds it has since dropped.  Each
    snapshot's pseudo-inverse is X_series[i] on the z-grid z_series[i], as
    the z-grid was built per snapshot then."""
    if len(ms_series) == 0 or len(ms_series) != len(X_series):
        raise ValueError("need matching non-empty snapshot series")
    times = [ms.time for ms in ms_series]
    if any(t2 <= t1 for t1, t2 in zip(times[:-1], times[1:])):
        raise ValueError("snapshot times must be strictly increasing")
    violations = []
    g = cfg.gamma

    M = max(ms_series[0].total_mass, 1e-300)
    diam0 = max(ms_series[0].support[1] - ms_series[0].support[0], 1e-300)
    x_tol = 1e-9 * diam0

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
    for ms, X, z in zip(ms_series, X_series, z_series):
        t = ms.time
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

        if sup_initial > 0 and ms.x.size:
            lhs = ms.rho * np.abs(ms.x) ** (1 / (1 + g))
            bound = decay_bound * sup_initial
            if float(lhs.max()) > bound * (1 + 1e-9):
                violations.append(Violation(
                    "decay-bound", t,
                    f"rho*|x|^(1/(1+gamma)) reached {lhs.max():.3e} > {bound:.3e}"))

        dz = z[1] - z[0]
        diam = max(ms.support[1] - ms.support[0], 1e-300)
        defect = float(max(0.0, -np.min(np.diff(X)))) if X.size > 1 else 0.0
        if defect > 1e-12 * diam:
            violations.append(Violation(
                "monotonicity", t, f"X decreases by {defect:.3e}"))

        interior = _interior_mask(X, z, _plateau(ms), x_tol)
        pair = interior[:-1] & interior[1:]
        if np.any(pair):
            gaps = np.diff(X)[pair]
            gap_tol = 10.0 * diam * (dz / ms.total_mass) ** (g / (1 + g))
            if float(gaps.max()) > gap_tol:
                violations.append(Violation(
                    "continuity", t,
                    f"interior gap {gaps.max():.3e} exceeds {gap_tol:.3e}"))
            if float(gaps.min()) <= 0.0:
                j = int(np.nonzero(pair)[0][np.argmin(gaps)])
                if abs(X[j]) > x_tol:
                    violations.append(Violation(
                        "interior-slope", t,
                        f"zero slope off the plateau at z={z[j]:.6f}, X={X[j]:.3e}"))

        slopes = np.diff(X) / dz
        pos = slopes[pair & (slopes > 0)] if np.any(pair) else np.array([])
        median_slope = float(np.median(pos)) if pos.size else 0.0
        if median_slope > 0 and t > 0:
            if X[0] < -x_tol and slopes[0] < REFERENCE_EDGE_SLOPE_FACTOR * median_slope:
                violations.append(Violation(
                    "edge-slope", t,
                    f"left edge slope {slopes[0]:.3e} not steep vs median {median_slope:.3e}"))
            if X[-1] > x_tol and slopes[-1] < REFERENCE_EDGE_SLOPE_FACTOR * median_slope:
                violations.append(Violation(
                    "edge-slope", t,
                    f"right edge slope {slopes[-1]:.3e} not steep vs median {median_slope:.3e}"))

        flags = _oleinik_flags_reference(ms, X, z, x_tol) if t > 0 else []
        if flags:
            z_c = z_grid(ms, max(16, z.size // 2))
            coarse_flags = _oleinik_flags_reference(ms, pseudo_inverse(ms, z_c), z_c,
                                                    x_tol)
            coarse_z = [z_c[j] for j, _ in coarse_flags]
            dz_c = z_c[1] - z_c[0]
            for j, ratio in flags:
                if any(abs(z[j] - zc) <= 2 * dz_c for zc in coarse_z):
                    violations.append(Violation(
                        "oleinik", t,
                        f"inadmissible slope jump (ratio {ratio:.2f}) at "
                        f"z={z[j]:.6f}, X={X[j]:.3e}"))

    return violations


def write_csv_per_value(path, header, rows) -> None:
    """CSV with every value written by format(float(v), ".17g")."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


REFERENCE_CLIP_TOL = 1e-13
REFERENCE_EPS_SPEED = 1e-14


def _clip_roundoff_reference(u: np.ndarray, what: str) -> None:
    if not u.min(initial=0.0) >= -REFERENCE_CLIP_TOL:
        raise FloatingPointError(f"{what}: negative or NaN cell average")
    np.maximum(u, 0.0, out=u)


def _flux_reference(u: np.ndarray, gamma: float) -> np.ndarray:
    if u.min(initial=0.0) < 0:
        raise ValueError("flux requires u >= 0")
    return u ** (1 + gamma) / (1 + gamma)


def _power_reference(u: np.ndarray, gamma: float) -> np.ndarray:
    """u^(1+gamma), as products at gamma = 1, 2 and 3."""
    if u.min(initial=0.0) < 0:
        raise ValueError("power requires u >= 0")
    if gamma == 1.0:
        return u * u
    if gamma == 2.0:
        return u * u * u
    if gamma == 3.0:
        return (u * u) * (u * u)
    return u ** (1 + gamma)


def _speed_reference(peak: float, gamma: float) -> float:
    """peak^gamma, as products at gamma = 1, 2 and 3."""
    if gamma == 1.0:
        return peak
    if gamma == 2.0:
        return peak * peak
    if gamma == 3.0:
        return peak * peak * peak
    return peak ** gamma


def stepped_rows_reference(cells: np.ndarray) -> slice:
    """The rows from the first through the last that hold a cell that is
    not +0.0: nonzero, NaN or -0.0."""
    occupied = [row for row in range(cells.shape[0])
                if np.any((cells[row] != 0) | np.signbit(cells[row]))]
    return slice(occupied[0], occupied[-1] + 1) if occupied else slice(0, 0)


def _record_step(state, rows, dt: float, outflux: np.ndarray) -> None:
    """The ledger, time, trace and ledger history after a step of ``dt``
    whose rows fed ``outflux`` into the origin."""
    state.outflux_ledger[rows] += dt * outflux
    state.time += dt
    state.trace_times = np.append(state.trace_times, state.time)
    state.trace_values = np.vstack([state.trace_values, state.cells[:, 0]])
    state.ledger_history = np.vstack([state.ledger_history, state.outflux_ledger])


def step_reference(state, cfl: float, cfg, dt_cap=None):
    """One Godunov update of ``state`` in place, written without any pass
    saved: stepped rows, clip, CFL dt, power, increment, update scaled by
    dt / (dxi (1+gamma)), clip, ledger, trace and the ledger's history."""
    if not 0 < cfl <= 1:
        raise CflViolation(f"cfl must be in (0, 1], got {cfl}")
    rows = stepped_rows_reference(state.cells)
    u = state.cells[rows]
    _clip_roundoff_reference(u, "state before the update")
    speed = _speed_reference(float(state.cells[rows].max(initial=0.0)), cfg.gamma)
    dt = cfl * state.grid.cell_width / max(speed, REFERENCE_EPS_SPEED)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    power = _power_reference(u, cfg.gamma)
    increment = -power
    increment[:, :-1] += power[:, 1:]
    u += (dt / (state.grid.cell_width * (1 + cfg.gamma))) * increment
    _clip_roundoff_reference(u, "monotone update")
    _record_step(state, rows, dt, power[:, 0] / (1 + cfg.gamma))
    return state


def step_six_pass_reference(state, cfl: float, cfg):
    """``step_reference`` as it was when the step took ``u ** (1+gamma)``
    and ``peak ** gamma`` at every gamma and divided the power by 1+gamma
    before the increment: the flux, its increment, and the update scaled
    by dt / dxi."""
    rows = stepped_rows_reference(state.cells)
    u = state.cells[rows]
    _clip_roundoff_reference(u, "state before the update")
    speed = float(state.cells[rows].max(initial=0.0)) ** cfg.gamma
    dt = cfl * state.grid.cell_width / max(speed, REFERENCE_EPS_SPEED)
    flux = _flux_reference(u, cfg.gamma)
    increment = -flux
    increment[:, :-1] += flux[:, 1:]
    u += (dt / state.grid.cell_width) * increment
    _clip_roundoff_reference(u, "monotone update")
    _record_step(state, rows, dt, flux[:, 0])
    return state


def output_times_reference(t0: float, t_end: float, cadence: float) -> list:
    """The output times of ``run_until_reference``, one k at a time: t0,
    then t0 + k*cadence while short of t_end by more than tiny, then t_end
    if t_end > t0."""
    tiny = 1e-12 * max(1.0, abs(t_end))
    times, k = [t0], 1
    while (time := t0 + k * cadence) < t_end - tiny:
        times.append(time)
        k += 1
    return times + [t_end] if t_end > t0 else times


def run_until_reference(state, t_end: float, cfl: float, cfg, observer=None, cadence=None):
    """``run_until`` as it was when it called one step per step, driving
    ``step_reference``: it copies the cells and the ledger before every
    step when an observer is set.  Snapshots fall at t0, at t0 + k*cadence
    short of t_end by more than tiny, and at t_end if t_end > t0."""
    if t_end < state.time:
        raise ValueError("t_end precedes the current state time")
    if observer is not None and (cadence is None or cadence <= 0):
        raise ValueError("observer requires a positive cadence")
    if cfl > 0:  # otherwise step raises CflViolation
        steps = np.ceil((t_end - state.time) / stable_dt(state, cfl))
        cell_steps = state.cells[stepped_rows_reference(state.cells)].size * steps
        if cell_steps > MAX_CELL_STEPS:
            raise WorkBudgetExceeded(
                f"about {cell_steps:.3g} cell-steps exceed the cell-step budget "
                f"of {MAX_CELL_STEPS:.3g}; lower t_end or grid_cells")
    tiny = 1e-12 * max(1.0, abs(t_end))
    t0, k = state.time, 1
    next_snap = state.time
    if observer is not None:
        observer(state.snapshot())
        next_snap += cadence
    prev_cells = None
    prev_time = state.time
    prev_ledger = state.outflux_ledger
    while t_end - state.time > tiny:
        if observer is not None:
            prev_cells = state.cells.copy()
            prev_time = state.time
            prev_ledger = state.outflux_ledger.copy()
        step_reference(state, cfl, cfg, dt_cap=t_end - state.time)
        if observer is not None:
            while next_snap <= state.time + tiny and next_snap < t_end - tiny:
                w = 0.0 if state.time == prev_time else (
                    (next_snap - prev_time) / (state.time - prev_time))
                observer(Snapshot(state.grid,
                                  (1 - w) * prev_cells + w * state.cells,
                                  next_snap,
                                  (1 - w) * prev_ledger + w * state.outflux_ledger))
                k += 1
                next_snap = t0 + k * cadence
    state.time = t_end
    if observer is not None and t0 < t_end:
        observer(state.snapshot())
    return state


def evaluate_smooth_grid_reference(xs, t, datum, cfg) -> np.ndarray:
    """Density values at the points ``xs`` at the time t, or at each time
    of a 1-D array t: FOOT_HALVINGS bisection halvings of every foot
    bracket, in blocks of whole rows of at most BLOCK_POINTS brackets."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a time or a 1-D array of times")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
    late = times >= horizon
    if np.any(late):
        raise NotSmoothRegime(f"t={times[late][0]} is at or past the smooth horizon {horizon}")
    xs = np.asarray(xs, dtype=float)
    g, d = cfg.gamma, cfg.dim
    # a time too small for gamma*d*t to leave 0, as t = 0, moves nothing
    rates = g * d * times.ravel()
    flat = xs.ravel()
    out = np.zeros((rates.size, flat.size))
    out[rates == 0.0] = datum(flat)
    inside = (flat >= datum.a) & (flat <= datum.b) & (flat != 0)
    origin = flat == 0
    x = flat[inside]
    right = x > 0
    lo0 = np.where(right, max(datum.a, 0.0), np.nextafter(datum.a, -np.inf))
    hi0 = np.where(right, np.nextafter(datum.b, np.inf), min(datum.b, 0.0))
    moving = np.flatnonzero(rates > 0.0)
    per_block = max(1, characteristics.BLOCK_POINTS // max(x.size, 1))
    for first in range(0, moving.size, per_block):
        block = moving[first:first + per_block]
        rate = rates[block, None]
        lo, hi = lo0, hi0
        for _ in range(characteristics.FOOT_HALVINGS):
            mid = 0.5 * (lo + hi)
            below = mid * (1.0 - rate * datum(mid) ** g) ** ((1 + g) / (g * d)) <= x
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        f_lo, f_hi = datum(lo), datum(hi)
        # the end away from the origin is never 0; clipped, it is the exact
        # support edge when the bracket straddles one
        x0 = np.clip(np.where(right, hi, lo), datum.a, datum.b)
        s = (x / x0) ** (g * d / (1 + g))
        # at a tiny t the roundoff of 1 - s over the rate can pass the
        # largest float; the clip then takes the datum value
        with np.errstate(over="ignore"):
            u0 = np.clip(((1.0 - s) / rate) ** (1 / g),
                         np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi))
        values = np.zeros((block.size, flat.size))
        values[:, inside] = u0 / (1.0 - rate * u0**g) ** (1 / g)
        values[:, origin] = [[advance(0.0, float(t), datum, cfg).value]
                             for t in times.ravel()[block]]
        out[block] = values
    return out.reshape(times.shape + xs.shape)

# verify_report.txt of `condrift verify` on example36 with grid_cells =
# z_count, keyed by (gamma, grid_cells), as written when verify made five
# solver runs: one per convergence size, the law run and a unit-mass block
# run for the pseudo-inverse row.  Reading the convergence size
# grid_cells and the pseudo-inverse row off the law run must keep these
# bytes.  The onset row reads INFO where its tolerance is at least
# 1/gamma, which passes every onset in [0, 1/gamma]; the five-run text
# read PASS there.
VERIFY_REPORTS = {
    (0.5, 256): (
        'check                                      status measured           target\n'
        'L1 convergence order vs explicit u         FAIL   0.762              >= 0.8\n'
        'trace onset time vs 1/gamma                PASS   1.79372            2.00000 +/- 0.68\n'
        'condensed-mass law rel error               FAIL   0.0217             <= 0.01\n'
        'pseudo-inverse Linf vs explicit X          FAIL   3.26e-02           <= 1e-2\n'
        'entropy-measure diagnostics                PASS   0 violations       0\n'
    ),
    (1.0, 256): (
        'check                                      status measured           target\n'
        'L1 convergence order vs explicit u         FAIL   0.776              >= 0.8\n'
        'trace onset time vs 1/gamma                INFO   0.59958            1.00000 +/- 3.2\n'
        'condensed-mass law rel error               FAIL   0.0198             <= 0.01\n'
        'pseudo-inverse Linf vs explicit X          FAIL   1.79e-02           <= 1e-2\n'
        'entropy-measure diagnostics                PASS   0 violations       0\n'
    ),
    (2.0, 256): (
        'check                                      status measured           target\n'
        'L1 convergence order vs explicit u         FAIL   0.757              >= 0.8\n'
        'trace onset time vs 1/gamma                INFO   0.00000            0.50000 +/- 1.6e+02\n'
        'condensed-mass law rel error               FAIL   0.0179             <= 0.01\n'
        'pseudo-inverse Linf vs explicit X          PASS   8.23e-03           <= 1e-2\n'
        'entropy-measure diagnostics                PASS   0 violations       0\n'
    ),
    (1.0, 64): (
        'check                                      status measured           target\n'
        'L1 convergence order vs explicit u         INFO   0.776              >= 0.8\n'
        'trace onset time vs 1/gamma                INFO   0.07856            1.00000 +/- 13\n'
        'condensed-mass law rel error               INFO   0.0558             <= 0.01\n'
        'pseudo-inverse Linf vs explicit X          INFO   6.13e-02           <= 1e-2\n'
        'entropy-measure diagnostics                PASS   0 violations       0\n'
    ),
}
