"""Smooth-regime solver via the closed-form characteristic system.

Along the curve started at x0 the density value and position obey

    dU/dt = d * U^(1+gamma),          U(0) = f_I(x0),
    dX/dt = -(1+gamma) * X * U^gamma, X(0) = x0,

whose solution is explicit.  Works in any dimension d >= 1; for d >= 2 the
datum must be radial and the coordinate is the radius.  Everything here is
valid only before the first shock / blow-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import InitialDatum, jumps
from .frames import GammaConfig

SHOCK_SCAN_FEET = 4096
SHOCK_REFINE_TOL = 1e-6
# halvings of each foot bracket: a unit bracket shrinks to 5e-20, below
# the float spacing of any foot beyond 1e-3
FOOT_HALVINGS = 64


class BlowUpReached(RuntimeError):
    """Requested time is at or past the blow-up time of this characteristic."""


class ZeroDatum(ValueError):
    """Operation requires a datum with positive sup."""


class NotSmoothRegime(RuntimeError):
    """Requested time is past the smooth-solution validity window."""


@dataclass(frozen=True)
class CharacteristicState:
    """Foot x0, current position X_{x0}(t), value U_{x0}(t), and time."""

    x0: float
    position: float
    value: float
    time: float


def advance(x0: float, t: float, datum: InitialDatum, cfg: GammaConfig) -> CharacteristicState:
    """Closed-form characteristic state at time t for the foot x0."""
    g, d = cfg.gamma, cfg.dim
    u0 = float(datum(x0))
    if u0 == 0.0:
        return CharacteristicState(x0=x0, position=x0, value=0.0, time=t)
    shrink = 1.0 - g * d * u0**g * t
    if shrink <= 0.0:
        raise BlowUpReached(
            f"characteristic from x0={x0} blows up at t={1.0 / (g * d * u0**g)}"
        )
    return CharacteristicState(
        x0=x0,
        position=x0 * shrink ** ((1 + g) / (g * d)),
        value=u0 / shrink ** (1 / g),
        time=t,
    )


def blow_up_time(datum: InitialDatum, cfg: GammaConfig) -> float:
    """t* = 1 / (gamma * d * (sup f_I)^gamma).

    Exact smooth-breakdown time for radially non-increasing data; otherwise
    an upper bound (a shock may form earlier, see :func:`first_shock_time`).
    """
    if datum.sup_value <= 0:
        raise ZeroDatum("blow-up time undefined for an identically zero datum")
    return 1.0 / (cfg.gamma * cfg.dim * datum.sup_value**cfg.gamma)


def first_shock_time(datum: InitialDatum, cfg: GammaConfig) -> float:
    """Earliest crossing time of 1-D characteristics, or inf if none before blow-up.

    The datum is 0 outside [a, b].  A jump at p != 0 with
    p*(f(p+) - f(p-)) > 0 (larger values farther from the origin) is a
    shock at t = 0, so the result is 0.0.  Otherwise the Jacobian of the
    foot-to-position map vanishes first at

        t(x0) = 1 / (gamma*f^gamma + (1+gamma)*x0*(f^gamma)'(x0)),

    which undercuts the local blow-up time exactly where x0*(f^gamma)' > 0.
    Feet are scanned on a fine grid with local bisection refinement, so the
    result is approximate at the SHOCK_REFINE_TOL scale.
    """
    if cfg.dim != 1:
        raise ValueError("shock detection is implemented for dim = 1 only")
    points, before, after = jumps(datum)
    if np.any((points != 0) & (points * (after - before) > 0)):
        return 0.0
    lo, hi = datum.a, datum.b
    pad = 1e-9 * (hi - lo)
    feet = np.linspace(lo + pad, hi - pad, SHOCK_SCAN_FEET)

    def candidate_times(x0):
        f = np.asarray(datum(x0), dtype=float)
        fp = np.asarray(datum.deriv(x0), dtype=float)
        g = cfg.gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            fg_prime = np.where(f > 0, g * f ** (g - 1) * fp, 0.0)
            denom = g * f**g + (1 + g) * x0 * fg_prime
            times = np.where(
                (x0 * fg_prime > 0) & np.isfinite(denom) & (denom > 0),
                1.0 / denom,
                np.inf,
            )
        return times

    times = candidate_times(feet)
    best = float(np.min(times))
    if not np.isfinite(best):
        return math.inf
    # bisection-style refinement around the best foot
    idx = int(np.argmin(times))
    left = feet[max(idx - 1, 0)]
    right = feet[min(idx + 1, feet.size - 1)]
    while right - left > 0:
        sub = np.linspace(left, right, 17)
        sub_t = candidate_times(sub)
        j = int(np.argmin(sub_t))
        new_best = float(sub_t[j])
        improved = best - new_best
        best = min(best, new_best)
        left, right = sub[max(j - 1, 0)], sub[min(j + 1, sub.size - 1)]
        if improved < SHOCK_REFINE_TOL * max(best, 1.0):
            break
    return best


def evaluate_smooth_grid(xs, t: float, datum: InitialDatum, cfg: GammaConfig,
                         horizon: float | None = None) -> np.ndarray:
    """Density values at the points ``xs`` at time t in the smooth regime.

    The foot x0 of each point is bracketed on the point's own side of the
    origin, with the outer end one float outside the support, and the
    monotone foot map x0 -> x0*(1 - gamma*d*f(x0)^gamma*t)^((1+gamma)/(gamma*d))
    is inverted for all points at once by FOOT_HALVINGS bisection halvings.
    The characteristic from the final bracket that reaches x starts with
    u0^gamma = (1 - S)/(gamma*d*t), S = (x/x0)^(gamma*d/(1+gamma)); u0 is
    clipped to the datum values at the two bracket ends.  At a continuity
    point this pins u0 to f(x0); at a downward jump, including a support
    edge, it gives the centered rarefaction fan.  Points outside the
    support are 0.

    ``horizon`` is the smooth horizon min(blow_up_time, first_shock_time)
    of this datum; a caller that evaluates several times passes it to
    compute it once, and it is computed here when omitted.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if horizon is None:
        horizon = blow_up_time(datum, cfg)
        if cfg.dim == 1:
            horizon = min(horizon, first_shock_time(datum, cfg))
    if t >= horizon:
        raise NotSmoothRegime(f"t={t} is past the smooth horizon {horizon}")
    xs = np.asarray(xs, dtype=float)
    if t == 0.0:
        return datum(xs)
    g, d = cfg.gamma, cfg.dim
    rate = g * d * t
    out = np.zeros_like(xs)
    inside = (xs >= datum.a) & (xs <= datum.b) & (xs != 0)
    x = xs[inside]
    right = x > 0
    lo = np.where(right, max(datum.a, 0.0), np.nextafter(datum.a, -np.inf))
    hi = np.where(right, np.nextafter(datum.b, np.inf), min(datum.b, 0.0))
    for _ in range(FOOT_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = mid * (1.0 - rate * datum(mid) ** g) ** ((1 + g) / (g * d)) <= x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    f_lo, f_hi = datum(lo), datum(hi)
    # the end away from the origin is never 0; clipped, it is the exact
    # support edge when the bracket straddles one
    x0 = np.clip(np.where(right, hi, lo), datum.a, datum.b)
    s = (x / x0) ** (g * d / (1 + g))
    u0 = np.clip(((1.0 - s) / rate) ** (1 / g),
                 np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi))
    out[inside] = u0 / (1.0 - rate * u0**g) ** (1 / g)
    out[xs == 0] = advance(0.0, t, datum, cfg).value
    return out
