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

# halvings of each foot bracket: a unit bracket shrinks to 5e-20, below
# the float spacing of any foot beyond 1e-3
FOOT_HALVINGS = 64


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
        raise NotSmoothRegime(
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
    """Earliest crossing time of characteristics in any dimension, exact
    from the breakpoint table; inf if none cross.

    The datum is 0 outside [a, b].  A jump at p != 0 with
    p*(f(p+) - f(p-)) > 0 (larger values farther from the origin) is a
    shock at t = 0, so the result is 0.0; piecewise-constant data have no
    other shock.  On a linear segment f = alpha + s*x the Jacobian of the
    foot map vanishes first at t = 1/D, where

        D = gamma * f^(gamma-1) * (d*f + (1+gamma)*x*s),

    over the feet with x*s > 0 (elsewhere 1/D is past the local blow-up
    time).  D' has the sign of s*((gamma*d+1+gamma)*alpha
    + gamma*(d+1+gamma)*s*x), which increases with x, so D falls and then
    rises along a segment: its one critical point is a minimum, and its
    maximum is at a segment end.  For gamma < 1, D is infinite at a zero
    of f with x*s > 0, and the result is 0.0.  The result may exceed
    blow_up_time; the smooth horizon is the smaller of the two.
    """
    points, before, after = jumps(datum)
    if np.any((points != 0) & (points * (after - before) > 0)):
        return 0.0
    if datum.kind == "constant":
        return math.inf
    g, d = cfg.gamma, cfg.dim
    bp, v = datum.breakpoints, datum.values
    # both ends of every segment, with its slope
    x = np.concatenate([bp[:-1], bp[1:]])
    f = np.concatenate([v[:-1], v[1:]])
    s = np.tile(np.diff(v) / np.diff(bp), 2)
    feet = x * s > 0
    x, f, s = x[feet], f[feet], s[feet]
    with np.errstate(divide="ignore"):  # 0**(gamma-1) is inf for gamma < 1
        rate = g * f ** (g - 1) * (d * f + (1 + g) * x * s)
    best = float(rate.max(initial=0.0))
    return 1.0 / best if best > 0 else math.inf


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
        horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
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
