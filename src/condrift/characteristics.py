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
# brackets of one bisection block: whole rows of (times, points), so a
# long time grid holds a few MB of temporaries, not eight full arrays
BLOCK_POINTS = 1 << 16


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
    Raises OverflowError when t* is past the largest float.
    """
    if datum.sup_value <= 0:
        raise ZeroDatum("blow-up time undefined for an identically zero datum")
    rate = cfg.gamma * cfg.dim * datum.sup_value**cfg.gamma
    if rate == 0.0 or math.isinf(1.0 / rate):
        raise OverflowError(f"blow-up time 1/{rate} overflows: sup is {datum.sup_value}")
    return 1.0 / rate


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


def evaluate_smooth_grid(xs, t, datum: InitialDatum, cfg: GammaConfig,
                         horizon: float | None = None) -> np.ndarray:
    """Density values at the points ``xs`` at the time t, or at each time
    of a 1-D array t, in the smooth regime.

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

    An array t gives one row per time, each equal byte for byte to the
    call with that time alone; its positive times share the bisection as
    a (times, points) bracket array, processed in blocks of whole rows
    of at most BLOCK_POINTS brackets.

    ``horizon`` is the smooth horizon min(blow_up_time, first_shock_time)
    of this datum; a caller that evaluates several times passes it to
    compute it once, and it is computed here when omitted.  Every time
    must lie in [0, horizon).
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a time or a 1-D array of times")
    if np.any(times < 0):
        raise ValueError("t must be nonnegative")
    if horizon is None:
        horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
    late = times >= horizon
    if np.any(late):
        raise NotSmoothRegime(f"t={times[late][0]} is past the smooth horizon {horizon}")
    xs = np.asarray(xs, dtype=float)
    g, d = cfg.gamma, cfg.dim
    # a time too small for gamma*d*t to leave 0, as t = 0, moves nothing
    rates = g * d * times.ravel()
    if times.ndim == 0 and rates[0] == 0.0:
        return datum(xs)
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
    per_block = max(1, BLOCK_POINTS // max(x.size, 1))
    for first in range(0, moving.size, per_block):
        block = moving[first:first + per_block]
        rate = rates[block, None]
        lo, hi = lo0, hi0
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
