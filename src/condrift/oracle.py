"""Closed-form reference solution of the condensing block datum.

The unit-height block on [0, 1/(1+gamma)], of total mass 1/(1+gamma),
evolves explicitly: a compressing plateau, a rarefaction fan, onset of
mass loss at t = 1/gamma, and a concentrated mass 1 - (gamma*t)^(-1/gamma)
(as a fraction of the total) afterwards.

Every solver in this package is verified against these formulas.
"""

from __future__ import annotations

import numpy as np


def u_explicit(xi, t, gamma: float):
    """Conservation-law profile u(xi, t) of the explicit solution."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = gamma
    xs = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros_like(xs)
    if t > 0:
        fan = (xs >= max(0.0, 1.0 / g - t)) & (xs <= 1.0 / g)
        out[fan] = ((1.0 - g * xs[fan]) / (g * t)) ** (1.0 / g)
    if t < 1.0 / g:
        # compressed initial branch; overwrites the shared boundary point,
        # where the two branch values coincide
        lo_branch = (xs >= 0) & (xs <= 1.0 / g - t)
        out[lo_branch] = (g * xs[lo_branch] / (1.0 - g * t)) ** (1.0 / g)
    return out if np.ndim(xi) else float(out[0])


def X_explicit(z, t, gamma: float):
    """Monotone rearrangement X(z, t) of the explicit solution, z in [0, M].

    In the unit-mass coordinate zz = z/M, region A = {zz <= 1 - gamma*t}
    carries the compressed initial profile zz*(1-gamma*t)^(1/gamma); the
    complementary region carries the fan profile
    [1 - (gamma*t)^(1/(1+gamma)) * (1-zz)^(gamma/(1+gamma))]_+^((1+gamma)/gamma),
    whose positive part is the plateau of the concentrated mass; both are
    divided by 1+gamma.

    At an exact region boundary the A-branch value is returned; the two
    branches match there to rounding.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = gamma
    M = 1.0 / (1.0 + g)
    zz = np.atleast_1d(np.asarray(z, dtype=float)) / M  # unit-mass coordinate
    if np.any((zz < 0) | (zz > 1 + 1e-12)):
        raise ValueError("z must lie in [0, total_mass]")
    zz = np.clip(zz, 0.0, 1.0)
    if t == 0:
        out = zz.copy()
    else:
        out = np.empty_like(zz)
        region_a = zz <= 1.0 - g * t
        if 1.0 - g * t >= 0:  # else region A is empty and its power complex or NaN
            out[region_a] = zz[region_a] * (1.0 - g * t) ** (1.0 / g)
        zb = zz[~region_a]
        base = 1.0 - (g * t) ** (1.0 / (1.0 + g)) * (1.0 - zb) ** (g / (1.0 + g))
        out[~region_a] = np.maximum(base, 0.0) ** ((1.0 + g) / g)
    out = out / (1.0 + g)
    return out if np.ndim(z) else float(out[0])


def mass_explicit(t, gamma: float):
    """Concentrated mass at time t: zero until 1/gamma, then grows to the
    total 1/(1+gamma)."""
    g = gamma
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tt < 0):
        raise ValueError("t must be nonnegative")
    frac = np.zeros_like(tt)
    pos = tt > 0
    frac[pos] = 1.0 - (g * tt[pos]) ** (-1.0 / g)
    out = np.maximum(frac, 0.0) * (1.0 / (1.0 + g))
    return out if np.ndim(t) else float(out[0])
