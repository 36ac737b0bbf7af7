"""Coordinate, time, and amplitude scalings between the three frames.

Three frames are used throughout:

* ``original``:  (v, tau, f)  -- the confined dynamics with linear drift,
* ``driftfree``: (x, t, rho)  -- drift removed, homogeneous nonlinearity,
* ``conslaw``:   (xi, t, u)   -- scalar conservation-law coordinates.

All maps here are pure functions of their value inputs and preserve total
mass; they are safe to call concurrently.  The ``conslaw`` spatial map is
one-dimensional only; the original/driftfree time map works in any
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GammaConfig:
    """Nonlinearity exponent gamma > 0 and spatial dimension d >= 1.

    Every gamma > 0 is valid.  The coordinate maps carry exponents 1/gamma
    and (1+gamma)/gamma, so they grow stiff as gamma moves away from 1.  No
    gamma range is promised to give accurate results: ``condrift verify``
    measures the accuracy at one gamma, and at the default sizes it fails
    at gamma 0.1, 0.4, 0.5 and 16 (see the README, Verification).
    """

    gamma: float
    dim: int = 1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")


def time_driftfree_to_original(t, cfg: GammaConfig):
    """Time map tau = log(1 + d*gamma*t)/(d*gamma), the inverse of
    t = (exp(d*gamma*tau) - 1)/(d*gamma); strictly increasing on [0, inf)."""
    a = cfg.dim * cfg.gamma
    return np.log1p(a * np.asarray(t, dtype=float)) / a


def x_of_xi(xi, cfg: GammaConfig):
    """Spatial map x(xi) = sign(xi) * (gamma*|xi|)^((1+gamma)/gamma) / (1+gamma).

    Odd, strictly increasing, C^1 away from 0.  One-dimensional only.
    """
    _require_1d(cfg)
    g = cfg.gamma
    xi = np.asarray(xi, dtype=float)
    return np.sign(xi) * (g * np.abs(xi)) ** ((1 + g) / g) / (1 + g)


def xi_of_x(x, cfg: GammaConfig):
    """Inverse spatial map xi(x) = sign(x) * ((1+gamma)*|x|)^(gamma/(1+gamma)) / gamma."""
    _require_1d(cfg)
    g = cfg.gamma
    x = np.asarray(x, dtype=float)
    return np.sign(x) * ((1 + g) * np.abs(x)) ** (g / (1 + g)) / g


def dxi_dx(x, cfg: GammaConfig):
    """xi'(x) = ((1+gamma)*|x|)^(-1/(1+gamma)); rejects x = 0.

    The map is singular at the origin; the origin carries the concentrated
    mass and is owned by the measure layer, never by this scaling.
    """
    _require_1d(cfg)
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("dxi_dx is singular at x = 0")
    g = cfg.gamma
    return ((1 + g) * np.abs(x)) ** (-1 / (1 + g))


def _require_1d(cfg: GammaConfig):
    if cfg.dim != 1:
        raise ValueError("the conservation-law spatial map is one-dimensional only")
