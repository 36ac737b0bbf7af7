"""Closed-form reference solution of the condensing block datum.

The unit-height block datum evolves explicitly: a compressing plateau, a
rarefaction fan, onset of mass loss at t = 1/gamma, and a concentrated
mass 1 - (gamma*t)^(-1/gamma) (as a fraction of the total) afterwards.

Two mass conventions are supported and agree up to exact dilation
constants:

* ``unit_height``: block of height 1 on [0, 1/(1+gamma)], total mass
  1/(1+gamma);
* ``unit_mass``:   block on [0, 1], total mass 1 (rearrangement X(z,0) = z).

Every solver in this package is verified against these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_CONVENTIONS = ("unit_height", "unit_mass")


@dataclass(frozen=True)
class ExplicitSolutionSpec:
    """Parameters selecting one closed-form solution family member."""

    gamma: float
    mass_convention: str = "unit_height"

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.mass_convention not in MASS_CONVENTIONS:
            raise ValueError(f"mass_convention must be one of {MASS_CONVENTIONS}")

    @property
    def total_mass(self) -> float:
        return 1.0 if self.mass_convention == "unit_mass" else 1.0 / (1.0 + self.gamma)

    @property
    def xi_dilation(self) -> float:
        """xi coordinates dilate by (1+gamma)^(gamma/(1+gamma))."""
        g = self.gamma
        return (1.0 + g) ** (g / (1.0 + g))


def _u_unit_height(xi, t, g):
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros_like(xi)
    if t > 0:
        fan = (xi >= max(0.0, 1.0 / g - t)) & (xi <= 1.0 / g)
        out[fan] = ((1.0 - g * xi[fan]) / (g * t)) ** (1.0 / g)
    if t < 1.0 / g:
        # compressed initial branch; overwrites the shared boundary point,
        # where the two branch values coincide
        lo_branch = (xi >= 0) & (xi <= 1.0 / g - t)
        out[lo_branch] = (g * xi[lo_branch] / (1.0 - g * t)) ** (1.0 / g)
    return out


def _rho_unit_height(x, t, g):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    # plateau-branch x-boundary is the image of the fan edge,
    # (1 - gamma*t)^((1+gamma)/gamma) / (1+gamma)
    xb = (1.0 - g * t) ** ((1.0 + g) / g) / (1.0 + g) if t < 1.0 / g else 0.0
    if t > 0:
        fan = (x >= xb) & (x <= 1.0 / (1.0 + g))
        xf = x[fan]
        with np.errstate(divide="ignore"):
            val = ((((1.0 + g) * xf) ** (-g / (1.0 + g)) - 1.0) / (g * t)) ** (1.0 / g)
        out[fan] = val
    if t < 1.0 / g:
        plateau = (x >= 0) & (x <= xb)
        out[plateau] = (1.0 / (1.0 - g * t)) ** (1.0 / g)
    return out


def u_explicit(xi, t, spec: ExplicitSolutionSpec):
    """Conservation-law profile u(xi, t) of the explicit solution."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = spec.gamma
    if spec.mass_convention == "unit_height":
        out = _u_unit_height(xi, t, g)
    else:
        lam = spec.xi_dilation
        out = lam ** (1.0 / g) * _u_unit_height(np.asarray(xi, dtype=float) / lam, t, g)
    return out if np.ndim(xi) else float(out[0])


def rho_explicit(x, t, spec: ExplicitSolutionSpec):
    """Density rho(x, t) of the explicit solution (three branches)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = spec.gamma
    if spec.mass_convention == "unit_height":
        out = _rho_unit_height(x, t, g)
    else:
        out = _rho_unit_height(np.asarray(x, dtype=float) / (1.0 + g), t, g)
    return out if np.ndim(x) else float(out[0])


def X_explicit(z, t, spec: ExplicitSolutionSpec):
    """Monotone rearrangement X(z, t) of the explicit solution.

    In the unit convention, region A = {z <= 1 - gamma*t} carries the
    compressed initial profile z*(1-gamma*t)^(1/gamma); the complementary
    region carries the fan profile
    [1 - (gamma*t)^(1/(1+gamma)) * (1-z)^(gamma/(1+gamma))]_+^((1+gamma)/gamma),
    whose positive part is the plateau of the concentrated mass.

    At an exact region boundary the A-branch value is returned; the two
    branches match there to rounding.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = spec.gamma
    M = spec.total_mass
    zz = np.atleast_1d(np.asarray(z, dtype=float)) / M  # unit-mass coordinate
    if np.any((zz < 0) | (zz > 1 + 1e-12)):
        raise ValueError("z must lie in [0, total_mass]")
    zz = np.clip(zz, 0.0, 1.0)
    if t == 0:
        out = zz.copy()
    else:
        out = np.empty_like(zz)
        region_a = zz <= 1.0 - g * t  # empty for t >= 1/gamma
        out[region_a] = zz[region_a] * (1.0 - g * t) ** (1.0 / g)
        zb = zz[~region_a]
        base = 1.0 - (g * t) ** (1.0 / (1.0 + g)) * (1.0 - zb) ** (g / (1.0 + g))
        out[~region_a] = np.maximum(base, 0.0) ** ((1.0 + g) / g)
    if spec.mass_convention == "unit_height":
        out = out / (1.0 + g)
    return out if np.ndim(z) else float(out[0])


def mass_explicit(t, spec: ExplicitSolutionSpec):
    """Concentrated mass at time t: zero until 1/gamma, then grows to the total."""
    g = spec.gamma
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tt < 0):
        raise ValueError("t must be nonnegative")
    frac = np.zeros_like(tt)
    pos = tt > 0
    frac[pos] = 1.0 - (g * tt[pos]) ** (-1.0 / g)
    out = np.maximum(frac, 0.0) * spec.total_mass
    return out if np.ndim(t) else float(out[0])