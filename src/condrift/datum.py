"""Initial data: compactly supported, connected-support, BV density profiles.

An :class:`InitialDatum` bundles the profile callable with the support
interval and the derived quantities (mass, sup, BV bound) every solver
needs.  Piecewise-constant and piecewise-linear data carry their
breakpoints so that downstream quadrature can integrate them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DENSE_SAMPLES = 4097
VACUUM_REL_TOL = 1e-12


class DisconnectedSupport(ValueError):
    """Initial data with interior vacuum are rejected (single-component support only)."""


@dataclass
class InitialDatum:
    """Nonnegative density profile on a compact connected support [a, b].

    For dim >= 2 the profile is radial and the coordinate is the radius
    (a = 0).  ``deriv`` may be omitted; a centered finite difference with
    h = 1e-6 * (b - a) is substituted.
    """

    a: float
    b: float
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    mass: Optional[float] = None
    sup_value: Optional[float] = None
    bv_bound: Optional[float] = None
    # breakpoints/values present only for piecewise profiles ("constant"|"linear")
    kind: str = "callable"
    breakpoints: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"support [{self.a}, {self.b}] is empty")
        xs = np.linspace(self.a, self.b, DENSE_SAMPLES)
        if self.breakpoints is not None:
            xs = np.unique(np.concatenate([xs, np.asarray(self.breakpoints, dtype=float)]))
        fs = np.asarray(self.eval(xs), dtype=float)
        if np.any(fs < 0):
            raise ValueError("initial datum must be nonnegative")
        sampled_sup = float(fs.max())
        if self.sup_value is None:
            self.sup_value = sampled_sup
        elif abs(self.sup_value - sampled_sup) > 1e-6 * max(1.0, self.sup_value):
            raise ValueError(
                f"declared sup_value {self.sup_value} disagrees with sampled "
                f"maximum {sampled_sup}"
            )
        self._check_connected(fs)
        if self.mass is None:
            self.mass = float(np.trapezoid(fs, xs))
        if self.bv_bound is None:
            self.bv_bound = float(np.abs(np.diff(fs)).sum())
        if self.deriv is None:
            h = 1e-6 * (self.b - self.a)
            f = self.eval
            self.deriv = lambda x: (f(np.asarray(x) + h) - f(np.asarray(x) - h)) / (2 * h)

    def _check_connected(self, samples: np.ndarray):
        """Reject interior vacuum regions (two or more consecutive samples
        at roundoff scale); isolated point zeros keep the support connected
        and are tolerated."""
        tol = VACUUM_REL_TOL * max(self.sup_value, 1e-300)
        nz = np.nonzero(samples > tol)[0]
        if nz.size == 0:
            return  # identically zero datum; callers that need mass reject it
        vacuum = samples[nz[0]: nz[-1] + 1] <= tol
        if np.any(vacuum[:-1] & vacuum[1:]):
            raise DisconnectedSupport(
                "initial datum has an interior vacuum region; only "
                "single-component supports are handled"
            )

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        inside = (arr >= self.a) & (arr <= self.b)
        out = np.zeros_like(arr)
        if np.any(inside):
            out[inside] = self.eval(arr[inside])
        return out if np.ndim(x) else float(out[0])


def piecewise_constant(breakpoints, values) -> InitialDatum:
    """Step-function datum: values[i] on [breakpoints[i], breakpoints[i+1])."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.ndim != 1 or bp.size < 2 or vals.size != bp.size - 1:
        raise ValueError("need n+1 breakpoints for n values")
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
        raise ValueError("breakpoints and values must be finite")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if np.any(vals < 0):
        raise ValueError("values must be nonnegative")

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, vals.size - 1)
        out = vals[idx]
        out = np.where((x < bp[0]) | (x > bp[-1]), 0.0, out)
        return out

    jumps = np.abs(np.diff(np.concatenate([[0.0], vals, [0.0]]))).sum()
    mass = float(np.sum(vals * np.diff(bp)))
    return InitialDatum(
        a=float(bp[0]), b=float(bp[-1]), eval=evaluate,
        deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        mass=mass, sup_value=float(vals.max()), bv_bound=float(jumps),
        kind="constant", breakpoints=bp, values=vals,
    )


def piecewise_linear(breakpoints, values) -> InitialDatum:
    """Continuous piecewise-linear datum through (breakpoints[i], values[i])."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.ndim != 1 or bp.size < 2 or vals.size != bp.size:
        raise ValueError("need matching breakpoints and values")
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
        raise ValueError("breakpoints and values must be finite")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if np.any(vals < 0):
        raise ValueError("values must be nonnegative")
    slopes = np.diff(vals) / np.diff(bp)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, bp, vals, left=0.0, right=0.0)
        return out

    def derivative(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, slopes.size - 1)
        out = slopes[idx]
        return np.where((x < bp[0]) | (x > bp[-1]), 0.0, out)

    bv = float(vals[0] + np.abs(np.diff(vals)).sum() + vals[-1])
    mass = float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(bp)))
    return InitialDatum(
        a=float(bp[0]), b=float(bp[-1]), eval=evaluate, deriv=derivative,
        mass=mass, sup_value=float(vals.max()), bv_bound=bv,
        kind="linear", breakpoints=bp, values=vals,
    )


def block_datum(height: float, lo: float, hi: float) -> InitialDatum:
    """Single rectangular block of the given height on [lo, hi]."""
    return piecewise_constant([lo, hi], [height])


def example_block_datum(gamma: float) -> InitialDatum:
    """Unit-height block on [0, 1/(1+gamma)]; mass 1/(1+gamma).

    This is the datum whose evolution is known in closed form (see
    :mod:`condrift.oracle`, unit-height convention).
    """
    return block_datum(1.0, 0.0, 1.0 / (1.0 + gamma))


def unit_uniform_datum() -> InitialDatum:
    """Unit-height block on [0, 1]; mass 1 (the unit mass convention)."""
    return block_datum(1.0, 0.0, 1.0)


def jumps(datum: InitialDatum):
    """(p, f(p-), f(p+)) at every point where the datum, taken as 0
    outside [a, b], may jump: all breakpoints of piecewise-constant data,
    the support edges of continuous data."""
    if datum.kind == "constant":
        v = datum.values
        return datum.breakpoints, np.r_[0.0, v], np.r_[v, 0.0]
    edges = np.array([datum.a, datum.b])
    return edges, np.array([0.0, datum(datum.b)]), np.array([datum(datum.a), 0.0])


def integrate_piecewise(datum: InitialDatum, lo, hi):
    """Exact integral of a piecewise datum over [lo, hi], elementwise.

    ``lo`` and ``hi`` broadcast; a scalar pair gives a float.  Piecewise
    data difference their exact cumulative; callable data fall back to
    dense trapezoid quadrature per interval.  Masses are clamped at 0, so
    roundoff cannot make one negative.
    """
    lo, hi = np.broadcast_arrays(np.clip(np.asarray(lo, dtype=float), datum.a, datum.b),
                                 np.clip(np.asarray(hi, dtype=float), datum.a, datum.b))
    if datum.kind == "callable":
        grids = (np.linspace(p, q, 257) for p, q in zip(lo.ravel(), hi.ravel()))
        mass = np.array([np.trapezoid(datum.eval(xs), xs) for xs in grids])
        mass = mass.reshape(lo.shape)
    else:
        mass = _cumulative(datum, hi) - _cumulative(datum, lo)
    out = np.maximum(mass, 0.0)
    return out if out.ndim else float(out)


def _cumulative(datum: InitialDatum, x: np.ndarray) -> np.ndarray:
    """Exact datum mass on [a, x] for x in [a, b], piecewise data only."""
    bp, v = datum.breakpoints, datum.values
    if datum.kind == "constant":  # piecewise linear cumulative
        return np.interp(x, bp, np.concatenate([[0.0], np.cumsum(v * np.diff(bp))]))
    # linear datum: quadratic cumulative on each segment
    width = np.diff(bp)
    at_bp = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * width)])
    k = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, width.size - 1)
    d = x - bp[k]
    return at_bp[k] + d * (v[k] + 0.5 * (np.diff(v) / width)[k] * d)
