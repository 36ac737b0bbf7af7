"""Initial data: nonnegative, compactly supported, connected-support
piecewise profiles.

An :class:`InitialDatum` is a validated breakpoint table, piecewise
constant or piecewise linear.  Its support [a, b], mass and sup come
exactly from the table, the support is checked for interior vacuum on the
table itself, and downstream quadrature integrates the datum exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VACUUM_REL_TOL = 1e-12


class DisconnectedSupport(ValueError):
    """Initial data with interior vacuum are rejected (single-component support only)."""


@dataclass
class InitialDatum:
    """Nonnegative piecewise profile on a compact connected support [a, b].

    ``kind`` "constant": values[i] on [breakpoints[i], breakpoints[i+1]),
    one more breakpoint than values.  ``kind`` "linear": continuous
    through (breakpoints[i], values[i]).  The datum is 0 outside [a, b].
    For dim >= 2 the profile is radial and the coordinate is the radius
    (a >= 0).
    """

    kind: str
    breakpoints: np.ndarray
    values: np.ndarray
    a: float = field(init=False)
    b: float = field(init=False)
    mass: float = field(init=False)
    sup_value: float = field(init=False)

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown piecewise kind {self.kind!r}")
        bp = self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        v = self.values = np.asarray(self.values, dtype=float)
        value_count = bp.size - 1 if self.kind == "constant" else bp.size
        if bp.ndim != 1 or v.ndim != 1 or bp.size < 2 or v.size != value_count:
            count = "n+1" if self.kind == "constant" else "n"
            raise ValueError(f"need flat lists of {count} breakpoints for n values")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints and values must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        self.a, self.b = float(bp[0]), float(bp[-1])
        if self.kind == "constant":
            self.mass = float(np.sum(v * np.diff(bp)))
        else:
            self.mass = float(np.sum(0.5 * (v[:-1] + v[1:]) * np.diff(bp)))
        self.sup_value = float(v.max())
        self._check_connected()

    def _check_connected(self):
        """Reject interior vacuum: a constant segment, or a linear segment
        with both end values, at or below VACUUM_REL_TOL * sup.  A single
        zero breakpoint of linear data keeps the support connected."""
        low = self.values <= VACUUM_REL_TOL * max(self.sup_value, 1e-300)
        high = np.flatnonzero(~low)
        if high.size == 0:
            return  # identically zero datum; callers that need mass reject it
        vacuum = low[high[0]: high[-1] + 1]
        if self.kind == "linear":
            vacuum = vacuum[:-1] & vacuum[1:]
        if np.any(vacuum):
            raise DisconnectedSupport(
                "initial datum has an interior vacuum region; only "
                "single-component supports are handled"
            )

    def _segment(self, x: np.ndarray) -> np.ndarray:
        """Index of the breakpoint segment holding each x, clipped to the ends."""
        return np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                       0, self.breakpoints.size - 2)

    def __call__(self, x):
        """Datum values at finite x, 0 outside [a, b]; a float for a scalar
        x. (A NaN x gives NaN for linear data and 0 for constant data.)"""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.where((x >= self.a) & (x <= self.b),
                           self.values[self._segment(x)], 0.0)
        else:  # a = breakpoints[0] and b = breakpoints[-1]
            out = np.interp(x, self.breakpoints, self.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)


def piecewise_constant(breakpoints, values) -> InitialDatum:
    """Step-function datum: values[i] on [breakpoints[i], breakpoints[i+1])."""
    return InitialDatum("constant", breakpoints, values)


def piecewise_linear(breakpoints, values) -> InitialDatum:
    """Continuous piecewise-linear datum through (breakpoints[i], values[i])."""
    return InitialDatum("linear", breakpoints, values)


def block_datum(height: float, lo: float, hi: float) -> InitialDatum:
    """Single rectangular block of the given height on [lo, hi]."""
    return piecewise_constant([lo, hi], [height])


def example_block_datum(gamma: float) -> InitialDatum:
    """Unit-height block on [0, 1/(1+gamma)]; mass 1/(1+gamma).

    This is the datum whose evolution is known in closed form (see
    :mod:`condrift.oracle`).
    """
    return block_datum(1.0, 0.0, 1.0 / (1.0 + gamma))


def jumps(datum: InitialDatum):
    """(p, f(p-), f(p+)) at every point where the datum, taken as 0
    outside [a, b], may jump: all breakpoints of piecewise-constant data,
    the support edges of piecewise-linear data."""
    v = datum.values
    if datum.kind == "constant":
        return datum.breakpoints, np.r_[0.0, v], np.r_[v, 0.0]
    return np.array([datum.a, datum.b]), np.array([0.0, v[-1]]), np.array([v[0], 0.0])


def integrate_piecewise(datum: InitialDatum, lo, hi):
    """Exact integral of the datum over [lo, hi], elementwise.

    ``lo`` and ``hi`` broadcast; a scalar pair gives a float.  The
    integral is the difference of the exact cumulative, clamped at 0 so
    that roundoff cannot make a mass negative.
    """
    lo = np.clip(np.asarray(lo, dtype=float), datum.a, datum.b)
    hi = np.clip(np.asarray(hi, dtype=float), datum.a, datum.b)
    out = np.maximum(_cumulative(datum, hi) - _cumulative(datum, lo), 0.0)
    return out if out.ndim else float(out)


def _cumulative(datum: InitialDatum, x: np.ndarray) -> np.ndarray:
    """Exact datum mass on [a, x] for x in [a, b]."""
    bp, v = datum.breakpoints, datum.values
    if datum.kind == "constant":  # piecewise linear cumulative
        return np.interp(x, bp, np.concatenate([[0.0], np.cumsum(v * np.diff(bp))]))
    # linear datum: quadratic cumulative on each segment
    width = np.diff(bp)
    at_bp = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * width)])
    k = datum._segment(x)
    d = x - bp[k]
    return at_bp[k] + d * (v[k] + 0.5 * (np.diff(v) / width)[k] * d)
