import numpy as np
import pytest
from scipy.integrate import quad

from condrift.datum import (
    DisconnectedSupport,
    InitialDatum,
    block_datum,
    example_block_datum,
    integrate_piecewise,
    piecewise_constant,
    piecewise_linear,
)
from oracles import integrate_segments


def test_block_datum_quantities():
    d = example_block_datum(1.0)
    assert (d.a, d.b) == (0.0, 0.5)
    assert d.mass == pytest.approx(0.5)
    assert d.sup_value == 1.0
    assert d(0.25) == 1.0 and d(0.75) == 0.0 and d(-0.1) == 0.0


def test_unit_uniform_datum():
    d = block_datum(1.0, 0.0, 1.0)
    assert d.mass == pytest.approx(1.0)
    assert (d.a, d.b) == (0.0, 1.0)


def test_piecewise_linear_quantities():
    d = piecewise_linear([-1.0, 0.0, 2.0], [0.0, 3.0, 0.0])
    assert d.mass == pytest.approx(4.5)  # triangle area, base 3 height 3
    assert d.sup_value == pytest.approx(3.0)
    assert d(0.0) == pytest.approx(3.0)
    assert d(1.0) == pytest.approx(1.5)


def test_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        piecewise_constant([0.0, 1.0], [-1.0])
    with pytest.raises(ValueError):
        piecewise_linear([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        piecewise_constant([1.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        block_datum(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        piecewise_linear([0.0, 1.0], [[1.0, 1.0]])
    with pytest.raises(ValueError):
        InitialDatum("cubic", [0.0, 1.0], [1.0, 1.0])


def test_interior_vacuum_rejected():
    with pytest.raises(DisconnectedSupport):
        piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    with pytest.raises(DisconnectedSupport):
        piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 1e-14, 1.0])
    # a vacuum segment narrower than any sampling spacing still breaks it
    with pytest.raises(DisconnectedSupport):
        piecewise_constant([0.0, 1.0, 1.000001, 2.0], [1.0, 0.0, 1.0])
    # two consecutive vacuum breakpoints of linear data break it too
    with pytest.raises(DisconnectedSupport):
        piecewise_linear([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 0.0, 1.0])
    # a single-point zero keeps the support connected and is tolerated,
    # also next to values far below the sup but above its tolerance
    piecewise_linear([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0])
    assert piecewise_linear([0.0, 1.0, 2.0], [1.0, 0.0, 1e-9]).b == 2.0


def test_linear_datum_values_keep_the_bits_of_the_clipped_interpolation():
    # interp with left = right = 0 against interp zeroed outside [a, b]:
    # the same bits on every finite x, since a and b are the end breakpoints
    rng = np.random.default_rng(27)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        breakpoints = rng.uniform(-2.0, 1.0) + np.cumsum(rng.uniform(0.01, 1.0, n))
        values = rng.uniform(0.05, 2.0, n)
        values[[0, -1]] *= rng.random(2) < 0.5  # zero ends half the time
        d = piecewise_linear(breakpoints, values)
        ends = np.array([d.a, d.b])
        x = np.concatenate([rng.uniform(d.a - 1.0, d.b + 1.0, 200), ends,
                            np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                            [-1e300, d.a - 5.0, d.b + 5.0, 1e300]])
        clipped = np.where((x >= d.a) & (x <= d.b),
                           np.interp(x, d.breakpoints, d.values), 0.0)
        assert d(x).tobytes() == clipped.tobytes()
        assert [d(v) for v in x[-12:].tolist()] == clipped[-12:].tolist()


def test_integrate_piecewise_matches_quadrature():
    d = piecewise_linear([0.0, 0.5, 1.0, 1.5], [0.2, 1.0, 0.4, 0.0])
    for lo, hi in ((0.0, 1.5), (0.1, 0.3), (0.25, 1.37), (-1.0, 0.7), (1.2, 9.0)):
        ref, _ = quad(lambda x: float(d(x)), max(lo, 0.0), min(hi, 1.5), limit=200)
        assert integrate_piecewise(d, lo, hi) == pytest.approx(ref, abs=1e-9)
    block = piecewise_constant([0.0, 1.0, 2.0], [2.0, 0.5])
    assert integrate_piecewise(block, 0.5, 1.5) == pytest.approx(1.25)
    assert integrate_piecewise(block, 3.0, 4.0) == 0.0


@pytest.mark.parametrize("datum", [
    piecewise_constant([-0.4, -0.1, 0.0, 0.3, 0.45, 0.5], [0.5, 0.9, 1.0, 0.7, 0.2]),
    piecewise_linear([-0.5, -0.2, 0.1, 0.6, 0.9], [0.0, 1.2, 0.4, 0.8, 0.1]),
], ids=["constant", "linear"])
def test_integrate_piecewise_arrays_match_segment_loop(datum):
    # differencing the cumulative reorders the sums of the per-segment
    # loop, so the two agree to a few ulps of the total mass
    rng = np.random.default_rng(41)
    ends = np.sort(rng.uniform(-0.7, 1.1, (2, 500)), axis=0)
    edges = np.linspace(-0.6, 1.0, 801)
    for lo, hi in ((ends[0], ends[1]), (edges[:-1], edges[1:])):
        got = integrate_piecewise(datum, lo, hi)
        ref = np.array([integrate_segments(datum, p, q) for p, q in zip(lo, hi)])
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - ref)) <= 16 * np.finfo(float).eps * datum.mass
    assert integrate_piecewise(datum, 2.0, 3.0) == 0.0
