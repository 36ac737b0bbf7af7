import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condrift import characteristics
from condrift.characteristics import (
    NotSmoothRegime,
    ZeroDatum,
    advance,
    blow_up_time,
    evaluate_smooth_grid,
    first_shock_time,
)
from condrift.datum import (
    InitialDatum,
    block_datum,
    example_block_datum,
    piecewise_constant,
    piecewise_linear,
)
from condrift.frames import GammaConfig
from oracles import evaluate_smooth_grid_reference, rho_explicit, rk4_characteristics


def tent_datum():
    # continuous, reaches zero at the right edge, non-increasing on x > 0
    return piecewise_linear([0.0, 0.5, 1.0], [1.0, 1.0, 0.0])


def test_advance_off_support_is_stationary():
    datum = tent_datum()
    cfg = GammaConfig(gamma=1.0)
    st = advance(2.5, 17.0, datum, cfg)
    assert st.position == 2.5 and st.value == 0.0


def test_advance_closed_form_d3():
    datum = block_datum(1.0, 0.2, 1.0)
    cfg = GammaConfig(gamma=1.0, dim=3)
    st = advance(0.5, 0.2, datum, cfg)
    assert st.value == pytest.approx(2.5, rel=1e-14)
    assert st.position == pytest.approx(0.5 * 0.4 ** (2.0 / 3.0), rel=1e-14)


def test_advance_against_rk4_oracle():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(50):
        dim = int(rng.choice([1, 3]))
        gamma = float(rng.uniform(0.4, 2.5))
        peak = float(rng.uniform(0.5, 1.5))
        datum = piecewise_linear([0.1, 0.5, 1.2], [0.3, peak, 0.1])
        cfg = GammaConfig(gamma=gamma, dim=dim)
        x0 = float(rng.uniform(0.15, 1.1))
        t = float(rng.uniform(0.05, 0.8)) * blow_up_time(datum, cfg)
        st = advance(x0, t, datum, cfg)
        cases.append((x0, float(datum(x0)), t, gamma, dim, st.position, st.value))
    x0, u0, t, gamma, dim, position, value = np.array(cases).T
    ref_position, ref_value = rk4_characteristics(x0, u0, t, gamma, dim)
    worst = max(float(np.max(np.abs(position - ref_position)
                             / np.maximum(np.abs(ref_position), 1e-30))),
                float(np.max(np.abs(value - ref_value) / ref_value)))
    assert worst <= 1e-8


def test_advance_blow_up_guard():
    datum = example_block_datum(1.0)
    cfg = GammaConfig(gamma=1.0)
    with pytest.raises(NotSmoothRegime):
        advance(0.25, 1.0, datum, cfg)


def test_blow_up_time_values():
    cfg1 = GammaConfig(gamma=1.0, dim=1)
    assert blow_up_time(example_block_datum(1.0), cfg1) == pytest.approx(1.0)
    cfg3 = GammaConfig(gamma=1.0, dim=3)
    assert blow_up_time(block_datum(1.0, 0.0, 1.0), cfg3) == pytest.approx(1.0 / 3.0)
    cfg2 = GammaConfig(gamma=2.0, dim=1)
    assert blow_up_time(block_datum(2.0, 0.0, 1.0), cfg2) == pytest.approx(0.125)
    with pytest.raises(ZeroDatum):
        blow_up_time(block_datum(0.0, 0.0, 1.0), cfg1)


def test_blow_up_time_decreases_with_sup():
    cfg = GammaConfig(gamma=1.3, dim=2)
    rng = np.random.default_rng(11)
    sups = np.sort(rng.uniform(0.1, 5.0, 20))
    times = [blow_up_time(block_datum(float(s), 0.0, 1.0), cfg) for s in sups]
    assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))


def test_first_shock_none_for_admissible_profiles():
    cfg = GammaConfig(gamma=1.0)
    # x0 * f'(x0) <= 0 everywhere: symmetric non-increasing tent
    sym = piecewise_linear([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert first_shock_time(sym, cfg) == math.inf
    assert first_shock_time(tent_datum(), cfg) == math.inf
    # interior derivative of a block is zero: no interior root
    assert first_shock_time(example_block_datum(1.0), cfg) == math.inf


def test_first_shock_finite_for_increasing_part():
    cfg = GammaConfig(gamma=1.0)
    rising = piecewise_linear([0.0, 0.1, 0.8, 1.0], [0.0, 0.2, 1.0, 0.0])
    t_shock = first_shock_time(rising, cfg)
    t_blow = blow_up_time(rising, cfg)
    assert t_shock < t_blow
    # independent dense-grid oracle for the crossing-time formula
    xs = np.linspace(0.1 + 1e-6, 0.8 - 1e-6, 20001)
    f = rising(xs)
    # the slope of the segment [0.1, 0.8], from the table
    fp = (rising.values[2] - rising.values[1]) / (rising.breakpoints[2]
                                                  - rising.breakpoints[1])
    denom = f + 2 * xs * fp  # gamma = 1: gamma*f^gamma + (1+gamma)*x*(f^gamma)'
    ref = np.min(1.0 / denom[(xs * fp > 0) & (denom > 0)])
    assert t_shock == pytest.approx(float(ref), rel=1e-3)


@pytest.mark.parametrize("datum", [
    piecewise_linear([0.1, 0.8, 1.0], [0.2, 1.0, 0.0]),
    piecewise_constant([0.2, 1.0], [1.0]),
    piecewise_constant([0.0, 0.5, 1.0], [0.5, 1.0]),
    piecewise_constant([-1.0, -0.5], [1.0]),
], ids=["linear-edge-up", "block-off-origin", "constant-step-up", "block-left-of-origin"])
def test_first_shock_zero_for_jump_up_away_from_origin(datum):
    # the datum is 0 outside [a, b]; a jump up away from the origin is a
    # shock at t = 0, whatever the derivative says
    assert first_shock_time(datum, GammaConfig(gamma=1.0)) == 0.0


@st.composite
def linear_tables(draw):
    """(datum, cfg): a random linear table with positive values whose
    support holds the origin (dim 1) or starts at it (radial), so no edge
    jump is a shock at t = 0."""
    dim = draw(st.sampled_from([1, 2, 3]))
    gamma = draw(st.floats(0.3, 3.0))
    n = draw(st.integers(2, 6))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    left = draw(st.floats(0.0, 0.9)) if dim == 1 else 0.0
    breakpoints = np.cumsum([0.0] + widths)
    breakpoints -= left * breakpoints[-1]
    return piecewise_linear(breakpoints, values), GammaConfig(gamma=gamma, dim=dim)


def sampled_shock_time(datum, cfg, points=20001):
    """min 1/D over a dense sample of each segment, ends included."""
    g, d = cfg.gamma, cfg.dim
    best = math.inf
    for k in range(datum.breakpoints.size - 1):
        lo, hi = datum.breakpoints[k], datum.breakpoints[k + 1]
        slope = (datum.values[k + 1] - datum.values[k]) / (hi - lo)
        x = np.linspace(lo, hi, points)
        x = x[x * slope > 0]
        f = datum(x)
        rate = g * f ** (g - 1) * (d * f + (1 + g) * x * slope)
        best = min(best, float(np.min(1.0 / rate, initial=math.inf)))
    return best


@settings(max_examples=60, deadline=None, derandomize=True)
@given(linear_tables())
def test_first_shock_time_is_the_sampled_minimum(case):
    datum, cfg = case
    exact = first_shock_time(datum, cfg)
    sampled = sampled_shock_time(datum, cfg)
    if math.isinf(sampled):
        assert exact == math.inf
    else:
        # a sample never beats the exact minimum (up to roundoff); it
        # holds the segment ends, where the maximum of D lies, so the two
        # agree to roundoff, well within 1e-3
        assert exact <= sampled * (1 + 1e-12)
        assert exact == pytest.approx(sampled, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_first_shock_zero_at_a_zero_away_from_origin_for_gamma_below_1(dim):
    # f^(gamma-1) is unbounded at the zero x = 0.5 where f rises outward,
    # so the foot map folds at once
    datum = piecewise_linear([0.5, 1.0, 1.5], [0.0, 1.0, 0.0])
    assert first_shock_time(datum, GammaConfig(gamma=0.5, dim=dim)) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_first_shock_at_a_zero_on_the_origin_is_finite_without_warnings(dim):
    # at x = 0 with f = 0, D tends to gamma*(d+1+gamma)*f^gamma -> 0, so
    # the maximum of D is at x = 1
    datum = piecewise_linear([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = first_shock_time(datum, GammaConfig(gamma=0.5, dim=dim))
    assert t == pytest.approx(1.0 / (0.5 * (dim + 1.5)), rel=1e-14)


def test_blow_up_time_past_the_largest_float_raises_overflow():
    # sup^gamma underflows to 0, then to a value whose reciprocal is inf
    for sup in (6.13e-264, 3e-155):
        with pytest.raises(OverflowError):
            blow_up_time(block_datum(sup, 0.0, 1.0), GammaConfig(gamma=2.0))


def test_evaluate_smooth_identity_at_zero_time():
    datum = tent_datum()
    cfg = GammaConfig(gamma=1.0)
    xs = np.linspace(-0.2, 1.2, 23)
    assert np.allclose(evaluate_smooth_grid(xs, 0.0, datum, cfg), datum(xs))


def test_evaluate_smooth_at_a_time_whose_rate_underflows_is_the_datum():
    # gamma*d*t = 0.5 * 5e-324 rounds to 0: no characteristic moves, and
    # the fan formula, which divides by the rate, must not run
    datum = example_block_datum(0.5)
    cfg = GammaConfig(gamma=0.5)
    xs = np.linspace(-0.1, 0.8, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = evaluate_smooth_grid(xs, 5e-324, datum, cfg)
        batched = evaluate_smooth_grid(xs, [5e-324, 0.0], datum, cfg)
    assert single.tobytes() == datum(xs).tobytes()
    assert batched.tobytes() == np.stack([datum(xs)] * 2).tobytes()


@pytest.mark.parametrize("gamma, dim", [(0.3, 1), (0.3, 2), (0.5, 2), (2.0, 1)])
def test_evaluate_smooth_at_tiny_times_is_the_datum(gamma, dim):
    # the roundoff of 1 - s over a rate of 1e-200 or less, raised to
    # 1/gamma > 1, passes the largest float; under main's errstate that
    # raised, and exited 3, before the clip to the datum values could act
    datum = piecewise_constant([0.0, 0.3, 1.0], [1.0, 0.5])
    cfg = GammaConfig(gamma=gamma, dim=dim)
    xs = np.linspace(0.0, 1.0, 257)
    off_jumps = ~np.isin(xs, datum.breakpoints)
    with np.errstate(over="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluate_smooth_grid(xs, [5e-324, 1e-320, 1e-300, 1e-200], datum, cfg)
    assert np.all(rows[:, off_jumps] == datum(xs[off_jumps]))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_evaluate_smooth_block_plateau_value(gamma):
    # inside the compressed-plateau region the value is (1/(1-gamma*t))^(1/gamma)
    datum = example_block_datum(gamma)
    cfg = GammaConfig(gamma=gamma)
    t = 0.4 / gamma
    x_edge = (1.0 - gamma * t) ** ((1 + gamma) / gamma) / (1 + gamma)
    vals = evaluate_smooth_grid([0.25 * x_edge, 0.8 * x_edge], t, datum, cfg)
    for val in vals:
        assert val == pytest.approx((1.0 / (1.0 - gamma * t)) ** (1.0 / gamma),
                                    rel=1e-10)


def test_evaluate_smooth_outside_support_is_zero():
    datum = tent_datum()
    cfg = GammaConfig(gamma=1.0)
    assert np.all(evaluate_smooth_grid([1.05, -0.5], 0.3, datum, cfg) == 0.0)


def test_evaluate_smooth_regime_guard():
    datum = tent_datum()
    cfg = GammaConfig(gamma=1.0)
    # the horizon is 1 (blow-up), up to the approx default rel=1e-6
    assert np.isfinite(evaluate_smooth_grid([0.3], 1.0 - 1e-6, datum, cfg)).all()
    with pytest.raises(NotSmoothRegime):
        evaluate_smooth_grid([0.3], 1.0, datum, cfg)
    with pytest.raises(ValueError):
        evaluate_smooth_grid([0.3], -0.1, datum, cfg)


@st.composite
def smooth_cases(draw, gammas=st.floats(0.3, 3.0)):
    """(datum, cfg, xs, times): a constant or linear table, dim 1 or 2,
    that is smooth up to its horizon (constant values fall away from the
    origin, linear values are positive), at a gamma drawn from
    ``gammas``; xs hold 0, the breakpoints and points outside the
    support, times hold 0 and the float just below the horizon."""
    kind = draw(st.sampled_from(["constant", "linear"]))
    dim = draw(st.sampled_from([1, 2]))
    gamma = draw(gammas)
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    count = n + (kind == "linear")
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
    left = draw(st.floats(0.0, 0.9)) if dim == 1 else 0.0
    breakpoints = np.cumsum([0.0] + widths)
    breakpoints -= left * breakpoints[-1]
    if kind == "constant":
        # the larger values on the segments nearer the origin
        distance = np.maximum(np.maximum(breakpoints[:-1], -breakpoints[1:]), 0.0)
        values = np.sort(values)[::-1][np.argsort(np.argsort(distance, kind="stable"))]
        datum = piecewise_constant(breakpoints, values)
    else:
        datum = piecewise_linear(breakpoints, values)
    cfg = GammaConfig(gamma=gamma, dim=dim)
    horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
    span = breakpoints[-1] - breakpoints[0]
    xs = np.concatenate([
        np.linspace(breakpoints[0] - 0.2 * span, breakpoints[-1] + 0.2 * span,
                    draw(st.integers(2, 60))),
        breakpoints, [0.0]])
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
    times = np.array([0.0, *(f * horizon for f in fractions),
                      np.nextafter(horizon, 0.0)])
    return (datum, cfg, np.array(draw(st.permutations(xs))),
            np.array(draw(st.permutations(times))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(smooth_cases(), st.integers(1, 200))
def test_batched_times_equal_the_per_time_rows(case, block_points):
    # small blocks split the (times, points) brackets into several blocks
    datum, cfg, xs, times = case
    stacked = np.stack([evaluate_smooth_grid(xs, float(t), datum, cfg) for t in times])
    with mock.patch.object(characteristics, "BLOCK_POINTS", block_points):
        batched = evaluate_smooth_grid(xs, times, datum, cfg)
    assert batched.shape == (times.size, xs.size)
    assert batched.tobytes() == stacked.tobytes()


# at gamma = 1 and 2 the evaluator's powers are the identity, squares and
# square roots, which scale exactly by a power of two; other gammas take
# np.power, which does not
@settings(max_examples=150, deadline=None, derandomize=True)
@given(smooth_cases(st.sampled_from([1, 2.0])), st.sampled_from([0.5, 2.0, 4.0]))
def test_evaluate_smooth_grid_scales_bitwise_under_the_amplitude_scaling(case, lam):
    # lam * rho0 has the solution lam * rho(x, lam^gamma t): its horizon is
    # the horizon over lam^gamma, and its values at t / lam^gamma are lam
    # times those at t, bit for bit
    datum, cfg, xs, times = case
    scaled = InitialDatum(datum.kind, datum.breakpoints, lam * datum.values)
    shrink = lam**cfg.gamma
    horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
    assert min(blow_up_time(scaled, cfg), first_shock_time(scaled, cfg)) == horizon / shrink
    values = evaluate_smooth_grid(xs, times, datum, cfg)
    assert (evaluate_smooth_grid(xs, times / shrink, scaled, cfg).tobytes()
            == (lam * values).tobytes())


def test_batched_times_past_one_block_equal_the_per_time_rows():
    # three positive times of 30 001 points at the default block size: a
    # block of two rows, then one of one row
    datum = piecewise_linear([-0.5, -0.2, 0.0, 0.3, 0.6], [0.4, 0.7, 1.0, 0.6, 0.4])
    cfg = GammaConfig(gamma=1.5)
    xs = np.linspace(-0.6, 0.7, 30_001)
    times = np.array([0.2, 0.0, 0.5, 0.9]) * blow_up_time(datum, cfg)
    assert 2 * xs.size <= characteristics.BLOCK_POINTS < 3 * xs.size
    stacked = np.stack([evaluate_smooth_grid(xs, t, datum, cfg) for t in times])
    assert evaluate_smooth_grid(xs, times, datum, cfg).tobytes() == stacked.tobytes()


def test_batched_times_are_each_checked():
    datum = tent_datum()
    cfg = GammaConfig(gamma=1.0)  # the horizon is 1, the blow-up time
    xs = np.linspace(-0.2, 1.2, 15)
    with pytest.raises(ValueError):
        evaluate_smooth_grid(xs, [0.0, 0.5, -1e-300], datum, cfg)
    with pytest.raises(NotSmoothRegime):
        evaluate_smooth_grid(xs, [0.0, 1.0, 0.5], datum, cfg)
    with pytest.raises(ValueError):
        evaluate_smooth_grid(xs, [[0.1, 0.2]], datum, cfg)
    assert evaluate_smooth_grid(xs, [], datum, cfg).shape == (0, 15)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_evaluate_smooth_grid_matches_explicit_block_with_fan(gamma):
    # plateau, rarefaction fan at the outer edge, and vacuum beyond it
    datum = example_block_datum(gamma)
    cfg = GammaConfig(gamma=gamma)
    xs = np.linspace(0.0, datum.b, 1001)
    for t in (0.2 / gamma, 0.5 / gamma, 0.9 / gamma):
        exact = rho_explicit(xs, t, gamma)
        err = np.max(np.abs(evaluate_smooth_grid(xs, t, datum, cfg) - exact))
        assert err <= 1e-7 * exact.max()


def test_evaluate_smooth_grid_matches_characteristics_on_both_sides():
    # the value carried to X(x0, t) is U(x0, t), for feet on both sides of
    # a two-sided profile that falls away from its peak at the origin
    datum = piecewise_linear([-0.5, -0.2, 0.0, 0.3, 0.6], [0.4, 0.7, 1.0, 0.6, 0.4])
    cfg = GammaConfig(gamma=1.5)
    t = 0.9 * blow_up_time(datum, cfg)
    feet = np.linspace(-0.5, 0.6, 203)[1:-1]
    states = [advance(float(x0), t, datum, cfg) for x0 in feet]
    values = evaluate_smooth_grid([s.position for s in states], t, datum, cfg)
    exact = np.array([s.value for s in states])
    assert np.max(np.abs(values - exact) / exact) <= 1e-12


def test_evaluate_smooth_grid_is_mirror_symmetric():
    # the left half-line (x < 0) is the reflection of the right one,
    # including the fans of an interior jump and of a support edge
    cfg = GammaConfig(gamma=1.3)
    right = piecewise_constant([0.0, 0.4, 0.9], [1.0, 0.6])
    left = piecewise_constant([-0.9, -0.4, 0.0], [0.6, 1.0])
    xs = np.linspace(0.0, 0.9, 257)[1:]
    t = 0.5 * blow_up_time(right, cfg)
    vals = evaluate_smooth_grid(xs, t, right, cfg)
    # the fans fill the gaps; the value falls to 0 at the support edge
    assert np.all(vals[:-1] > 0) and vals[-1] == 0.0
    assert np.allclose(evaluate_smooth_grid(-xs, t, left, cfg), vals,
                       rtol=1e-12, atol=0.0)


def test_confinement_and_monotone_growth():
    datum = piecewise_linear([-0.5, 0.2, 1.0], [0.0, 1.0, 0.0])
    cfg = GammaConfig(gamma=1.5)
    rng = np.random.default_rng(13)
    horizon = blow_up_time(datum, cfg)
    for _ in range(40):
        x0 = float(rng.uniform(-0.5, 1.0))
        ts = np.sort(rng.uniform(0.0, 0.95 * horizon, 4))
        values = []
        for t in ts:
            st = advance(x0, float(t), datum, cfg)
            lo, hi = min(-0.5, 0.0), max(1.0, 0.0)
            assert lo - 1e-12 <= st.position <= hi + 1e-12
            # curves point toward the origin
            assert abs(st.position) <= abs(x0) + 1e-12
            values.append(st.value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # the characteristic through the origin is stationary
    for t in (0.1, 0.4):
        assert advance(0.0, t, datum, cfg).position == 0.0


@st.composite
def fan_cases(draw):
    """(datum, cfg, xs, times): a constant or linear table, dim 1 or 2,
    whose values do not increase in |x|, so that it is smooth up to its
    horizon; its support may end at the origin on either side, and its
    outer edge values may be 0.  xs hold 0, the breakpoints, the edges and
    points off the support; times hold 0, a time whose rate underflows
    and times in [0, 0.999 * horizon)."""
    kind = draw(st.sampled_from(["constant", "linear"]))
    dim = draw(st.sampled_from([1, 2]))
    gamma = draw(st.floats(0.25, 4.0))
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    breakpoints = np.cumsum([0.0] + widths)
    if dim == 1:
        left = draw(st.sampled_from([0.0, 1.0, None]))
        if left is None:
            left = draw(st.floats(0.0, 1.0))
        breakpoints -= left * breakpoints[-1]
    if kind == "linear" and breakpoints[0] < 0 < breakpoints[-1]:
        # a breakpoint at the origin, so the values can fall away from it
        breakpoints = np.sort(np.append(breakpoints, 0.0))
    count = breakpoints.size - (kind == "constant")
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
    # the larger values nearer the origin: each segment's distance, or
    # each breakpoint's
    if kind == "constant":
        distance = np.maximum(np.maximum(breakpoints[:-1], -breakpoints[1:]), 0.0)
    else:
        distance = np.abs(breakpoints)
    values = np.sort(values)[::-1][np.argsort(np.argsort(distance, kind="stable"))]
    if kind == "linear":
        for edge in (0, -1):
            if breakpoints[edge] != 0 and draw(st.booleans()):
                values[edge] = 0.0
        datum = piecewise_linear(breakpoints, values)
    else:
        datum = piecewise_constant(breakpoints, values)
    cfg = GammaConfig(gamma=gamma, dim=dim)
    horizon = min(blow_up_time(datum, cfg), first_shock_time(datum, cfg))
    span = breakpoints[-1] - breakpoints[0]
    xs = np.concatenate([
        np.linspace(breakpoints[0] - 0.2 * span, breakpoints[-1] + 0.2 * span,
                    draw(st.integers(2, 80))),
        breakpoints, [0.0]])
    fractions = draw(st.lists(st.floats(0.0, 0.999, exclude_max=True),
                              min_size=1, max_size=5))
    times = np.array([0.0, 5e-324, *(f * horizon for f in fractions)])
    return (datum, cfg, np.array(draw(st.permutations(xs))),
            np.array(draw(st.permutations(times))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fan_cases())
def test_evaluate_smooth_grid_equals_the_full_bisection(case):
    # points in a support-edge fan skip the bisection; every output byte
    # must still be the one of the bisection of every bracket
    datum, cfg, xs, times = case
    reference = evaluate_smooth_grid_reference(xs, times, datum, cfg)
    assert evaluate_smooth_grid(xs, times, datum, cfg).tobytes() == reference.tobytes()
    for t in times[:2]:
        assert (evaluate_smooth_grid(xs, t, datum, cfg).tobytes()
                == evaluate_smooth_grid_reference(xs, t, datum, cfg).tobytes())


def test_fan_points_are_not_bisected():
    # the smooth-characteristics benchmark profile at 1 024 points and five
    # times: about two in five of its 4 092 moving brackets lie in a
    # support-edge fan, so the datum sees well under the FOOT_HALVINGS
    # evaluations per bracket that bisecting every bracket takes
    datum = piecewise_linear([-0.5, -0.375, -0.25, -0.125, 0.0, 0.15, 0.3, 0.45, 0.6],
                             [0.4, 0.55, 0.7, 0.85, 1.0, 0.85, 0.7, 0.55, 0.4])
    cfg = GammaConfig(gamma=1.0)
    xs = np.linspace(datum.a, datum.b, 1024)
    times = np.linspace(0.0, 0.9, 5) * blow_up_time(datum, cfg)
    brackets = 4 * np.count_nonzero(xs)  # the moving times by the points off x = 0
    seen = []
    real = InitialDatum.__call__

    def counting(self, x):
        seen.append(np.size(x))
        return real(self, x)

    with mock.patch.object(InitialDatum, "__call__", counting):
        values = evaluate_smooth_grid(xs, times, datum, cfg)
    assert values.tobytes() == evaluate_smooth_grid_reference(xs, times, datum, cfg).tobytes()
    assert sum(seen) < 0.7 * characteristics.FOOT_HALVINGS * brackets
