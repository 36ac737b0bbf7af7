import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from condrift import conslaw, measure
from condrift.conslaw import (
    LEFT,
    RIGHT,
    CflViolation,
    HalfLineGrid,
    HalfLineState,
    SupportOverflow,
    check_cell_steps,
    init_from_datum,
    make_grid,
    run_until,
    stable_dt,
    step,
    xi_extent_of_datum,
)
from condrift.datum import (
    block_datum,
    example_block_datum,
    piecewise_constant,
    piecewise_linear,
)
from condrift.frames import GammaConfig, x_of_xi
import oracles
from oracles import (
    output_times_reference,
    riemann_exact,
    right_row_state,
    run_until_reference,
    stepped_rows_reference,
    total_variation,
)


CFG = GammaConfig(gamma=1.0)


def two_sided_datum():
    return piecewise_linear([-0.8, -0.2, 0.5, 1.1], [0.0, 1.2, 0.7, 0.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        HalfLineGrid(cell_count=4, cell_width=0.1)
    with pytest.raises(ValueError):
        HalfLineGrid(cell_count=16, cell_width=0.0)
    grid = HalfLineGrid(cell_count=16, cell_width=0.25)
    assert grid.extent == pytest.approx(4.0)
    assert grid.centers[0] == pytest.approx(0.125)


def test_init_zero_datum_gives_zero_states():
    datum = block_datum(0.0, 0.0, 1.0)
    grid = make_grid(datum, CFG, 32)
    state = init_from_datum(datum, grid, CFG)
    assert not state.cells.any()


def test_init_block_profile_is_linear_in_xi():
    # gamma = 1: u_I(xi) = xi on [0, 1], zero beyond
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 1024)
    state = init_from_datum(datum, grid, CFG)
    ideal = grid.centers * (grid.centers <= 1.0)
    mismatch = np.abs(state.cells[RIGHT] - ideal) > 1e-12
    assert mismatch.sum() <= 1  # only the cell straddling the support edge
    assert not state.cells[LEFT].any()


def test_init_masses_match_datum_sides():
    datum = two_sided_datum()
    grid = make_grid(datum, CFG, 2048)
    mass_left, mass_right = init_from_datum(datum, grid, CFG).mass
    mass_left_ref, _ = quad(lambda x: float(datum(x)), -0.8, 0.0)
    mass_right_ref, _ = quad(lambda x: float(datum(x)), 0.0, 1.1)
    assert mass_left == pytest.approx(mass_left_ref, abs=1e-8)
    assert mass_right == pytest.approx(mass_right_ref, abs=1e-8)


def test_init_support_overflow():
    datum = two_sided_datum()
    grid = HalfLineGrid(cell_count=64, cell_width=1e-3)
    with pytest.raises(SupportOverflow):
        init_from_datum(datum, grid, CFG)


def test_flux_values():
    assert conslaw._flux(0.0, 1.0) == 0.0
    assert conslaw._flux(1.0, 1.0) == pytest.approx(0.5)
    assert conslaw._flux(2.0, 2.0) == pytest.approx(8.0 / 3.0)


def test_flux_equals_riemann_interface_flux():
    # the scheme's interface flux must equal the flux of the exact Riemann
    # solution sampled at the interface (xi/t = 0)
    rng = np.random.default_rng(5)
    for gamma in (0.5, 1.0, 2.0):
        cfg = GammaConfig(gamma=gamma)
        for _ in range(200):
            u_l, u_r = rng.uniform(0.0, 2.0, 2)
            interface = riemann_exact(float(u_l), float(u_r), 0.0, cfg)
            assert conslaw._flux(interface, gamma) == conslaw._flux(float(u_r), gamma)


# The gamma = 1 power is a square; it and the flux must give the bits of the
# general power and divide, down to the subnormals, where 1e-160 squares to
# one, and up to 1.3e154, whose square is still finite.
FLUX_VALUES = {
    "zero": [0.0],
    "smallest-subnormal": [5e-324],
    "square-underflows": [1e-160],
    "1e-154": [1e-154],
    "random": np.random.default_rng(31).uniform(0.0, 2.0, 1000),
    "1.3e154": [1.3e154],
}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).view(np.uint64).tobytes()


@pytest.mark.parametrize("values", FLUX_VALUES.values(), ids=FLUX_VALUES)
def test_flux_at_gamma_1_has_the_bits_of_the_power_and_divide(values):
    u = np.array(values)
    expected = bits(np.power(u, 2.0) / 2.0)
    assert bits(conslaw._flux(u, 1.0)) == expected
    out = np.full_like(u, np.nan)
    assert conslaw._power(u, 1.0, out) is out
    assert bits(out) == bits(np.power(u, 2.0))


def test_flux_at_gamma_1_overflows_like_the_power_and_divide():
    # 1.4e154 squares past the largest double; as under the tier-1
    # warning filter, the overflow is a RuntimeWarning raised as an error
    u = np.array([1.3e154, 1.4e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for flux in (lambda: np.power(u, 2.0) / 2.0, lambda: conslaw._flux(u, 1.0)):
            with pytest.raises(RuntimeWarning, match="overflow"):
                flux()
    with np.errstate(over="ignore"):
        expected = np.power(u, 2.0) / 2.0
        assert expected[1] == np.inf
        assert bits(conslaw._flux(u, 1.0)) == bits(expected)


def test_riemann_constant_state():
    for s in (-1.0, 0.0, 0.5):
        assert riemann_exact(0.7, 0.7, s, CFG) == 0.7


def test_riemann_shock_speed_rankine_hugoniot():
    # u_l = 0, u_r = 1, gamma = 1: speed -(1-0)/(2*(1-0)) = -1/2
    s = -0.5
    assert riemann_exact(0.0, 1.0, s - 1e-9, CFG) == 0.0
    assert riemann_exact(0.0, 1.0, s + 1e-9, CFG) == 1.0
    # generic random jumps: the traveling discontinuity conserves mass
    rng = np.random.default_rng(9)
    for gamma in (0.5, 2.0):
        cfg = GammaConfig(gamma=gamma)
        u_l, u_r = np.sort(rng.uniform(0.0, 2.0, 2))
        speed_rh = -(u_r ** (1 + gamma) - u_l ** (1 + gamma)) / (
            (1 + gamma) * (u_r - u_l))
        assert riemann_exact(float(u_l), float(u_r), speed_rh - 1e-9, cfg) == u_l
        assert riemann_exact(float(u_l), float(u_r), speed_rh + 1e-9, cfg) == u_r


def test_riemann_rarefaction_profile():
    # u_l = 1, u_r = 0, gamma = 1: fan u = -xi/t on -1 <= xi/t <= 0
    for s in np.linspace(-0.99, -0.01, 9):
        assert riemann_exact(1.0, 0.0, float(s), CFG) == pytest.approx(-s)
    assert riemann_exact(1.0, 0.0, -1.5, CFG) == 1.0
    assert riemann_exact(1.0, 0.0, 0.5, CFG) == 0.0


def test_step_zero_state_capped_by_dt():
    datum = block_datum(0.0, 0.0, 1.0)
    grid = make_grid(datum, CFG, 32)
    state = init_from_datum(datum, grid, CFG)
    assert stable_dt(state, 1.0, CFG) > 1e10  # floored speed
    run_until(state, 0.125, 0.9, CFG)
    assert state.time == pytest.approx(0.125)
    assert not state.cells.any()


def test_step_requires_valid_cfl():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 64)
    state = init_from_datum(datum, grid, CFG)
    with pytest.raises(CflViolation):
        step(state, 0.0, CFG)
    with pytest.raises(CflViolation):
        step(state, 1.5, CFG)


def test_step_mass_plus_ledger_telescopes():
    # single-cell pulse: discrete mass + ledger constant to rounding per step
    grid = HalfLineGrid(cell_count=64, cell_width=0.05)
    cells = np.zeros(64)
    cells[3] = 1.0
    state = right_row_state(grid, cells)
    m0 = state.mass[RIGHT] + state.outflux_ledger[RIGHT]
    for _ in range(200):
        step(state, 0.9, CFG)
        total = state.mass[RIGHT] + state.outflux_ledger[RIGHT]
        assert total == pytest.approx(m0, abs=1e-14)


def test_mass_ledger_conservation_long_run():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 512)
    state = init_from_datum(datum, grid, CFG)
    m0 = state.mass[RIGHT]
    worst = 0.0
    for _ in range(10_000):
        step(state, 0.9, CFG)
        worst = max(worst, abs(state.mass[RIGHT] + state.outflux_ledger[RIGHT] - m0))
    assert worst <= 1e-12


def test_positivity_and_linf_stability():
    rng = np.random.default_rng(21)
    grid = HalfLineGrid(cell_count=128, cell_width=0.01)
    cells = rng.uniform(0.0, 2.0, 128)
    state = right_row_state(grid, cells)
    sup0 = state.cells.max()
    for _ in range(300):
        step(state, 1.0, CFG)
        assert state.cells.min() >= 0.0
        assert state.cells.max() <= sup0 + 1e-13


def test_total_variation_diminishing():
    rng = np.random.default_rng(22)
    grid = HalfLineGrid(cell_count=128, cell_width=0.01)
    state = right_row_state(grid, rng.uniform(0.0, 1.5, 128))
    tv = total_variation(state.cells[RIGHT])
    for _ in range(200):
        step(state, 0.9, CFG)
        tv_new = total_variation(state.cells[RIGHT])
        assert tv_new <= tv + 1e-12
        tv = tv_new


def test_discrete_comparison_principle():
    # ordered data stay ordered under shared time steps (monotone scheme)
    rng = np.random.default_rng(23)
    grid = HalfLineGrid(cell_count=64, cell_width=0.02)
    for gamma in (0.7, 1.0, 1.8):
        cfg = GammaConfig(gamma=gamma)
        for _ in range(17):
            upper = rng.uniform(0.0, 2.0, 64)
            lower = upper * rng.uniform(0.0, 1.0, 64)
            # one state, so both rows take the dt of upper's peak
            state = HalfLineState(grid=grid, cells=np.stack([lower, upper]))
            for _ in range(25):
                step(state, 0.9, cfg)
                assert np.all(state.cells[LEFT] <= state.cells[RIGHT] + 1e-13)


def test_run_until_noop_and_exact_landing():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 64)
    state = init_from_datum(datum, grid, CFG)
    before = state.cells.copy()
    run_until(state, 0.0, 0.9, CFG)
    assert state.time == 0.0 and np.array_equal(state.cells, before)
    run_until(state, 0.3117, 0.9, CFG)
    assert state.time == 0.3117


def test_run_until_cadence_does_not_change_dynamics():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 128)
    fine_snaps, coarse_snaps = [], []
    s1 = init_from_datum(datum, grid, CFG)
    s2 = init_from_datum(datum, grid, CFG)
    run_until(s1, 0.8, 0.9, CFG, observer=fine_snaps.append, cadence=0.05)
    run_until(s2, 0.8, 0.9, CFG, observer=coarse_snaps.append, cadence=0.5)
    assert np.array_equal(s1.cells, s2.cells)
    assert np.array_equal(s1.outflux_ledger, s2.outflux_ledger)
    # cadence grid plus a final snapshot exactly at t_end when off-grid
    assert len(fine_snaps) == 17 and len(coarse_snaps) == 3
    assert fine_snaps[0].time == 0.0 and fine_snaps[-1].time == pytest.approx(0.8)
    assert coarse_snaps[-1].time == pytest.approx(0.8)
    # snapshots are decoupled copies
    fine_snaps[3].cells[:] = -1.0
    assert s1.cells.min() >= 0.0


@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_run_until_places_snapshots_at_multiples_of_the_cadence(t0):
    # adding the cadence up drifts: 1e-3 added up to t = 50 ends
    # 2.6e-11 short of 50
    datum = example_block_datum(1.0)
    state = init_from_datum(datum, make_grid(datum, CFG, 16), CFG)
    run_until(state, t0, 0.9, CFG)
    times = []
    run_until(state, 50.0, 0.9, CFG, observer=lambda snap: times.append(snap.time),
              cadence=1e-3)
    assert len(times) == round((50.0 - t0) / 1e-3) + 1
    assert times[:-1] == [t0 + k * 1e-3 for k in range(len(times) - 1)]
    assert times[-1] == 50.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t0=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
       span=st.one_of(st.sampled_from([0.0, 1e-13, 5e-13, 2e-12]), st.floats(0.0, 20.0)),
       cadence=st.floats(1e-3, 5.0))
def test_output_times_follow_the_one_k_at_a_time_rule(t0, span, cadence):
    # from t0 = 0 they are also characteristics' former np.arange times,
    # cut at the landing tolerance and ended by t_end
    t_end = t0 + span
    assume(span / cadence < 1e4)
    times = conslaw.output_times(t0, t_end, cadence)
    assert times.dtype == np.float64
    assert times.tolist() == output_times_reference(t0, t_end, cadence)
    if t0 == 0.0:
        grid = np.arange(0.0, t_end, cadence)
        before = t_end - conslaw.landing_tolerance(t_end)
        grid = np.append(grid[(grid == 0.0) | (grid < before)], t_end)
        assert times.tolist() == (grid.tolist() if t_end > 0 else [0.0])


def test_run_until_rejects_past_target():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 64)
    state = init_from_datum(datum, grid, CFG)
    run_until(state, 0.5, 0.9, CFG)
    with pytest.raises(ValueError):
        run_until(state, 0.2, 0.9, CFG)


@pytest.mark.parametrize("observe", [False, True], ids=["plain", "observed"])
def test_run_until_rejects_a_nan_t_end(observe):
    datum = example_block_datum(1.0)
    state = init_from_datum(datum, make_grid(datum, CFG, 64), CFG)
    snaps = []
    kwargs = {"observer": snaps.append, "cadence": 0.1} if observe else {}
    with pytest.raises(ValueError, match="t_end precedes"):
        run_until(state, float("nan"), 0.9, CFG, **kwargs)
    assert state.time == 0.0 and not snaps


def test_run_until_rejects_a_nan_cadence():
    datum = example_block_datum(1.0)
    state = init_from_datum(datum, make_grid(datum, CFG, 64), CFG)
    snaps = []
    with pytest.raises(ValueError, match="positive cadence"):
        run_until(state, 0.5, 0.9, CFG, observer=snaps.append, cadence=float("nan"))
    assert state.time == 0.0 and not snaps


def test_scheme_converges_to_entropy_solution_on_riemann_data():
    # single decreasing jump opens into a rarefaction, never a standing shock
    cfg = GammaConfig(gamma=1.0)
    grid_sizes = (256, 1024)
    errors = []
    for n in grid_sizes:
        grid = HalfLineGrid(cell_count=n, cell_width=2.0 / n)
        jump = 1.2
        cells = np.where(grid.centers < jump, 1.0, 0.0)
        state = right_row_state(grid, cells)
        t_end = 0.5
        run_until(state, t_end, 0.9, cfg)
        exact = np.array([
            riemann_exact(1.0, 0.0, (xi - jump) / t_end, cfg)
            for xi in grid.centers
        ])
        errors.append(float(np.sum(np.abs(state.cells[RIGHT] - exact)) * grid.cell_width))
    assert errors[1] < 0.5 * errors[0]
    assert errors[1] < 0.01
    # and an admissible (increasing) jump travels as a sharp shock at the
    # Rankine-Hugoniot speed
    n = 1024
    grid = HalfLineGrid(cell_count=n, cell_width=2.0 / n)
    jump = 1.2
    cells = np.where(grid.centers < jump, 0.2, 1.0)
    state = right_row_state(grid, cells)
    t_end = 0.4
    run_until(state, t_end, 0.9, cfg)
    exact = np.array([
        riemann_exact(0.2, 1.0, (xi - jump) / t_end, cfg) for xi in grid.centers
    ])
    # compare away from the far boundary, where the zero-inflow ghost
    # differs from the unbounded Riemann datum
    window = grid.centers <= 1.5
    err = float(np.sum(np.abs(state.cells[RIGHT] - exact)[window]) * grid.cell_width)
    assert err < 0.01


def test_left_state_is_reflection():
    # mirror-symmetric datum: left and right canonical rows coincide, and
    # stay together under the common time step
    datum = piecewise_linear([-1.0, -0.25, 0.25, 1.0], [0.0, 1.0, 1.0, 0.0])
    grid = make_grid(datum, CFG, 256)
    state = init_from_datum(datum, grid, CFG)
    assert np.allclose(state.cells[LEFT], state.cells[RIGHT], atol=1e-12)
    run_until(state, 1.5, 0.9, CFG)
    assert np.max(np.abs(state.cells[LEFT] - state.cells[RIGHT])) <= 1e-12
    assert abs(state.outflux_ledger[LEFT] - state.outflux_ledger[RIGHT]) <= 1e-12
    assert state.outflux_ledger[RIGHT] > 0


def test_empty_row_stays_exactly_zero():
    # one-sided datum: the left row is never stepped and never moves
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 128)
    state = init_from_datum(datum, grid, CFG)
    snaps = []
    run_until(state, 2.0, 0.9, CFG, observer=snaps.append, cadence=0.5)
    assert state.outflux_ledger[RIGHT] > 0
    assert state.outflux_ledger[LEFT] == 0.0
    assert not state.cells[LEFT].any()
    assert not state.trace_values[:, LEFT].any()
    assert all(not s.cells[LEFT].any() and s.outflux_ledger[LEFT] == 0.0 for s in snaps)


def test_step_rejects_nan():
    grid = HalfLineGrid(cell_count=16, cell_width=0.1)
    cells = np.ones(16)
    cells[5] = np.nan
    state = right_row_state(grid, cells)
    with pytest.raises(FloatingPointError):
        step(state, 0.9, CFG)


def test_trace_history_records_boundary_cell():
    datum = example_block_datum(1.0)
    grid = make_grid(datum, CFG, 64)
    state = init_from_datum(datum, grid, CFG)
    run_until(state, 0.25, 0.9, CFG)
    assert state.trace_times[0] == 0.0
    assert state.trace_values[-1, RIGHT] == state.cells[RIGHT, 0]
    assert len(state.trace_times) == len(state.trace_values)
    x_last = x_of_xi(np.asarray([grid.edges[-1]]), CFG)
    assert np.isfinite(x_last).all()


GAMMAS = (0.5, 1.0, 2.0)
# the bit-identity tests also run at the ends of the gamma range that the
# property tests draw from, where 1+gamma is 1.3 and 4, and at gamma = 7:
# where 1+gamma is a power of two, the step folds 1/(1+gamma) into its scale
BIT_GAMMAS = GAMMAS + (0.3, 3.0, 7.0)
# cells handed to the constructor as -0.0: one inside the random data, one
# at the far end of a row, where the update adds -0.0 to an empty cell
SIGNED_ZEROS = (np.array([RIGHT, LEFT]), np.array([50, 127]))


def example36_state(cfg):
    datum = example_block_datum(cfg.gamma)
    return init_from_datum(datum, make_grid(datum, cfg, 256), cfg)


def two_sided_random_state(cfg):
    rng = np.random.default_rng(31)
    breakpoints = np.concatenate([np.sort(rng.uniform(-1.0, -0.05, 4)),
                                  np.sort(rng.uniform(0.05, 1.0, 4))])
    datum = piecewise_constant(breakpoints, rng.uniform(0.2, 2.0, 7))
    return init_from_datum(datum, make_grid(datum, cfg, 256), cfg)


def signed_zero_state(cfg):
    rng = np.random.default_rng(32)
    cells = rng.uniform(0.0, 2.0, (2, 128))
    cells[:, 100:] = 0.0
    cells[SIGNED_ZEROS] = -0.0
    return HalfLineState(grid=HalfLineGrid(cell_count=128, cell_width=0.01), cells=cells)


STATES = {"example36": example36_state, "two-sided": two_sided_random_state,
          "signed-zero": signed_zero_state}


def reference_state(kind, cfg):
    """The state as the unconditionally clipping step first sees it: the
    signed-zero cells keep the -0.0 they were built with."""
    state = STATES[kind](cfg)
    if kind == "signed-zero":
        state.cells[SIGNED_ZEROS] = -0.0
    return state


def step_one_reference(reference, cfg):
    """What ``step(state, 0.9, cfg)`` must match: the reference run to one
    CFL step ahead."""
    run_until_reference(reference, reference.time + stable_dt(reference, 0.9, cfg),
                        0.9, cfg)


def state_bytes(state):
    return (state.cells.tobytes(), state.outflux_ledger.tobytes(),
            np.float64(state.time).tobytes(), state.trace_times.tobytes(),
            state.trace_values.tobytes(), state.ledger_history.tobytes())


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("kind", list(STATES))
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_step_is_bit_identical_to_reference(gamma, kind, capped):
    cfg = GammaConfig(gamma=gamma)
    state, reference = STATES[kind](cfg), reference_state(kind, cfg)
    assert not np.signbit(state.cells).any()
    if capped:
        for cap in (np.random.default_rng(33).uniform(0.5, 1.5, 300)
                    * stable_dt(state, 0.9, cfg)):
            run_until(state, state.time + cap, 0.9, cfg)
            run_until_reference(reference, reference.time + cap, 0.9, cfg)
    else:
        for _ in range(300):
            step(state, 0.9, cfg)
            step_one_reference(reference, cfg)
    assert state_bytes(state) == state_bytes(reference)
    assert state.outflux_ledger[stepped_rows_reference(state.cells)].min() > 0


def margin_state(cfg):
    """The block on a grid three times its support: hi falls far short of N."""
    datum = example_block_datum(cfg.gamma)
    grid = HalfLineGrid(256, 3.0 * xi_extent_of_datum(datum, cfg) / 256)
    return init_from_datum(datum, grid, cfg)


def full_row_state(cfg):
    """Random cells on every column of both rows: hi is the grid's end."""
    cells = np.random.default_rng(34).uniform(0.2, 1.5, (2, 128))
    return HalfLineState(grid=HalfLineGrid(cell_count=128, cell_width=0.01), cells=cells)


RUN_STATES = {"example36": example36_state, "two-sided": two_sided_random_state,
              "margin-3": margin_state, "full-row": full_row_state}


def entry_window(state):
    """One past the last occupied column."""
    return np.flatnonzero(state.cells.any(axis=0))[-1] + 1


def run_bytes(run, state, cfg, observe, cadence=None):
    """Every snapshot's cells, time and ledger, then the final state, as
    bytes; snapshots every ``cadence``, 0.1/gamma if not given."""
    snaps = []
    cadence = cadence or 0.1 / cfg.gamma
    kwargs = {"observer": snaps.append, "cadence": cadence} if observe else {}
    run(state, 1.2 / cfg.gamma, 0.9, cfg, **kwargs)
    return snapshot_bytes(snaps) + [state_bytes(state)]


def snapshot_bytes(snaps):
    return [(s.cells.tobytes(), np.float64(s.time).tobytes(), s.outflux_ledger.tobytes())
            for s in snaps]


@pytest.mark.parametrize("kind", list(RUN_STATES))
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_run_until_snapshots_are_bit_identical_to_reference(gamma, kind):
    cfg = GammaConfig(gamma=gamma)
    for observe in (True, False):
        state = RUN_STATES[kind](cfg)
        fused = run_bytes(run_until, state, cfg, observe)
        assert fused == run_bytes(run_until_reference, RUN_STATES[kind](cfg), cfg, observe)
        assert len(fused) == (14 if observe else 1)
        assert state.outflux_ledger[stepped_rows_reference(state.cells)].min() > 0


@pytest.mark.parametrize("kind", ["example36", "two-sided"])
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_run_until_with_a_cadence_below_dt_is_bit_identical_to_reference(gamma, kind):
    # every step reaches a snapshot time, so the ledger is folded at
    # consecutive steps, and after the last one there is nothing left to fold
    cfg = GammaConfig(gamma=gamma)
    state = RUN_STATES[kind](cfg)
    cadence = 0.4 * stable_dt(state, 0.9, cfg)
    fused = run_bytes(run_until, state, cfg, True, cadence)
    assert fused == run_bytes(run_until_reference, RUN_STATES[kind](cfg), cfg, True, cadence)
    steps = len(state.trace_times) - 1
    assert len(fused) - 1 > 2 * steps


@pytest.mark.parametrize("observe", [False, True], ids=["end", "snapshots"])
@pytest.mark.parametrize("kind", ["example36", "two-sided"])
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_chained_run_until_calls_are_bit_identical_to_reference(gamma, kind, observe):
    # a run that lands on t1 and then goes on to t2; the second t1 lies
    # within the landing tolerance past a step time, so the first run stops
    # on that step and its last recorded time is not t1, the time the
    # second run starts from
    cfg = GammaConfig(gamma=gamma)
    probe = run_until(RUN_STATES[kind](cfg), 0.5 / gamma, 0.9, cfg)
    t_step = probe.trace_times[len(probe.trace_times) // 2]
    for t1 in (0.5 / gamma, t_step + 0.5e-12 * max(1.0, t_step)):
        runs = []
        for run in (run_until, run_until_reference):
            state, snaps = RUN_STATES[kind](cfg), []
            kwargs = {"observer": snaps.append, "cadence": 0.1 / gamma} if observe else {}
            run(state, t1, 0.9, cfg, **kwargs)
            landed = state.trace_times[-1] == state.time
            run(state, 1.2 / gamma, 0.9, cfg, **kwargs)
            runs.append((landed, snapshot_bytes(snaps), state_bytes(state)))
        assert runs[0] == runs[1]
        assert runs[0][0] == (t1 == 0.5 / gamma)
        k = len(state.trace_times)
        assert k > 2 and (len(runs[0][1]) > 10 if observe else not runs[0][1])
        for record, shape in ((state.trace_times, (k,)), (state.trace_values, (k, 2)),
                              (state.ledger_history, (k, 2))):
            assert record.dtype == np.float64 and record.shape == shape


@pytest.mark.parametrize("kind", list(RUN_STATES))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_run_until_steps_only_through_the_last_occupied_column(monkeypatch, gamma, kind):
    cfg = GammaConfig(gamma=gamma)
    state = RUN_STATES[kind](cfg)
    hi, n = entry_window(state), state.grid.cell_count
    assert hi == n if kind == "full-row" else hi < n
    if kind == "margin-3":
        assert hi < 0.4 * n
    rows = int(state.cells.any(axis=1).sum())
    assert rows == (1 if kind in ("example36", "margin-3") else 2)
    layouts, unwatched = [], conslaw._power

    def power(u, gamma, out=None):
        if out is not None:  # the kernel's calls; the ledger's have no buffer
            # the kernel steps a column-major window: each pass over it,
            # two rows too, walks one contiguous run of memory
            layouts.append((u.shape, u.flags.f_contiguous, out.shape, out.flags.f_contiguous))
        return unwatched(u, gamma, out)

    monkeypatch.setattr(conslaw, "_power", power)
    run_until(state, 1.2 / gamma, 0.9, cfg)
    assert len(layouts) > 50 and set(layouts) == {((rows, hi), True, (rows, hi), True)}
    beyond = state.cells[:, hi:]
    assert not beyond.any() and not np.signbit(beyond).any()


@pytest.mark.parametrize("where", ["inside", "beyond", "empty-row"])
@pytest.mark.parametrize("bad", [-1e-3, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_run_until_rejects_a_bad_cell_set_before_the_run(gamma, bad, where):
    # the block's left row is empty at construction: a bad cell set in it
    # makes it a stepped row, checked as the right one is
    cfg = GammaConfig(gamma=gamma)
    state = example36_state(cfg)
    column = 40 if where == "inside" else state.grid.cell_count - 1
    assert (column < entry_window(state)) == (where == "inside")
    assert not state.cells[LEFT].any()
    state.cells[LEFT if where == "empty-row" else RIGHT, column] = bad
    with pytest.raises(FloatingPointError):
        run_until(state, 1.0 / gamma, 0.9, cfg)


@pytest.mark.parametrize("gamma", GAMMAS + (3.0,))
def test_run_until_clips_roundoff_negatives_to_positive_zero(gamma):
    cfg = GammaConfig(gamma=gamma)
    state, reference = example36_state(cfg), example36_state(cfg)
    columns = [40, entry_window(state) + 3, state.grid.cell_count - 1]
    for s in (state, reference):
        s.cells[RIGHT, columns] = -1e-14
    fused = run_bytes(run_until, state, cfg, True)
    assert fused == run_bytes(run_until_reference, reference, cfg, True)
    assert not state.cells[RIGHT, columns[1:]].any()
    assert not np.signbit(state.cells).any()


@pytest.mark.parametrize("gamma", GAMMAS + (3.0,))
def test_run_until_steps_a_negative_zero_beyond_the_support(gamma):
    # a -0.0 set after construction is occupied: the update turns it into
    # +0.0, as the reference's entry clip does
    cfg = GammaConfig(gamma=gamma)
    state, reference = example36_state(cfg), example36_state(cfg)
    column = entry_window(state) + 3
    for s in (state, reference):
        s.cells[RIGHT, column] = -0.0
    fused = run_bytes(run_until, state, cfg, True)
    assert fused == run_bytes(run_until_reference, reference, cfg, True)
    assert not np.signbit(state.cells).any()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_run_until_reads_the_first_outflux_off_the_clipped_boundary(gamma):
    # roundoff negatives set in the boundary cells after construction: the
    # first step's outflux is the flux of their clipped +0.0, not of the
    # values that the trace recorded at construction
    cfg = GammaConfig(gamma=gamma)
    state, reference = full_row_state(cfg), full_row_state(cfg)
    assert state.trace_values[0].min() > 0.2
    for s in (state, reference):
        s.cells[:, 0] = -1e-14
    run_until(state, 1.2 / gamma, 0.9, cfg)
    run_until_reference(reference, 1.2 / gamma, 0.9, cfg)
    assert state.trace_values[0].tobytes() == np.zeros(2).tobytes()
    assert state_bytes(state)[:4] == state_bytes(reference)[:4]
    assert state.trace_values[1:].tobytes() == reference.trace_values[1:].tobytes()
    assert state.ledger_history.tobytes() == reference.ledger_history.tobytes()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_a_row_given_mass_after_construction_is_stepped(gamma):
    # the left row of the block is empty at construction; a boundary cell
    # set in it afterwards is stepped from the run's start, and its mass
    # drains into the left ledger
    cfg = GammaConfig(gamma=gamma)
    state, reference = example36_state(cfg), example36_state(cfg)
    for s in (state, reference):
        s.cells[LEFT, 0] = 0.25
    total = state.mass + state.outflux_ledger
    fused = run_bytes(run_until, state, cfg, True)
    expected = run_bytes(run_until_reference, reference, cfg, True)
    # the reference's trace keeps the boundary recorded at construction
    assert fused[:-1] == expected[:-1] and fused[-1][:4] == expected[-1][:4]
    assert state.trace_values[1:].tobytes() == reference.trace_values[1:].tobytes()
    assert state.ledger_history.tobytes() == reference.ledger_history.tobytes()
    assert state.trace_values[0, LEFT] == 0.25
    width = state.grid.cell_width
    assert state.mass[LEFT] < 0.25 * width / 2
    assert state.outflux_ledger[LEFT] > 0.25 * width / 2
    assert np.all(np.diff(state.ledger_history[:, LEFT]) > 0)
    assert np.abs(state.mass + state.outflux_ledger - total).max() <= 1e-15


# Where 1+gamma is a power of two the step scales the increment by
# (dt/dxi)/(1+gamma) in place of dividing the flux.  That commutes with
# rounding except where the divided flux is subnormal, so a cell can move
# by a few units of the smallest subnormal, 2^-1074.  On these data the
# largest moves are 1 unit at gamma = 1 and 4 units at gamma = 3, where the
# two cells that move are normal but below 2^-1019; the trace and the
# ledger keep their bits.
SUBNORMAL_CASES = {
    "gamma-1": (1.0, np.finfo(float).smallest_normal),
    "gamma-3": (3.0, 2.0 ** -1019),
}
SUBNORMAL_UNITS = 4


@pytest.mark.parametrize("support", [[0.6, 0.9], [0.95, 0.99]])
@pytest.mark.parametrize("gamma, below", SUBNORMAL_CASES.values(), ids=SUBNORMAL_CASES)
def test_folded_scale_moves_only_cells_next_to_the_subnormals(gamma, below, support):
    cfg = GammaConfig(gamma=gamma)
    datum = piecewise_constant(support, [1.0])
    runs = []
    for run in (run_until, run_until_reference):
        state = init_from_datum(datum, make_grid(datum, cfg, 64), cfg)
        snaps = []
        run(state, 4.0 / gamma, 0.9, cfg, observer=snaps.append, cadence=0.25 / gamma)
        runs.append((state, snaps))
    (state, snaps), (reference, reference_snaps) = runs
    assert len(snaps) == len(reference_snaps) == 17
    for history in ("trace_times", "trace_values", "ledger_history"):
        assert getattr(state, history).tobytes() == getattr(reference, history).tobytes()
    for snap, expected in zip(snaps + [state], reference_snaps + [reference]):
        assert snap.time == expected.time
        assert snap.outflux_ledger.tobytes() == expected.outflux_ledger.tobytes()
        moved = snap.cells != expected.cells
        assert (snap.cells[moved] < below).all() and (expected.cells[moved] < below).all()
        units = np.abs(snap.cells[moved] - expected.cells[moved]) / 2.0 ** -1074
        assert (units <= SUBNORMAL_UNITS).all()


@pytest.mark.parametrize("observe", [False, True], ids=["end", "snapshots"])
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_a_run_stopped_by_a_nan_folds_the_ledger_of_every_step_it_made(
        monkeypatch, gamma, observe):
    # the kernel's 40th flux power is NaN, so the run raises mid-step; the
    # fold in the run's finally must still add every completed step's
    # dt * flux(boundary it started from) to the ledger and its history
    peaks, real = [], conslaw._power

    def power(u, gamma, out=None):
        result = real(u, gamma, out)
        if out is not None:
            peaks.append(float(u.max()))
            if len(peaks) == 40:
                result[...] = np.nan
        return result

    monkeypatch.setattr(conslaw, "_power", power)
    cfg = GammaConfig(gamma=gamma)
    state = two_sided_random_state(cfg)
    ledger = state.outflux_ledger.copy()
    # with snapshots every 10 steps or so, the steps up to the last one are
    # folded as the run reaches them, and only the rest in the finally
    snaps = []
    kwargs = ({"observer": snaps.append, "cadence": 10 * stable_dt(state, 0.9, cfg)}
              if observe else {})
    with pytest.raises(FloatingPointError, match="monotone update"):
        run_until(state, 1.2 / gamma, 0.9, cfg, **kwargs)
    assert len(snaps) == (4 if observe else 0)
    assert len(state.trace_times) == len(state.ledger_history) == 40
    expected = [ledger.copy()]
    for k in range(1, 40):
        dt = conslaw._cfl_dt(peaks[k - 1], 0.9, state.grid.cell_width, gamma)
        assert state.trace_times[k] == state.trace_times[k - 1] + dt
        ledger = ledger + dt * conslaw._flux(state.trace_values[k - 1], gamma)
        expected.append(ledger.copy())
    assert state.ledger_history.tobytes() == np.array(expected).tobytes()
    assert state.outflux_ledger.tobytes() == expected[-1].tobytes()


FAULT_STEP = 20


def set_fault(u, flux, row, column, hi, bad):
    """Set ``bad`` into cell (row, column) of u, after its flux is taken,
    and level the flux so that the update leaves the cell at ``bad``: the
    next cell's flux becomes the cell's, or, in the window's last column,
    the cell's becomes the +0.0 flux of the empty cell beyond it."""
    u[row, column] = bad
    if column + 1 < hi:
        flux[row, column + 1] = flux[row, column]
    else:
        flux[row, column] = 0.0


def spy_fault(monkeypatch, *where):
    """Spies on ``_power`` and ``oracles._flux_reference`` that ``set_fault``
    at ``where`` in the FAULT_STEP-th update of the kernel and of the
    reference; returns the window shapes each has stepped."""
    windows, reference_steps = [], []
    power, flux_reference = conslaw._power, oracles._flux_reference

    def power_spy(u, gamma, out=None):
        result = power(u, gamma, out)
        if out is not None:  # the kernel's calls
            windows.append(u.shape)
            if len(windows) == FAULT_STEP:
                set_fault(u, result, *where)
        return result

    def flux_reference_spy(u, gamma):
        result = flux_reference(u, gamma)
        reference_steps.append(u.shape)
        if len(reference_steps) == FAULT_STEP:
            set_fault(u, result, *where)
        return result

    monkeypatch.setattr(conslaw, "_power", power_spy)
    monkeypatch.setattr(oracles, "_flux_reference", flux_reference_spy)
    return windows, reference_steps


FAULTS = {"nan": (np.nan, "raises"), "negative": (-1e-3, "raises"),
          "roundoff": (-1e-14, "clips")}


@pytest.mark.parametrize("bad, outcome", FAULTS.values(), ids=FAULTS)
@pytest.mark.parametrize("column", ["first", "last"])
@pytest.mark.parametrize("row", [LEFT, RIGHT], ids=["left", "right"])
@pytest.mark.parametrize("kind", ["two-sided", "full-row"])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_the_exit_check_finds_a_fault_at_either_end_of_a_two_row_window(
        monkeypatch, gamma, kind, row, column, bad, outcome):
    # the window's first column holds the argmax's first flat index (left
    # row) and the last column its last (right row); the fault is made by
    # the update of the FAULT_STEP-th step, in the kernel and in the reference
    cfg = GammaConfig(gamma=gamma)
    state, reference = RUN_STATES[kind](cfg), RUN_STATES[kind](cfg)
    hi = entry_window(state)
    windows, _ = spy_fault(monkeypatch, row, 0 if column == "first" else hi - 1, hi, bad)
    if outcome == "clips":
        fused = run_bytes(run_until, state, cfg, True)
        assert fused == run_bytes(run_until_reference, reference, cfg, True)
        assert len(windows) > FAULT_STEP and set(windows) == {(2, hi)}
        assert not np.signbit(state.cells).any()
    else:
        with pytest.raises(FloatingPointError, match="monotone update"):
            run_until(state, 1.2 / gamma, 0.9, cfg)
        assert windows == [(2, hi)] * FAULT_STEP
        assert len(state.trace_times) == len(state.ledger_history) == FAULT_STEP


@pytest.mark.parametrize("bad", [np.nan, -1e-3], ids=["nan", "negative"])
@pytest.mark.parametrize("kind", ["example36", "two-sided"])
@pytest.mark.parametrize("gamma", BIT_GAMMAS)
def test_a_run_stopped_mid_step_leaves_the_cells_of_the_reference(
        monkeypatch, gamma, kind, bad):
    # the FAULT_STEP-th update makes a fault in the middle of the last
    # stepped row, in the kernel and in the reference; the cells the run
    # leaves, the fault included, must be written back from the kernel's
    # own copy of the window
    cfg = GammaConfig(gamma=gamma)
    state, reference = RUN_STATES[kind](cfg), RUN_STATES[kind](cfg)
    hi = entry_window(state)
    windows, reference_steps = spy_fault(monkeypatch, -1, hi // 2, hi, bad)
    for run, s in ((run_until, state), (run_until_reference, reference)):
        with pytest.raises(FloatingPointError, match="monotone update"):
            run(s, 1.2 / gamma, 0.9, cfg)
    assert len(windows) == len(reference_steps) == FAULT_STEP
    assert state_bytes(state) == state_bytes(reference)
    fault = state.cells[RIGHT, hi // 2]
    assert np.isnan(fault) if np.isnan(bad) else fault == bad


@pytest.mark.parametrize("bad", [-1e-3, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_step_rejects_a_bad_cell_set_between_steps(gamma, bad):
    cfg = GammaConfig(gamma=gamma)
    state = example36_state(cfg)
    for _ in range(5):
        step(state, 0.9, cfg)
    state.cells[RIGHT, 40] = bad
    with pytest.raises(FloatingPointError):
        step(state, 0.9, cfg)


@pytest.mark.parametrize("through", ["run_until", "step"])
@pytest.mark.parametrize("rows", [1, 2])
def test_run_until_raises_on_a_nan_made_by_the_update(rows, through):
    # u^2/2 overflows to inf, so the first update makes inf - inf = NaN
    # inside the window: the guard's slow path must see it mid-run
    cells = np.zeros((2, 64))
    cells[2 - rows:] = 1e200
    state = HalfLineState(grid=HalfLineGrid(64, 1e190), cells=cells)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="monotone update"):
        if through == "run_until":
            run_until(state, 5e-10, 0.9, CFG)
        else:
            step(state, 0.9, CFG)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_step_clips_roundoff_negatives_to_positive_zero(gamma):
    cfg = GammaConfig(gamma=gamma)
    state, reference = example36_state(cfg), example36_state(cfg)
    for _ in range(5):
        step(state, 0.9, cfg)
        step_one_reference(reference, cfg)
    far = state.grid.cell_count - 1  # beyond the support: stays empty
    for s in (state, reference):
        s.cells[RIGHT, [40, far]] = -1e-14
    step(state, 0.9, cfg)
    step_one_reference(reference, cfg)
    assert state.cells[RIGHT, far] == 0.0 and not np.signbit(state.cells[RIGHT, far])
    assert state_bytes(state) == state_bytes(reference)


# Two identities that let `verify` read its convergence size grid_cells and
# its unit-mass pseudo-inverse check off the one law run.

@pytest.mark.parametrize("gamma", GAMMAS)
def test_snapshot_equals_a_run_that_lands_on_its_time(gamma):
    # the step sequence does not depend on the cadence and one step is
    # affine in dt, so interpolating between two steps gives the state of
    # a run whose last step is capped to land on the snapshot time
    cfg = GammaConfig(gamma=gamma)
    snaps = []
    run_until(example36_state(cfg), 4.0 / gamma, 0.9, cfg,
              observer=snaps.append, cadence=0.5 / gamma)
    assert len(snaps) == 9
    for snap in snaps[1:]:
        landed = run_until(example36_state(cfg), snap.time, 0.9, cfg)
        assert landed.time == snap.time
        np.testing.assert_allclose(landed.cells, snap.cells, rtol=0, atol=1e-13)
        np.testing.assert_allclose(landed.outflux_ledger, snap.outflux_ledger,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_unit_mass_block_is_a_dilation_of_the_unit_height_block(gamma):
    # xi -> lam*xi, u -> lam^(1/gamma)*u maps the unit-height block onto the
    # unit-mass block [0, 1]; the grid dilates with it and keeps its CFL dt,
    # so masses and x scale by 1+gamma and X(z) by 1+gamma at (1+gamma)*z
    cfg = GammaConfig(gamma=gamma)
    lam = (1.0 + gamma) ** (gamma / (1.0 + gamma))
    states = []
    for datum in (example_block_datum(gamma), piecewise_constant([0.0, 1.0], [1.0])):
        state = init_from_datum(datum, make_grid(datum, cfg, 128), cfg)
        states.append(run_until(state, 2.0 / gamma, 0.9, cfg))
    block, unit = states
    assert len(unit.trace_times) == len(block.trace_times)
    np.testing.assert_allclose(unit.trace_times, block.trace_times, rtol=0, atol=1e-13)
    np.testing.assert_allclose(unit.cells, lam ** (1.0 / gamma) * block.cells,
                               rtol=1e-13, atol=0)
    assert unit.outflux_ledger[RIGHT] == pytest.approx(
        (1.0 + gamma) * block.outflux_ledger[RIGHT], rel=1e-13)
    block_ms, unit_ms = (measure.assemble(s, cfg) for s in (block, unit))
    block_z, unit_z = (measure.z_grid(ms, 128) for ms in (block_ms, unit_ms))
    np.testing.assert_allclose(unit_z, (1.0 + gamma) * block_z, rtol=1e-13, atol=0)
    np.testing.assert_allclose(measure.pseudo_inverse(unit_ms, unit_z),
                               (1.0 + gamma) * measure.pseudo_inverse(block_ms, block_z),
                               rtol=0, atol=1e-13)


@st.composite
def two_sided_runs(draw):
    """A random two-sided piecewise-constant datum on at most 128 cells, with
    a cfl and an end time."""
    gamma = draw(st.floats(0.3, 3.0))
    left, right = (draw(st.lists(st.floats(0.02, 1.0), min_size=1, max_size=4))
                   for _ in range(2))
    breakpoints = np.concatenate([-np.cumsum(left)[::-1], [0.0], np.cumsum(right)])
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=breakpoints.size - 1,
                           max_size=breakpoints.size - 1))
    cfg = GammaConfig(gamma=gamma)
    datum = piecewise_constant(breakpoints, values)
    state = init_from_datum(datum, make_grid(datum, cfg, draw(st.integers(8, 128))), cfg)
    return state, draw(st.floats(0.05, 1.0)), draw(st.floats(0.01, 4.0)) / gamma, cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(two_sided_runs())
def test_run_until_takes_no_more_steps_than_check_cell_steps_estimates(case):
    # max u never rises, so no uncapped step is shorter than the first; the
    # step that lands on t_end may be capped
    state, cfl, t_end, cfg = case
    estimate = check_cell_steps(state, t_end, cfl, cfg)
    run_until(state, t_end, cfl, cfg)
    assert len(state.trace_times) - 1 <= estimate + 1


EPS = np.finfo(float).eps
# the monotone-scheme bounds below hold to this many ulps of their scale
MONOTONE_ULPS = 8


@st.composite
def right_half_line_data(draw):
    """A piecewise-constant or piecewise-linear datum on [a, b], 0 <= a."""
    linear = draw(st.booleans())
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    breakpoints = draw(st.floats(0.0, 0.5)) + np.concatenate([[0.0], np.cumsum(widths)])
    count = breakpoints.size - (not linear)
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
    return (piecewise_linear if linear else piecewise_constant)(breakpoints, values)


@st.composite
def monotone_runs(draw):
    """Two right half-line data averaged on one grid, with gamma and a cfl.

    A cfl above 1/2 makes a flux that is off by a factor 2 break the CFL
    condition at gamma = 1."""
    cfg = GammaConfig(gamma=draw(st.sampled_from(GAMMAS)))
    first, second = draw(right_half_line_data()), draw(right_half_line_data())
    grid = make_grid(max(first, second, key=lambda d: d.b), cfg, draw(st.integers(8, 64)))
    rows = [init_from_datum(d, grid, cfg).cells[RIGHT] for d in (first, second)]
    return cfg, grid, rows, draw(st.floats(0.6, 1.0))


def check_monotone_run(state, cfg, cfl, ordered):
    """Run the state to 2/gamma with snapshots and check each snapshot
    against the initial state.

    An interpolated snapshot is a convex combination of two steps, so it
    keeps the order and stays within the initial L1 distance and total
    variation, but it can fall below the next snapshot's; so every bound
    is taken from the initial state, which is a step.  The ledger joins
    the L1 distance as one more cell, the origin's, which makes the
    extended map conservative (mass + ledger is constant, per row) and
    so an L1 contraction (Crandall and Tartar)."""
    mass0 = state.mass.copy()
    scale = MONOTONE_ULPS * EPS
    sup, mass = scale * state.sup_initial, scale * mass0.sum()
    snaps = []
    run_until(state, 2.0 / cfg.gamma, cfl, cfg, observer=snaps.append,
              cadence=0.125 / cfg.gamma)

    def distance(snap):
        return (np.abs(snap.cells[0] - snap.cells[1]).sum() * snap.grid.cell_width
                + abs(snap.outflux_ledger[0] - snap.outflux_ledger[1]))

    distance0 = distance(snaps[0])
    tv0 = [total_variation(row) for row in snaps[0].cells]
    for snap in snaps:
        assert np.all(np.abs(snap.mass + snap.outflux_ledger - mass0) <= mass)
        assert distance(snap) <= distance0 + mass
        for row, tv in zip(snap.cells, tv0):
            assert total_variation(row) <= tv * (1 + scale)
        if ordered:
            assert np.all(snap.cells[0] <= snap.cells[1] + sup)
            assert snap.outflux_ledger[0] <= snap.outflux_ledger[1] + mass


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monotone_runs())
def test_monotone_scheme_invariants_hold_for_any_datum(case):
    # two data in the two rows of one state share every CFL dt, so both
    # rows are stepped by the same monotone map: once as given, once
    # ordered as (u, u + w)
    cfg, grid, (u, w), cfl = case
    check_monotone_run(HalfLineState(grid=grid, cells=[u, w]), cfg, cfl, ordered=False)
    check_monotone_run(HalfLineState(grid=grid, cells=[u, u + w]), cfg, cfl, ordered=True)
