import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from condrift import conslaw
from condrift.conslaw import (
    LEFT,
    RIGHT,
    HalfLineGrid,
    HalfLineState,
    init_from_datum,
    make_grid,
    run_until,
)
from condrift.datum import (
    block_datum,
    example_block_datum,
    integrate_piecewise,
    piecewise_constant,
    piecewise_linear,
)
from condrift.frames import GammaConfig
from condrift.measure import (
    MeasureState,
    assemble,
    check_entropy_measure,
    grid_geometry,
    measure_rows,
    original_frame_series,
    pseudo_inverse,
    trace_onset_time,
    wasserstein_to_dirac,
    z_grid,
)
from oracles import (
    X_unit_mass,
    assemble_reference,
    check_entropy_measure_reference,
    eq_residual_l1,
    mass_unit_mass,
)

CFG = GammaConfig(gamma=1.0)


def simulate_block(gamma, n, times, cfl=0.9, datum=None):
    cfg = GammaConfig(gamma=gamma)
    datum = datum or example_block_datum(gamma)
    grid = make_grid(datum, cfg, n)
    state = init_from_datum(datum, grid, cfg)
    ms_series = []
    for t in times:
        run_until(state, t, cfl, cfg)
        ms_series.append(assemble(state, cfg))
    return ms_series, datum, state.sup_initial


def pseudo_inverses(ms_series, z_count):
    """X of each snapshot on one z-grid over the first, as simulate builds them."""
    z = z_grid(ms_series[0], z_count)
    return [pseudo_inverse(ms, z) for ms in ms_series]


def test_assemble_zero_states():
    grid = HalfLineGrid(cell_count=16, cell_width=0.1)
    state = HalfLineState(grid=grid, cells=np.zeros((2, 16)))
    ms = assemble(state, CFG)
    assert ms.dirac_mass == 0.0 and ms.ac_mass == 0.0
    assert not ms.rho.size


def test_assemble_condensed_mass_matches_explicit_law():
    ms_series, _, _ = simulate_block(1.0, 1024, [2.0])
    ms = ms_series[0]
    # M - (1/(gamma t))^(1/gamma)/(1+gamma) = 1/2 - 1/4
    assert ms.dirac_mass == pytest.approx(0.25, rel=0.01)
    assert ms.total_mass == pytest.approx(0.5, abs=1e-12)


def test_assemble_two_mass_accountings_agree():
    ms_series, _, _ = simulate_block(1.0, 512, [0.5, 1.0, 1.5, 2.5])
    for ms in ms_series:
        # ledger-based Dirac mass vs total minus density quadrature
        assert ms.dirac_mass == pytest.approx(ms.total_mass - ms.ac_mass,
                                              abs=1e-8)


def test_assemble_support_inside_initial_hull():
    ms_series, datum, _ = simulate_block(1.0, 512, [0.0, 0.3, 1.2, 3.0])
    # the discrete support endpoint sits on the outer edge of the straddling
    # cell, so confinement is relative to the initial discrete support
    lo0, hi0 = ms_series[0].support
    assert lo0 >= min(datum.a, 0.0) - 1e-12
    assert hi0 <= max(datum.b, 0.0) + ms_series[0].x[-1] * 0.01 + 1e-2
    for ms in ms_series[1:]:
        assert ms.support[0] >= lo0 - 1e-12
        assert ms.support[1] <= hi0 + 1e-12


@pytest.mark.parametrize("source", ["other-grid", "inner-support"])
def test_assemble_rejects_a_geometry_that_does_not_cover_the_snapshot(source):
    grid = HalfLineGrid(cell_count=16, cell_width=0.1)
    cells = np.zeros((2, 16))
    cells[:, :8] = 1.0
    snap = HalfLineState(grid=grid, cells=cells)
    if source == "other-grid":  # covers as many cells, of another width
        other = HalfLineState(grid=HalfLineGrid(16, 0.2), cells=cells)
    else:  # same grid, outermost cell with mass inside the snapshot's
        inner = cells.copy()
        inner[:, 4:] = 0.0
        other = HalfLineState(grid=grid, cells=inner)
    assemble(snap, CFG, grid_geometry(snap, CFG))
    with pytest.raises(ValueError, match="does not cover the snapshot"):
        assemble(snap, CFG, grid_geometry(other, CFG))


def test_pseudo_inverse_pure_dirac():
    grid = HalfLineGrid(cell_count=16, cell_width=0.1)
    state = HalfLineState(grid=grid, cells=np.zeros((2, 16)),
                          outflux_ledger=[0.3, 0.2])
    ms = assemble(state, CFG)
    assert np.all(pseudo_inverse(ms, z_grid(ms, 64)) == 0.0)
    assert wasserstein_to_dirac(ms) == 0.0


def test_pseudo_inverse_needs_enough_nodes():
    ms_series, _, _ = simulate_block(1.0, 128, [0.1])
    with pytest.raises(ValueError):
        z_grid(ms_series[0], 8)


def test_pseudo_inverse_plateau_width_is_dirac_mass():
    ms_series, _, _ = simulate_block(1.0, 1024, [1.5, 2.5])
    for ms in ms_series:
        z = z_grid(ms, 512)
        on_plateau = np.abs(pseudo_inverse(ms, z)) == 0.0
        dz = z[1] - z[0]
        assert abs(on_plateau.sum() * dz - ms.dirac_mass) <= 2.5 * dz


def test_pseudo_inverse_monotone_and_matches_initial_profile():
    ms_series, _, _ = simulate_block(1.0, 1024, [0.0], datum=block_datum(1.0, 0.0, 1.0))
    z = z_grid(ms_series[0], 256)
    X = pseudo_inverse(ms_series[0], z)
    assert np.all(np.diff(X) >= -1e-15)
    # X(z, 0) = z for the uniform unit datum
    assert np.max(np.abs(X - z)) < 2e-3


def test_wasserstein_uniform_block():
    ms_series, _, _ = simulate_block(1.0, 2048, [0.0], datum=block_datum(1.0, 0.0, 1.0))
    ms = ms_series[0]
    # closed form: integral of z on [0, 1] = 1/2
    assert wasserstein_to_dirac(ms) == pytest.approx(0.5, abs=1e-4)


def test_wasserstein_nonincreasing_along_explicit_solution():
    z = np.linspace(0.0, 1.0, 4097)
    values = []
    for t in (0.0, 0.4, 0.9, 1.5, 3.0, 8.0):
        X = X_unit_mass(z, t, 1.0)
        values.append(np.trapezoid(np.abs(X), z))
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_original_frame_series_identity_at_zero_and_mass_preserved():
    ms_series, _, _ = simulate_block(1.0, 512, [0.0, 1.0, 3.0])
    series = original_frame_series(measure_rows(ms_series), 1.0)
    tau, _, dirac, _, _, diameter, _ = np.array(series).T
    assert tau[0] == 0.0
    assert diameter[0] == pytest.approx(
        ms_series[0].support[1] - ms_series[0].support[0])
    for m, ms in zip(dirac, ms_series):
        assert m == pytest.approx(ms.dirac_mass, abs=1e-14)
    # e^(-tau) = 1/(1 + gamma t) for gamma = d = 1
    assert diameter[2] == pytest.approx(
        (ms_series[2].support[1] - ms_series[2].support[0]) / 4.0, rel=1e-12)


def test_trace_onset_time():
    cfg = GammaConfig(gamma=1.0)
    datum = example_block_datum(1.0)
    grid = make_grid(datum, cfg, 512)
    state = init_from_datum(datum, grid, cfg)
    run_until(state, 1.5, 0.9, cfg)
    onset_left, onset = trace_onset_time(state.trace_times, state.trace_values,
                                         1e-2)
    # N = 512 resolves the onset only to ~dxi*(gamma^gamma*((1+gamma)*thr)^-gamma
    # + thr^-gamma) = 0.32
    assert 0.65 < onset < 1.1
    assert onset_left == math.inf


def test_check_passes_on_clean_simulation():
    times = [0.5, 1.0, 1.5, 2.0, 3.0]
    ms_series, datum, sup_initial = simulate_block(1.0, 1024, times)
    violations = check_entropy_measure(ms_series, pseudo_inverses(ms_series, 1024),
                                       CFG, sup_initial, datum=None)
    assert not violations, violations
    assert ms_series[-1].dirac_mass / ms_series[-1].total_mass > 0.4


def test_check_initial_datum_cumulative_match():
    ms_series, datum, sup_initial = simulate_block(1.0, 512, [0.0, 0.5])
    violations = check_entropy_measure(ms_series, pseudo_inverses(ms_series, 512),
                                       CFG, sup_initial, datum=datum)
    assert not violations, violations
    ms0 = ms_series[0]
    sup_err = np.max(np.abs(integrate_piecewise(datum, datum.a, ms0.F_x) - ms0.F_val))
    assert sup_err < 1e-12


def test_check_stationary_condensed_state():
    grid = HalfLineGrid(cell_count=16, cell_width=0.1)

    def condensed(t):
        state = HalfLineState(grid=grid, cells=np.zeros((2, 16)),
                              outflux_ledger=[0.5, 0.0], time=t)
        return assemble(state, CFG)

    ms_series = [condensed(t) for t in (1.0, 2.0)]
    violations = check_entropy_measure(ms_series, pseudo_inverses(ms_series, 64), CFG,
                                       0.0)
    assert not violations, violations


def test_check_requires_increasing_times():
    ms_series, _, sup_initial = simulate_block(1.0, 128, [0.5])
    X = pseudo_inverse(ms_series[0], z_grid(ms_series[0], 64))
    with pytest.raises(ValueError):
        check_entropy_measure(ms_series * 2, [X, X], CFG, sup_initial)


KEPT_KINDS = ["initial-datum", "mass-conservation", "mass-monotonicity",
              "decay-bound", "monotonicity", "continuity", "interior-slope"]


def massless_band(ms, lo, count):
    """A copy of ``ms`` whose cells lo..lo+count-1 (in ascending x) carry no
    mass.  Their mass is spread over the other cells in proportion, so the
    ac mass stays and rho is untouched; F_val is rebuilt from the weights."""
    weights = ms.mass_weights.copy()
    band = weights[lo: lo + count].sum()
    weights[lo: lo + count] = 0.0
    weights *= ms.ac_mass / (ms.ac_mass - band)
    rise = np.diff(ms.F_val)
    rise[(ms.F_x[:-1] < 0) | (ms.F_x[1:] > 0)] = weights  # the cells' steps of F
    F_val = ms.F_val[0] + np.concatenate([[0.0], np.cumsum(rise)])
    return replace(ms, mass_weights=weights, F_val=F_val)


def doctor(kind, ms_series, X_series, z):
    """Copies of a three-snapshot series, its pseudo-inverses on the z-grid
    ``z``, with one fault that only ``kind`` checks."""
    ms, Xs = list(ms_series), list(X_series)
    if kind == "initial-datum":  # the projection misses the datum
        ms[0] = replace(ms[0], F_val=ms[0].F_val * (1 + 1e-6))
    elif kind == "mass-conservation":  # density mass from nowhere
        ms[2] = replace(ms[2], mass_weights=ms[2].mass_weights * (1 + 1e-6))
    elif kind == "mass-monotonicity":  # the last two snapshots swap times
        ms[1:] = [replace(ms[2], time=ms[1].time), replace(ms[1], time=ms[2].time)]
        Xs[1:] = Xs[:0:-1]
    elif kind == "decay-bound":
        ms[1] = replace(ms[1], rho=ms[1].rho * 1.1)
    elif kind == "monotonicity":  # X steps back at its edge
        Xs[1] = Xs[1].copy()
        Xs[1][-1] = Xs[1][-2] - 1e-3
    else:
        k = ms[1].mass_weights.size // 2
        if kind == "continuity":  # a massless band splits the support
            ms[1] = massless_band(ms[1], k, 4)
        else:  # interior-slope: two coincident edges, a Dirac mass at x > 0
            F_x = ms[1].F_x.copy()
            F_x[k + 1] = F_x[k]
            ms[1] = replace(ms[1], F_x=F_x)
        Xs[1] = pseudo_inverse(ms[1], z)
    return ms, Xs


@pytest.mark.parametrize("kind", KEPT_KINDS)
def test_check_flags_each_doctored_fault_as_its_own_kind(kind):
    times = [0.0, 1.0, 2.0]
    ms_series, datum, sup_initial = simulate_block(1.0, 256, times)
    z = z_grid(ms_series[0], 256)
    X_series = [pseudo_inverse(ms, z) for ms in ms_series]
    assert not check_entropy_measure(ms_series, X_series, CFG, sup_initial, datum=datum)
    violations = check_entropy_measure(*doctor(kind, ms_series, X_series, z), CFG,
                                       sup_initial, datum=datum)
    assert {v.kind for v in violations} == {kind}, violations


@pytest.mark.parametrize("count", [4, 69])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_continuity_flags_a_massless_band_at_every_gamma(gamma, count):
    # the block at t = 1/gamma with a band of cells emptied in the middle
    # of its support, its mass kept: the support is split at every gamma
    cfg = GammaConfig(gamma=gamma)
    (ms,), _, sup_initial = simulate_block(gamma, 256, [1.0 / gamma])
    ms = massless_band(ms, ms.mass_weights.size // 2 - count // 2, count)
    violations = check_entropy_measure([ms], [pseudo_inverse(ms, z_grid(ms, 1024))], cfg,
                                       sup_initial)
    assert [v.kind for v in violations] == ["continuity"], violations
    assert violations[0].detail.startswith("right side")


@pytest.mark.parametrize("breakpoints, row", [([0.6, 0.9], RIGHT),
                                              ([-0.9, -0.6], LEFT)])
def test_continuity_binds_a_side_to_the_origin_once_it_has_mass(breakpoints, row):
    # a block away from the origin, run past the time its mass reaches the
    # origin: vacuum between the two is valid while m = 0, and after that
    # its row's origin cell carries mass, even when only a subnormal-sized
    # amount that a running sum of F_val rounds away
    cfg = GammaConfig(gamma=1.0)
    datum = piecewise_constant(breakpoints, [1.0])
    state = init_from_datum(datum, make_grid(datum, cfg, 128), cfg)
    snaps = []
    run_until(state, 3.2, 0.9, cfg, observer=snaps.append, cadence=0.1)
    geometry = grid_geometry(snaps[0], cfg)
    ms_series = [assemble(snap, cfg, geometry) for snap in snaps]
    z = z_grid(ms_series[0], 256)
    X_series = [pseudo_inverse(ms, z) for ms in ms_series]
    assert check_entropy_measure(ms_series, X_series, cfg, state.sup_initial,
                                 datum=datum) == []
    first = next(k for k, ms in enumerate(ms_series) if ms.dirac_mass > 0)
    assert snaps[first // 2].cells[row, 0] == 0  # a vacuum at m = 0
    # the origin cell's mass moved one cell out
    cells = snaps[first].cells.copy()
    cells[row, 1] += cells[row, 0]
    cells[row, 0] = 0.0
    ms_series[first] = assemble(replace(snaps[first], cells=cells), cfg, geometry)
    X_series[first] = pseudo_inverse(ms_series[first], z)
    violations = check_entropy_measure(ms_series, X_series, cfg, state.sup_initial,
                                       datum=datum)
    assert [(v.kind, v.time) for v in violations] == \
        [("continuity", ms_series[first].time)], violations
    assert violations[0].detail.startswith("right" if row == RIGHT else "left")


@pytest.mark.parametrize("cfl", [0.9, 1.2])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_decay_bound_flags_a_run_stepped_past_its_cfl_bound(monkeypatch, gamma, cfl):
    # verify's law run of the block at N = 256, stepped at cfl 0.9 with its
    # flux power scaled by cfl / 0.9: the cell update of a step at cfl, past
    # the bound cfl <= 1 that the stepping checks, and the ledger of the
    # same scaled flux
    real = conslaw._power

    def scaled(u, gamma, out=None):
        power = real(u, gamma, out)
        power *= cfl / 0.9
        return power

    monkeypatch.setattr(conslaw, "_power", scaled)
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    state = init_from_datum(datum, make_grid(datum, cfg, 256), cfg)
    snaps = []
    conslaw.run_until(state, 4.0 / gamma, 0.9, cfg, snaps.append, 0.5 / gamma)
    ms_series = [assemble(snap, cfg) for snap in snaps]
    violations = check_entropy_measure(ms_series, pseudo_inverses(ms_series, 1024), cfg,
                                       state.sup_initial, datum=datum)
    assert {v.kind for v in violations} == ({"decay-bound"} if cfl > 1 else set())


def test_equation_residual_first_order_on_explicit_solution():
    # sample the closed-form rearrangement; the discrete residual of
    # X_t |X_z|^gamma + X = 0 must drop at first order under refinement
    def residual(z_count, dt):
        times = [0.6, 0.6 + dt]
        ms_list, X_list = [], []
        z = np.linspace(0.0, 1.0, z_count)
        for t in times:
            X = X_unit_mass(z, t, 1.0)
            m = mass_unit_mass(t, 1.0)
            ms = MeasureState(time=t, dirac_mass=m, total_mass=1.0,
                              x=np.array([0.5]), rho=np.array([1.0]),
                              mass_weights=np.array([1.0 - m]),
                              F_x=X, F_val=z, support=(0.0, 1.0))
            ms_list.append(ms)
            X_list.append(X)
        return eq_residual_l1(ms_list, X_list, z, 1.0)[0][1]

    coarse = residual(513, 0.02)
    fine = residual(1025, 0.01)
    assert fine < 0.62 * coarse
    assert fine < 0.05


DELETED_KINDS = ("edge-slope", "oleinik")


def match_references(datum, gamma, cells, z_count, t_end):
    """Run the datum to t_end with snapshots at cadence 0.5/gamma, and check
    that assemble on the run's geometry gives the bytes of its frozen
    reference, that each pseudo-inverse is 0 exactly on the plateau of the
    concentrated mass and that check_entropy_measure finds no violation, as the
    frozen reference does once its deleted kinds are dropped.  Returns the
    reference's violations, or None when both assemblies raise
    FloatingPointError."""
    cfg = GammaConfig(gamma=gamma)
    state = init_from_datum(datum, make_grid(datum, cfg, cells), cfg)
    snaps = []
    run_until(state, t_end, 0.9, cfg, observer=snaps.append, cadence=0.5 / gamma)
    try:
        expected = [assemble_reference(snap, cfg) for snap in snaps]
    except FloatingPointError as error:
        with pytest.raises(FloatingPointError) as raised:
            assemble(snaps[0], cfg)
        assert str(raised.value) == str(error)
        return None
    geometry = grid_geometry(snaps[0], cfg)
    ms_series = [assemble(snap, cfg, geometry) for snap in snaps]
    for ms, ref in zip(ms_series, expected):
        for name in ("x", "rho", "mass_weights", "F_x", "F_val"):
            assert getattr(ms, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (ms.time, ms.dirac_mass, ms.total_mass, ms.support) == \
            (ref.time, ref.dirac_mass, ref.total_mass, ref.support)
    z_series = [z_grid(ms, z_count) for ms in ms_series]
    X_series = [pseudo_inverse(ms, z) for ms, z in zip(ms_series, z_series)]
    for ms, X, z in zip(ms_series, X_series, z_series):
        # X is exactly 0 on z in [a, a + m], a the absolutely continuous
        # mass left of the origin and m the concentrated mass, and nowhere
        # else, to within one z-step
        a, m = ms.mass_weights[ms.x < 0].sum(), ms.dirac_mass
        dz = z[1] - z[0]
        assert np.all(X[(z >= a + dz) & (z <= a + m - dz)] == 0)
        zeros = z[X == 0]
        assert np.all((zeros >= a - dz) & (zeros <= a + m + dz))
    violations = check_entropy_measure(ms_series, X_series, cfg, state.sup_initial,
                                       datum=datum)
    z_series = [z_grid(ms, z_count) for ms in expected]
    reference = check_entropy_measure_reference(
        expected, [pseudo_inverse(ms, z) for ms, z in zip(expected, z_series)], z_series,
        cfg, state.sup_initial, datum=datum)
    assert violations == [v for v in reference if v.kind not in DELETED_KINDS]
    assert violations == []
    return reference


@st.composite
def piecewise_runs(draw):
    """A random piecewise-constant or piecewise-linear datum with positive
    values on at most five segments, a gamma, at most 128 cells and a
    z_count."""
    linear = draw(st.booleans())
    widths = draw(st.lists(st.floats(0.02, 1.0), min_size=1, max_size=5))
    breakpoints = draw(st.floats(-1.0, 0.5)) + np.concatenate([[0.0], np.cumsum(widths)])
    count = breakpoints.size - (not linear)
    values = draw(st.lists(st.floats(0.05, 2.0), min_size=count, max_size=count))
    datum = (piecewise_linear if linear else piecewise_constant)(breakpoints, values)
    return (datum, draw(st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.0])),
            draw(st.integers(8, 128)), draw(st.sampled_from([16, 64, 128, 256])))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(piecewise_runs())
def test_geometry_and_one_pass_diagnostics_match_references(case):
    datum, gamma, cells, z_count = case
    reference = match_references(datum, gamma, cells, z_count, 3.0 / gamma)
    event("reference flagged" if reference else "reference clean")


def test_flagged_run_matches_references():
    # a valid run on which the deleted heuristics flagged inadmissible
    # slope jumps: the kept kinds report nothing, and the frozen reference
    # still flags it, so the filter in match_references is in effect
    datum = piecewise_constant([-0.065, 0.095, 0.752], [1.177, 0.233])
    reference = match_references(datum, 0.5, 128, 128, 6.0)
    assert any(v.kind == "oleinik" for v in reference)


def test_geometry_raises_where_x_underflows_like_the_reference():
    # at gamma = 1e-3 the block's innermost cell centers map to x = 0
    assert match_references(example_block_datum(1e-3), 1e-3, 128, 128, 0.0) is None
