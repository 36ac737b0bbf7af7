"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers.  Tolerances are fixed here and documented inline; every expected
value is either a closed-form constant or computed by an independent
oracle inside the test.
"""

import time

import numpy as np
import pytest

from condrift.characteristics import advance, blow_up_time
from condrift.cli import trace_time_tolerance
from condrift.conslaw import (
    LEFT,
    RIGHT,
    HalfLineGrid,
    HalfLineState,
    _flux,
    init_from_datum,
    make_grid,
    run_until,
    step,
)
from condrift.datum import block_datum, example_block_datum, piecewise_linear
from condrift.frames import GammaConfig
from condrift.measure import (
    assemble,
    measure_rows,
    original_frame_series,
    pseudo_inverse,
    trace_onset_time,
    z_grid,
)
from condrift.oracle import mass_explicit, u_explicit
from oracles import X_unit_mass, riemann_exact, rk4_characteristics

GAMMAS = (0.5, 1.0, 2.0)
N_ACCEPT = 4096
TRACE_THRESHOLD = 1e-2


def report(line: str) -> None:
    print(line, flush=True)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_criterion_1_trace_onset_time(gamma):
    """u(0+, t) first exceeds 1e-2 at 1/gamma, within 5x the grid's
    onset-resolution time scale; runtime below 30 s per gamma."""
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    grid = make_grid(datum, cfg, N_ACCEPT)
    state = init_from_datum(datum, grid, cfg)
    started = time.monotonic()
    run_until(state, 1.3 / gamma, 0.99, cfg)
    elapsed = time.monotonic() - started
    _, onset = trace_onset_time(state.trace_times, state.trace_values,
                                TRACE_THRESHOLD)
    tol = 5.0 * trace_time_tolerance(gamma, grid.cell_width, TRACE_THRESHOLD)
    ok = abs(onset - 1.0 / gamma) <= tol
    report(f"criterion 1 gamma={gamma}: onset={onset:.5f} target={1/gamma:.5f} "
           f"tol={tol:.4f} runtime={elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert ok
    assert elapsed < 30.0


@pytest.mark.parametrize("gamma", GAMMAS)
def test_criterion_2_condensed_mass_law(gamma):
    """m(t)/M tracks 1 - (1/(gamma t))^(1/gamma) within 1% on [1.5, 4]/gamma."""
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    grid = make_grid(datum, cfg, N_ACCEPT)
    state = init_from_datum(datum, grid, cfg)
    worst = 0.0
    for t in np.arange(1.5, 4.01, 0.5) / gamma:
        run_until(state, float(t), 0.9, cfg)
        ms = assemble(state, cfg)
        target = mass_explicit(float(t), gamma)
        worst = max(worst, abs(ms.dirac_mass - target) / target)
    ok = worst <= 0.01
    report(f"criterion 2 gamma={gamma}: worst relative mass error {worst:.5f} "
           f"(tol 0.01) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_3_convergence_to_explicit_solution():
    """L1(xi) error against the explicit profile at t = 0.5/gamma drops with
    observed order >= 0.8 across N in {512, 1024, 2048, 4096}."""
    gamma = 1.0
    cfg = GammaConfig(gamma=gamma)
    sizes = (512, 1024, 2048, 4096)
    errors = []
    for n in sizes:
        datum = example_block_datum(gamma)
        grid = make_grid(datum, cfg, n)
        state = init_from_datum(datum, grid, cfg)
        run_until(state, 0.5 / gamma, 0.9, cfg)
        exact = u_explicit(grid.centers, 0.5 / gamma, gamma)
        errors.append(float(np.sum(np.abs(state.cells[RIGHT] - exact)) * grid.cell_width))
    order = -float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    ok = order >= 0.8 and all(b < a for a, b in zip(errors, errors[1:]))
    report(f"criterion 3: L1 errors {['%.2e' % e for e in errors]} "
           f"observed order {order:.3f} (need >= 0.8) -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_4_pseudo_inverse_oracle():
    """Linf distance between the assembled rearrangement and the explicit
    one at t in {0.5, 2}/gamma stays below 1e-2 (N = z_count = 4096)."""
    gamma = 1.0
    cfg = GammaConfig(gamma=gamma)
    datum = block_datum(1.0, 0.0, 1.0)
    grid = make_grid(datum, cfg, N_ACCEPT)
    state = init_from_datum(datum, grid, cfg)
    worst = 0.0
    for t in (0.5 / gamma, 2.0 / gamma):
        run_until(state, t, 0.9, cfg)
        ms = assemble(state, cfg)
        z = z_grid(ms, 4096)
        exact = X_unit_mass(np.clip(z, 0.0, 1.0), t, gamma)
        worst = max(worst, float(np.max(np.abs(pseudo_inverse(ms, z) - exact))))
    ok = worst <= 1e-2
    report(f"criterion 4: pseudo-inverse Linf {worst:.2e} (tol 1e-2) "
           f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_asymptotic_condensation():
    """m(100/gamma)/M >= 0.95 with m non-decreasing throughout (gamma = 1,
    where the explicit limit value is 0.99)."""
    gamma = 1.0
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    grid = make_grid(datum, cfg, 2048)
    state = init_from_datum(datum, grid, cfg)
    fractions = []
    for t in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0):
        run_until(state, t / gamma, 0.9, cfg)
        ms = assemble(state, cfg)
        fractions.append(ms.dirac_mass / ms.total_mass)
    monotone = all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
    ok = fractions[-1] >= 0.95 and monotone
    report(f"criterion 5: m(100)/M = {fractions[-1]:.4f} (need >= 0.95), "
           f"monotone={monotone} -> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_6_characteristics_exactness():
    """Closed-form characteristics match a fixed-step RK4 integration to
    1e-8 relative over 50 random cases in d in {1, 3}; the blow-up time is
    the exact closed form."""
    rng = np.random.default_rng(123)
    cases = []
    for _ in range(50):
        dim = int(rng.choice([1, 3]))
        gamma = float(rng.uniform(0.4, 2.5))
        peak = float(rng.uniform(0.5, 1.5))
        datum = piecewise_linear([0.1, 0.6, 1.3], [0.2, peak, 0.05])
        cfg = GammaConfig(gamma=gamma, dim=dim)
        x0 = float(rng.uniform(0.15, 1.2))
        t = float(rng.uniform(0.05, 0.8)) * blow_up_time(datum, cfg)
        st = advance(x0, t, datum, cfg)
        cases.append((x0, float(datum(x0)), t, gamma, dim, st.position, st.value))
        # closed-form blow-up time, bitwise
        assert blow_up_time(datum, cfg) == 1.0 / (gamma * dim * datum.sup_value**gamma)
    x0, u0, t, gamma, dim, position, value = np.array(cases).T
    ref_position, ref_value = rk4_characteristics(x0, u0, t, gamma, dim)
    worst = max(float(np.max(np.abs(position - ref_position)
                             / np.maximum(np.abs(ref_position), 1e-30))),
                float(np.max(np.abs(value - ref_value) / ref_value)))
    ok = worst <= 1e-8
    report(f"criterion 6: worst characteristic error {worst:.2e} (tol 1e-8) "
           f"-> {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_7_property_suites():
    """Scheme structure: exact mass ledger, positivity, comparison
    principle, Godunov flux = Riemann interface flux, support confinement."""
    cfg = GammaConfig(gamma=1.0)

    # (a) discrete mass ledger over 1e4 steps
    datum = example_block_datum(1.0)
    grid = make_grid(datum, cfg, 512)
    state = init_from_datum(datum, grid, cfg)
    m0 = state.mass[RIGHT]
    drift = 0.0
    positive = True
    for _ in range(10_000):
        step(state, 0.9, cfg)
        drift = max(drift, abs(state.mass[RIGHT] + state.outflux_ledger[RIGHT] - m0))
        positive = positive and state.cells.min() >= 0.0
    ok_ledger = drift <= 1e-12
    ok_positive = positive

    # (b) comparison principle on 50 random ordered pairs (shared steps)
    rng = np.random.default_rng(321)
    grid_small = HalfLineGrid(cell_count=64, cell_width=0.02)
    ok_compare = True
    for _ in range(50):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        cfg_r = GammaConfig(gamma=gamma)
        upper = rng.uniform(0.0, 2.0, 64)
        lower = upper * rng.uniform(0.0, 1.0, 64)
        # one state, so both rows take the dt of upper's peak
        pair = HalfLineState(grid=grid_small, cells=np.stack([lower, upper]))
        for _ in range(20):
            step(pair, 0.9, cfg_r)
        ok_compare = ok_compare and bool(
            np.all(pair.cells[LEFT] <= pair.cells[RIGHT] + 1e-13))

    # (c) Godunov flux equals the exact Riemann interface flux
    ok_flux = True
    for _ in range(200):
        gamma = float(rng.uniform(0.3, 3.0))
        cfg_r = GammaConfig(gamma=gamma)
        u_l, u_r = rng.uniform(0.0, 2.0, 2)
        interface = riemann_exact(float(u_l), float(u_r), 0.0, cfg_r)
        ok_flux = ok_flux and _flux(interface, gamma) == _flux(float(u_r), gamma)

    # (d) support confinement and uniform boundedness on 10 random data
    ok_support = True
    for _ in range(10):
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        cfg_r = GammaConfig(gamma=gamma)
        a = float(rng.uniform(-1.5, -0.2))
        b = float(rng.uniform(0.2, 1.5))
        mid = float(rng.uniform(0.3, 0.7))
        datum_r = piecewise_linear(
            [a, a + mid * (b - a), b], [0.0, float(rng.uniform(0.3, 1.5)), 0.0])
        grid_r = make_grid(datum_r, cfg_r, 256)
        state_r = init_from_datum(datum_r, grid_r, cfg_r)
        ms0 = assemble(state_r, cfg_r)
        lo0, hi0 = ms0.support
        for t in (0.4, 1.1, 2.3):
            run_until(state_r, t / gamma, 0.9, cfg_r)
            ms = assemble(state_r, cfg_r)
            ok_support = ok_support and (ms.support[0] >= lo0 - 1e-12)
            ok_support = ok_support and (ms.support[1] <= hi0 + 1e-12)

    ok = ok_ledger and ok_positive and ok_compare and ok_flux and ok_support
    report(f"criterion 7: ledger drift {drift:.2e} (tol 1e-12), "
           f"positivity={ok_positive}, comparison={ok_compare}, "
           f"flux-identity={ok_flux}, confinement={ok_support} "
           f"-> {'PASS' if ok else 'FAIL'}")
    assert ok_ledger and ok_positive
    assert ok_compare and ok_flux and ok_support


def test_criterion_8_original_frame_decay_rate():
    """Support diameter in the confined frame decays like (1+t)^(-1/gamma)
    for gamma = 1: late-time log-log slope within 0.1 of -1."""
    gamma = 1.0
    cfg = GammaConfig(gamma=gamma)
    datum = example_block_datum(gamma)
    grid = make_grid(datum, cfg, 512)
    state = init_from_datum(datum, grid, cfg)
    ms_series = []
    for t in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
        run_until(state, t, 0.9, cfg)
        ms_series.append(assemble(state, cfg))
    _, t_driftfree, _, _, _, diameter, _ = np.array(
        original_frame_series(measure_rows(ms_series), gamma)).T
    log_t = np.log1p(t_driftfree)
    log_d = np.log(diameter)
    slope = float(np.polyfit(log_t[-4:], log_d[-4:], 1)[0])
    ok = abs(slope + 1.0 / gamma) <= 0.1
    report(f"criterion 8: log-log decay slope {slope:.4f} "
           f"(target -1 +/- 0.1) -> {'PASS' if ok else 'FAIL'}")
    assert ok
