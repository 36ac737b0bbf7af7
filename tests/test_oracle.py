import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from condrift.frames import GammaConfig, dxi_dx, x_of_xi, xi_of_x
from condrift.measure import MeasureState, pseudo_inverse, z_grid
from condrift.oracle import X_explicit, mass_explicit, u_explicit
from oracles import X_unit_mass, mass_unit_mass, rho_explicit


def test_rho_branch_values():
    # plateau branch: value 1/(1 - t) inside the compressed block
    assert rho_explicit(0.1, 0.5, 1.0) == pytest.approx(2.0, abs=1e-14)
    # the plateau/fan boundary is (1-t)^((1+gamma)/gamma)/(1+gamma) = 0.125,
    # so x = 0.13 already lies on the fan branch
    fan_value = rho_explicit(0.13, 0.5, 1.0)
    assert fan_value != pytest.approx(2.0, abs=1e-3)
    assert fan_value == pytest.approx(((2 * 0.13) ** -0.5 - 1.0) / 0.5, abs=1e-12)
    # outside the support
    assert rho_explicit(0.51, 0.5, 1.0) == 0.0
    assert rho_explicit(0.75, 3.0, 1.0) == 0.0


def test_rho_mass_after_onset():
    # remaining density mass at t = 2, gamma = 1: (1/(gamma t))^(1/gamma)/(1+gamma)
    mass, err = quad(lambda x: rho_explicit(x, 2.0, 1.0), 0.0, 0.5,
                     points=[0.25], limit=200)
    assert mass == pytest.approx(0.25, abs=1e-8)


def test_rho_mass_conserved_before_onset():
    for t in (0.0, 0.3, 0.9):
        mass, _ = quad(lambda x: rho_explicit(x, t, 1.0), 0.0, 0.5,
                       points=[0.125, 0.25], limit=200)
        assert mass == pytest.approx(0.5, abs=1e-8)


def test_u_initial_profile_and_support():
    for gamma in (0.5, 1.0, 2.0):
        xi = np.linspace(0.0, 1.0 / gamma, 50)
        assert np.allclose(u_explicit(xi, 0.0, gamma), (gamma * xi) ** (1 / gamma))
        assert u_explicit(1.2 / gamma, 0.0, gamma) == 0.0
        assert u_explicit(1.2 / gamma, 5.0, gamma) == 0.0


def test_u_fan_touches_origin_after_onset():
    assert u_explicit(0.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert u_explicit(0.0, 0.5, 1.0) == 0.0


def test_u_rho_cross_formula_identity():
    # rho(x) = xi'(x) u(xi(x)) must hold pointwise between the two formulas
    rng = np.random.default_rng(31)
    for gamma in (0.5, 1.0, 2.0):
        cfg = GammaConfig(gamma=gamma)
        for _ in range(333):
            xi = float(rng.uniform(1e-3, 1.2 / gamma))
            t = float(rng.uniform(0.0, 3.0 / gamma))
            x = float(x_of_xi(xi, cfg))
            lhs = float(dxi_dx(x, cfg) * u_explicit(xi, t, gamma))
            assert lhs == pytest.approx(rho_explicit(x, t, gamma), abs=1e-12, rel=1e-12)


def test_X_values():
    z = np.linspace(0.0, 1.0, 11)
    assert np.allclose(X_unit_mass(z, 0.0, 1.0), z)
    assert X_unit_mass(0.75, 1.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert X_unit_mass(0.5, 0.5, 1.0) == pytest.approx(0.25, abs=1e-14)  # region A
    # the block itself: the same curve up to the dilation constants
    assert X_explicit(0.375, 1.0, 1.0) == pytest.approx(0.125, abs=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_X_has_the_same_bits_for_a_float_and_a_numpy_time(gamma):
    # past 1/gamma region A is empty: its power of 1 - gamma*t < 0, complex
    # for a float t and NaN with a RuntimeWarning for an np.float64 one,
    # is not taken
    z = np.linspace(0.0, 1.0 / (1.0 + gamma), 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (0.5 / gamma, 1.0 / gamma, 1.5 / gamma, 2.0 / gamma, 4.0 / gamma):
            X = X_explicit(z, t, gamma)
            assert np.all(np.isfinite(X))
            assert X.tobytes() == X_explicit(z, np.float64(t), gamma).tobytes()


def test_X_plateau_and_mass_after_onset():
    assert mass_unit_mass(2.0, 1.0) == pytest.approx(0.5, abs=1e-14)
    z = np.linspace(0.0, 1.0, 4001)
    X = X_unit_mass(z, 2.0, 1.0)
    plateau = z[X == 0.0]
    assert plateau.max() == pytest.approx(0.5, abs=1e-3)
    assert mass_explicit(2.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_mass_explicit_continuity_monotonicity_limit():
    for gamma in (0.5, 1.0, 2.0):
        t_star = 1.0 / gamma
        assert mass_unit_mass(t_star, gamma) == 0.0
        assert mass_unit_mass(t_star - 1e-9, gamma) == 0.0
        assert mass_unit_mass(t_star + 1e-9, gamma) < 1e-8
        ts = np.linspace(t_star, 100.0 / gamma, 200)
        ms = mass_unit_mass(ts, gamma)
        assert np.all(np.diff(ms) > 0)
        # closed form at the endpoint, 1 - 100^(-1/gamma), and the t -> inf limit
        assert ms[-1] == pytest.approx(1.0 - 100.0 ** (-1.0 / gamma), abs=1e-12)
        assert mass_unit_mass(1e8 / gamma, gamma) > 0.99


def test_X_branches_match_c1_at_interface():
    # one-sided z-derivatives at z = 1 - gamma*t, from the closed-form
    # derivative of each branch, agree and equal (1-gamma*t)^(1/gamma)
    for gamma in (0.5, 1.0, 2.0):
        for t in (0.2 / gamma, 0.7 / gamma):
            zb = 1.0 - gamma * t
            slope_a = (1.0 - gamma * t) ** (1.0 / gamma)
            base = 1.0 - (gamma * t) ** (1 / (1 + gamma)) * (1 - zb) ** (
                gamma / (1 + gamma))
            slope_b = (base ** (1.0 / gamma)
                       * (gamma * t) ** (1 / (1 + gamma))
                       * (1 - zb) ** (-1 / (1 + gamma)))
            assert abs(slope_a - slope_b) < 1e-10
            # and the values themselves are continuous across the interface
            h = 1e-9
            left = X_unit_mass(zb - h, t, gamma)
            right = X_unit_mass(zb + h, t, gamma)
            assert abs(left - right) < 1e-8


def test_X_infinite_slope_at_upper_edge():
    for t in (0.5, 2.0):
        quotients = []
        for h in (1e-2, 1e-4, 1e-6, 1e-8):
            quotients.append((X_unit_mass(1.0, t, 1.0)
                              - X_unit_mass(1.0 - h, t, 1.0)) / h)
        assert all(b > a for a, b in zip(quotients, quotients[1:]))
        assert quotients[-1] > 1e3


def measure_from_explicit_density(gamma, t, n_cells=4096):
    """Quadrature-built measure snapshot of the unit-mass block solution.

    Cell masses come from Gauss quadrature of the density over the x-images
    of a uniform xi-grid; integrating rho(x(xi)) x'(xi) in xi keeps the
    integrand bounded through the origin singularity.  The concentrated
    mass is added explicitly.
    """
    cfg = GammaConfig(gamma=gamma)
    xi_hi = float(xi_of_x(1.0, cfg))
    edges_xi = np.linspace(0.0, xi_hi, n_cells + 1)
    edges_x = np.asarray(x_of_xi(edges_xi, cfg))
    nodes, weights = np.polynomial.legendre.leggauss(8)
    lo = edges_xi[:-1][:, None]
    hi = edges_xi[1:][:, None]
    xis = 0.5 * (hi - lo) * nodes[None, :] + 0.5 * (hi + lo)
    # the unit-mass density at x is the block density at x/(1+gamma)
    x_block = np.asarray(x_of_xi(xis.ravel(), cfg)) / (1.0 + gamma)
    integrand = (np.asarray(rho_explicit(x_block, t, gamma)).reshape(xis.shape)
                 * (gamma * xis) ** (1.0 / gamma))
    masses = 0.5 * (hi - lo)[:, 0] * (integrand @ weights)
    m = mass_unit_mass(t, gamma)
    F_x = np.concatenate([[0.0], edges_x[1:]])
    F_val = np.concatenate([[m], m + np.cumsum(masses)])
    F_x = np.concatenate([[0.0], F_x])
    F_val = np.concatenate([[0.0], F_val])
    total = float(F_val[-1])
    centers = 0.5 * (edges_x[:-1] + edges_x[1:])
    return MeasureState(
        time=t, dirac_mass=float(m), total_mass=total,
        x=centers, rho=np.asarray(rho_explicit(centers / (1.0 + gamma), t, gamma)),
        mass_weights=masses, F_x=F_x, F_val=F_val,
        support=(0.0, float(F_x[-1])))


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_pseudo_inverse_of_explicit_density_reproduces_X(t):
    gamma = 1.0
    ms = measure_from_explicit_density(gamma, t)
    # Gauss quadrature of the inverse-sqrt density loses ~1e-5 near the origin
    assert ms.total_mass == pytest.approx(1.0, abs=1e-4)
    z = z_grid(ms, 4096)
    exact = X_unit_mass(np.clip(z, 0.0, 1.0), t, gamma)
    assert float(np.max(np.abs(pseudo_inverse(ms, z) - exact))) <= 1e-3
