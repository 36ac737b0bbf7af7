import numpy as np
import pytest
from scipy.integrate import quad

from condrift.frames import (
    GammaConfig,
    dxi_dx,
    time_driftfree_to_original,
    x_of_xi,
    xi_of_x,
)


def test_gamma_config_validation():
    with pytest.raises(ValueError):
        GammaConfig(gamma=0.0)
    with pytest.raises(ValueError):
        GammaConfig(gamma=1.0, dim=0)


def time_original_to_driftfree(tau, cfg):
    """t = (exp(d*gamma*tau) - 1)/(d*gamma), the inverse of the time map."""
    a = cfg.dim * cfg.gamma
    return np.expm1(a * np.asarray(tau, dtype=float)) / a


def test_time_map_zero_is_zero():
    for cfg in (GammaConfig(1.0, 1), GammaConfig(0.5, 3)):
        assert time_driftfree_to_original(0.0, cfg) == 0.0


def test_time_map_log2_value():
    # tau = log(1 + d*gamma*t)/(d*gamma) with t = 1, gamma = d = 1
    cfg = GammaConfig(gamma=1.0, dim=1)
    assert time_driftfree_to_original(1.0, cfg) == pytest.approx(np.log(2.0), abs=1e-14)


def test_time_map_round_trip():
    rng = np.random.default_rng(1)
    for gamma, dim in ((0.5, 1), (1.0, 2), (2.0, 3)):
        cfg = GammaConfig(gamma=gamma, dim=dim)
        taus = rng.uniform(0.0, 10.0, 100)
        back = time_driftfree_to_original(time_original_to_driftfree(taus, cfg), cfg)
        assert np.max(np.abs(back - taus)) < 1e-12 * np.maximum(taus, 1.0).max()


def test_x_of_xi_values():
    cfg = GammaConfig(gamma=1.0)
    assert x_of_xi(0.0, cfg) == 0.0
    assert x_of_xi(2.0, cfg) == pytest.approx(2.0, abs=1e-14)
    for gamma in (0.5, 1.0, 2.0, 3.0):
        cfg = GammaConfig(gamma=gamma)
        # support endpoint mapping of the explicit block datum
        assert x_of_xi(1.0 / gamma, cfg) == pytest.approx(1.0 / (1.0 + gamma), rel=1e-14)


def test_xi_of_x_values_and_round_trip():
    cfg = GammaConfig(gamma=1.0)
    assert xi_of_x(0.0, cfg) == 0.0
    assert xi_of_x(2.0, cfg) == pytest.approx(2.0, abs=1e-14)
    rng = np.random.default_rng(2)
    for gamma in (0.5, 1.0, 2.0):
        cfg = GammaConfig(gamma=gamma)
        xs = rng.uniform(-5.0, 5.0, 100)
        xs = xs[xs != 0]
        back = x_of_xi(xi_of_x(xs, cfg), cfg)
        assert np.max(np.abs(back - xs) / np.abs(xs)) < 1e-12


def test_xi_x_round_trip_random_gamma():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = float(rng.uniform(0.2, 4.0))
        cfg = GammaConfig(gamma=gamma)
        xi = float(rng.uniform(-8.0, 8.0))
        if xi == 0:
            continue
        assert xi_of_x(x_of_xi(xi, cfg), cfg) == pytest.approx(xi, rel=1e-12)


def test_x_of_xi_odd_and_increasing():
    cfg = GammaConfig(gamma=1.7)
    xi = np.linspace(-4.0, 4.0, 401)
    x = np.asarray(x_of_xi(xi, cfg))
    assert np.allclose(x + x[::-1], 0.0, atol=1e-14)
    assert np.all(np.diff(x) > 0)


def test_dxi_dx_scaling():
    cfg = GammaConfig(gamma=1.0)
    # xi'(2) = (2*2)^(-1/2) = 1/2 for gamma = 1
    assert dxi_dx(2.0, cfg) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        dxi_dx(0.0, cfg)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_u_rho_mass_equality_block_profile(gamma):
    # u(xi) = (gamma*xi)^(1/gamma) on [0, 1/gamma] maps to rho = 1 on
    # [0, 1/(1+gamma)]; both integrals equal 1/(1+gamma)
    cfg = GammaConfig(gamma=gamma)
    mass_u, _ = quad(lambda xi: (gamma * xi) ** (1 / gamma), 0.0, 1.0 / gamma)
    rho = lambda x: float(dxi_dx(x, cfg) * (gamma * float(xi_of_x(x, cfg))) ** (1 / gamma))
    mass_rho, _ = quad(rho, 1e-15, 1.0 / (1.0 + gamma))
    assert mass_u == pytest.approx(1.0 / (1.0 + gamma), abs=1e-8)
    assert mass_rho == pytest.approx(1.0 / (1.0 + gamma), abs=1e-8)


def test_conslaw_maps_reject_higher_dim():
    cfg = GammaConfig(gamma=1.0, dim=2)
    with pytest.raises(ValueError):
        x_of_xi(1.0, cfg)
