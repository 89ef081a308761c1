from __future__ import annotations

import numpy as np
import pytest

from conftest import fd_quotients, random_admissible_profile

from beamgap.force import compute_force
from beamgap.geometry import DeflectionProfile, detect_coincidence
from beamgap.model import make_example_model, sigma_polynomial
from beamgap.solver import solve_potential


def force_on(profile, model, n_eta=32):
    field = solve_potential(profile, model, n_eta=n_eta)
    return compute_force(profile, model, field)


# ---------------------------------------------------------------- closed forms


def test_flat_profile_force_constant():
    """At u = 0 the closed-form field gives g = sigma^2 V^2 / (2 (1+sigma H)^2)."""
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    for V in (1.0, 2.0):
        model = make_example_model(V=V, sigma=1.0, H=1.0, K=1.0)
        fp = force_on(p, model, n_eta=16)
        expected = 0.5 * V**2 / 4.0
        assert np.max(np.abs(fp.g - expected)) <= 1e-12
        assert not detect_coincidence(p).contact_mask.any()


@pytest.mark.parametrize(
    "bc_mode, V, sigma, n_cells",
    [
        ("clamped", 3.0, 1.0, 128),
        ("clamped", 1.0, [1.0, 0.5, 0.5], 64),
        ("pinned", 1.0, 1.0, 63),
        ("pinned", 3.0, [1.0, 0.5, 0.5], 64),
    ],
)
def test_end_force_follows_the_boundary_rule(bc_mode, V, sigma, n_cells):
    """At a wall u = 0 and chi = 0, so g = (1 + u'^2) V^2 sigma^2 / (2 (1 + sigma H)^2).

    The wall slope is the profile's boundary rule: 0 clamped, +-u_1/h pinned.
    """
    sig = sigma_polynomial(sigma) if isinstance(sigma, list) else sigma
    model = make_example_model(V=V, sigma=sig, H=1.0, K=1.0)
    u = random_admissible_profile(np.random.default_rng(4), n_cells=n_cells).u
    p = DeflectionProfile(x_nodes=np.linspace(-1.0, 1.0, n_cells + 1), u=u, bc_mode=bc_mode, H=1.0)
    g = force_on(p, model).g[[0, -1]]
    s = model.sigma.value(p.x_nodes[[0, -1]])
    flat = V**2 * s**2 / (2.0 * (1.0 + s) ** 2)
    slope_sq = 0.0 if bc_mode == "clamped" else (u[[1, -2]] / p.spacing) ** 2
    assert abs(u[1]) > 1e-3 and abs(u[-2]) > 1e-3
    assert np.max(np.abs(g - flat * (1.0 + slope_sq)) / np.abs(g)) <= 1e-14


def test_zero_data_force_vanishes():
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    fp = force_on(p, model, n_eta=16)
    assert np.max(np.abs(fp.g)) <= 1e-14


# ---------------------------------------------------------------- lower bound


def test_force_lower_bound_on_random_profiles(unit_model, unit_constants):
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = random_admissible_profile(rng, n_cells=64)
        fp = force_on(p, unit_model)
        assert fp.min_value + unit_constants.G0 >= -1e-8


# ---------------------------------------------------------------- contact branch


def test_branch_mask_matches_coincidence(unit_model):
    H = 1.0

    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2) * (1.0 - x**2))

    p = DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=128)
    field = solve_potential(p, unit_model, n_eta=16)
    g = compute_force(p, unit_model, field).g
    contact = field.coincidence.contact_mask
    assert contact.any()
    assert np.all(np.isfinite(g))
    # contact branch at these data: g = V^2 sigma^2 / 2 = 0.5 exactly
    assert np.max(np.abs(g[contact] - 0.5)) <= 1e-12


def test_force_continuous_across_touchdown(unit_model):
    """g at the center approaches the contact value as the gap closes."""
    center_err = []
    for delta in (0.2, 0.1, 0.05):
        p = DeflectionProfile.from_callable(
            lambda x: -(1.0 - delta) * np.exp(-16.0 * x**2) * (1.0 - x**2) ** 4,
            L=1.0,
            H=1.0,
            n_cells=64,
        )
        fp = force_on(p, unit_model, n_eta=64)
        mid = p.x_nodes.size // 2
        center_err.append(abs(fp.g[mid] - 0.5))
    assert center_err[2] < center_err[1] < center_err[0]


# ---------------------------------------------------------------- derivative check


def test_derivative_check_zero_direction_trivial(unit_model):
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    quotients, pairing = fd_quotients(p, np.zeros_like(p.u), unit_model, (1e-2,), n_eta=8)
    assert quotients[0] == 0.0
    assert pairing == 0.0


def test_derivative_check_first_order_convergence(unit_model):
    """The one-sided quotient approaches the force pairing linearly in s."""
    rng = np.random.default_rng(17)
    p = random_admissible_profile(rng, n_cells=64, max_dip=0.5)
    theta = -((1.0 - p.x_nodes**2) ** 2)
    steps = (3e-2, 1e-2, 3e-3)
    quotients, pairing = fd_quotients(p, theta, unit_model, steps, n_eta=64)
    gaps = np.abs(quotients - pairing)
    assert gaps[2] < gaps[0]
    slope = np.polyfit(np.log(steps), np.log(gaps), 1)[0]
    assert 0.6 <= slope <= 1.4, f"observed slope {slope:.3f}, gaps {gaps}"


def test_first_variation_converges_at_second_order_with_heterogeneous_sigma():
    """The paper's Euler-Lagrange pairing: int g theta is dE_e/ds along theta up to O(h^2).

    sigma = 0.3 + 2x^2 at V = 3 on a bump, theta = (1 - x^2)^2, n_eta = nx/2.
    diff is the central difference of E_e (step 1e-4) minus the trapezoid
    pairing; each halving of h divides it by about 4.
    """
    model = make_example_model(V=3.0, sigma=sigma_polynomial([0.3, 0.0, 2.0]), H=1.0, K=1.0)
    diffs = []
    for n in (128, 256, 512):
        p = DeflectionProfile.from_callable(lambda x: -0.5 * (1.0 - x**2) ** 2, L=1.0, H=1.0, n_cells=n)
        quotients, pairing = fd_quotients(p, (1.0 - p.x_nodes**2) ** 2, model, (1e-4, -1e-4), n_eta=n // 2)
        diffs.append(quotients.mean() - pairing)
    ratios = [diffs[0] / diffs[1], diffs[1] / diffs[2]]
    assert all(3.0 <= r <= 5.0 for r in ratios), f"diffs {diffs}, ratios {ratios}"
