from __future__ import annotations

import numpy as np
import pytest

from conftest import random_admissible_profile

from beamgap.force import compute_force, directional_derivative_check
from beamgap.geometry import DeflectionProfile
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
        assert not fp.branch_mask.any()


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


def test_force_decomposition_sums(unit_model):
    rng = np.random.default_rng(2)
    p = random_admissible_profile(rng, n_cells=64)
    fp = force_on(p, unit_model)
    assert np.allclose(fp.g, fp.jump_term + fp.robin_term + fp.datum_term, atol=1e-14)


# ---------------------------------------------------------------- lower bound


def test_force_lower_bound_on_random_profiles(unit_model, unit_constants):
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = random_admissible_profile(rng, n_cells=64)
        fp = force_on(p, unit_model)
        assert fp.lower_bound_margin(unit_constants.G0) >= -1e-8


# ---------------------------------------------------------------- contact branch


def test_branch_mask_matches_coincidence(unit_model):
    H = 1.0

    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2) * (1.0 - x**2))

    p = DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=128)
    field = solve_potential(p, unit_model, n_eta=16)
    fp = compute_force(p, unit_model, field)
    assert np.array_equal(fp.branch_mask, field.coincidence.contact_mask)
    assert fp.branch_mask.any()
    assert np.all(np.isfinite(fp.g))
    # contact branch at these data: g = V^2 sigma^2 / 2 = 0.5 exactly
    assert np.max(np.abs(fp.g[fp.branch_mask] - 0.5)) <= 1e-12


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


def test_derivative_check_validates_direction(unit_model):
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    bad_end = np.ones_like(p.u)
    with pytest.raises(ValueError):
        directional_derivative_check(p, bad_end, unit_model, steps=(1e-3,), n_eta=8)
    theta = (1.0 - p.x_nodes**2) ** 2
    with pytest.raises(ValueError):
        directional_derivative_check(p, theta, unit_model, steps=(-1e-3,), n_eta=8)
    with pytest.raises(ValueError):
        # pushing far below the obstacle is rejected up front
        directional_derivative_check(p, -3.0 * theta, unit_model, steps=(0.5,), n_eta=8)
    with pytest.raises(ValueError):
        directional_derivative_check(p, theta[:-1], unit_model, steps=(1e-3,), n_eta=8)


def test_derivative_check_zero_direction_trivial(unit_model):
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    rows = directional_derivative_check(
        p, np.zeros_like(p.u), unit_model, steps=(1e-2,), n_eta=8
    )
    assert rows[0].fd_value == 0.0
    assert rows[0].pairing == 0.0


def test_derivative_check_first_order_convergence(unit_model):
    """The one-sided quotient approaches the force pairing linearly in s."""
    rng = np.random.default_rng(17)
    p = random_admissible_profile(rng, n_cells=64, max_dip=0.5)
    theta = -((1.0 - p.x_nodes**2) ** 2)
    rows = directional_derivative_check(
        p, theta, unit_model, steps=(3e-2, 1e-2, 3e-3), n_eta=64
    )
    gaps = [row.gap for row in rows]
    assert gaps[2] < gaps[0]
    slope = np.polyfit(np.log([r.s for r in rows]), np.log(gaps), 1)[0]
    assert 0.6 <= slope <= 1.4, f"observed slope {slope:.3f}, gaps {gaps}"
