from __future__ import annotations

import numpy as np
import pytest

from beamgap.model import (
    compute_constants,
    default_sample_box,
    estimate_K,
    make_example_model,
    sigma_polynomial,
    sigma_tabulated,
)


# ---------------------------------------------------------------- sigma


def test_sigma_constant_evaluates_flat():
    prof = sigma_polynomial([2.5])
    x = np.linspace(-1.0, 1.0, 11)
    assert np.all(prof.value(x) == 2.5)
    assert np.all(prof.d1(x) == 0.0)
    assert np.all(prof.d2(x) == 0.0)


def test_sigma_polynomial_derivatives_match_analytic():
    # sigma(x) = 2 + 0.5 x + 0.25 x^2
    prof = sigma_polynomial([2.0, 0.5, 0.25])
    x = np.linspace(-1.0, 1.0, 17)
    assert np.allclose(prof.value(x), 2.0 + 0.5 * x + 0.25 * x**2, rtol=0, atol=1e-14)
    assert np.allclose(prof.d1(x), 0.5 + 0.5 * x, rtol=0, atol=1e-14)
    assert np.allclose(prof.d2(x), 0.5, rtol=0, atol=1e-14)


def test_sigma_tabulated_interpolates_and_guards():
    x = np.linspace(-1.0, 1.0, 9)
    s = 1.0 + 0.3 * x**2
    prof = sigma_tabulated(x, s)
    assert np.allclose(prof.value(x), s, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        sigma_tabulated(x, -s)


def test_sigma_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_polynomial([0.0])
    with pytest.raises(ValueError):
        sigma_polynomial([-1.0])
    with pytest.raises(ValueError):
        make_example_model(V=1.0, sigma=0.0, H=1.0)


# ---------------------------------------------------------------- example family


def test_example_model_input_guards():
    with pytest.raises(ValueError):
        make_example_model(V=-1.0, sigma=1.0, H=1.0)
    with pytest.raises(ValueError):
        make_example_model(V=1.0, sigma=1.0, H=-1.0)


def test_example_model_satisfies_robin_compatibility():
    """d_z h = sigma (h - frak_h) at z = -H must hold for every w, exactly."""
    model = make_example_model(V=1.0, sigma=sigma_polynomial([1.0, 0.2, 0.1]), H=1.0)
    xs, _, ws = default_sample_box(1.0, 1.0).axes()
    X, W = np.meshgrid(xs, ws, indexing="ij")
    residual = model.h_z(X, -1.0, W) - model.sigma.value(X) * (model.h(X, -1.0, W) - model.frak_h(X, W))
    assert np.max(np.abs(residual)) <= 1e-10


def test_example_model_closed_form_values():
    model = make_example_model(V=2.0, sigma=1.0, H=1.0, K=1.0)
    # h(x, z, w) = V (1 + sigma (H+z)) / (1 + sigma (H+w))
    assert model.h(0.0, -1.0, 0.0) == pytest.approx(2.0 / 2.0)
    assert model.h(0.0, 0.0, 0.0) == pytest.approx(2.0)
    assert model.frak_h(0.3, -0.5) == 0.0
    # z-derivative: V sigma / (1 + sigma (H+w))
    assert model.h_z(0.5, -0.2, 0.0) == pytest.approx(1.0)


def test_zero_data_model_is_identically_zero():
    """V = 0 is the homogeneous member of the family: all six data callables vanish, K defaults to 1."""
    model = make_example_model(V=0.0, sigma=sigma_polynomial([1.0, 0.2, 0.1]), H=1.0)
    x = np.linspace(-1.0, 1.0, 7)[:, None]
    z = np.linspace(-1.0, 2.0, 5)[None, :]
    for name in ("h", "h_x", "h_z", "h_w"):
        assert np.all(getattr(model, name)(x, z, 0.1) == 0.0), name
    for name in ("frak_h", "frak_h_w"):
        assert np.all(getattr(model, name)(x, z) == 0.0), name
    assert model.V == 0.0
    assert model.K == 1.0
    assert make_example_model(V=0.0, sigma=1.0, H=1.0, K=0.5).K == 0.5


def test_auto_K_matches_standalone_estimate():
    model = make_example_model(V=1.0, sigma=1.0, H=1.0)
    K = estimate_K(model, default_sample_box(1.0, 1.0))
    assert model.K == K
    assert K > 0.0


# ---------------------------------------------------------------- constants


def test_constants_exact_at_unit_parameters():
    """A = 24, G0 = 3, kappa0 = 73 for K = 1, beta = 1, sigma_bar = 1."""
    model = make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0)
    const = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    assert const.A == 24.0
    assert const.G0 == 3.0
    assert const.kappa0 == 73.0


def test_constants_scale_with_K():
    model = make_example_model(V=1.0, sigma=1.0, H=1.0, K=2.0)
    const = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    assert const.A == pytest.approx(8.0 * (16.0 + 8.0))
    assert const.G0 == pytest.approx(12.0)


def test_compute_constants_guards():
    model = make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0)
    with pytest.raises(ValueError):
        compute_constants(model, beta=0.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    with pytest.raises(ValueError):
        compute_constants(model, beta=1.0, tau=-1.0, alpha=0.0, L=1.0, H=1.0)
    with pytest.raises(ValueError):
        compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0, bc_mode="free")


def test_kappa0_dominates_every_case_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        K = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(0.0, 3.0))
        H = float(rng.uniform(0.5, 2.0))
        model = make_example_model(V=1.0, sigma=1.0, H=H, K=K)
        const = compute_constants(model, beta=beta, tau=tau, alpha=0.0, L=1.0, H=H)
        base = 16.0 * const.G0 / beta
        assert const.kappa0 >= H
        assert const.kappa0 >= base - H
        assert const.kappa0 >= base
