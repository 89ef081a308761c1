from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from beamgap import oracles
from beamgap.oracles import (
    AnalyticDeflection,
    BatterySample,
    battery_margins,
    identity_check_mapped,
    inequality_battery,
    solve_beam_oracle,
)


# ---------------------------------------------------------------- beam oracle


def test_canonical_bending_case():
    """Wall-to-wall constant load G0 = 24 beta: S = (X^2 - 1)^2 / 24 * 24, peak 1."""
    sol = solve_beam_oracle(4, -1.0, 1.0, G0=24.0, beta=1.0, tau=0.0, H=1.0)
    assert abs(float(sol.evaluate(0.0)) - 1.0) <= 1e-10
    x = np.linspace(-1.0, 1.0, 4001)
    vals = sol.evaluate(x)
    assert np.argmax(vals) == 2000
    assert np.all(vals[1:-1] > 0.0)
    assert sol.sup_norm() <= sol.case_bound(1.0)
    assert sol.case_bound(1.0) == pytest.approx(384.0)
    # S = (X^2 - 1)^2 = 1 - 2 X^2 + X^4, the X^4 term being the particular solution
    np.testing.assert_allclose(sol.coefficients, [1.0, 0.0, -2.0, 0.0], atol=1e-12)


def test_random_draws_satisfy_bc_and_ode():
    rng = np.random.default_rng(23)
    for _ in range(100):
        case = int(rng.integers(1, 5))
        a = float(rng.uniform(-1.0, 0.3))
        b = float(rng.uniform(a + 0.3, 1.0))
        G0 = float(rng.uniform(0.5, 5.0))
        beta = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(0.0, 3.0)) if rng.random() < 0.5 else 0.0
        sol = solve_beam_oracle(case, a, b, G0, beta, tau, H=1.0)
        assert np.max(sol.bc_residuals()) <= 1e-10
        assert sol.ode_residual() <= 1e-10
        assert sol.sup_norm() <= sol.case_bound(1.0) * (1.0 + 1e-12)


def test_interior_positivity_of_spanning_case():
    """With no tension the spanning solution is a positive quartic bubble."""
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = float(rng.uniform(-1.0, 0.0))
        b = float(rng.uniform(a + 0.4, 1.0))
        G0 = float(rng.uniform(0.5, 10.0))
        beta = float(rng.uniform(0.5, 2.0))
        sol = solve_beam_oracle(4, a, b, G0, beta, 0.0, H=1.0)
        x = np.linspace(a, b, 801)[1:-1]
        assert np.all(sol.evaluate(x) > 0.0)


def test_tensioned_one_sided_case():
    sol = solve_beam_oracle(2, -0.8, 0.6, G0=2.0, beta=1.0, tau=3.0, H=1.0)
    assert float(sol.evaluate(-0.8)) == pytest.approx(0.0, abs=1e-12)
    assert float(sol.evaluate(-0.8, 1)) == pytest.approx(0.0, abs=1e-12)
    assert float(sol.evaluate(0.6)) == pytest.approx(-1.0, abs=1e-12)
    assert float(sol.evaluate(0.6, 1)) == pytest.approx(0.0, abs=1e-12)
    assert sol.omega == pytest.approx(np.sqrt(3.0))


def test_beam_oracle_guards():
    with pytest.raises(ValueError):
        solve_beam_oracle(5, -1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_beam_oracle(1, 1.0, -1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_beam_oracle(1, -1.0, 1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_beam_oracle(1, -1.0, 1.0, 1.0, 1.0, -0.5, 1.0)
    sol = solve_beam_oracle(4, -1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        sol.evaluate(0.0, deriv=5)
    with pytest.raises(ValueError):
        sol.case_bound(0.5)  # interval does not fit inside (-0.5, 0.5)


# ---------------------------------------------------------------- integration identities

# the rectangle identity is the mapped one on the flat unit strip
UNIT_STRIP = AnalyticDeflection.flat(1.0, 1.0)


def test_rectangle_identity_constant_mu():
    for mu in (1.0, 2.0):
        assert identity_check_mapped(UNIT_STRIP, mu, n_cells=256) <= 1e-8


def test_rectangle_identity_quadrature_order():
    res = [identity_check_mapped(UNIT_STRIP, 1.0, n_cells=n) for n in (64, 128, 256)]
    ratios = [res[0] / res[1], res[1] / res[2]]
    for ratio in ratios:
        assert 12.8 <= ratio <= 19.2, f"ratios {ratios}"


def test_rectangle_identity_variable_mu():
    res = identity_check_mapped(UNIT_STRIP, lambda x: 1.5 + 0.4 * np.sin(x), n_cells=256)
    assert res <= 1e-6


def test_mapped_identity_flat_strip():
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.3)
    assert identity_check_mapped(flat, sigma=1.0, n_cells=256) <= 1e-8


def test_mapped_identity_curved_strip_order():
    bump = AnalyticDeflection.bump(1.0, 1.0, -0.2)
    res = [identity_check_mapped(bump, sigma=1.0, n_cells=n) for n in (64, 128, 256)]
    ratios = [res[0] / res[1], res[1] / res[2]]
    for ratio in ratios:
        assert 12.8 <= ratio <= 19.2, f"ratios {ratios}"
    assert res[2] <= 1e-6
    # a variable sigma on the curved strip: the bottom term is zeta_x d_x(sigma zeta)
    assert identity_check_mapped(bump, lambda x: 1.5 + 0.4 * np.sin(x), n_cells=256) <= 1e-6


def test_identity_check_guards():
    with pytest.raises(ValueError):
        identity_check_mapped(UNIT_STRIP, 1.0, n_cells=33)
    with pytest.raises(ValueError):
        identity_check_mapped(UNIT_STRIP, -1.0, n_cells=32)
    with pytest.raises(ValueError):
        identity_check_mapped(UNIT_STRIP, lambda x: x, n_cells=32)
    with pytest.raises(ValueError):
        identity_check_mapped(UNIT_STRIP, sigma=0.0, n_cells=32)
    closed = AnalyticDeflection(
        v=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0),
        dv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        d2v=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        L=1.0,
        H=1.0,
    )
    with pytest.raises(ValueError):
        identity_check_mapped(closed, sigma=1.0, n_cells=32)
    with pytest.raises(ValueError):
        AnalyticDeflection.flat(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        AnalyticDeflection.bump(1.0, 1.0, -1.5)


# ---------------------------------------------------------------- inequality battery


def zero_sample() -> BatterySample:
    def z(X, E):
        return np.zeros(np.broadcast(X, E).shape)

    return BatterySample(q=z, q_x=z, q_eta=z)


def test_battery_zero_sample_all_margins_zero():
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.0)
    margins = battery_margins(flat, ws=zero_sample(), b=zero_sample(), n_cells=32)
    assert len(margins) == 9
    for name, margin in margins.items():
        assert margin == 0.0, f"{name}: {margin}"


def test_battery_analytic_sample_margins():
    """q = (x+1)(z+H) on a lifted flat strip, fed through the ws family."""
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.2)
    gam = 1.2

    ws = BatterySample(
        q=lambda X, E: (X + 1.0) * E * gam,
        q_x=lambda X, E: E * gam + 0.0 * X,
        q_eta=lambda X, E: (X + 1.0) * gam + 0.0 * E,
    )
    margins = battery_margins(flat, ws=ws, n_cells=64)
    # the r = 2 interpolation bound degenerates to an identity
    assert margins["lr_interpolation_r2"] == 0.0
    for name, margin in margins.items():
        if name == "lr_interpolation_r2":
            continue
        assert margin > 0.0, f"{name}: {margin}"


def test_battery_vertical_family_margins():
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.2)
    b = BatterySample(
        q=lambda X, E: np.sin(0.5 * np.pi * (X + 1.0)) * (1.0 - E),
        q_x=lambda X, E: 0.5 * np.pi * np.cos(0.5 * np.pi * (X + 1.0)) * (1.0 - E),
        q_eta=lambda X, E: -np.sin(0.5 * np.pi * (X + 1.0)) + 0.0 * E,
    )
    margins = battery_margins(flat, b=b, n_cells=64)
    assert margins["poincare_vertical"] > 0.0
    assert margins["bottom_trace"] > 0.0


def test_battery_rejects_wrong_boundary_values():
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.0)
    const = BatterySample(
        q=lambda X, E: np.ones(np.broadcast(X, E).shape),
        q_x=lambda X, E: np.zeros(np.broadcast(X, E).shape),
        q_eta=lambda X, E: np.zeros(np.broadcast(X, E).shape),
    )
    with pytest.raises(ValueError):
        battery_margins(flat, ws=const, n_cells=32)
    with pytest.raises(ValueError):
        battery_margins(flat, b=const, n_cells=32)
    with pytest.raises(ValueError):
        battery_margins(flat, ws=zero_sample(), r_values=(1,), n_cells=32)


def test_battery_sweep_has_no_violations():
    bump = AnalyticDeflection.bump(1.0, 1.0, -0.3)
    result = inequality_battery(bump, n_samples=10, n_cells=32, seed=4)
    assert result.violations == []
    assert len(result.worst_margins) == 9
    assert result.n_samples == 10


# ---------------------------------------------------------------- independence


def test_oracles_import_only_the_model():
    """The oracles share no code with the solver stack: their one package import is .model."""
    source = Path(oracles.__file__).read_text(encoding="utf-8")
    imports = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = [node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert relative == ["model"]
    assert not any("beamgap" in ast.unparse(node) for node in imports)
