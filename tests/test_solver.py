from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

from conftest import random_admissible_profile

from beamgap import solver
from beamgap.energy import electrostatic_energy
from beamgap.force import compute_force
from beamgap.geometry import DeflectionProfile, build_mapped_mesh, detect_coincidence
from beamgap.model import make_example_model, sigma_polynomial
from beamgap.solver import (
    _dissection_order,
    _solve_system,
    assemble,
    functional_dual,
    functional_quadratic,
    max_principle_check,
    solve_potential,
)


def bump(n_cells: int = 32, amp: float = -0.3) -> DeflectionProfile:
    return DeflectionProfile.from_callable(
        lambda x: amp * (1.0 - x**2) ** 2, L=1.0, H=1.0, n_cells=n_cells
    )


# ---------------------------------------------------------------- assembly


def test_system_matrix_is_symmetric(unit_model):
    p = bump(24)
    mesh = build_mapped_mesh(p, (0, 24), n_eta=12)
    system = assemble(mesh, unit_model, p)
    assert system.symmetry_error() < 1e-13


def test_assemble_rejects_mismatched_H(unit_model):
    p = DeflectionProfile.zero(1.0, 2.0, 16)
    mesh = build_mapped_mesh(p, (0, 16), n_eta=8)
    with pytest.raises(ValueError):
        assemble(mesh, unit_model, p)


@pytest.mark.parametrize("shape", [(0, 8), (1, 5), (5, 1), (40, 3), (127, 64)])
def test_dissection_order_is_a_permutation(shape):
    order = _dissection_order(*shape)
    assert np.array_equal(np.sort(order), np.arange(shape[0] * shape[1]))
    assert not order.flags.writeable


def test_dissection_order_fills_no_more_than_minimum_degree(unit_model, monkeypatch):
    """The factor the solver makes of the 128x64 bump system is no denser than
    SuperLU's MMD_AT_PLUS_A factor of the same matrix in node order, and the
    two solutions agree."""
    p = bump(128)
    mesh = build_mapped_mesh(p, (0, 128), n_eta=64)
    system = assemble(mesh, unit_model, p)
    factors = []

    def recording_splu(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver, "splu", recording_splu)
    x, res = _solve_system(system)
    (nd,) = factors
    by_node = np.argsort(system.free_nodes)
    mmd = splu(system.matrix[by_node][:, by_node].tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert nd.L.nnz + nd.U.nnz <= mmd.L.nnz + mmd.U.nnz
    assert np.max(np.abs(x - mmd.solve(system.rhs[by_node])[np.argsort(by_node)])) <= 1e-10 * np.max(np.abs(x))
    assert res <= 1e-12


# ---------------------------------------------------------------- exact solves


def test_flat_profile_cancels_exactly(unit_model):
    """At u = 0 the example datum is harmonic and compatible, so chi = 0."""
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    field = solve_potential(p, unit_model, n_eta=16)
    chi = field.components[0].chi
    assert np.max(np.abs(chi)) <= 1e-12
    # reconstructed psi equals the closed form (2+z)/2 at the nodes
    psi = field.psi_on(0)
    mesh = field.components[0].mesh
    z = -1.0 + mesh.eta_nodes[None, :] * mesh.gap_nodes[:, None]
    assert np.max(np.abs(psi - (2.0 + z) / 2.0)) <= 1e-12


def test_field_scales_linearly_in_voltage():
    """Doubling V doubles the data bit-exactly, hence the solved field too."""
    p = bump(32, amp=-0.4)
    m1 = make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0)
    m2 = make_example_model(V=2.0, sigma=1.0, H=1.0, K=1.0)
    f1 = solve_potential(p, m1, n_eta=16)
    f2 = solve_potential(p, m2, n_eta=16)
    assert np.array_equal(f2.components[0].chi, 2.0 * f1.components[0].chi)


# ---------------------------------------------------------------- variational structure


def test_solution_minimizes_discrete_functional(unit_model):
    """The solved chi beats 20 random perturbations in the reduced quadratic."""
    p = bump(24, amp=-0.35)
    mesh = build_mapped_mesh(p, (0, 24), n_eta=12)
    system = assemble(mesh, unit_model, p)
    field = solve_potential(p, unit_model, n_eta=12)
    chi = field.components[0].chi
    best = functional_dual(system, mesh, chi)

    rng = np.random.default_rng(7)
    for _ in range(20):
        pert = chi.reshape(-1).copy()
        pert[system.free_nodes] += 0.1 * rng.standard_normal(system.free_nodes.size)
        val = functional_dual(system, mesh, pert.reshape(chi.shape))
        assert val > best


def test_functional_difference_is_constant_in_test_function(unit_model):
    """G(theta) - G_D(theta) is the data energy G(0), independent of theta."""
    p = bump(20, amp=-0.3)
    mesh = build_mapped_mesh(p, (0, 20), n_eta=10)
    system = assemble(mesh, unit_model, p)
    shape = (mesh.n_x + 1, mesh.n_eta + 1)

    const_expected = functional_quadratic(mesh, unit_model, np.zeros(shape))
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.standard_normal(shape)
        theta[:, -1] = 0.0
        theta[0, :] = 0.0
        theta[-1, :] = 0.0
        diff = functional_quadratic(mesh, unit_model, theta) - functional_dual(system, mesh, theta)
        assert diff == pytest.approx(const_expected, rel=1e-10)


# ---------------------------------------------------------------- manufactured solution


def test_manufactured_solution_order_two():
    from conftest import mms_l2_error

    errs = [mms_l2_error(n) for n in (16, 32, 64)]
    hs = [2.0 / n for n in (16, 32, 64)]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2, f"observed L2 order {slope:.3f}, errors {errs}"


# ---------------------------------------------------------------- bounds and traces


def test_max_principle_on_random_profiles(unit_model):
    rng = np.random.default_rng(42)
    for _ in range(6):
        p = random_admissible_profile(rng, n_cells=64)
        field = solve_potential(p, unit_model, n_eta=32)
        report = max_principle_check(field, unit_model, p)
        assert report.ok, f"violation at {report.worst}"
        assert report.min_psi >= -1e-6
        assert report.max_psi <= 1.0 + 1e-6


def test_robin_residual_decreases_under_refinement(unit_model):
    sups = []
    for n in (16, 32, 64):
        p = bump(n, amp=-0.4)
        field = solve_potential(p, unit_model, n_eta=n)
        sups.append(float(np.max(np.abs(field.robin_residual(0)))))
    assert sups[2] < sups[1] < sups[0]
    # second-order trend: each halving of both spacings gains about 4x
    assert 3.0 <= sups[0] / sups[1] <= 5.0
    assert sups[2] < 1e-4


def two_component_contact(n_cells: int = 128, H: float = 1.0) -> DeflectionProfile:
    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2) * (1.0 - x**2))

    return DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=n_cells)


def test_solve_matches_reference_solver():
    """chi from solve_potential equals scipy's spsolve on the same assembled system."""
    model = make_example_model(V=1.3, sigma=sigma_polynomial([1.0, 0.5, 0.5], domain=(-1.0, 1.0)), H=1.0, K=1.0)
    p = two_component_contact()
    cs = detect_coincidence(p)
    field = solve_potential(p, model, n_eta=24)
    assert len(cs.components) == len(field.components) == 2
    for span, comp in zip(cs.components, field.components):
        mesh = build_mapped_mesh(p, span, n_eta=24)
        system = assemble(mesh, model, p)
        assert system.symmetry_error() <= 1e-14 * np.max(np.abs(system.matrix.data))
        ref = spsolve(system.matrix.tocsc(), system.rhs)
        chi = comp.chi.reshape(-1)[system.free_nodes]
        assert np.max(np.abs(chi - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert comp.residual <= 1e-12


def test_contact_profile_nan_traces(unit_model):
    p = two_component_contact()
    cs = detect_coincidence(p)
    field = solve_potential(p, unit_model, n_eta=16)
    assert len(field.components) == len(cs.components) == 2
    assert np.all(np.isnan(field.top_dz[cs.contact_mask]))
    assert np.all(np.isnan(field.bot_val[cs.contact_mask]))
    assert np.all(np.isfinite(field.top_dz[~cs.contact_mask]))
    assert np.all(np.isfinite(field.bot_val[~cs.contact_mask]))


@pytest.mark.parametrize("u1", [-1.0, -0.5])
def test_short_wall_component_has_zero_chi(unit_model, u1):
    """A wall run of one node (u[1] = -H) or of one cell beside contact carries chi = 0.

    Its traces are 0, as on every lateral edge. With u[1] = -H no field area is
    left, and E_e is the contact term alone: -sigma V^2 L = -1.
    """
    u = np.full(17, -1.0)
    u[[0, -1]] = 0.0
    u[1] = u1
    p = DeflectionProfile(x_nodes=np.linspace(-1.0, 1.0, 17), u=u, bc_mode="clamped", H=1.0)
    field = solve_potential(p, unit_model, n_eta=8)
    wall = field.coincidence.components[0]
    assert wall == (0, 0 if u1 == -1.0 else 1)
    assert np.all(field.top_dz[: wall[1] + 1] == 0.0)
    assert np.all(field.bot_val[: wall[1] + 1] == 0.0)
    assert all(np.all(c.chi == 0.0) for c in field.components)

    e_e = electrostatic_energy(p, unit_model, n_eta=8).total
    g = compute_force(p, unit_model, field).g
    assert np.isfinite(e_e)
    assert np.all(np.isfinite(g))
    if u1 == -1.0:
        assert e_e == pytest.approx(-1.0, rel=1e-14)
