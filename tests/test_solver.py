from __future__ import annotations

import sys
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import splu, spsolve

from cellwise_assembly import cellwise_system
from conftest import mms_setup, random_admissible_profile

from beamgap import solver
from beamgap.energy import electrostatic_energy
from beamgap.force import compute_force
from beamgap.geometry import DeflectionProfile, build_mapped_mesh, detect_coincidence
from beamgap.model import make_example_model, sigma_polynomial
from beamgap.solver import (
    _csc_plan,
    _dissection_order,
    assemble,
    functional_quadratic_parts,
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
    assert abs(system.matrix - system.matrix.T).max() < 1e-13


def test_assemble_rejects_mismatched_H(unit_model):
    p = DeflectionProfile.zero(1.0, 2.0, 16)
    mesh = build_mapped_mesh(p, (0, 16), n_eta=8)
    with pytest.raises(ValueError):
        assemble(mesh, unit_model, p)


def _oracle_case(name: str):
    """(profile, component, n_eta, model, source) of one cellwise-oracle case."""
    unit = make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0)

    def tilted(bc_mode, n_cells):
        def f(x):
            return -0.45 * np.sin(np.pi * (x + 1.0) / 2.0) * (1.0 + 0.3 * x)

        return DeflectionProfile.from_callable(f, L=1.0, H=1.0, n_cells=n_cells, bc_mode=bc_mode)

    if name == "clamped":
        return bump(32, amp=-0.4), (0, 32), 16, unit, None
    if name == "pinned":
        return tilted("pinned", 32), (0, 32), 12, unit, None
    if name == "odd_nx":
        return tilted("clamped", 63), (0, 63), 16, unit, None
    if name == "poly_sigma":
        model = make_example_model(V=1.3, sigma=sigma_polynomial([1.0, 0.5, 0.5]), H=1.0, K=1.0)
        return tilted("clamped", 40), (0, 40), 10, model, None
    if name.startswith("contact"):
        p = two_component_contact(64)
        return p, detect_coincidence(p).components[int(name[-1])], 8, unit, None
    _, source = mms_setup()
    return bump(32, amp=-0.4), (0, 32), 16, make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0), source


@pytest.mark.parametrize("case", ["clamped", "pinned", "odd_nx", "poly_sigma", "contact0", "contact1", "mms_source"])
def test_assembly_matches_cellwise_reference(case):
    """The Kronecker-stencil system equals the cellwise COO assembly to 1e-14.

    With the dissection-ordered dofs mapped back to row-major node order: the
    matrix entrywise, relative to its largest entry, and the rhs relative to
    the largest magnitude of the cell terms it sums: the datum's load cancels
    between neighbouring cells, and its largest entry is only 0.8-4 % of that
    magnitude on the datum-driven cases, so round-off is relative to the terms.
    """
    p, span, n_eta, model, source = _oracle_case(case)
    system = assemble(build_mapped_mesh(p, span, n_eta), model, p, source=source)
    ref_matrix, ref_rhs, rhs_scale = cellwise_system(p, span, n_eta, model, source=source)
    by_node = np.argsort(system.free_nodes)
    matrix = system.matrix[by_node][:, by_node]
    assert np.max(np.abs((matrix - ref_matrix).toarray())) <= 1e-14 * np.max(np.abs(ref_matrix.data))
    assert np.max(np.abs(system.rhs[by_node] - ref_rhs)) <= 1e-14 * np.max(rhs_scale)
    assert abs(system.matrix - system.matrix.T).max() == 0.0


def test_assembly_reads_the_cached_csc_plan(unit_model):
    """The matrix is canonical CSC whose structure arrays are the read-only
    int32 plan cached for its grid shape; the dof map is the plan's too."""
    p = bump(64)
    system = assemble(build_mapped_mesh(p, (0, 64), n_eta=32), unit_model, p)
    plan = _csc_plan(64, 32)
    assert _csc_plan(64, 32) is plan
    assert system.matrix.has_canonical_format
    assert np.shares_memory(system.matrix.indices, plan.indices)
    assert np.shares_memory(system.matrix.indptr, plan.indptr)
    assert system.free_nodes is plan.free_nodes
    assert system.matrix.nnz == plan.source.size
    for arr in (plan.indptr, plan.indices, plan.source, plan.free_nodes):
        assert arr.dtype == np.int32
        assert not arr.flags.writeable


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
    (comp,) = solve_potential(p, unit_model, n_eta=64).components
    x, res = comp.chi.reshape(-1)[system.free_nodes], comp.residual
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
    a, b = system.matrix, system.rhs
    t = field.components[0].chi.reshape(-1)[system.free_nodes]
    best = 0.5 * t @ (a @ t) - b @ t

    rng = np.random.default_rng(7)
    for _ in range(20):
        pert = t + 0.1 * rng.standard_normal(t.size)
        assert 0.5 * pert @ (a @ pert) - b @ pert > best


def test_functional_difference_is_constant_in_test_function(unit_model):
    """G(theta) - G_D(theta) is the data energy G(0), independent of theta."""
    p = bump(20, amp=-0.3)
    mesh = build_mapped_mesh(p, (0, 20), n_eta=10)
    system = assemble(mesh, unit_model, p)
    shape = (mesh.n_x + 1, mesh.n_eta + 1)

    const_expected = sum(functional_quadratic_parts(mesh, system.datum, np.zeros(shape)))
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.standard_normal(shape)
        theta[:, -1] = 0.0
        theta[0, :] = 0.0
        theta[-1, :] = 0.0
        t = theta.reshape(-1)[system.free_nodes]
        dual = 0.5 * t @ (system.matrix @ t) - system.rhs @ t
        diff = sum(functional_quadratic_parts(mesh, system.datum, theta)) - dual
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
    """psi lies within its data bounds, [0, V] for the example family."""
    rng = np.random.default_rng(42)
    for _ in range(6):
        p = random_admissible_profile(rng, n_cells=64)
        field = solve_potential(p, unit_model, n_eta=32)
        for k in range(len(field.components)):
            psi = field.psi_on(k)
            assert psi.min() >= -1e-6
            assert psi.max() <= 1.0 + 1e-6


def test_robin_residual_decreases_under_refinement(unit_model):
    sups = []
    for n in (16, 32, 64):
        p = bump(n, amp=-0.4)
        comp = solve_potential(p, unit_model, n_eta=n).components[0]
        chi = comp.chi
        dchi = (-3.0 * chi[:, 0] + 4.0 * chi[:, 1] - chi[:, 2]) / (2.0 * comp.mesh.deta)
        residual = dchi / comp.mesh.gap_nodes - comp.datum.sigma * chi[:, 0]  # one-sided d_z chi - sigma chi
        sups.append(float(np.max(np.abs(residual))))
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
        assert abs(system.matrix - system.matrix.T).max() <= 1e-14 * np.max(np.abs(system.matrix.data))
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


# ---------------------------------------------------------------- lagged factors


def recording_factor(monkeypatch, factors: dict) -> list:
    """Record the keys held in ``factors`` at each call of ``solver.splu``."""
    held = []

    def recording_splu(*args, **kwargs):
        held.append(set(factors))
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver, "splu", recording_splu)
    return held


class CountingFactor:
    """A SuperLU factor that records each back-solve; unlike the factor
    itself, it can be weakly referenced."""

    def __init__(self, lu, backsolves: list):
        self.lu, self.backsolves = lu, backsolves

    def solve(self, rhs):
        self.backsolves.append(rhs.size)
        return self.lu.solve(rhs)


def relative_residual(system, x: np.ndarray) -> float:
    return float(np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs))


def test_lagged_factor_solve_matches_fresh_solve(unit_model, monkeypatch):
    """Along a chain of deepening bumps that share one cache, every solve after
    the first reuses the first factor, and matches a fresh solve. A solve
    without a cache leaves no factor behind and is no less accurate than a
    direct solve with its factor."""
    made = []

    def weak_splu(*args, **kwargs):
        lu = CountingFactor(splu(*args, **kwargs), [])
        made.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(solver, "splu", weak_splu)
    factors = {}
    iterations = []
    for amp in (-0.2, -0.203, -0.206, -0.209, -0.212):
        p = bump(128, amp)
        (lagged,) = solve_potential(p, unit_model, n_eta=64, factors=factors).components
        n_made = len(made)
        (fresh,) = solve_potential(p, unit_model, n_eta=64).components
        (own,) = made[n_made:]
        assert own() is None  # the call's own factor is dropped on return
        system = assemble(build_mapped_mesh(p, (0, 128), n_eta=64), unit_model, p)
        assert fresh.residual <= relative_residual(system, solver._factor(system.matrix).solve(system.rhs))
        assert fresh.factored and fresh.iterations == 0
        assert np.max(np.abs(lagged.chi - fresh.chi)) <= 1e-12 * np.max(np.abs(fresh.chi))
        assert lagged.residual <= solver._CG_RTOL
        assert list(factors) == [(0, 128, 64)]
        iterations.append((lagged.factored, lagged.iterations))
    assert iterations[0] == (True, 0)
    assert all(not factored and 0 < n <= solver._CG_MAX_ITERS + 1 for factored, n in iterations[1:])


def test_lagged_factor_refactors_when_cg_is_slow(unit_model, monkeypatch):
    """A factor of the flat gap is too far from a deep dip: CG gives up after
    _CG_MAX_ITERS iterations, and the component is factored afresh, once."""
    factors = {}
    solve_potential(bump(128, 0.0), unit_model, n_eta=64, factors=factors)
    flat_factor = factors[0, 128, 64]
    held = recording_factor(monkeypatch, factors)
    (comp,) = solve_potential(bump(128, -0.3), unit_model, n_eta=64, factors=factors).components
    assert held == [set()]  # the failed factor is dropped before the new one is made
    assert comp.factored and comp.iterations == 0
    assert comp.residual <= solver._CG_RTOL
    assert factors[0, 128, 64] is not flat_factor


def test_failed_factor_is_released_before_the_new_one_is_made(unit_model, monkeypatch):
    """When CG on a held factor fails, no reference to that factor is left while
    the component is factored afresh, so the cache never holds two factors'
    memory for one component."""
    factors = {}
    solve_potential(bump(128, 0.0), unit_model, n_eta=64, factors=factors)
    old = factors[0, 128, 64][0]
    held = sys.getrefcount(old)
    at_factor = []

    def recording_splu(*args, **kwargs):
        at_factor.append(sys.getrefcount(old))
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver, "splu", recording_splu)
    solve_potential(bump(128, -0.3), unit_model, n_eta=64, factors=factors)
    assert at_factor == [held - 1]  # the cache's reference is gone; only this test's is left


def test_changed_components_do_not_share_factors(unit_model, monkeypatch):
    """When contact splits the gap, the old component's factor is dropped
    before either new component is factored, and neither reuses it."""
    factors = {}
    solve_potential(bump(128, -0.3), unit_model, n_eta=32, factors=factors)
    held = recording_factor(monkeypatch, factors)
    p = two_component_contact()
    field = solve_potential(p, unit_model, n_eta=32, factors=factors)
    keys = {(i_lo, i_hi, 32) for i_lo, i_hi in detect_coincidence(p).components}
    assert len(keys) == 2
    assert len(held) == 2 and all(not (h - keys) for h in held)
    assert set(factors) == keys
    assert all(c.factored and c.iterations == 0 and c.residual <= 1e-12 for c in field.components)


def test_lagged_factor_is_held_to_the_round_off_floor_at_512x256(unit_model, monkeypatch):
    """At 512x256 a direct solve stops above _CG_RTOL (1-2e-12), so no CG
    iterate can meet it. A fresh cached solve still returns an iterate no
    worse than its factor's direct solve, and a chain of nearby profiles
    keeps that factor: it is held to _CG_FLOOR_FACTOR times the residual of
    its own fresh solve. The fresh solve stops at the first CG iterate whose
    residual exceeds the best so far."""
    factors = {}
    held = recording_factor(monkeypatch, factors)
    recording_splu, backsolves = solver.splu, []
    monkeypatch.setattr(solver, "splu", lambda *a, **k: CountingFactor(recording_splu(*a, **k), backsolves))
    p = bump(512, -0.2)
    (fresh,) = solve_potential(p, unit_model, n_eta=256, factors=factors).components
    assert len(backsolves) <= 3  # CG stops once its residual rises past the floor, not at _CG_MAX_ITERS
    system = assemble(build_mapped_mesh(p, (0, 512), n_eta=256), unit_model, p)
    lu = factors[0, 512, 256][0]
    direct = relative_residual(system, lu.solve(system.rhs))
    assert direct > solver._CG_RTOL
    assert fresh.factored and fresh.residual <= direct
    for amp in (-0.202, -0.204):
        (comp,) = solve_potential(bump(512, amp), unit_model, n_eta=256, factors=factors).components
        assert not comp.factored
        assert comp.residual <= solver._CG_FLOOR_FACTOR * fresh.residual
    assert len(held) == 1
