from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from conftest import count_solves

from beamgap.energy import second_differences, total_energy
from beamgap.geometry import DeflectionProfile
from beamgap.minimize import (
    _MAX_BACKTRACKS,
    _PAIRS,
    MinimizeOptions,
    _SecantPairs,
    _apply_d4,
    _banded_hessian,
    _residual_vector,
    minimize,
    sup_bound_check,
    vi_residual,
)
from beamgap.model import compute_constants, make_example_model


def small_setup(V: float, n_cells: int = 64):
    if V == 0.0:
        model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    else:
        model = make_example_model(V=V, sigma=1.0, H=1.0, K=1.0)
    constants = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    initial = DeflectionProfile.zero(1.0, 1.0, n_cells)
    return model, constants, initial


# ---------------------------------------------------------------- degenerate case


def test_zero_voltage_relaxes_to_flat():
    model, constants, initial = small_setup(0.0)
    start = initial.with_values(0.3 * (1.0 - initial.x_nodes**2) ** 2)
    res = minimize(start, model, constants, MinimizeOptions(n_eta=16, max_iters=50))
    assert res.converged
    assert np.max(np.abs(res.profile.u)) <= 1e-9
    assert res.energy.e_penalized == pytest.approx(0.0, abs=1e-18)


def test_zero_voltage_flat_is_already_stationary():
    model, constants, initial = small_setup(0.0)
    r = vi_residual(initial, model, constants, n_eta=16)
    assert np.max(np.abs(r.r)) == 0.0
    assert not r.active_mask.any()
    assert r.complementarity == np.inf


# ---------------------------------------------------------------- small-voltage run


@pytest.fixture(scope="module")
def converged_run():
    model, constants, initial = small_setup(0.1)
    res = minimize(initial, model, constants, MinimizeOptions(n_eta=32))
    return model, constants, res


def test_small_voltage_converges(converged_run):
    model, constants, res = converged_run
    assert res.converged, res.status
    assert res.residual.stationarity <= 1e-8
    assert res.residual.complementarity >= -1e-8


def test_small_voltage_solution_properties(converged_run):
    model, constants, res = converged_run
    u = res.profile.u
    # pulled toward the plate, feasible, symmetric, no contact
    assert np.all(u >= -res.profile.H)
    assert np.min(u) < 0.0
    assert not res.residual.active_mask.any()
    assert np.max(np.abs(u - u[::-1])) <= 1e-10

    flat = DeflectionProfile.zero(1.0, 1.0, res.profile.n_cells)
    e_flat = total_energy(flat, model, constants, k=constants.kappa0, n_eta=32)
    assert res.energy.e_penalized <= e_flat.e_penalized


def test_report_is_the_minimized_energy(converged_run):
    _, _, res = converged_run
    last = res.history[-1]
    assert res.energy.e_penalized == last.e_penalized
    assert res.energy.e_mechanical == last.e_mechanical
    assert res.energy.e_electrostatic == last.e_electrostatic


def test_descent_history_monotone(converged_run):
    _, _, res = converged_run
    vals = [row.e_penalized for row in res.history]
    assert all(b <= a + 1e-14 for a, b in zip(vals[:-1], vals[1:]))
    assert res.iterations == len(res.history)
    assert res.history[-1].iteration == res.iterations


def test_sup_bound_holds_with_margin(converged_run):
    _, constants, res = converged_run
    ok, margin = sup_bound_check(res.profile, constants)
    assert ok
    assert margin > 0.0


# ---------------------------------------------------------------- penalty saturation


def test_penalty_level_does_not_bind():
    """The minimizer never exceeds kappa0, so doubling k changes nothing."""
    model, constants, initial = small_setup(0.1, n_cells=64)
    res1 = minimize(initial, model, constants, MinimizeOptions(k=constants.kappa0, n_eta=32))
    res2 = minimize(initial, model, constants, MinimizeOptions(k=2.0 * constants.kappa0, n_eta=32))
    assert res1.converged and res2.converged
    assert np.max(np.abs(res1.profile.u - res2.profile.u)) <= 1e-8
    assert res1.energy.penalty == 0.0
    assert res2.energy.penalty == 0.0


# ---------------------------------------------------------------- options and guards


def test_pinned_mode_converges():
    model = make_example_model(V=0.1, sigma=1.0, H=1.0, K=1.0)
    constants = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0, bc_mode="pinned")
    initial = DeflectionProfile.zero(1.0, 1.0, 64, bc_mode="pinned")
    res = minimize(initial, model, constants, MinimizeOptions(n_eta=32))
    assert res.converged
    assert res.residual.stationarity <= 1e-8
    # pinned relaxes the clamping, so the dip is at least as deep
    clamped = minimize(
        DeflectionProfile.zero(1.0, 1.0, 64),
        make_example_model(V=0.1, sigma=1.0, H=1.0, K=1.0),
        compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0),
        MinimizeOptions(n_eta=32),
    )
    assert np.min(res.profile.u) <= np.min(clamped.profile.u) + 1e-12


def test_penalty_below_obstacle_rejected():
    model, constants, initial = small_setup(0.1)
    with pytest.raises(ValueError):
        minimize(initial, model, constants, MinimizeOptions(k=0.5, n_eta=16))
    with pytest.raises(ValueError):
        vi_residual(initial, model, constants, k=0.5, n_eta=16)


def test_negative_max_iters_rejected_before_any_solve(monkeypatch):
    model, constants, initial = small_setup(0.1)
    calls = count_solves(monkeypatch, ("minimize",))
    with pytest.raises(ValueError, match="max_iters"):
        minimize(initial, model, constants, MinimizeOptions(max_iters=-1, n_eta=16))
    assert calls == []


# ---------------------------------------------------------------- solve count


@pytest.mark.parametrize("V", [0.5, 20.0])
def test_each_trial_point_solved_once(monkeypatch, V):
    """One solve for the start and one per trial point; the result reuses the last.

    V = 20 touches down, backtracks and ends in a failed line search, whose
    _MAX_BACKTRACKS + 1 rejected trials leave no history row but are
    counted in ``counts.solves`` and ``counts.backtracks``.
    """
    model, constants, initial = small_setup(V)
    calls = count_solves(monkeypatch, ("minimize",))
    res = minimize(initial, model, constants, MinimizeOptions(n_eta=32, max_iters=5))
    backtracks = sum(row.backtracks for row in res.history)
    failed = res.status == "line_search_failure"
    assert res.converged == (V == 0.5)
    assert failed == (V == 20.0)
    assert (backtracks > 0) == (V == 20.0)
    assert len(calls) == 1 + len(res.history) + backtracks + (_MAX_BACKTRACKS + 1) * failed
    assert res.counts.solves == len(calls)
    assert res.counts.backtracks == backtracks + (_MAX_BACKTRACKS + 1) * failed
    assert res.history[-1].solves == len(calls) - (_MAX_BACKTRACKS + 1) * failed
    assert len({p.u.tobytes() for p in calls}) == len(calls)
    assert res.field.profile is res.profile


# ---------------------------------------------------------------- energy gradient


@pytest.mark.parametrize("n_cells", [31, 32])
@pytest.mark.parametrize("bc_mode", ["clamped", "pinned"])
def test_energy_gradient_is_h_times_residual(bc_mode, n_cells):
    """The central difference of the reported penalized energy is h r at every interior node.

    Zero data makes E_e = 0 and g = 0; tau, alpha and an active penalty are all on.
    """
    model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    constants = compute_constants(model, beta=1.0, tau=0.7, alpha=0.3, L=1.0, H=1.0, bc_mode=bc_mode)
    k = 1.0
    p = DeflectionProfile.from_callable(
        lambda x: 1.5 * (1.0 - x**2) ** 2 + 0.2 * np.sin(np.pi * x) * (1.0 - x**2),
        L=1.0, H=1.0, n_cells=n_cells, bc_mode=bc_mode,
    )
    assert np.max(p.u) > k

    def e_pen(u):
        return total_energy(p.with_values(u), model, constants, k=k, n_eta=4).e_penalized

    step = 1e-5
    fd = np.empty(p.u.size - 2)
    for i in range(1, p.u.size - 1):
        up, um = p.u.copy(), p.u.copy()
        up[i] += step
        um[i] -= step
        fd[i - 1] = (e_pen(up) - e_pen(um)) / (2.0 * step)
    expected = p.spacing * _residual_vector(p, constants, k, g=np.zeros(p.u.size))
    assert np.max(np.abs(fd - expected)) <= 1e-8 * np.max(np.abs(expected))


@pytest.mark.parametrize("n_cells", [8, 33])
@pytest.mark.parametrize("bc_mode", ["clamped", "pinned"])
def test_hessian_folds_the_residual_ghost_rule(bc_mode, n_cells):
    """The preconditioner's edge rows apply the same ghost rule as the residual's D4 and D2."""
    rng = np.random.default_rng(n_cells)
    u = rng.normal(size=n_cells + 1)
    u[[0, -1]] = 0.0
    p = DeflectionProfile(x_nodes=np.linspace(-1.0, 1.0, n_cells + 1), u=u, bc_mode=bc_mode, H=10.0)
    beta, coef, h = 1.3, 0.7, p.spacing
    ab = _banded_hessian(n_cells - 1, h, p.ghost_sign, beta, coef, pen_diag=np.zeros(n_cells - 1))
    dense = np.diag(ab[2]) + np.diag(ab[1, 1:], 1) + np.diag(ab[1, 1:], -1)
    dense += np.diag(ab[0, 2:], 2) + np.diag(ab[0, 2:], -2)
    expected = beta * _apply_d4(p) - coef * second_differences(p)[1:-1]
    assert np.max(np.abs(dense @ u[1:-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


# ---------------------------------------------------------------- quasi-Newton direction


def quadratic_iterates(n: int, count: int):
    """Iterates u and residuals r = B u of a convex quadratic, with the M of a clamped beam."""
    rng = np.random.default_rng(7)
    q = rng.normal(size=(n, n))
    hess = q @ q.T + n * np.eye(n)
    ab = _banded_hessian(n, 2.0 / (n + 1), 1.0, 1.0, 0.3, pen_diag=np.zeros(n))
    us = [rng.normal(size=n) for _ in range(count)]
    return ab, [(u, hess @ u) for u in us]


def test_empty_memory_gives_the_preconditioned_residual():
    """With no pairs the direction is -M^-1 r bit for bit, so every run starts as before."""
    ab, [(_, r)] = quadratic_iterates(31, 1)
    assert np.array_equal(_SecantPairs().apply(ab, r), solveh_banded(ab, r))


def test_two_loop_meets_the_newest_secant_equation():
    """H y = s for the newest pair, and the memory holds at most _PAIRS pairs."""
    ab, iterates = quadratic_iterates(31, _PAIRS + 3)
    memory = _SecantPairs()
    free = np.ones(31, dtype=bool)
    for u, r in iterates:
        memory.observe(u, r, free)
    assert len(memory.pairs) == _PAIRS
    s, y, _ = memory.pairs[-1]
    assert np.linalg.norm(memory.apply(ab, y) - s) <= 1e-10 * np.linalg.norm(s)


def test_memory_cleared_when_the_active_set_changes():
    """A new active set drops every pair and counts one reset; pairs vanish at active nodes."""
    _, iterates = quadratic_iterates(31, 4)
    memory = _SecantPairs()
    free = np.ones(31, dtype=bool)
    for u, r in iterates[:3]:
        memory.observe(u, r, free)
    assert len(memory.pairs) == 2 and memory.resets == 0
    free = free.copy()
    free[5] = False
    memory.observe(*iterates[3], free)
    assert not memory.pairs and memory.resets == 1
    memory.observe(*iterates[0], free)
    (s, y, _), = memory.pairs
    assert s[5] == 0.0 and y[5] == 0.0
    memory.clear()
    memory.clear()
    assert memory.resets == 2  # clearing an empty memory is not a reset


def test_history_reports_solves_and_step():
    """Each history row carries the solves made so far and max |du| of its accepted step."""
    model, constants, initial = small_setup(0.5)
    one = minimize(initial, model, constants, MinimizeOptions(n_eta=32, max_iters=1))
    (row,) = one.history
    assert row.solves == one.counts.solves == 2
    assert row.max_du == np.max(np.abs(one.profile.u - initial.u)) > 0.0
    full = minimize(initial, model, constants, MinimizeOptions(n_eta=32))
    assert [row.solves for row in full.history] == list(range(2, full.iterations + 2))
