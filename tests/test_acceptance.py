"""Acceptance suite: one test per shipping criterion, in order.

Each test prints one ``ACCEPTANCE n: PASS`` line with the measured numbers
(visible under ``pytest -s`` or in the captured output) and enforces both the
numerical tolerance and the runtime budget of its criterion.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import fd_quotients, mms_l2_error, random_admissible_profile

from beamgap import cli
from beamgap.energy import electrostatic_energy
from beamgap.geometry import DeflectionProfile
from beamgap.minimize import MinimizeOptions, minimize
from beamgap.model import compute_constants, make_example_model
from beamgap.oracles import (
    AnalyticDeflection,
    identity_check_mapped,
    identity_check_rect,
    inequality_battery,
    solve_beam_oracle,
)
from beamgap.solver import solve_potential


def unit_voltage_model(V: float = 1.0):
    return make_example_model(V=V, sigma=1.0, H=1.0, K=1.0)


def unit_setup(V: float):
    model = unit_voltage_model(V)
    constants = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    return model, constants


def test_criterion_01_exact_cancellation():
    t0 = time.perf_counter()
    model = unit_voltage_model(1.0)
    profile = DeflectionProfile.zero(1.0, 1.0, 256)
    field = solve_potential(profile, model, n_eta=128)
    chi_sup = float(np.max(np.abs(field.components[0].chi)))
    e_e = electrostatic_energy(profile, model, field=field).total
    elapsed = time.perf_counter() - t0

    assert chi_sup <= 1e-10
    assert abs(e_e - (-0.5)) <= 1e-6
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1: PASS -- sup|chi| = {chi_sup:.3e}, E_e = {e_e:.9f}, {elapsed:.2f} s")


def test_criterion_02_manufactured_order():
    t0 = time.perf_counter()
    cells = (32, 64, 128, 256)
    errs = [mms_l2_error(n) for n in cells]
    hs = [2.0 / n for n in cells]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0

    assert 1.8 <= slope <= 2.2
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2: PASS -- L2 order {slope:.3f}, errors {['%.2e' % e for e in errs]}, {elapsed:.2f} s")


def test_criterion_03_maximum_principle():
    t0 = time.perf_counter()
    model = unit_voltage_model(1.0)
    rng = np.random.default_rng(2025)
    worst_lo, worst_hi = 0.0, 1.0
    for _ in range(20):
        profile = random_admissible_profile(rng, n_cells=128)
        field = solve_potential(profile, model, n_eta=64)
        for k in range(len(field.components)):
            psi = field.psi_on(k)
            worst_lo = min(worst_lo, float(psi.min()))
            worst_hi = max(worst_hi, float(psi.max()))
    elapsed = time.perf_counter() - t0

    assert worst_lo >= -1e-6
    assert worst_hi <= 1.0 + 1e-6
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3: PASS -- psi range [{worst_lo:.2e}, {worst_hi:.8f}], {elapsed:.2f} s")


def test_criterion_04_shape_derivative_audit():
    t0 = time.perf_counter()
    model = unit_voltage_model(1.0)
    profile = DeflectionProfile.zero(1.0, 1.0, 256)
    theta = (1.0 - profile.x_nodes**2) ** 2
    steps = (1e-2, 1e-3, 1e-4)
    quotients, pairing = fd_quotients(profile, theta, model, steps, n_eta=128)
    gaps = np.abs(quotients - pairing)
    slope = float(np.polyfit(np.log(steps), np.log(gaps), 1)[0])
    elapsed = time.perf_counter() - t0

    assert abs(pairing - 2.0 / 15.0) <= 1e-4
    assert gaps[0] > gaps[1] > gaps[2]
    assert 0.7 <= slope <= 1.3
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 4: PASS -- pairing {pairing:.7f} (2/15 = {2.0 / 15.0:.7f}), "
        f"FD slope {slope:.3f}, {elapsed:.2f} s"
    )


def test_criterion_05_variational_inequality():
    t0 = time.perf_counter()
    model, constants = unit_setup(0.1)
    initial = DeflectionProfile.zero(1.0, 1.0, 256)
    res = minimize(initial, model, constants, MinimizeOptions(n_eta=128))
    elapsed = time.perf_counter() - t0

    assert res.converged, res.status
    assert res.residual.stationarity <= 1e-8
    assert res.residual.complementarity >= -1e-8
    assert np.all(res.profile.u >= -1.0)
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5: PASS -- stationarity {res.residual.stationarity:.2e}, "
        f"multiplier floor {res.residual.complementarity}, feasible, {elapsed:.2f} s"
    )


def test_criterion_06_penalty_removal():
    t0 = time.perf_counter()
    model, constants = unit_setup(0.1)
    initial = DeflectionProfile.zero(1.0, 1.0, 256)
    res_k = minimize(initial, model, constants, MinimizeOptions(k=constants.kappa0, n_eta=128))
    res_2k = minimize(initial, model, constants, MinimizeOptions(k=2.0 * constants.kappa0, n_eta=128))
    sup_diff = float(np.max(np.abs(res_k.profile.u - res_2k.profile.u)))
    elapsed = time.perf_counter() - t0

    assert res_k.converged and res_2k.converged
    assert sup_diff <= 1e-8
    for res, k in ((res_k, constants.kappa0), (res_2k, 2.0 * constants.kappa0)):
        assert float(np.max(np.maximum(res.profile.u - k, 0.0))) == 0.0
        assert res.energy.penalty == 0.0
    assert elapsed < 240.0
    print(f"ACCEPTANCE 6: PASS -- sup diff {sup_diff:.2e}, penalty inactive at both k, {elapsed:.2f} s")


def test_criterion_07_a_priori_bound():
    margins = []
    for V in (0.05, 0.1, 0.2):
        model, constants = unit_setup(V)
        initial = DeflectionProfile.zero(1.0, 1.0, 128)
        res = minimize(initial, model, constants, MinimizeOptions(n_eta=64))
        assert res.converged, f"V = {V}: {res.status}"
        margin = constants.kappa0 - float(np.max(res.profile.u))
        assert margin > 0.0
        margins.append(margin)

    _, constants = unit_setup(1.0)
    assert constants.A == 24.0
    assert constants.G0 == 3.0
    print(f"ACCEPTANCE 7: PASS -- margins {['%.1f' % m for m in margins]}, A = 24, G0 = 3 exact")


def test_criterion_08_bending_oracle():
    t0 = time.perf_counter()
    sol = solve_beam_oracle(4, -1.0, 1.0, G0=24.0, beta=1.0, tau=0.0, H=1.0)
    x = np.linspace(-1.0, 1.0, 4001)
    vals = sol.evaluate(x)
    assert abs(float(sol.evaluate(0.0)) - 1.0) <= 1e-10
    assert int(np.argmax(vals)) == 2000
    assert np.all(vals[1:-1] > 0.0)
    assert sol.sup_norm() <= 384.0

    rng = np.random.default_rng(2024)
    worst_bc, worst_ode = 0.0, 0.0
    for _ in range(100):
        case = int(rng.integers(1, 5))
        a = float(rng.uniform(-1.0, 0.3))
        b = float(rng.uniform(a + 0.3, 1.0))
        draw = solve_beam_oracle(
            case,
            a,
            b,
            G0=float(rng.uniform(0.5, 30.0)),
            beta=float(rng.uniform(0.5, 2.0)),
            tau=float(rng.uniform(0.0, 5.0)),
            H=float(rng.uniform(0.5, 2.0)),
        )
        worst_bc = max(worst_bc, float(np.max(draw.bc_residuals())))
        worst_ode = max(worst_ode, draw.ode_residual())
    elapsed = time.perf_counter() - t0

    assert worst_bc <= 1e-10
    assert worst_ode <= 1e-10
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8: PASS -- worst BC {worst_bc:.2e}, worst ODE {worst_ode:.2e}, {elapsed:.2f} s")


def test_criterion_09_integration_identities():
    t0 = time.perf_counter()
    rect = {n: identity_check_rect(1.0, n_cells=n) for n in (64, 128, 256)}
    flat = AnalyticDeflection.flat(1.0, 1.0, 0.3)
    bump = AnalyticDeflection.bump(1.0, 1.0, 0.5)
    mapped_flat = identity_check_mapped(flat, sigma=1.0, n_cells=256)
    mapped = {n: identity_check_mapped(bump, sigma=1.0, n_cells=n) for n in (64, 128, 256)}
    rect_ratio = rect[64] / rect[128]
    mapped_ratio = mapped[64] / mapped[128]
    elapsed = time.perf_counter() - t0

    assert rect[256] <= 1e-8
    assert mapped_flat <= 1e-8
    # Simpson quadrature: nominal ratio 16 per halving, 20% window
    assert 12.8 <= rect_ratio <= 19.2
    assert 12.8 <= mapped_ratio <= 19.2
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 9: PASS -- rect {rect[256]:.2e} (ratio {rect_ratio:.2f}), "
        f"mapped flat {mapped_flat:.2e} (ratio {mapped_ratio:.2f}), {elapsed:.2f} s"
    )


def test_criterion_10_inequality_battery():
    t0 = time.perf_counter()
    bump = AnalyticDeflection.bump(1.0, 1.0, 0.5)
    result = inequality_battery(bump, n_samples=50, r_values=(2, 4, 8), n_cells=64, seed=7)
    elapsed = time.perf_counter() - t0

    assert result.violations == []
    assert len(result.worst_margins) == 9
    assert elapsed < 60.0
    worst = min(result.worst_margins.values())
    print(f"ACCEPTANCE 10: PASS -- 0 violations in {result.n_samples} samples, worst margin {worst:.2e}, {elapsed:.2f} s")


def test_criterion_11_determinism(tmp_path):
    cfg = cli.load_config(None)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a, _ = cli.run_single(cfg, out_a)
    code_b, _ = cli.run_single(cfg, out_b)
    assert code_a == 0 and code_b == 0

    for name in ("profile.csv", "history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    ja = json.loads((out_a / "run.json").read_text(encoding="utf-8"))
    jb = json.loads((out_b / "run.json").read_text(encoding="utf-8"))
    ja.pop("metadata")
    jb.pop("metadata")
    assert ja == jb
    print("ACCEPTANCE 11: PASS -- artifacts bit-identical outside the metadata block")
