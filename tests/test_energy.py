from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import mms_setup

from beamgap.energy import (
    _contact_boundary_term,
    electrostatic_energy,
    mechanical_energy,
    total_energy,
)
from beamgap.geometry import DeflectionProfile
from beamgap.model import compute_constants, make_example_model, sigma_polynomial
from beamgap.solver import functional_quadratic_parts, solve_potential


def bump(n_cells: int, amp: float = 1.0) -> DeflectionProfile:
    return DeflectionProfile.from_callable(
        lambda x: amp * (1.0 - x**2) ** 2, L=1.0, H=1.0, n_cells=n_cells
    )


# ---------------------------------------------------------------- mechanical


def test_mechanical_energy_vanishes_on_flat():
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    m = mechanical_energy(p, beta=1.0, tau=2.0, alpha=3.0)
    assert m.total == 0.0


def test_bending_energy_matches_quartic():
    # u = (1-x^2)^2 on (-1,1): ||u''||^2 = 128/5, so E_bend = 64/5 at beta = 1
    m = mechanical_energy(bump(512), beta=1.0, tau=0.0, alpha=0.0)
    assert m.bending == pytest.approx(64.0 / 5.0, rel=1e-3)
    assert m.stretching == 0.0
    assert m.self_stretching == 0.0


def test_stretching_energy_matches_quartic():
    # ||u'||^2 = 256/105 for the same u, so E_stretch = 256/105 at tau = 2
    m = mechanical_energy(bump(512), beta=1.0, tau=2.0, alpha=0.0)
    assert m.stretching == pytest.approx(256.0 / 105.0, rel=1e-3)


def test_self_stretching_energy_matches_quartic():
    # (alpha/4) ||u'||^4 = (256/105)^2 at alpha = 4
    m = mechanical_energy(bump(512), beta=1.0, tau=0.0, alpha=4.0)
    assert m.self_stretching == pytest.approx((256.0 / 105.0) ** 2, rel=2e-3)


def test_self_stretching_grows_quartically():
    base = bump(64, amp=1.0)
    vals = []
    for t in (4.0, 8.0, 16.0):
        m = mechanical_energy(base.with_values(t * base.u), beta=1.0, tau=0.0, alpha=1.0)
        vals.append(m.self_stretching)
    exponents = np.diff(np.log(vals)) / np.log(2.0)
    assert np.all(exponents >= 3.5)


# ---------------------------------------------------------------- electrostatic


def test_flat_energy_closed_form():
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    for V, expected in ((1.0, -0.5), (2.0, -2.0)):
        model = make_example_model(V=V, sigma=1.0, H=1.0, K=1.0)
        e = electrostatic_energy(p, model, n_eta=16)
        assert e.total == pytest.approx(expected, abs=1e-10)
        # the field and boundary halves are equal for this configuration
        assert e.field_term == pytest.approx(e.boundary_term, abs=1e-10)


def test_zero_data_energy_is_zero():
    p = bump(32, amp=-0.3)
    model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    e = electrostatic_energy(p, model, n_eta=16)
    assert e.total == pytest.approx(0.0, abs=1e-20)


def test_electrostatic_energy_is_nonpositive(unit_model):
    rng = np.random.default_rng(5)
    from conftest import random_admissible_profile

    for _ in range(5):
        p = random_admissible_profile(rng, n_cells=64)
        e = electrostatic_energy(p, unit_model, n_eta=32)
        assert e.field_term >= 0.0
        assert e.boundary_term >= 0.0
        assert e.total <= 0.0


def test_energy_continuous_near_flat(unit_model):
    p0 = DeflectionProfile.zero(1.0, 1.0, 64)
    base = electrostatic_energy(p0, unit_model, n_eta=32).total
    shape = (1.0 - p0.x_nodes**2) ** 2
    gaps = []
    for j in range(1, 9):
        delta = 2.0**-j
        p = p0.with_values(-delta * shape)
        gaps.append(abs(electrostatic_energy(p, unit_model, n_eta=32).total - base))
    assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))


def test_contact_interval_contributes_datum_energy():
    """On the coincidence set the bottom term integrates sigma (V - 0)^2."""
    H = 1.0
    V = 1.0
    model = make_example_model(V=V, sigma=1.0, H=H, K=1.0)

    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2) * (1.0 - x**2))

    p = DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=128)
    field = solve_potential(p, model, n_eta=16)
    elec = electrostatic_energy(p, model, field=field)

    solved_bottom = sum(
        functional_quadratic_parts(c.mesh, c.datum, c.chi)[1] for c in field.components
    )
    contact_piece = elec.boundary_term - solved_bottom

    comps = field.coincidence.components
    (_, hi), (lo, _) = comps
    span = p.x_nodes[lo] - p.x_nodes[hi]
    assert contact_piece == pytest.approx(0.5 * V**2 * span, rel=1e-12)


def _gate_profile(shape: str, n_cells: int) -> DeflectionProfile:
    """A bump without contact, or a profile with one or two contact runs."""
    shapes = {
        "bump": lambda x: -0.6 * (1.0 - x**2) ** 2 * (1.0 + 0.2 * x),
        "one_contact": lambda x: np.maximum(-1.0, -2.0 * np.exp(-8.0 * x**2) * (1.0 - x**2)),
        "two_contact": lambda x: np.maximum(-1.0, -1.2 * np.sin(np.pi * (x + 1.0)) ** 2),
    }
    return DeflectionProfile.from_callable(shapes[shape], L=1.0, H=1.0, n_cells=n_cells)


@pytest.mark.parametrize("n_cells", [128, 512])
@pytest.mark.parametrize("shape, n_components", [("bump", 1), ("one_contact", 2), ("two_contact", 3)])
def test_energy_read_off_the_system_matches_quadrature(shape, n_components, n_cells):
    """The energy terms the solve reads off its assembled system equal the
    Gauss quadrature of the functional at the solved chi to 1e-13 relative."""
    model = make_example_model(V=1.3, sigma=sigma_polynomial([1.0, 0.5, 0.5]), H=1.0, K=1.0)
    p = _gate_profile(shape, n_cells)
    field = solve_potential(p, model, n_eta=n_cells // 2)
    assert len(field.components) == n_components
    parts = [functional_quadratic_parts(c.mesh, c.datum, c.chi) for c in field.components]
    ref_field = sum(f for f, _ in parts)
    ref_bottom = sum(b for _, b in parts) + _contact_boundary_term(p, model, field)
    elec = electrostatic_energy(p, model, field=field)
    assert abs(elec.field_term - ref_field) <= 1e-13 * ref_field
    assert abs(elec.boundary_term - ref_bottom) <= 1e-13 * ref_bottom


def test_sourced_field_energy_leaves_the_source_out():
    """A manufactured source adds to the load but not to the functional, so
    the energy read off a sourced solve leaves the source's load out and still
    equals the quadrature of the functional at the solved chi."""
    _, source = mms_setup()
    model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    p = bump(32, amp=-0.4)
    (comp,) = solve_potential(p, model, n_eta=16, source=source).components
    field, bottom = functional_quadratic_parts(comp.mesh, comp.datum, comp.chi)
    assert field > 0.1 and bottom > 0.01
    assert comp.field_term == pytest.approx(field, rel=1e-13)
    assert comp.bottom_term == pytest.approx(bottom, rel=1e-13)


# ---------------------------------------------------------------- report and penalty


def test_report_combines_parts(unit_model, unit_constants):
    p = bump(64, amp=-0.3)
    rep = total_energy(p, unit_model, unit_constants, k=unit_constants.kappa0, n_eta=32)
    assert rep.e_total == rep.e_mechanical + rep.e_electrostatic
    assert rep.penalty >= 0.0
    assert rep.e_electrostatic <= 0.0
    assert rep.e_penalized == rep.e_total + rep.penalty


def test_penalty_level_below_obstacle_rejected(unit_model, unit_constants):
    p = DeflectionProfile.zero(1.0, 1.0, 32)
    with pytest.raises(ValueError):
        total_energy(p, unit_model, unit_constants, k=0.5, n_eta=16)


def test_penalty_matches_scipy_quadrature(unit_model, unit_constants):
    p = bump(64, amp=2.0)  # peak 2 exceeds k = 1
    rep = total_energy(p, unit_model, unit_constants, k=1.0, n_eta=16)
    excess = np.maximum(p.u - 1.0, 0.0)
    expected = 0.5 * unit_constants.A * np.trapezoid(excess**2, x=p.x_nodes)
    assert rep.penalty == pytest.approx(expected, rel=1e-12)
    assert rep.penalty > 0.0


def test_penalized_energy_coercivity_bound(unit_model, unit_constants):
    """E_k(u) >= (beta/4)||u''||^2 - c(k) along a growing ray, k = 1.

    c(k) = 2 |D| [(1 + sigma_bar) K^2 + k^2 A / 8], with |D| = 2L.
    """
    k = 1.0
    K, two_l = unit_model.K, 2.0 * unit_constants.L
    offset = 2.0 * two_l * ((1.0 + unit_model.sigma_bar) * K**2 + k**2 * unit_constants.A / 8.0)
    assert offset == pytest.approx(20.0, abs=1e-12)
    for n in range(1, 11):
        p = bump(64, amp=float(n))
        rep = total_energy(p, unit_model, unit_constants, k=k, n_eta=32)
        curv = 2.0 * mechanical_energy(p, 1.0, 0.0, 0.0).bending
        assert rep.e_penalized >= 0.25 * unit_constants.beta * curv - offset


@pytest.mark.parametrize("amp", [-0.5, -2.0])
def test_datum_evaluated_once_per_component(amp):
    """One descent trial point, a solve and then total_energy on its field,
    calls each of h_x, h_z and h_w once per non-contact component.

    amp = -2 pins the middle at -H, which leaves two components.
    """
    base = make_example_model(V=1.3, sigma=sigma_polynomial([1.0, 0.5, 0.5]), H=1.0, K=1.0)
    calls = {"h_x": 0, "h_z": 0, "h_w": 0}

    def counted(name):
        def wrapped(*args, _f=getattr(base, name), **kwargs):
            calls[name] += 1
            return _f(*args, **kwargs)

        return wrapped

    model = dataclasses.replace(base, **{name: counted(name) for name in calls})
    constants = compute_constants(model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
    p = DeflectionProfile.from_callable(
        lambda x: np.maximum(-1.0, amp * np.exp(-8.0 * x**2) * (1.0 - x**2)), L=1.0, H=1.0, n_cells=64
    )
    field = solve_potential(p, model, n_eta=16)
    total_energy(p, model, constants, k=2.0, field=field)
    n_components = len(field.components)
    assert n_components == (1 if amp == -0.5 else 2)
    assert calls == {name: n_components for name in calls}
