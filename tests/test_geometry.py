from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from beamgap.geometry import (
    DeflectionProfile,
    build_mapped_mesh,
    default_gap_threshold,
    detect_coincidence,
)


def bump_profile(n_cells: int = 64, amp: float = -0.5, H: float = 1.0) -> DeflectionProfile:
    return DeflectionProfile.from_callable(
        lambda x: amp * (1.0 - x**2) ** 2, L=1.0, H=H, n_cells=n_cells
    )


# ---------------------------------------------------------------- profiles


def test_profile_guards():
    x = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(ValueError):
        DeflectionProfile(x_nodes=x, u=np.full(9, 0.1), bc_mode="clamped", H=1.0)  # endpoints
    bad = np.zeros(9)
    bad[4] = -1.5
    with pytest.raises(ValueError):
        DeflectionProfile(x_nodes=x, u=bad, bc_mode="clamped", H=1.0)  # below obstacle
    with pytest.raises(ValueError):
        DeflectionProfile(x_nodes=x[:3], u=np.zeros(3), bc_mode="clamped", H=1.0)  # too few
    xq = x.copy()
    xq[3] += 0.01
    with pytest.raises(ValueError):
        DeflectionProfile(x_nodes=xq, u=np.zeros(9), bc_mode="clamped", H=1.0)  # non-uniform
    with pytest.raises(ValueError):
        DeflectionProfile(x_nodes=x, u=np.zeros(9), bc_mode="sliding", H=1.0)


def test_profile_basic_accessors():
    p = bump_profile(16)
    assert p.L == 1.0
    assert p.n_cells == 16
    assert p.spacing == pytest.approx(2.0 / 16)
    assert np.all(p.gap() == 1.0 + p.u)
    q = p.with_values(np.zeros(17))
    assert np.all(q.u == 0.0)
    z = DeflectionProfile.zero(2.0, 0.5, 8)
    assert z.L == 2.0 and z.H == 0.5 and np.all(z.u == 0.0)


# ---------------------------------------------------------------- coincidence


def test_no_contact_gives_single_component():
    p = bump_profile(64, amp=-0.5)
    cs = detect_coincidence(p)
    assert not np.any(cs.contact_mask)
    assert cs.components == ((0, 64),)
    assert cs.contact_fraction == 0.0


def test_touching_profile_splits_components():
    """A profile pinned at -H over a middle band must yield two components."""
    H = 1.0

    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2) * (1.0 - x**2))

    p = DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=128)
    cs = detect_coincidence(p)
    assert np.any(cs.contact_mask)
    assert len(cs.components) == 2
    assert not cs.contact_mask[0] and not cs.contact_mask[-1]
    lo0, hi0 = cs.components[0]
    lo1, hi1 = cs.components[1]
    assert lo0 == 0 and hi1 == 128 and hi0 < lo1
    assert 0.0 < cs.contact_fraction < 1.0


@pytest.mark.parametrize(
    "f, runs",
    [
        (lambda x: -0.5 * (1.0 - x**2) ** 2, 0),
        (lambda x: np.maximum(-1.0, -2.0 * np.exp(-8.0 * x**2) * (1.0 - x**2)), 1),
        (lambda x: np.maximum(-1.0, -1.2 * np.sin(np.pi * (x + 1.0)) ** 2), 2),
    ],
    ids=["bump", "middle_band", "pocket"],
)
def test_contact_components_count_the_contact_runs(f, runs):
    """One contact run between each two consecutive components: none for a
    bump, one for a middle band at -H, two for a pocket between two bands."""
    cs = detect_coincidence(DeflectionProfile.from_callable(f, L=1.0, H=1.0, n_cells=128))
    assert cs.contact_components == runs
    assert np.count_nonzero(np.diff(cs.contact_mask.astype(int)) == 1) == runs


@pytest.mark.parametrize("lifted", [1, 2, 3, 4])
def test_short_interior_runs_are_absorbed_into_contact(lifted):
    """A band at -H on |x| <= 1/2 with `lifted` nodes raised off it from node 32:
    a non-contact run spanning fewer than 3 cells becomes contact, a longer one
    is its own component."""
    x = np.linspace(-1.0, 1.0, 65)
    u = np.where(np.abs(x) <= 0.5, -1.0, -0.5 * (1.0 - x**2))
    u[32 : 32 + lifted] = -0.9
    cs = detect_coincidence(DeflectionProfile(x_nodes=x, u=u, bc_mode="clamped", H=1.0))
    if lifted <= 3:
        assert np.all(cs.contact_mask[32 : 32 + lifted])
        assert cs.components == ((0, 15), (49, 64))
    else:
        assert not np.any(cs.contact_mask[32:36])
        assert cs.components == ((0, 15), (32, 35), (49, 64))


def test_gap_threshold_scales_with_H():
    assert default_gap_threshold(1.0) == pytest.approx(1e-8)
    assert default_gap_threshold(2.0) == pytest.approx(2e-8)


# ---------------------------------------------------------------- mapped mesh


def test_mapped_mesh_coefficients_match_analytic():
    """a11 = H+v, a12 = -eta v', a22 = (1 + eta^2 v'^2)/(H+v) at quadrature points."""
    p = bump_profile(32, amp=-0.4)
    mesh = build_mapped_mesh(p, (0, 32), n_eta=8)
    xq = mesh.x_q
    vq = mesh.gap_q - mesh.H
    v_exact = -0.4 * (1.0 - xq**2) ** 2
    dv_exact = -0.4 * 2.0 * (1.0 - xq**2) * (-2.0 * xq)
    gam = 1.0 + v_exact
    # the mesh carries interpolated v, so compare against its own gap/slope
    assert np.allclose(mesh.a11, mesh.gap_q, rtol=0, atol=1e-14)
    assert np.allclose(mesh.a12, -mesh.eta_q * mesh.slope_q, rtol=0, atol=1e-14)
    assert np.allclose(
        mesh.a22, (1.0 + mesh.eta_q**2 * mesh.slope_q**2) / mesh.gap_q, rtol=1e-13, atol=0
    )
    # and the interpolated geometry tracks the analytic profile at O(h)
    assert np.max(np.abs(mesh.gap_q - gam)) < 0.05
    assert np.max(np.abs(mesh.slope_q - dv_exact)) < 0.1


def test_mapped_mesh_quadrature_measures_area():
    """Sum of gap_q over Gauss points times cell jacobian = int (H+v) dx."""
    p = bump_profile(128, amp=-0.3)
    mesh = build_mapped_mesh(p, (0, 128), n_eta=16)
    jac = mesh.dx * mesh.deta / 4.0
    area_quad = float(np.sum(np.broadcast_to(mesh.gap_q, (mesh.n_x, 2, mesh.n_eta, 2)))) * jac
    # exact: int_{-1}^{1} (1 - 0.3 (1-x^2)^2) dx = 2 - 0.3 * 16/15
    area_exact = 2.0 - 0.3 * 16.0 / 15.0
    assert area_quad == pytest.approx(area_exact, rel=1e-4)


def test_mapped_mesh_rejects_closed_gap():
    H = 1.0

    def f(x):
        return np.maximum(-H, -2.0 * H * np.exp(-8.0 * x**2))

    p = DeflectionProfile.from_callable(f, L=1.0, H=H, n_cells=64)
    with pytest.raises(ValueError):
        build_mapped_mesh(p, (0, 64), n_eta=8)


def test_mapped_mesh_stays_per_axis():
    """At 512x256 the mesh holds no array with more than 4 (n_x + n_eta) entries.

    Every array field is traced to the array that owns its memory; those
    owners together hold at most 8 (n_x + n_eta) doubles.
    """
    mesh = build_mapped_mesh(bump_profile(512, amp=-0.4), (0, 512), n_eta=256)
    bound = 4 * (mesh.n_x + mesh.n_eta)
    owners = {}
    for f in dataclasses.fields(mesh):
        arr = getattr(mesh, f.name)
        if isinstance(arr, np.ndarray):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            owners[id(arr)] = arr
    assert len(owners) >= 7
    assert max(a.size for a in owners.values()) <= bound
    assert sum(a.nbytes for a in owners.values()) <= 8 * 2 * bound
