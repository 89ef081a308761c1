from __future__ import annotations

import importlib

import numpy as np
import pytest

from beamgap.energy import electrostatic_energy
from beamgap.force import compute_force
from beamgap.geometry import DeflectionProfile
from beamgap.model import compute_constants, make_example_model
from beamgap.oracles import simpson_weights
from beamgap.solver import solve_potential


def random_admissible_profile(
    rng: np.random.Generator,
    n_cells: int = 64,
    L: float = 1.0,
    H: float = 1.0,
    max_dip: float = 0.75,
) -> DeflectionProfile:
    """Random smooth profile vanishing at the ends and staying above -max_dip H."""
    n_modes = int(rng.integers(1, 4))
    coef = rng.normal(size=n_modes)
    x = np.linspace(-L, L, n_cells + 1)
    vals = np.zeros_like(x)
    for j in range(1, n_modes + 1):
        vals += coef[j - 1] * np.sin(j * np.pi * (x + L) / (2.0 * L))
    peak = float(np.max(np.abs(vals)))
    if peak > 0.0:
        vals *= max_dip * H * float(rng.uniform(0.2, 1.0)) / peak
    vals[0] = 0.0
    vals[-1] = 0.0
    return DeflectionProfile(x_nodes=x, u=vals, bc_mode="clamped", H=H)


def mms_setup(L: float = 1.0):
    """Manufactured potential cos(pi x/(2L)) (z^2 + 1.5 z) and its load.

    The profile vanishes on the top edge and the side walls and satisfies
    d_z chi = chi on the bottom, so it solves the zero-data problem with the
    injected volume load f = -Laplacian(chi).
    """
    w = np.pi / (2.0 * L)

    def chi(x, z):
        return np.cos(w * x) * (z**2 + 1.5 * z)

    def source(x, z):
        return np.cos(w * x) * (w**2 * (z**2 + 1.5 * z) - 2.0)

    return chi, source


def mms_l2_error(n_cells: int) -> float:
    """Nodal L2 error of the injected-load solve on an n x n cell grid."""
    chi_exact, source = mms_setup()
    model = make_example_model(V=0.0, sigma=1.0, H=1.0, K=1.0)
    p = DeflectionProfile.zero(1.0, 1.0, n_cells)
    field = solve_potential(p, model, n_eta=n_cells, source=source)
    comp = field.components[0]
    mesh = comp.mesh
    z = -1.0 + mesh.eta_nodes[None, :] * mesh.gap_nodes[:, None]
    err = comp.chi - chi_exact(mesh.x_nodes[:, None], z)
    wx = simpson_weights(mesh.x_nodes.size, mesh.dx)
    we = simpson_weights(mesh.eta_nodes.size, mesh.deta)
    return float(np.sqrt(wx @ (err**2) @ we))


def fd_quotients(profile, theta, model, steps, n_eta):
    """Quotients [E_e(u + s theta) - E_e(u)] / s, one per step, and the pairing int g(u) theta by the trapezoid rule.

    Averaging the quotients of s and -s gives the central difference.
    """
    field = solve_potential(profile, model, n_eta=n_eta)
    base = electrostatic_energy(profile, model, field=field).total
    pairing = float(np.trapezoid(compute_force(profile, model, field).g * theta, profile.x_nodes))
    shifted = [electrostatic_energy(profile.with_values(profile.u + s * theta), model, n_eta=n_eta) for s in steps]
    return (np.array([e.total for e in shifted]) - base) / np.array(steps), pairing


def count_solves(monkeypatch, modules: tuple[str, ...]) -> list:
    """Log the profile of every solve_potential call made through the named beamgap modules."""
    calls = []
    for name in modules:
        # by module path: the package namespace re-exports the function ``minimize``
        module = importlib.import_module(f"beamgap.{name}")

        def counted(profile, *args, _original=module.solve_potential, **kwargs):
            calls.append(profile)
            return _original(profile, *args, **kwargs)

        monkeypatch.setattr(module, "solve_potential", counted)
    return calls


@pytest.fixture
def unit_model():
    """Example family at V=1 with the frozen working constant K=1."""
    return make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0)


@pytest.fixture
def unit_constants(unit_model):
    return compute_constants(unit_model, beta=1.0, tau=0.0, alpha=0.0, L=1.0, H=1.0)
