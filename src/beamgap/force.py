"""Electrostatic force on the plate and its finite-difference validation.

The force density g(u) on the plate is assembled nodewise from the solved
potential: a squared-jump term on the graph, a Robin pairing on the ground
electrode, and a negative datum term. On contact nodes the potential equals
the Dirichlet datum and the formula degenerates to data-only evaluations at
z = w = -H. The force is the density of the first variation of the
electrostatic energy: d/ds E_e(u + s theta)|_{s=0} = int_D g(u) theta dx.
The finite-difference audit evaluates that pairing by the trapezoid rule, the
rule of the energy module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import electrostatic_energy
from .geometry import DeflectionProfile
from .model import DielectricModel
from .solver import PotentialField, solve_potential

__all__ = [
    "ForceProfile",
    "DerivativeCheckRow",
    "compute_force",
    "directional_derivative_check",
]


@dataclass(frozen=True)
class ForceProfile:
    """Nodal force density g and its three constituent terms.

    ``branch_mask`` is True on contact nodes (data-only branch) and False on
    non-contact nodes (solved-potential branch); it coincides with the
    contact mask of the coincidence set the field was solved on.
    g = jump_term + robin_term + datum_term nodewise.
    """

    g: np.ndarray
    branch_mask: np.ndarray
    jump_term: np.ndarray
    robin_term: np.ndarray
    datum_term: np.ndarray

    @property
    def min_value(self) -> float:
        return float(np.min(self.g))

    def lower_bound_margin(self, G0: float) -> float:
        """min g + G0; nonnegative (up to round-off) by the force lower bound."""
        return self.min_value + float(G0)


def compute_force(profile: DeflectionProfile, model: DielectricModel, field: PotentialField) -> ForceProfile:
    """Assemble the nodal force density from a solved potential.

    Non-contact nodes use

        g = 1/2 (1 + u'^2) [d_z psi - h_z - h_w]^2 (x, u)
            + sigma [psi(x,-H) - frak_h(x,u)] frak_h_w(x,u)
            - 1/2 [h_x^2 + (h_z + h_w)^2](x, u)

    with all h-derivatives at (x, u(x), u(x)); contact nodes replace the
    first term by 1/2 h_w^2(x,-H,-H), psi(x,-H) by the datum h(x,-H,-H), and
    evaluate everything at z = w = -H. Raises if the solved traces are
    missing (non-finite) on any non-contact node.
    """
    x = profile.x_nodes
    u = profile.u
    contact = field.coincidence.contact_mask
    free = ~contact

    if not np.all(np.isfinite(field.top_dz[free])) or not np.all(np.isfinite(field.bot_val[free])):
        bad = np.flatnonzero(free & ~(np.isfinite(field.top_dz) & np.isfinite(field.bot_val)))
        raise ValueError(f"potential traces missing on non-contact nodes {bad[:8].tolist()}")

    sig = model.sigma.value(x)
    up = profile.slopes()

    # evaluation heights: z = w = u on non-contact nodes, z = w = -H on contact
    zw = np.where(free, u, -profile.H)
    hx = model.h_x(x, zw, zw)
    hz = model.h_z(x, zw, zw)
    hw = model.h_w(x, zw, zw)
    fh = model.frak_h(x, zw)
    fhw = model.frak_h_w(x, zw)

    jump = np.empty_like(u)
    robin = np.empty_like(u)

    psi_z = field.top_dz + hz  # d_z psi on the graph; NaN on contact (unused there)
    jump_free = 0.5 * (1.0 + up**2) * (psi_z - hz - hw) ** 2
    psi_bot = field.bot_val + model.h(x, -profile.H, u)
    robin_free = sig * (psi_bot - fh) * fhw
    np.copyto(jump, jump_free, where=free)
    np.copyto(robin, robin_free, where=free)

    jump_contact = 0.5 * hw**2
    robin_contact = sig * (model.h(x, -profile.H, -profile.H) - fh) * fhw
    np.copyto(jump, jump_contact, where=contact)
    np.copyto(robin, robin_contact, where=contact)

    datum = -0.5 * (hx**2 + (hz + hw) ** 2)

    return ForceProfile(
        g=jump + robin + datum,
        branch_mask=contact.copy(),
        jump_term=jump,
        robin_term=robin,
        datum_term=datum,
    )


@dataclass(frozen=True)
class DerivativeCheckRow:
    """One finite-difference probe: [E_e(u + s theta) - E_e(u)] / s vs int g theta."""

    s: float
    fd_value: float
    pairing: float

    @property
    def gap(self) -> float:
        return abs(self.fd_value - self.pairing)


def directional_derivative_check(
    profile: DeflectionProfile,
    direction: np.ndarray,
    model: DielectricModel,
    steps: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
    n_eta: int = 128,
    gap_threshold: float | None = None,
) -> list[DerivativeCheckRow]:
    """Compare one-sided difference quotients of E_e against the force pairing.

    The direction must vanish at both endpoints and every probed u + s
    direction must stay admissible (above the obstacle). The pairing
    int g(u) theta dx uses the trapezoid rule, the energy module's rule, so
    the reported gap decreases linearly in s until the discretization floor.
    """
    theta = np.asarray(direction, dtype=float)
    if theta.shape != profile.u.shape:
        raise ValueError(f"direction shape {theta.shape} does not match grid {profile.u.shape}")
    if theta[0] != 0.0 or theta[-1] != 0.0:
        raise ValueError("direction must vanish at both endpoints")
    for s in steps:
        if s <= 0.0:
            raise ValueError(f"steps must be positive, got {s}")
        if np.any(profile.u + s * theta < -profile.H):
            raise ValueError(f"u + s theta violates the obstacle at s = {s}")

    field = solve_potential(profile, model, n_eta=n_eta, gap_threshold=gap_threshold)
    base = electrostatic_energy(profile, model, n_eta=n_eta, gap_threshold=gap_threshold, field=field).total
    force = compute_force(profile, model, field)
    pairing = float(np.trapezoid(force.g * theta, profile.x_nodes))

    rows = []
    for s in steps:
        shifted = profile.with_values(profile.u + s * theta)
        e_s = electrostatic_energy(shifted, model, n_eta=n_eta, gap_threshold=gap_threshold).total
        rows.append(DerivativeCheckRow(s=float(s), fd_value=(e_s - base) / s, pairing=pairing))
    return rows
