"""Electrostatic force on the plate.

The force density g(u) on the plate is assembled nodewise from the solved
potential: a squared-jump term on the graph, a Robin pairing on the ground
electrode, and a negative datum term. On contact nodes the potential equals
the Dirichlet datum and the formula degenerates to data-only evaluations at
z = w = -H. The force is the density of the first variation of the
electrostatic energy: d/ds E_e(u + s theta)|_{s=0} = int_D g(u) theta dx,
which the tests check against difference quotients of the energy module's
E_e, with the pairing by its trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import electrostatic_energy  # noqa: F401  # bound here for benchmark/tracing.py
from .geometry import DeflectionProfile
from .model import DielectricModel
from .solver import PotentialField
from .solver import solve_potential  # noqa: F401  # bound here for benchmark/tracing.py

__all__ = ["ForceProfile", "compute_force"]


@dataclass(frozen=True)
class ForceProfile:
    """Nodal force density g."""

    g: np.ndarray

    @property
    def min_value(self) -> float:
        return float(np.min(self.g))


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

    # the solved traces are NaN on contact nodes, where the data-only branch is taken
    psi_z = field.top_dz + hz  # d_z psi on the graph
    psi_bot = np.where(free, field.bot_val + model.h(x, -profile.H, u), model.h(x, -profile.H, -profile.H))
    jump = np.where(free, 0.5 * (1.0 + up**2) * (psi_z - hz - hw) ** 2, 0.5 * hw**2)
    robin = sig * (psi_bot - fh) * fhw
    datum = -0.5 * (hx**2 + (hz + hw) ** 2)
    return ForceProfile(g=jump + robin + datum)
