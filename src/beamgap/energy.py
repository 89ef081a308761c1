"""Mechanical, electrostatic, total, and penalized energies of a profile.

This is the one discrete energy of the package: ``minimize`` descends
exactly the ``e_penalized`` reported here. Bending is the trapezoid rule on
squared second differences of ``DeflectionProfile.padded`` (the one boundary
rule), ||u'||^2 the cell-midpoint rule on ``DeflectionProfile.cell_slopes``,
and the penalty the trapezoid rule of (u - k)_+^2.
These pair exactly with the D4/D2 rows of the minimizer's residual r: the
nodal gradient of the mechanical and penalty parts is h times those rows at
every interior node. The field and bottom terms of each component are the
ones ``solve_potential`` read off the system it solved, J(chi) = 1/2 x'Kx -
b'x + J(0) (the solver docstring), which equal the solver's mapped Gauss
quadrature of the reconstructed potential and the lumped trapezoid bottom
term (``solver.functional_quadratic_parts``, the reference) to round-off, so
the electrostatic energy is the negative of the discrete functional the
solver minimizes. The bounds the paper proves of these energies, such as the
coercivity of the penalized energy, are stated in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DeflectionProfile
from .model import DielectricModel, ModelConstants
from .solver import PotentialField, _trapezoid_weights, solve_potential

__all__ = [
    "MechanicalEnergy",
    "ElectrostaticEnergy",
    "EnergyReport",
    "mechanical_energy",
    "electrostatic_energy",
    "total_energy",
    "second_differences",
]


def second_differences(profile: DeflectionProfile) -> np.ndarray:
    """Nodal central second differences of ``profile.padded()``, walls included."""
    up, h = profile.padded(), profile.spacing
    return (up[2:] - 2.0 * up[1:-1] + up[:-2]) / h**2


def grad_sq_norm(profile: DeflectionProfile) -> float:
    """||u'||^2 by the cell-midpoint rule, h sum of squared cell slopes."""
    d = profile.cell_slopes()
    return float(profile.spacing * np.sum(d * d))


# ---------------------------------------------------------------- reports


@dataclass(frozen=True)
class MechanicalEnergy:
    bending: float
    stretching: float
    self_stretching: float

    @property
    def total(self) -> float:
        return self.bending + self.stretching + self.self_stretching


@dataclass(frozen=True)
class ElectrostaticEnergy:
    """Breakdown of E_e = -(field term + Robin boundary term), both parts >= 0."""

    field_term: float
    boundary_term: float

    @property
    def total(self) -> float:
        return -(self.field_term + self.boundary_term)


@dataclass(frozen=True)
class EnergyReport:
    """Full energy breakdown at a profile: E_total = E_m + E_e, plus penalty."""

    mechanical: MechanicalEnergy
    electrostatic: ElectrostaticEnergy
    penalty: float

    @property
    def e_mechanical(self) -> float:
        return self.mechanical.total

    @property
    def e_electrostatic(self) -> float:
        return self.electrostatic.total

    @property
    def e_total(self) -> float:
        return self.e_mechanical + self.e_electrostatic

    @property
    def e_penalized(self) -> float:
        return self.e_total + self.penalty


# ---------------------------------------------------------------- energies


def mechanical_energy(profile: DeflectionProfile, beta: float, tau: float, alpha: float) -> MechanicalEnergy:
    """Beam energy (beta/2)||u''||^2 + (tau/2 + (alpha/4)||u'||^2) ||u'||^2.

    ||u''||^2 is the trapezoid rule on squared second differences and
    ||u'||^2 the cell-midpoint rule on cell slopes.
    """
    h = profile.spacing
    d2 = second_differences(profile)
    w = _trapezoid_weights(d2.size)
    i1 = grad_sq_norm(profile)
    return MechanicalEnergy(
        bending=0.5 * beta * h * float(np.sum(w * d2 * d2)),
        stretching=0.5 * tau * i1,
        self_stretching=0.25 * alpha * i1 * i1,
    )


def _contact_boundary_term(profile: DeflectionProfile, model: DielectricModel, field: PotentialField) -> float:
    """Trapezoid of sigma (h(x,-H,-H) - frak_h(x,-H))^2 over contact closures."""
    comps = field.coincidence.components
    if not np.any(field.coincidence.contact_mask):
        return 0.0
    total = 0.0
    x = profile.x_nodes
    H = profile.H
    # the contact runs are exactly the spans between consecutive non-contact
    # components (the endpoints +-L are never in contact)
    spans = [(hi, lo_next) for (_, hi), (lo_next, _) in zip(comps[:-1], comps[1:])]
    for i0, i1 in spans:
        xi = x[i0 : i1 + 1]
        val = model.sigma.value(xi) * (model.h(xi, -H, -H) - model.frak_h(xi, -H)) ** 2
        total += float(np.trapezoid(val, xi))
    return 0.5 * total


def electrostatic_energy(
    profile: DeflectionProfile,
    model: DielectricModel,
    n_eta: int = 128,
    gap_threshold: float | None = None,
    field: PotentialField | None = None,
) -> ElectrostaticEnergy:
    """Electrostatic energy -1/2 int |grad psi|^2 - 1/2 int sigma (psi - frak_h)^2.

    The field and bottom terms of the non-contact components are those the
    solve read off its systems (``ComponentSolution.field_term`` and
    ``.bottom_term``); contact intervals contribute zero field area and a
    bottom term with the Dirichlet datum h(x, -H, -H). Pass a precomputed
    ``field`` to skip the solve.
    """
    if field is None:
        field = solve_potential(profile, model, n_eta=n_eta, gap_threshold=gap_threshold)

    field_term = sum((comp.field_term for comp in field.components), 0.0)
    boundary_term = sum((comp.bottom_term for comp in field.components), 0.0)
    boundary_term += _contact_boundary_term(profile, model, field)
    return ElectrostaticEnergy(field_term=field_term, boundary_term=boundary_term)


def total_energy(
    profile: DeflectionProfile,
    model: DielectricModel,
    constants: ModelConstants,
    k: float | None = None,
    n_eta: int = 128,
    gap_threshold: float | None = None,
    field: PotentialField | None = None,
) -> EnergyReport:
    """Energy report at a profile; with penalty level k adds (A/2)||(u-k)+||^2.

    The penalty norm is the trapezoid rule, like the bending norm.

    k = None returns the plain energy (penalty zero); k < H is rejected.
    """
    if k is not None and k < constants.H:
        raise ValueError(f"penalty level k = {k} is below H = {constants.H}")
    mech = mechanical_energy(profile, constants.beta, constants.tau, constants.alpha)
    elec = electrostatic_energy(profile, model, n_eta=n_eta, gap_threshold=gap_threshold, field=field)
    penalty = 0.0
    if k is not None:
        w = _trapezoid_weights(profile.u.size)
        excess = np.maximum(profile.u - k, 0.0)
        penalty = 0.5 * constants.A * profile.spacing * float(np.sum(w * excess * excess))
    return EnergyReport(mechanical=mech, electrostatic=elec, penalty=penalty)

