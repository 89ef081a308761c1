"""Equilibrium states of an idealized electrostatic plate actuator.

The package solves the electrostatic potential in the gap between a
deflected elastic plate and a dielectric-coated ground electrode, evaluates
the coupled mechanical-electrostatic energy, extracts the force the field
exerts on the plate, and minimizes the penalized total energy over
obstacle-constrained clamped or pinned deflections. An independent oracle
suite backs the numerics with closed-form solutions, integration-by-parts
identities, and functional-inequality checks.

The package namespace holds the pipeline: build a model and its constants,
solve the potential of a profile, report its energy and force, and minimize.
Everything else is imported from its module (``beamgap.solver``,
``beamgap.oracles``, ...).
"""

from .energy import electrostatic_energy, total_energy
from .force import compute_force
from .geometry import DeflectionProfile
from .minimize import MinimizeOptions, minimize, vi_residual
from .model import compute_constants, make_example_model
from .solver import solve_potential

__version__ = "0.1.0"

__all__ = [
    "DeflectionProfile",
    "make_example_model",
    "compute_constants",
    "MinimizeOptions",
    "minimize",
    "vi_residual",
    "solve_potential",
    "electrostatic_energy",
    "total_energy",
    "compute_force",
]
