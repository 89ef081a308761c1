"""Equilibrium states of an idealized electrostatic plate actuator.

The package solves the electrostatic potential in the gap between a
deflected elastic plate and a dielectric-coated ground electrode, evaluates
the coupled mechanical-electrostatic energy, extracts the force the field
exerts on the plate, and minimizes the penalized total energy over
obstacle-constrained clamped or pinned deflections. An independent oracle
suite backs the numerics with closed-form solutions, integration-by-parts
identities, and functional-inequality checks.
"""

from .energy import (
    ElectrostaticEnergy,
    EnergyReport,
    MechanicalEnergy,
    coercivity_offset,
    electrostatic_energy,
    mechanical_energy,
    total_energy,
)
from .force import ForceProfile, compute_force, directional_derivative_check
from .geometry import (
    CoincidenceSet,
    DeflectionProfile,
    MappedMesh,
    build_mapped_mesh,
    default_gap_threshold,
    detect_coincidence,
)
from .minimize import (
    HistoryRow,
    MinimizeOptions,
    MinimizeResult,
    VIResidual,
    minimize,
    sup_bound_check,
    vi_residual,
)
from .model import (
    DielectricModel,
    KEstimate,
    ModelConstants,
    SampleBox,
    SigmaProfile,
    ValidationReport,
    compute_constants,
    default_sample_box,
    estimate_K,
    make_example_model,
    make_zero_data_model,
    sigma_constant,
    sigma_polynomial,
    sigma_tabulated,
    validate_assumptions,
)
from .oracles import (
    AnalyticDeflection,
    BatteryResult,
    BatterySample,
    BeamOracleSolution,
    battery_margins,
    identity_check_mapped,
    identity_check_rect,
    inequality_battery,
    solve_beam_oracle,
)
from .solver import (
    ComponentSolution,
    LinearSystem,
    MaxPrincipleReport,
    PotentialField,
    assemble,
    max_principle_check,
    solve_potential,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticDeflection",
    "BatteryResult",
    "BatterySample",
    "BeamOracleSolution",
    "CoincidenceSet",
    "ComponentSolution",
    "DeflectionProfile",
    "DielectricModel",
    "ElectrostaticEnergy",
    "EnergyReport",
    "ForceProfile",
    "HistoryRow",
    "KEstimate",
    "LinearSystem",
    "MappedMesh",
    "MaxPrincipleReport",
    "MechanicalEnergy",
    "MinimizeOptions",
    "MinimizeResult",
    "ModelConstants",
    "PotentialField",
    "SampleBox",
    "SigmaProfile",
    "VIResidual",
    "ValidationReport",
    "assemble",
    "battery_margins",
    "build_mapped_mesh",
    "coercivity_offset",
    "compute_constants",
    "compute_force",
    "default_gap_threshold",
    "default_sample_box",
    "detect_coincidence",
    "directional_derivative_check",
    "electrostatic_energy",
    "estimate_K",
    "identity_check_mapped",
    "identity_check_rect",
    "inequality_battery",
    "make_example_model",
    "make_zero_data_model",
    "max_principle_check",
    "mechanical_energy",
    "minimize",
    "sigma_constant",
    "sigma_polynomial",
    "sigma_tabulated",
    "solve_beam_oracle",
    "solve_potential",
    "sup_bound_check",
    "total_energy",
    "validate_assumptions",
    "vi_residual",
]
