"""Two-level system in a broadband squeezed vacuum.

Tools for the frozen-evolution effect under continuous monitoring: closed-form
and numerical master-equation propagation, the survival-exponent landscape
over measurement directions, discrete projection protocols, and the
jump-operator eigenstates that saturate the quadrature uncertainty bound.
"""

from .algebra import (
    BlochVector,
    DefectiveMatrixError,
    DensityMatrix,
    MeasurementDirection,
    StateVector2,
    bloch_to_density,
    density_to_bloch,
    direction_eigenstates,
    eigenprojectors,
    eigensystem_2x2,
    expectation,
    phase_aligned_distance,
)
from .bath import (
    BathParams,
    generalized_lowering_operator,
    lindblad_operator,
    quadrature_rates,
    rotated_quadrature_operators,
)
from .cli import ConfigError, main, parse_config, run_scenario
from .directions import (
    LandscapeGrid,
    landscape_scan,
    optimal_directions,
)
from .dynamics import (
    EXPANDED,
    LINDBLAD,
    IntegrationError,
    SuperoperatorForm,
    TimeSeries,
    analytic_bloch,
    bloch_flow,
    generator_matrix,
    integrate,
    measured_form,
    steady_state_bloch,
)
from .intelligent import (
    IntelligentStateReport,
    disentangling_transform,
    initial_sigma_slope,
    jump_operator_eigenstates,
    quadrature_decay_curves,
)
from .measurement import (
    block_transfer_rates,
    decay_exponent,
    discrete_zeno_protocol,
    exponent_over_gamma,
    measured_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "BathParams",
    "BlochVector",
    "ConfigError",
    "DefectiveMatrixError",
    "DensityMatrix",
    "EXPANDED",
    "IntegrationError",
    "IntelligentStateReport",
    "LINDBLAD",
    "LandscapeGrid",
    "MeasurementDirection",
    "StateVector2",
    "SuperoperatorForm",
    "TimeSeries",
    "analytic_bloch",
    "bloch_flow",
    "bloch_to_density",
    "block_transfer_rates",
    "decay_exponent",
    "density_to_bloch",
    "direction_eigenstates",
    "disentangling_transform",
    "discrete_zeno_protocol",
    "eigenprojectors",
    "eigensystem_2x2",
    "expectation",
    "exponent_over_gamma",
    "generalized_lowering_operator",
    "generator_matrix",
    "initial_sigma_slope",
    "integrate",
    "jump_operator_eigenstates",
    "landscape_scan",
    "lindblad_operator",
    "main",
    "measured_form",
    "measured_steady_state",
    "optimal_directions",
    "parse_config",
    "phase_aligned_distance",
    "quadrature_rates",
    "quadrature_decay_curves",
    "rotated_quadrature_operators",
    "run_scenario",
    "steady_state_bloch",
]
