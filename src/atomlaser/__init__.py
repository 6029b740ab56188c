"""Two-mode simulator for squeezing transfer from light to an outcoupled atom beam."""

from .fock import (
    MomentSet,
    SqueezedInput,
    TruncationError,
    mode_moments,
    squeezed_coherent_state,
)
from .observables import (
    InvariantViolationError,
    ScenarioConfig,
    alpha_pair,
    input_moments,
    literal_table,
    mandel_q,
    moment_map_table,
    physics_table,
    squeeze_coeffs,
)
from .oracle import EvolutionResult, evolve, evolve_many
from .propagator import (
    ModelParams,
    conversion_times,
    heisenberg_moment_map,
    propagator_at,
)
from .verify import DiscrepancyReport, discrepancy_report

__version__ = "0.1.0"
