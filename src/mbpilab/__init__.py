"""mbpilab: numerical laboratory for critical Markov branching processes
with immigration under heavy-tailed offspring and immigration laws."""

__version__ = "0.1.0"

from .errors import ModelError, NumericsError, PreconditionError
from .laws import (BranchingLaw, ImmigrationLaw, ModelSpec,
                   make_stable_immigration, make_stable_offspring,
                   stable_model, validate_law)
from .rvcalc import RVContext, SlowlyVaryingSpec, sv_constant, sv_perturbed
from .kernel import (METHODS, compute_P_grid, exact_R, flow_on_grid, log_limit,
                     solve_F, transition_grid)
from .invariants import (InvariantMeasure, check_invariance, extract_measure,
                         series_coefficients)
from .asymptotics import (RateFit, check_lemma1, check_lemma2, check_lemma3,
                          check_lemma4, fit_loglog, rate_fits)
from .sim import AliasTable, SimConfig, SimResult, estimate_pmf, simulate_path

__all__ = [
    "ModelError", "NumericsError", "PreconditionError",
    "BranchingLaw", "ImmigrationLaw", "ModelSpec",
    "make_stable_offspring", "make_stable_immigration", "stable_model",
    "validate_law",
    "RVContext", "SlowlyVaryingSpec", "sv_constant", "sv_perturbed",
    "METHODS", "solve_F", "exact_R", "flow_on_grid", "compute_P_grid",
    "log_limit", "transition_grid",
    "InvariantMeasure", "extract_measure", "check_invariance",
    "series_coefficients",
    "RateFit", "fit_loglog", "rate_fits",
    "check_lemma1", "check_lemma2", "check_lemma3", "check_lemma4",
    "AliasTable", "SimConfig", "SimResult", "simulate_path", "estimate_pmf",
]
