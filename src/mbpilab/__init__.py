"""mbpilab: numerical laboratory for critical Markov branching processes
with immigration under heavy-tailed offspring and immigration laws."""

__version__ = "0.1.0"

from .errors import ModelError, NumericsError, PreconditionError
from .laws import (BranchingLaw, ImmigrationLaw, ModelSpec,
                   make_stable_immigration, make_stable_offspring,
                   stable_model, validate_law)
from .rvcalc import RVContext, SlowlyVaryingSpec, sv_constant, sv_perturbed
from .kernel import (METHODS, GFValue, compute_P, exact_R, log_limit, solve_F,
                     transition_grid, transition_probs)
from .invariants import (InvariantMeasure, check_invariance, extract_measure,
                         ratio_limits, series_coefficients)
from .asymptotics import (RateFit, check_lemma1, check_lemma2, check_lemma3,
                          check_lemma4, fit_loglog, rate_fits)
from .sim import AliasTable, SimConfig, SimResult, estimate_pmf, simulate_path

__all__ = [
    "ModelError", "NumericsError", "PreconditionError",
    "BranchingLaw", "ImmigrationLaw", "ModelSpec",
    "make_stable_offspring", "make_stable_immigration", "stable_model",
    "validate_law",
    "RVContext", "SlowlyVaryingSpec", "sv_constant", "sv_perturbed",
    "METHODS", "GFValue", "solve_F", "exact_R", "compute_P", "log_limit",
    "transition_grid", "transition_probs",
    "InvariantMeasure", "extract_measure", "check_invariance",
    "ratio_limits", "series_coefficients",
    "RateFit", "fit_loglog", "rate_fits",
    "check_lemma1", "check_lemma2", "check_lemma3", "check_lemma4",
    "AliasTable", "SimConfig", "SimResult", "simulate_path", "estimate_pmf",
]
