"""Exception hierarchy shared by all modules."""


class ModelError(ValueError):
    """Invalid model construction or arguments outside a documented domain."""


class PreconditionError(ModelError):
    """A computation was requested for a model that does not satisfy its
    preconditions (wrong sign of gamma, mu <= 0, C_ell/C_L differing from
    |gamma|, ...)."""


class NumericsError(RuntimeError):
    """A numerical routine failed to converge within its budget
    (quadrature subdivision cap, ODE step underflow, fixed-point stall)."""
