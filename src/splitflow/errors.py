"""Exception types shared across the package."""


class SpecError(ValueError):
    """A flow/operator was constructed or evaluated outside its stated parameter range."""


class HypothesisError(SpecError):
    """A diagnostic was asked to certify a run whose hypotheses do not hold."""


class SolverError(RuntimeError):
    """An inner iterative solver stopped before reaching its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(RuntimeError):
    """A trajectory left the finite range during integration or a discrete run."""

    def __init__(self, message, last_finite_t, trajectory=None):
        super().__init__(message)
        self.last_finite_t = last_finite_t
        self.trajectory = trajectory


class FitError(ValueError):
    """A rate/exponent fit was requested on unusable data."""
