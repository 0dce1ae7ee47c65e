"""Exception types shared across the package."""


class FracrootsError(Exception):
    """Base class for all package-specific errors."""


class NonRealEvaluation(FracrootsError, ArithmeticError):
    """A residual function could not produce a finite real value at the point."""


class SingularJacobian(FracrootsError):
    """The finite-difference Jacobian is rank deficient or numerically singular."""


class InsufficientData(FracrootsError, ValueError):
    """Too few usable entries to estimate a convergence order."""


class InvalidPrimitives(FracrootsError, ValueError):
    """Economic primitives violate the model's admissibility conditions."""


class ThresholdSolveFailed(FracrootsError):
    """A threshold solve did not converge; carries the failing outcome."""

    def __init__(self, outcome):
        self.outcome = outcome
        super().__init__(f"threshold solve failed with status {outcome.status.value!r} "
                         f"after {outcome.iterations} iterations")


class ConfigError(FracrootsError, ValueError):
    """A scenario configuration file is missing or malformed; carries the field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
