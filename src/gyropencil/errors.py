"""Exception types shared across the package."""


class GyropencilError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GyropencilError):
    pass


class NoConvergence(GyropencilError):
    pass


class ConditionViolation(GyropencilError):
    """Construction-time validation failure (positivity, symmetry, kernel)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ShiftExhausted(GyropencilError):
    pass


class NotAnEigenvalue(GyropencilError):
    pass


class PreconditionKerMA(GyropencilError):
    """ker M meets ker A nontrivially; type classification is undefined."""


class MassNotDefinite(GyropencilError):
    pass


class DenominatorVanishes(GyropencilError):
    pass


class MatchingAmbiguous(GyropencilError):
    def __init__(self, message, eta=None):
        super().__init__(message)
        self.eta = eta


class HypothesisViolated(GyropencilError):
    pass


class EnumerationAmbiguous(GyropencilError):
    pass


class BoundaryZero(GyropencilError):
    pass


class SubdivisionStall(GyropencilError):
    pass


class PreconditionInteger(GyropencilError):
    pass


class InvalidInput(GyropencilError):
    """Malformed payloads, schema violations, bad CLI parameters."""
