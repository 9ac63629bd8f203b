"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for all package-specific errors."""


class NotTwoFactorized(RainbowError):
    """The instance does not have 2-factor colour classes."""


class GenerationStuck(RainbowError):
    """Rejection sampling exceeded its retry budget; parameters look infeasible."""


class ParameterViolation(RainbowError):
    """Generator parameters outside their admissible range."""


class InvalidInstance(RainbowError):
    """An instance file is not a well-formed instance document."""


class RefusedReport(RainbowError):
    """A solver returned a matching that is not a rainbow matching of its input."""


class HypothesisViolated(RainbowError):
    """The instance does not satisfy the preconditions of the matching expander."""


class AugmentationStalled(RainbowError):
    """The matching expander hit its iteration cap without reaching the target size."""
