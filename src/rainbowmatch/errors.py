"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for all package-specific errors."""


class NotCliqueUnion(RainbowError):
    """A colour class expected to be a disjoint union of cliques is not."""


class NotTwoFactorized(RainbowError):
    """The instance does not have 2-factor colour classes."""


class PoolTooSmall(RainbowError):
    """The vertex pool cannot host a matching of the requested size."""


class GenerationStuck(RainbowError):
    """Rejection sampling exceeded its retry budget; parameters look infeasible."""


class ParameterViolation(RainbowError):
    """Generator parameters outside their admissible range."""


class InvalidInstance(RainbowError):
    """An instance file is not a well-formed instance document."""


class HypothesisViolated(RainbowError):
    """The instance does not satisfy the preconditions of the matching expander."""


class AugmentationStalled(RainbowError):
    """The matching expander hit its iteration cap without reaching the target size."""
