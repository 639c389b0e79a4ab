"""Exception hierarchy shared across the package.

Every error raised by the numerical core derives from BoseMilneError so the
CLI can map "computation failed" to a single exit code. Errors that signal a
caller mistake (bad argument, bad configuration) additionally derive from
ValueError.
"""


class BoseMilneError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BoseMilneError, ValueError):
    """Invalid configuration: out-of-range parameter, empty grid, bad rule order."""


class DomainError(BoseMilneError, ValueError):
    """Argument outside the mathematical domain of the operation (pole, cut, sign)."""


class RangeError(BoseMilneError, ValueError):
    """Argument outside the tabulated/interpolable range."""


class DivergenceError(BoseMilneError):
    """The requested integral does not converge."""


class AccuracyError(BoseMilneError):
    """Adaptive refinement exhausted before reaching the tolerance.

    Carries the best estimate and the estimated error bound so callers can
    decide whether the partial result is usable.
    """

    def __init__(self, message, best=None, bound=None):
        super().__init__(message)
        self.best = best
        self.bound = bound


class ResolutionError(BoseMilneError):
    """Grid refinement could not resolve an ambiguity (argument unwrapping)."""


class ConsistencyError(BoseMilneError):
    """A quantity that must be exact by theory (integer winding, root residual) is not."""


class ConvergenceError(BoseMilneError):
    """A solver did not converge, or its result failed its residual check."""


class ExtractionError(BoseMilneError):
    """Far-field intercept extraction failed (window too short, nonlinear fit)."""
