"""Exception types shared across the package."""


class MeanNotZero(ValueError):
    """A mean-dependent seminorm was requested for a field with nonzero mean."""


class ResolutionTooSmall(ValueError):
    """The requested mode count cannot represent the result exactly."""


class SolveFailed(RuntimeError):
    """A linear solve did not produce a solution meeting its residual contract."""


class FitFailed(RuntimeError):
    """A decay-rate fit was not log-linear enough to be trusted."""


class NegativeRadicand(ValueError):
    """A coefficient radicand came out negative beyond roundoff."""


class TruncationTooSmall(RuntimeError):
    """A series truncation leaves a tail above the accepted threshold."""


class UnstableStep(RuntimeError):
    """A state grew past the overflow guard or a result lost finiteness.

    Path steps are exact transitions, so dt neither causes this nor cures
    it: the noise or the coefficients drive the state that far.
    """
