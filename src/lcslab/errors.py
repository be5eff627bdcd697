"""Exception types shared across the library."""

from __future__ import annotations


class DimensionError(ValueError):
    """Raised when dimensions or form degrees are inconsistent."""


class DomainEvaluationError(ValueError):
    """A field evaluation left its domain (log/power of a nonpositive value).

    Carries the offending point when the evaluation context knows it; a
    jet's domain check sets ``index``, the flat index of the first offender.
    """

    index: int | None = None

    def __init__(self, message: str, point=None):
        if point is not None:
            message = f"{message} at point {point}"
        super().__init__(message)
        self.point = point


class PreconditionError(RuntimeError):
    """An operation's documented precondition failed on the verification grid.

    ``details`` holds the numeric evidence (worst point, worst value, ...).
    """

    def __init__(self, message: str, **details):
        if details:
            message = f"{message} ({', '.join(f'{k}={v}' for k, v in details.items())})"
        super().__init__(message)
        self.details = details


class ImmersionError(PreconditionError):
    """A candidate embedding is rank-deficient at a sampled parameter."""


class ObstructionError(PreconditionError):
    """A construction was refused because a chord pair violates the mean-value bound.

    ``details['chord']`` identifies the offending chord or ray.
    """


class SceneError(ValueError):
    """A scene file failed validation. ``pointer`` is a JSON pointer; a
    message over 300 characters keeps its first 150 and last 100."""

    def __init__(self, message: str, pointer: str = ""):
        if len(message) > 300:
            message = f"{message[:150]} ... {message[-100:]}"
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer or "/"
