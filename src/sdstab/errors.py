"""Exception types shared across the toolkit."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge or produced an unusable result."""


class NonFiniteMatrixError(NumericalFailure):
    """A system matrix has a non-finite entry at a finite state, met at run time.

    A matrix that is not finite at the origin raises a ValueError when the
    system is built: a configuration error.
    """


class NotStabilizableError(RuntimeError):
    """Gain synthesis found an unstabilizable pair.

    Carries the frozen point (if any) at which synthesis was attempted.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ControllerError(RuntimeError):
    """A sampled controller could not produce a plan.

    ``partial_run`` holds the closed-loop run completed before the failure,
    when the error aborts a multi-interval run.
    """

    def __init__(self, message, partial_run=None):
        super().__init__(message)
        self.partial_run = partial_run


class UncoveredPointError(ValueError):
    """A point lies outside the closure of every region of a patchwork family."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class OffsetSelectionError(RuntimeError):
    """No offset schedule in the search grid separated the piece values on a shared boundary."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""
