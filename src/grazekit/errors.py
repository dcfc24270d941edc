"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A caller-supplied parameter violates a documented precondition."""


class DegenerateInputError(ValueError):
    """An input is degenerate for the requested operation (e.g. a zero vector
    where a direction is needed)."""


class StabilityError(RuntimeError):
    """The configured step would generate an unreasonable amount of work
    (e.g. expected collision candidates per particle per step above the cap).
    Usually fixed by a smaller dt or a larger velocity floor."""


class InstabilityError(RuntimeError):
    """A state update produced non-finite values."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices
