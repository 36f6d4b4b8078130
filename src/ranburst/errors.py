"""Exception types shared across the package.

The CLI maps these onto exit codes (validation 2, numerical failure 3,
state-space cap 4); everything else is an ordinary ValueError.
"""


class ScenarioError(ValueError):
    """A scenario file or Scenario object violates an invariant."""


class NumericalError(RuntimeError):
    """A linear solve or iteration did not reach the requested tolerance,
    or the simulator's bound draws are not numpy's own."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class StateSpaceLimitError(RuntimeError):
    """The enumerated state space exceeds the configured cap."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"state space has {size} states, exceeding the cap of {limit}"
        )
        self.size = size
        self.limit = limit
