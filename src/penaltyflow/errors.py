"""Exception types shared across the package."""


class PenaltyflowError(Exception):
    """Base of the package's errors. Each type states the exit code of
    ``penaltyflow run`` and ``validate`` for it and the label its message is
    printed under; ``run`` also records that message in report.json."""

    exit_code, label = 1, "error"


class ParameterError(PenaltyflowError, ValueError):
    """An argument violates a documented precondition."""


class PreconditionError(ParameterError):
    """An operation was invoked on an instance lacking the required structure."""

    exit_code, label = 4, "precondition error"


class ConvergenceFailure(PenaltyflowError, RuntimeError):
    """An iterative solver did not reach the requested tolerance."""

    label = "convergence failure"

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DivergenceError(PenaltyflowError, RuntimeError):
    """A trajectory left the trust region (state norm blew up)."""

    exit_code, label = 3, "integration diverged"

    def __init__(self, message, step_index=None, norm=None):
        super().__init__(message)
        self.step_index = step_index
        self.norm = norm


class UnsupportedInstanceError(PenaltyflowError, RuntimeError):
    """The instance is outside the structural class a routine can handle."""


class MetricUndefinedError(PenaltyflowError, ValueError):
    """A quality metric is undefined for the given inputs."""


class FormatError(PenaltyflowError, ValueError):
    """Malformed file content (PGM/CSV headers, unsupported variants)."""


class ConfigError(PenaltyflowError, ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
