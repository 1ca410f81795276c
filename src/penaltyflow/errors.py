"""Exception types shared across the package and the two argument rules."""

import operator

import numpy as np

_COMPARE = {">": (operator.gt, "("), ">=": (operator.ge, "["),
            "<": (operator.lt, ")"), "<=": (operator.le, "]")}


class PenaltyflowError(Exception):
    """Base of the package's errors. Each type states the exit code of
    ``penaltyflow run`` and ``validate`` for it and the label its message is
    printed under; ``run`` also records that message in report.json."""

    exit_code, label = 1, "error"


class ParameterError(PenaltyflowError, ValueError):
    """An argument violates a documented precondition."""


def require_range(name, value, op, bound, op2=None, bound2=None):
    """Raise ParameterError "{name} must be {need}, got {value}" unless every
    entry of ``value`` passes ``op bound`` (and ``op2 bound2``), comparisons
    that NaN fails; ``need`` reads "> 0", "in (0, 1]" or "finite and >= 1"."""
    ok = _COMPARE[op][0](value, bound) & (op2 is None or _COMPARE[op2][0](value, bound2))
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        need = (f"{op} {bound}" if op2 is None
                else f"finite and {op} {bound}" if bound2 == np.inf
                else f"in {_COMPARE[op][1]}{bound}, {bound2}{_COMPARE[op2][1]}")
        raise ParameterError(f"{name} must be {need}, got {value}")


def require_int(name, value, least):
    """Raise ParameterError "{name} must be an integer, got {value!r}" unless
    ``value`` is an int or numpy integer, not a bool; then require >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    require_range(name, value, ">=", least)


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
