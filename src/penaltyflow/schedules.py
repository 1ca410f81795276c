"""Parameter schedules (eps, beta, lam, gamma) and validators for the
convergence conditions each integration mode needs.

The numeric validators classify asymptotics from a log grid t in [1e2, 1e8]:
a quantity is declared "-> 0" when the fitted log-log slope over the grid tail
falls below a small deadband and the last samples decrease; integrals are
declared divergent when the fitted integrand exponent stays above -1
(p-integral dichotomy). These slope rules, rather than absolute-value
thresholds, make the numeric verdicts coincide with the exact exponent tests
for polynomial families.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .errors import ParameterError

#: log-spaced asymptotic validation grid
GRID = np.logspace(2, 8, 31)
_TAIL = 5            # samples used for slope fitting
_SLOPE_DEADBAND = 1e-2


@dataclass(frozen=True)
class Schedule:
    """Time-dependent parameters with closed-form derivatives.

    All callables accept scalars and numpy arrays.
    """

    eps: Callable
    beta: Callable
    lam: Callable
    gamma: Callable
    deps: Callable
    dbeta: Callable
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def to_dict(self):
        if self.family != "polynomial":
            raise ParameterError("only polynomial schedules serialize to JSON")
        d = {"family": "polynomial", **self.params}
        if d["gamma_kind"] == "constant":
            del d["gamma_kind"]  # the default, which configs leave out
        return d


def polynomial_schedule(r, s, b=1.0, lambda_bar=0.9, gamma_bar=1.0, gamma_kind="constant"):
    """Power-law schedule eps=(t+b)^-r, beta=(t+b)^s, lam=lambda_bar/(beta+lambda_bar*eps).

    Parameters
    ----------
    r : float in (0, 1)
        Decay exponent of the Tikhonov weight.
    s : float > 0
        Growth exponent of the penalty weight.
    b : float >= 1
        Time offset.
    lambda_bar : float > 0
        Asymptotic value of lam(t)*beta(t).
    gamma_bar : float in (0, 1]
        Relaxation factor; with gamma_kind="cos-inverse" gamma(t)=cos(1/max(t,1)).
    """
    if not (0.0 < r < 1.0):
        raise ParameterError("r must lie in (0, 1)")
    if s <= 0:
        raise ParameterError("s must be positive")
    if b < 1.0:
        raise ParameterError("b must be >= 1")
    if lambda_bar <= 0:
        raise ParameterError("lambda_bar must be positive")
    if not (0.0 < gamma_bar <= 1.0):
        raise ParameterError("gamma_bar must lie in (0, 1]")
    if gamma_kind not in ("constant", "cos-inverse"):
        raise ParameterError("gamma_kind must be 'constant' or 'cos-inverse'")

    def eps(t):
        return (t + b) ** (-r)

    def beta(t):
        return (t + b) ** s

    def lam(t):
        bt = (t + b) ** s
        return lambda_bar / (bt + lambda_bar * (t + b) ** (-r))

    if gamma_kind == "constant":
        def gamma(t):
            return gamma_bar + 0.0 * t  # a float for scalar t, an array for array t
    else:
        # cos(1/t) changes sign near 0; restrict to t >= 1 where it is positive
        def gamma(t):
            return gamma_bar * np.cos(1.0 / np.maximum(np.asarray(t, dtype=float), 1.0))

    def deps(t):
        return -r * (t + b) ** (-r - 1.0)

    def dbeta(t):
        return s * (t + b) ** (s - 1.0)

    return Schedule(eps, beta, lam, gamma, deps, dbeta, family="polynomial",
                    params={"r": r, "s": s, "b": b, "lambda_bar": lambda_bar,
                            "gamma_bar": gamma_bar, "gamma_kind": gamma_kind})


def constant_schedule(eps, beta, lam, gamma=1.0):
    """Constant parameters; handy for frozen-recursion tests."""
    mk = lambda c: (lambda t: c + 0.0 * t)
    return Schedule(mk(eps), mk(beta), mk(lam), mk(gamma), mk(0.0), mk(0.0),
                    family="custom", params={"eps": eps, "beta": beta, "lam": lam, "gamma": gamma})


@dataclass(frozen=True)
class ScheduleCheck:
    name: str
    passed: bool
    witness_value: float
    witness_time: float


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    checks: List[ScheduleCheck]
    overall: bool

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]


def _eval_grid(fn, grid=GRID):
    try:
        out = np.asarray(fn(grid), dtype=float)
        if out.shape != grid.shape:
            raise ValueError
        return out
    except Exception:
        return np.array([float(fn(t)) for t in grid])


def _tail_slope(values, grid=GRID):
    """Fitted d log f / d log t over the last grid samples (nan-safe)."""
    v = np.maximum(np.abs(values[-_TAIL:]), 1e-300)
    t = grid[-_TAIL:]
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])


def _limit_zero_check(name, values, grid=GRID):
    slope = _tail_slope(values, grid)
    tail = np.abs(values[-3:])
    decreasing = bool(tail[0] > tail[1] > tail[2]) or np.all(tail < 1e-300)
    ok = slope < -_SLOPE_DEADBAND and decreasing
    return ScheduleCheck(name, ok, float(abs(values[-1])), float(grid[-1]))


def _limit_inf_check(name, values, grid=GRID):
    slope = _tail_slope(values, grid)
    tail = values[-3:]
    increasing = bool(tail[0] < tail[1] < tail[2])
    ok = slope > _SLOPE_DEADBAND and increasing
    return ScheduleCheck(name, ok, float(values[-1]), float(grid[-1]))


def _integral_divergent_check(name, integrand, grid=GRID):
    slope = _tail_slope(integrand, grid)
    ok = slope >= -1.0 - _SLOPE_DEADBAND
    return ScheduleCheck(name, ok, slope, float(grid[-1]))


def _lambda_bound_check(sch, eta, mu, grid=GRID):
    """Step bound lam(t) * (1/eta + eps + beta/mu) < 1 on the tail decade.

    The convergence conditions are asymptotic; early-time violations only
    lengthen the transient, so the check is restricted to t >= 1e7 on the grid.
    """
    tail = grid[grid >= 1e7]
    lam = _eval_grid(sch.lam, tail)
    lips = 1.0 / eta + _eval_grid(sch.eps, tail) + _eval_grid(sch.beta, tail) / mu
    worst = float(np.max(lam * lips))
    idx = int(np.argmax(lam * lips))
    return ScheduleCheck("lambda-step-bound", worst < 1.0, worst, float(tail[idx]))


def _exponent_checks(sch, mode):
    r, s = sch.params["r"], sch.params["s"]
    if mode == "FB":
        return [ScheduleCheck("r+s<1/2", r + s < 0.5, r + s, math.inf),
                ScheduleCheck("r<s", r < s, s - r, math.inf)]
    if mode == "FBF":
        return [ScheduleCheck("r+s<1/3", r + s < 1.0 / 3.0, r + s, math.inf),
                ScheduleCheck("r<s", r < s, s - r, math.inf),
                ScheduleCheck("r+s>0", r + s > 0, r + s, math.inf)]
    if mode == "SFBP":
        return [ScheduleCheck("1/2<r<1", 0.5 < r < 1.0, r, math.inf),
                ScheduleCheck("1/2<s<=1", 0.5 < s <= 1.0, s, math.inf),
                ScheduleCheck("r>s", r > s, r - s, math.inf)]
    raise ParameterError(f"unknown mode '{mode}'")


def _numeric_checks(sch, mode, grid=GRID):
    eps = _eval_grid(sch.eps, grid)
    beta = _eval_grid(sch.beta, grid)
    lam = _eval_grid(sch.lam, grid)
    gam = _eval_grid(sch.gamma, grid)
    deps = _eval_grid(sch.deps, grid)
    dbeta = _eval_grid(sch.dbeta, grid)
    checks = [_limit_zero_check("eps->0", eps, grid),
              _limit_inf_check("beta->inf", beta, grid)]
    if mode == "FB":
        checks.append(_limit_inf_check("eps*beta->inf", eps * beta, grid))
        checks.append(_limit_zero_check("tikhonov-scale-limit", deps / (gam * lam * eps ** 2), grid))
        checks.append(_limit_zero_check("penalty-scale-limit", dbeta / (gam * lam * eps ** 2), grid))
        checks.append(_integral_divergent_check(
            "decay-integral-divergence", gam * lam * eps * (2.0 - lam * eps), grid))
    elif mode == "FBF":
        checks.append(_limit_inf_check("eps*beta->inf", eps * beta, grid))
        # decay weight (1 - lam*L)/a^2 needs the moduli; attach in validate_schedule
    elif mode == "SFBP":
        checks.append(_limit_zero_check("lam->0", lam, grid))
        checks.append(_limit_inf_check("lam/eps->inf", lam / eps, grid))
        lb = lam * beta
        checks.append(ScheduleCheck("liminf-lam*beta>0", float(np.min(lb[-_TAIL:])) > 0,
                                    float(lb[-1]), float(grid[-1])))
        checks.append(_integral_divergent_check("lam-not-integrable", lam, grid))
        checks.append(_integral_divergent_check("eps-not-integrable", eps, grid))
        checks.append(ScheduleCheck("lam-square-integrable",
                                    _tail_slope(lam * lam, grid) < -1.0 - _SLOPE_DEADBAND,
                                    _tail_slope(lam * lam, grid), float(grid[-1])))
        checks.append(ScheduleCheck("eps-square-integrable",
                                    _tail_slope(eps * eps, grid) < -1.0 - _SLOPE_DEADBAND,
                                    _tail_slope(eps * eps, grid), float(grid[-1])))
    return checks


def _numeric_fbf_decay_checks(sch, eta, mu, grid=GRID):
    # The decay weight is (1 - lam*L)/a^2; the step-bound check pins
    # limsup lam*L < 1 separately, so classification uses the structural
    # factor 1/a^2 whose fitted slope is free of the (1 - lam*L) drift.
    eps = _eval_grid(sch.eps, grid)
    beta = _eval_grid(sch.beta, grid)
    lam = _eval_grid(sch.lam, grid)
    deps = _eval_grid(sch.deps, grid)
    dbeta = _eval_grid(sch.dbeta, grid)
    amp = 2.0 + 1.0 / (lam * eps) + 1.0 / (eta * eps) + beta / (mu * eps)
    delta = 1.0 / amp ** 2
    return [_integral_divergent_check("decay-integral-divergence", delta, grid),
            _limit_zero_check("tikhonov-scale-limit", deps / (eps * delta), grid),
            _limit_zero_check("penalty-scale-limit", dbeta / (eps * delta), grid)]


def validate_schedule(sch, mode, moduli, force_numeric=False):
    """Check the schedule against the hypotheses of the requested mode.

    Parameters
    ----------
    sch : Schedule
    mode : {"FB", "FBF", "SFBP"}
    moduli : tuple (eta, mu)
    force_numeric : bool
        Run the asymptotic grid tests even for polynomial families (used to
        cross-check the exact exponent shortcuts).

    Returns
    -------
    ValidationReport
        overall is the conjunction of all listed checks.
    """
    if mode not in ("FB", "FBF", "SFBP"):
        raise ParameterError(f"unknown mode '{mode}'")
    eta, mu = moduli
    if eta <= 0 or mu <= 0:
        raise ParameterError("moduli must be positive")
    checks = []
    if sch.family == "polynomial" and not force_numeric:
        checks.extend(_exponent_checks(sch, mode))
    else:
        checks.extend(_numeric_checks(sch, mode))
        if mode == "FBF":
            checks.extend(_numeric_fbf_decay_checks(sch, eta, mu))
    if mode in ("FB", "FBF"):
        checks.append(_lambda_bound_check(sch, eta, mu))
    else:
        lam_inf = float(_eval_grid(sch.lam, GRID[-3:])[-1])
        beta_inf = float(_eval_grid(sch.beta, GRID[-3:])[-1])
        checks.append(ScheduleCheck("lam*beta<2*mu", lam_inf * beta_inf < 2.0 * mu,
                                    lam_inf * beta_inf, float(GRID[-1])))
    overall = all(c.passed for c in checks)
    return ValidationReport(mode, checks, overall)


def attouch_czarnecki_check(sch, rho_star=2.0, horizon=1e6):
    """Integrability test for lam(t) * beta(t)^(1-rho_star).

    For polynomial families the verdict is exact from exponents; otherwise the
    integral is estimated by trapezoid quadrature on a log grid up to
    ``horizon`` and the tail is extrapolated from the fitted local exponent.

    Returns
    -------
    (estimate, passed) : (float, bool)
        estimate is the integral including the extrapolated tail (inf when the
        fitted tail diverges).
    """
    if rho_star < 2.0:
        raise ParameterError("rho_star must be >= 2")
    if horizon < 1e6:
        raise ParameterError("horizon must be >= 1e6")

    grid = np.concatenate([[0.0], np.logspace(-2, math.log10(horizon), 200)])
    lam = np.array([float(sch.lam(t)) for t in grid])
    beta = np.array([float(sch.beta(t)) for t in grid])
    integrand = lam * beta ** (1.0 - rho_star)
    partial = float(np.trapezoid(integrand, grid))

    if sch.family == "polynomial":
        # lam ~ lambda_bar * beta^-1, so the integrand exponent is -s*rho_star
        s = sch.params["s"]
        passed = s * rho_star > 1.0
    else:
        slope = _tail_slope(integrand, grid)
        passed = slope < -1.0 - _SLOPE_DEADBAND
    if passed:
        t_end = grid[-1]
        slope = _tail_slope(integrand, grid)
        p = min(slope, -1.0 - 1e-6)
        tail = integrand[-1] * t_end / (-p - 1.0)
        return partial + tail, True
    return math.inf, False
