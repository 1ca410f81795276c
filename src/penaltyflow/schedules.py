"""Parameter schedules (eps, beta, lam, gamma) and validators for the
convergence conditions each integration mode needs.

The numeric validators classify asymptotics from a log grid t in [1e2, 1e8]:
a quantity is declared "-> 0" when the fitted log-log slope over the grid tail
falls below a small deadband and the last samples decrease; integrals are
declared divergent when the fitted integrand exponent stays above -1
(p-integral dichotomy). For polynomial families these slope rules, rather
than absolute-value thresholds, make the numeric verdicts coincide with the
exact exponent tests outside a band around each boundary. A rule whose fitted
slope is c times an exponent combination (c = 1 for s - r, 2 for r + s - 1/2
and s - 1/2, 3 for FBF's r + s - 1/3) reads its sign only beyond
_SLOPE_DEADBAND / c; inside that band the numeric rules may reject a schedule
the exact tests accept, and are never the more lenient. Each validation
calls every schedule field once at each grid time, as every other caller calls
it at one time, and reads all of its checks from those values.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import ParameterError, require_range

MODES = ("FB", "FBF", "SFBP")
#: log-spaced asymptotic validation grid, read-only
GRID = np.logspace(2, 8, 31)
GRID.flags.writeable = False
_TAIL = 5            # samples used for slope fitting
_SLOPE_DEADBAND = 1e-2
_RHO_STAR = 2.0      # the Attouch-Czarnecki exponent of the SFBP result


@dataclass(frozen=True)
class Schedule:
    """Time-dependent parameters with closed-form derivatives.

    Each callable takes one float time and returns one float. ``at(t)`` gives
    the values a step uses, from one fused call ``_at`` when set, which a
    polynomial's eps, beta, lam read.
    """

    eps: Callable
    beta: Callable
    lam: Callable
    gamma: Callable
    deps: Callable
    dbeta: Callable
    family: str = "custom"
    params: dict = field(default_factory=dict)
    _at: Optional[Callable] = field(default=None, compare=False, repr=False)

    @property
    def at(self):
        """t -> (lam, eps, beta, gamma), without a method dispatch per call."""
        return self._at or (lambda t: (self.lam(t), self.eps(t), self.beta(t), self.gamma(t)))


def _constant(c):
    """t -> c at every t, inf included."""
    c = float(c)
    return lambda t: c


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
    require_range("r", r, ">", 0, "<", 1)
    require_range("s", s, ">", 0)
    require_range("b", b, ">=", 1)
    require_range("lambda_bar", lambda_bar, ">", 0)
    require_range("gamma_bar", gamma_bar, ">", 0, "<=", 1)
    if gamma_kind not in ("constant", "cos-inverse"):
        raise ParameterError("gamma_kind must be 'constant' or 'cos-inverse'")

    if gamma_kind == "constant":
        gamma = _constant(gamma_bar)
    else:
        # cos(1/t) changes sign near 0; restrict to t >= 1 where it is positive
        def gamma(t):
            return gamma_bar * math.cos(1.0 / max(t, 1.0))

    def at(t):
        u = t + b
        bt, et = u ** s, u ** (-r)
        return lambda_bar / (bt + lambda_bar * et), et, bt, gamma(t)

    def deps(t):
        return -r * (t + b) ** (-r - 1.0)

    def dbeta(t):
        return s * (t + b) ** (s - 1.0)

    return Schedule(lambda t: at(t)[1], lambda t: at(t)[2], lambda t: at(t)[0], gamma,
                    deps, dbeta, family="polynomial",
                    params={"r": r, "s": s, "b": b, "lambda_bar": lambda_bar,
                            "gamma_bar": gamma_bar, "gamma_kind": gamma_kind},
                    _at=at)


def constant_schedule(eps, beta, lam, gamma=1.0):
    """Constant parameters; handy for frozen-recursion tests."""
    return Schedule(*map(_constant, (eps, beta, lam, gamma, 0.0, 0.0)),
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


def _samples(fn, times):
    """``fn`` called once at each time of the array ``times``, as a float."""
    return np.array([fn(t) for t in times.tolist()], dtype=float)


def _tail_slope(values, grid=GRID):
    """Fitted d log f / d log t over the last grid samples (nan-safe)."""
    v = np.maximum(np.abs(values[-_TAIL:]), 1e-300)
    return float(np.polyfit(np.log(grid[-_TAIL:]), np.log(v), 1)[0])


def _limit_zero_check(name, values):
    slope = _tail_slope(values)
    tail = np.abs(values[-3:])
    decreasing = bool(tail[0] > tail[1] > tail[2]) or np.all(tail < 1e-300)
    ok = slope < -_SLOPE_DEADBAND and decreasing
    return ScheduleCheck(name, ok, float(abs(values[-1])), float(GRID[-1]))


def _limit_inf_check(name, values):
    slope = _tail_slope(values)
    tail = values[-3:]
    increasing = bool(tail[0] < tail[1] < tail[2])
    ok = slope > _SLOPE_DEADBAND and increasing
    return ScheduleCheck(name, ok, float(values[-1]), float(GRID[-1]))


def _integral_divergent_check(name, integrand):
    slope = _tail_slope(integrand)
    return ScheduleCheck(name, slope >= -1.0 - _SLOPE_DEADBAND, slope, float(GRID[-1]))


def _exponent_checks(sch, mode):
    r, s = sch.params["r"], sch.params["s"]
    if mode == "FB":
        return [ScheduleCheck("r+s<1/2", r + s < 0.5, r + s, math.inf),
                ScheduleCheck("r<s", r < s, s - r, math.inf)]
    if mode == "FBF":
        return [ScheduleCheck("r+s<1/3", r + s < 1.0 / 3.0, r + s, math.inf),
                ScheduleCheck("r<s", r < s, s - r, math.inf),
                ScheduleCheck("r+s>0", r + s > 0, r + s, math.inf)]
    return [ScheduleCheck("1/2<r<1", 0.5 < r < 1.0, r, math.inf),
            ScheduleCheck("1/2<s<=1", 0.5 < s <= 1.0, s, math.inf),
            ScheduleCheck("r>s", r > s, r - s, math.inf)]


def _numeric_checks(mode, eta, mu, eps, beta, lam, gam, deps, dbeta):
    checks = [_limit_zero_check("eps->0", eps), _limit_inf_check("beta->inf", beta)]
    if mode in ("FB", "FBF"):
        checks.append(_limit_inf_check("eps*beta->inf", eps * beta))
    if mode == "FB":
        scale = gam * lam * eps ** 2
        checks += [_limit_zero_check("tikhonov-scale-limit", deps / scale),
                   _limit_zero_check("penalty-scale-limit", dbeta / scale),
                   _integral_divergent_check("decay-integral-divergence",
                                             gam * lam * eps * (2.0 - lam * eps))]
    elif mode == "FBF":
        # The decay weight is (1 - lam*L)/a^2; the step-bound check pins
        # limsup lam*L < 1 separately, so classification uses the structural
        # factor 1/a^2 whose fitted slope is free of the (1 - lam*L) drift.
        amp = 2.0 + 1.0 / (lam * eps) + 1.0 / (eta * eps) + beta / (mu * eps)
        delta = 1.0 / amp ** 2
        checks += [_integral_divergent_check("decay-integral-divergence", delta),
                   _limit_zero_check("tikhonov-scale-limit", deps / (eps * delta)),
                   _limit_zero_check("penalty-scale-limit", dbeta / (eps * delta))]
    else:
        lb = lam * beta
        checks += [_limit_zero_check("lam->0", lam),
                   _limit_inf_check("lam/eps->inf", lam / eps),
                   ScheduleCheck("liminf-lam*beta>0", float(np.min(lb[-_TAIL:])) > 0,
                                 float(lb[-1]), float(GRID[-1])),
                   _integral_divergent_check("lam-not-integrable", lam),
                   _integral_divergent_check("eps-not-integrable", eps)]
        for name, v in (("lam-square-integrable", lam), ("eps-square-integrable", eps)):
            slope = _tail_slope(v * v)
            checks.append(ScheduleCheck(name, slope < -1.0 - _SLOPE_DEADBAND, slope,
                                        float(GRID[-1])))
    return checks


def validate_schedule(sch, mode, moduli):
    """Check the schedule against the hypotheses of the requested mode.

    ``sch.family`` alone picks the route: the exact exponent tests for
    "polynomial", the numeric grid tests for any other family. The FB and FBF
    step bound ("lambda-step-bound", lam*L < 1) is checked only for t >= 1e7 on
    GRID, so an accepted FBF schedule may run with lam*L > 1 before then; the
    strict xfail test_fbf_leaves_the_path_while_lam_l_exceeds_1 pins one.

    Parameters
    ----------
    sch : Schedule
    mode : {"FB", "FBF", "SFBP"}
    moduli : tuple (eta, mu)

    Returns
    -------
    ValidationReport
        overall is the conjunction of all listed checks.
    """
    if mode not in MODES:
        raise ParameterError(f"unknown mode '{mode}'")
    eta, mu = moduli
    require_range("moduli eta", eta, ">", 0)
    require_range("moduli mu", mu, ">", 0)
    values = [_samples(getattr(sch, f), GRID)
              for f in ("eps", "beta", "lam", "gamma", "deps", "dbeta")]
    eps, beta, lam = values[:3]
    if sch.family == "polynomial":
        checks = _exponent_checks(sch, mode)
    else:
        checks = _numeric_checks(mode, eta, mu, *values)
    if mode == "SFBP":
        lb = float(lam[-1]) * float(beta[-1])
        checks.append(ScheduleCheck("lam*beta<2*mu", lb < 2.0 * mu, lb, float(GRID[-1])))
    else:
        # lam(t) * (1/eta + eps + beta/mu) < 1, on the tail decade only
        tail = GRID >= 1e7
        bound = lam[tail] * (1.0 / eta + eps[tail] + beta[tail] / mu)
        idx = int(np.argmax(bound))
        worst = float(bound[idx])
        checks.append(ScheduleCheck("lambda-step-bound", worst < 1.0, worst,
                                    float(GRID[tail][idx])))
    return ValidationReport(mode, checks, all(c.passed for c in checks))


def attouch_czarnecki_check(sch):
    """Integrability test for lam(t) * beta(t)^(1 - rho*) at rho* = 2.

    For polynomial families the verdict is exact from exponents; otherwise the
    integral is estimated by trapezoid quadrature on a log grid up to t = 1e6
    and the tail is extrapolated from the fitted local exponent.

    Returns
    -------
    (estimate, passed) : (float, bool)
        estimate is the integral including the extrapolated tail (inf when the
        fitted tail diverges).
    """
    grid = np.concatenate([[0.0], np.logspace(-2, 6, 200)])
    lam, beta = _samples(sch.lam, grid), _samples(sch.beta, grid)
    # not lam / beta, which rounds differently
    integrand = lam * beta ** (1.0 - _RHO_STAR)
    partial = float(np.trapezoid(integrand, grid))

    slope = _tail_slope(integrand, grid)
    if sch.family == "polynomial":
        # lam ~ lambda_bar * beta^-1, so the integrand exponent is -s*rho*
        passed = sch.params["s"] * _RHO_STAR > 1.0
    else:
        passed = slope < -1.0 - _SLOPE_DEADBAND
    if not passed:
        return math.inf, False
    p = min(slope, -1.0 - 1e-6)
    tail = integrand[-1] * grid[-1] / (-p - 1.0)
    return partial + tail, True
