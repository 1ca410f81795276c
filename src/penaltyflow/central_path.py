"""Strongly monotone auxiliary solves, path tracing and the least-norm limit.

The auxiliary inclusion for parameters (eps, beta) adds eps*Id + beta*B1 to
A + D, which makes the fixed-point map of one forward-backward step a
contraction; every routine here is built on that solver.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceFailure, ParameterError, require_int, require_range
from .operators import as_vector, norm


@dataclass
class CentralPathPoint:
    """One solved auxiliary problem: the point and its solve diagnostics."""

    eps: float
    beta: float
    xbar: np.ndarray
    residual: float
    iterations: int
    t: Optional[float] = None


def _internal_step(prob, eps, beta):
    lips = prob.lipschitz_bound(eps, beta)
    if prob.d.cocoercive:
        return 0.9 / lips
    # without cocoercivity the 0.9/L step can cycle (rotational fields);
    # eps/L^2 minimizes the strong-monotonicity contraction bound
    return min(0.9 / lips, eps / lips ** 2)


def solve_auxiliary(prob, eps, beta, tol=1e-10, max_iter=200000, x0=None):
    """Solve the eps-strongly-monotone auxiliary inclusion.

    Iterates the forward-backward step x <- J_{lam*A}(x - lam*V(x)) with a
    fixed internal step until the fixed-point gap drops below ``tol``.

    Returns
    -------
    CentralPathPoint

    Raises
    ------
    ParameterError
        If eps <= 0, beta < 0, tol <= 0 or max_iter is not an integer >= 1.
    ConvergenceFailure
        If max_iter is exhausted; the exception carries the last residual.
    """
    require_range("eps", eps, ">", 0)
    require_range("beta", beta, ">=", 0)
    require_range("tol", tol, ">", 0)
    require_int("max_iter", max_iter, 1)
    x = np.zeros(prob.dim) if x0 is None else as_vector(x0, prob.dim).copy()
    lam = _internal_step(prob, eps, beta)
    resolvent = prob.a.resolvent
    vfield = prob.vfield
    for k in range(max_iter):
        x_next = resolvent(lam, x - lam * vfield(eps, beta, x))
        res = norm(x - x_next)
        x = x_next
        if res <= tol:
            return CentralPathPoint(eps, beta, x, res, k + 1)
    raise ConvergenceFailure(
        f"auxiliary solve at (eps={eps:g}, beta={beta:g}) stalled at residual {res:.3e}",
        residual=res)


def central_path(prob, sch, times, tol=1e-10):
    """Solve the auxiliary problem along (eps(t), beta(t)), warm-starting each solve.

    The first solve starts at the origin. Returns a list of CentralPathPoint
    with the time attached.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ParameterError("times grid is empty")
    if not np.all(np.isfinite(times)):
        raise ParameterError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ParameterError("times must be strictly increasing")
    points = []
    warm = None
    for t in times:
        eps = float(sch.eps(t))
        beta = float(sch.beta(t))
        try:
            pt = solve_auxiliary(prob, eps, beta, tol=tol, x0=warm)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(f"central path solve failed at t={t:g}: {exc}",
                                     residual=exc.residual) from exc
        pt.t = float(t)
        points.append(pt)
        warm = pt.xbar
    return points


_DIAG_EPS_EXP = -0.25
_DIAG_BETA_EXP = 0.5
_DIAG_LEVELS = 60
_CHECK_SOLVER_TOL = 1e-12  # auxiliary-solve tolerance of the two path checks
_CHECK_TOL = 1e-9  # their absolute slack


def _diagonal_points(prob, tol):
    """Solved points, each to 0.01 * ``tol``, along the diagonal eps=n^-1/4,
    beta=n^1/2 with n doubling.

    Doubling the index keeps consecutive gaps proportional to the remaining
    distance, so the Cauchy test at ``tol`` certifies a comparable accuracy;
    stepping n by one would make the gaps vanish much faster than the error.
    """
    points = []
    prev = None  # the last solved point, which warm-starts the next solve
    n = 1.0
    for _ in range(_DIAG_LEVELS):
        eps = n ** _DIAG_EPS_EXP
        beta = n ** _DIAG_BETA_EXP
        pt = solve_auxiliary(prob, eps, beta, tol=0.01 * tol, x0=prev)
        points.append(pt)
        if prev is not None and float(np.linalg.norm(pt.xbar - prev)) <= tol:
            return points
        prev = pt.xbar
        n *= 2.0
    raise ConvergenceFailure(
        "diagonal sequence not Cauchy within the level budget",
        residual=float(np.linalg.norm(points[-1].xbar - points[-2].xbar)))


def least_norm_solution(prob):
    """Approximate the minimal-norm zero by the vanishing-regularization diagonal,
    stopped when two consecutive points are within 1e-4."""
    return _diagonal_points(prob, 1e-4)[-1].xbar


@dataclass(frozen=True)
class RegularityReport:
    """Both sides of the solution-map Lipschitz bound for one parameter pair."""

    lhs: float
    rhs_sharp: float
    rhs_ell: float
    ell_used: float
    passed_sharp: bool
    passed_ell: bool


def path_regularity_check(prob, sigma1, sigma2):
    """Compare the distance of two solved points with its Lipschitz majorants.

    The sharp bound uses |beta2-beta1|/eps1 * ||B1(x1)|| + |eps2-eps1|/eps1 *
    ||x2||; the coarser one replaces both norms by an ell constant, the
    largest of ||x1||, ||x2||, ||B1(x1)|| and ||B1(x2)||.
    """
    e1, b1 = sigma1
    e2, b2 = sigma2
    for name, value in (("eps1", e1), ("beta1", b1), ("eps2", e2), ("beta2", b2)):
        require_range(name, value, ">", 0)
    p1 = solve_auxiliary(prob, e1, b1, tol=_CHECK_SOLVER_TOL)
    p2 = solve_auxiliary(prob, e2, b2, tol=_CHECK_SOLVER_TOL)
    lhs = float(np.linalg.norm(p2.xbar - p1.xbar))
    bnorm1 = float(np.linalg.norm(prob.b1.eval(p1.xbar)))
    xnorm2 = float(np.linalg.norm(p2.xbar))
    rhs_sharp = (abs(b2 - b1) * bnorm1 + abs(e2 - e1) * xnorm2) / e1
    ell = max(bnorm1, xnorm2,
              float(np.linalg.norm(prob.b1.eval(p2.xbar))),
              float(np.linalg.norm(p1.xbar)))
    rhs_ell = ell / e1 * (abs(b2 - b1) + abs(e2 - e1))
    slack = 1.0 + 1e-6
    return RegularityReport(lhs, rhs_sharp, rhs_ell, ell,
                            lhs <= rhs_sharp * slack + _CHECK_TOL,
                            lhs <= rhs_ell * slack + _CHECK_TOL)


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference path speed against its closed-form majorant."""

    t: float
    fd_norm: float
    bound: float
    passed: bool


def path_derivative_check(prob, sch, t):
    """Central finite difference of the path at ``t`` against the speed bound.

    The bound is dbeta/eps * ||B1(xbar)|| + |deps|/eps * ||xbar||; the check
    passes when the finite-difference speed (step 1e-4 * t, on the central path
    at t - h, t, t + h) exceeds it by at most 5 % relatively.
    """
    require_range("t", t, ">", 0)
    h = 1e-4 * t
    lo, mid, hi = (p.xbar for p in central_path(prob, sch, [t - h, t, t + h],
                                                 tol=_CHECK_SOLVER_TOL))
    fd = float(np.linalg.norm(hi - lo) / (2.0 * h))
    eps = float(sch.eps(t))
    bound = (float(sch.dbeta(t)) / eps * float(np.linalg.norm(prob.b1.eval(mid)))
             + abs(float(sch.deps(t))) / eps * float(np.linalg.norm(mid)))
    return DerivativeReport(float(t), fd, bound, fd <= bound * 1.05 + _CHECK_TOL)
