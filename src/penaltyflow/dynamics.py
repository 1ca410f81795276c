"""Explicit Euler integrators for the three splitting flows and their diagnostics.

The discrete schemes are

  FB    X+ = (1 - gamma*h) X + gamma*h * J_{lam A}(X - lam V(X))
  FBF   P  = J_{lam A}(X - lam V(X));  X+ = X + h (P - X + lam (V(X) - V(P)))
  SFBP  X+ = (1 - h) X + h * J_{lam (A + beta B2)}(X - lam V(X))

with V(x) = D(x) + eps*x + beta*B1(x) evaluated on the schedule. All three
share one marching loop, ``_march``, which builds the time grid as it goes:
each step evaluates the schedule once at the current time, sizes the step from
those values and takes it with the same values. A mode only supplies its step
cap ``cap(lam, eps, beta, gamma)`` and its step map ``step``, which returns the
update direction dx of X+ = X + h*dx. FB and FBF steps are capped by the local
Lipschitz bound of the vector field unless the caller disables it (needed when
a test pins an exact recursion); FB keeps gamma*h <= 1 and SFBP keeps h <= 1
regardless, so that X+ stays a convex combination.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, ParameterError, PreconditionError
from .operators import as_vector

_BLOWUP = 1e12


@dataclass(frozen=True)
class UniformGrid:
    h: float
    T: float


@dataclass(frozen=True)
class GeometricGrid:
    h0: float
    ratio: float
    T: float


@dataclass(frozen=True)
class IntegratorSpec:
    """How to march: grid request, stability cap, storage thinning.

    safety_factor scales the Lipschitz step cap of FB and FBF; cap_steps=False
    keeps the requested steps untouched (the relaxation bounds gamma*h <= 1 of
    FB and h <= 1 of SFBP still apply).
    max_steps, when set, truncates the run after that many (>= 1) steps.
    """

    grid: object
    safety_factor: float = 0.5
    cap_steps: bool = True
    store_every: int = 1
    max_steps: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.safety_factor <= 1.0):
            raise ParameterError("safety_factor must lie in (0, 1]")
        if self.store_every < 1:
            raise ParameterError("store_every must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ParameterError("max_steps must be >= 1")
        g = self.grid
        if isinstance(g, UniformGrid):
            if not (g.h > 0 and g.T > 0):
                raise ParameterError("grid needs h > 0 and T > 0")
        elif isinstance(g, GeometricGrid):
            if not (g.h0 > 0 and g.T > 0 and g.ratio >= 1.0):
                raise ParameterError("geometric grid needs h0 > 0, T > 0, ratio >= 1")
        else:
            raise ParameterError("grid must be UniformGrid or GeometricGrid")
        if g.T <= 1e-12:  # the march stops 1e-12 short of T
            raise ParameterError("empty time grid")


@dataclass
class Trajectory:
    """Stored samples of one integration run.

    States are kept every ``store_every`` steps plus the last two (the state
    before the final step and the final state); ``step_indices`` holds the
    step number of each sample and parallel arrays hold the schedule values
    the step at each sample used, the step vector field (xdots) and per-step
    diagnostics at those samples.
    """

    mode: str
    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    xdots: np.ndarray
    b1_norms: np.ndarray
    psi_sums: Optional[np.ndarray]
    aux_points: Optional[np.ndarray]
    lam: np.ndarray
    eps: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    lips: np.ndarray
    n_steps_total: int
    step_indices: np.ndarray

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self):
        return float(self.times[-1])


def _check_state(x, k):
    nx = math.sqrt(x.dot(x))  # np.linalg.norm's own 1-D path
    if not math.isfinite(nx) or nx > _BLOWUP:
        raise DivergenceError(f"state norm {nx:.3e} exceeded {_BLOWUP:g} at step {k}",
                              step_index=k, norm=nx)


def check_mode(mode, prob):
    """Raise PreconditionError unless ``mode`` can integrate ``prob``."""
    if mode == "FB" and not prob.d.cocoercive:
        raise PreconditionError("FB mode needs a cocoercive smooth part; "
                                f"instance '{prob.name}' is not")
    if mode == "SFBP" and prob.b2 is None:
        raise PreconditionError("SFBP mode needs a two-penalty instance")
    if mode != "SFBP" and prob.b2 is not None:
        raise PreconditionError(f"{mode} mode cannot handle a second penalty; "
                                "use SFBP")


def _kernel(mode, prob, spec):
    """The mode's step cap, its step map and its backward-step resolvents.

    ``cap(lam, eps, beta, gam)`` bounds the step from the schedule values the
    step itself uses. ``step(res, x, v, lam, eps, beta, gam)`` returns the
    update direction dx, the auxiliary point (FBF only) and the point the
    penalty sum is taken at (None for x + dx, which is then formed only for
    stored samples). ``res`` is the fast resolvent on every step and the
    validated one (which rejects non-finite output) on the final sample.
    """
    d_eval, b_eval = prob.d.eval, prob.b1.eval
    # the Lipschitz bound 1/eta + eps + beta/mu of prob.lipschitz_bound, in its order
    inv_eta, mu = 1.0 / prob.d.eta, prob.b1.mu
    cap_steps, safety = spec.cap_steps, spec.safety_factor
    if mode == "SFBP":
        def cap(lam, eps, bet, gam):
            # x+ stays a convex combination of x and the resolvent point for h <= 1
            return 1.0

        def step(res, x, v, lam, eps, bet, gam):
            j = res(lam, bet, x - lam * v)
            return j - x, None, j

        return cap, step, prob.shifted_resolvent_fn(), prob.resolvent_shifted

    if mode == "FB":
        def cap(lam, eps, bet, gam):
            h_relax = 1.0 / gam  # keeps the relaxation a convex combination
            if not cap_steps:
                return h_relax
            return min(h_relax, safety / (gam * (2.0 + lam * (inv_eta + eps + bet / mu))))

        def step(res, x, v, lam, eps, bet, gam):
            return gam * (res(lam, x - lam * v) - x), None, None
    else:
        def cap(lam, eps, bet, gam):
            if not cap_steps:
                return math.inf
            return safety / (2.0 + 2.0 * lam * (inv_eta + eps + bet / mu))

        def step(res, x, v, lam, eps, bet, gam):
            p = res(lam, x - lam * v)
            vp = d_eval(p) + eps * p + bet * b_eval(p)
            return p - x + lam * (v - vp), p, None

    return cap, step, prob.a._resolvent_fn, prob.a.resolvent


def _march(mode, prob, sch, x0, spec):
    """The one marching loop behind integrate_fb, integrate_fbf and integrate_sfbp.

    Iteration k evaluates the schedule once at the current time t, sizes the
    step h = min(requested, cap, T - t) from those values and steps with the
    same values. The iteration after the last step (k = n) takes no step and
    records the final state with a freshly evaluated field. Samples go into
    buffers sized from the uncapped step count and doubled when a binding cap
    takes more steps.
    """
    check_mode(mode, prob)
    x = as_vector(x0, prob.dim).copy()
    cap, step, res, res_checked = _kernel(mode, prob, spec)
    g, every = spec.grid, spec.store_every
    h_req, ratio = (g.h, 1.0) if isinstance(g, UniformGrid) else (g.h0, g.ratio)
    T = g.T
    t_end = T - 1e-12
    max_steps = 50_000_000 if spec.max_steps is None else spec.max_steps
    uncapped = (T / h_req if ratio == 1.0
                else math.log1p(T * (ratio - 1.0) / h_req) / math.log(ratio))
    rows = min(math.ceil(min(uncapped, max_steps)) // every + 3, 4096)
    cols = np.empty((8, rows))  # t, h, lam, eps, beta, gamma, |B1(x)|, psi sum
    vecs = np.empty((3 if mode == "FBF" else 2, rows, prob.dim))  # x, dx, p
    d_eval, b_eval, at = prob.d.eval, prob.b1.eval, sch.at
    psi1, psi2 = prob.psi1, prob.psi2
    has_psi = psi1 is not None
    t, k, i, n = 0.0, 0, 0, None
    while True:
        lam, eps, bet, gam = at(t)
        if n is None:
            h = min(h_req, cap(lam, eps, bet, gam), T - t)
            if h <= 0:
                raise ParameterError("step size collapsed to zero")
            if t + h >= t_end or k + 1 == max_steps:
                n = k + 1  # this is the last step
        else:
            res = res_checked
        bx = b_eval(x)
        v = d_eval(x) + eps * x + bet * bx
        dx, p, q = step(res, x, v, lam, eps, bet, gam)
        if k % every == 0 or n is not None:
            if i == rows:
                cols = np.concatenate([cols, np.empty_like(cols)], axis=1)
                vecs = np.concatenate([vecs, np.empty_like(vecs)], axis=1)
                rows *= 2
            psi = 0.0
            if has_psi:
                q = x + dx if q is None else q
                psi = math.nan if psi2 is None else psi1(q) + psi2(q)
            cols[:, i] = t, h, lam, eps, bet, gam, math.sqrt(bx.dot(bx)), psi
            vecs[0, i], vecs[1, i] = x, dx
            if p is not None:
                vecs[2, i] = p
            i += 1
        if k == n:
            break
        x = x + h * dx
        if k % 64 == 0 or k + 1 == n:
            _check_state(x, k)
        t, k, h_req = t + h, k + 1, h_req * ratio
    times, hs, lam, eps, bet, gam, b1n, psi = cols[:, :i]
    return Trajectory(
        mode=mode, times=times, states=vecs[0, :i], step_sizes=hs,
        xdots=vecs[1, :i], b1_norms=b1n, psi_sums=psi if has_psi else None,
        aux_points=vecs[2, :i] if mode == "FBF" else None, lam=lam, eps=eps,
        beta=bet, gamma=gam, lips=prob.lipschitz_bound(eps, bet),
        n_steps_total=n, step_indices=np.unique(np.r_[0:n:every, n - 1, n]))


def integrate_fb(prob, sch, x0, spec):
    """Relaxed forward-backward marching; requires a cocoercive smooth part."""
    return _march("FB", prob, sch, x0, spec)


def integrate_fbf(prob, sch, x0, spec):
    """Forward-backward-forward marching; no cocoercivity needed for D."""
    return _march("FBF", prob, sch, x0, spec)


def integrate_sfbp(prob, sch, x0, spec):
    """Full-splitting marching with the second penalty inside the backward step.

    Records ||B1(x)|| and the penalty sum (psi1+psi2)(x + xdot) per stored
    step; x + xdot is exactly the resolvent output of the discrete scheme.
    """
    return _march("SFBP", prob, sch, x0, spec)


def ergodic_average(traj, sch):
    """lam-weighted time average of the stored trajectory (trapezoid rule)."""
    if traj.times.size == 0:
        raise ParameterError("trajectory is empty")
    if traj.times.size == 1:
        return traj.states[0].copy()
    lam = traj.lam
    t = traj.times
    num = np.trapezoid(lam[:, None] * traj.states, t, axis=0)
    den = float(np.trapezoid(lam, t))
    return num / den


@dataclass
class TrackingReport:
    """Gap-to-path diagnostics on a subgrid of the trajectory."""

    mode: str
    times: np.ndarray
    theta: np.ndarray
    burn_in_index: int
    final_gap: float
    inequality_residuals: np.ndarray
    inequality_nonpositive_fraction: float


def _match_indices(traj_times, path_times):
    idx = np.searchsorted(traj_times, path_times)
    idx = np.clip(idx, 0, traj_times.size - 1)
    out = []
    for i, tp in zip(idx, path_times):
        best = i
        if i > 0 and abs(traj_times[i - 1] - tp) < abs(traj_times[i] - tp):
            best = i - 1
        if abs(traj_times[best] - tp) > 1e-9 * max(1.0, abs(tp)):
            raise ParameterError(f"path time {tp:g} is not on the trajectory grid")
        out.append(best)
    return np.asarray(out, dtype=int)


def tracking_report(traj, path):
    """Compare a trajectory with central-path points sampled on its grid.

    Emits theta(t) = ||x - xbar||^2 / 2, the mode's differential inequality
    residual evaluated with the discrete derivative, the first index after
    which theta is nonincreasing (1e-8 slack), and the final gap.
    """
    if not path:
        raise ParameterError("path is empty")
    if any(p.t is None for p in path):
        raise ParameterError("path points need times attached")
    p_times = np.array([p.t for p in path], dtype=float)
    idx = _match_indices(traj.times, p_times)
    theta = np.empty(len(path))
    residuals = np.empty(len(path))
    for j, (i, pt) in enumerate(zip(idx, path)):
        x = traj.states[i]
        diff = x - pt.xbar
        theta[j] = 0.5 * float(diff @ diff)
        lam, eps, gam, lips = traj.lam[i], traj.eps[i], traj.gamma[i], traj.lips[i]
        xdot = traj.xdots[i]
        if traj.mode == "FBF" and traj.aux_points is not None:
            # <x - xbar, xdot> <= (lam L - 1)||x - p||^2 - lam eps ||p - xbar||^2
            p = traj.aux_points[i]
            lhs = float(diff @ xdot)
            rhs = ((lam * lips - 1.0) * float(np.sum((x - p) ** 2))
                   - lam * eps * float(np.sum((p - pt.xbar) ** 2)))
            residuals[j] = lhs - rhs
        else:
            # 2<xdot, x - xbar> <= gam lam eps (lam eps - 2) ||x - xbar||^2
            lhs = 2.0 * float(xdot @ diff)
            rhs = gam * lam * eps * (lam * eps - 2.0) * float(diff @ diff)
            residuals[j] = lhs - rhs
    burn_in = 0
    for j in range(len(theta) - 1):
        if theta[j + 1] > theta[j] + 1e-8 * max(1.0, theta[j]):
            burn_in = j + 1
    scale = 1.0 + theta
    frac = float(np.mean(residuals <= 1e-6 * scale))
    return TrackingReport(traj.mode, p_times, theta, burn_in,
                          math.sqrt(2.0 * theta[-1]), residuals, frac)
