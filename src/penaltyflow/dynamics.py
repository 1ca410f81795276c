"""Explicit Euler integrators for the three splitting flows and their diagnostics.

The discrete schemes are

  FB    X+ = (1 - gamma*h) X + gamma*h * J_{lam A}(X - lam V(X))
  FBF   P  = J_{lam A}(X - lam V(X));  X+ = X + h (P - X + lam (V(X) - V(P)))
  SFBP  X+ = (1 - h) X + h * J_{lam (A + beta B2)}(X - lam V(X))

with V(x) = D(x) + eps*x + beta*B1(x) evaluated on the schedule. All three
share one marching loop, ``_march``; a mode only supplies its step cap
``cap(t)`` and its step map ``step``, which returns the update direction dx of
X+ = X + h*dx. FB and FBF steps are capped by the local Lipschitz bound of the
vector field unless the caller disables it (needed when a test pins an exact
recursion); FB keeps gamma*h <= 1 and SFBP keeps h <= 1 regardless, so that
X+ stays a convex combination.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, ParameterError, PreconditionError
from .operators import as_vector
from .schedules import _eval_grid

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
    max_steps, when set, truncates the run after that many steps.
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
        g = self.grid
        if isinstance(g, UniformGrid):
            if g.h <= 0 or g.T <= 0:
                raise ParameterError("grid needs h > 0 and T > 0")
        elif isinstance(g, GeometricGrid):
            if g.h0 <= 0 or g.T <= 0 or g.ratio < 1.0:
                raise ParameterError("geometric grid needs h0 > 0, T > 0, ratio >= 1")
        else:
            raise ParameterError("grid must be UniformGrid or GeometricGrid")


@dataclass
class Trajectory:
    """Stored samples of one integration run.

    States are kept every ``store_every`` steps plus the last two (the state
    before the final step and the final state); ``step_indices`` holds the
    step number of each sample and parallel arrays hold schedule values, the
    step vector field (xdots) and per-step diagnostics at those samples.
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
    def xdot_norms(self):
        return np.linalg.norm(self.xdots, axis=1)

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self):
        return float(self.times[-1])


def _build_grid(spec, cap_fn):
    """Times and steps honoring the requested grid, the cap and max_steps."""
    g = spec.grid
    if isinstance(g, UniformGrid):
        h_req = lambda t, h=g.h: h
    else:
        state = {"h": g.h0}

        def h_req(t, state=state, ratio=g.ratio):
            h = state["h"]
            state["h"] = h * ratio
            return h

    T = g.T
    max_steps = spec.max_steps if spec.max_steps is not None else 50_000_000
    ts = [0.0]
    hs = []
    t = 0.0
    while t < T - 1e-12 and len(hs) < max_steps:
        h = min(h_req(t), cap_fn(t), T - t)
        if h <= 0:
            raise ParameterError("step size collapsed to zero")
        hs.append(h)
        t += h
        ts.append(t)
    if not hs:
        raise ParameterError("empty time grid")
    return np.asarray(ts), np.asarray(hs)


def _check_state(x, k):
    nx = float(np.linalg.norm(x))
    if not math.isfinite(nx) or nx > _BLOWUP:
        raise DivergenceError(f"state norm {nx:.3e} exceeded {_BLOWUP:g} at step {k}",
                              step_index=k, norm=nx)


def _psi_at(prob, point):
    if prob.psi1 is None or prob.psi2 is None:
        return math.nan
    return prob.psi1(point) + prob.psi2(point)


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


def _kernel(mode, prob, sch, spec):
    """The mode's step cap, its step map and its backward-step resolvents.

    ``step(res, x, v, lam, eps, beta, gam)`` returns the update direction dx,
    the auxiliary point (FBF only) and the point the penalty sum is taken at
    (None for x + dx, which is then formed only for stored samples).
    ``res`` is the fast resolvent on every step and the validated one (which
    rejects non-finite output) on the final sample.
    """
    d_eval, b_eval = prob.d.eval, prob.b1.eval

    def lips(t):
        return prob.lipschitz_bound(float(sch.eps(t)), float(sch.beta(t)))

    if mode == "SFBP":
        def cap(t):
            # x+ stays a convex combination of x and the resolvent point for h <= 1
            return 1.0

        def step(res, x, v, lam, eps, bet, gam):
            j = res(lam, bet, x - lam * v)
            return j - x, None, j

        return cap, step, prob.shifted_resolvent_fn(), prob.resolvent_shifted

    if mode == "FB":
        def cap(t):
            gam = float(sch.gamma(t))
            h_relax = 1.0 / gam  # keeps the relaxation a convex combination
            if not spec.cap_steps:
                return h_relax
            return min(h_relax, spec.safety_factor
                       / (gam * (2.0 + float(sch.lam(t)) * lips(t))))

        def step(res, x, v, lam, eps, bet, gam):
            return gam * (res(lam, x - lam * v) - x), None, None
    else:
        def cap(t):
            if not spec.cap_steps:
                return math.inf
            return spec.safety_factor / (2.0 + 2.0 * float(sch.lam(t)) * lips(t))

        def step(res, x, v, lam, eps, bet, gam):
            p = res(lam, x - lam * v)
            vp = d_eval(p) + eps * p + bet * b_eval(p)
            return p - x + lam * (v - vp), p, None

    return cap, step, prob.a._resolvent_fn, prob.a.resolvent


def _march(mode, prob, sch, x0, spec):
    """The one marching loop behind integrate_fb, integrate_fbf and integrate_sfbp.

    Step k samples the state at times[k]; its last iteration (k = n) takes no
    step and records the final state with a freshly evaluated field.
    """
    check_mode(mode, prob)
    x = as_vector(x0, prob.dim).copy()
    cap, step, res, res_checked = _kernel(mode, prob, sch, spec)
    times, hs = _build_grid(spec, cap)
    n = len(hs)
    # vectorized over the steps; the final sample takes scalar values
    eps_a, beta_a, lam_a, gam_a = (
        np.append(_eval_grid(f, times[:-1]), float(f(times[-1])))
        for f in (sch.eps, sch.beta, sch.lam, sch.gamma))
    every = spec.store_every
    picks = np.unique(np.r_[0:n:every, n - 1, n])
    m, dim = picks.size, prob.dim
    states, xdots, b1n = np.empty((m, dim)), np.empty((m, dim)), np.empty(m)
    psi = None if prob.psi1 is None else np.empty(m)
    aux = np.empty((m, dim)) if mode == "FBF" else None
    d_eval, b_eval = prob.d.eval, prob.b1.eval
    i = 0
    for k in range(n + 1):
        if k == n:
            res = res_checked
        lam = lam_a[k]; eps = eps_a[k]; bet = beta_a[k]
        bx = b_eval(x)
        v = d_eval(x) + eps * x + bet * bx
        dx, p, q = step(res, x, v, lam, eps, bet, gam_a[k])
        if k % every == 0 or k >= n - 1:
            states[i] = x
            xdots[i] = dx
            b1n[i] = float(np.linalg.norm(bx))
            if psi is not None:
                psi[i] = _psi_at(prob, x + dx if q is None else q)
            if aux is not None:
                aux[i] = p
            i += 1
        if k < n:
            x = x + hs[k] * dx
            if k % 64 == 0 or k == n - 1:
                _check_state(x, k)
    return Trajectory(
        mode=mode, times=times[picks], states=states,
        step_sizes=hs[np.minimum(picks, n - 1)], xdots=xdots, b1_norms=b1n,
        psi_sums=psi, aux_points=aux, lam=lam_a[picks], eps=eps_a[picks],
        beta=beta_a[picks], gamma=gam_a[picks],
        lips=prob.lipschitz_bound(eps_a[picks], beta_a[picks]),
        n_steps_total=n, step_indices=picks)


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
