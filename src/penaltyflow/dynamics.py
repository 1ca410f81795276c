"""Explicit Euler integrators for the three splitting flows and their diagnostics.

The discrete schemes are, written in the association the code rounds in,

  FB    J  = J_{lam A}(X - lam V(X));  X+ = X + h*(gamma*(J - X))
  FBF   P  = J_{lam A}(X - lam V(X));  X+ = X + h*(P - X + lam*(V(X) - V(P)))
  SFBP  J  = J_{lam (A + beta B2)}(X - lam V(X));  X+ = X + h*(J - X)

with V(x) = D(x) + eps*x + beta*B1(x) evaluated on the schedule. The relaxed
forms (1 - gamma*h) X + gamma*h*J and (1 - h) X + h*J are the same maps but
round differently; tests/reference_march.py states the march bit for bit.

All three share one marching loop, ``_march``, which builds the time grid as
it goes: each step evaluates the schedule once at the current time, sizes the
step from those values and takes it with the same values. A mode only supplies
its step cap ``cap(lam, eps, beta, gamma)`` and its step map ``step``, which
forms V(X) and returns the update direction dx of X+ = X + h*dx. The FBF step
map writes its full-length arithmetic into four arrays it allocates once, when
it is built, and rounds exactly as the formula above; its dx lives there, and
its P may be the array it handed the oracle, so both hold only until the next
call (the march and tracking_report use them at once). No step map writes into
X, B1(X), the array it hands the oracle or an array an operator or oracle
returned. So at image scale the step allocates no full-length array of its
own, and glibc no longer trims and regrows its heap under a dozen freed
temporaries a step. The FBF step's sums write into one of their own inputs,
which on the 98 KB arrays of a 64x64 deblurring instance runs about twice as
fast as writing a third array, and at dimension 2 as fast; the state update
X + h*dx allocates its result instead, since numpy runs an update into its own
input about 2.3 times as slowly on a shape-(1,) array, as every 1-D step
would. Step maps, and the raw oracles they call, get lam, eps, beta and gamma
as 0-d float64 arrays that the loop rewrites each step, so they are valid only
during the call: numpy converts a Python float operand on every ufunc call but
takes a 0-d array as is, and at dimension 1-2 that conversion is a large share
of a step. For the same reason a step of exactly h = 1 forms X + dx, bitwise
X + 1.0*dx. The recorder stores states, not step vectors, appending each
sample to growable byte buffers: X and the schedule values, FBF's |P| as one
more scalar, and SFBP's J, as only SFBP carries the penalty potentials and the
loop evaluates psi1 + psi2 once, on the stack of stored J, after the march.
tracking_report recomputes dx and P at a sample with the same step map. FB
and FBF steps are capped by the local Lipschitz bound of the vector field
scaled by the safety factor, which for FB is at most safety/(2*gamma), so
gamma*h <= 1/2; SFBP keeps h <= 1.
Either way X+ stays a convex combination of X and the resolvent point.
Each mode calls one backward-step oracle on every step, and the loop checks
the final dx once for non-finite entries (ConvergenceFailure).
"""

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DivergenceError, ParameterError, PreconditionError, require_int,
                     require_range)
from .operators import as_vector, norm, require_finite

_BLOWUP = 1e12
# a stored sample's scalars: t, h, lam, eps, beta, gamma, |B1(x)|, k, and
# FBF's |p| (0.0 in the other modes)
_SAMPLE = struct.Struct("9d")


@dataclass(frozen=True)
class IntegratorSpec:
    """How to march: requested steps, horizon, stability cap, storage thinning.

    The first step requests h and each later step the previous request times
    ratio (1 for a uniform grid); the march ends at the finite horizon T.
    safety_factor scales the Lipschitz step cap of FB and FBF, which always
    applies; SFBP steps are bounded by h <= 1 alone.
    max_steps, when set, truncates the run after that many (>= 1) steps;
    unset, T alone ends the run, however many steps the cap makes.
    """

    h: float
    T: float
    ratio: float = 1.0
    safety_factor: float = 0.5
    store_every: int = 1
    max_steps: Optional[int] = None

    def __post_init__(self):
        require_range("safety_factor", self.safety_factor, ">", 0, "<=", 1)
        require_int("store_every", self.store_every, 1)
        if self.max_steps is not None:
            require_int("max_steps", self.max_steps, 1)
        require_range("grid h", self.h, ">", 0)
        require_range("grid ratio", self.ratio, ">=", 1, "<", math.inf)
        # T must exceed the 1e-12 that the march stops short of it, and be
        # finite, or the march never ends
        require_range("grid T", self.T, ">", 1e-12, "<", math.inf)


@dataclass
class Trajectory:
    """Stored samples of one integration run.

    States are kept every ``store_every`` steps plus the last two (the state
    before the final step and the final state); ``step_indices`` holds the
    step number of each sample and parallel arrays hold the schedule values
    the step at each sample used and per-step diagnostics at those samples.
    ``p_norms`` holds ||p|| of the FBF step's point p and ``psi_sums`` the
    SFBP penalty sum (psi1 + psi2)(j) at the step's resolvent output j; each
    is None in the other modes. No step vector is stored: a step is a
    function of the stored state and schedule values, and tracking_report
    recomputes it where it needs it.
    """

    mode: str
    times: np.ndarray
    states: np.ndarray
    step_sizes: np.ndarray
    b1_norms: np.ndarray
    psi_sums: Optional[np.ndarray]
    p_norms: Optional[np.ndarray]
    lam: np.ndarray
    eps: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    n_steps_total: int
    step_indices: np.ndarray

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self):
        return float(self.times[-1])


def _check_state(x, k):
    nx = norm(x)
    if not math.isfinite(nx) or nx > _BLOWUP:
        what = (f"norm {nx:.3e} exceeded {_BLOWUP:g}" if np.isfinite(x).all()
                else "is not finite")
        raise DivergenceError(f"state {what} at step {k}", step_index=k, norm=nx)


def check_mode(mode, prob):
    """Raise PreconditionError unless ``mode`` can integrate ``prob``."""
    if mode == "FB" and not prob.d.cocoercive:
        raise PreconditionError("FB mode needs a cocoercive smooth part; "
                                f"instance '{prob.name}' is not")
    if mode == "SFBP":
        if prob.b2 is None:
            raise PreconditionError("SFBP mode needs a two-penalty instance")
        prob.shifted_resolvent_fn()  # raises unless (A, B2) has a combined resolvent
    elif prob.b2 is not None:
        raise PreconditionError(f"{mode} mode cannot handle a second penalty; "
                                "use SFBP")


def _cap(mode, prob, safety):
    """The mode's step cap ``cap(lam, eps, beta, gam)``, which bounds the step
    from the schedule values, as floats, that the step itself uses."""
    lips = prob.lipschitz_bound
    if mode == "SFBP":
        def cap(lam, eps, bet, gam):
            # x+ stays a convex combination of x and the resolvent point for h <= 1
            return 1.0
    elif mode == "FB":
        def cap(lam, eps, bet, gam):
            # at most safety/(2*gam), so the relaxation gam*h <= 1 never binds
            return safety / (gam * (2.0 + lam * lips(eps, bet)))
    else:
        def cap(lam, eps, bet, gam):
            return safety / (2.0 + 2.0 * lam * lips(eps, bet))
    return cap


def _step_map(mode, prob):
    """The mode's step map, shared by the march and tracking_report.

    ``step(x, bx, lam, eps, beta, gam)`` forms the field V(x) from
    bx = B1(x) and returns the update direction dx and the step's second
    point y: FBF's p, SFBP's resolvent output j, None for FB. ``step`` closes
    over the mode's one backward-step oracle: the raw oracle of A, or the
    combined resolvent of A + beta*B2 built once here. It and its oracle get
    the schedule values as 0-d float64 arrays valid only during the call (see
    the module docstring). FBF fills four arrays of length ``prob.dim``,
    allocated here once per step map: its returned dx is one of them, and its
    p is the oracle's output, which may be the array the oracle was handed,
    so both hold until the next call. No step map writes into ``x``, ``bx``,
    the array it hands to the oracle or anything an operator or oracle
    returned.
    """
    d_eval, b_eval = prob.d.eval, prob.b1.eval
    res = prob.shifted_resolvent_fn() if mode == "SFBP" else prob.a._resolvent_fn
    if mode == "SFBP":
        def step(x, bx, lam, eps, bet, gam):
            v = d_eval(x) + eps * x + bet * bx
            j = res(lam, bet, x - lam * v)
            return j - x, j
    elif mode == "FB":
        def step(x, bx, lam, eps, bet, gam):
            v = d_eval(x) + eps * x + bet * bx
            return gam * (res(lam, x - lam * v) - x), None
    else:
        # each ufunc writes its third argument, which numpy parses faster than
        # out=; q is what the oracle gets, and nothing writes it after that
        mul, add, sub = np.multiply, np.add, np.subtract
        v, q, vp, dx = np.empty((4, prob.dim))

        def step(x, bx, lam, eps, bet, gam):
            # dx = (p - x) + (v - vp)*lam with v = (eps*x + D(x)) + beta*B1(x),
            # and vp the same field at p; a + b == b + a bitwise, so each sum
            # may start from the product it owns, but (vp - v) * -lam would
            # turn the +0.0 of v == vp into -0.0
            add(mul(eps, x, v), d_eval(x), v)
            add(v, mul(bet, bx, dx), v)
            p = res(lam, sub(x, mul(lam, v, q), q))
            add(mul(eps, p, vp), d_eval(p), vp)
            add(vp, mul(bet, b_eval(p), dx), vp)
            mul(sub(v, vp, vp), lam, vp)
            return add(sub(p, x, dx), vp, dx), p
    return step


def _march(mode, prob, sch, x0, spec):
    """The one marching loop behind integrate_fb, integrate_fbf and integrate_sfbp.

    Iteration k evaluates the schedule once at the current time t, sizes the
    step h = min(requested, cap, T - t) from those values and steps with the
    same values. The iteration after the last step (k = n) takes no step and
    records the final state with a freshly evaluated field. Each stored
    sample appends its scalars, x and SFBP's j to byte buffers that grow as
    they fill, so max_steps only ends the run; after the march the scalars
    become columns and the SFBP potentials of the stored resolvent points are
    taken, in one call each.
    """
    check_mode(mode, prob)
    x = as_vector(x0, prob.dim).copy()
    cap, step = _cap(mode, prob, spec.safety_factor), _step_map(mode, prob)
    h_req, ratio, T, every = spec.h, spec.ratio, spec.T, spec.store_every
    t_end = T - 1e-12
    max_steps = spec.max_steps
    fbf, sfbp = mode == "FBF", mode == "SFBP"
    # each stored sample appends its _SAMPLE record, x and SFBP's j
    recs, xs, js = bytearray(), bytearray(), bytearray()
    pack, b_eval, at = _SAMPLE.pack, prob.b1.eval, sch.at
    # lam, eps, beta, gamma for the step map and h for x + h*dx, as 0-d views
    # of one buffer rewritten each step; cap and the recorder keep the floats
    vals = np.empty(5)
    zlam, zeps, zbet, zgam, zh = (vals[j, ...] for j in range(5))
    t, k, n = 0.0, 0, None
    while True:
        lam, eps, bet, gam = at(t)
        if n is None:
            h = min(h_req, cap(lam, eps, bet, gam), T - t)
            if h <= 0:  # an infinite beta or lam makes the cap 0
                raise ParameterError("step size collapsed to zero")
            if t + h >= t_end or k + 1 == max_steps:
                n = k + 1  # this is the last step
            vals[4] = h
        vals[0], vals[1], vals[2], vals[3] = lam, eps, bet, gam
        bx = b_eval(x)
        dx, y = step(x, bx, zlam, zeps, zbet, zgam)
        if k % every == 0 or n is not None:
            recs += pack(t, h, lam, eps, bet, gam, norm(bx), k, norm(y) if fbf else 0.0)
            xs += x.tobytes()
            if sfbp:
                js += np.asarray(y, dtype=float).tobytes()
        if k == n:
            require_finite(dx, "final step")
            break
        # 1.0*dx is dx bit for bit, and SFBP on a unit grid steps by 1.0
        x = x + dx if h == 1.0 else x + zh * dx
        if k % 64 == 0 or k + 1 == n:
            _check_state(x, k)
        t, k, h_req = t + h, k + 1, h_req * ratio
    # one contiguous column per field
    times, hs, lam, eps, bet, gam, b1n, ks, pn = np.frombuffer(recs).reshape(-1, 9).T.copy()
    states = np.frombuffer(xs).reshape(times.size, prob.dim)
    psi = None
    if sfbp:  # check_mode and ProblemInstance ensure B2, psi1 and psi2
        js = np.frombuffer(js).reshape(states.shape)
        psi = prob.psi1(js) + prob.psi2(js)
        if np.shape(psi) != times.shape:
            raise ParameterError(f"psi1 + psi2 on a {js.shape} stack must have "
                                 f"shape {times.shape}, got {np.shape(psi)}")
    return Trajectory(
        mode=mode, times=times, states=states, step_sizes=hs, b1_norms=b1n,
        psi_sums=psi, p_norms=pn if fbf else None, lam=lam, eps=eps,
        beta=bet, gamma=gam, n_steps_total=n, step_indices=ks.astype(np.intp))


def integrate_fb(prob, sch, x0, spec):
    """Relaxed forward-backward marching; requires a cocoercive smooth part."""
    return _march("FB", prob, sch, x0, spec)


def integrate_fbf(prob, sch, x0, spec):
    """Forward-backward-forward marching; no cocoercivity needed for D."""
    return _march("FBF", prob, sch, x0, spec)


def integrate_sfbp(prob, sch, x0, spec):
    """Full-splitting marching with the second penalty inside the backward step.

    Records ||B1(x)|| per stored step and the penalty sum (psi1+psi2)(j) at
    the step's resolvent output j; the potentials are evaluated once, on the
    stack of stored j, after the march.
    """
    return _march("SFBP", prob, sch, x0, spec)


def ergodic_average(traj):
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
    gaps: np.ndarray
    burn_in_index: int
    inequality_residuals: np.ndarray
    inequality_nonpositive_fraction: float

    @property
    def final_gap(self):
        return float(self.gaps[-1])


def tracking_report(prob, traj, path):
    """Compare a trajectory of ``prob`` with central-path points sampled on its grid.

    Each path time must be a stored time, bit for bit. Emits theta(t) =
    ||x - xbar||^2 / 2, the gap ||x - xbar||, the mode's differential inequality
    residual evaluated with the discrete derivative, and the first index after
    which theta is nonincreasing (1e-8 slack). At each path point it
    recomputes the step, dx and FBF's p, with the march's own step map from
    the stored x and schedule values, which gives the march's bits; L is
    prob.lipschitz_bound at the stored eps and beta.
    """
    if not path:
        raise ParameterError("path is empty")
    if any(p.t is None for p in path):
        raise ParameterError("path points need times attached")
    p_times = np.array([p.t for p in path], dtype=float)
    idx = np.minimum(np.searchsorted(traj.times, p_times), traj.times.size - 1)
    off = traj.times[idx] != p_times
    if off.any():
        raise ParameterError(f"path time {p_times[off][0]:.17g} is not on the trajectory grid")
    step, b_eval = _step_map(traj.mode, prob), prob.b1.eval
    lips = prob.lipschitz_bound(traj.eps, traj.beta)
    theta = np.empty(len(path))
    gaps = np.empty(len(path))
    residuals = np.empty(len(path))
    for j, (i, pt) in enumerate(zip(idx, path)):
        x = traj.states[i]
        diff = x - pt.xbar
        theta[j] = 0.5 * float(diff @ diff)
        gaps[j] = norm(diff)
        # 0-d views of the sample's schedule values, as the march passes them
        lam, eps, bet, gam = (a[i, ...] for a in (traj.lam, traj.eps, traj.beta, traj.gamma))
        xdot, p = step(x, b_eval(x), lam, eps, bet, gam)
        if traj.mode == "FBF":
            # <x - xbar, xdot> <= (lam L - 1)||x - p||^2 - lam eps ||p - xbar||^2
            lhs = float(diff @ xdot)
            rhs = ((lam * lips[i] - 1.0) * float(np.sum((x - p) ** 2))
                   - lam * eps * float(np.sum((p - pt.xbar) ** 2)))
            residuals[j] = lhs - rhs
        else:
            # 2<xdot, x - xbar> <= gam lam eps (lam eps - 2) ||x - xbar||^2;
            # the SFBP step takes no relaxation, so gam reads 1 there
            lhs = 2.0 * float(xdot @ diff)
            relax = gam if traj.mode == "FB" else 1.0
            rhs = relax * lam * eps * (lam * eps - 2.0) * float(diff @ diff)
            residuals[j] = lhs - rhs
    burn_in = 0
    for j in range(len(theta) - 1):
        if theta[j + 1] > theta[j] + 1e-8 * max(1.0, theta[j]):
            burn_in = j + 1
    scale = 1.0 + theta
    frac = float(np.mean(residuals <= 1e-6 * scale))
    return TrackingReport(traj.mode, p_times, theta, gaps, burn_in, residuals, frac)
