"""The reference march: what integrate_fb, integrate_fbf and integrate_sfbp
compute, bit for bit, from public names alone and written to be read, not to
be fast. The spec's first step requests spec.h and each later one the
previous request times spec.ratio, up to spec.T. Tests import it
(``test_march_equals_reference``); pytest does not collect it.
``reference_steps`` also returns each sample's step direction dx and FBF's
point p, which the Trajectory does not store."""

import math

import numpy as np

import penaltyflow as pf
from penaltyflow.operators import norm


def _cap(mode, spec, lam, gam, lips):
    """FB and FBF: the Lipschitz cap; FB: gam*h <= 1; SFBP: h <= 1."""
    cap = math.inf
    if mode != "SFBP":
        cap = spec.safety_factor / (gam * (2.0 + lam * lips) if mode == "FB"
                                    else 2.0 + 2.0 * lam * lips)
    return {"FB": min(1.0 / gam, cap), "FBF": cap, "SFBP": 1.0}[mode]


def reference_march(mode, prob, sch, x0, spec):
    """The Trajectory of ``mode`` ("FB", "FBF" or "SFBP") on ``prob``."""
    return reference_steps(mode, prob, sch, x0, spec)[0]


def reference_steps(mode, prob, sch, x0, spec):
    """(Trajectory, dx per sample, p per sample or None) of ``reference_march``."""
    h_req, T = spec.h, spec.T
    x, t, k, last, rows = np.array(x0, dtype=float), 0.0, 0, None, []
    while True:
        lam, eps, bet, gam = (float(f(t)) for f in (sch.lam, sch.eps, sch.beta, sch.gamma))
        if last is None:
            h = min(h_req, _cap(mode, spec, lam, gam, prob.lipschitz_bound(eps, bet)), T - t)
            if t + h >= T - 1e-12 or k + 1 == spec.max_steps:
                last = k + 1
        v, p = prob.vfield(eps, bet, x), None
        if mode == "SFBP":
            q = prob.shifted_resolvent_fn()(lam, bet, x - lam * v)
            dx = q - x
        else:
            p = prob.a.resolvent(lam, x - lam * v)
            dx = gam * (p - x) if mode == "FB" else p - x + lam * (v - prob.vfield(eps, bet, p))
            q = x + dx
        if k % spec.store_every == 0 or last is not None:
            rows.append((t, h, lam, eps, bet, gam, norm(prob.b1.eval(x)), k, x, dx, p, q))
        if k == last:
            break
        x = x + h * dx
        t, k, h_req = t + h, k + 1, h_req * spec.ratio
    t, h, lam, eps, bet, gam, b1n, ks, xs, dxs, ps, qs = map(np.array, zip(*rows))
    psi = None if prob.psi1 is None else prob.psi1(qs) + prob.psi2(qs)
    fbf = mode == "FBF"
    traj = pf.Trajectory(
        mode=mode, times=t, states=xs, step_sizes=h, b1_norms=b1n, psi_sums=psi,
        p_norms=np.array([norm(p) for p in ps]) if fbf else None, lam=lam, eps=eps,
        beta=bet, gamma=gam, n_steps_total=last, step_indices=ks.astype(np.intp))
    return traj, dxs, ps if fbf else None
