"""Independent ground truth for small instances.

Two routes that never touch the path solvers or the integrators: exact
enumeration over the faces of the feasible box (affine D), and a
machine-tolerance extragradient iteration (any Lipschitz D with an exact
projector). Every reference value in the test suite comes from here.
"""

import itertools
import json
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConvergenceFailure, UnsupportedInstanceError

_KKT_TOL = 1e-10


@dataclass(frozen=True)
class SolutionCertificate:
    """Certified description of zer(A + D + N_C) for a small instance.

    kind is "singleton", "segment" or "faces"; boxes lists the certified
    components as (lo, hi) pairs (a point is a degenerate box).
    """

    kind: str
    boxes: List[tuple]
    least_norm_point: np.ndarray
    kkt_residual: float

    def distance_to(self, x):
        """Euclidean distance from x to the certified solution set."""
        x = np.asarray(x, dtype=float)
        best = math.inf
        for lo, hi in self.boxes:
            best = min(best, float(np.linalg.norm(x - np.clip(x, lo, hi))))
        return best

    def to_json(self):
        return json.dumps({
            "kind": self.kind,
            "boxes": [[list(lo), list(hi)] for lo, hi in self.boxes],
            "least_norm_point": list(self.least_norm_point),
            "kkt_residual": self.kkt_residual,
        }, sort_keys=True)


def _normal_cone_violation(nu, pattern, lo, hi):
    """Distance of nu from the box normal cone fixed by the activity pattern."""
    viol = 0.0
    for i, pat in enumerate(pattern):
        if lo[i] == hi[i]:
            continue  # pinned coordinate: the cone is the whole line
        if pat == 0:
            viol += nu[i] ** 2
        elif pat == -1:
            viol += max(nu[i], 0.0) ** 2
        else:
            viol += min(nu[i], 0.0) ** 2
    return math.sqrt(viol)


def _pattern_for(point, lo, hi, tol=1e-9):
    pat = []
    for i in range(point.size):
        if lo[i] == hi[i]:
            pat.append(-1)
        elif point[i] <= lo[i] + tol:
            pat.append(-1)
        elif point[i] >= hi[i] - tol:
            pat.append(1)
        else:
            pat.append(0)
    return tuple(pat)


def active_set_solve(prob):
    """Enumerate box faces and solve the affine stationarity system on each.

    Requires an affine D, a box-representable feasible set and dim <= 4.
    Certified components are faces on which -D lies in the normal cone; the
    zero inclusion is verified to 1e-10 on every representative point.
    """
    if prob.d.affine is None:
        raise UnsupportedInstanceError("exact face enumeration needs an affine D")
    if prob.dim > 4:
        raise UnsupportedInstanceError("face enumeration limited to dim <= 4")
    box = prob.feasible_box()
    if box is None:
        raise UnsupportedInstanceError("feasible set is not box-representable")
    lo, hi = box
    M, q = prob.d.affine
    M = np.atleast_2d(np.asarray(M, dtype=float))
    q = np.asarray(q, dtype=float).ravel()
    d = prob.dim

    options = []
    for i in range(d):
        if lo[i] == hi[i]:
            options.append((-1,))  # pinned
        else:
            opts = [0]
            if math.isfinite(lo[i]):
                opts.append(-1)
            if math.isfinite(hi[i]):
                opts.append(1)
            options.append(tuple(opts))

    certified_boxes = []
    certified_points = []
    worst_kkt = 0.0

    for pattern in itertools.product(*options):
        fixed = np.zeros(d)
        free = []
        for i, pat in enumerate(pattern):
            if lo[i] == hi[i]:
                fixed[i] = lo[i]
            elif pat == -1:
                fixed[i] = lo[i]
            elif pat == 1:
                fixed[i] = hi[i]
            else:
                free.append(i)
        free = np.asarray(free, dtype=int)
        pinned = np.asarray([i for i in range(d) if i not in free], dtype=int)

        if free.size == 0:
            candidates = [fixed.copy()]
            face_full = None
        else:
            a_ff = M[np.ix_(free, free)]
            rhs = -(q[free] + (M[np.ix_(free, pinned)] @ fixed[pinned]
                               if pinned.size else 0.0))
            sv = np.linalg.svd(a_ff, compute_uv=False) if free.size else np.array([])
            rank_ok = sv.size and sv[-1] > 1e-12 * max(1.0, sv[0])
            if rank_ok:
                xf = np.linalg.solve(a_ff, rhs)
                cand = fixed.copy()
                cand[free] = xf
                inside = all(lo[i] - 1e-12 <= cand[i] <= hi[i] + 1e-12 for i in free)
                candidates = [cand] if inside else []
                face_full = None
            else:
                xf, res, _, _ = np.linalg.lstsq(a_ff, rhs, rcond=None)
                consistent = np.linalg.norm(a_ff @ xf - rhs) <= 1e-10
                if not consistent:
                    continue
                if np.any(np.abs(a_ff) > 1e-12):
                    # its solutions need not reach a corner, so the corners
                    # below would give a partial certificate
                    raise UnsupportedInstanceError(
                        "a face where D is degenerate but not constant is not enumerated")
                # D constant on the face: the whole face may solve
                verts = []
                for corner in itertools.product(*[
                        [v for v in (lo[i], hi[i]) if math.isfinite(v)] or [0.0]
                        for i in free]):
                    cand = fixed.copy()
                    cand[free] = corner
                    verts.append(cand)
                face_lo = fixed.copy()
                face_hi = fixed.copy()
                face_lo[free] = lo[free]
                face_hi[free] = hi[free]
                face_full = (face_lo, face_hi)
                candidates = verts

        face_ok = face_full is not None
        for cand in candidates:
            nu = -(M @ cand + q)
            viol = _normal_cone_violation(nu, pattern, lo, hi)
            if viol <= _KKT_TOL:
                certified_points.append(cand)
                worst_kkt = max(worst_kkt, viol)
            else:
                face_ok = False
        if face_full is not None and face_ok and candidates:
            certified_boxes.append(face_full)

    # fold certified points into degenerate boxes, dropping covered ones
    for p in certified_points:
        covered = any(np.all(p >= blo - 1e-9) and np.all(p <= bhi + 1e-9)
                      for blo, bhi in certified_boxes)
        if not covered:
            dup = any(np.allclose(p, blo, atol=1e-9) and np.allclose(p, bhi, atol=1e-9)
                      for blo, bhi in certified_boxes)
            if not dup:
                certified_boxes.append((p.copy(), p.copy()))

    if not certified_boxes:
        raise UnsupportedInstanceError("no certified stationary point found")

    # least-norm point: clamp the origin into each certified box
    best = None
    for blo, bhi in certified_boxes:
        cand = np.clip(np.zeros(d), blo, bhi)
        if best is None or np.linalg.norm(cand) < np.linalg.norm(best):
            best = cand
    nu = -(M @ best + q)
    worst_kkt = max(worst_kkt,
                    _normal_cone_violation(nu, _pattern_for(best, lo, hi), lo, hi))

    if len(certified_boxes) == 1:
        blo, bhi = certified_boxes[0]
        extent = bhi - blo
        n_extended = int(np.sum(extent > 1e-12))
        if n_extended == 0:
            kind = "singleton"
        elif n_extended == 1:
            kind = "segment"
        else:
            kind = "faces"
    else:
        kind = "faces"
    return SolutionCertificate(kind, [(blo.copy(), bhi.copy())
                                      for blo, bhi in certified_boxes],
                               best, worst_kkt)


def high_precision_reference(prob, x0=None):
    """Extragradient iteration on D over the feasible box, run to machine tolerance.

    Works for any monotone Lipschitz D as long as the instance exposes an
    exact feasible projector (its box). Returns a point whose fixed-point
    residual under the extragradient map is at most 1e-12, found within
    10 000 000 iterations.
    """
    box = prob.feasible_box()
    if box is None:
        raise UnsupportedInstanceError("instance has no exact feasible projector")
    lo, hi = box
    d_eval = prob.d.eval
    lip = 1.0 / prob.d.eta
    tau = 1.0 if lip == 0 else 0.9 / lip
    x = np.zeros(prob.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    x = np.clip(x, lo, hi)
    res = math.inf
    for _ in range(10_000_000):
        y = np.clip(x - tau * d_eval(x), lo, hi)
        res = float(np.linalg.norm(x - y))
        if res <= 1e-12:
            return x
        x = np.clip(x - tau * d_eval(y), lo, hi)
    raise ConvergenceFailure("extragradient reference did not converge", residual=res)
