"""Monotone operators given through resolvent oracles (a custom oracle is a
plain ``MonotoneOperator(kind, resolvent_fn, ...)``), the pair-ball projection,
the norm behind every reported or guarded vector norm, and sampled certificates.

Every operator here is immutable after construction and all operations are
pure functions, so concurrent evaluation is safe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterError, require_int, require_range

_LAM_FLOOR = 1e-300  # below this the resolvent is treated as the identity limit


def as_vector(x, dim=None):
    """Validate and return ``x`` as a finite 1-D float array.

    Raises
    ------
    ParameterError
        If the array is empty, not 1-D after ravel, non-finite, or has the
        wrong length.
    """
    v = np.asarray(x, dtype=float).ravel()
    if v.size < 1:
        raise ParameterError("vector must have dimension >= 1")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ParameterError(f"vector has dimension {v.size}, expected {dim}")
    return v


_TINY = np.finfo(float).smallest_normal


def norm(v):
    """Euclidean norm of a contiguous 1-D float array as a Python float.

    Where the sum of squares is a finite normal float this is
    ``math.sqrt(np.add.reduce(v * v))``: numpy's pairwise sum of the rounded
    squares, whose order of additions depends on the length alone, so its bits
    are the same on every CPU and at any BLAS thread count, unlike a BLAS
    dot's. Otherwise squares of a nonzero vector may underflow to zero, or of
    a finite one overflow to inf, so ``v`` is first divided by its largest
    magnitude; an infinite entry gives inf and a NaN gives NaN.

    The oracle routes keep ``np.linalg.norm``: ``oracle.py``, the diagonal
    behind ``central_path.least_norm_solution``, the two path checks,
    ``imaging.gradient_norm_estimate`` and ``verify_certificate``. They judge
    the code that reports through this function, so they must not share it.
    """
    s = np.add.reduce(v * v)
    if _TINY <= s < math.inf:
        return math.sqrt(s)
    m = float(np.abs(v).max(initial=0.0))
    if not 0.0 < m < math.inf:  # zero, NaN or infinite
        return math.sqrt(s)
    w = v / m
    return m * math.sqrt(np.add.reduce(w * w))


def soft_threshold(x, tau):
    """Componentwise shrinkage sign(x) * max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def project_pair_ball(u, v, out=(None, None)):
    """Scale each pair (u_i, v_i) into the unit disc.

    Returns (u, v) / max(1, sqrt(u^2 + v^2)) componentwise, so every output
    pair has norm at most 1; ``out`` is an optional pair of arrays to write
    the two components into.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ParameterError("pair components must have the same shape")
    # an array even for 0-d input, where u * u would be a numpy scalar
    scale = np.multiply(u, u, out=np.empty_like(u))
    scale += v * v
    np.maximum(np.sqrt(scale, out=scale), 1.0, out=scale)
    return np.divide(u, scale, out=out[0]), np.divide(v, scale, out=out[1])


def require_finite(y, what):
    """``y`` as a float array; ConvergenceFailure when any entry is non-finite."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        finite = y[np.isfinite(y)]
        worst = float(np.max(np.abs(finite))) if finite.size else math.inf
        raise ConvergenceFailure(f"{what} produced non-finite output", residual=worst)
    return y


class MonotoneOperator:
    """Maximally monotone operator represented by its resolvent oracle.

    Parameters
    ----------
    kind : str
        Descriptor tag ("zero", "box", "l1", "inverse", "affine", or any other
        name for a custom oracle, such as the deblurring "box-disc").
    resolvent_fn : callable
        Map (lam, x) -> y with x - y in lam * op(y). The integrators pass lam
        as a 0-d float64 array, valid only during the call; ``resolvent``
        passes a float.
    eval_fn : callable, optional
        Pointwise evaluation when the operator is single-valued.
    dim : int, optional
        Ambient dimension (an integer >= 1) when the descriptor fixes one.
    params : dict, optional
        Descriptor data: a box's bounds ``lo`` and ``hi``, which the combined
        resolvent and ``ProblemInstance.feasible_box`` read.
    """

    __slots__ = ("kind", "_resolvent_fn", "eval", "dim", "params")

    def __init__(self, kind, resolvent_fn, eval_fn=None, dim=None, params=None):
        self.kind = kind
        self._resolvent_fn = resolvent_fn
        self.eval = eval_fn
        if dim is not None:
            require_int("dim", dim, 1)
        self.dim = dim
        self.params = dict(params or {})

    def resolvent(self, lam, x):
        """Evaluate (Id + lam*op)^{-1} at x.

        lam = 0 returns x (identity limit); negative lam is an error.
        """
        require_range("lam", lam, ">=", 0)
        x = np.asarray(x, dtype=float)
        if lam < _LAM_FLOOR:
            return x.copy()
        return require_finite(self._resolvent_fn(float(lam), x),
                              f"resolvent oracle for '{self.kind}'")

    def __repr__(self):
        return f"MonotoneOperator(kind={self.kind!r}, dim={self.dim})"


def yosida_eval(op, lam, x):
    """Yosida regularization (x - resolvent(lam, x)) / lam."""
    require_range("lam", lam, ">", 0)
    x = as_vector(x, op.dim)
    return (x - op.resolvent(lam, x)) / lam


def zero_op(dim=None):
    """The zero operator; its resolvent is the identity."""
    return MonotoneOperator("zero", lambda lam, x: x.copy(),
                            eval_fn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                            dim=dim)


def box_clamp(lo, hi):
    """The map x -> x.clip(lo, hi), bitwise, for float arrays lo <= hi.

    A lower side unbounded in every coordinate is left out: ``np.minimum``
    returns the same bytes as ``clip`` and skips numpy's Python wrapper around
    it, about half of a clamp's cost on a short vector.
    """
    lo, hi = np.broadcast_arrays(lo, hi)  # the output shape clip would give
    if np.all(lo == -math.inf):
        return lambda x: np.minimum(x, hi)
    return lambda x: x.clip(lo, hi)


def box_normal_cone(lo, hi, dim=None):
    """Normal cone of the box [lo, hi]; resolvent is the clamp, for any lam.

    Bounds with more than one entry fix the dimension, and a ``dim`` given too
    must equal it; scalar and 1-element bounds broadcast to any ``dim``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    require_range("lo", lo, "<=", hi)
    n = np.broadcast(lo, hi).size
    if n > 1:
        if dim is not None and dim != n:
            raise ParameterError(f"dim must equal the {n} entries of the bounds, got {dim}")
        dim = n
    clamp = box_clamp(lo, hi)
    return MonotoneOperator("box", lambda lam, x: clamp(x),
                            dim=dim, params={"lo": lo, "hi": hi})


def l1_subgradient(weight=1.0, dim=None):
    """Subdifferential of weight * ||.||_1; resolvent is soft thresholding."""
    require_range("weight", weight, ">=", 0)
    w = float(weight)
    return MonotoneOperator("l1", lambda lam, x: soft_threshold(x, lam * w), dim=dim)


def inverse_op(inner):
    """The inverse operator, via the Moreau identity.

    resolvent(lam, x) = x - lam * inner.resolvent(1/lam, x/lam).
    """
    def _res(lam, x):
        return x - lam * inner.resolvent(1.0 / lam, x / lam)

    return MonotoneOperator("inverse", _res, dim=inner.dim)


def affine_op(M, q=None):
    """The affine operator x -> M x + q with M + M^T positive semidefinite.

    The resolvent solves (I + lam*M) y = x - lam*q directly.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = M.shape[0]
    if M.shape != (n, n) or not np.isfinite(M).all():
        raise ParameterError("affine operator needs a finite square matrix")
    q = np.zeros(n) if q is None else as_vector(q, n)
    sym_eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    require_range("affine operator is not monotone: least eigenvalue of (M + M^T)/2",
                  sym_eigs.min(), ">=", -1e-10 * max(1.0, abs(sym_eigs).max()))
    eye = np.eye(n)

    def _res(lam, x):
        return np.linalg.solve(eye + lam * M, x - lam * q)

    return MonotoneOperator("affine", _res, eval_fn=lambda x: M @ x + q, dim=n)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of sampling one of the defining operator inequalities."""

    kind: str
    modulus: float | None
    samples: int
    seed: int
    worst_violation: float
    passed: bool
    threshold: float

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"certificate[{self.kind}] {status}: worst normalized violation "
                f"{self.worst_violation:.3e} over {self.samples} pairs (seed {self.seed})")


def _sample_pairs(rng, dim, samples):
    # Gaussian pairs rescaled to radii {0.1, 1, 10}; deterministic given the seed.
    radii = np.array([0.1, 1.0, 10.0])
    for k in range(samples):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        r = radii[k % 3]
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        if nx > 0:
            x *= r / nx
        if ny > 0:
            y *= r / ny
        yield x, y


def verify_certificate(op, kind, modulus=None, samples=1000, seed=0, dim=None):
    """Sample a defining inequality of an operator class and report the worst violation.

    Parameters
    ----------
    op : MonotoneOperator or object with .eval or plain callable
        For kind "firmly-nonexpansive-resolvent" a MonotoneOperator is required;
        the other kinds sample a single-valued map.
    kind : {"monotone", "lipschitz", "cocoercive", "firmly-nonexpansive-resolvent"}
    modulus : float, optional
        Lipschitz constant for "lipschitz", cocoercivity modulus for "cocoercive".
    samples : int
        Number of sampled pairs (>= 1).
    seed : int
        Seed of the sampling distribution, recorded in the report.
    dim : int, optional
        Ambient dimension; defaults to op.dim.

    Violations are normalized by 1 + ||x|| + ||y||; the report passes iff the
    worst normalized violation is at most 1e-9 (1e-10 for the resolvent check).
    """
    require_int("samples", samples, 1)
    d = dim if dim is not None else getattr(op, "dim", None)
    require_int("dim", d, 1)  # None when the operator fixes no dimension
    rng = np.random.default_rng(seed)
    if kind == "firmly-nonexpansive-resolvent":
        if not isinstance(op, MonotoneOperator):
            raise ParameterError("resolvent certificate needs a MonotoneOperator")
        modulus, threshold, lams = None, 1e-10, (0.1, 1.0, 10.0)

        def gap(k, x, y):
            lam = lams[(k // 3) % 3]  # nine samples pair each radius with each lam
            dj = op.resolvent(lam, x) - op.resolvent(lam, y)
            return float(dj @ dj - dj @ (x - y))
    else:
        fn = op.eval if getattr(op, "eval", None) is not None else op
        if not callable(fn):
            raise ParameterError("operator has no pointwise evaluation")
        if kind not in ("monotone", "lipschitz", "cocoercive"):
            raise ParameterError(f"unknown certificate kind '{kind}'")
        if kind != "monotone" and modulus is None:
            raise ParameterError(f"{kind} certificate needs a modulus")
        threshold = 1e-9

        def gap(k, x, y):
            df, dx = fn(x) - fn(y), x - y
            if kind == "monotone":
                return -float(df @ dx)
            if kind == "lipschitz":
                return float(np.linalg.norm(df) - modulus * np.linalg.norm(dx))
            return float(modulus * (df @ df) - df @ dx)
    worst = 0.0
    for k, (x, y) in enumerate(_sample_pairs(rng, d, samples)):
        worst = max(worst, gap(k, x, y) / (1.0 + np.linalg.norm(x) + np.linalg.norm(y)))
    return CertificateReport(kind, modulus, samples, seed, float(worst),
                             bool(worst <= threshold), threshold)
