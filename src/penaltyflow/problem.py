"""Problem data: the operator triple/quadruple defining a constrained inclusion."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, PreconditionError
from .operators import MonotoneOperator, require_finite


@dataclass(frozen=True)
class LipschitzOperator:
    """Single-valued monotone map with a known Lipschitz bound.

    Parameters
    ----------
    eval : callable
        Pointwise evaluation x -> D(x).
    eta : float
        Inverse of the Lipschitz constant (D is (1/eta)-Lipschitz). May be inf
        when D is constant.
    cocoercive : bool
        True when D is additionally eta-cocoercive.
    affine : tuple (M, q), optional
        Matrix form when D is affine; enables the exact small-instance solver.
    """

    eval: Callable
    eta: float
    cocoercive: bool = False
    affine: Optional[tuple] = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ParameterError("eta must be positive")


@dataclass(frozen=True)
class PenaltyOperator:
    """Cocoercive penalty operator whose zero set encodes a constraint.

    Parameters
    ----------
    eval : callable
    mu : float
        Cocoercivity modulus; inf when the operator vanishes identically.
    projector : callable, optional
        Exact projection onto zer(B) when available.
    zero_set_box : tuple (lo, hi), optional
        Box description of zer(B) for the small-instance solver.
    """

    eval: Callable
    mu: float
    projector: Optional[Callable] = None
    zero_set_box: Optional[tuple] = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ParameterError("mu must be positive")


@dataclass(frozen=True)
class ProblemInstance:
    """Operator data (A, D, B1[, B2]) on R^dim.

    B2, when present, is the subgradient of a second penalty potential and is
    handled inside the backward step; psi1/psi2 supply potential values for
    diagnostics.
    """

    a: MonotoneOperator
    d: LipschitzOperator
    b1: PenaltyOperator
    dim: int
    b2: Optional[MonotoneOperator] = None
    psi1: Optional[Callable] = None
    psi2: Optional[Callable] = None
    name: str = ""
    x0_default: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.b2 is not None and (self.psi1 is None or self.psi2 is None):
            raise ParameterError("two-penalty instances must carry psi1 and psi2 values")

    def vfield(self, eps, beta, x):
        """The regularized field D(x) + eps*x + beta*B1(x)."""
        return self.d.eval(x) + eps * x + beta * self.b1.eval(x)

    def lipschitz_bound(self, eps, beta):
        """Lipschitz modulus 1/eta + eps + beta/mu of the regularized field."""
        return 1.0 / self.d.eta + eps + beta / self.b1.mu

    def resolvent_shifted(self, lam, beta, x):
        """Resolvent of lam * (A + beta*B2) at x (validated entry point).

        Rejects negative parameters and raises ConvergenceFailure on
        non-finite output.
        """
        fn = self.shifted_resolvent_fn()
        if lam < 0 or beta < 0:
            raise ParameterError("resolvent parameters must be nonnegative")
        return require_finite(fn(lam, beta, np.asarray(x, dtype=float)),
                              "combined resolvent")

    def shifted_resolvent_fn(self):
        """Specialized (lam, beta, x) -> y closure for the combined resolvent.

        Composes the resolvent at the descriptor level and hoists the
        descriptor dispatch out of integration loops; raises PreconditionError
        for pairs it cannot compose exactly.
        """
        if self.b2 is None:
            raise PreconditionError("instance has no second penalty operator")
        a, b2 = self.a, self.b2
        if a.kind == "zero" and b2.kind == "box":
            # the box clamp takes no parameter; call it without the wrappers below
            lo, hi = b2.params["lo"], b2.params["hi"]
            return lambda lam, beta, x: x.clip(lo, hi)
        if a.kind == "zero":
            fn = b2._resolvent_fn
            return lambda lam, beta, x: fn(lam * beta, x)
        if b2.kind == "zero":
            fn = a._resolvent_fn
            return lambda lam, beta, x: fn(lam, x)
        if a.kind == "box" and b2.kind == "box":
            # normal cones of overlapping boxes add up to the cone of the intersection
            lo = np.maximum(a.params["lo"], b2.params["lo"])
            hi = np.minimum(a.params["hi"], b2.params["hi"])
            if np.any(lo > hi):
                raise PreconditionError("box constraints of A and B2 do not intersect")
            return lambda lam, beta, x: x.clip(lo, hi)
        if a.kind == "affine" and b2.kind == "affine":
            ma, qa = a.params["M"], a.params["q"]
            mb, qb = b2.params["M"], b2.params["q"]
            eye = np.eye(ma.shape[0])
            return lambda lam, beta, x: np.linalg.solve(
                eye + lam * (ma + beta * mb), x - lam * (qa + beta * qb))
        raise PreconditionError(
            f"no combined resolvent for descriptor pair ({a.kind}, {b2.kind})")

    def feasible_box(self):
        """Box description of the effective feasible set, when reconstructible.

        Intersects the box behind A (if A is a box normal cone), zer(B1) and
        argmin of the second potential (if B2 is a box normal cone). Returns
        (lo, hi) arrays or None.
        """
        los, his = [], []
        if self.a.kind == "box":
            los.append(np.broadcast_to(self.a.params["lo"], (self.dim,)).astype(float))
            his.append(np.broadcast_to(self.a.params["hi"], (self.dim,)).astype(float))
        elif self.a.kind != "zero":
            return None
        if self.b1.zero_set_box is None:
            return None
        lo1, hi1 = self.b1.zero_set_box
        los.append(np.broadcast_to(np.asarray(lo1, dtype=float), (self.dim,)).astype(float))
        his.append(np.broadcast_to(np.asarray(hi1, dtype=float), (self.dim,)).astype(float))
        if self.b2 is not None:
            if self.b2.kind != "box":
                return None
            los.append(np.broadcast_to(self.b2.params["lo"], (self.dim,)).astype(float))
            his.append(np.broadcast_to(self.b2.params["hi"], (self.dim,)).astype(float))
        lo = np.max(np.stack(los), axis=0)
        hi = np.min(np.stack(his), axis=0)
        if np.any(lo > hi):
            return None
        return lo, hi
