"""Problem data: the operator triple/quadruple defining a constrained inclusion."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, PreconditionError, require_int, require_range
from .operators import MonotoneOperator, box_clamp


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
        require_range("eta", self.eta, ">", 0)


@dataclass(frozen=True)
class PenaltyOperator:
    """Cocoercive penalty operator whose zero set encodes a constraint.

    Parameters
    ----------
    eval : callable
    mu : float
        Cocoercivity modulus; inf when the operator vanishes identically.
    zero_set_box : tuple (lo, hi), optional
        Box description of zer(B) for the small-instance solver.
    """

    eval: Callable
    mu: float
    zero_set_box: Optional[tuple] = None

    def __post_init__(self):
        require_range("mu", self.mu, ">", 0)


@dataclass(frozen=True)
class ProblemInstance:
    """Operator data (A, D, B1[, B2]) on R^dim.

    B2, when present, is the subgradient of a second penalty potential and is
    handled inside the backward step. psi1/psi2, given together with B2 and
    only with it, supply the two potential values for diagnostics: each maps
    an array of points, shape (..., dim), to their values, shape (...); the
    full-splitting integrator calls them once, on the (n, dim) stack of stored
    resolvent points.
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
        require_int("dim", self.dim, 1)
        for name, op in (("A", self.a), ("B2", self.b2)):
            if op is not None and op.dim is not None and op.dim != self.dim:
                raise ParameterError(f"{name} has dimension {op.dim}, the instance {self.dim}")
        has_b2 = self.b2 is not None
        if (self.psi1 is not None) != has_b2 or (self.psi2 is not None) != has_b2:
            raise ParameterError("psi1 and psi2 are given with B2 and only with it")

    def vfield(self, eps, beta, x):
        """The regularized field D(x) + eps*x + beta*B1(x)."""
        return self.d.eval(x) + eps * x + beta * self.b1.eval(x)

    def lipschitz_bound(self, eps, beta):
        """Lipschitz modulus 1/eta + eps + beta/mu of the regularized field."""
        return 1.0 / self.d.eta + eps + beta / self.b1.mu

    def shifted_resolvent_fn(self):
        """Specialized (lam, beta, x) -> y closure for the combined resolvent.

        Composed for A = 0 only, where it is the resolvent of lam*beta*B2 (the
        clamp itself for a box B2), and built once per march; raises
        PreconditionError for every other pair.
        """
        if self.b2 is None:
            raise PreconditionError("instance has no second penalty operator")
        a, b2 = self.a, self.b2
        if a.kind == "zero" and b2.kind == "box":
            # the box clamp takes no parameter; call it without the wrapper below
            clamp = box_clamp(b2.params["lo"], b2.params["hi"])
            return lambda lam, beta, x: clamp(x)
        if a.kind == "zero":
            fn = b2._resolvent_fn
            return lambda lam, beta, x: fn(lam * beta, x)
        raise PreconditionError(
            f"no combined resolvent for descriptor pair ({a.kind}, {b2.kind})")

    def feasible_box(self):
        """Box description of the effective feasible set, when reconstructible.

        Intersects the box behind A (if A is a box normal cone), zer(B1) and
        argmin of the second potential (if B2 is a box normal cone). Returns
        (lo, hi) arrays or None.
        """
        a, b2 = self.a, self.b2
        if (a.kind not in ("box", "zero") or self.b1.zero_set_box is None
                or (b2 is not None and b2.kind != "box")):
            return None
        boxes = [self.b1.zero_set_box]
        if a.kind == "box":
            boxes.insert(0, (a.params["lo"], a.params["hi"]))
        if b2 is not None:
            boxes.append((b2.params["lo"], b2.params["hi"]))
        los, his = [], []
        for lo, hi in boxes:
            los.append(np.broadcast_to(np.asarray(lo, dtype=float), (self.dim,)))
            his.append(np.broadcast_to(np.asarray(hi, dtype=float), (self.dim,)))
        lo = np.max(np.stack(los), axis=0)
        hi = np.min(np.stack(his), axis=0)
        if np.any(lo > hi):
            return None
        return lo, hi
