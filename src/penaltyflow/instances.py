"""Canonical analytic test instances with known solution sets."""

import math

import numpy as np

from .errors import ParameterError
from .operators import box_normal_cone, zero_op
from .problem import LipschitzOperator, PenaltyOperator, ProblemInstance

_INF = math.inf


# The 1-D instances hold constants as 1-element arrays: numpy converts a Python
# scalar operand on every call, an array operand it takes as is
def _half_line(c, name, **second_penalty):
    """D(x) = x - c and B1(x) = max(x, 0) on the line, A = 0, with any B2, psi1
    and psi2 given."""
    shift, zero = np.array([c]), np.array([0.0])
    d = LipschitzOperator(eval=lambda x: x - shift, eta=1.0, cocoercive=True,
                          affine=(np.array([[1.0]]), -shift))
    b1 = PenaltyOperator(eval=lambda x: np.maximum(x, zero), mu=1.0,
                         zero_set_box=(np.array([-_INF]), np.array([0.0])))
    return ProblemInstance(a=zero_op(1), d=d, b1=b1, dim=1, name=name,
                           x0_default=np.zeros(1), **second_penalty)


def _segment(lo, hi, name):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mask = np.array([0.0, 1.0])
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=_INF,
                          cocoercive=True,
                          affine=(np.zeros((2, 2)), np.zeros(2)))
    b1 = PenaltyOperator(eval=lambda x: x * mask, mu=1.0,
                         zero_set_box=(np.array([-_INF, 0.0]),
                                       np.array([_INF, 0.0])))
    return ProblemInstance(a=box_normal_cone(lo, hi, dim=2), d=d, b1=b1, dim=2,
                           name=name, x0_default=np.zeros(2))


def _skew_box():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # x.dot(m.T) rounds as m @ x here, row by row on a (B, 2) stack too, and
    # skips the matmul gufunc's per-call cost; affine_op keeps @, since for a
    # 1x1 M and x = [-0.0], M @ x is [+0.0] but M.dot(x) is [-0.0]
    mt = np.ascontiguousarray(m.T)
    d = LipschitzOperator(eval=lambda x: x.dot(mt), eta=1.0, cocoercive=False,
                          affine=(m, np.zeros(2)))
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    b1 = PenaltyOperator(eval=lambda x: x - x.clip(lo, hi), mu=1.0,
                         zero_set_box=(lo, hi))
    return ProblemInstance(a=zero_op(2), d=d, b1=b1, dim=2, name="skew-box",
                           x0_default=np.array([1.0, 1.0]))


# values at each point x[..., :] of a stack, bitwise the one-point values
def _psi1(x):
    return 0.5 * np.add.reduce(np.maximum(x, 0.0) ** 2, axis=-1)


def _psi2(x):
    return np.where((x <= 1.0 + 1e-9).all(axis=-1), 0.0, math.inf)


_BUILDERS = {
    "scalar": lambda: _half_line(2.0, "scalar"),
    "segment": lambda: _segment([0.0, 0.0], [2.0, 2.0], "segment"),
    "shifted-segment": lambda: _segment([1.0, 0.0], [2.0, 2.0], "shifted-segment"),
    "skew-box": _skew_box,
    "sfbp-two-penalty": lambda: _half_line(
        3.0, "sfbp-two-penalty", b2=box_normal_cone(np.array([-_INF]), np.array([1.0]), dim=1),
        psi1=_psi1, psi2=_psi2),
}
CANONICAL_NAMES = tuple(_BUILDERS)


def build_canonical(name):
    """Build one of the named analytic instances.

    scalar            dim 1, zer = {0}
    segment           dim 2, zer = [0,2] x {0}
    shifted-segment   dim 2, zer = [1,2] x {0}
    skew-box          dim 2, rotational D (not cocoercive), zer = {(0,0)}
    sfbp-two-penalty  dim 1, two penalty potentials, zer = {0}
    """
    if not isinstance(name, str) or name not in _BUILDERS:
        raise ParameterError(f"unknown canonical instance '{name}'")
    return _BUILDERS[name]()
