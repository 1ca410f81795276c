"""Canonical analytic test instances with known solution sets."""

import math

import numpy as np

from .errors import ParameterError
from .operators import box_normal_cone, zero_op
from .problem import LipschitzOperator, PenaltyOperator, ProblemInstance

_INF = math.inf

CANONICAL_NAMES = ("scalar", "segment", "shifted-segment", "skew-box",
                   "sfbp-two-penalty")


# The 1-D instances hold constants as 1-element arrays: numpy converts a Python
# scalar operand on every call, an array operand it takes as is
def _scalar():
    two, zero = np.array([2.0]), np.array([0.0])
    d = LipschitzOperator(eval=lambda x: x - two, eta=1.0, cocoercive=True,
                          affine=(np.array([[1.0]]), np.array([-2.0])))
    b1 = PenaltyOperator(eval=lambda x: np.maximum(x, zero), mu=1.0,
                         projector=lambda x: np.minimum(x, zero),
                         zero_set_box=(np.array([-_INF]), np.array([0.0])))
    return ProblemInstance(a=zero_op(1), d=d, b1=b1, dim=1, name="scalar",
                           x0_default=np.zeros(1))


def _segment(lo, hi, name):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mask = np.array([0.0, 1.0])
    d = LipschitzOperator(eval=lambda x: np.zeros_like(x), eta=_INF,
                          cocoercive=True,
                          affine=(np.zeros((2, 2)), np.zeros(2)))
    b1 = PenaltyOperator(eval=lambda x: x * mask, mu=1.0,
                         projector=lambda x: x * (1.0 - mask),
                         zero_set_box=(np.array([-_INF, 0.0]),
                                       np.array([_INF, 0.0])))
    return ProblemInstance(a=box_normal_cone(lo, hi, dim=2), d=d, b1=b1, dim=2,
                           name=name, x0_default=np.zeros(2))


def _skew_box():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    d = LipschitzOperator(eval=lambda x: m @ x, eta=1.0, cocoercive=False,
                          affine=(m, np.zeros(2)))
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    b1 = PenaltyOperator(eval=lambda x: x - x.clip(lo, hi), mu=1.0,
                         projector=lambda x: x.clip(lo, hi),
                         zero_set_box=(lo, hi))
    return ProblemInstance(a=zero_op(2), d=d, b1=b1, dim=2, name="skew-box",
                           x0_default=np.array([1.0, 1.0]))


def _sfbp_two_penalty():
    three, zero = np.array([3.0]), np.array([0.0])
    d = LipschitzOperator(eval=lambda x: x - three, eta=1.0, cocoercive=True,
                          affine=(np.array([[1.0]]), np.array([-3.0])))
    b1 = PenaltyOperator(eval=lambda x: np.maximum(x, zero), mu=1.0,
                         projector=lambda x: np.minimum(x, zero),
                         zero_set_box=(np.array([-_INF]), np.array([0.0])))
    b2 = box_normal_cone(np.array([-_INF]), np.array([1.0]), dim=1)

    def psi1(x):
        return 0.5 * float(np.add.reduce(np.maximum(x, zero) ** 2))

    def psi2(x):
        return 0.0 if (x <= 1.0 + 1e-9).all() else math.inf

    return ProblemInstance(a=zero_op(1), d=d, b1=b1, b2=b2, dim=1,
                           psi1=psi1, psi2=psi2, name="sfbp-two-penalty",
                           x0_default=np.zeros(1))


def build_canonical(name):
    """Build one of the named analytic instances.

    scalar            dim 1, zer = {0}
    segment           dim 2, zer = [0,2] x {0}
    shifted-segment   dim 2, zer = [1,2] x {0}
    skew-box          dim 2, rotational D (not cocoercive), zer = {(0,0)}
    sfbp-two-penalty  dim 1, two penalty potentials, zer = {0}
    """
    if name == "scalar":
        return _scalar()
    if name == "segment":
        return _segment([0.0, 0.0], [2.0, 2.0], "segment")
    if name == "shifted-segment":
        return _segment([1.0, 0.0], [2.0, 2.0], "shifted-segment")
    if name == "skew-box":
        return _skew_box()
    if name == "sfbp-two-penalty":
        return _sfbp_two_penalty()
    raise ParameterError(f"unknown canonical instance '{name}'")
