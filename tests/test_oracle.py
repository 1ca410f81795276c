import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.errors import UnsupportedInstanceError
from penaltyflow.problem import LipschitzOperator, PenaltyOperator, ProblemInstance

DATA = os.path.join(os.path.dirname(__file__), "data")


def _sample_graph_points(prob, n_samples=100, seed=0, radius=5.0):
    """Seeded samples (u, w) from the graph of A + D + N_C on a box instance.

    u is drawn in the feasible box; w adds D(u) and random normal-cone
    directions at the active coordinates of the A-box and of zer(B1).
    """
    rng = np.random.default_rng(seed)
    box = prob.feasible_box()
    if box is None:
        raise UnsupportedInstanceError("graph sampling needs a box instance")
    lo, hi = box

    cones = []
    if prob.a.kind == "box":
        cones.append((np.broadcast_to(prob.a.params["lo"], (prob.dim,)),
                      np.broadcast_to(prob.a.params["hi"], (prob.dim,))))
    if prob.b1.zero_set_box is not None:
        blo, bhi = prob.b1.zero_set_box
        cones.append((np.broadcast_to(np.asarray(blo, dtype=float), (prob.dim,)),
                      np.broadcast_to(np.asarray(bhi, dtype=float), (prob.dim,))))

    samples = []
    for _ in range(n_samples):
        u = np.clip(rng.standard_normal(prob.dim) * radius, lo, hi)
        w = prob.d.eval(u).astype(float).copy()
        for clo, chi in cones:
            for i in range(prob.dim):
                mag = abs(rng.standard_normal()) * radius
                if clo[i] == chi[i]:
                    w[i] += rng.standard_normal() * radius  # pinned: full line
                elif u[i] <= clo[i] + 1e-12 and math.isfinite(clo[i]):
                    w[i] -= mag
                elif u[i] >= chi[i] - 1e-12 and math.isfinite(chi[i]):
                    w[i] += mag
        samples.append((u, w))
    return samples


def _box_instance(diag, q, lo, hi, name="generated"):
    """A = 0, D x = diag(diag) x + q, and a penalty B1 whose zero set is the
    box [lo, hi]."""
    m, q = np.diag(np.asarray(diag, dtype=float)), np.asarray(q, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    top = float(np.max(diag))
    d = LipschitzOperator(eval=lambda x: m @ x + q, eta=1.0 / top if top else math.inf,
                          cocoercive=True, affine=(m, q))
    b1 = PenaltyOperator(eval=lambda x: x - x.clip(lo, hi), mu=1.0,
                         zero_set_box=(lo, hi))
    return ProblemInstance(a=pf.zero_op(q.size), d=d, b1=b1, dim=q.size, name=name)


def _degenerate_face_instance():
    """A = 0, D x = diag(0, 0, 0.624) x + (0, 0, -0.293) and zer(B1) = [-1, 1]^3.

    The solution set is the square [-1, 1]^2 x {0.293 / 0.624}, and its
    least-norm point (0, 0, 0.4696) is no corner of the box.
    """
    return _box_instance([0.0, 0.0, 0.624], [0.0, 0.0, -0.293], -np.ones(3), np.ones(3),
                         name="degenerate-face")


@st.composite
def _generated_instances(draw):
    """A _box_instance of dimension <= 3 with some diagonal entries 0. Where
    an entry is 0, q's entry is 0 or at least 0.05 in size: 0 leaves D
    constant along that edge of the box, and a smaller size would keep the
    extragradient reference creeping towards the bound."""
    dim = draw(st.integers(1, 3))
    diag = draw(st.lists(st.just(0.0) | st.floats(0.05, 2.0), min_size=dim, max_size=dim))
    q = [draw(st.floats(-1.0, 1.0) if m else
              st.just(0.0) | st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)) for m in diag]
    lo = np.array(draw(st.lists(st.floats(-2.0, 0.5), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=dim, max_size=dim)))
    return _box_instance(diag, q, lo, lo + width)


class TestActiveSetSolve:
    def test_scalar_singleton(self):
        cert = pf.active_set_solve(pf.build_canonical("scalar"))
        assert cert.kind == "singleton"
        assert np.allclose(cert.least_norm_point, [0.0])
        assert cert.kkt_residual <= 1e-10

    def test_segment_face(self):
        cert = pf.active_set_solve(pf.build_canonical("segment"))
        assert cert.kind == "segment"
        assert np.allclose(cert.least_norm_point, [0.0, 0.0])
        (lo, hi), = cert.boxes
        assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [2.0, 0.0])

    def test_shifted_segment(self):
        cert = pf.active_set_solve(pf.build_canonical("shifted-segment"))
        assert cert.kind == "segment"
        assert np.allclose(cert.least_norm_point, [1.0, 0.0])

    def test_skew_box_origin(self):
        cert = pf.active_set_solve(pf.build_canonical("skew-box"))
        assert cert.kind == "singleton"
        assert np.allclose(cert.least_norm_point, [0.0, 0.0], atol=1e-12)

    def test_two_penalty_instance(self):
        cert = pf.active_set_solve(pf.build_canonical("sfbp-two-penalty"))
        assert cert.kind == "singleton"
        assert np.allclose(cert.least_norm_point, [0.0])

    def test_distance_to_set(self):
        cert = pf.active_set_solve(pf.build_canonical("segment"))
        assert cert.distance_to(np.array([1.0, 0.0])) <= 1e-12
        assert cert.distance_to(np.array([3.0, 0.0])) == pytest.approx(1.0)
        assert cert.distance_to(np.array([1.0, 2.0])) == pytest.approx(2.0)

    def test_degenerate_face_rejected(self):
        # D's block on the full face is singular but not zero: enumerating
        # only the face's corners would certify (-1, -1, 0.4696) as least-norm
        prob = _degenerate_face_instance()
        ref = pf.high_precision_reference(prob)
        assert np.linalg.norm(ref - [0.0, 0.0, 0.293 / 0.624]) <= 1e-11
        with pytest.raises(UnsupportedInstanceError, match="degenerate"):
            pf.active_set_solve(prob)

    def test_nonaffine_rejected(self):
        base = pf.build_canonical("scalar")
        d = LipschitzOperator(eval=lambda x: np.tanh(x), eta=1.0, cocoercive=True)
        prob = ProblemInstance(a=base.a, d=d, b1=base.b1, dim=1)
        with pytest.raises(UnsupportedInstanceError):
            pf.active_set_solve(prob)

    def test_missing_projector_rejected(self):
        base = pf.build_canonical("scalar")
        b1 = PenaltyOperator(eval=base.b1.eval, mu=1.0)
        prob = ProblemInstance(a=base.a, d=base.d, b1=b1, dim=1)
        with pytest.raises(UnsupportedInstanceError):
            pf.active_set_solve(prob)
        with pytest.raises(UnsupportedInstanceError):
            pf.high_precision_reference(prob)

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_golden_certificates(self, name):
        cert = pf.active_set_solve(pf.build_canonical(name))
        with open(os.path.join(DATA, f"certificate_{name}.json")) as fh:
            golden = json.load(fh)
        assert json.loads(cert.to_json()) == golden


@settings(max_examples=40, deadline=None)
@given(prob=_generated_instances())
def test_generated_instances_routes_agree(prob):
    """The two oracle routes agree wherever enumeration certifies: it either
    rejects a degenerate face or its solution set holds the reference point."""
    try:
        cert = pf.active_set_solve(prob)
    except UnsupportedInstanceError as exc:
        assert "degenerate" in str(exc)
        return
    assert cert.distance_to(pf.high_precision_reference(prob)) <= 1e-9


class TestHighPrecisionReference:
    def test_skew_box(self):
        prob = pf.build_canonical("skew-box")
        ref = pf.high_precision_reference(prob, x0=np.array([0.7, -0.4]))
        assert np.linalg.norm(ref) <= 1e-11

    def test_scalar(self):
        ref = pf.high_precision_reference(pf.build_canonical("scalar"))
        assert abs(ref[0]) <= 1e-11

    def test_segment_from_far_start(self):
        prob = pf.build_canonical("segment")
        cert = pf.active_set_solve(prob)
        ref = pf.high_precision_reference(prob, x0=np.array([5.0, 5.0]))
        assert cert.distance_to(ref) <= 1e-11

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_agreement_with_enumeration(self, name):
        prob = pf.build_canonical(name)
        cert = pf.active_set_solve(prob)
        ref = pf.high_precision_reference(prob)
        assert cert.distance_to(ref) <= 1e-9


class TestCertificateSoundness:
    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_variational_characterization(self, name):
        # for p in zer and any (u, w) in the graph, <u - p, w> >= 0
        prob = pf.build_canonical(name)
        cert = pf.active_set_solve(prob)
        p = cert.least_norm_point
        for u, w in _sample_graph_points(prob, n_samples=100, seed=3):
            assert float((u - p) @ w) >= -1e-10
