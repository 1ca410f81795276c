import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.errors import ConvergenceFailure, ParameterError, PreconditionError
from penaltyflow.problem import LipschitzOperator, PenaltyOperator, ProblemInstance


def _two_penalty(a, b2):
    """D = 0 and B1 = 0 around the given A and B2 pair."""
    zero = lambda x: np.zeros_like(x)
    return ProblemInstance(a=a, d=LipschitzOperator(eval=zero, eta=np.inf),
                           b1=PenaltyOperator(eval=zero, mu=np.inf), b2=b2,
                           dim=b2.dim or a.dim, psi1=zero, psi2=zero)


class TestCanonicalInstances:
    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            pf.build_canonical("mystery")

    def test_scalar_penalty_is_cocoercive(self):
        prob = pf.build_canonical("scalar")
        rep = pf.verify_certificate(prob.b1, "cocoercive", modulus=1.0,
                                    samples=1000, seed=0, dim=1)
        assert rep.passed

    def test_skew_d_fails_cocoercivity_passes_lipschitz(self):
        prob = pf.build_canonical("skew-box")
        assert not prob.d.cocoercive
        fail = pf.verify_certificate(prob.d, "cocoercive", modulus=1.0,
                                     samples=500, seed=0, dim=2)
        assert not fail.passed
        ok = pf.verify_certificate(prob.d, "lipschitz", modulus=1.0,
                                   samples=500, seed=0, dim=2)
        assert ok.passed

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_penalty_vanishes_on_projected_points(self, name):
        prob = pf.build_canonical(name)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(prob.dim) * 4
            p = prob.b1.projector(x)
            assert np.linalg.norm(prob.b1.eval(p)) <= 1e-12

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_monotone_certificates(self, name):
        prob = pf.build_canonical(name)
        rep = pf.verify_certificate(prob.d, "monotone", samples=300, seed=2,
                                    dim=prob.dim)
        assert rep.passed
        rep = pf.verify_certificate(prob.b1, "cocoercive", modulus=prob.b1.mu,
                                    samples=300, seed=2, dim=prob.dim)
        assert rep.passed

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES + ("deblur-8",))
    def test_default_start_has_instance_dimension(self, name):
        if name == "deblur-8":
            inst = pf.build_tv_deblur(pf.make_test_image("disk", 8),
                                      kernel_size=3, sigma=1.0)
            prob = inst.problem
            # the observed image, then zero dual blocks
            assert np.array_equal(inst.x0, np.concatenate(
                [inst.observed.ravel(), np.zeros(128)]))
        else:
            prob = pf.build_canonical(name)
        assert prob.x0_default.shape == (prob.dim,)

    def test_two_penalty_potentials(self):
        prob = pf.build_canonical("sfbp-two-penalty")
        assert prob.psi1(np.array([2.0])) == pytest.approx(2.0)
        assert prob.psi1(np.array([-1.0])) == 0.0
        assert prob.psi2(np.array([0.5])) == 0.0
        assert prob.psi2(np.array([1.5])) == np.inf
        # potentials are nonnegative with minimum 0
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(1) * 3
            assert prob.psi1(x) >= 0.0

    def test_combined_resolvent_is_projection(self):
        prob = pf.build_canonical("sfbp-two-penalty")
        for beta in (0.5, 7.0, 1e4):
            out = prob.resolvent_shifted(0.3, beta, np.array([4.0]))
            assert out[0] == pytest.approx(1.0)  # clamp above at 1
            out = prob.resolvent_shifted(0.3, beta, np.array([-2.0]))
            assert out[0] == pytest.approx(-2.0)

    def test_combined_resolvent_requires_b2(self):
        prob = pf.build_canonical("scalar")
        with pytest.raises(PreconditionError):
            prob.resolvent_shifted(0.3, 1.0, np.array([0.0]))
        with pytest.raises(PreconditionError):
            prob.shifted_resolvent_fn()

    @pytest.mark.parametrize("a, b2, x, expected", [
        # zero A: the resolvent of lam*beta*B2, here a projection
        (pf.zero_op(2), pf.box_normal_cone(-1.0, 1.0, dim=2), [3.0, -0.5], [1.0, -0.5]),
        # zero B2: the resolvent of lam*A
        (pf.l1_subgradient(1.0, dim=2), pf.zero_op(2), [3.0, -0.5], [2.7, -0.2]),
        # two boxes: projection onto their intersection
        (pf.box_normal_cone(0.0, 2.0, dim=2), pf.box_normal_cone(-1.0, 1.0, dim=2),
         [3.0, -0.5], [1.0, 0.0]),
        # two affine maps: (I + lam (M1 + beta M2)) y = x - lam (q1 + beta q2)
        (pf.affine_op(np.eye(2), [1.0, 0.0]), pf.affine_op(2.0 * np.eye(2), [0.0, 1.0]),
         [3.0, -0.5], [(3.0 - 0.3) / 2.5, (-0.5 - 0.6) / 2.5]),
    ])
    def test_combined_resolvent_pairs(self, a, b2, x, expected):
        prob = _two_penalty(a, b2)
        fn = prob.shifted_resolvent_fn()
        x = np.array(x)
        out = prob.resolvent_shifted(0.3, 2.0, x)
        assert np.array_equal(out, fn(0.3, 2.0, x))
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
           bounds=st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0)),
           lam=st.floats(1e-6, 1e3), beta=st.floats(1e-6, 1e6))
    def test_zero_box_resolvent_is_the_box_resolvent(self, x, bounds, lam, beta):
        lo, width = bounds
        dim = len(x)
        b2 = pf.box_normal_cone(np.full(dim, lo), np.full(dim, lo + width), dim=dim)
        prob = _two_penalty(pf.zero_op(dim), b2)
        x = np.array(x)
        want = b2.resolvent(lam * beta, x)
        assert np.array_equal(prob.shifted_resolvent_fn()(lam, beta, x), want)
        assert np.array_equal(prob.resolvent_shifted(lam, beta, x), want)

    @pytest.mark.parametrize("a, b2", [
        (pf.l1_subgradient(1.0, dim=1), pf.box_normal_cone(-1.0, 1.0, dim=1)),
        (pf.box_normal_cone(2.0, 3.0, dim=1), pf.box_normal_cone(-1.0, 1.0, dim=1)),
    ])
    def test_combined_resolvent_rejects_pair(self, a, b2):
        prob = _two_penalty(a, b2)
        with pytest.raises(PreconditionError):
            prob.shifted_resolvent_fn()
        with pytest.raises(PreconditionError):
            prob.resolvent_shifted(0.3, 1.0, np.array([0.0]))

    def test_combined_resolvent_is_validated(self):
        prob = pf.build_canonical("sfbp-two-penalty")
        for lam, beta in ((-0.1, 1.0), (0.3, -1.0)):
            with pytest.raises(ParameterError):
                prob.resolvent_shifted(lam, beta, np.array([0.0]))
        with pytest.raises(ConvergenceFailure):
            prob.resolvent_shifted(0.3, 1.0, np.array([np.nan]))

    def test_feasible_boxes(self):
        prob = pf.build_canonical("segment")
        lo, hi = prob.feasible_box()
        assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [2.0, 0.0])
        prob = pf.build_canonical("sfbp-two-penalty")
        lo, hi = prob.feasible_box()
        assert lo[0] == -np.inf and hi[0] == 0.0

    def test_lipschitz_bound_formula(self):
        prob = pf.build_canonical("scalar")
        assert prob.lipschitz_bound(1.0, 1.0) == pytest.approx(3.0)
        seg = pf.build_canonical("segment")
        assert seg.lipschitz_bound(0.5, 2.0) == pytest.approx(2.5)  # 1/eta = 0
