import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.dynamics import check_mode
from penaltyflow.errors import ParameterError, PreconditionError
from penaltyflow.problem import LipschitzOperator, PenaltyOperator, ProblemInstance


# the expected value of a pair whose combined resolvent is rejected
_REJECTED = object()


def _two_penalty(a, b2):
    """D = 0 and B1 = 0 around the given A and B2 pair."""
    zero = lambda x: np.zeros_like(x)
    no_potential = lambda x: np.zeros(x.shape[:-1])
    return ProblemInstance(a=a, d=LipschitzOperator(eval=zero, eta=np.inf),
                           b1=PenaltyOperator(eval=zero, mu=np.inf), b2=b2,
                           dim=b2.dim or a.dim, psi1=no_potential, psi2=no_potential)


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

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308]),
        st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=2),
        min_size=1, max_size=4))
    def test_skew_field_has_the_bits_of_matmul(self, rows):
        prob = pf.build_canonical("skew-box")
        m = prob.d.affine[0]
        want = [(m @ x).tobytes() for x in np.array(rows)]
        assert [prob.d.eval(x).tobytes() for x in np.array(rows)] == want
        # a (B, 2) stack maps row by row
        assert prob.d.eval(np.array(rows)).tobytes() == b"".join(want)

    @pytest.mark.parametrize("name", pf.CANONICAL_NAMES)
    def test_penalty_vanishes_on_projected_points(self, name):
        prob = pf.build_canonical(name)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(prob.dim) * 4
            p = np.clip(x, *prob.b1.zero_set_box)
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

    @pytest.mark.parametrize("changes", [
        {"psi1": None}, {"psi2": None}, {"psi1": None, "psi2": None},
        {"b2": None, "psi2": None}, {"b2": None, "psi1": None}, {"b2": None}],
        ids=["B2-without-psi1", "B2-without-psi2", "B2-without-potentials",
             "psi1-without-B2", "psi2-without-B2", "potentials-without-B2"])
    def test_potentials_come_with_b2_and_only_with_it(self, changes):
        prob = pf.build_canonical("sfbp-two-penalty")
        with pytest.raises(ParameterError, match="^psi1 and psi2 are given with B2 "
                                                 "and only with it$"):
            dataclasses.replace(prob, **changes)

    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.5,
                         math.inf, -math.inf, math.nan]),
        st.floats(-1e150, 1e150)), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_stacked_potentials_equal_per_point_values(self, values):
        prob = pf.build_canonical("sfbp-two-penalty")
        zero = np.array([0.0])

        def psi1_point(x):  # the per-point potentials the stacked ones replace
            return 0.5 * float(np.add.reduce(np.maximum(x, zero) ** 2))

        def psi2_point(x):
            return 0.0 if (x <= 1.0 + 1e-9).all() else math.inf

        stack = np.array(values)[:, None]
        want1 = np.array([psi1_point(x) for x in stack])
        want2 = np.array([psi2_point(x) for x in stack])
        got1, got2 = prob.psi1(stack), prob.psi2(stack)
        assert got1.shape == got2.shape == (len(values),)
        assert got1.tobytes() == want1.tobytes()
        assert got2.tobytes() == want2.tobytes()
        assert (got1 + got2).tobytes() == np.array(
            [psi1_point(x) + psi2_point(x) for x in stack]).tobytes()

    def test_combined_resolvent_is_projection(self):
        fn = pf.build_canonical("sfbp-two-penalty").shifted_resolvent_fn()
        for beta in (0.5, 7.0, 1e4):
            out = fn(0.3, beta, np.array([4.0]))
            assert out[0] == pytest.approx(1.0)  # clamp above at 1
            out = fn(0.3, beta, np.array([-2.0]))
            assert out[0] == pytest.approx(-2.0)

    def test_combined_resolvent_requires_b2(self):
        with pytest.raises(PreconditionError):
            pf.build_canonical("scalar").shifted_resolvent_fn()

    @pytest.mark.parametrize("a, b2, x, expected", [
        # zero A: the resolvent of lam*beta*B2, here a projection
        (pf.zero_op(2), pf.box_normal_cone(-1.0, 1.0, dim=2), [3.0, -0.5], [1.0, -0.5]),
        # nonzero A: the combined resolvent is composed for A = 0 only, so
        # these pairs are rejected
        (pf.l1_subgradient(1.0, dim=2), pf.zero_op(2), [3.0, -0.5], _REJECTED),
        (pf.box_normal_cone(0.0, 2.0, dim=2), pf.box_normal_cone(-1.0, 1.0, dim=2),
         [3.0, -0.5], _REJECTED),
        (pf.affine_op(np.eye(2), [1.0, 0.0]), pf.affine_op(2.0 * np.eye(2), [0.0, 1.0]),
         [3.0, -0.5], _REJECTED),
        # zero A: shrinkage by lam*beta for an l1 B2
        (pf.zero_op(2), pf.l1_subgradient(1.0, dim=2), [3.0, -0.5], [2.4, 0.0]),
    ])
    def test_combined_resolvent_pairs(self, a, b2, x, expected):
        prob = _two_penalty(a, b2)
        if expected is _REJECTED:
            with pytest.raises(PreconditionError):
                prob.shifted_resolvent_fn()
            # the mode check the march and the runner share rejects it up front
            with pytest.raises(PreconditionError):
                check_mode("SFBP", prob)
            return
        out = prob.shifted_resolvent_fn()(0.3, 2.0, np.array(x))
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

    @pytest.mark.parametrize("a, b2", [
        (pf.l1_subgradient(1.0, dim=1), pf.box_normal_cone(-1.0, 1.0, dim=1)),
        (pf.box_normal_cone(2.0, 3.0, dim=1), pf.box_normal_cone(-1.0, 1.0, dim=1)),
    ])
    def test_combined_resolvent_rejects_pair(self, a, b2):
        prob = _two_penalty(a, b2)
        with pytest.raises(PreconditionError):
            prob.shifted_resolvent_fn()
        # the mode check the march and the runner share rejects it up front
        with pytest.raises(PreconditionError):
            check_mode("SFBP", prob)

    def test_feasible_boxes(self):
        prob = pf.build_canonical("segment")
        lo, hi = prob.feasible_box()
        assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [2.0, 0.0])
        prob = pf.build_canonical("sfbp-two-penalty")
        lo, hi = prob.feasible_box()
        assert lo[0] == -np.inf and hi[0] == 0.0

    def test_feasible_box_intersects_every_box(self):
        """A's box, zer(B1) and B2's box each give one of the four bounds."""
        inf = np.inf
        a = pf.box_normal_cone([-1.0, -5.0], [5.0, 5.0], dim=2)
        b1 = PenaltyOperator(eval=lambda x: np.zeros_like(x), mu=np.inf,
                             zero_set_box=([-inf, -inf], [inf, 3.0]))
        b2 = pf.box_normal_cone([-inf, -2.0], [2.0, inf], dim=2)
        prob = dataclasses.replace(_two_penalty(a, b2), b1=b1)
        lo, hi = prob.feasible_box()
        assert lo.tolist() == [-1.0, -2.0] and hi.tolist() == [2.0, 3.0]
        # disjoint boxes, B2 not a box, and A neither a box nor zero give None
        far = pf.box_normal_cone([6.0, -inf], [inf, inf], dim=2)
        assert dataclasses.replace(prob, b2=far).feasible_box() is None
        assert dataclasses.replace(prob, b2=pf.zero_op(2)).feasible_box() is None
        assert dataclasses.replace(prob, a=pf.l1_subgradient(1.0, dim=2)).feasible_box() is None

    def test_lipschitz_bound_formula(self):
        prob = pf.build_canonical("scalar")
        assert prob.lipschitz_bound(1.0, 1.0) == pytest.approx(3.0)
        seg = pf.build_canonical("segment")
        assert seg.lipschitz_bound(0.5, 2.0) == pytest.approx(2.5)  # 1/eta = 0
