import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import penaltyflow as pf
from penaltyflow.errors import ConvergenceFailure, ParameterError
from penaltyflow.operators import as_vector, box_clamp, norm


def seeded_points(dim, n, seed=0, radius=3.0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(dim) * radius for _ in range(n)]


class TestResolvents:
    def test_zero_is_identity(self):
        op = pf.zero_op(2)
        out = op.resolvent(0.7, np.array([3.0, -1.0]))
        assert np.array_equal(out, [3.0, -1.0])

    def test_box_clamp_is_lambda_independent(self):
        op = pf.box_normal_cone(0.0, 1.0, dim=1)
        assert op.resolvent(5.0, np.array([2.0])) == pytest.approx(1.0)
        assert op.resolvent(1e-6, np.array([2.0])) == pytest.approx(1.0)

    def test_l1_soft_threshold(self):
        op = pf.l1_subgradient(1.0, dim=1)
        assert op.resolvent(1.0, np.array([2.0])) == pytest.approx(1.0)
        assert op.resolvent(1.0, np.array([-0.5])) == pytest.approx(0.0)

    def test_lambda_zero_returns_input(self):
        op = pf.l1_subgradient(1.0, dim=1)
        assert op.resolvent(0.0, np.array([2.0])) == pytest.approx(2.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            pf.zero_op(1).resolvent(-1.0, np.array([1.0]))

    def test_affine_solves_linear_system(self):
        m = np.array([[2.0, 0.3], [0.1, 1.0]])
        q = np.array([0.5, -1.0])
        op = pf.affine_op(m, q)
        x = np.array([1.0, 2.0])
        lam = 0.7
        y = op.resolvent(lam, x)
        assert np.allclose(y + lam * (m @ y + q), x, atol=1e-12)

    def test_affine_rejects_nonmonotone(self):
        with pytest.raises(ParameterError, match="affine operator is not monotone"):
            pf.affine_op(np.array([[-1.0, 0.0], [0.0, 1.0]]))


class TestYosida:
    def test_zero_operator(self):
        out = pf.yosida_eval(pf.zero_op(2), 1.0, np.array([4.0, 4.0]))
        assert np.allclose(out, 0.0)

    def test_halfline_cone(self):
        op = pf.box_normal_cone(-math.inf, 0.0, dim=1)
        assert pf.yosida_eval(op, 1.0, np.array([3.0])) == pytest.approx(3.0)
        assert pf.yosida_eval(op, 2.0, np.array([3.0])) == pytest.approx(1.5)

    def test_value_lies_in_normal_cone_of_clamp(self):
        # exact for box cones: positive where clamped at hi, negative at lo
        op = pf.box_normal_cone(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        for x in seeded_points(2, 50, seed=3):
            lam = 0.5
            y = pf.yosida_eval(op, lam, x)
            c = op.resolvent(lam, x)
            for i in range(2):
                if c[i] < 1.0 - 1e-12 and c[i] > -1.0 + 1e-12:
                    assert y[i] == pytest.approx(0.0, abs=1e-14)
                elif c[i] >= 1.0 - 1e-12:
                    assert y[i] >= -1e-14
                else:
                    assert y[i] <= 1e-14
        # scalar bounds clamp every coordinate alike
        box = pf.box_normal_cone(0.0, 1.0)
        assert np.array_equal(box.resolvent(1.0, np.array([5.0, -2.0, 0.5])),
                              [1.0, 0.0, 0.5])

    def test_affine_value_is_operator_at_resolvent_point(self):
        # for A x = M x + q the Yosida value is A(J_lam x)
        op = pf.affine_op(np.array([[1.0, 0.5], [-0.5, 2.0]]), np.array([0.3, -0.2]))
        for x in seeded_points(2, 20, seed=5):
            y = pf.yosida_eval(op, 0.5, x)
            assert np.allclose(y, op.eval(op.resolvent(0.5, x)), atol=1e-12)


class TestProjections:
    def test_box_examples(self):
        out = pf.box_normal_cone(0.0, 1.0).resolvent(1.0, np.array([-0.5, 0.3, 2.0]))
        assert np.allclose(out, [0.0, 0.3, 1.0])

    def test_box_idempotent(self):
        box = pf.box_normal_cone(0.0, 1.0)
        x = np.array([0.2, 0.9])
        once = box.resolvent(1.0, x)
        assert np.array_equal(once, x)
        assert np.array_equal(box.resolvent(1.0, once), once)

    def test_degenerate_box(self):
        box = pf.box_normal_cone(0.0, 0.0)
        assert box.resolvent(1.0, np.array([7.0])) == pytest.approx(0.0)

    def test_box_bad_bounds(self):
        with pytest.raises(ParameterError):
            pf.box_normal_cone(1.0, 0.0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_clamp_has_the_bytes_of_clip(self, data):
        # lengths 1 and 2 run numpy's scalar loops, 17 and 64 its SIMD ones
        n = data.draw(st.sampled_from([1, 2, 17, 64]))
        sides = data.draw(st.sampled_from(["upper", "lower", "both", "none"]))
        special = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, math.inf, -math.inf]
        bound = st.one_of(st.sampled_from(special), st.floats(allow_nan=False))
        a = data.draw(hnp.arrays(float, n, elements=bound))
        b = data.draw(hnp.arrays(float, n, elements=bound))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if sides in ("upper", "none"):
            lo = np.full(n, -math.inf)
        if sides in ("lower", "none"):
            hi = np.full(n, math.inf)
        if data.draw(st.booleans()):  # an unbounded side given as one 0-d value
            lo = np.array(-math.inf) if sides in ("upper", "none") else lo
            hi = np.array(math.inf) if sides in ("lower", "none") else hi
        x = data.draw(hnp.arrays(float, n, elements=st.one_of(
            st.sampled_from(special + [math.nan]), st.floats())))
        want = x.clip(lo, hi)
        for got in (box_clamp(lo, hi)(x), pf.box_normal_cone(lo, hi)._resolvent_fn(1.0, x)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_pair_ball_examples(self):
        u, v = pf.project_pair_ball(np.array([3.0]), np.array([4.0]))
        assert u[0] == pytest.approx(0.6) and v[0] == pytest.approx(0.8)
        u, v = pf.project_pair_ball(np.array([0.3]), np.array([0.4]))
        assert u[0] == pytest.approx(0.3) and v[0] == pytest.approx(0.4)
        u, v = pf.project_pair_ball(np.array([0.0]), np.array([0.0]))
        assert u[0] == 0.0 and v[0] == 0.0
        u, v = pf.project_pair_ball(3.0, -4.0)  # 0-d input gives 0-d output
        assert (u, v) == (0.6, -0.8) and np.ndim(u) == 0

    def test_pair_ball_norms_bounded(self):
        rng = np.random.default_rng(0)
        u, v = pf.project_pair_ball(rng.standard_normal(64) * 5,
                                    rng.standard_normal(64) * 5)
        assert np.all(np.sqrt(u * u + v * v) <= 1.0 + 1e-12)

    def test_pair_ball_and_deblur_resolvents_bytewise(self):
        rng = np.random.default_rng(4)
        # zero pairs of either sign, pairs on the unit circle, then random ones
        u = np.concatenate([[0.0, -0.0, 1.0, 0.6, -0.8],
                            rng.standard_normal(30) * 2])
        v = np.concatenate([[0.0, 0.0, 0.0, -0.8, 0.6],
                            rng.standard_normal(30) * 2])
        theta = rng.standard_normal(35) * 2
        x = np.concatenate([theta, u, v])
        before = x.tobytes()
        inst = pf.build_tv_deblur(rng.random((5, 7)))
        got = inst.problem.a.resolvent(0.5, x)
        ref = np.concatenate([np.clip(theta, 0.0, 1.0), *pf.project_pair_ball(u, v)])
        assert got.tobytes() == ref.tobytes()
        assert x.tobytes() == before

    @pytest.mark.parametrize("at", [5, 17, 29], ids=["theta", "u", "v"])
    def test_deblur_resolvent_rejects_nan(self, at):
        a = pf.build_tv_deblur(np.full((3, 4), 0.5), kernel_size=3).problem.a
        x = np.zeros(36)
        x[at] = np.nan
        with pytest.raises(ConvergenceFailure, match=f"'{a.kind}'"):
            a.resolvent(1.0, x)

    def test_pair_ball_shape_mismatch(self):
        with pytest.raises(ParameterError):
            pf.project_pair_ball(np.zeros(3), np.zeros(4))


def _all_descriptors():
    return {
        "zero": pf.zero_op(2),
        "box": pf.box_normal_cone(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
        "l1": pf.l1_subgradient(0.7, dim=2),
        "affine": pf.affine_op(np.array([[1.0, 0.5], [-0.5, 2.0]]),
                               np.array([0.3, -0.2])),
        "inverse": pf.inverse_op(pf.l1_subgradient(0.7, dim=2)),
    }


class TestCertificatesAndCalculus:
    def test_cocoercive_gradient_passes(self):
        d = lambda x: x - 2.0
        rep = pf.verify_certificate(d, "cocoercive", modulus=1.0,
                                    samples=1000, seed=0, dim=1)
        assert rep.passed and rep.worst_violation <= 1e-14

    def test_skew_fails_cocoercive_passes_lipschitz(self):
        skew = lambda x: np.array([x[1], -x[0]])
        for mu in (0.01, 1.0, 100.0):
            rep = pf.verify_certificate(skew, "cocoercive", modulus=mu,
                                        samples=200, seed=1, dim=2)
            assert not rep.passed
        rep = pf.verify_certificate(skew, "lipschitz", modulus=1.0,
                                    samples=1000, seed=1, dim=2)
        assert rep.passed

    def test_monotone_certificate(self):
        rep = pf.verify_certificate(lambda x: 3.0 * x, "monotone",
                                    samples=500, seed=2, dim=3)
        assert rep.passed

    @pytest.mark.parametrize("name", sorted(_all_descriptors()))
    def test_firm_nonexpansiveness(self, name):
        op = _all_descriptors()[name]
        rep = pf.verify_certificate(op, "firmly-nonexpansive-resolvent",
                                    samples=1000, seed=11)
        assert rep.passed, f"{name}: {rep}"

    @pytest.mark.parametrize("name", sorted(_all_descriptors()))
    def test_resolvent_parameter_continuity(self, name):
        # ||J_lam(x) - J_alpha(x)|| <= |lam - alpha| * ||yosida_lam(x)||
        op = _all_descriptors()[name]
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(2) * 4
            lam, alpha = rng.uniform(0.05, 4.0, size=2)
            lhs = np.linalg.norm(op.resolvent(lam, x) - op.resolvent(alpha, x))
            rhs = abs(lam - alpha) * np.linalg.norm(pf.yosida_eval(op, lam, x))
            assert lhs <= rhs + 1e-10 * (1.0 + np.linalg.norm(x))

    @pytest.mark.parametrize("name", ["box", "l1", "affine"])
    def test_moreau_identity(self, name):
        op = _all_descriptors()[name]
        inv = pf.inverse_op(op)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(2) * 3
            lam = rng.uniform(0.1, 5.0)
            lhs = inv.resolvent(lam, x) + lam * op.resolvent(1.0 / lam, x / lam)
            assert np.allclose(lhs, x, atol=1e-12)

    def test_resolvent_certificate_pairs_each_radius_with_each_lam(self):
        seen = []
        spy = pf.MonotoneOperator("custom", lambda lam, x: seen.append((lam, norm(x))) or x,
                                  dim=2)
        pf.verify_certificate(spy, "firmly-nonexpansive-resolvent", samples=9, seed=3)
        pairs = {(lam, round(r, 9)) for lam, r in seen[::2]}
        assert [lam for lam, _ in seen[::2]] == [0.1] * 3 + [1.0] * 3 + [10.0] * 3
        assert pairs == {(lam, r) for lam in (0.1, 1.0, 10.0) for r in (0.1, 1.0, 10.0)}

    def test_report_threshold_and_seed_recorded(self):
        rep = pf.verify_certificate(pf.zero_op(1), "firmly-nonexpansive-resolvent",
                                    samples=9, seed=42)
        assert rep.seed == 42 and rep.samples == 9
        assert rep.threshold == 1e-10


class TestVectors:
    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            as_vector(np.array([1.0, np.nan]), 2)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ParameterError):
            as_vector(np.arange(3.0), 2)

    def test_norm_of_a_subnormal_vector(self):
        # its squares underflow to 0.0; the final state of a skew-box FBF run
        v = np.array([-7.4e-323, 1.5e-323])
        assert math.sqrt(v[0] * v[0] + v[1] * v[1]) == 0.0
        assert abs(norm(v) - math.hypot(*v)) <= 5e-324
        assert norm(v) > 0.0
        assert norm(np.zeros(3)) == 0.0 and math.isnan(norm(np.array([math.nan, 1.0])))

    def test_norm_of_a_finite_vector_whose_squares_overflow(self):
        # the sum of squares is inf, so the norm takes the rescaled route
        with np.errstate(over="ignore"):
            assert norm(np.array([1e200])) == 1e200
            assert norm(np.array([3e154, 4e154])) == 5e154
            assert norm(np.array([-math.inf, 1.0])) == math.inf
            assert math.isnan(norm(np.array([math.nan, 1e200])))
            assert math.isnan(norm(np.array([math.inf, math.nan])))

    def test_norm_rounds_each_square(self):
        # a fused multiply-add, in either order, rounds this sum once and
        # moves its square root by one bit; a BLAS dot may fuse
        a, b = 0.852, 0.837
        for p, q in ((a, b), (b, a)):
            fused = float(Fraction(p) * Fraction(p) + Fraction(q * q))
            assert math.sqrt(fused) != math.sqrt(a * a + b * b)
        assert norm(np.array([a, b])) == math.sqrt(a * a + b * b)

    @given(st.lists(st.one_of(st.floats(-1e150, 1e150),
                              st.floats(-1e-160, 1e-160)),
                    min_size=1, max_size=40).map(np.array))
    @settings(max_examples=300, deadline=None)
    def test_norm_is_the_plain_sum_in_the_normal_range(self, v):
        s = np.add.reduce(v * v)
        if s >= np.finfo(float).smallest_normal:
            assert norm(v) == math.sqrt(s)
        elif np.any(v):
            assert norm(v) == pytest.approx(math.hypot(*v), rel=1e-12, abs=5e-324)

    def test_norm_is_the_plain_sum_at_the_smallest_normal(self):
        # the rescaled route would give 0x1.fffffffffffffp-512 here
        a = float.fromhex("0x1.a15f24110a9fap-512")
        b = float.fromhex("0x1.288e19327a74fp-512")
        assert a * a + b * b == np.finfo(float).smallest_normal
        assert norm(np.array([a, b])) == 2.0 ** -511


class TestCustomOracle:
    def test_divergent_custom_oracle_reports_failure(self):
        bad = pf.MonotoneOperator("custom", lambda lam, x: x * np.inf, dim=1)
        with pytest.raises(ConvergenceFailure) as exc:
            bad.resolvent(1.0, np.array([1.0]))
        assert exc.value.residual is not None

    def test_wellbehaved_custom_oracle(self):
        half = pf.MonotoneOperator("custom", lambda lam, x: x / (1.0 + lam),
                                   eval_fn=lambda x: x, dim=1)
        # resolvent of the identity operator: (1 + lam)^-1 x
        assert half.resolvent(1.0, np.array([2.0]))[0] == pytest.approx(1.0)
        rep = pf.verify_certificate(half, "firmly-nonexpansive-resolvent",
                                    samples=300, seed=0)
        assert rep.passed


_NAN = math.nan
_BOX = pf.box_normal_cone(0.0, 1.0, dim=1)


@pytest.mark.parametrize("call, message", [
    (lambda: pf.LipschitzOperator(eval=abs, eta=_NAN), "eta must be > 0, got nan"),
    (lambda: pf.PenaltyOperator(eval=abs, mu=_NAN), "mu must be > 0, got nan"),
    (lambda: replace(pf.build_canonical("scalar"), dim=_NAN),
     "dim must be an integer, got nan"),
    (lambda: pf.polynomial_schedule(0.1, _NAN), "s must be > 0, got nan"),
    (lambda: pf.polynomial_schedule(0.1, 0.2, b=_NAN), "b must be >= 1, got nan"),
    (lambda: pf.polynomial_schedule(0.1, 0.2, lambda_bar=_NAN),
     "lambda_bar must be > 0, got nan"),
    (lambda: pf.validate_schedule(pf.polynomial_schedule(0.1, 0.2), "FB", (_NAN, 1.0)),
     "moduli eta must be > 0, got nan"),
    (lambda: _BOX.resolvent(_NAN, np.zeros(1)), "lam must be >= 0, got nan"),
    (lambda: pf.yosida_eval(_BOX, _NAN, np.zeros(1)), "lam must be > 0, got nan"),
    (lambda: pf.l1_subgradient(_NAN), "weight must be >= 0, got nan"),
    (lambda: pf.box_normal_cone(_NAN, 1.0), "lo must be <= 1.0, got nan"),
    (lambda: pf.gaussian_kernel(3, _NAN), "sigma must be in [1e-150, 1e+150], got nan"),
    (lambda: pf.gaussian_kernel(1, -5.0), "sigma must be in [1e-150, 1e+150], got -5.0"),
    (lambda: pf.gaussian_kernel(1, _NAN), "sigma must be in [1e-150, 1e+150], got nan"),
    (lambda: pf.gaussian_kernel(1, 0.0), "sigma must be in [1e-150, 1e+150], got 0.0"),
    # 2*sigma**2 underflowed to 0 and overflowed to inf
    (lambda: pf.gaussian_kernel(3, 1e-200), "sigma must be in [1e-150, 1e+150], got 1e-200"),
    (lambda: pf.gaussian_kernel(3, 1e200), "sigma must be in [1e-150, 1e+150], got 1e+200"),
    (lambda: pf.build_tv_deblur(np.full((4, 4), _NAN), kernel_size=3),
     "original pixels must be in [0, 1], got " + str(np.full((4, 4), _NAN))),
    (lambda: replace(pf.build_canonical("scalar"), dim=1.5),
     "dim must be an integer, got 1.5"),
    (lambda: pf.gaussian_kernel(2.5, 1.0), "kernel size must be an integer, got 2.5"),
    (lambda: pf.make_test_image("disk", 4.5), "size must be an integer, got 4.5"),
    (lambda: pf.build_tv_deblur(np.zeros((4, 4)), kernel_size=3, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: pf.verify_certificate(pf.zero_op(), "monotone", dim=2.5),
     "dim must be an integer, got 2.5"),
    (lambda: pf.verify_certificate(pf.zero_op(1), "monotone", samples=2.5),
     "samples must be an integer, got 2.5"),
    (lambda: pf.verify_certificate(pf.zero_op(1), "monotone", samples="3"),
     "samples must be an integer, got '3'"),
    (lambda: pf.verify_certificate(pf.zero_op(1), "monotone", samples=True),
     "samples must be an integer, got True"),
    (lambda: pf.verify_certificate(abs, "firmly-nonexpansive-resolvent", dim=1),
     "resolvent certificate needs a MonotoneOperator"),
    (lambda: pf.verify_certificate(object(), "monotone", dim=1),
     "operator has no pointwise evaluation"),
    (lambda: pf.verify_certificate(pf.zero_op(1), "strongly-monotone"),
     "unknown certificate kind 'strongly-monotone'"),
    (lambda: pf.verify_certificate(pf.zero_op(1), "lipschitz"),
     "lipschitz certificate needs a modulus"),
    (lambda: pf.zero_op(2.5), "dim must be an integer, got 2.5"),
    (lambda: pf.box_normal_cone(0, 1, dim=2.5), "dim must be an integer, got 2.5"),
    (lambda: pf.box_normal_cone([0, 0, 0], [1, 1, 1], dim=2),
     "dim must equal the 3 entries of the bounds, got 2"),
    (lambda: replace(pf.build_canonical("scalar"), a=pf.box_normal_cone([0, 0, 0], [1, 1, 1])),
     "A has dimension 3, the instance 1"),
    (lambda: replace(pf.build_canonical("sfbp-two-penalty"), b2=pf.zero_op(2)),
     "B2 has dimension 2, the instance 1"),
    (lambda: pf.l1_subgradient(dim=2.5), "dim must be an integer, got 2.5"),
    (lambda: pf.MonotoneOperator("custom", abs, dim=True), "dim must be an integer, got True"),
    (lambda: pf.affine_op([[_NAN]]), "affine operator needs a finite square matrix"),
    (lambda: pf.affine_op([[_NAN, 0.0], [0.0, 2.0]]),
     "affine operator needs a finite square matrix"),
], ids=["eta", "mu", "dim", "s", "b", "lambda_bar", "moduli", "resolvent-lam", "yosida-lam",
        "l1-weight", "box-lo", "sigma", "sigma-kernel-1", "sigma-nan-kernel-1",
        "sigma-0-kernel-1", "sigma-1e-200", "sigma-1e200", "original-pixels", "dim-1.5",
        "kernel-size-2.5", "image-size-4.5", "seed-1.5", "certificate-dim-2.5", "samples-2.5",
        "samples-str", "samples-bool", "certificate-resolvent-of-callable",
        "certificate-no-eval", "certificate-unknown-kind", "certificate-no-modulus",
        "zero-dim-2.5", "box-dim-2.5", "box-dim-2-of-3", "instance-a-dim-3-of-1",
        "instance-b2-dim-2-of-1", "l1-dim-2.5", "custom-dim-bool", "affine-nan",
        "affine-nan-off-eigs"])
def test_argument_rules_name_the_argument_and_value(call, message):
    # NaN passed every guard written as x <= 0, and only IntegratorSpec and
    # solve_auxiliary checked that an integer argument is an integer
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == message
