import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penaltyflow as pf
from penaltyflow.deblur import box_muller_noise, degrade_image
from penaltyflow.errors import MetricUndefinedError, ParameterError
from penaltyflow.imaging import _circulant, circulant_pair

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def periodic_correlation(img, kernel):
    """Reference: out[i, j] = sum k[p, q] img[(i + p) mod M, (j + q) mod N]."""
    half = kernel.shape[0] // 2
    out = np.zeros_like(img)
    for p in range(-half, half + 1):
        for q in range(-half, half + 1):
            out += kernel[p + half, q + half] * np.roll(img, (-p, -q), axis=(0, 1))
    return out


def reference_gradient(theta, u, v):
    """Forward differences of theta and the adjoint at (u, v), each block
    built in its own zeroed array and summed at the end."""
    m, n = theta.shape
    lu, lv = np.zeros_like(theta), np.zeros_like(theta)
    lu[:-1] = theta[1:] - theta[:-1]
    lv[:, :-1] = theta[:, 1:] - theta[:, :-1]
    adj_u, adj_v = np.zeros_like(u), np.zeros_like(v)
    adj_u[1:] = u[:-1]
    adj_u -= u
    adj_u[-1] = u[-2] if m > 1 else 0.0
    adj_v[:, 1:] = v[:, :-1]
    adj_v -= v
    adj_v[:, -1] = v[:, -2] if n > 1 else 0.0
    return lu, lv, adj_u + adj_v


class TestDiscreteGradient:
    def test_constant_image(self):
        u, v = pf.discrete_gradient(np.full((5, 7), 0.3))
        assert np.all(u == 0.0) and np.all(v == 0.0)

    def test_two_pixel_column(self):
        theta = np.array([[0.0], [1.0]])
        u, v = pf.discrete_gradient(theta)
        assert u[0, 0] == 1.0 and u[1, 0] == 0.0
        assert np.all(v == 0.0)

    def test_adjoint_exactness(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, n = rng.integers(2, 12, size=2)
            theta = rng.standard_normal((m, n))
            u = rng.standard_normal((m, n))
            v = rng.standard_normal((m, n))
            lu, lv = pf.discrete_gradient(theta)
            lhs = np.vdot(lu, u) + np.vdot(lv, v)
            rhs = np.vdot(theta, pf.discrete_gradient((u, v), adjoint=True))
            scale = 1.0 + abs(lhs)
            assert abs(lhs - rhs) <= 1e-10 * scale

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12), data=st.data())
    def test_out_matches_reference_bytewise(self, m, n, data):
        # small integers and signed zeros keep every inner product exact
        entry = st.sampled_from([0.0, -0.0]) | st.integers(-8, 8).map(float)
        theta, u, v = (np.array(data.draw(st.lists(
            entry, min_size=m * n, max_size=m * n))).reshape(m, n)
            for _ in range(3))
        if data.draw(st.booleans()):  # a non-contiguous image of the same shape
            theta = np.array(theta.T, order="C").T
        lu, lv = pf.discrete_gradient(theta)
        adj = pf.discrete_gradient((u, v), adjoint=True)
        ref = reference_gradient(theta, u, v)
        assert [a.tobytes() for a in (lu, lv, adj)] == [a.tobytes() for a in ref]
        pair = (np.full((m, n), np.nan), np.full((m, n), np.nan))
        got = pf.discrete_gradient(theta, out=pair)
        assert got[0] is pair[0] and got[1] is pair[1]
        assert pair[0].tobytes() == lu.tobytes()
        assert pair[1].tobytes() == lv.tobytes()
        out = np.full((m, n), np.nan)
        assert pf.discrete_gradient((u, v), adjoint=True, out=out) is out
        assert out.tobytes() == adj.tobytes()
        assert np.vdot(lu, u) + np.vdot(lv, v) == np.vdot(theta, adj)

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_operator_norm_bound(self, size):
        assert pf.gradient_norm_estimate(size) <= 8.0 + 1e-6

    def test_shape_errors(self):
        with pytest.raises(ParameterError):
            pf.discrete_gradient(np.zeros(5))
        with pytest.raises(ParameterError):
            pf.discrete_gradient((np.zeros((2, 2)), np.zeros((3, 2))), adjoint=True)
        with pytest.raises(ParameterError):
            pf.discrete_gradient(np.zeros((3, 4)),
                                 out=(np.zeros((3, 4)), np.zeros((4, 3)).T))


class TestGaussianBlur:
    def test_identity_kernel(self):
        img = pf.make_test_image("disk", 16)
        out = pf.gaussian_blur(img, pf.gaussian_kernel(1, 1.0))
        assert np.array_equal(out, img)

    def test_constant_image_preserved(self):
        k = pf.gaussian_kernel(9, 4.0)
        out = pf.gaussian_blur(np.full((12, 12), 0.6), k)
        assert np.allclose(out, 0.6, atol=1e-12)

    def test_kernel_symmetry_and_normalization(self):
        k = pf.gaussian_kernel(9, 4.0)
        assert abs(k.sum() - 1.0) <= 1e-12
        assert np.allclose(k, np.rot90(k))
        assert np.allclose(k, k.T)
        assert np.all(k >= 0)

    @pytest.mark.parametrize("sigma", [1e-150, 1.0, 1e150])
    def test_kernel_at_the_sigma_range_ends(self, sigma):
        # size 1 is [[1.0]] bit for bit, with no shortcut; a point mass at
        # the lower end, flat weights at the upper
        assert pf.gaussian_kernel(1, sigma).tobytes() == np.ones((1, 1)).tobytes()
        k = pf.gaussian_kernel(3, sigma)
        assert np.all(np.isfinite(k)) and abs(k.sum() - 1.0) <= 1e-15
        if sigma == 1e-150:
            assert np.array_equal(k, np.outer([0, 1, 0], [0, 1, 0]))
        elif sigma == 1e150:
            assert np.array_equal(k, np.full((3, 3), 1.0 / 9.0))

    def test_even_kernel_rejected(self):
        with pytest.raises(ParameterError):
            pf.gaussian_kernel(8, 4.0)

    def test_adjoint_exactness(self):
        rng = np.random.default_rng(1)
        k = pf.gaussian_kernel(5, 1.5)
        for _ in range(100):
            x = rng.standard_normal((10, 10))
            y = rng.standard_normal((10, 10))
            lhs = np.vdot(pf.gaussian_blur(x, k), y)
            rhs = np.vdot(x, pf.gaussian_blur(y, k, adjoint=True))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(0, 4), m=st.integers(3, 16), n=st.integers(3, 16),
           gaussian=st.booleans(), sigma=st.floats(0.3, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_periodic_correlation(self, half, m, n, gaussian, sigma, seed):
        # sides below the kernel size make taps wrap onto one entry
        rng = np.random.default_rng(seed)
        size = 2 * half + 1
        k = (pf.gaussian_kernel(size, sigma) if gaussian
             else np.outer(rng.standard_normal(size), rng.standard_normal(size)))
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        kx = pf.gaussian_blur(x, k)
        assert np.max(np.abs(kx - periodic_correlation(x, k))) <= 1e-12
        lhs = np.vdot(kx, y)
        rhs = np.vdot(x, pf.gaussian_blur(y, k, adjoint=True))
        scale = np.linalg.norm(kx) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("taps", [1, 3, 9])
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
    def test_circulant_accumulates_in_tap_order(self, taps, n):
        weights = np.random.default_rng(taps * 100 + n).standard_normal(taps)
        half = taps // 2
        ref = np.zeros((n, n))
        for a in range(-half, half + 1):
            for i in range(n):
                ref[i, (i + a) % n] += weights[a + half]
        assert np.array_equal(_circulant(weights, n), ref)

    def test_rank_two_kernel_rejected(self):
        # no config builds one: the blur is one row factor times one column factor
        k = np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) + np.outer([1.0, 0.0, -1.0],
                                                                 [0.0, 1.0, 0.0])
        with pytest.raises(ParameterError, match="rank one"):
            pf.gaussian_blur(np.zeros((4, 4)), k)
        with pytest.raises(ParameterError, match="rank one"):
            circulant_pair(k, (4, 4))

    def test_shape_errors(self):
        with pytest.raises(ParameterError):
            pf.gaussian_blur(np.zeros(5), np.ones((3, 3)))
        with pytest.raises(ParameterError):
            pf.gaussian_blur(np.zeros((4, 4)), np.ones((3, 5)))
        with pytest.raises(ParameterError):
            pf.gaussian_blur(np.zeros((4, 4)), np.ones((2, 2)))

    def test_operator_norm_at_most_one(self):
        # circular correlation with a normalized nonnegative kernel
        rng = np.random.default_rng(2)
        k = pf.gaussian_kernel(9, 4.0)
        x = rng.standard_normal((16, 16))
        for _ in range(50):
            y = pf.gaussian_blur(pf.gaussian_blur(x, k), k, adjoint=True)
            x = y / np.linalg.norm(y)
        norm_sq = np.vdot(x, pf.gaussian_blur(pf.gaussian_blur(x, k), k, adjoint=True))
        assert norm_sq <= 1.0 + 1e-10


def test_import_loads_no_scipy():
    code = ("import penaltyflow, sys; assert not any(m == 'scipy' or "
            "m.startswith('scipy.') for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_deblur_run_loads_no_numpy_random(tmp_path):
    """The noise and the kernel come from the standard library, so a whole
    deblurring run imports neither numpy.random nor, through it, secrets."""
    config = {"instance": {"deblur": {"image": "checkerboard", "size": 64}},
              "mode": "FBF",
              "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1.0,
                           "lambda_bar": 0.3, "gamma_bar": 1.0},
              "grid": {"kind": "uniform", "h": 1.0, "T": 1e9},
              "store_every": 2, "max_steps": 5, "seed": 3,
              "outputs": {"trajectory_csv": True, "images": True,
                          "isnr_csv": True, "report_json": True}}
    code = ("import sys\n"
            "from penaltyflow.config import parse_config\n"
            "from penaltyflow.runner import run_experiment\n"
            f"report = run_experiment(parse_config({config!r}), sys.argv[1])\n"
            "loaded = {'numpy.random', 'secrets'} & set(sys.modules)\n"
            "if report.exit_code != 0 or loaded:\n"
            "    raise SystemExit(f'{report.messages} loaded {sorted(loaded)}')\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "degraded.pgm").exists()


class TestIsnr:
    def test_no_improvement_is_zero(self):
        x = pf.make_test_image("ramp", 8)
        y = np.clip(x + 0.1, 0.0, 1.0)
        assert pf.isnr(x, y, y) == pytest.approx(0.0)

    def test_exact_recovery_capped(self):
        x = pf.make_test_image("ramp", 8)
        y = np.clip(x + 0.1, 0.0, 1.0)
        assert pf.isnr(x, y, x) == 300.0

    def test_ratio_four(self):
        x = np.zeros((2, 2))
        y = np.full((2, 2), 0.2)
        xh = np.full((2, 2), 0.1)
        assert pf.isnr(x, y, xh) == pytest.approx(10.0 * math.log10(4.0))

    def test_undefined_when_degraded_equals_original(self):
        x = pf.make_test_image("disk", 8)
        with pytest.raises(MetricUndefinedError):
            pf.isnr(x, x, x)


class TestTestImages:
    @pytest.mark.parametrize("name", ["checkerboard", "disk", "ramp"])
    @pytest.mark.parametrize("size", [32, 64])
    def test_range(self, name, size):
        img = pf.make_test_image(name, size)
        assert img.shape == (size, size)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            pf.make_test_image("photo", 32)


class TestDeblurInstance:
    def test_product_dimension(self):
        inst = pf.build_tv_deblur(np.full((2, 2), 0.5),
                                  kernel_size=1, sigma=1.0, noise_std=0.0)
        assert inst.problem.dim == 12  # 3 * 2 * 2

    def test_identity_kernel_zero_noise_keeps_original(self):
        orig = pf.make_test_image("checkerboard", 8)
        inst = pf.build_tv_deblur(orig, kernel_size=1, sigma=1.0, noise_std=0.0)
        assert np.array_equal(inst.observed, orig)
        assert inst.clipped_count == 0

    def test_noise_reproducible_from_seed(self):
        orig = pf.make_test_image("disk", 16)
        a = pf.build_tv_deblur(orig, noise_std=1e-3, seed=11)
        b = pf.build_tv_deblur(orig, noise_std=1e-3, seed=11)
        c = pf.build_tv_deblur(orig, noise_std=1e-3, seed=12)
        assert np.array_equal(a.observed, b.observed)
        assert not np.array_equal(a.observed, c.observed)

    def test_box_muller_moments(self):
        z = box_muller_noise((200, 200), 1.0, seed=0)
        assert abs(z.mean()) <= 0.01
        assert abs(z.std() - 1.0) <= 0.01

    def test_degrade_records_clipping(self):
        img = np.ones((8, 8))
        out, clipped = degrade_image(img, pf.gaussian_kernel(3, 1.0), 0.5, seed=0)
        assert clipped > 0
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_coupling_is_skew_and_lipschitz(self):
        inst = pf.build_tv_deblur(pf.make_test_image("disk", 8))
        prob = inst.problem
        rep = pf.verify_certificate(prob.d, "lipschitz",
                                    modulus=math.sqrt(8.0),
                                    samples=200, seed=0, dim=prob.dim)
        assert rep.passed
        rep = pf.verify_certificate(prob.d, "monotone", samples=200, seed=0,
                                    dim=prob.dim)
        assert rep.passed
        assert not prob.d.cocoercive

    def test_penalty_block_cocoercive(self):
        inst = pf.build_tv_deblur(pf.make_test_image("disk", 8))
        prob = inst.problem
        rep = pf.verify_certificate(prob.b1, "cocoercive", modulus=1.0,
                                    samples=200, seed=0, dim=prob.dim)
        assert rep.passed

    @pytest.mark.parametrize("kernel_size", [1, 9])
    def test_fused_penalty_matches_blur_composition(self, kernel_size):
        rng = np.random.default_rng(3)
        for image in (pf.make_test_image("checkerboard", 64),
                      rng.random((5, 7))):
            m, n = image.shape
            npx = m * n
            inst = pf.build_tv_deblur(image, kernel_size=kernel_size, sigma=4.0)
            x = rng.standard_normal(3 * npx)
            x[npx:npx + 2] = 0.0, -0.0
            x_bytes = x.tobytes()
            theta = x[:npx].reshape(m, n)
            k = inst.kernel
            ref = pf.gaussian_blur(pf.gaussian_blur(theta, k) - inst.observed,
                                   k, adjoint=True).ravel()
            out = inst.problem.b1.eval(x)
            assert np.linalg.norm(out[:npx] - ref) <= 1e-14 * np.linalg.norm(ref)
            a, b = circulant_pair(k, (m, n))
            ref_b = np.zeros_like(x)
            np.subtract(a.T @ a @ theta @ (b.T @ b), a.T @ inst.observed @ b,
                        out=ref_b[:npx].reshape(m, n))
            assert out.tobytes() == ref_b.tobytes()
            lu, lv = pf.discrete_gradient(theta)
            adj = pf.discrete_gradient((x[npx:2 * npx].reshape(m, n),
                                        x[2 * npx:].reshape(m, n)), adjoint=True)
            ref_d = np.concatenate([adj.ravel(), -lu.ravel(), -lv.ravel()])
            d_out = inst.problem.d.eval(x)
            assert d_out.tobytes() == ref_d.tobytes()
            assert not np.shares_memory(inst.problem.d.eval(x), d_out)
            assert not np.shares_memory(inst.problem.b1.eval(x), out)
            assert x.tobytes() == x_bytes

    def test_pixel_range_required(self):
        with pytest.raises(ParameterError):
            pf.build_tv_deblur(np.full((4, 4), 2.0))

    @pytest.mark.parametrize("kw", [{"seed": -1}, {"noise_std": -0.5},
                                    {"noise_std": math.nan}])
    def test_negative_seed_or_noise_rejected(self, kw):
        with pytest.raises(ParameterError):
            pf.build_tv_deblur(np.full((4, 4), 0.5), **kw)
