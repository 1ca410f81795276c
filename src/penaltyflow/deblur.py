"""Total-variation deblurring as a product-space inclusion.

The state is (theta, u, v) of length 3*M*N: the image block carries the box
constraint, the dual pair (u, v) carries the unit-disc constraint of the
total-variation dual, the skew coupling moves gradients between them, and the
penalty block drives theta into the data-fit solution set of the blur system.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_int, require_range
from .imaging import (_circulant, discrete_gradient, gaussian_blur,
                      gaussian_kernel, isnr)
from .operators import MonotoneOperator, project_pair_ball
from .problem import LipschitzOperator, PenaltyOperator, ProblemInstance

_GRAD_NORM_SQ = 8.0  # the forward-difference stencil satisfies ||L||^2 <= 8


@dataclass(frozen=True)
class DeblurInstance:
    """Assembled deblurring problem plus the data that produced it."""

    problem: ProblemInstance
    shape: tuple
    kernel: np.ndarray
    sigma: float
    original: np.ndarray
    observed: np.ndarray
    noise_std: float
    seed: int
    clipped_count: int

    @property
    def x0(self):
        return self.problem.x0_default

    def theta_of(self, state):
        n = self.observed.size
        return np.asarray(state)[:n].reshape(self.shape)

    def metadata(self):
        return {"kernel_size": int(self.kernel.shape[0]), "sigma": self.sigma,
                "noise_std": self.noise_std, "seed": self.seed,
                "clipped_count": self.clipped_count,
                "shape": [int(s) for s in self.shape]}


def box_muller_noise(shape, std, seed):
    """Seeded Gaussian field via the Box-Muller transform.

    The uniforms come from ``random.Random(seed)``, whose stream Python keeps
    across versions and platforms, and each sample is taken with scalar
    ``math`` calls, so the field does not depend on numpy's SIMD loops.
    """
    n = math.prod(shape)
    rng = random.Random(int(seed))  # random.seed rejects numpy integers
    m = (n + 1) // 2
    u1 = [1.0 - rng.random() for _ in range(m)]  # in (0, 1]
    u2 = [rng.random() for _ in range(m)]
    r = [math.sqrt(-2.0 * math.log(a)) for a in u1]
    z = [ri * math.cos(2.0 * math.pi * b) for ri, b in zip(r, u2)]
    z += [ri * math.sin(2.0 * math.pi * b) for ri, b in zip(r, u2)]
    return std * np.array(z[:n]).reshape(shape)


def degrade_image(original, kernel, noise_std, seed):
    """Blur, add seeded noise, clip to [0, 1]; returns (image, clipped_count)."""
    blurred = gaussian_blur(original, kernel)
    noisy = blurred + box_muller_noise(original.shape, noise_std, seed) \
        if noise_std > 0 else blurred
    clipped = int(np.sum((noisy < 0.0) | (noisy > 1.0)))
    return np.clip(noisy, 0.0, 1.0), clipped


def build_tv_deblur(original, kernel_size=9, sigma=4.0, noise_std=1e-3, seed=0):
    """Degrade ``original`` and assemble the product-space instance.

    The smooth coupling (theta, u, v) -> (L*(u, v), -L theta) is monotone and
    sqrt(8)-Lipschitz but not cocoercive, so this instance is for the
    forward-backward-forward integrator. The penalty block K*(K theta - b) is
    1-cocoercive for a normalized circular kernel.
    """
    original = np.asarray(original, dtype=float)
    if original.ndim != 2:
        raise ParameterError("original must be a 2-D image")
    require_range("original pixels", original, ">=", 0, "<=", 1)
    require_int("seed", seed, 0)
    require_range("noise_std", noise_std, ">=", 0)
    m, n = original.shape
    npx = m * n
    kernel = gaussian_kernel(kernel_size, sigma)
    observed, clipped = degrade_image(original, kernel, noise_std, seed)
    # K* (K theta - b) == P theta Q - K* b for the taps' circulant pair
    a, b = _circulant(kernel, m), _circulant(kernel, n)
    p_mat, q_mat = a.T @ a, b.T @ b
    ktb = a.T @ observed @ b

    def d_eval(x):
        out = np.empty_like(x)
        adj, lt_u, lt_v = out.reshape(3, m, n)
        theta, u, v = x.reshape(3, m, n)
        discrete_gradient(theta, out=(lt_u, lt_v))
        np.negative(out[npx:], out=out[npx:])
        discrete_gradient((u, v), adjoint=True, out=adj)
        return out

    def b_eval(x):
        out = np.empty_like(x)
        out[npx:] = 0.0
        theta = np.matmul(p_mat @ x[:npx].reshape(m, n), q_mat,
                          out=out[:npx].reshape(m, n))
        theta -= ktb
        return out

    def a_res(lam, x):
        # theta clipped into [0, 1], each (u_i, v_i) into the unit disc, any lam
        out = np.empty_like(x)
        theta, u, v = x.reshape(3, npx)
        box, disc_u, disc_v = out.reshape(3, npx)
        np.clip(theta, 0.0, 1.0, out=box)
        project_pair_ball(u, v, out=(disc_u, disc_v))
        return out

    a_op = MonotoneOperator("box-disc", a_res, dim=3 * npx)
    d_op = LipschitzOperator(eval=d_eval, eta=1.0 / math.sqrt(_GRAD_NORM_SQ),
                             cocoercive=False)
    b_op = PenaltyOperator(eval=b_eval, mu=1.0)
    problem = ProblemInstance(a=a_op, d=d_op, b1=b_op, dim=3 * npx,
                              name="tv-deblur", x0_default=np.concatenate(
                                  [observed.ravel(), np.zeros(2 * npx)]))
    return DeblurInstance(problem=problem, shape=(m, n), kernel=kernel,
                          sigma=float(sigma), original=original,
                          observed=observed, noise_std=noise_std, seed=seed,
                          clipped_count=clipped)


def isnr_series(instance, traj):
    """ISNR of the stored theta samples against the original/observed pair."""
    out = np.empty(traj.times.size)
    for i in range(traj.times.size):
        theta = instance.theta_of(traj.states[i])
        out[i] = isnr(instance.original, instance.observed, theta)
    return out
