"""Image operators: discrete gradient with Neumann boundaries, circular blur
by an odd square kernel of rank one with an exact adjoint, test images, and the
ISNR metric."""

import math

import numpy as np

from .errors import MetricUndefinedError, ParameterError, require_int, require_range

ISNR_CAP_DB = 300.0


def make_test_image(name, size):
    """Procedural grayscale test images in [0, 1].

    name is one of "checkerboard", "disk", "ramp".
    """
    require_int("size", size, 4)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    if name == "checkerboard":
        tile = max(size // 8, 1)
        img = ((ii // tile + jj // tile) % 2).astype(float)
    elif name == "disk":
        c = (size - 1) / 2.0
        img = ((ii - c) ** 2 + (jj - c) ** 2 <= (0.35 * size) ** 2).astype(float)
    elif name == "ramp":
        img = (ii + jj) / float(2 * (size - 1))
    else:
        raise ParameterError(f"unknown test image '{name}'")
    return img


def _adjoint_diff(w, out):
    """Adjoint of the forward difference along axis 0, written into out."""
    out[1:] = w[:-1]
    out[0] = 0.0
    out -= w
    # the last row of w is outside the range of the forward map
    out[-1] = w[-2] if w.shape[0] > 1 else 0.0
    return out


def discrete_gradient(theta, adjoint=False, out=None):
    """Forward differences with Neumann boundaries, or the exact adjoint.

    Forward mode maps an (M, N) image to the pair (row differences, column
    differences), zero on the last row/column. Adjoint mode maps such a pair
    back so that <L theta, (u, v)> == <theta, L*(u, v)> exactly. ``out`` gives
    the float arrays to write into and return: a pair in forward mode (the
    second one C-contiguous), one array in adjoint mode.
    """
    if not adjoint:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2:
            raise ParameterError("image must be 2-D")
        u, v = (np.empty(theta.shape), np.empty(theta.shape)) if out is None else out
        if not v.flags.c_contiguous:
            raise ParameterError("the column-difference output must be C-contiguous")
        np.subtract(theta[1:], theta[:-1], out=u[:-1])
        # one flat run; the differences that wrap across rows land in column -1
        t = theta.reshape(-1)
        np.subtract(t[1:], t[:-1], out=v.reshape(-1)[:-1])
        u[-1] = v[:, -1] = 0.0
        return u, v
    u, v = theta
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 2:
        raise ParameterError("adjoint input must be a pair of equal 2-D fields")
    out = np.empty_like(u) if out is None else out
    _adjoint_diff(v.T, out.T)
    return np.add(_adjoint_diff(u, np.empty_like(u)), out, out=out)


def gradient_norm_estimate(size):
    """Power-iteration estimate of ||L||^2 on a size x size grid: 200 iterations
    from a standard normal start drawn with seed 0."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((size, size))
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(200):
        u, v = discrete_gradient(x)
        y = discrete_gradient((u, v), adjoint=True)
        val = float(np.vdot(x, y))
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        x = y / ny
    return val


def gaussian_kernel(size, sigma):
    """Normalized truncated Gaussian weights on a size x size stencil."""
    require_int("kernel size", size, 1)
    if size % 2 == 0:
        raise ParameterError("kernel size must be odd (center required)")
    # on this range 2*sigma**2 is a positive normal float
    require_range("sigma", sigma, ">=", 1e-150, "<=", 1e150)
    half = size // 2
    # one scalar math.exp per tap: the weights do not depend on numpy's SIMD loops
    g = np.array([math.exp(-float(i * i) / (2.0 * sigma ** 2))
                  for i in range(-half, half + 1)])
    k = np.outer(g, g)
    return k / k.sum()


def _circulant(weights, n):
    """Circular-correlation matrix: row i carries the taps at (i + a) mod n."""
    half = weights.size // 2
    rows = np.broadcast_to(np.arange(n), (weights.size, n))
    cols = (rows + np.arange(-half, half + 1)[:, None]) % n
    mat = np.zeros((n, n))
    # add.at accumulates taps that wrap onto one entry in tap order
    np.add.at(mat, (rows, cols), np.broadcast_to(weights[:, None], rows.shape))
    return mat


def circulant_pair(kernel, shape):
    """The circulant pair (a, b) with K x == a @ x @ b.T.

    K is circular correlation of a shape-(M, N) image with the odd square
    kernel, which must have rank one: the pair comes from the kernel's SVD, and
    a second singular value above 1e-13 * s_0 raises ParameterError. A
    Gaussian kernel has rank one.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ParameterError("kernel must be square")
    if kernel.shape[0] % 2 == 0:
        raise ParameterError("kernel size must be odd (center required)")
    u, s, vt = np.linalg.svd(kernel)
    if np.count_nonzero(s > 1e-13 * s[0]) != 1:
        raise ParameterError("kernel must have rank one (one row and one column factor)")
    col = u[:, 0] * math.sqrt(s[0])
    row = vt[0, :] * math.sqrt(s[0])
    if col.sum() < 0:
        col, row = -col, -row
    return _circulant(col, shape[0]), _circulant(row, shape[1])


def gaussian_blur(img, kernel, adjoint=False):
    """Circular (periodic) correlation with the kernel, or its exact adjoint.

    Applied as one circulant matmul pair; the adjoint uses the transposed
    pair, so <K x, y> == <x, K* y> holds to rounding.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ParameterError("image must be 2-D")
    a, b = circulant_pair(kernel, img.shape)
    return a.T @ img @ b if adjoint else a @ img @ b.T


def isnr(original, degraded, restored):
    """Improvement in signal-to-noise ratio, in decibels (capped at +300).

    10 * log10(||original - degraded||^2 / ||original - restored||^2).
    """
    x = np.asarray(original, dtype=float)
    y = np.asarray(degraded, dtype=float)
    xh = np.asarray(restored, dtype=float)
    if x.shape != y.shape or x.shape != xh.shape:
        raise ParameterError("images must share a shape")
    num = float(np.sum((x - y) ** 2))
    den = float(np.sum((x - xh) ** 2))
    if num == 0.0:
        raise MetricUndefinedError("degraded equals original; ISNR undefined")
    if den == 0.0:
        return ISNR_CAP_DB
    return min(10.0 * math.log10(num / den), ISNR_CAP_DB)
