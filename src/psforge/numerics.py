"""Shared numerical helpers: finite differences and matrix projections."""

import numpy as np

__all__ = ["deriv4", "polar_project", "orthogonal_project"]

# 4th-order one-sided stencils for the first derivative at the two
# leading nodes; mirrored (negated, reversed) at the trailing edge.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def deriv4(f, h, axis=0):
    """First derivative along an axis, 4th-order centered differences.

    One-sided 4th-order stencils are used at the two nodes nearest each
    edge. Requires at least 5 samples along the axis.
    """
    f = np.asarray(f)
    if f.shape[axis] < 5:
        raise ValueError("deriv4 needs at least 5 samples along the axis")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = sum(c * f[k] for k, c in enumerate(_EDGE0)) / h
    out[1] = sum(c * f[k] for k, c in enumerate(_EDGE1)) / h
    out[-1] = -sum(c * f[-1 - k] for k, c in enumerate(_EDGE0)) / h
    out[-2] = -sum(c * f[-1 - k] for k, c in enumerate(_EDGE1)) / h
    return np.moveaxis(out, 0, axis)


def polar_project(u):
    """Nearest (special) orthogonal/unitary matrix via SVD, batched.

    For real input the result lands in SO(3) when det(u) > 0, which holds
    for every state produced by integrating a skew Lax system.
    """
    w, _, vt = np.linalg.svd(u)
    return w @ vt


def orthogonal_project(u, sweeps=2):
    """Project onto complex orthogonal matrices (g^T g = I) by Newton
    iteration u <- (u + u^{-T})/2. Quadratic near the manifold."""
    for _ in range(sweeps):
        u = 0.5 * (u + np.linalg.inv(np.swapaxes(u, -1, -2)))
    return u

