"""Shared numerical helpers: finite differences, grid refinement,
entries-first matrix products and the projection back onto the group the
matrix size names (2x2 by the determinant, 3x3 by the transpose)."""

import functools

import numpy as np

__all__ = ["deriv4", "refine", "polar_project", "group_deviation"]

_STENCIL = 6  # nodes per refine() interpolant

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


def refine(values, r):
    """Samples on the r-fold refined uniform grid along the leading axis.

    Returns the (n-1)*r + 1 values at node positions k/r, k = 0..(n-1)*r,
    each the Lagrange interpolant through the 6 nodes nearest its interval
    (the 6 nodes nearest the edge near an edge, every node when the axis
    has fewer than 6). Exact at the original nodes.
    """
    v = np.asarray(values)
    n = v.shape[0]
    width = min(_STENCIL, n)
    m = np.arange(n - 1)
    start = np.clip(m - 2, 0, n - width)  # nodes m-2 .. m+3 around interval m
    weights = _lagrange(width, r)[m - start]
    fine = np.einsum("mqk,mk...->mq...", weights,
                     v[start[:, None] + np.arange(width)])
    return np.concatenate([fine.reshape((-1,) + v.shape[1:]), v[-1:]])


@functools.cache
def _lagrange(width, r):
    """refine()'s Lagrange weights prod_{l != k} (t - l) / (k - l), read-only
    (offset, r, width): at the r points t of each interval of width nodes."""
    t = np.arange(width - 1)[:, None] + np.arange(r) / r
    k = np.arange(width)
    same = np.eye(width, dtype=bool)
    weights = np.where(same, 1.0, (t[..., None, None] - k)
                       / (k[:, None] - k + same)).prod(-1)
    weights.flags.writeable = False
    return weights


def refine_span(n, lo, hi):
    """The nodes refine() reads on the intervals lo .. hi - 1 of an n-node
    axis, a slice: their refine() is the whole axis's there, bit for bit."""
    width = min(_STENCIL, n)
    first, last = np.clip([lo - 2, max(lo, hi - 1) - 2], 0, n - width)
    return slice(first, last + width)


def _mm(a, b):
    """Products of entries-first stacks (m, k, ...) x (k, n, ...) ->
    (m, n, ...), with batch axes of equal number: on small complex
    matrices several times faster than numpy's stacked matmul."""
    out = a[:, 0, None] * b[0]
    for k in range(1, len(b)):
        out += a[:, k, None] * b[k]
    return out


def _det(u):
    """det u of a stack of 2x2 matrices (..., 2, 2)."""
    return u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]


def polar_project(u):
    """One Newton-Schulz step u (3I - u* u) / 2 back onto the group, batched.

    u* is the adjoint of the group the size names: for 3x3, SO(3) or
    SO(3, C), the transpose (entries-first by `_mm`, returned as a view);
    for 2x2, SL(2, C), the adjugate, u* u = det(u) I, so the step is
    u (3 - det u) / 2 (on SU(2)'s real quaternions, as the su(2) steps at a
    real lambda are, the conjugate transpose). The step squares the
    distance to the group: it suits matrices near it, such as the RK4 step
    matrices `frames._step_blocks` projects once per block (a march of n
    nodes then drifts off the group by about n eps |u|^2), not far ones."""
    if u.shape[-1] == 2:
        return u * (0.5 * (3.0 - _det(u)))[..., None, None]
    e = np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1)))
    g = -0.5 * _mm(e.swapaxes(0, 1), e)
    g[range(3), range(3)] += 1.5
    return np.moveaxis(_mm(e, g), (0, 1), (-2, -1))


def group_deviation(u):
    """sup |u* u - I| over a batch, u* as in `polar_project`: |det u - 1|
    for 2x2, the 6 distinct entries of the symmetric u^T u - I for 3x3."""
    if u.shape[-1] == 2:
        return np.abs(_det(u) - 1.0).max()
    e = np.ascontiguousarray(np.moveaxis(u, (-2, -1), (0, 1)))
    diag = np.abs((e * e).sum(0) - 1.0).max()  # (i, i), then (i, i + 1 mod 3)
    return np.maximum(diag, np.abs((e * e[:, [1, 2, 0]]).sum(0)).max())
