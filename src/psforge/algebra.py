"""Fixed-size matrix kernels: the so(3) basis, hat and spinor maps, the
spinor double cover, the su(2) dictionary, rotations and the Wiener norm.

Geometric 3x3 data is real at real lambda; frame loops and Lax matrices
at complex lambda are complex 3x3, and the 2x2 (su(2)) side is complex.
Most functions accept batched arrays (leading axes are broadcast).
"""

import numpy as np

from .errors import NotSkew

__all__ = [
    "E12", "E13", "E23", "P_TWIST", "wiener_matrix_norm", "unhat",
    "gauge_rotation", "spinor_map", "spinor_adjoint", "so3_to_su2",
]


def _basis(i, j):
    m = np.zeros((3, 3))
    m[i, j] = 1.0
    m[j, i] = -1.0
    return m


# S_ij basis of so(3): (i,j)-entry 1, (j,i)-entry -1.
E12 = _basis(0, 1)
E13 = _basis(0, 2)
E23 = _basis(1, 2)

# Twist involution matrix: conjugation by P flips the sign of E13 and E23
# and fixes E12.
P_TWIST = np.diag([1.0, 1.0, -1.0])


def wiener_matrix_norm(a):
    """Maximum absolute row sum of a matrix (batched over leading axes)."""
    a = np.asarray(a)
    return np.abs(a).sum(axis=-1).max(axis=-1)


def unhat(s, check=True):
    """Inverse of the hat map v -> S, S u = v x u: reads (S32, S13, S21)
    off a skew matrix. Raises NotSkew when ||S + S^T|| exceeds 1e-9 (set
    check=False to skip)."""
    s = np.asarray(s)
    if check:
        dev = np.abs(s + np.swapaxes(s, -1, -2)).max()
        if dev > 1e-9:
            raise NotSkew(f"matrix deviates from skew-symmetry by {dev:.3e}")
    return np.stack([s[..., 2, 1], s[..., 0, 2], s[..., 1, 0]], axis=-1)


def gauge_rotation(theta):
    """Rotation of angle theta around e3 (batched over theta's shape)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros(theta.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = s
    out[..., 1, 0] = -s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


def spinor_map(r):
    """J(r) = -(i/2) r.sigma, identifying R^3 with su(2).

    Linear, and intertwines the cross product with the commutator:
    J(r1 x r2) = [J(r1), J(r2)].
    """
    r = np.asarray(r)
    return _spinor(r[..., 0], r[..., 1], r[..., 2])


def _spinor(x, y, z):
    """spinor_map of the vector with components x, y, z (arrays of one
    shape)."""
    out = np.empty(np.shape(x) + (2, 2), dtype=complex)
    out[..., 0, 0] = -0.5j * z
    out[..., 0, 1] = -0.5j * x - 0.5 * y
    out[..., 1, 0] = -0.5j * x + 0.5 * y
    out[..., 1, 1] = 0.5j * z
    return out


def spinor_adjoint(p):
    """SO(3, C) image of an SL(2, C) matrix under the spinor double cover,
    batched: column k is the spinor_map preimage of p J(e_k) adj(p),
    written out as quadratics in the entries of p. A homomorphism on
    SL(2, C) (U^T U = I, det U = 1), even in p, whose real part is the
    SO(3) rotation of an SU(2) matrix; no check is made."""
    p = np.asarray(p)
    a, b, c, d = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    ab, cd, ac, bd = a * b, c * d, a * c, b * d
    out = np.empty(p.shape[:-2] + (3, 3), dtype=complex)
    out[..., 0, 0] = 0.5 * (aa - bb - cc + dd)
    out[..., 0, 1] = -0.5j * (aa + bb - cc - dd)
    out[..., 0, 2] = cd - ab
    out[..., 1, 0] = 0.5j * (aa - bb + cc - dd)
    out[..., 1, 1] = 0.5 * (aa + bb + cc + dd)
    out[..., 1, 2] = -1j * (ab + cd)
    out[..., 2, 0] = bd - ac
    out[..., 2, 1] = 1j * (ac + bd)
    out[..., 2, 2] = a * d + b * c
    return out


# Basis dictionary E12 <-> -(i/2)s3, E13 <-> -(i/2)s2, E23 <-> -(i/2)s1
# between so(3) and su(2), transporting potentials between the 3x3 and 2x2
# pictures: the double-cover differential spinor_map o unhat after the
# rotation R = diag(-1, 1, -1) by pi about e2. The 2x2 potentials and
# frames.su2_frame (the plain spinor_map picture) are therefore related
# by Ad R: conjugation by i s2, which spinor_adjoint sends to R.
_R_DIAG = np.array([-1.0, 1.0, -1.0])


def so3_to_su2(s):
    """spinor_map(R unhat(s)); raises NotSkew as unhat does."""
    return spinor_map(_R_DIAG * unhat(s))

