import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from psforge.algebra import (E12, E13, E23, P_TWIST, gauge_rotation,
                             spinor_adjoint, spinor_map, so3_to_su2, unhat,
                             wiener_matrix_norm)
from psforge.errors import NotSkew
from util import hat

rng = np.random.default_rng(11)

# the Pauli matrices
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _unmap_holomorphic(m):
    # the inverse of spinor_map, holomorphic in the entries of m
    return np.stack([1j * (m[..., 0, 1] + m[..., 1, 0]),
                     m[..., 1, 0] - m[..., 0, 1],
                     1j * (m[..., 0, 0] - m[..., 1, 1])], axis=-1)


def _su2_to_so3(m):
    # inverse of so3_to_su2: hat(R unmap(m)), R = diag(-1, 1, -1)
    return hat(np.array([-1.0, 1.0, -1.0]) * _unmap_holomorphic(m).real)


def test_wiener_norm_values():
    assert wiener_matrix_norm(np.eye(3)) == 1.0
    assert wiener_matrix_norm(E12) == 1.0
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -5.0]])
    assert wiener_matrix_norm(a) == 5.0


def test_wiener_norm_submultiplicative():
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        assert wiener_matrix_norm(a @ b) <= \
            wiener_matrix_norm(a) * wiener_matrix_norm(b) + 1e-12


def test_basis_twist_conjugation():
    assert np.array_equal(P_TWIST @ E12 @ P_TWIST, E12)
    assert np.array_equal(P_TWIST @ E13 @ P_TWIST, -E13)
    assert np.array_equal(P_TWIST @ E23 @ P_TWIST, -E23)


def test_spinor_map_values():
    assert np.all(spinor_map(np.zeros(3)) == 0)
    assert np.allclose(spinor_map([0.0, 0.0, 1.0]), -0.5j * SIGMA3)
    j1 = spinor_map([1.0, 0.0, 0.0])
    j2 = spinor_map([0.0, 1.0, 0.0])
    assert np.allclose(j1 @ j2 - j2 @ j1, spinor_map([0.0, 0.0, 1.0]))


def test_spinor_map_linear_and_cross():
    for _ in range(50):
        u, v = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(size=2)
        assert np.allclose(spinor_map(a * u + b * v),
                           a * spinor_map(u) + b * spinor_map(v))
        lhs = spinor_map(u) @ spinor_map(v) - spinor_map(v) @ spinor_map(u)
        assert np.allclose(lhs, spinor_map(np.cross(u, v)))
        assert np.allclose(_unmap_holomorphic(spinor_map(u)).real, u)


def _random_su2():
    v = rng.normal(size=3)
    return expm(spinor_map(v))


def test_adjoint_map_values():
    # on SU(2) the real part of spinor_adjoint is the SO(3) rotation
    for p in (np.eye(2, dtype=complex), -np.eye(2, dtype=complex)):
        assert np.allclose(spinor_adjoint(p).real, np.eye(3))


def test_adjoint_map_axis_rotation():
    # expected matrix from the independent exponential of the hat generator
    theta = 0.7
    p = expm(-0.5j * theta * SIGMA3)
    expected = expm(theta * hat(np.array([0.0, 0.0, 1.0])))
    got = spinor_adjoint(p).real
    assert np.allclose(got, expected, atol=1e-12)
    assert np.allclose(got[:2, :2],
                       [[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
    assert np.allclose(got[2], [0.0, 0.0, 1.0])


def test_adjoint_map_homomorphism():
    for _ in range(50):
        p, q = _random_su2(), _random_su2()
        r = spinor_adjoint(p @ q).real
        assert np.allclose(r, spinor_adjoint(p).real @ spinor_adjoint(q).real,
                           atol=1e-12)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(r), 1.0)


def test_hat_unhat():
    assert np.all(hat(np.zeros(3)) == 0)
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(unhat(hat(v)), v)
    assert np.array_equal(unhat(E12), [0.0, 0.0, -1.0])
    u = rng.normal(size=3)
    assert np.allclose(hat(v) @ u, np.cross(v, u))
    with pytest.raises(NotSkew):
        unhat(np.eye(3))


def test_gauge_rotation():
    assert np.array_equal(gauge_rotation(0.0), np.eye(3))
    assert np.allclose(gauge_rotation(np.pi / 2),
                       [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    a, b = 0.4, -1.1
    assert np.allclose(gauge_rotation(a) @ gauge_rotation(b),
                       gauge_rotation(a + b))
    r = gauge_rotation(0.9)
    assert np.allclose(r @ r.T, np.eye(3))
    assert np.isclose(np.linalg.det(r), 1.0)
    assert np.allclose(r @ [0, 0, 1], [0, 0, 1])


def test_su2_so3_dictionary_round_trip():
    # basis correspondences of the transport dictionary
    assert np.allclose(so3_to_su2(E12), -0.5j * SIGMA3)
    assert np.allclose(so3_to_su2(E13), -0.5j * SIGMA2)
    assert np.allclose(so3_to_su2(E23), -0.5j * SIGMA1)
    for _ in range(20):
        s = hat(rng.normal(size=3))
        assert np.allclose(_su2_to_so3(so3_to_su2(s)), s)


# property tests: random data at scales 1e-3 .. 1e3, derandomized

_seeds = st.integers(0, 2 ** 32 - 1)


def _vectors(r, n=8):
    """n random 3-vectors, each scaled by 10^k, k uniform in [-3, 3]."""
    return r.normal(size=(n, 3)) * 10.0 ** r.uniform(-3.0, 3.0, size=(n, 1))


def _su2(r, n=8):
    """n random SU(2) matrices [[a, -conj b], [b, conj a]],
    |a|^2 + |b|^2 = 1."""
    q = r.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    rows = np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)
    return np.stack(rows, -2)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_spinor_map_bracket_homomorphism(seed):
    # J(r1 x r2) = [J(r1), J(r2)], for the double cover's J = spinor_map
    # and for the basis dictionary J = so3_to_su2 o hat
    r = np.random.default_rng(seed)
    r1, r2 = _vectors(r), _vectors(r)
    scale = np.linalg.norm(r1, axis=1) * np.linalg.norm(r2, axis=1)
    for J in (spinor_map, lambda v: so3_to_su2(hat(v))):
        j1, j2 = J(r1), J(r2)
        dev = np.abs(J(np.cross(r1, r2)) - (j1 @ j2 - j2 @ j1))
        assert np.all(dev.max(axis=(1, 2)) <= 1e-15 * scale)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_adjoint_map_homomorphism_and_double_cover(seed):
    r = np.random.default_rng(seed)
    p, q = _su2(r), _su2(r)
    ad = spinor_adjoint(p).real
    dev = spinor_adjoint(p @ q).real - ad @ spinor_adjoint(q).real
    assert np.abs(dev).max() <= 1e-14
    # p and -p cover the same rotation
    assert np.array_equal(spinor_adjoint(-p).real, ad)


def _sl2c(r, n=8):
    """n random SL(2, C) matrices: complex normal entries over a square
    root of the determinant."""
    p = r.normal(size=(n, 2, 2)) + 1j * r.normal(size=(n, 2, 2))
    return p / np.sqrt(np.linalg.det(p))[:, None, None]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_spinor_adjoint_matches_definition(seed):
    # column k is the preimage of p J(e_k) adj(p), adj(p) = p^-1 on SL(2, C)
    p = _sl2c(np.random.default_rng(seed))
    adj = np.stack([np.stack([p[:, 1, 1], -p[:, 0, 1]], -1),
                    np.stack([-p[:, 1, 0], p[:, 0, 0]], -1)], -2)
    want = np.stack([_unmap_holomorphic(p @ spinor_map(e) @ adj)
                     for e in np.eye(3)], axis=-1)
    scale = np.abs(p).max(axis=(1, 2)) ** 2
    dev = np.abs(spinor_adjoint(p) - want).max(axis=(1, 2))
    assert np.all(dev <= 1e-14 * scale)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_spinor_adjoint_is_complex_orthogonal_homomorphism(seed):
    r = np.random.default_rng(seed)
    p, q = _sl2c(r), _sl2c(r)
    up, uq = spinor_adjoint(p), spinor_adjoint(q)
    sp = np.abs(up).max(axis=(1, 2), keepdims=True)
    sq = np.abs(uq).max(axis=(1, 2), keepdims=True)
    # U^T U = I and det U = 1 at complex P
    assert np.all(np.abs(np.swapaxes(up, 1, 2) @ up - np.eye(3))
                  <= 1e-14 * sp ** 2)
    assert np.all(np.abs(np.linalg.det(up) - 1.0) <= 1e-14 * sp[:, 0, 0] ** 3)
    # Ad(PQ) = Ad(P) Ad(Q), and P and -P cover the same matrix
    assert np.all(np.abs(spinor_adjoint(p @ q) - up @ uq) <= 1e-14 * sp * sq)
    assert np.array_equal(spinor_adjoint(-p), up)
    # on SU(2) it is real: the SO(3) rotation
    s = _su2(r)
    assert np.abs(spinor_adjoint(s).imag).max() <= 1e-15


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_hat_unhat_inverse_pair(seed):
    r = np.random.default_rng(seed)
    v = _vectors(r)
    assert np.array_equal(unhat(hat(v)), v)
    a = r.normal(size=(8, 3, 3)) * 10.0 ** r.uniform(-3.0, 3.0, size=(8, 1, 1))
    s = a - np.swapaxes(a, 1, 2)
    assert np.array_equal(hat(unhat(s)), s)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=_seeds)
def test_so3_su2_inverse_pair(seed):
    r = np.random.default_rng(seed)
    s = hat(_vectors(r))
    scale = np.abs(s).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(_su2_to_so3(so3_to_su2(s)) - s) <= 1e-15 * scale)
    m = spinor_map(_vectors(r))  # su(2): traceless, anti-Hermitian
    scale = np.abs(m).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(so3_to_su2(_su2_to_so3(m)) - m) <= 1e-15 * scale)
