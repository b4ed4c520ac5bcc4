import numpy as np
import pytest
from scipy.linalg import expm

from psforge.numerics import polar_project, refine, refine_span
from util import ref_refine


def _poly5(t):
    return 0.3 - 1.2 * t + 0.8 * t**2 + 0.5 * t**3 - 0.7 * t**4 + 0.25 * t**5


@pytest.mark.parametrize("r", [2, 3, 4])
def test_refine_exact_at_nodes(r):
    v = np.random.default_rng(1).normal(size=(9, 4, 3))
    assert np.array_equal(refine(v, r)[::r], v)
    w = np.swapaxes(v, 0, 1)  # 4 nodes, fewer than the stencil
    assert np.array_equal(refine(w, r)[::r], w)


@pytest.mark.parametrize("r", [2, 4])
def test_refine_reproduces_degree_5(r):
    # 11 nodes: every interval, edge stencils included, is checked
    x = np.linspace(-1.0, 1.5, 11)
    fine = np.linspace(-1.0, 1.5, 10 * r + 1)
    data = np.stack([_poly5(x), _poly5(-x)], axis=1)
    want = np.stack([_poly5(fine), _poly5(-fine)], axis=1)
    assert np.abs(refine(data, r) - want).max() < 1e-12


def test_refine_order():
    # sup error on [0, 2] at h = 0.1 and h = 0.05
    errs = []
    for n in (21, 41):
        x, fine = np.linspace(0.0, 2.0, n), np.linspace(0.0, 2.0, 2 * n - 1)
        errs.append(np.abs(refine(np.sin(x), 2) - np.sin(fine)).max())
    assert np.log2(errs[0] / errs[1]) >= 5.5


@pytest.mark.parametrize("n", [2, 5])
def test_refine_short_axes(n):
    # fewer than 6 nodes: the interpolant through all of them
    x = np.linspace(0.0, 1.0, n)
    fine = np.linspace(0.0, 1.0, 3 * (n - 1) + 1)
    out = refine(x ** (n - 1), 3)
    assert out.shape == fine.shape
    assert np.abs(out - fine ** (n - 1)).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 71, 201])
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_refine_matches_per_interval_weights(n, r):
    # the weights shared per stencil offset are those computed per interval
    v = np.random.default_rng(n).normal(size=(n, 3, 3))
    assert np.array_equal(refine(v, r), ref_refine(v, r))
    assert np.array_equal(refine(v[:, 0, 0], r), ref_refine(v[:, 0, 0], r))


@pytest.mark.parametrize("n", [2, 5, 6, 7, 12])
def test_refine_span_reproduces_whole_axis(n):
    # every span lo .. hi, the ones clipped at either edge included
    v = np.random.default_rng(n).normal(size=(n, 2))
    r = 4
    whole = refine(v, r)
    for lo in range(n):
        for hi in range(lo, n):
            span = refine_span(n, lo, hi)
            part = refine(v[span], r)[(lo - span.start) * r:]
            assert np.array_equal(part[:(hi - lo) * r + 1],
                                  whole[lo * r:hi * r + 1]), (lo, hi)


def _perturb(g, rng):
    """g plus entries of size at most 1e-8 (per real and imaginary part)."""
    noise = rng.uniform(-1.0, 1.0, size=g.shape)
    if np.iscomplexobj(g):
        noise = noise + 1j * rng.uniform(-1.0, 1.0, size=g.shape)
    return g + 1e-8 * noise


def _group_dev(g, conj):
    gt = np.swapaxes(g, -1, -2)
    gt = gt.conj() if conj else gt
    return np.abs(gt @ g - np.eye(g.shape[-1])).max()


def test_polar_project_so3():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(50, 3, 3))
    g = np.stack([expm(m - m.T) for m in a])
    u = polar_project(_perturb(g, rng))
    assert _group_dev(u, conj=False) < 1e-14
    assert np.all(np.linalg.det(u) > 0)


def test_polar_project_su2():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    h = a - np.swapaxes(a, -1, -2).conj()
    h -= np.trace(h, axis1=-2, axis2=-1)[:, None, None] / 2 * np.eye(2)
    g = np.stack([expm(m) for m in h])
    u = polar_project(_perturb(g, rng))
    assert _group_dev(u, conj=True) < 1e-14


def test_polar_project_complex_orthogonal():
    # 3x3 frames at complex lambda: g^T g = I, not unitary
    rng = np.random.default_rng(4)
    a = 0.25 * (rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3)))
    g = np.stack([expm(m - m.T) for m in a])
    assert _group_dev(g, conj=True) > 1e-2
    u = polar_project(_perturb(g, rng))
    assert _group_dev(u, conj=False) < 1e-14


def test_polar_project_matches_svd_polar_factor():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(50, 3, 3))
    u = _perturb(np.stack([expm(m - m.T) for m in a]), rng)
    w, _, vt = np.linalg.svd(u)
    assert np.abs(polar_project(u) - w @ vt).max() < 1e-14
