import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from psforge import frames, loops, numerics
from psforge.errors import StepFailure
from psforge.loops import SampledLoop, birkhoff_split
from psforge.numerics import (_mm, group_deviation, polar_project, refine,
                              refine_span)
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
    # 2x2 matrices are projected onto SL(2, C): a general perturbation of
    # SU(2) comes back to det 1, not onto SU(2)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
    h = a - np.swapaxes(a, -1, -2).conj()
    h -= np.trace(h, axis1=-2, axis2=-1)[:, None, None] / 2 * np.eye(2)
    g = np.stack([expm(m) for m in h])
    u = polar_project(_perturb(g, rng))
    assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-14
    # a real quaternion off SU(2) by its scale alone, as the march's step
    # matrices at real lambda are, comes back onto SU(2)
    u = polar_project((1.0 + 1e-8) * g)
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


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(*[st.sampled_from([2, 3, 4])] * 3),
       batch=st.lists(st.integers(1, 4), max_size=3), complex_=st.booleans())
def test_mm_matches_matmul(seed, dims, batch, complex_):
    # entries-first (m, k, batch...) x (k, n, batch...) against the stacked
    # matmul of the same matrices, within 1e-14 of |a| |b| entry by entry
    r = np.random.default_rng(seed)
    m, k, n = dims

    def stack(shape):
        x = r.normal(size=tuple(batch) + shape)
        return x + 1j * r.normal(size=x.shape) if complex_ else x

    a, b = stack((m, k)), stack((k, n))
    got = _mm(np.moveaxis(a, (-2, -1), (0, 1)),
              np.moveaxis(b, (-2, -1), (0, 1)))
    assert got.shape == (m, n) + tuple(batch)
    err = np.abs(np.moveaxis(got, (0, 1), (-2, -1)) - a @ b)
    assert np.all(err <= 1e-14 * (np.abs(a) @ np.abs(b)))


# polar_project and group_deviation as stacked matmul formulas, with the
# group adjoint of the matrix size: the transpose for 3x3 matrices, the
# adjugate for 2x2 ones

def _matmul_adjoint(u):
    if u.shape[-1] == 3:
        return np.swapaxes(u, -1, -2)
    return np.stack([np.stack([u[..., 1, 1], -u[..., 0, 1]], -1),
                     np.stack([-u[..., 1, 0], u[..., 0, 0]], -1)], -2)


def _matmul_polar_project(u):
    return 0.5 * u @ (3.0 * np.eye(u.shape[-1]) - _matmul_adjoint(u) @ u)


def _matmul_group_deviation(u):
    return np.abs(_matmul_adjoint(u) @ u - np.eye(u.shape[-1])).max()


def _group_stacks(rng):
    """Perturbed stacks near SO(3), SU(2), the complex orthogonal 3x3
    group and SL(2, C), with two batch axes; each also as the square block
    of a wider stack, a strided view like the march's [U | psi] states."""
    a = rng.normal(size=(4, 6, 3, 3))
    so3 = expm(a - np.swapaxes(a, -1, -2))
    h = rng.normal(size=(4, 6, 2, 2)) + 1j * rng.normal(size=(4, 6, 2, 2))
    h = h - np.swapaxes(h, -1, -2).conj()
    h -= np.trace(h, axis1=-2, axis2=-1)[..., None, None] / 2 * np.eye(2)
    su2 = expm(h)
    c = 0.25 * (rng.normal(size=(4, 6, 3, 3))
                + 1j * rng.normal(size=(4, 6, 3, 3)))
    co3 = expm(c - np.swapaxes(c, -1, -2))
    s = 0.25 * (rng.normal(size=(4, 6, 2, 2))
                + 1j * rng.normal(size=(4, 6, 2, 2)))
    sl2 = expm(s - np.trace(s, axis1=-2, axis2=-1)[..., None, None] / 2
               * np.eye(2))
    out = {}
    for name, g in (("so3", so3), ("su2", su2), ("co3", co3), ("sl2", sl2)):
        g = _perturb(g, rng)
        wide = np.concatenate([g, rng.normal(size=g.shape[:-1] + (1,))], -1)
        out[name], out[name + " view"] = g, wide[..., :-1]
    return out


def test_polar_project_and_group_deviation_match_matmul_formulas():
    for name, u in _group_stacks(np.random.default_rng(6)).items():
        want = _matmul_polar_project(u)
        dev = np.abs(polar_project(u) - want).max()
        assert dev <= 1e-15 * np.abs(want).max(), name
        dev = abs(group_deviation(u) - _matmul_group_deviation(u))
        assert dev <= 1e-15, name


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_group_deviation_propagates_non_finite(size, bad):
    # one NaN or inf entry anywhere in a stack on the group makes the
    # deviation non-finite (a Python max over per-entry maxima would drop
    # a NaN), so the march's transport check and the split's loop check
    # fail on it; the marches run under the same errstate
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j in np.ndindex(size, size):
            u = np.broadcast_to(np.eye(size, dtype=complex), (64, size, size))
            u = u.copy()
            u[37, i, j] = bad
            dev = group_deviation(u)
            assert np.isnan(dev) if np.isnan(bad) else not np.isfinite(dev)
            assert not np.isfinite(group_deviation(u.real)), (i, j)
            with pytest.raises(StepFailure, match="states non-finite"):
                frames._check_transport(u)
            with pytest.raises(ValueError, match="loop is not finite"):
                birkhoff_split(SampledLoop(u, twisted=True, real=True))
        # finite entries whose products overflow: u* u is not finite either
        u = np.full((4, size, size), 1e200)
        assert not np.isfinite(group_deviation(u))
        with pytest.raises(StepFailure, match="left the group"):
            frames._check_transport(u)


def test_cached_tables_are_read_only():
    # refine()'s Lagrange weights and the split's Toeplitz index tables are
    # built once per shape and shared: a write would corrupt later calls
    tables = [numerics._lagrange(6, 4), numerics._lagrange(3, 2),
              *loops._toeplitz(64, 16), *loops._toeplitz(8, 3)]
    assert numerics._lagrange(6, 4) is tables[0]
    assert loops._toeplitz(64, 16)[0] is tables[2]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0
