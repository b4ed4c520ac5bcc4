import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psforge.algebra import E12, E13, E23, P_TWIST
from psforge.errors import (BigCellViolation, TruncationTooSmall,
                            ZeroSpectralParameter)
from psforge.frames import sample_frame_loop
from psforge.sinegordon import GridSpec
from psforge.loops import (LaurentLoop, SampledLoop, birkhoff_split,
                           check_reality, check_twist, load_loop_json,
                           loop_eval, loop_norm, multiply, save_loop_json)
from util import (coeff_dev, random_twisted_algebra, random_twisted_factor,
                  two_soliton)

rng = np.random.default_rng(5)


def test_loop_norm_values():
    assert loop_norm(LaurentLoop.identity()) == 1.0
    x = LaurentLoop.from_dict({1: E23, -1: E13})
    assert loop_norm(x) == 2.0


def test_loop_norm_submultiplicative():
    for _ in range(30):
        x = LaurentLoop.from_dict({k: rng.normal(size=(3, 3)) for k in range(-2, 3)})
        y = LaurentLoop.from_dict({k: rng.normal(size=(3, 3)) for k in range(-1, 4)})
        # brute-force Cauchy product of the truncated series
        prod = multiply(x, y)
        assert loop_norm(prod) <= loop_norm(x) * loop_norm(y) + 1e-10


def test_multiply_values():
    x = LaurentLoop.from_dict({k: rng.normal(size=(3, 3)) for k in range(-2, 2)})
    assert coeff_dev(multiply(x, LaurentLoop.identity()), x) == 0.0
    p = multiply(LaurentLoop.from_dict({1: E23}), LaurentLoop.from_dict({-1: E13}))
    assert np.array_equal(p.coeffs.get(0, 0.0), E23 @ E13)
    assert p.kmin == 0 and p.kmax == 0 or 0 in p.coeffs


def test_multiply_preserves_twist():
    for _ in range(20):
        x = LaurentLoop.from_dict(random_twisted_algebra(-3, 2, 1.0, rng))
        y = LaurentLoop.from_dict(random_twisted_algebra(-1, 4, 1.0, rng))
        assert check_twist(x) and check_twist(y)
        assert check_twist(multiply(x, y))


def test_eval():
    lam = 0.3 + 1.1j
    assert np.allclose(loop_eval(LaurentLoop.identity(), lam), np.eye(3))
    assert np.allclose(loop_eval(LaurentLoop.from_dict({1: E23}), 2.0), 2.0 * E23)
    with pytest.raises(ZeroSpectralParameter):
        loop_eval(LaurentLoop.identity(), 0.0)


def test_eval_twist_identity():
    x = LaurentLoop.from_dict(random_twisted_algebra(-3, 3, 1.0, rng))
    for lam in (0.7, 1.3 + 0.4j):
        lhs = loop_eval(x, -lam)
        rhs = P_TWIST @ loop_eval(x, lam) @ P_TWIST
        assert np.allclose(lhs, rhs)


def test_check_twist_examples():
    assert check_twist(LaurentLoop.from_dict({0: E12}))
    assert not check_twist(LaurentLoop.from_dict({0: E13}))
    # extended Maurer-Cartan coefficients at a node: lam^-1, lam^0, lam^1
    phi, phi_x = 1.1, 0.4
    omega = LaurentLoop.from_dict({
        -1: np.sin(phi) * E13 + np.cos(phi) * E23,
        0: phi_x * E12,
        1: -E23,
    })
    assert check_twist(omega)


def test_check_reality():
    assert check_reality(LaurentLoop.from_dict({0: E12}))
    assert not check_reality(LaurentLoop.from_dict({0: 1j * E12}))


def test_split_identity():
    f1, f2 = birkhoff_split(LaurentLoop.identity(), "minus-first")
    assert coeff_dev(f1, LaurentLoop.identity()) == 0.0
    assert coeff_dev(f2, LaurentLoop.identity()) == 0.0


def test_split_recovers_synthetic_product():
    for _ in range(10):
        gm = random_twisted_factor(-4, -1, rng)
        gp = random_twisted_factor(0, 4, rng)
        g = multiply(gm, gp)
        f1, f2 = birkhoff_split(g, "minus-first")
        assert coeff_dev(f1, gm) < 1e-8
        assert coeff_dev(f2, gp) < 1e-8
        assert f1.twisted and f1.real and f2.twisted and f2.real
        resid = multiply(f1, f2)
        dev = {k: resid.coeffs.get(k, 0.0) - g.coeffs.get(k, 0.0)
               for k in set(resid.coeffs) | set(g.coeffs)}
        assert sum(np.abs(v).sum(axis=1).max() for v in dev.values()) < 1e-10


def test_split_factor_shapes():
    gm = random_twisted_factor(-4, -1, rng)
    gp = random_twisted_factor(0, 4, rng)
    g = multiply(gm, gp)
    f1, f2 = birkhoff_split(g, "minus-first")
    assert f1.kmax == 0
    assert np.allclose(f1.coeffs.get(0, 0.0), np.eye(3))
    assert f2.kmin == 0
    p1, p2 = birkhoff_split(g, "plus-first")
    assert p1.kmin == 0
    assert np.allclose(p1.coeffs.get(0, 0.0), np.eye(3))
    assert p2.kmax == 0


@pytest.mark.parametrize("direction", ["minus-first", "plus-first"])
def test_split_uniqueness_across_sampling(direction):
    gm = random_twisted_factor(-4, -1, rng)
    gp = random_twisted_factor(0, 4, rng)
    g = multiply(gm, gp)
    lams64 = np.exp(2j * np.pi * np.arange(64) / 64)
    lams128 = np.exp(2j * np.pi * np.arange(128) / 128)
    s64 = SampledLoop(loop_eval(g, lams64), twisted=True, real=True)
    s128 = SampledLoop(loop_eval(g, lams128), twisted=True, real=True)
    a1, a2 = birkhoff_split(s64, direction, tol=1e-8)
    b1, b2 = birkhoff_split(s128, direction, tol=1e-8)
    assert coeff_dev(a1, b1) < 1e-9
    assert coeff_dev(a2, b2) < 1e-9


def test_plus_first_split_honours_sample_cap(soliton):
    # 16 samples support at most 7 Fourier blocks, whichever factor comes
    # first; the corner loop of the 201^2 soliton needs more
    loop = sample_frame_loop(soliton, 200, 200, 16, 2)
    for direction in ("minus-first", "plus-first"):
        with pytest.raises(TruncationTooSmall, match="at most 7 Fourier blocks"):
            birkhoff_split(loop, direction, tol=1e-6)


@pytest.mark.parametrize("direction", ["minus-first", "plus-first"])
def test_split_at_the_sample_cap(direction):
    # 16 samples: truncation 7, so the Toeplitz rows reach powers down to
    # -15, outside the samples' -8 .. 7; they must read as zero, not alias.
    # Factors this close to I are resolved by 16 samples.
    r = np.random.default_rng(3)
    if direction == "minus-first":
        f1, f2 = (random_twisted_factor(-2, -1, r, 0.02),
                  random_twisted_factor(0, 2, r, 0.02))
    else:
        f1, f2 = (random_twisted_factor(1, 2, r, 0.02),
                  random_twisted_factor(-2, 0, r, 0.02))
    lams = np.exp(2j * np.pi * np.arange(16) / 16)
    g = SampledLoop(loop_eval(multiply(f1, f2), lams), twisted=True, real=True)
    a, b = birkhoff_split(g, direction, tol=1e-8)
    assert coeff_dev(a, f1) < 1e-8
    assert coeff_dev(b, f2) < 1e-8


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), sampled=st.booleans(),
       direction=st.sampled_from(["minus-first", "plus-first"]))
def test_split_recovers_random_factors(seed, sampled, direction):
    # minus-first: g_minus g_plus with g_minus = I + powers -4 .. -1;
    # plus-first: g_plus g_minus with g_plus = I + powers 1 .. 4
    r = np.random.default_rng(seed)
    if direction == "minus-first":
        f1, f2 = random_twisted_factor(-4, -1, r), random_twisted_factor(0, 4, r)
    else:
        f1, f2 = random_twisted_factor(1, 4, r), random_twisted_factor(-4, 0, r)
    g = multiply(f1, f2)
    if sampled:
        lams = np.exp(2j * np.pi * np.arange(128) / 128)
        g = SampledLoop(loop_eval(g, lams), twisted=True, real=True)
    a, b = birkhoff_split(g, direction)
    assert coeff_dev(a, f1) < 1e-8
    assert coeff_dev(b, f2) < 1e-8
    assert a.twisted and a.real and b.twisted and b.real


def test_split_idempotent():
    gm = random_twisted_factor(-4, -1, rng)
    gp = random_twisted_factor(0, 4, rng)
    f1, f2 = birkhoff_split(multiply(gm, gp), "minus-first")
    g1, g2 = birkhoff_split(multiply(f1, f2), "minus-first")
    assert coeff_dev(f1, g1) < 1e-9
    assert coeff_dev(f2, g2) < 1e-9


def test_split_winding_loop_raises():
    n = 64
    lams = np.exp(2j * np.pi * np.arange(n) / n)
    c = (lams + 1.0 / lams) / 2.0
    s = (lams - 1.0 / lams) / 2.0j
    vals = np.zeros((n, 3, 3), complex)
    vals[:, 0, 0] = c
    vals[:, 0, 2] = s
    vals[:, 1, 1] = 1.0
    vals[:, 2, 0] = -s
    vals[:, 2, 2] = c
    with pytest.raises(BigCellViolation):
        birkhoff_split(SampledLoop(vals), "minus-first")


def test_split_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        birkhoff_split(LaurentLoop.from_dict({0: 2.0 * np.eye(3)}), "minus-first")


@pytest.mark.parametrize("kwargs, match", [
    ({"truncation": 0}, "truncation must be an integer >= 1, not 0"),
    ({"truncation": -3}, "truncation must be an integer >= 1, not -3"),
    ({"truncation": 2.5}, "truncation must be an integer >= 1, not 2.5"),
    ({"tol": np.nan}, "tol must be positive and finite, not nan"),
    ({"tol": -1.0}, "tol must be positive and finite, not -1.0"),
    ({"tol": 0.0}, "tol must be positive and finite, not 0.0"),
    ({"tol": np.inf}, "tol must be positive and finite, not inf"),
])
def test_split_rejects_bad_truncation_and_tol(kwargs, match):
    # rejected before any truncation is tried, on either loop type
    for loop in (LaurentLoop.identity(),
                 SampledLoop(np.tile(np.eye(3), (16, 1, 1)))):
        with pytest.raises(ValueError, match=match):
            birkhoff_split(loop, "minus-first", **kwargs)


def test_sampled_loop_shape_validation():
    with pytest.raises(ValueError):
        SampledLoop(np.zeros((13, 3, 3)))


def test_json_round_trip(tmp_path):
    g = multiply(random_twisted_factor(-3, -1, rng),
                 random_twisted_factor(0, 3, rng))
    path = tmp_path / "loop.json"
    save_loop_json(g, path)
    back = load_loop_json(path)
    assert back.twisted and back.real
    assert coeff_dev(back, g) == 0.0
    assert back.kmin == g.kmin and back.kmax == g.kmax


def test_split_rejects_non_finite_samples(capfd):
    # NaN passes no bound check by comparison; it must not reach LAPACK
    vals = np.tile(np.eye(3, dtype=complex), (16, 1, 1))
    vals[5, 1, 2] = np.nan
    for direction in ("minus-first", "plus-first"):
        with pytest.raises(ValueError, match="loop is not finite"):
            birkhoff_split(SampledLoop(vals), direction)
    captured = capfd.readouterr()
    assert "illegal value" not in captured.out + captured.err


def test_factor_lengths_ignore_rounding():
    # factor tails are trimmed against the split tolerance, so noise at
    # the rounding level leaves the number of powers of each factor alone
    f = two_soliton(GridSpec(-2.0, -2.0, 201, 201, 0.02, 0.02))
    for node in [(180, 30), (20, 190)]:
        u = sample_frame_loop(f, *node, 64, 2).values
        for direction in ("minus-first", "plus-first"):
            lengths = set()
            for seed in range(6):
                noise = np.random.default_rng(seed).standard_normal(u.shape)
                loop = SampledLoop(u * (1.0 + 4e-16 * noise * (seed > 0)),
                                   twisted=True, real=True)
                lengths.add(tuple(len(x.coeffs) for x in birkhoff_split(
                    loop, direction, tol=1e-6)))
            assert len(lengths) == 1, (node, direction, lengths)


def _random_loop(r, kmin, kmax):
    return LaurentLoop(r.normal(size=(kmax - kmin + 1, 3, 3)), kmin)


_spans = st.tuples(st.integers(-3, 0), st.integers(0, 3))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), spans=st.tuples(_spans, _spans, _spans))
def test_multiply_associative(seed, spans):
    r = np.random.default_rng(seed)
    x, y, z = (_random_loop(r, *s) for s in spans)
    a = multiply(multiply(x, y), z)
    b = multiply(x, multiply(y, z))
    assert (a.kmin, a.kmax) == (b.kmin, b.kmax)
    bound = loop_norm(x) * loop_norm(y) * loop_norm(z)
    assert np.abs(a.stack - b.stack).max() <= 1e-14 * bound


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), spans=st.tuples(_spans, _spans))
def test_eval_of_product_is_product_of_evals(seed, spans):
    r = np.random.default_rng(seed)
    x, y = (_random_loop(r, *s) for s in spans)
    lam = np.exp(2j * np.pi * r.uniform(size=5))
    # on the unit circle every value is bounded by the Wiener norm
    dev = loop_eval(multiply(x, y), lam) - loop_eval(x, lam) @ loop_eval(y, lam)
    assert np.abs(dev).max() <= 1e-14 * loop_norm(x) * loop_norm(y)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), span=_spans, twisted=st.booleans())
def test_loop_json_save_load_save_byte_identical(tmp_path, seed, span,
                                                 twisted):
    r = np.random.default_rng(seed)
    x = _random_loop(r, *span)
    x.stack *= 10.0 ** r.integers(-300, 300, size=x.stack.shape)
    x.stack[r.uniform(size=len(x.stack)) < 0.3] = 0.0
    x.twisted = twisted
    save_loop_json(x, tmp_path / "a.json")
    save_loop_json(load_loop_json(tmp_path / "a.json"), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
