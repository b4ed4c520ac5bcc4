"""Matrix Laurent loops with twist/reality structure and numerical
Birkhoff factorization.

A loop is a finite Laurent series X(lambda) = sum_k X_k lambda^k with 3x3
or 2x2 (spinor) coefficients. The twist X(-lambda) = P X(lambda) P^{-1}
(P = diag(1,1,-1), or sigma3 for 2x2) pins the parity of every entry: the
entries P keeps carry even powers only, the others odd powers only.
Reality means X_k = conj(X_k) (3x3) or sigma2 conj(X_k) sigma2 (2x2).

The Birkhoff factorization g = g_minus * g_plus (normalized g_minus -> I
at infinity) is computed from the samples of g at the n-th roots of unity
and their Fourier coefficients (powers -n/2 .. n/2 - 1) by a block-Toeplitz
least-squares solve for g_minus^{-1} followed by sample-space inversion.
plus-first is the same split of g(1/lambda), and n samples support at most
n/2 - 1 Fourier blocks in either direction. The factorization exists only
on the big cell; failure is reported through BigCellViolation.
"""

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import P_TWIST, wiener_matrix_norm
from .errors import BigCellViolation, TruncationTooSmall, ZeroSpectralParameter
from .numerics import _det, group_deviation

__all__ = [
    "LaurentLoop", "SampledLoop", "loop_eval", "twist_deviation",
    "birkhoff_split", "save_loop_json", "load_loop_json",
]

# P X P for the twist P: a sign flip per entry. The entries it keeps
# ("block") live at even powers, the others at odd powers. For 2x2,
# sigma2 X sigma2 = _SIGNS[2] * X[::-1, ::-1] too.
_SIGNS = {m: np.outer(d, d) for m, d in ((3, np.diag(P_TWIST)), (2, (1, -1)))}
_BLOCK = {m: s > 0 for m, s in _SIGNS.items()}
_SHAPES = ((3, 3), (2, 2))

_MAX_TRUNCATION = 256   # largest Fourier truncation birkhoff_split tries
_COND_THRESHOLD = 1e8   # split condition number beyond the big cell
_CLEAN_TOL = 1e-7       # largest structure violation zeroed in a factor
_TRIM = 1e-3            # factor tails trimmed up to _TRIM * the split tol
_ORTHO_TOL = 1e-6       # largest |g^T g - I|, |det g - 1| of a loop on the circle


@dataclass
class LaurentLoop:
    """Finite matrix Laurent series sum_k X_k lambda^k: the (K, m, m) stack
    (m = 3 or 2) of its coefficients at the powers kmin .. kmin + K - 1."""

    stack: np.ndarray
    kmin: int
    twisted: bool = False
    real: bool = False

    def __post_init__(self):
        kind = complex if np.iscomplexobj(self.stack) else float
        self.stack, self.kmin = np.asarray(self.stack, kind), int(self.kmin)
        if self.stack.shape[1:] not in _SHAPES or not self.kmin <= 0 <= self.kmax:
            raise ValueError("stack must be (K, m, m), m = 3 or 2, with 0 "
                             "among the powers kmin .. kmax")

    @classmethod
    def from_dict(cls, coeffs, twisted=False, real=False):
        """The loop {power: 3x3}; the powers that coeffs leaves out are 0."""
        ks = [int(k) for k in coeffs]
        kmin = min([0, *ks])
        stack = np.zeros((max([0, *ks]) - kmin + 1, 3, 3),
                         dtype=np.result_type(float, *coeffs.values()))
        for k, c in zip(ks, coeffs.values()):
            stack[k - kmin] = c
        return cls(stack, kmin, twisted, real)

    @property
    def kmax(self):
        return self.kmin + len(self.stack) - 1

    @property
    def coeffs(self):
        """{power: m x m} over kmin .. kmax, a new dict on every access."""
        return dict(zip(range(self.kmin, self.kmax + 1), self.stack))


@dataclass
class SampledLoop:
    """Loop values at n equispaced points exp(2*pi*i*s/n) of the circle,
    with the twist/reality flags its maker states."""

    values: np.ndarray
    twisted: bool = False
    real: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.values.shape[0]
        if self.values.shape[1:] not in _SHAPES or n < 4 or n & (n - 1):
            raise ValueError("samples must be (n, m, m), m = 3 or 2, n = 2^k")

    def to_laurent(self):
        """Fourier coefficients of the samples as a LaurentLoop
        (powers -n/2 .. n/2-1) with the sampled loop's flags."""
        return LaurentLoop(np.fft.fftshift(_fft_coeffs(self.values), axes=0),
                           -(len(self.values) // 2), self.twisted, self.real)


def loop_eval(x, lam):
    """Evaluate sum_k X_k lam^k; lam may be an array (appended axes m x m)."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam == 0):
        raise ZeroSpectralParameter("loop evaluation at lambda = 0")
    powers = np.arange(x.kmin, x.kmax + 1)
    return np.tensordot(lam[..., None] ** powers, x.stack, axes=1)


def _twist_violation(stack, kmin):
    """The entries of the coefficient stack at powers kmin, kmin + 1, ..
    that break the twist X_k = (-1)^k P X_k P, with every other entry 0."""
    even = (np.arange(len(stack)) + kmin) % 2 == 0
    block = _BLOCK[stack.shape[-1]]
    forbidden = np.where(even[:, None, None], ~block, block)
    return np.where(forbidden, stack, 0.0)


def twist_deviation(x):
    """Largest entry that breaks X_k = (-1)^k P X_k P, over all powers k."""
    return float(np.abs(_twist_violation(x.stack, x.kmin)).max())


def _circle_points(n):
    """The n-th roots of unity exp(2 pi i s / n), s = 0 .. n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _fft_coeffs(samples):
    """Fourier coefficients of samples at the n-th roots of unity, an
    (n, m, m) stack indexed by power mod n."""
    return np.fft.fft(samples, axis=0) / len(samples)


def _clean_factor(c, ks, twisted, real, tol):
    """The factor with the coefficient stack c at the ascending powers ks
    (0 among them) as a LaurentLoop, enforcing inherited twist/reality
    structure: violations up to _CLEAN_TOL = 1e-7 are zeroed (reality by
    averaging c with its mirror, conj(c) or sigma2 conj(c) sigma2), larger
    ones are reported and the flag dropped. The outer powers, not 0, whose
    Wiener norms sum to at most _TRIM * tol at either end are trimmed."""
    if twisted:
        viol = _twist_violation(c, ks[0])
        worst = np.abs(viol).max(axis=(1, 2))
        k = np.argmax(worst > _CLEAN_TOL)  # the first violation, if any
        if worst[k] > _CLEAN_TOL:
            warnings.warn(f"twist violation {worst[k]:.2e} in factor "
                          f"coefficient {ks[k]}; flag dropped")
            twisted = False
        else:
            c = c - viol  # exactly zero where the twist forbids an entry
    if real:
        m = c.shape[-1]
        mirror = c.conj() if m == 3 else _SIGNS[2] * c[:, ::-1, ::-1].conj()
        viol = np.abs(c - mirror).max() / 2
        if viol > _CLEAN_TOL:
            warnings.warn(f"reality violation {viol:.2e} in factor; flag dropped")
            real = False
        else:
            c = c.real if m == 3 else (c + mirror) / 2
    w, cut = wiener_matrix_norm(c), _TRIM * tol
    inner = (np.cumsum(w) > cut) & (np.cumsum(w[::-1])[::-1] > cut)
    kept = np.flatnonzero(inner | (ks == 0))
    return LaurentLoop(c[kept[0]:kept[-1] + 1], ks[kept[0]], twisted, real)


@functools.cache
def _toeplitz(n, trunc):
    """`_solve_minus`'s read-only index tables: block (j, m) = g_{j-m},
    j = 0 .. trunc, m = 1 .. trunc + 8, as j - m mod n, n (the zero block)
    outside -n/2 .. n/2 - 1 so rows do not alias; j mod 2, m mod 2."""
    j, m = np.arange(trunc + 1)[:, None], np.arange(1, trunc + 9)
    p = j - m
    tables = np.where((p >= -(n // 2)) & (p < n // 2), p % n, n), j % 2, m % 2
    for t in tables:
        t.flags.writeable = False
    return tables


def _solve_minus(g, trunc, real):
    """Least-squares solve for h = g_minus^{-1} = I + sum_{j=1..trunc}
    Y_j lam^-j such that h*g has no Fourier modes in -1 .. -(trunc + 8), g
    sampled at the n-th roots of unity. Returns the coefficients of
    g_minus = h^{-1} and g_plus = h g in one stack (by power mod n), cut
    to the powers -trunc .. 0 and 0 .. n/2 - 1, and the condition number.
    A 2x2 g is twisted and real, so Y_j = [[a_j, b_j], [-conj b_j, conj
    a_j]], a_j = 0 at odd j and b_j = 0 at even j: h's first row holds
    one unknown u_j per power and its second row follows (the equations
    of the second are the first's conjugates: the same condition)."""
    n, size = len(g), g.shape[-1]
    c = np.concatenate([_fft_coeffs(g), np.zeros((1, size, size))])
    blocks, j, m = _toeplitz(n, trunc)
    h = np.zeros((n, size, size), dtype=complex)
    if size == 3:
        # sum_{j>0} Y_j g_{j-m} = -g_{-m}, transposed: rows (m, column of
        # g), columns (j, row of g)
        a = c[blocks].transpose(1, 3, 0, 2).reshape(3 * (trunc + 8), -1)
        a = a.real if real else a  # a real loop's coefficients are real
        sol, _, _, sv = np.linalg.lstsq(a[:, 3:], -a[:, :3], rcond=None)
        h[-np.arange(1, trunc + 1)] = sol.reshape(trunc, 3, 3).transpose(0, 2, 1)
    else:
        # sum_{j>0} u_j g_{j-m}[j mod 2, m mod 2] = -g_{-m}[0, m mod 2]
        a = c[blocks, j, m].T
        sol, _, _, sv = np.linalg.lstsq(a[:, 1:], -a[:, 0], rcond=None)
        h[-np.arange(1, trunc + 1), 0, j[1:, 0]] = sol
        h += _SIGNS[2] * h[:, ::-1, ::-1].conj()  # row 2: sigma2 conj(h) sigma2
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
    h[0] = np.eye(size)
    h = n * np.fft.ifft(h, axis=0)
    if size == 3:
        inv = np.linalg.inv(h)
    else:  # adj(h) / det(h)
        inv = _SIGNS[2] * h.transpose(0, 2, 1)[:, ::-1, ::-1]
        inv /= _det(h)[:, None, None]
    f = np.fft.fft(np.stack([inv, h @ g]), axis=1) / n  # both factors
    f[0, 1:n - trunc] = 0.0
    f[0, 0] = np.eye(size)
    f[1, n // 2:] = 0.0
    return f, cond


def _residual_norm(g, f1, f2):
    """The split residual, Wiener norm of g - f1 f2, from the samples of
    the three loops at the n-th roots of unity; exact when the powers of
    g - f1 f2 fit in n consecutive ones."""
    return float(wiener_matrix_norm(_fft_coeffs(g - f1 @ f2)).sum())


def birkhoff_split(g, direction="minus-first", truncation=16, tol=1e-10):
    """Factor a loop as g = factor1 * factor2.

    minus-first: factor1 = I + (strictly negative powers), factor2 holds
    only nonnegative powers. plus-first is the minus-first split of
    g(1/lambda) with the powers of both factors negated (factor1
    normalized to I at lambda = 0, factor2 nonpositive). Twist and reality
    flags of g are inherited by both factors, whose violations up to
    _CLEAN_TOL = 1e-7 are zeroed, and whose tails of Wiener norm at most
    _TRIM * tol = 1e-3 tol are trimmed.

    g is split through its samples at the n-th roots of unity: a
    SampledLoop's own, a LaurentLoop's at n = 2^ceil(log2 4 (truncation +
    spread + 1)), spread its largest |power|. It must be finite and
    on its group on the circle within _ORTHO_TOL = 1e-6, |g^T g - I| or
    |det g - 1| (else ValueError), and a 2x2 loop twisted and real (else
    ValueError). The Fourier truncation doubles, capped at n/2 - 1 and
    _MAX_TRUNCATION = 256, until the residual (Wiener norm of
    g - factor1*factor2) drops below tol.

    Raises ValueError unless truncation is an integer in 1 .. 256 and
    0 < tol < inf, BigCellViolation when the truncated system is
    ill-conditioned beyond _COND_THRESHOLD = 1e8 (the loop lies outside
    the big cell), and TruncationTooSmall when the residual stops
    decreasing or the truncation reaches either cap.
    """
    if direction not in ("minus-first", "plus-first"):
        raise ValueError(f"unknown direction {direction!r}")
    if not isinstance(truncation, (int, np.integer)) or truncation < 1:
        raise ValueError(f"truncation must be an integer >= 1, not "
                         f"{truncation!r}")
    if truncation > _MAX_TRUNCATION:
        raise ValueError(f"truncation must be at most {_MAX_TRUNCATION}, not "
                         f"{truncation!r}")
    if not 0 < tol < np.inf:  # NaN compares False
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    if isinstance(g, SampledLoop):
        def sample(trunc):
            return g.values
    elif isinstance(g, LaurentLoop):
        spread = max(g.kmax, -g.kmin, 1)

        def sample(trunc):
            n = 1 << int(np.ceil(np.log2(4 * (trunc + spread + 1))))
            return loop_eval(g, _circle_points(n))
    else:
        raise TypeError("g must be a LaurentLoop or SampledLoop")
    # plus-first splits g(1/lambda): samples g[-s mod n], powers negated
    sign = 1 if direction == "minus-first" else -1

    trunc, prev_res = truncation, np.inf
    while True:
        samples = sample(trunc)
        n = len(samples)
        cap = n // 2 - 1
        trunc = min(trunc, cap)
        samples = samples if sign > 0 else samples[-np.arange(n) % n]
        size = samples.shape[-1]
        if size == 2 and not (g.twisted and g.real):
            raise ValueError("a 2x2 loop is split only when twisted and real")
        dev = group_deviation(samples)
        if not dev <= _ORTHO_TOL:  # NaN compares False
            what = ("finite" if not np.isfinite(dev) else
                    "orthogonal-valued" if size == 3 else "of determinant 1")
            raise ValueError(
                f"loop is not {what} on the circle (dev {dev:.2e})")

        f, cond = _solve_minus(samples, trunc, g.real)
        if not np.isfinite(cond) or cond > _COND_THRESHOLD:
            raise BigCellViolation(
                f"splitting system condition number {cond:.2e} exceeds "
                f"{_COND_THRESHOLD:.1e}; loop outside the big cell")
        res = _residual_norm(samples, *n * np.fft.ifft(f, axis=1))
        if res <= tol:
            break
        if trunc >= _MAX_TRUNCATION:
            raise TruncationTooSmall(
                f"residual {res:.2e} above {tol:.1e} at max truncation {trunc}")
        if trunc >= cap:
            raise TruncationTooSmall(
                f"residual {res:.2e} above {tol:.1e}; samples support at "
                f"most {cap} Fourier blocks")
        if res > 0.5 * prev_res:
            raise TruncationTooSmall(
                f"residual stalled at {res:.2e} (was {prev_res:.2e})")
        prev_res = res
        trunc = min(2 * trunc, _MAX_TRUNCATION)

    # each factor's powers, ascending; coefficient k sits at sign * k mod n
    p1 = sign * np.arange(-trunc, 1)[::sign]
    p2 = sign * np.arange(n // 2)[::sign]
    return (_clean_factor(f[0, sign * p1 % n], p1, g.twisted, g.real, tol),
            _clean_factor(f[1, sign * p2 % n], p2, g.twisted, g.real, tol))


def save_loop_json(x, path):
    """Write a real 3x3 loop as JSON, row-major coefficients at kmin .. kmax."""
    if (x.stack.shape[1:] != (3, 3)
            or not np.abs(x.stack.imag).max() <= 1e-12):  # NaN compares False
        raise ValueError("loop JSON stores real 3x3 loops only")
    payload = {
        "kmin": x.kmin,
        "kmax": x.kmax,
        "twisted": bool(x.twisted),
        "real": bool(x.real),
        "coeffs": dict(zip(map(str, range(x.kmin, x.kmax + 1)),
                           x.stack.real.reshape(-1, 9).tolist())),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_loop_json(path):
    """Read a loop JSON file; omitted powers are zero, absent flags mean
    twisted false, real true. ValueError, naming path, for a payload that is
    not a loop, a power beyond +-_MAX_TRUNCATION or a non-boolean flag."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            coeffs = {int(k): np.asarray(v, dtype=float).reshape(3, 3)
                      for k, v in payload["coeffs"].items()}
            if any(abs(k) > _MAX_TRUNCATION for k in coeffs):
                raise ValueError(f"a power beyond +-{_MAX_TRUNCATION}")
            flags = payload.get("twisted", False), payload.get("real", True)
            if not all(isinstance(v, bool) for v in flags):
                raise TypeError(f"flags {flags!r} are not JSON booleans")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a loop JSON file: {exc!r}") from None
    return LaurentLoop.from_dict(coeffs, *flags)
