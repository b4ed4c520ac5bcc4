"""Matrix Laurent loops with twist/reality structure and numerical
Birkhoff factorization.

A loop is a finite Laurent series X(lambda) = sum_k X_k lambda^k with 3x3
coefficients. The twist constraint X(-lambda) = P X(lambda) P^{-1}
(P = diag(1,1,-1)) pins the parity of every entry: the (1,2)-block entries
carry even powers only, the entries mixing index 3 odd powers only.
Reality means real Fourier coefficients, i.e. conj(X(conj(lambda))) = X(lambda).

The Birkhoff factorization g = g_minus * g_plus (normalized g_minus -> I
at infinity) is computed from the samples of g at the n-th roots of unity
and their Fourier coefficients (powers -n/2 .. n/2 - 1) by a block-Toeplitz
least-squares solve for g_minus^{-1} followed by sample-space inversion.
plus-first is the same split of g(1/lambda), and n samples support at most
n/2 - 1 Fourier blocks in either direction. The factorization exists only
on the big cell; failure is reported through BigCellViolation.
"""

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import wiener_matrix_norm
from .errors import BigCellViolation, TruncationTooSmall, ZeroSpectralParameter

__all__ = [
    "LaurentLoop", "SampledLoop", "loop_norm", "multiply", "loop_eval",
    "twist_deviation", "check_twist", "check_reality", "birkhoff_split",
    "save_loop_json", "load_loop_json",
]

# Entry masks for the twist parity rule: "block" entries (not mixing the
# third index) live at even powers, "cross" entries at odd powers.
_BLOCK = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)
_CROSS = ~_BLOCK

_MAX_TRUNCATION = 256   # largest Fourier truncation birkhoff_split tries
_COND_THRESHOLD = 1e8   # split condition number beyond the big cell
_CLEAN_TOL = 1e-7       # largest structure violation zeroed in a factor
_TRIM = 1e-3            # factor tails trimmed up to _TRIM * the split tol
_ORTHO_TOL = 1e-6       # largest |g^T g - I| of a loop on the circle


@dataclass
class LaurentLoop:
    """Finite matrix Laurent series sum_k X_k lambda^k: the (K, 3, 3) stack
    of its coefficients at the powers kmin .. kmin + K - 1, 0 among them."""

    stack: np.ndarray
    kmin: int
    twisted: bool = False
    real: bool = False

    def __post_init__(self):
        kind = complex if np.iscomplexobj(self.stack) else float
        self.stack, self.kmin = np.asarray(self.stack, kind), int(self.kmin)
        if self.stack.shape[1:] != (3, 3) or not self.kmin <= 0 <= self.kmax:
            raise ValueError("stack must be (K, 3, 3), kmin <= 0 <= kmax")

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

    @classmethod
    def identity(cls):
        return cls(np.eye(3)[None], 0, twisted=True, real=True)

    @property
    def kmax(self):
        return self.kmin + len(self.stack) - 1

    @property
    def coeffs(self):
        """{power: 3x3} over kmin .. kmax, a new dict on every access."""
        return dict(zip(range(self.kmin, self.kmax + 1), self.stack))


@dataclass
class SampledLoop:
    """Loop values at n equispaced points exp(2*pi*i*s/n) of the circle.
    Twist/reality flags left unset are detected from the Fourier
    coefficients of the samples at tolerance 1e-6."""

    values: np.ndarray
    twisted: bool = field(default=None)
    real: bool = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.values.shape[0]
        if self.values.shape != (n, 3, 3) or n < 4 or n & (n - 1):
            raise ValueError("samples must have shape (n, 3, 3), n a power of two")
        if self.twisted is None or self.real is None:
            loop = self.to_laurent()
            if self.twisted is None:
                self.twisted = check_twist(loop, tol=1e-6)
            if self.real is None:
                self.real = check_reality(loop, tol=1e-6)

    def to_laurent(self):
        """Fourier coefficients of the samples as a LaurentLoop
        (powers -n/2 .. n/2-1) with the sampled loop's flags."""
        return LaurentLoop(np.fft.fftshift(_fft_coeffs(self.values), axes=0),
                           -(len(self.values) // 2), self.twisted, self.real)


def loop_norm(x):
    """Wiener norm: sum over powers of the max-row-sum matrix norm."""
    return float(wiener_matrix_norm(x.stack).sum())


def multiply(x, y):
    """Cauchy product of two loops; degree bounds add."""
    out = np.zeros((len(x.stack) + len(y.stack) - 1, 3, 3),
                   dtype=np.result_type(x.stack, y.stack))
    for i, c in enumerate(x.stack):
        out[i:i + len(y.stack)] += c @ y.stack
    return LaurentLoop(out, x.kmin + y.kmin, twisted=x.twisted and y.twisted,
                       real=x.real and y.real)


def loop_eval(x, lam):
    """Evaluate sum_k X_k lam^k; lam may be an array (appended axes 3x3)."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam == 0):
        raise ZeroSpectralParameter("loop evaluation at lambda = 0")
    powers = np.arange(x.kmin, x.kmax + 1)
    return np.tensordot(lam[..., None] ** powers, x.stack, axes=1)


def _twist_violation(stack, kmin):
    """The entries of the coefficient stack at powers kmin, kmin + 1, ..
    that break the twist X_k = (-1)^k P X_k P, with every other entry 0."""
    even = (np.arange(len(stack)) + kmin) % 2 == 0
    forbidden = np.where(even[:, None, None], _CROSS, _BLOCK)
    return np.where(forbidden, stack, 0.0)


def twist_deviation(x):
    """Largest entry that breaks X_k = (-1)^k P X_k P, over all powers k."""
    return float(np.abs(_twist_violation(x.stack, x.kmin)).max())


def check_twist(x, tol=1e-11):
    """True iff X_k = (-1)^k P X_k P for every coefficient."""
    return twist_deviation(x) <= tol


def check_reality(x, tol=1e-11):
    """True iff every coefficient is real within tol."""
    return float(np.abs(x.stack.imag).max()) <= tol


def _circle_points(n):
    """The n-th roots of unity exp(2 pi i s / n), s = 0 .. n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _fft_coeffs(samples):
    """Fourier coefficients of samples at the n-th roots of unity, an
    (n, 3, 3) stack indexed by power mod n."""
    return np.fft.fft(samples, axis=0) / len(samples)


def _clean_factor(c, ks, twisted, real, tol):
    """The factor with the coefficient stack c at the ascending powers ks
    (0 among them) as a LaurentLoop, enforcing inherited twist/reality
    structure: violations up to _CLEAN_TOL = 1e-7 are zeroed, larger ones
    are reported and the flag dropped. The outer powers, not 0, whose
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
        viol = np.abs(c.imag).max()
        if viol > _CLEAN_TOL:
            warnings.warn(f"reality violation {viol:.2e} in factor; flag dropped")
            real = False
        else:
            c = c.real
    w, cut = wiener_matrix_norm(c), _TRIM * tol
    inner = (np.cumsum(w) > cut) & (np.cumsum(w[::-1])[::-1] > cut)
    kept = np.flatnonzero(inner | (ks == 0))
    return LaurentLoop(c[kept[0]:kept[-1] + 1], ks[kept[0]], twisted, real)


def _solve_minus(g, trunc, real):
    """Least-squares solve for h = g_minus^{-1} = I + sum_{j=1..trunc}
    Y_j lam^-j such that h*g has no Fourier modes in -1 .. -(trunc + 8), g
    sampled at the n-th roots of unity. Returns the coefficient stacks of
    g_minus = h^{-1} and g_plus = h g (indexed by power mod n) truncated to
    the powers -trunc .. 0 and 0 .. n/2 - 1, and the condition number."""
    n = len(g)
    c = np.concatenate([_fft_coeffs(g), np.zeros((1, 3, 3))])
    # block (j, m) = g_{j-m}, j = 0 .. trunc, m = 1 .. trunc + 8; powers
    # outside -n/2 .. n/2 - 1 read the zero block c[n], so rows do not alias
    p = np.arange(trunc + 1)[:, None] - np.arange(1, trunc + 9)
    blocks = c[np.where((p >= -(n // 2)) & (p < n // 2), p % n, n)]
    # sum_{j>0} Y_j g_{j-m} = -g_{-m}, transposed: rows (m, column of g),
    # columns (j, row of g)
    a = blocks.transpose(1, 3, 0, 2).reshape(3 * (trunc + 8), -1)
    a = a.real if real else a  # a real loop's coefficients are real
    sol, _, _, sv = np.linalg.lstsq(a[:, 3:], -a[:, :3], rcond=None)
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]

    h = np.zeros((n, 3, 3), dtype=complex)
    h[0] = np.eye(3)
    h[-np.arange(1, trunc + 1)] = sol.reshape(trunc, 3, 3).transpose(0, 2, 1)
    h = n * np.fft.ifft(h, axis=0)
    f1, f2 = _fft_coeffs(np.linalg.inv(h)), _fft_coeffs(h @ g)
    f1[1:n - trunc] = 0.0
    f1[0] = np.eye(3)
    f2[n // 2:] = 0.0
    return f1, f2, cond


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
    orthogonal-valued on the circle within _ORTHO_TOL = 1e-6 (else
    ValueError). The Fourier truncation doubles, capped at n/2 - 1, until
    the residual (Wiener norm of g - factor1*factor2) drops below tol.

    Raises ValueError unless truncation is an integer >= 1 and
    0 < tol < inf, BigCellViolation when the truncated system is
    ill-conditioned beyond _COND_THRESHOLD = 1e8 (the loop lies outside
    the big cell), and TruncationTooSmall when the residual stops
    decreasing or the truncation reaches n/2 - 1 or _MAX_TRUNCATION = 256.
    """
    if direction not in ("minus-first", "plus-first"):
        raise ValueError(f"unknown direction {direction!r}")
    if not isinstance(truncation, (int, np.integer)) or truncation < 1:
        raise ValueError(f"truncation must be an integer >= 1, not "
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
        samples = samples[sign * np.arange(n) % n]
        dev = np.abs(np.swapaxes(samples, -1, -2) @ samples - np.eye(3)).max()
        if not dev <= _ORTHO_TOL:  # NaN compares False
            what = "orthogonal-valued" if np.isfinite(dev) else "finite"
            raise ValueError(
                f"loop is not {what} on the circle (dev {dev:.2e})")

        f1, f2, cond = _solve_minus(samples, trunc, g.real)
        if not np.isfinite(cond) or cond > _COND_THRESHOLD:
            raise BigCellViolation(
                f"splitting system condition number {cond:.2e} exceeds "
                f"{_COND_THRESHOLD:.1e}; loop outside the big cell")
        res = _residual_norm(samples, *(n * np.fft.ifft(f, axis=0)
                                        for f in (f1, f2)))
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
        trunc *= 2

    # each factor's powers, ascending; coefficient k sits at sign * k mod n
    p1 = sign * np.arange(-trunc, 1)[::sign]
    p2 = sign * np.arange(n // 2)[::sign]
    return (_clean_factor(f1[sign * p1 % n], p1, g.twisted, g.real, tol),
            _clean_factor(f2[sign * p2 % n], p2, g.twisted, g.real, tol))


def save_loop_json(x, path):
    """Write a real loop as JSON, row-major coefficients at kmin .. kmax."""
    if not check_reality(x, tol=1e-12):
        raise ValueError("loop JSON stores real loops only")
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
    """Read a loop JSON file; the powers it leaves out are zero. A payload
    that is not a loop raises ValueError naming path."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
            coeffs = {int(k): np.asarray(v, dtype=float).reshape(3, 3)
                      for k, v in payload["coeffs"].items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a loop JSON file: {exc!r}") from None
    return LaurentLoop.from_dict(coeffs, bool(payload.get("twisted", False)),
                                 bool(payload.get("real", True)))
