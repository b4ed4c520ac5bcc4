"""Matrix Laurent loops with twist/reality structure and numerical
Birkhoff factorization.

A loop is a finite Laurent series X(lambda) = sum_k X_k lambda^k with 3x3
coefficients. The twist constraint X(-lambda) = P X(lambda) P^{-1}
(P = diag(1,1,-1)) pins the parity of every entry: the (1,2)-block entries
carry even powers only, the entries mixing index 3 odd powers only.
Reality means real Fourier coefficients, i.e. conj(X(conj(lambda))) = X(lambda).

The Birkhoff factorization g = g_minus * g_plus (normalized g_minus -> I
at infinity) is computed by a block-Toeplitz least-squares solve for
g_minus^{-1} followed by sample-space inversion; it exists only on the big
cell, and failure is reported through BigCellViolation.
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
_ORTHO_TOL = 1e-6       # largest |g^T g - I| of a loop on the circle


@dataclass
class LaurentLoop:
    """Finite matrix Laurent series in the spectral parameter."""

    coeffs: dict
    twisted: bool = False
    real: bool = False

    def __post_init__(self):
        clean = {}
        for k, c in self.coeffs.items():
            c = np.asarray(c)
            if c.shape != (3, 3):
                raise ValueError("loop coefficients must be 3x3")
            if not np.iscomplexobj(c):
                c = c.astype(float)
            clean[int(k)] = c
        self.coeffs = clean

    @classmethod
    def identity(cls):
        return cls({0: np.eye(3)}, twisted=True, real=True)

    @property
    def kmin(self):
        return min(0, min(self.coeffs, default=0))

    @property
    def kmax(self):
        return max(0, max(self.coeffs, default=0))

    def coeff(self, k):
        return self.coeffs.get(k, np.zeros((3, 3)))

    def trim(self, tol=1e-15):
        kept = {k: c for k, c in self.coeffs.items() if np.abs(c).max() > tol}
        if not kept:
            kept = {0: np.zeros((3, 3))}
        return LaurentLoop(kept, twisted=self.twisted, real=self.real)

    def reversed(self):
        """The loop lambda -> X(1/lambda)."""
        return LaurentLoop({-k: c for k, c in self.coeffs.items()},
                           twisted=self.twisted, real=self.real)


@dataclass
class SampledLoop:
    """Loop values at n equispaced points exp(2*pi*i*s/n) of the circle."""

    values: np.ndarray
    twisted: bool = field(default=None)
    real: bool = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        n = self.values.shape[0]
        if self.values.shape != (n, 3, 3) or n < 4 or n & (n - 1):
            raise ValueError("samples must have shape (n, 3, 3), n a power of two")

    @property
    def n(self):
        return self.values.shape[0]

    def points(self):
        return _circle_points(self.n)

    def to_laurent(self):
        """Fourier coefficients of the samples as a LaurentLoop
        (modes -n/2 .. n/2-1). Twist/reality flags are taken from the
        sampled loop when set, detected at tolerance 1e-6 otherwise."""
        loop = LaurentLoop(_fft_coeffs(self.values)).trim(1e-300)
        loop.twisted = self.twisted if self.twisted is not None \
            else check_twist(loop, tol=1e-6)
        loop.real = self.real if self.real is not None \
            else check_reality(loop, tol=1e-6)
        return loop


def loop_norm(x):
    """Wiener norm: sum over powers of the max-row-sum matrix norm."""
    return float(sum(wiener_matrix_norm(c) for c in x.coeffs.values()))


def multiply(x, y):
    """Cauchy product of two loops; degree bounds add."""
    out = {}
    for kx, cx in x.coeffs.items():
        for ky, cy in y.coeffs.items():
            k = kx + ky
            prod = cx @ cy
            if k in out:
                out[k] = out[k] + prod
            else:
                out[k] = prod
    return LaurentLoop(out, twisted=x.twisted and y.twisted,
                       real=x.real and y.real)


def loop_eval(x, lam):
    """Evaluate sum_k X_k lam^k; lam may be an array (appended axes 3x3)."""
    lam = np.asarray(lam, dtype=complex)
    if np.any(lam == 0):
        raise ZeroSpectralParameter("loop evaluation at lambda = 0")
    out = np.zeros(lam.shape + (3, 3), dtype=complex)
    for k, c in x.coeffs.items():
        out += lam[..., None, None] ** k * c
    return out


def twist_deviation(x):
    """Largest entry that breaks X_k = (-1)^k P X_k P, over all powers k."""
    return max((float(np.abs(c[_CROSS if k % 2 == 0 else _BLOCK]).max())
                for k, c in x.coeffs.items()), default=0.0)


def check_twist(x, tol=1e-11):
    """True iff X_k = (-1)^k P X_k P for every coefficient."""
    return twist_deviation(x) <= tol


def check_reality(x, tol=1e-11):
    """True iff every coefficient is real within tol."""
    for c in x.coeffs.values():
        if np.iscomplexobj(c) and np.abs(c.imag).max() > tol:
            return False
    return True


def _circle_points(n):
    """The n-th roots of unity exp(2 pi i s / n), s = 0 .. n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _fft_coeffs(samples):
    n = samples.shape[0]
    c = np.fft.fft(samples, axis=0) / n
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    return {int(k): c[i] for i, k in enumerate(ks)}


def _clean_factor(coeffs, twisted, real):
    """Enforce inherited twist/reality structure, zeroing violations up to
    _CLEAN_TOL = 1e-7; larger ones are reported and the flag dropped."""
    out = {}
    for k, c in coeffs.items():
        c = np.array(c, dtype=complex)
        if twisted:
            mask = _CROSS if k % 2 == 0 else _BLOCK
            viol = np.abs(c[mask]).max() if mask.any() else 0.0
            if viol > _CLEAN_TOL:
                warnings.warn(f"twist violation {viol:.2e} in factor "
                              f"coefficient {k}; flag dropped")
                twisted = False
            else:
                c[mask] = 0.0
        out[k] = c
    if real:
        viol = max((np.abs(c.imag).max() for c in out.values()), default=0.0)
        if viol > _CLEAN_TOL:
            warnings.warn(f"reality violation {viol:.2e} in factor; flag dropped")
            real = False
        else:
            out = {k: c.real for k, c in out.items()}
    return LaurentLoop(out, twisted=twisted, real=real).trim()


def _solve_minus(gc, g_samples, lams, trunc):
    """Least-squares solve for h = g_minus^{-1} = I + sum_{k<0} Y_k lam^k
    such that h*g has no Fourier modes in -1 .. -(trunc + 8)."""
    def g(k):
        return gc.get(k, np.zeros((3, 3)))

    mrows = trunc + 8
    t = np.zeros((3 * trunc, 3 * mrows), dtype=complex)
    b = np.zeros((3, 3 * mrows), dtype=complex)
    for mi in range(mrows):
        m = -(mi + 1)
        b[:, 3 * mi:3 * mi + 3] = -g(m)
        for j in range(1, trunc + 1):
            t[3 * (j - 1):3 * j, 3 * mi:3 * mi + 3] = g(m + j)
    sol, _, _, sv = np.linalg.lstsq(t.T, b.T, rcond=None)
    cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
    y = sol.T

    h_samples = np.broadcast_to(np.eye(3, dtype=complex), (lams.size, 3, 3)).copy()
    for j in range(1, trunc + 1):
        h_samples += lams[:, None, None] ** (-j) * y[:, 3 * (j - 1):3 * j]
    f1_samples = np.linalg.inv(h_samples)
    f2_samples = h_samples @ g_samples

    f1c = _fft_coeffs(f1_samples)
    f2c = _fft_coeffs(f2_samples)
    kmax_g = max((k for k in gc), default=0)
    f1 = {k: f1c[k] for k in range(-trunc, 0) if k in f1c}
    f1[0] = np.eye(3, dtype=complex)
    f2 = {k: f2c[k] for k in range(0, max(kmax_g, 0) + trunc + 1) if k in f2c}
    return f1, f2, cond


def _residual_norm(gc, f1, f2):
    prod = multiply(LaurentLoop(f1), LaurentLoop(f2))
    keys = set(prod.coeffs) | set(gc)
    tot = 0.0
    for k in keys:
        tot += wiener_matrix_norm(prod.coeff(k) - gc.get(k, np.zeros((3, 3))))
    return float(tot)


def birkhoff_split(g, direction="minus-first", truncation=16, tol=1e-10):
    """Factor a loop as g = factor1 * factor2.

    minus-first: factor1 = I + (strictly negative powers), factor2 holds
    only nonnegative powers. plus-first is the mirror image (factor1
    normalized to I at lambda = 0, factor2 nonpositive). Twist and reality
    flags of g are inherited by both factors, whose violations up to
    _CLEAN_TOL = 1e-7 are zeroed.

    g may be a LaurentLoop or a SampledLoop; it must be orthogonal-valued
    on the unit circle within _ORTHO_TOL = 1e-6. The Fourier truncation
    doubles, up to _MAX_TRUNCATION = 256, until the reconstruction
    residual (Wiener norm of g - factor1*factor2) drops below tol.

    Raises BigCellViolation when the truncated system is ill-conditioned
    beyond _COND_THRESHOLD = 1e8 (the loop lies outside the big cell), and
    TruncationTooSmall when the residual stops decreasing.
    """
    if direction not in ("minus-first", "plus-first"):
        raise ValueError(f"unknown direction {direction!r}")

    if isinstance(g, SampledLoop):
        loop = g.to_laurent()
        n_samples = g.n
        sample_cap = g.n // 2 - 1
    elif isinstance(g, LaurentLoop):
        loop = g
        n_samples = None
        sample_cap = None
    else:
        raise TypeError("g must be a LaurentLoop or SampledLoop")

    if direction == "plus-first":
        m1, m2 = birkhoff_split(loop.reversed(), "minus-first", truncation,
                                tol)
        return m1.reversed(), m2.reversed()

    gc = loop.coeffs
    spread = max(loop.kmax, -loop.kmin, 1)

    trunc = truncation
    if sample_cap is not None:
        trunc = min(trunc, sample_cap)
    prev_res = np.inf
    while True:
        n = n_samples or 1 << int(np.ceil(np.log2(4 * (trunc + spread + 1))))
        lams = _circle_points(n)
        g_samples = loop_eval(loop, lams)
        dev = np.abs(np.swapaxes(g_samples, -1, -2) @ g_samples - np.eye(3)).max()
        if dev > _ORTHO_TOL:
            raise ValueError(
                f"loop is not orthogonal-valued on the circle (dev {dev:.2e})")

        f1c, f2c, cond = _solve_minus(gc, g_samples, lams, trunc)
        if not np.isfinite(cond) or cond > _COND_THRESHOLD:
            raise BigCellViolation(
                f"splitting system condition number {cond:.2e} exceeds "
                f"{_COND_THRESHOLD:.1e}; loop outside the big cell")
        res = _residual_norm(gc, f1c, f2c)
        if res <= tol:
            break
        if trunc >= _MAX_TRUNCATION:
            raise TruncationTooSmall(
                f"residual {res:.2e} above {tol:.1e} at max truncation {trunc}")
        if sample_cap is not None and 2 * trunc > sample_cap:
            raise TruncationTooSmall(
                f"residual {res:.2e} above {tol:.1e}; samples support at "
                f"most {sample_cap} Fourier blocks")
        if res > 0.5 * prev_res:
            raise TruncationTooSmall(
                f"residual stalled at {res:.2e} (was {prev_res:.2e})")
        prev_res = res
        trunc *= 2

    factor1 = _clean_factor(f1c, loop.twisted, loop.real)
    factor2 = _clean_factor(f2c, loop.twisted, loop.real)
    return factor1, factor2


def save_loop_json(x, path):
    """Write a real loop as JSON with row-major coefficient arrays."""
    if not check_reality(x, tol=1e-12):
        raise ValueError("loop JSON stores real loops only")
    payload = {
        "kmin": x.kmin,
        "kmax": x.kmax,
        "twisted": bool(x.twisted),
        "real": bool(x.real),
        "coeffs": {str(k): [float(v) for v in np.real(c).ravel()]
                   for k, c in x.coeffs.items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_loop_json(path):
    with open(path) as fh:
        payload = json.load(fh)
    coeffs = {int(k): np.asarray(v, dtype=float).reshape(3, 3)
              for k, v in payload["coeffs"].items()}
    return LaurentLoop(coeffs, twisted=bool(payload.get("twisted", False)),
                       real=bool(payload.get("real", True)))
