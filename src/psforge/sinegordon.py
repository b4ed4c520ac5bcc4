"""Angle fields phi(x, y): exact soliton solutions and a Goursat solver
for phi_xy = sin(phi) from characteristic data phi(x,0), phi(0,y).

Asymptotic coordinates (x, y) live on a rectangular grid; phi is the angle
between the asymptotic directions. Weak regularity is tracked with a mask
(0 < phi < pi) instead of aborting when phi leaves the interval.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import IncompatibleCorner, NonconvergentCell
from .numerics import deriv4, refine

__all__ = [
    "GridSpec", "AngleField", "soliton_angle", "goursat_solve",
    "sg_residual", "save_angle_csv", "load_angle_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sample grid: node (i, j) sits at (x0 + i*hx, y0 + j*hy)."""

    x0: float
    y0: float
    nx: int
    ny: int
    hx: float
    hy: float

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 2
                   for n in (self.nx, self.ny)):
            raise ValueError("grid needs integer nx, ny >= 2")
        if not np.all(np.isfinite([self.x0, self.y0, self.hx, self.hy])):
            raise ValueError("grid origin and steps must be finite")
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError("grid steps must be positive")

    @property
    def xs(self):
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self):
        return self.y0 + self.hy * np.arange(self.ny)

    def origin_index(self):
        """Indices (i0, j0) of the node at the origin (`_origin_node`)."""
        return (_origin_node(self.x0, self.hx, self.nx, "the grid's x axis"),
                _origin_node(self.y0, self.hy, self.ny, "the grid's y axis"))

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")


def _origin_node(start, step, n, name):
    """Index k < n of the node at 0 on the axis start + k * step, which
    errors call name; ValueError unless one lies within 1e-9 (relative)."""
    k = round(-start / step) if step else 0   # step 0: every node at start
    if not 0 <= k < n:
        raise ValueError(f"{name} does not contain the origin")
    if abs(start + k * step) > 1e-9 * max(1.0, abs(start)):
        raise ValueError(f"the origin does not fall on a node of {name}")
    return k


def _check_nodes(grid):
    """Raise ValueError, naming the grid, unless each axis has the 5 nodes
    that 4th-order differences need."""
    if grid.nx < 5 or grid.ny < 5:
        raise ValueError(f"the {grid.nx}x{grid.ny} grid is too small: "
                         f"4th-order differences need at least 5 nodes per "
                         f"axis")


@dataclass
class AngleField:
    """Sampled angle phi(x, y) with optional analytic closures.

    phi and dphi_dx have shape (nx, ny); regular_mask is True exactly where
    0 < phi < pi. When a field comes from a closed-form solution the
    callables phi_fn, phix_fn, ... give exact values off the grid nodes;
    numerical consumers interpolate the samples (6-point Lagrange,
    `numerics.refine`) when they are absent. The closures are called with
    numpy arrays (x and y), the frame march's stage points against grid
    lines, and must broadcast them like numpy's elementwise functions.
    A field without them needs at least 5 nodes per axis (ValueError).
    """

    grid: GridSpec
    phi: np.ndarray
    dphi_dx: np.ndarray = None
    phi_fn: callable = None
    phix_fn: callable = None
    phiy_fn: callable = None
    phixy_fn: callable = None

    def __post_init__(self):
        if not self.analytic:
            _check_nodes(self.grid)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("phi shape does not match the grid")
        if self.dphi_dx is None:
            self.dphi_dx = deriv4(self.phi, self.grid.hx, axis=0)
        else:
            self.dphi_dx = np.asarray(self.dphi_dx, dtype=float)

    @property
    def regular_mask(self):
        return (self.phi > 0.0) & (self.phi < np.pi)

    @property
    def analytic(self):
        return self.phi_fn is not None

    def phi_y(self):
        if self.phiy_fn is not None:
            x, y = self.grid.meshgrid()
            return self.phiy_fn(x, y)
        return deriv4(self.phi, self.grid.hy, axis=1)

    def phi_xy(self):
        if self.phixy_fn is not None:
            x, y = self.grid.meshgrid()
            return self.phixy_fn(x, y)
        return deriv4(self.dphi_dx, self.grid.hy, axis=1)


def soliton_angle(a, grid):
    """One-soliton angle field phi = 4*arctan(exp(a*x + y/a)).

    Solves phi_xy = sin(phi) exactly; carries analytic derivative closures.
    a > 0 sets the characteristic speed.
    """
    if not 0 < a < np.inf:
        raise ValueError(f"soliton parameter a must be positive and finite, "
                         f"not {a!r}")
    _check_nodes(grid)

    def phi_fn(x, y):
        u = a * x + y / a
        # 4*atan(e^u) = 2*pi - 4*atan(e^-u); evaluate on the decaying branch
        out = np.where(u <= 0,
                       4.0 * np.arctan(np.exp(np.minimum(u, 0.0))),
                       2.0 * np.pi - 4.0 * np.arctan(np.exp(np.minimum(-u, 0.0))))
        return out

    def phix_fn(x, y):
        return 2.0 * a / np.cosh(a * x + y / a)

    def phiy_fn(x, y):
        return 2.0 / (a * np.cosh(a * x + y / a))

    def phixy_fn(x, y):
        u = a * x + y / a
        return -2.0 * np.tanh(u) / np.cosh(u)

    x, y = grid.meshgrid()
    return AngleField(grid, phi_fn(x, y), phix_fn(x, y),
                      phi_fn=phi_fn, phix_fn=phix_fn,
                      phiy_fn=phiy_fn, phixy_fn=phixy_fn)


def _goursat_raw(x_data, y_data, grid):
    """One trapezoidal sweep of phi_xy = sin(phi), every quadrant at once.

    The views f[i0::sx, j0::sy] march from their [0, 0]. Stacked, padded to
    (P, Q), in the skewed layout g[quad, d, p] = cell (p, d - p), with sin
    kept in s, the neighbours on diagonal d are slices of rows d - 1 and
    d - 2. Cell weights are sx*sy*hx*hy/4, 0 on padding, which never moves.
    """
    i0, j0 = grid.origin_index()
    f = np.zeros((grid.nx, grid.ny))
    f[:, j0], f[i0, :] = x_data, y_data
    quads = [(sx, sy, f[i0::sx, j0::sy]) for sx in (1, -1) for sy in (1, -1)]
    quads = [(sx, sy, v) for sx, sy, v in quads if min(v.shape) > 1]
    P, Q = np.max([v.shape for _, _, v in quads], axis=0)
    g, s, k = np.zeros((3, len(quads), P + Q - 1, P))
    cells = [as_strided(a, (len(quads), P, Q), (a.strides[0],
             a.strides[1] + a.strides[2], a.strides[1])) for a in (g, s, k)]
    for n, (sx, sy, v) in enumerate(quads):
        cg, cs, ck = (c[n, :v.shape[0], :v.shape[1]] for c in cells)
        cg[...] = v
        cs[0], cs[:, 0] = np.sin(v[0]), np.sin(v[:, 0])
        ck[1:, 1:] = sx * sy * grid.hx * grid.hy / 4.0
    for d in range(2, P + Q - 1):
        a, b = max(1, d - Q + 1), min(P, d)
        base = g[:, d - 1, a - 1:b - 1] + g[:, d - 1, a:b] \
            - g[:, d - 2, a - 1:b - 1]
        srest = s[:, d - 1, a - 1:b - 1] + s[:, d - 1, a:b] \
            + s[:, d - 2, a - 1:b - 1]
        kd, val = k[:, d, a:b], base
        for _ in range(20):
            new = base + kd * (np.sin(val) + srest)
            step = np.abs(new - val)
            val = new
            if step.max() < 1e-12:
                break
        else:
            sx, sy, _ = quads[np.flatnonzero(~(step.max(1) < 1e-12))[0]]
            raise NonconvergentCell(f"Picard iteration stalled on diagonal "
                                    f"{d} of quadrant ({sx:+d},{sy:+d})")
        g[:, d, a:b], s[:, d, a:b] = val, np.sin(val)
    for n, (_, _, v) in enumerate(quads):
        v[1:, 1:] = cells[0][n, 1:v.shape[0], 1:v.shape[1]]
    return f


def goursat_solve(x_data, y_data, grid):
    """Integrate phi_xy = sin(phi) from characteristic data.

    x_data[i] = phi(x_i, 0) and y_data[j] = phi(0, y_j) along the axes
    through the origin (which must be a grid node). Cell-by-cell
    trapezoidal quadrature of the conservation form, swept as one
    anti-diagonal wavefront over all quadrants and Picard-iterated to an
    update below 1e-12 in at most 20 iterations per diagonal, else
    NonconvergentCell (the lowest failing diagonal, and its first failing
    quadrant of (+1,+1), (+1,-1), (-1,+1), (-1,-1)). The plain sweep is
    second order; a half-step sweep (data refined by 6-point Lagrange
    interpolation, exact at the nodes) is combined with it by Richardson
    extrapolation, which removes the leading error term and reproduces the
    boundary data to machine precision.
    """
    _check_nodes(grid)
    x_data = np.asarray(x_data, dtype=float)
    y_data = np.asarray(y_data, dtype=float)
    if x_data.shape != (grid.nx,) or y_data.shape != (grid.ny,):
        raise ValueError("characteristic data lengths must match the grid")
    for name, data in (("x", x_data), ("y", y_data)):
        if not np.isfinite(data).all():
            raise ValueError(f"non-finite {name} characteristic data at node "
                             f"{np.flatnonzero(~np.isfinite(data))[0]}")
    i0, j0 = grid.origin_index()
    if abs(x_data[i0] - y_data[j0]) > 1e-12:
        raise IncompatibleCorner(
            f"phi(0,0) mismatch: {x_data[i0]!r} vs {y_data[j0]!r}")

    coarse = _goursat_raw(x_data, y_data, grid)
    half = GridSpec(grid.x0, grid.y0, 2 * grid.nx - 1, 2 * grid.ny - 1,
                    grid.hx / 2.0, grid.hy / 2.0)
    fine = _goursat_raw(refine(x_data, 2), refine(y_data, 2), half)
    return AngleField(grid, (4.0 * fine[::2, ::2] - coarse) / 3.0)


def sg_residual(f):
    """phi_xy - sin(phi), with phi_xy estimated by composed 4th-order
    centered differences (one-sided stencils on the boundary ring)."""
    cross = deriv4(deriv4(f.phi, f.grid.hx, axis=0), f.grid.hy, axis=1)
    return cross - np.sin(f.phi)


def save_angle_csv(f, path, derivative_path=None):
    """Write an angle field as CSV: header '# nx ny x0 y0 hx hy', then
    ny lines of nx comma-separated values (line j holds phi(:, y_j)),
    formatted by `_write_rows`."""
    g = f.grid
    for data, p in ((f.phi, path), (f.dphi_dx, derivative_path)):
        if p is None:
            continue
        with open(p, "w") as fh:
            _write_rows(fh, [[g.nx, g.ny, g.x0, g.y0, g.hx, g.hy]],
                        head="# ", sep=" ", ints=2)
            _write_rows(fh, data.T)


# values formatted per block in _write_rows: a block's cell matrix and
# text stay a few hundred kB whatever the size of the table
_BLOCK_VALUES = 8192

# Tables of the numpy %.17g and %d. A cell is a NUL-padded uint8 row;
# the NULs are squeezed out of the finished text.
_U = np.uint64
_E16, _E17 = _U(10 ** 16), _U(10 ** 17)
_POW5 = _U(5) ** np.arange(28, dtype=_U)
_d = np.indices((10,) * 4, np.uint8).reshape(4, -1)   # the digits of 0..9999
# each 4-digit group's ASCII bytes as one uint32, and its trailing zeros
_DIGITS4 = np.ascontiguousarray(_d.T + 48).view(np.uint32)[:, 0]
_TZ4 = (_d[3] == 0) * (1 + (_d[2] == 0) * (
    1 + (_d[1] == 0) * (1 + (_d[0] == 0))))
# _GROUP4[form * 10000 + g]: group g's text "0007" below a nonzero group
# (form 0), else with NULs for leading zeros (1, last group; 2, 0 blank)
_nd = np.searchsorted([1, 10, 100, 1000], np.arange(10000), "right")
_tail = (0xFF * (np.arange(4) >= 4 - np.arange(5)[:, None])
         ).astype(np.uint8).view(np.uint32)[:, 0]
_GROUP4 = np.concatenate([_DIGITS4, _DIGITS4 & _tail[np.maximum(_nd, 1)],
                          _DIGITS4 & _tail[_nd]])
# _SHOWN[keep]: over the 20 bytes of 5 groups (d0 padded to "000d"),
# 0xFF for the 3 padding bytes and the first `keep` digits
_SHOWN = (0xFF * (np.arange(20) < np.arange(3, 21)[:, None])
          ).astype(np.uint8).view(np.uint32)
# the layout key of a value: 0 for ±0, e + 12 (1..28) in the numpy
# range, 29 for '%.17g' % v; _LAST[key] is the index of the last digit
# before the '.' (-1 for 0.000ddd, 0 for d.ddde-XX)
_e = np.arange(-12, 18)
_LAST = np.where((_e >= 0) & (_e <= 16), _e, np.where(_e >= -4, -1, 0))
_G17 = 24                           # "-2.2250738585072014e-308"
del _d, _nd, _tail


def _scaled(M, q, e):
    """floor(x 10**(16 - e)) for x = M 2**(q - 53), and whether rounding
    it half to even goes up: M 5**(16 - e) < 2**116 in two uint64 limbs,
    shifted by s = 37 - q + e bits (-3 <= s <= 63 in range)."""
    F = _POW5.take(16 - e)
    m_hi, m_lo = M >> _U(32), M & _U(0xFFFFFFFF)
    f_hi, f_lo = F >> _U(32), F & _U(0xFFFFFFFF)
    mid = m_hi * f_lo + m_lo * f_hi
    lo0 = m_lo * f_lo
    lo = lo0 + (mid << _U(32))
    hi = m_hi * f_hi + (mid >> _U(32)) + (lo < lo0)
    s = 37 - q + e
    r = np.maximum(s, 1).astype(_U)
    floor = (hi << (_U(64) - r)) | (lo >> r)
    half = _U(1) << (r - _U(1))
    # past half, or at half with an odd floor (rem + 1 <= 2**63)
    up = (lo & (half + half - _U(1))) + (floor & _U(1)) > half
    left = np.flatnonzero(s <= 0)     # M 5**(16 - e) < 2**57 there
    if left.size:
        floor[left] = lo[left] << (-s[left]).astype(_U)
        up[left] = False
    return floor, up


def _frexp53(x):
    """x = M 2**(q - 53) with the integer M < 2**53."""
    m, q = np.frexp(x)
    return (m * 2.0 ** 53).astype(_U), q


# _TEN[k] is the least double >= 10**(k - 11), k < 28, by the exact test
# floor(x 10**(16 - e)) >= 10**16, so that x = M 2**(q - 53) has e =
# floor(log10 x) = e0 + (x >= _TEN[e0 + 12]), e0 = ((q - 1) 78913) >> 18 =
# floor((q - 1) log10 2); _TEN[0] and 1e16 bound the range
_TEN = 10.0 ** _e[1:29]
_TEN = np.where(_scaled(*_frexp53(_TEN), _e[1:29])[0] < _E16,
                np.nextafter(_TEN, np.inf), _TEN)
del _e


def _text_cells(texts, width):
    """NUL-padded cells of the given ASCII texts, a writable array."""
    data = bytearray(b"".join(t.encode().ljust(width, b"\0") for t in texts))
    return np.frombuffer(data, np.uint8).reshape(len(texts), width)


def _g17_cells(v):
    """(v.shape) + (_G17 + 1,) cells of '%.17g' % v, the last byte left
    for the separator. Finite |v| in [1e-11, 1e16) and ±0 are formatted
    in numpy, exactly: e = floor(log10 |v|) from frexp's exponent and
    _TEN, the 17 digits of |v| 10**(16 - e) rounded half to even
    (`_scaled`) in 4-digit groups, trailing zeros dropped, and the cells
    laid out by slices per layout key, sorted by it. nan, ±inf,
    subnormals and the rest of the range keep '%.17g' % v."""
    shape, v, n = v.shape, v.ravel(), v.size
    a = np.abs(v)
    fast = (a >= _TEN[0]) & (a < 1e16)
    x = np.where(fast, a, 1.0)
    M, q = _frexp53(x)
    e = (q - 1) * 78913 >> 18
    e += x >= _TEN.take(e + 12)
    floor, up = _scaled(M, q, e)
    D = floor + up
    carry = D == _E17
    D[carry] = _E16
    e += carry
    key = np.where(fast, e + 12, np.where(a == 0, 0, 29)).astype(np.int8)
    order = key.argsort(kind="stable")
    count = np.bincount(key, minlength=30)
    D, last = D.take(order).view(np.int64), _LAST.take(key.take(order))
    g = np.empty((5, n), np.int64)  # 4-digit groups, d0 first; // (% is slow)
    g[0], g[2] = D // 10 ** 16, D // 10 ** 8
    g[4] = D - g[2] * 10 ** 8
    g[2] -= g[0] * 10 ** 8
    g[1::2] = g[2::2] // 10000
    g[2::2] -= g[1::2] * 10000
    tz, r = _TZ4.take(g[4]), np.flatnonzero(g[4] == 0)
    t, z = _TZ4.take(g[1:4, r]), g[1:4, r] == 0
    tz[r] += t[2] + z[2] * (t[1] + z[1] * t[0])
    keep = np.maximum(17 - tz, last + 1)
    digits = np.bitwise_and(_DIGITS4.take(g).T, _SHOWN.take(keep, axis=0),
                            order="C").view(np.uint8)[:, 3:]
    dot = (keep > last + 1) * np.uint8(46)
    c = np.zeros((n, _G17 + 1), np.uint8)
    c[:, 0] = np.signbit(v).take(order) * np.uint8(45)
    stop = count.cumsum()
    for k in np.flatnonzero(count):
        rows = slice(stop[k] - count[k], stop[k])
        cg, dg, e = c[rows], digits[rows], k - 12
        if k == 0:
            cg[:, 1] = 48
        elif k == 29:
            cg[:] = _text_cells(
                ["%.17g" % s for s in v[order[rows]].tolist()], _G17 + 1)
        elif e >= 0:
            cg[:, 1:e + 2] = dg[:, :e + 1]
            cg[:, e + 2] = dot[rows]
            cg[:, e + 3:19] = dg[:, e + 1:]
        elif e >= -4:
            cg[:, 1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            cg[:, 2 - e:19 - e] = dg
        else:
            cg[:, 1] = dg[:, 0]
            cg[:, 2] = dot[rows]
            cg[:, 3:19] = dg[:, 1:]
            cg[:, 19:23] = np.frombuffer(b"e-%02d" % -e, np.uint8)
    back = np.empty_like(order)
    back[order] = np.arange(n)
    return c.take(back, axis=0).reshape(shape + (_G17 + 1,))


def _int_cells(v):
    """(v.shape) + (width + 1,) cells of '%d' % v, the last byte left for
    the separator, width the widest value's, a _GROUP4 take per 4-digit
    group. Integers are read as int64, floats truncated as by %d; a block
    of nan, inf or |v| >= 2**63 goes through '%d' % v (nan, inf raise)."""
    if v.dtype.kind == "f" and not (np.abs(v) < 2.0 ** 63).all():
        texts = ["%d" % s for s in v.ravel().tolist()]
        return _text_cells(texts, max(map(len, texts)) + 1).reshape(
            v.shape + (-1,))
    iv = v.astype(np.int64)
    mag = np.abs(iv).view(_U)                 # |-2**63| wraps to 2**63
    ng = -(-len(str(int(mag.max(initial=0)))) // 4)
    g = np.empty(v.shape + (ng,), np.uint32)  # the groups' texts
    above = 0                                 # |v| but its last k + 1 groups
    for k in range(ng - 1, -1, -1):
        q = mag // _U(10 ** (4 * k))
        form = _U(20000 if k else 10000) * (above == 0)
        _GROUP4.take(q - _U(10000) * above + form, out=g[..., ng - 1 - k])
        above = q
    c = np.empty(v.shape + (4 * ng + 2,), np.uint8)
    c[..., 0] = (iv < 0) * np.uint8(45)
    c[..., 1:-1] = g.view(np.uint8)
    return c


def _write_rows(fh, rows, head="", sep=",", ints=0):
    """Write a 2-D numeric table to the text file fh, one line per row:
    head, then the row's values joined by the one character sep, the
    first `ints` of them as integers (%d) and the rest with 17 significant
    digits (%.17g), which read back to the same float64. Every CSV and
    OBJ file psforge writes is made of such tables. A block of at most
    _BLOCK_VALUES values at a time becomes a matrix of NUL-padded text
    cells, one row per table row, whose digits numpy computes
    (`_int_cells`, `_g17_cells`); the NULs are squeezed out once per
    block. So memory does not grow with the table, and the bytes equal
    those of '%d' % v and '%.17g' % v applied value by value, -0.0
    included; only nan, inf, subnormals and magnitudes outside
    [1e-11, 1e16) are still formatted by Python, one value at a time."""
    rows = np.asarray(rows)
    ncols = rows.shape[1]
    head, sep = np.frombuffer(head.encode(), np.uint8), ord(sep)
    step = max(1, _BLOCK_VALUES // ncols)
    for k in range(0, len(rows), step):
        block = rows[k:k + step]
        cells = [_int_cells(block[:, :ints])] if ints else []
        if ncols > ints:
            cells.append(_g17_cells(block[:, ints:].astype(float)))
        for c in cells:
            c[..., -1] = sep
        line = np.concatenate(
            [np.broadcast_to(head, (len(block), len(head)))]
            + [c.reshape(len(block), -1) for c in cells], axis=1)
        line[:, -1] = 10
        fh.write(line.tobytes().translate(None, b"\0").decode())


def _read_rows(fh, path):
    """Float rows of the non-blank comma-separated lines left in fh, the
    first of them line 2 of the file; a token that is not a number raises
    ValueError naming path:line."""
    rows = []
    for n, line in enumerate(fh, 2):
        if not line.strip():
            continue
        try:
            rows.append(np.array(line.split(","), dtype=float))
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
    return rows


def load_angle_csv(path, derivative_path=None):
    """Read an angle field written by save_angle_csv; a malformed header
    or a malformed or non-finite value raises ValueError naming the file
    (and the line or node)."""
    def read_one(p):
        with open(p) as fh:
            header = fh.readline().split()
            if not header or header[0] != "#" or len(header) != 7:
                raise ValueError(f"{p}: malformed angle CSV header")
            try:
                nx, ny = int(header[1]), int(header[2])
                x0, y0, hx, hy = map(float, header[3:7])
                grid = GridSpec(x0, y0, nx, ny, hx, hy)
            except ValueError as exc:
                raise ValueError(f"{p}: malformed angle CSV header: "
                                 f"{exc}") from None
            rows = _read_rows(fh, p)
        if len(rows) != ny or any(r.size != nx for r in rows):
            raise ValueError(f"{p}: data block does not match header")
        data = np.stack(rows, axis=1)
        bad = np.argwhere(~np.isfinite(data.T))
        if bad.size:
            j, i = bad[0]
            raise ValueError(f"{p}: non-finite value {float(data[i, j])!r} "
                             f"at node (i={i}, j={j})")
        return grid, data

    grid, phi = read_one(path)
    dphi = None
    if derivative_path is not None:
        grid2, dphi = read_one(derivative_path)
        if grid2 != grid:
            raise ValueError("derivative file grid disagrees with phi file")
    return AngleField(grid, phi, dphi)
