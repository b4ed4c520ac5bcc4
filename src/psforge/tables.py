"""Text tables, the format of every CSV and OBJ file psforge writes and
reads: the table writer behind `_write_file`, and one line reader."""

import numpy as np

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


def _write_file(path, *tables, text=""):
    """Write text, then each table (`_write_rows` keywords), to path."""
    with open(path, "w") as fh:
        fh.write(text)
        for table in tables:
            _write_rows(fh, **table)


def _read_rows(path, parse, sep=None):
    """The first line of the text file path and the list rows of
    parse(fields, rows), fields a line's text before any '#' split at sep
    (whitespace when None), blank ones skipped; parse errors name path:line."""
    with open(path) as fh:
        lines = fh.readlines()
    rows = []
    for n, line in enumerate(lines, 1):
        text = line.partition("#")[0]
        if text and not text.isspace():
            try:
                rows.append(parse(text.split(sep), rows))
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
    return lines[0] if lines else "", rows


def _numbers(fields, rows):
    """fields as a float array, a `_read_rows` parser: ValueError for a
    token that is not a number, or another count than in the first row."""
    if rows and len(fields) != len(rows[0]):
        raise ValueError(f"expected {len(rows[0])} numbers as on the first "
                         f"line, not {len(fields)}")
    return np.array(fields, dtype=float)


def _finite_numbers(fields):
    """fields as a float array; ValueError unless each is a finite number."""
    v = np.array(fields, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"non-finite value {float(v[~np.isfinite(v)][0])!r}")
    return v
