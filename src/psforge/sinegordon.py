"""Angle fields phi(x, y): exact soliton solutions and a Goursat solver
for phi_xy = sin(phi) from characteristic data phi(x,0), phi(0,y).

Asymptotic coordinates (x, y) live on a rectangular grid; phi is the angle
between the asymptotic directions. Weak regularity is tracked with a mask
(0 < phi < pi) instead of aborting when phi leaves the interval.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleCorner, NonconvergentCell
from .numerics import deriv4, refine

__all__ = [
    "GridSpec", "AngleField", "soliton_angle", "constant_angle",
    "goursat_solve", "sg_residual", "save_angle_csv", "load_angle_csv",
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
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs nx, ny >= 2")
        if self.hx <= 0 or self.hy <= 0:
            raise ValueError("grid steps must be positive")

    @property
    def xs(self):
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self):
        return self.y0 + self.hy * np.arange(self.ny)

    def origin_index(self):
        """Indices (i0, j0) of the node at the origin; raises ValueError
        unless one lies within 1e-9 (relative) of it."""
        i0 = round(-self.x0 / self.hx)
        j0 = round(-self.y0 / self.hy)
        if not (0 <= i0 < self.nx and 0 <= j0 < self.ny):
            raise ValueError("grid does not contain the origin")
        if abs(self.x0 + i0 * self.hx) > 1e-9 * max(1.0, abs(self.x0)) or \
           abs(self.y0 + j0 * self.hy) > 1e-9 * max(1.0, abs(self.y0)):
            raise ValueError("origin does not fall on a grid node")
        return i0, j0

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")


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
    """

    grid: GridSpec
    phi: np.ndarray
    dphi_dx: np.ndarray = None
    regular_mask: np.ndarray = field(default=None)
    phi_fn: callable = None
    phix_fn: callable = None
    phiy_fn: callable = None
    phixy_fn: callable = None

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("phi shape does not match the grid")
        if self.dphi_dx is None:
            self.dphi_dx = deriv4(self.phi, self.grid.hx, axis=0)
        else:
            self.dphi_dx = np.asarray(self.dphi_dx, dtype=float)
        if self.regular_mask is None:
            self.regular_mask = (self.phi > 0.0) & (self.phi < np.pi)

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
    if a <= 0:
        raise ValueError("soliton parameter a must be positive")

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


def constant_angle(c, grid):
    """Constant field phi = c; solves the sine-Gordon equation iff sin c = 0."""
    c = float(c)
    x, _ = grid.meshgrid()
    zero = np.zeros_like(x)
    return AngleField(grid, np.full_like(x, c), zero,
                      phi_fn=lambda xx, yy: np.broadcast_to(c, np.shape(xx * yy)).copy(),
                      phix_fn=lambda xx, yy: np.zeros(np.shape(xx * yy)),
                      phiy_fn=lambda xx, yy: np.zeros(np.shape(xx * yy)),
                      phixy_fn=lambda xx, yy: np.zeros(np.shape(xx * yy)))


def _sweep_quadrant(f, i0, j0, sx, sy, k):
    """Fill one quadrant of f in place, marching away from (i0, j0).

    k = sx*sy*hx*hy/4 is the signed trapezoidal weight of one cell.
    """
    nx, ny = f.shape
    np_ = (nx - 1 - i0) if sx > 0 else i0
    nq_ = (ny - 1 - j0) if sy > 0 else j0
    if np_ == 0 or nq_ == 0:
        return
    for d in range(2, np_ + nq_ + 1):
        plo, phi_ = max(1, d - nq_), min(np_, d - 1)
        if plo > phi_:
            continue
        p = np.arange(plo, phi_ + 1)
        q = d - p
        ii, jj = i0 + sx * p, j0 + sy * q
        base = f[ii - sx, jj] + f[ii, jj - sy] - f[ii - sx, jj - sy]
        srest = np.sin(f[ii - sx, jj]) + np.sin(f[ii, jj - sy]) \
            + np.sin(f[ii - sx, jj - sy])
        val = base
        converged = False
        for _ in range(20):
            new = base + k * (np.sin(val) + srest)
            if np.abs(new - val).max() < 1e-12:
                val = new
                converged = True
                break
            val = new
        if not converged:
            raise NonconvergentCell(
                f"Picard iteration stalled on diagonal {d} "
                f"of quadrant ({sx:+d},{sy:+d})")
        f[ii, jj] = val


def _goursat_raw(x_data, y_data, grid):
    i0, j0 = grid.origin_index()
    f = np.zeros((grid.nx, grid.ny))
    f[:, j0] = x_data
    f[i0, :] = y_data
    w = grid.hx * grid.hy / 4.0
    for sx in (1, -1):
        for sy in (1, -1):
            _sweep_quadrant(f, i0, j0, sx, sy, sx * sy * w)
    return f


def goursat_solve(x_data, y_data, grid):
    """Integrate phi_xy = sin(phi) from characteristic data.

    x_data[i] = phi(x_i, 0) and y_data[j] = phi(0, y_j) along the axes
    through the origin (which must be a grid node). Cell-by-cell
    trapezoidal quadrature of the conservation form, Picard-iterated to an
    update below 1e-12 in at most 20 iterations per diagonal, else
    NonconvergentCell. The plain sweep is second order; a half-step sweep
    (with the data refined by 6-point Lagrange interpolation, exact at the
    nodes) is combined with it by Richardson extrapolation, which removes
    the leading error term while leaving the boundary data reproduced to
    machine precision.
    """
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


# values formatted by one % in _write_rows: a block's template, tuple and
# text stay a few hundred kB whatever the size of the table
_BLOCK_VALUES = 8192


def _write_rows(fh, rows, head="", sep=",", ints=0):
    """Write a 2-D numeric table to the text file fh, one line per row:
    head, then the row's values joined by sep, the first `ints` of them
    as integers (%d) and the rest with 17 significant digits (%.17g),
    which read back to the same float64. Every CSV and OBJ file psforge
    writes is made of such tables. Rows are formatted a block at a time,
    one % per block of at most _BLOCK_VALUES values, so no Python loop
    runs per value and memory does not grow with the table; the bytes
    equal those of formatting each value on its own with f"{v:.17g}"
    (also for -0.0, nan, inf and subnormals)."""
    rows = np.asarray(rows)
    ncols = rows.shape[1]
    line = head.replace("%", "%%") + sep.join(
        ["%d"] * ints + ["%.17g"] * (ncols - ints)) + "\n"
    step = max(1, _BLOCK_VALUES // ncols)
    for k in range(0, len(rows), step):
        block = rows[k:k + step]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


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
    """Read an angle field written by save_angle_csv; a malformed or
    non-finite value raises ValueError naming the file and its line or
    node."""
    def read_one(p):
        with open(p) as fh:
            header = fh.readline().split()
            if not header or header[0] != "#" or len(header) != 7:
                raise ValueError(f"{p}: malformed angle CSV header")
            nx, ny = int(header[1]), int(header[2])
            x0, y0, hx, hy = map(float, header[3:7])
            rows = _read_rows(fh, p)
        if len(rows) != ny or any(r.size != nx for r in rows):
            raise ValueError(f"{p}: data block does not match header")
        data = np.stack(rows, axis=1)
        bad = np.argwhere(~np.isfinite(data.T))
        if bad.size:
            j, i = bad[0]
            raise ValueError(f"{p}: non-finite value {float(data[i, j])!r} "
                             f"at node (i={i}, j={j})")
        return GridSpec(x0, y0, nx, ny, hx, hy), data

    grid, phi = read_one(path)
    dphi = None
    if derivative_path is not None:
        grid2, dphi = read_one(derivative_path)
        if grid2 != grid:
            raise ValueError("derivative file grid disagrees with phi file")
    return AngleField(grid, phi, dphi)
