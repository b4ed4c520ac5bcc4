"""Fundamental forms and curvatures of Sym surfaces, Gauss map,
Lorentz-harmonicity checks, the associated family and OBJ export.

A member of the family is its `frames.ExtendedFrame`: the surface is the
frame's Sym position psi = lam * dU/dlam * U^{-1} as points of R^3
(`algebra.unhat`), taken without a lambda derivative from
the Euclidean frame F = [[U, psi], [0, 1]] that `frames.integrate_frame`
marches: F^{-1} dF = [[A, tau], [0, 0]], tau = -lam e1 dx - unhat(B) dy.
All derivative estimates on the grid are 4th-order centered differences;
nodes where the induced metric degenerates (sin(phi) -> 0, the cuspidal
edges) are masked, not fatal.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import SingularAngle
from .frames import _SUBSTEPS, ExtendedFrame, integrate_frame
from .numerics import deriv4
from .sinegordon import _check_nodes, _write_rows

__all__ = [
    "SurfaceGeometry", "HarmonicityReport", "fundamental_forms",
    "principal_curvatures", "gauss_map", "harmonicity_check",
    "associated_family", "export_mesh", "read_obj",
]


@dataclass
class SurfaceGeometry:
    """Per-node first/second fundamental forms and derived curvatures.

    mask is True where the metric is non-degenerate; L, M, N2 and K are
    NaN on masked-out nodes.
    """

    grid: object
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N2: np.ndarray
    K: np.ndarray
    metricA: np.ndarray
    metricB: np.ndarray
    mask: np.ndarray


@dataclass
class HarmonicityReport:
    """Pointwise decomposition of N_xy against the normal direction."""

    tangential_residual: np.ndarray
    nx_norm: np.ndarray


def _dot(a, b):
    # the dot product of components-first 3-vectors, component by component
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def fundamental_forms(frame):
    """First/second fundamental forms and curvatures of the Sym surface
    frame.psi, by 4th-order differences on frame.grid (at least 5x5, with
    psi of shape np.shape(frame.lam) + (nx, ny, 3): one member, or a batch
    of members along a leading lambda axis, which every field of the
    geometry then carries; ValueError otherwise).

    Nodes with E*G - F^2 <= 1e-4 are masked: the cross-product normal and
    every quantity that depends on it are NaN there, the first-form
    coefficients are kept. Dot, cross and norm are written out over the
    three components, so a member's forms are the same, bit for bit,
    whether it is taken alone or in a batch.
    """
    g, p = frame.grid, frame.psi
    _check_nodes(g)
    if p.shape != np.shape(frame.lam) + (g.nx, g.ny, 3):
        raise ValueError(f"Sym positions of shape {p.shape} on the "
                         f"{g.nx}x{g.ny} grid")
    p = np.ascontiguousarray(np.moveaxis(p, -1, 0))  # (3, lambda..., nx, ny)
    px = deriv4(p, g.hx, axis=-2)
    py = deriv4(p, g.hy, axis=-1)
    E = _dot(px, px)
    F = _dot(px, py)
    G = _dot(py, py)
    det = E * G - F * F
    mask = det > 1e-4

    cross = np.stack([px[1] * py[2] - px[2] * py[1],
                      px[2] * py[0] - px[0] * py[2],
                      px[0] * py[1] - px[1] * py[0]])
    cn = np.sqrt(_dot(cross, cross))
    safe = np.where(cn > 0, cn, 1.0)
    normal = np.where(mask, cross / safe, np.nan)

    pxx = deriv4(px, g.hx, axis=-2)
    pxy = deriv4(px, g.hy, axis=-1)
    pyy = deriv4(py, g.hy, axis=-1)
    L = _dot(pxx, normal)
    M = _dot(pxy, normal)
    N2 = _dot(pyy, normal)

    with np.errstate(invalid="ignore", divide="ignore"):
        K = np.where(mask, (L * N2 - M * M) / det, np.nan)
    return SurfaceGeometry(g, E, F, G, L, M, N2, K, np.sqrt(E), np.sqrt(G),
                           mask)


def principal_curvatures(phi):
    """Closed-form principal curvatures (tan(phi/2), -cot(phi/2)).

    Their product is -1. Raises SingularAngle when sin(phi) vanishes.
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(np.abs(np.sin(phi)) < 1e-12):
        raise SingularAngle("principal curvatures undefined where sin(phi) = 0")
    return np.tan(phi / 2.0), -1.0 / np.tan(phi / 2.0)


def gauss_map(frame):
    """Gauss map as the third frame column (unit normal field)."""
    return frame.U[..., :, 2]


def harmonicity_check(N, grid):
    """Lorentz-harmonicity diagnostics of a unit normal field on grid.

    tangential_residual is the norm of N_xy less its normal component
    (zero for a harmonic Gauss map); nx_norm is |N_x|, for comparison with
    the metric factor A of the surface. N must be (nx, ny, 3) on a grid
    of 5 or more nodes per axis (ValueError).
    """
    _check_nodes(grid)
    if N.shape != (grid.nx, grid.ny, 3):
        raise ValueError(f"normal field of shape {N.shape} on the "
                         f"{grid.nx}x{grid.ny} grid")
    Nx = deriv4(N, grid.hx, axis=0)
    Nxy = deriv4(Nx, grid.hy, axis=1)
    tang = Nxy - (Nxy * N).sum(-1)[..., None] * N
    return HarmonicityReport(np.linalg.norm(tang, axis=-1),
                             np.linalg.norm(Nx, axis=-1))


def associated_family(f, lambdas):
    """(frame, geometry) of each lambda's member, plus invariance report.

    All members' frames are integrated together, lambda as a batch axis,
    in `frames._SUBSTEPS` substeps per grid step, and their forms taken in
    one `fundamental_forms` call; each member's frame and geometry are
    views of the batch.
    The report holds the sup deviation across members of the mixed
    second-form coefficient M and of the recovered asymptotic angle from
    phi, both on the non-degenerate mask intersection (NaN if it is empty).
    """
    lambdas = [float(l) for l in lambdas]
    batch = integrate_frame(f, np.array(lambdas), substeps=_SUBSTEPS)
    geom = fundamental_forms(batch)
    arrays = [getattr(geom, k.name) for k in fields(geom)[1:]]
    members = [(ExtendedFrame(f.grid, lam, batch.U[k], batch.psi[k]),
                SurfaceGeometry(f.grid, *(a[k] for a in arrays)))
               for k, lam in enumerate(lambdas)]

    mask = geom.mask.all(axis=0)
    # the unsigned angle between unit tangents recovers phi folded into
    # [0, pi]; compare against the same folding of the field
    phi_fold = np.arccos(np.clip(np.cos(f.phi[mask]), -1.0, 1.0))
    cosang = geom.F[:, mask] / (geom.metricA[:, mask] * geom.metricB[:, mask])
    devs = (np.ptp(geom.M[:, mask], axis=0),
            np.abs(np.arccos(np.clip(cosang, -1.0, 1.0)) - phi_fold))
    m_dev, angle_dev = (float(d.max()) if mask.any() else np.nan for d in devs)
    return members, {"M_deviation_sup": m_dev,
                     "angle_deviation_sup": angle_dev}


def export_mesh(points, path, mask=None):
    """Write a grid of points (nx, ny, 3), such as a Sym surface psi, as a
    Wavefront OBJ triangle mesh.

    Vertices appear in row-major node order; each grid cell contributes
    two triangles. Faces touching a masked-out node are dropped. Both
    blocks are tables formatted by `sinegordon._write_rows`. Points that
    are not a real (nx, ny, 3) array (the surface at complex lambda, say)
    and a mask of another shape than (nx, ny) raise ValueError before
    anything is written.
    """
    points = np.asarray(points)
    if np.iscomplexobj(points) or points.ndim != 3 or points.shape[2] != 3:
        raise ValueError(f"{path}: an OBJ mesh holds a real (nx, ny, 3) "
                         f"array of points, not {points.dtype} of shape "
                         f"{points.shape}")
    nx, ny = points.shape[:2]
    mask = (np.ones((nx, ny), dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))
    if mask.shape != (nx, ny):
        raise ValueError(f"{path}: mask of shape {mask.shape} on the "
                         f"{nx}x{ny} grid")
    cells = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
    i, j = np.nonzero(cells)
    a = i * ny + j + 1
    b = a + ny
    # two triangles (a, b, b + 1) and (a, b + 1, a + 1) per kept cell
    faces = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        _write_rows(fh, points.reshape(-1, 3), head="v ", sep=" ")
        _write_rows(fh, faces, head="f ", sep=" ", ints=3)


def read_obj(path):
    """Parse vertices and faces back from an OBJ file (round-trip check);
    a `v` or `f` line without three values raises ValueError (path:line)."""
    verts, faces = [], []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            kind, *parts = line.split() or [""]
            try:
                if kind in ("v", "f") and len(parts) < 3:
                    raise ValueError(f"'{kind}' line of {len(parts)} values")
                if kind == "v":
                    verts.append([float(v) for v in parts[:3]])
                elif kind == "f":
                    faces.append([int(v.split("/")[0]) for v in parts[:3]])
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
    return np.asarray(verts), np.asarray(faces, dtype=int)
