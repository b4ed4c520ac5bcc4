"""Sym reconstruction of immersions, fundamental forms and curvatures,
Gauss map, Lorentz-harmonicity checks and the associated family.

The immersion is the Sym position psi = lam * dU/dlam * U^{-1} as points
of R^3 (the hat map of the algebra module), taken without a lambda
derivative from the Euclidean frame F = [[U, psi], [0, 1]] that
`frames.integrate_frame` marches: F^{-1} dF = [[A, tau], [0, 0]],
tau = -lam e1 dx - unhat(B) dy. All derivative estimates on the grid are
4th-order centered differences; nodes where the induced metric degenerates
(sin(phi) -> 0, the cuspidal edges) are masked, not fatal.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import E12, unhat
from .errors import SingularAngle
from .frames import ExtendedFrame, integrate_frame
from .numerics import deriv4
from .sinegordon import _write_rows

__all__ = [
    "Immersion", "SurfaceGeometry", "HarmonicityReport",
    "sym_immersion", "fundamental_forms", "principal_curvatures",
    "gauss_map", "harmonicity_check", "associated_family",
    "export_mesh", "read_obj",
]


@dataclass
class Immersion:
    """Grid of points of one member of the associated family, and the
    frame it was read from (when built by sym_immersion)."""

    grid: object
    lam: float
    points: np.ndarray
    frame: ExtendedFrame = None


@dataclass
class SurfaceGeometry:
    """Per-node first/second fundamental forms and derived curvatures.

    mask is True where the metric is non-degenerate; K, H, k1, k2 and the
    cross-product Gauss map are NaN on masked-out nodes.
    """

    grid: object
    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N2: np.ndarray
    K: np.ndarray
    H: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    metricA: np.ndarray
    metricB: np.ndarray
    gaussmap: np.ndarray
    mask: np.ndarray


@dataclass
class HarmonicityReport:
    """Pointwise decomposition of N_xy against the normal direction."""

    q: np.ndarray
    tangential_residual: np.ndarray
    nx_norm: np.ndarray
    ny_norm: np.ndarray


def sym_immersion(f, lam, substeps=2, frame=None):
    """Reconstruct the immersion psi = lam * dU/dlam * U^{-1}.

    psi vanishes at the origin because U(0,0) = I for every lambda. A
    pre-integrated frame can be passed to skip integration; it must carry
    psi (a frame from load_frame does not, and raises ValueError).
    """
    if frame is None:
        frame = integrate_frame(f, lam, substeps=substeps)
    if frame.psi is None:
        raise ValueError("frame carries no Sym position psi; integrate it "
                         "with integrate_frame")
    return Immersion(f.grid, lam, frame.psi, frame)


def fundamental_forms(s):
    """First/second fundamental forms, curvatures and cross-product normal
    from an immersion, by 4th-order differences (grid at least 5x5).

    Nodes with E*G - F^2 <= 1e-4 are masked: the normal and every
    normal-dependent quantity are NaN there, the first-form coefficients
    are kept.
    """
    g = s.grid
    if g.nx < 5 or g.ny < 5:
        raise ValueError("fundamental forms need a grid of at least 5x5")
    p = s.points
    px = deriv4(p, g.hx, axis=0)
    py = deriv4(p, g.hy, axis=1)
    E = (px * px).sum(-1)
    F = (px * py).sum(-1)
    G = (py * py).sum(-1)
    det = E * G - F * F
    mask = det > 1e-4

    cross = np.cross(px, py)
    cn = np.linalg.norm(cross, axis=-1)
    safe = np.where(cn > 0, cn, 1.0)
    normal = np.where(mask[..., None], cross / safe[..., None], np.nan)

    pxx = deriv4(px, g.hx, axis=0)
    pxy = deriv4(px, g.hy, axis=1)
    pyy = deriv4(py, g.hy, axis=1)
    L = (pxx * normal).sum(-1)
    M = (pxy * normal).sum(-1)
    N2 = (pyy * normal).sum(-1)

    with np.errstate(invalid="ignore", divide="ignore"):
        K = np.where(mask, (L * N2 - M * M) / det, np.nan)
        H = np.where(mask, (E * N2 - 2.0 * F * M + G * L) / (2.0 * det), np.nan)
        disc = np.sqrt(np.maximum(H * H - K, 0.0))
    k1 = H + disc
    k2 = H - disc
    return SurfaceGeometry(g, E, F, G, L, M, N2, K, H, k1, k2,
                           np.sqrt(E), np.sqrt(G), normal, mask)


def principal_curvatures(phi):
    """Closed-form principal curvatures (tan(phi/2), -cot(phi/2)).

    Their product is -1. Raises SingularAngle when sin(phi) vanishes.
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(np.abs(np.sin(phi)) < 1e-12):
        raise SingularAngle("principal curvatures undefined where sin(phi) = 0")
    return np.tan(phi / 2.0), -1.0 / np.tan(phi / 2.0)


def gauss_map(frame, verify_parallel_tol=None):
    """Gauss map as the third frame column (unit normal field).

    With verify_parallel_tol set, also checks that the vector read off the
    adjoint orbit U E12 U^{-1} through the hat map is parallel to the same
    axis (the two identifications agree up to orientation only).
    """
    N = frame.U[..., :, 2]
    if verify_parallel_tol is not None:
        orbit = frame.U @ E12 @ np.swapaxes(frame.U, -1, -2)
        v = unhat(orbit, check=False)
        dev = np.abs(np.cross(v, N)).max()
        if dev > verify_parallel_tol:
            raise AssertionError(f"adjoint-orbit axis deviates by {dev:.3e}")
    return N


def harmonicity_check(N, geom=None, grid=None):
    """Lorentz-harmonicity diagnostics of a unit normal field.

    q is the normal component of N_xy; tangential_residual the norm of the
    rest (zero for a harmonic Gauss map). nx_norm/ny_norm are |N_x|, |N_y|
    for comparison with the metric factors A, B of geom.
    """
    if grid is None:
        if geom is None:
            raise ValueError("need geom or grid to fix the mesh spacing")
        grid = geom.grid
    if grid.nx < 5 or grid.ny < 5:
        raise ValueError("harmonicity check needs a grid of at least 5x5")
    Nx = deriv4(N, grid.hx, axis=0)
    Nxy = deriv4(Nx, grid.hy, axis=1)
    Ny = deriv4(N, grid.hy, axis=1)
    q = (Nxy * N).sum(-1)
    tang = Nxy - q[..., None] * N
    return HarmonicityReport(q, np.linalg.norm(tang, axis=-1),
                             np.linalg.norm(Nx, axis=-1),
                             np.linalg.norm(Ny, axis=-1))


def associated_family(f, lambdas, substeps=2):
    """Sym immersion and geometry for each lambda, plus invariance report.

    All members' frames are integrated together, lambda as a batch axis.
    The report holds the sup deviation across members of the mixed
    second-form coefficient M and of the recovered asymptotic angle from
    phi, both on the non-degenerate mask intersection.
    """
    lambdas = [float(l) for l in lambdas]
    batch = integrate_frame(f, np.array(lambdas), substeps=substeps)
    members = []
    for k, lam in enumerate(lambdas):
        s = sym_immersion(f, lam, frame=ExtendedFrame(
            f.grid, lam, batch.U[k], batch.psi[k]))
        members.append((s, fundamental_forms(s)))

    mask = np.logical_and.reduce([geom.mask for _, geom in members])
    Ms = np.stack([geom.M for _, geom in members])
    m_dev = float(np.ptp(Ms[:, mask], axis=0).max()) if mask.any() else np.nan
    # the unsigned angle between unit tangents recovers phi folded into
    # [0, pi]; compare against the same folding of the field
    phi_fold = np.arccos(np.clip(np.cos(f.phi[mask]), -1.0, 1.0))
    angle_dev = 0.0
    for _, geom in members:
        cosang = geom.F / (geom.metricA * geom.metricB)
        ang = np.arccos(np.clip(cosang[mask], -1.0, 1.0))
        angle_dev = max(angle_dev, float(np.abs(ang - phi_fold).max()))
    report = {
        "lambdas": lambdas,
        "M_deviation_sup": m_dev,
        "angle_deviation_sup": angle_dev,
        "metricA_mean": [float(np.nanmean(geom.metricA[mask]))
                         for _, geom in members],
        "metricB_mean": [float(np.nanmean(geom.metricB[mask]))
                         for _, geom in members],
    }
    return members, report


def export_mesh(s, path, mask=None):
    """Write the immersion as a Wavefront OBJ triangle mesh.

    Vertices appear in row-major node order; each grid cell contributes
    two triangles. Faces touching a masked-out node are dropped. Both
    blocks are tables formatted by `sinegordon._write_rows`. Complex
    points (an immersion at complex lambda) raise ValueError before
    anything is written.
    """
    g = s.grid
    if np.iscomplexobj(s.points):
        raise ValueError(f"{path}: an OBJ mesh holds real points, not the "
                         f"complex immersion at lambda {s.lam!r}")
    mask = (np.ones((g.nx, g.ny), dtype=bool) if mask is None
            else np.asarray(mask, dtype=bool))
    cells = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
    i, j = np.nonzero(cells)
    a = i * g.ny + j + 1
    b = a + g.ny
    # two triangles (a, b, b + 1) and (a, b + 1, a + 1) per kept cell
    faces = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).reshape(-1, 3)
    with open(path, "w") as fh:
        _write_rows(fh, s.points.reshape(-1, 3), head="v ", sep=" ")
        _write_rows(fh, faces, head="f ", sep=" ", ints=3)


def read_obj(path):
    """Parse vertices and faces back from an OBJ file (round-trip check)."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(v.split("/")[0]) for v in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=int)
