"""Lax matrices, extended-frame integration, Maurer-Cartan assembly and
the flatness / compatibility / conditions-(K) residuals.

The extended frame U(x, y; lambda) solves the right-invariant system

    U^{-1} U_x = A = -phi_x E12 + lambda E23
    U^{-1} U_y = B = (1/lambda) (-sin(phi) E13 - cos(phi) E23)

with U = I at the origin. Every ODE of psforge is integrated by one march,
`_march`: classical RK4 along a grid line, projected back onto the group
at every node by one Newton-Schulz step, with the lambda derivative
needed by the Sym formula integrated jointly from the closed-form lambda
derivatives of A and B. Grid frames (3x3 or spinor, one lambda or a
batch), frame loops on the unit circle and the potentials' Birkhoff-factor
ODEs all call it. Between grid nodes a sampled angle field is read from
tables refined onto the march's RK4 stage points (6-point Lagrange
interpolation, `numerics.refine`).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import E12, E13, E23, gauge_rotation
from .errors import StepFailure
from .numerics import deriv4, group_deviation, polar_project, refine
from .sinegordon import AngleField, _read_rows

__all__ = [
    "ExtendedFrame", "MaurerCartanForm", "FormField",
    "lax_matrices", "integrate_frame", "compatibility_residual",
    "maurer_cartan", "flatness_residual", "lambda_forms",
    "check_conditions_K", "gauge", "su2_frame", "sample_frame_loop",
    "save_frame", "load_frame",
]


def _lax_A(phi_x, lam):
    phi_x = np.asarray(phi_x)
    dtype = complex if np.iscomplexobj(np.asarray(lam)) else float
    out = np.zeros(np.broadcast_shapes(phi_x.shape, np.shape(lam)) + (3, 3), dtype)
    out[..., 0, 1] = -phi_x
    out[..., 1, 0] = phi_x
    out[..., 1, 2] = lam
    out[..., 2, 1] = -lam
    return out


def _lax_B(phi, lam):
    phi = np.asarray(phi)
    s, c = np.sin(phi) / lam, np.cos(phi) / lam
    dtype = complex if np.iscomplexobj(np.asarray(lam)) else float
    out = np.zeros(np.broadcast_shapes(phi.shape, np.shape(lam)) + (3, 3), dtype)
    out[..., 0, 2] = -s
    out[..., 2, 0] = s
    out[..., 1, 2] = -c
    out[..., 2, 1] = c
    return out


def _lax2_A(phi_x, lam):
    # su(2) partner of _lax_A under the spinor double cover
    phi_x = np.asarray(phi_x)
    out = np.zeros(np.broadcast_shapes(phi_x.shape, np.shape(lam)) + (2, 2), complex)
    out[..., 0, 0] = -0.5j * phi_x
    out[..., 1, 1] = 0.5j * phi_x
    out[..., 0, 1] = 0.5j * lam
    out[..., 1, 0] = 0.5j * lam
    return out


def _lax2_B(phi, lam):
    phi = np.asarray(phi)
    out = np.zeros(np.broadcast_shapes(phi.shape, np.shape(lam)) + (2, 2), complex)
    out[..., 0, 1] = -0.5j * np.exp(1j * phi) / lam
    out[..., 1, 0] = -0.5j * np.exp(-1j * phi) / lam
    return out


def lax_matrices(phi, phi_x, lam):
    """The Lax pair (A, B) at a point; both skew for real lambda."""
    return _lax_A(phi_x, lam), _lax_B(phi, lam)


@dataclass
class ExtendedFrame:
    """Grid of frame matrices U(x, y; lambda), optionally with dU/dlambda.

    When lam is a 1-D array, U and dU carry it as a leading batch axis.
    """

    grid: object
    lam: float
    U: np.ndarray
    dU: np.ndarray = None


@dataclass
class MaurerCartanForm:
    """Coefficient fields of -U^{-1}dU = lam^{-1} a_m1 dy + a0' dx + lam a1 dx."""

    grid: object
    alpha_m1: np.ndarray
    alpha0_prime: np.ndarray
    alpha1: np.ndarray


@dataclass
class FormField:
    """Scalar 1-form p dx + q dy sampled on a grid."""

    label: str
    grid: object
    p: np.ndarray
    q: np.ndarray


def _stage_table(values, t0, h, substeps):
    """values sampled at the grid nodes t0 + k*h, as a function of t read
    from a table at the points where `_march` evaluates coefficients: every
    half substep, h / (2 * substeps) apart."""
    r = 2 * substeps
    table, step = refine(values, r), h / r
    return lambda t: table[round((t - t0) / step)]


class _Sampler:
    """Angle values along grid lines for a march of `substeps` RK4 steps
    per grid step: exact when the field is analytic, otherwise read from
    tables of phi_x and phi refined onto the march's stage points (every
    half substep) with `refine`."""

    def __init__(self, f: AngleField, substeps):
        self.f = f
        self.xs, self.ys = f.grid.xs, f.grid.ys
        if not f.analytic:
            g = f.grid
            # tables indexed [stage point, line]
            self._phix = _stage_table(f.dphi_dx, g.x0, g.hx, substeps)
            self._phi = _stage_table(f.phi.T, g.y0, g.hy, substeps)

    def phix_at_row(self, x, j):
        """phi_x(x, y_j) for scalar x (j may be an index array)."""
        if self.f.analytic:
            return self.f.phix_fn(x, self.ys[j])
        return self._phix(x)[j]

    def phi_at_col(self, i, y):
        """phi(x_i, y) for scalar y (i may be an index array)."""
        if self.f.analytic:
            return self.f.phi_fn(self.xs[i], y)
        return self._phi(y)[i]


def _rk4_pair(u, w, coeff, dcoeff, h):
    a1, a2, a3 = coeff(0.0), coeff(0.5 * h), coeff(h)
    k1 = u @ a1
    k2 = (u + 0.5 * h * k1) @ a2
    k3 = (u + 0.5 * h * k2) @ a2
    k4 = (u + h * k3) @ a3
    un = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if w is None:
        return un, None
    d1, d2, d3 = dcoeff(0.0), dcoeff(0.5 * h), dcoeff(h)
    l1 = w @ a1 + u @ d1
    l2 = (w + 0.5 * h * l1) @ a2 + (u + 0.5 * h * k1) @ d2
    l3 = (w + 0.5 * h * l2) @ a2 + (u + 0.5 * h * k2) @ d2
    l4 = (w + h * l3) @ a3 + (u + h * k3) @ d3
    wn = w + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return un, wn


def _march(u, w, ts, start, stop, spacing, substeps, coeff, dcoeff=None):
    """The RK4 transport kernel: march u' = u @ coeff(t), and its lambda
    derivative w' = w @ coeff(t) + u @ dcoeff(t) when w is given, along a
    grid line with node coordinates ts from node start to node stop, in
    `substeps` steps per node. u is projected at every node; yields
    (node, u, w) per node. States may carry leading batch axes."""
    direction = 1 if stop >= start else -1
    h_node = direction * spacing
    h = h_node / substeps
    for n in range(start, stop, direction):
        for k in range(substeps):
            t0 = ts[n] + h_node * k / substeps
            u, w = _rk4_pair(u, w, lambda t: coeff(t0 + t),
                             lambda t: dcoeff(t0 + t), h)
        u = polar_project(u)
        yield n + direction, u, w


# resolved marches stay near 1e-15; a 101^2 soliton frame at this
# deviation is already about 1e-2 off a substeps-16 reference
_GROUP_TOL = 1e-8


def _check_transport(u):
    """Raise StepFailure unless the marched states u are finite and on
    their group. A resolved march stays within eps * |u|^2 of it; one
    Newton-Schulz step per node does not pull back a march whose step is
    too coarse for the Lax system (large h * max(lambda, 1/lambda))."""
    if not np.all(np.isfinite(u)):
        raise StepFailure("RK4 transport produced non-finite entries")
    dev = group_deviation(u)
    if dev > _GROUP_TOL:
        raise StepFailure(f"RK4 transport left the group by {dev:.1e}: "
                          "the step does not resolve the Lax system; use "
                          "more substeps or a finer grid")


def _lax_on_line(s, lam, axis, line, spinor=False):
    """(coeff, dcoeff/dlambda) of the Lax system on a grid line: in x at
    the y-node(s) `line` (axis 0) or in y at the x-node(s) `line`."""
    if np.ndim(lam) and np.ndim(line):
        lam = lam[:, None]  # lambda batch x line batch
    if axis == 0:
        lax = _lax2_A if spinor else _lax_A
        dA = E23.astype(complex if np.iscomplexobj(lam) else float)
        return (lambda x: lax(s.phix_at_row(x, line), lam)), (lambda x: dA)
    lax = _lax2_B if spinor else _lax_B
    dlam = np.asarray(lam)[..., None, None]

    def coeff(y):
        return lax(s.phi_at_col(line, y), lam)
    return coeff, (lambda y: -coeff(y) / dlam)


def _fill_grid(s, lam, order, u0, w0, substeps, spinor=False):
    """March u0 (and w0) from the origin along the first axis of `order`,
    then from that line along every line of the other axis. Returns U and
    W (None without w0) of shape lam.shape + (nx, ny, m, m)."""
    if order not in ("xy", "yx"):
        raise ValueError("order must be 'xy' or 'yx'")
    g = s.f.grid
    shape = np.shape(lam) + (g.nx, g.ny) + u0.shape
    U = np.zeros(shape, u0.dtype)
    W = None if w0 is None else np.zeros(shape, u0.dtype)
    a, b = (0, 1) if order == "xy" else (1, 0)
    # views with the first-marched axis in front
    V, X = (U, W) if a == 0 else (
        np.swapaxes(U, -4, -3), None if W is None else np.swapaxes(W, -4, -3))
    lines, origin = ((g.xs, g.hx, g.nx), (g.ys, g.hy, g.ny)), g.origin_index()
    (ta, ha, na), (tb, hb, nb) = lines[a], lines[b]
    oa, ob = origin[a], origin[b]
    V[..., oa, ob, :, :] = u0
    for stop in (na - 1, 0):
        for n, u, w in _march(u0, w0, ta, oa, stop, ha, substeps,
                              *_lax_on_line(s, lam, a, ob, spinor)):
            V[..., n, ob, :, :] = u
            if X is not None:
                X[..., n, ob, :, :] = w
    every = np.arange(na)
    for stop in (nb - 1, 0):
        u = V[..., :, ob, :, :].copy()
        w = None if X is None else X[..., :, ob, :, :].copy()
        for n, u, w in _march(u, w, tb, ob, stop, hb, substeps,
                              *_lax_on_line(s, lam, b, every, spinor)):
            V[..., :, n, :, :] = u
            if X is not None:
                X[..., :, n, :, :] = w
    _check_transport(U)
    return U, W


def integrate_frame(f, lam, with_lambda_derivative=False, order="xy",
                    substeps=1, initial=None):
    """Integrate the extended frame over the whole grid from U(0,0) = I.

    order="xy" sweeps along the x axis through the origin first and then
    along every column (the default); "yx" is the transposed path, useful
    for path-independence checks. substeps > 1 subdivides each grid step
    (the spectral accuracy limit of plain RK4 at the grid step). initial
    overrides the frame at the origin (a constant SO(3) matrix). lam is a
    (complex) number or a 1-D array of positive numbers; an array becomes
    the leading axis of U and dU, every member integrated at once. Raises
    StepFailure when the march leaves the group, i.e. when the step is too
    coarse for lambda; more substeps resolve it.
    """
    dtype = complex if np.iscomplexobj(np.asarray(lam)) else float
    if dtype is float:
        lam = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
        if np.ndim(lam) > 1 or np.any(lam <= 0):
            raise ValueError("lambda must be positive (a number or a 1-D array)")
    u0 = np.eye(3, dtype=dtype) if initial is None else np.asarray(initial, dtype)
    w0 = np.zeros((3, 3), dtype) if with_lambda_derivative else None
    U, W = _fill_grid(_Sampler(f, substeps), lam, order, u0, w0, substeps)
    return ExtendedFrame(f.grid, lam, U, W)


def compatibility_residual(f, lam):
    """Frobenius norm of A_y - B_x - [A, B] per node.

    Vanishes exactly when phi solves the sine-Gordon equation; uses
    analytic derivatives of phi when the field carries them.
    """
    phi = f.phi
    phi_x = f.dphi_dx
    phi_xy = f.phi_xy()
    A = _lax_A(phi_x, lam)
    B = _lax_B(phi, lam)
    A_y = -phi_xy[..., None, None] * E12
    B_x = (phi_x / lam)[..., None, None] * (-np.cos(phi)[..., None, None] * E13
                                            + np.sin(phi)[..., None, None] * E23)
    R = A_y - B_x - (A @ B - B @ A)
    return np.linalg.norm(R, axis=(-2, -1))


def maurer_cartan(f):
    """Coefficient fields of the extended Maurer-Cartan form.

    alpha0' = phi_x E12 (dx), alpha_m1 = sin(phi) E13 + cos(phi) E23 (dy),
    alpha1 = -E23 (dx, constant over the grid).
    """
    phi = f.phi
    shape = phi.shape
    a_m1 = np.sin(phi)[..., None, None] * E13 + np.cos(phi)[..., None, None] * E23
    a0p = f.dphi_dx[..., None, None] * E12
    a1 = np.broadcast_to(-E23, shape + (3, 3)).copy()
    return MaurerCartanForm(f.grid, a_m1, a0p, a1)


def flatness_residual(form, lam):
    """Zero-curvature residual of the assembled form at one lambda.

    With omega = p dx + q dy built from the coefficient fields, returns the
    per-node Frobenius norm of (q_x - p_y) - (p q - q p), the discrete
    residual of the frame equations' integrability; its (1,2) entry is the
    sine-Gordon defect sin(phi) - phi_xy up to discretization.
    """
    g = form.grid
    p = form.alpha0_prime + lam * form.alpha1
    q = form.alpha_m1 / lam
    dpq = deriv4(q, g.hx, axis=0) - deriv4(p, g.hy, axis=1)
    R = dpq - (p @ q - q @ p)
    return np.linalg.norm(R, axis=(-2, -1))


def lambda_forms(f, lam):
    """The five lambda-transformed scalar forms on the grid.

    omega1 = cos(phi/2)(dx/lam + lam dy), omega2 = sin(phi/2)(dx/lam - lam dy),
    omega12 = (phi_x dx - phi_y dy)/2, omega13 = sin(phi/2)(dx/lam + lam dy),
    omega23 = -cos(phi/2)(dx/lam - lam dy).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g = f.grid
    c, s = np.cos(f.phi / 2.0), np.sin(f.phi / 2.0)
    phi_x, phi_y = f.dphi_dx, f.phi_y()
    li = 1.0 / lam
    return {
        "omega1": FormField("omega1", g, c * li, c * lam),
        "omega2": FormField("omega2", g, s * li, -s * lam),
        "omega12": FormField("omega12", g, phi_x / 2.0, -phi_y / 2.0),
        "omega13": FormField("omega13", g, s * li, s * lam),
        "omega23": FormField("omega23", g, -c * li, c * lam),
    }


def _d(form):
    g = form.grid
    return deriv4(form.q, g.hx, axis=0) - deriv4(form.p, g.hy, axis=1)


def _wedge(a, b):
    return a.p * b.q - a.q * b.p


def check_conditions_K(forms):
    """Residual grids of the seven structure equations for a pseudospherical
    frame; keys 'a'..'g'. 'c' carries the sine-Gordon equation, 'f' and 'g'
    are algebraic identities of the lambda-form construction."""
    w1, w2 = forms["omega1"], forms["omega2"]
    w12, w13, w23 = forms["omega12"], forms["omega13"], forms["omega23"]
    return {
        "a": _d(w1) - _wedge(w12, w2),
        "b": _d(w2) - _wedge(w1, w12),
        "c": _d(w12) + _wedge(w13, w23),
        "d": _d(w13) - _wedge(w12, w23),
        "e": _d(w23) - _wedge(w13, w12),
        "f": _wedge(w1, w13) + _wedge(w2, w23),
        "g": _wedge(w1, w2) + _wedge(w13, w23),
    }


def gauge(frame, theta):
    """Right gauge action U -> U R(theta)^{-1}; the Gauss map (third
    column) is untouched."""
    theta = np.broadcast_to(np.asarray(theta, dtype=float),
                            (frame.grid.nx, frame.grid.ny))
    rinv = np.swapaxes(gauge_rotation(theta), -1, -2)
    dU = None if frame.dU is None else frame.dU @ rinv
    return ExtendedFrame(frame.grid, frame.lam, frame.U @ rinv, dU)


def su2_frame(f, lam, order="xy", substeps=1):
    """Integrate the 2x2 spinor frame P with P(0,0) = I.

    The su(2) Lax matrices are the images of A and B under the double
    cover differential, so adjoint_map(P) reproduces the 3x3 frame.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    P, _ = _fill_grid(_Sampler(f, substeps), lam, order,
                      np.eye(2, dtype=complex), None, substeps, spinor=True)
    return P


def save_frame(frame, path):
    """Dump a frame grid to CSV (9 row-major entries per node) or, when
    the path ends in .npz, to a binary archive. The header repeats the
    grid layout and lambda."""
    g = frame.grid
    path = str(path)
    if path.endswith(".npz"):
        np.savez(path, U=frame.U, lam=frame.lam,
                 grid=np.array([g.x0, g.y0, g.nx, g.ny, g.hx, g.hy]))
        return
    header = (f"# {g.nx} {g.ny} {g.x0:.17g} {g.y0:.17g} "
              f"{g.hx:.17g} {g.hy:.17g} {frame.lam:.17g}")
    lines = [header]
    for i in range(g.nx):
        for j in range(g.ny):
            lines.append(",".join(f"{v:.17g}" for v in frame.U[i, j].ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_frame(path):
    """Read a frame written by save_frame back into an ExtendedFrame."""
    from .sinegordon import GridSpec

    path = str(path)
    if path.endswith(".npz"):
        data = np.load(path)
        x0, y0, nx, ny, hx, hy = data["grid"]
        grid = GridSpec(float(x0), float(y0), int(nx), int(ny),
                        float(hx), float(hy))
        return ExtendedFrame(grid, float(data["lam"]), data["U"])
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != "#" or len(header) != 8:
            raise ValueError(f"{path}: malformed frame header")
        nx, ny = int(header[1]), int(header[2])
        x0, y0, hx, hy, lam = map(float, header[3:8])
        rows = _read_rows(fh, path)
    if len(rows) != nx * ny or any(r.size != 9 for r in rows):
        raise ValueError(f"{path}: data block does not match header")
    U = np.stack(rows).reshape(nx, ny, 3, 3)
    return ExtendedFrame(GridSpec(x0, y0, nx, ny, hx, hy), lam, U)


def _frame_loop_legs(f, i, j, n, substeps):
    """Frame-loop values at the n-th roots of unity at the end of the
    x-leg, (x_i, y_origin), and at the end of the y-leg, (x_i, y_j), of
    the path origin -> (x_i, y_origin) -> (x_i, y_j)."""
    from .loops import _circle_points

    g = f.grid
    if not (0 <= i < g.nx and 0 <= j < g.ny):
        raise ValueError(f"node ({i}, {j}) is outside the {g.nx}x{g.ny} grid")
    i0, j0 = g.origin_index()
    s = _Sampler(f, substeps)
    lams = _circle_points(n)
    u = np.broadcast_to(np.eye(3, dtype=complex), (n, 3, 3)).copy()
    for _, u, _ in _march(u, None, g.xs, i0, i, g.hx, substeps,
                         *_lax_on_line(s, lams, 0, j0)):
        pass
    u_axis = u
    for _, u, _ in _march(u, None, g.ys, j0, j, g.hy, substeps,
                         *_lax_on_line(s, lams, 1, i)):
        pass
    _check_transport(u_axis)
    _check_transport(u)
    return u_axis, u


def sample_frame_loop(f, i, j, n=64, substeps=1):
    """Frame loop lambda -> U(x_i, y_j; lambda) at the n-th roots of unity.

    Integrates the Lax system jointly for all sample points along the path
    origin -> (x_i, y_origin) -> (x_i, y_j). The result is twisted and has
    real Fourier coefficients (conjugation symmetry of the Lax system).
    Raises ValueError unless (i, j) is a grid node.
    """
    from .loops import SampledLoop

    return SampledLoop(_frame_loop_legs(f, i, j, n, substeps)[1],
                       twisted=True, real=True)
