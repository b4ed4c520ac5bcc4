"""Shared test helpers: random twisted loop-group factors, an RK4 ODE
oracle independent of psforge's march (`_rk4_pair`, one step of u' = u a
and, given w, of its derivative w' = w a + u d), the Wiener loop norm,
Cauchy product, identity loop, hat map and constant angle field that
only tests use (`loop_norm`, `multiply`, `identity_loop`, `hat`,
`constant_angle`), the 3x3 commutator form of the compatibility residual
(`ref_compatibility_residual`), the per-lambda flatness and conditions-(K)
residuals that rebuilt and differentiated every form at every lambda
(`ref_flatness_residual`, `ref_lambda_forms`, `ref_check_conditions_K`),
the per-substep march psforge used before its propagator form
(`ref_march`), the per-interval Lagrange weights of `numerics.refine`
before they were shared per offset (`ref_refine`), the
quadrant-by-quadrant Goursat sweep before the one-wavefront sweep
(`ref_goursat_raw`), a closed-form two-soliton field and per-node
reference writers."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from psforge.algebra import E12, E13, E23, wiener_matrix_norm
from psforge.errors import NonconvergentCell
from psforge.frames import _lax_A, _lax_B
from psforge.loops import LaurentLoop
from psforge.numerics import _STENCIL, deriv4, polar_project
from psforge.sinegordon import AngleField


def hat(v):
    """3-vector -> skew matrix such that hat(v) @ u = v x u."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 1, 0] = v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 2, 0] = -v[..., 1]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 1] = v[..., 0]
    return out


def random_twisted_algebra(kmin, kmax, total_norm, rng):
    """Random twisted so(3) Laurent polynomial scaled to a Wiener norm."""
    coeffs = {}
    for k in range(kmin, kmax + 1):
        if k % 2 == 0:
            coeffs[k] = rng.normal(0.0, 1.0) * E12
        else:
            coeffs[k] = rng.normal(0.0, 1.0) * E13 + rng.normal(0.0, 1.0) * E23
    norm = sum(np.abs(c).sum(axis=1).max() for c in coeffs.values())
    return {k: c * (total_norm / norm) for k, c in coeffs.items()}


def group_loop_from_algebra(coeffs, n=64, tail_tol=1e-14):
    """exp of a twisted algebra loop, sampled on the circle and converted
    to real Fourier coefficients. ||exp(X) - I|| <= e^||X|| - 1, so a
    total_norm of 0.25 keeps the factor within 0.3 of the identity."""
    lams = np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.array([expm(sum(c * lam ** k for k, c in coeffs.items()))
                     for lam in lams])
    fc = np.fft.fft(vals, axis=0) / n
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    out = {int(k): fc[i].real for i, k in enumerate(ks)
           if np.abs(fc[i]).max() > tail_tol}
    return LaurentLoop.from_dict(out, twisted=True, real=True)


def random_twisted_factor(kmin, kmax, rng, total_norm=0.25):
    return group_loop_from_algebra(
        random_twisted_algebra(kmin, kmax, total_norm, rng))


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


# psforge's `frames._march` before the propagator form, kept unchanged: four
# products and three coefficient calls (at scalar t) per RK4 substep

def ref_march(u, ts, start, stop, spacing, substeps, coeff):
    """The RK4 transport kernel: march u' = u @ coeff(t) along a grid line
    with node coordinates ts from node start to node stop, in `substeps`
    steps per node. The square block u[..., :m] (m rows) is projected onto
    its group at every node; a Euclidean frame's psi column rides along.
    Yields (node, u) per node. States may carry leading batch axes."""
    direction = 1 if stop >= start else -1
    h_node = direction * spacing
    h = h_node / substeps
    m = u.shape[-2]
    for n in range(start, stop, direction):
        for k in range(substeps):
            t0 = ts[n] + h_node * k / substeps
            a1, a2, a3 = coeff(t0), coeff(t0 + 0.5 * h), coeff(t0 + h)
            k1 = u @ a1
            k2 = (u + 0.5 * h * k1) @ a2
            k3 = (u + 0.5 * h * k2) @ a2
            k4 = (u + h * k3) @ a3
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u[..., :m] = polar_project(u[..., :m])
        yield n + direction, u


# psforge's `numerics.refine` before its Lagrange weights were computed
# once per stencil offset, kept unchanged: one weight set per interval

def ref_refine(values, r):
    """Samples on the r-fold refined uniform grid along the leading axis.

    Returns the (n-1)*r + 1 values at node positions k/r, k = 0..(n-1)*r,
    each the Lagrange interpolant through the 6 nodes nearest its interval
    (the 6 nodes nearest the edge near an edge, every node when the axis
    has fewer than 6). Exact at the original nodes.
    """
    v = np.asarray(values)
    n = v.shape[0]
    width = min(_STENCIL, n)
    m = np.arange(n - 1)
    start = np.clip(m - 2, 0, n - width)  # nodes m-2 .. m+3 around interval m
    t = (m - start)[:, None] + np.arange(r) / r  # (n-1, r), in node units
    k = np.arange(width)
    same = np.eye(width, dtype=bool)
    # Lagrange weights prod_{l != k} (t - l) / (k - l), shape (n-1, r, width)
    weights = np.where(same, 1.0, (t[..., None, None] - k)
                       / (k[:, None] - k + same)).prod(-1)
    fine = np.einsum("mqk,mk...->mq...", weights, v[start[:, None] + k])
    return np.concatenate([fine.reshape((-1,) + v.shape[1:]), v[-1:]])


# psforge's `sinegordon._goursat_raw` before the quadrants were swept as
# one wavefront, kept unchanged: each quadrant marched on its own, with
# fancy-index gathers and the neighbours' sines recomputed per diagonal

def _ref_sweep_quadrant(f, i0, j0, sx, sy, k):
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


def ref_goursat_raw(x_data, y_data, grid):
    i0, j0 = grid.origin_index()
    f = np.zeros((grid.nx, grid.ny))
    f[:, j0] = x_data
    f[i0, :] = y_data
    w = grid.hx * grid.hy / 4.0
    for sx in (1, -1):
        for sy in (1, -1):
            _ref_sweep_quadrant(f, i0, j0, sx, sy, sx * sy * w)
    return f


def two_soliton(grid, a1=0.8, a2=1.7):
    """The two-soliton of phi_xy = sin(phi) on a grid, with its analytic
    closures: tan(phi/4) = ((a2+a1)/(a2-a1)) sinh((t1-t2)/2) /
    cosh((t1+t2)/2), t_i = a_i x + y/a_i (Rogers & Schief, Baecklund and
    Darboux Transformations, CUP 2002)."""
    c = (a2 + a1) / (a2 - a1)

    def parts(x, y):
        t1, t2 = a1 * x + y / a1, a2 * x + y / a2
        return c * np.sinh(0.5 * (t1 - t2)), np.cosh(0.5 * (t1 + t2)), t1, t2

    def phi_fn(x, y):
        s, ch, _, _ = parts(x, y)
        return 4.0 * np.arctan2(s, ch)

    def phix_fn(x, y):
        s, ch, t1, t2 = parts(x, y)
        ds = 0.5 * c * (a1 - a2) * np.cosh(0.5 * (t1 - t2))
        dch = 0.5 * (a1 + a2) * np.sinh(0.5 * (t1 + t2))
        return 4.0 * (ds * ch - s * dch) / (ch * ch + s * s)

    x, y = grid.meshgrid()
    return AngleField(grid, phi_fn(x, y), phix_fn(x, y), phi_fn=phi_fn,
                      phix_fn=phix_fn)


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


def identity_loop():
    """The constant loop I, twisted and real."""
    return LaurentLoop(np.eye(3)[None], 0, twisted=True, real=True)


def ref_compatibility_residual(f, lam):
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


def ref_flatness_residual(form, lam):
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


@dataclass
class ref_FormField:
    """Scalar 1-form p dx + q dy sampled on a grid."""

    grid: object
    p: np.ndarray
    q: np.ndarray


def ref_lambda_forms(f, lam):
    """The five lambda-transformed scalar forms on the grid.

    omega1 = cos(phi/2)(dx/lam + lam dy), omega2 = sin(phi/2)(dx/lam - lam dy),
    omega12 = (phi_x dx - phi_y dy)/2, omega13 = sin(phi/2)(dx/lam + lam dy),
    omega23 = -cos(phi/2)(dx/lam - lam dy). lam must be a positive real
    number (ValueError otherwise).
    """
    if np.ndim(lam) or np.iscomplexobj(lam) or not 0 < lam < np.inf:
        raise ValueError(f"lambda must be a positive real number, not {lam!r}")
    g = f.grid
    c, s = np.cos(f.phi / 2.0), np.sin(f.phi / 2.0)
    phi_x, phi_y = f.dphi_dx, f.phi_y()
    li = 1.0 / lam
    return {
        "omega1": ref_FormField(g, c * li, c * lam),
        "omega2": ref_FormField(g, s * li, -s * lam),
        "omega12": ref_FormField(g, phi_x / 2.0, -phi_y / 2.0),
        "omega13": ref_FormField(g, s * li, s * lam),
        "omega23": ref_FormField(g, -c * li, c * lam),
    }


def ref_d(form):
    g = form.grid
    return deriv4(form.q, g.hx, axis=0) - deriv4(form.p, g.hy, axis=1)


def ref_wedge(a, b):
    return a.p * b.q - a.q * b.p


def ref_check_conditions_K(forms):
    """Residual grids of the seven structure equations for a pseudospherical
    frame; keys 'a'..'g'. 'c' carries the sine-Gordon equation, 'f' and 'g'
    are algebraic identities of the lambda-form construction."""
    w1, w2 = forms["omega1"], forms["omega2"]
    w12, w13, w23 = forms["omega12"], forms["omega13"], forms["omega23"]
    return {
        "a": ref_d(w1) - ref_wedge(w12, w2),
        "b": ref_d(w2) - ref_wedge(w1, w12),
        "c": ref_d(w12) + ref_wedge(w13, w23),
        "d": ref_d(w13) - ref_wedge(w12, w23),
        "e": ref_d(w23) - ref_wedge(w13, w12),
        "f": ref_wedge(w1, w13) + ref_wedge(w2, w23),
        "g": ref_wedge(w1, w2) + ref_wedge(w13, w23),
    }


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


def coeff_dev(a, b):
    """Sup over powers of the entrywise difference of two loops."""
    keys = set(a.coeffs) | set(b.coeffs)
    return max(float(np.abs(a.coeffs.get(k, 0.0) - b.coeffs.get(k, 0.0)).max())
               for k in keys)


# Reference text writers: the per-node writers psforge used before its
# table writer, kept unchanged so tests can require the same bytes.

def _ref_fmt(v):
    return f"{v:.17g}"


def ref_write_geometry_csv(geom, path):
    g = geom.grid
    cols = ("E", "F", "G", "L", "M", "N2", "K")
    lines = ["# i,j," + ",".join(cols)]
    data = [getattr(geom, c) for c in cols]
    for i in range(g.nx):
        for j in range(g.ny):
            vals = ",".join(_ref_fmt(float(d[i, j])) for d in data)
            lines.append(f"{i},{j},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_export_mesh(s, path, mask=None):
    g = s.grid
    p = s.points
    if mask is None:
        mask = np.ones((g.nx, g.ny), dtype=bool)
    with open(path, "w") as fh:
        for i in range(g.nx):
            for j in range(g.ny):
                x, y, z = p[i, j]
                fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for i in range(g.nx - 1):
            for j in range(g.ny - 1):
                if not (mask[i, j] and mask[i + 1, j]
                        and mask[i, j + 1] and mask[i + 1, j + 1]):
                    continue
                a = i * g.ny + j + 1
                b = (i + 1) * g.ny + j + 1
                c = (i + 1) * g.ny + j + 2
                d = i * g.ny + j + 2
                fh.write(f"f {a} {b} {c}\n")
                fh.write(f"f {a} {c} {d}\n")


def ref_save_angle_csv(f, path, derivative_path=None):
    g = f.grid
    header = (f"# {g.nx} {g.ny} {_ref_fmt(g.x0)} {_ref_fmt(g.y0)} "
              f"{_ref_fmt(g.hx)} {_ref_fmt(g.hy)}")
    for data, p in ((f.phi, path), (f.dphi_dx, derivative_path)):
        if p is None:
            continue
        lines = [header]
        for j in range(g.ny):
            lines.append(",".join(_ref_fmt(v) for v in data[:, j]))
        with open(p, "w") as fh:
            fh.write("\n".join(lines) + "\n")


_REF_COLS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]


def ref_save_potential_csv(pot, path):
    lines = ["# axis,coord,s12,s13,s23,s21,s31,s32"]
    for c, m in zip(pot.coords, pot.samples):
        vals = ",".join(f"{m[r, s]:.17g}" for r, s in _REF_COLS)
        lines.append(f"{pot.axis},{c:.17g},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_save_potential2_csv(pot, path):
    lines = ["# axis,coord,re01,im01,re10,im10"]
    for c, m in zip(pot.coords, pot.samples):
        lines.append(f"{pot.axis},{c:.17g},{m[0, 1].real:.17g},"
                     f"{m[0, 1].imag:.17g},{m[1, 0].real:.17g},{m[1, 0].imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
