"""Extended-frame integration of the Lax pair, Maurer-Cartan assembly and
the flatness / compatibility / conditions-(K) residuals.

The extended frame U(x, y; lambda) solves the right-invariant system

    U^{-1} U_x = A = -phi_x E12 + lambda E23
    U^{-1} U_y = B = (1/lambda) (-sin(phi) E13 - cos(phi) E23)

with U = I at the origin. The Sym position psi = lambda U_lambda U^{-1}
(a vector through `algebra.unhat`) has psi_x = -lambda U e1 and
psi_y = -U unhat(B), so the surface's Euclidean frame F = [[U, psi], [0, 1]]
solves F^{-1} dF = [[A, tau], [0, 0]], tau = -lambda e1 dx - unhat(B) dy:
grid frames are marched as the 3x4 state [U | psi]. Every ODE of psforge
is integrated by one RK4 step-matrix builder, `_step_blocks`: classical
RK4 along a grid line in propagator form, the step matrices of a block of
nodes built at once from the coefficients at every stage point
(entries-first when complex; on y-lines, where it is
(1/lambda)(sin(phi) X + cos(phi) Y), as sums of words in X and Y,
`_word_steps`) and projected onto the group by one batched
Newton-Schulz step (NS(u P) = u NS(P) for u on it; a resolved march of n
nodes drifts off it by about n eps |u|^2). `_march` applies them node by
node, for grid frames (one lambda or a batch), spinor frames and the
potentials' Birkhoff-factor ODEs; `_march_end` multiplies a whole line's
step matrices pairwise, for the legs of frame loops on the unit circle,
whose end states alone are used; they march the spinor lift P of U, in
SL(2, C) (`_loop_legs`). A spinor loop sampled at the n-th roots of unity
is marched at the n/4 + 1 roots of a quarter circle only; its reality
and twist give the other samples. Between grid nodes a sampled angle
field is read from tables of the marched lines refined onto the RK4
stage points (6-point Lagrange interpolation, `numerics.refine`).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (E12, E13, E23, _spinor, gauge_rotation, spinor_adjoint,
                      unhat)
from .errors import StepFailure, ZeroSpectralParameter
from .loops import _SIGNS, SampledLoop, _circle_points
from .numerics import _mm, deriv4, group_deviation, polar_project, refine

__all__ = [
    "ExtendedFrame", "MaurerCartanForm", "FormField", "integrate_frame",
    "compatibility_residual", "maurer_cartan", "flatness_residual",
    "lambda_forms", "check_conditions_K", "gauge", "su2_frame",
    "sample_frame_loop",
]


def _lax_A(phi_x, lam, m=3):
    # A in the leading block of an m x m zero matrix
    phi_x = np.asarray(phi_x)
    dtype = complex if np.iscomplexobj(np.asarray(lam)) else float
    out = np.zeros(np.broadcast_shapes(phi_x.shape, np.shape(lam)) + (m, m), dtype)
    out[..., 0, 1] = -phi_x
    out[..., 1, 0] = phi_x
    out[..., 1, 2] = lam
    out[..., 2, 1] = -lam
    return out


def _y_lax(entries):
    """The y generator (phi, lam) -> entries(sin(phi) / lam, cos(phi) / lam)
    of a map linear in both; its .basis, entries at (1, 0) and (0, 1), is
    the X, Y of `_word_table`, exact where cos(pi/2) = 6e-17 is not."""
    def gen(phi, lam):
        return entries(np.sin(phi) / lam, np.cos(phi) / lam)
    gen.basis = entries(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return gen


def _b_entries(s, c, m=3):
    # B in the leading block of an m x m zero matrix
    out = np.zeros(np.shape(s) + (m, m), np.result_type(s, c))
    out[..., 0, 2] = -s
    out[..., 2, 0] = s
    out[..., 1, 2] = -c
    out[..., 2, 1] = c
    return out


def _se3_A(phi_x, lam):
    # F^{-1} F_x = [[A, -lambda e1], [0, 0]]
    out = _lax_A(phi_x, lam, 4)
    out[..., 0, 3] = -lam
    return out


def _se3_b_entries(s, c):
    # F^{-1} F_y = [[B, -unhat(B)], [0, 0]]
    out = _b_entries(s, c, 4)
    out[..., :3, 3] = -unhat(out[..., :3, :3], check=False)
    return out


def _su2_A(phi_x, lam):
    # the image of _SO3's A under the double-cover differential spinor_map
    # o unhat, from its skew entries; _SO3 is looked up at call time
    g = _SO3[0](phi_x, lam)
    return _spinor(g[..., 2, 1], g[..., 0, 2], g[..., 1, 0])


def _su2_b_entries(s, c):
    # the same image of B, whose skew entries are (c, -s, 0)
    return _spinor(c, -s, np.zeros_like(s))


_lax_B = _y_lax(_b_entries)

# generator pairs (x, y) of the frame equations: the Euclidean frame
# [U | psi], the rotation frame U alone and its spinor lift. Each y
# generator is z (sin(phi) X + cos(phi) Y), z = 1/lambda, X and Y its
# .basis: the y-lines' RK4 steps are sums of words in X and Y
_SE3 = (_se3_A, _y_lax(_se3_b_entries))
_SO3 = (_lax_A, _lax_B)
_SU2 = (_su2_A, _y_lax(_su2_b_entries))


@dataclass
class ExtendedFrame:
    """Grid of frame matrices U(x, y; lambda) and Sym positions psi.

    F = [[U, psi], [0, 1]] solves F^{-1} dF = [[A, tau], [0, 0]] with
    tau = -lambda e1 dx - unhat(B) dy. When lam is a 1-D array, U and psi
    carry it as a leading batch axis.
    """

    grid: object
    lam: float
    U: np.ndarray
    psi: np.ndarray


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

    grid: object
    p: np.ndarray
    q: np.ndarray


def _stage_table(values, t0, h, substeps):
    """values sampled at the grid nodes t0 + k*h, as a function of a 1-D
    array of stage times t read from a table at the points where `_march`
    evaluates coefficients: every half substep, h / (2 * substeps) apart.
    Returns the rows t.shape + values.shape[1:]."""
    r = 2 * substeps
    table, step = refine(values, r), h / r
    return lambda t: table[np.rint((t - t0) / step).astype(int)]


# the bytes of the step matrices of a block of `_step_blocks`, in units
# of one complex 3x3 step matrix (144 B): the step matrices of a block
# are built at once, and the bound keeps them (295 kB) and their
# coefficients and products a few MB whatever the batch and the
# matrix size
_BLOCK_STATES = 2048

# RK4's weights of the y-line words of length 1 .. 4; columns per product
_RK = (1 / 6, 1 / 6, 1 / 12, 1 / 24)
_PANEL = 64


def _word_table(basis, zh):
    """The word table of a y-line march, zh.shape + (rows, 30): per step
    scale zh = h / lambda, the columns RK_L (zh)^L X_w of the 30 words w of
    length L = 1 .. 4 in the basis (X, Y), lexicographic, their entries
    the rows (real parts, then imaginary ones when complex)."""
    w = basis.shape[-1]
    words, cols, power = basis, [], 1.0
    for weight in _RK:
        power = power * zh
        cols.append(np.multiply.outer(weight * power,
                                      words.reshape(-1, w * w).T))
        words = (words[:, None] @ basis).reshape(-1, w, w)
    table = np.concatenate(cols, axis=-1)
    if np.iscomplexobj(table):
        table = np.concatenate([table.real, table.imag], axis=-2)
    return np.ascontiguousarray(table)


def _word_steps(table, phi, w):
    """The RK4 steps, entries-first (w, w, lambda..., node, line...), of
    the y-line nodes whose stage angles are phi (stage, node, line...). A
    substep is I + sum_w c_w RK_L (zh)^L X_w, c_w the coefficient of the
    word w in M1 = G1 + 4 G2 + G3, M2 = G1 G2 + G2^2 + G2 G3,
    M3 = G1 G2^2 + G2^2 G3 and M4 = G1 G2^2 G3, G_k = sin(phi_k) X +
    cos(phi_k) Y. The monomials c_w fill fixed panels of _PANEL columns,
    each multiplied by each lambda's table (`_word_table`): small products
    on the calling thread, whose bits depend on neither block nor batch."""
    v = np.stack([np.sin(phi), np.cos(phi)])
    v1, v2, v3 = v[:, :-1:2], v[:, 1::2], v[:, 2::2]  # (2, substep, ...)
    shape = v1.shape[1:]
    v1, v2, v3 = (x.reshape(2, -1) for x in (v1, v2, v3))
    n = v1.shape[1]
    mono = np.zeros((30, -(-n // _PANEL) * _PANEL))
    q = v2[:, None] * v2
    t = v1[:, None, None] * q
    mono[:2, :n] = v1 + 4.0 * v2 + v3
    mono[2:6, :n] = ((v1 + v2)[:, None] * v2 + v2[:, None] * v3).reshape(4, n)
    mono[6:14, :n] = (t + q[:, :, None] * v3).reshape(8, n)
    mono[14:, :n] = (t[..., None, :] * v3).reshape(16, n)
    panels = mono.reshape(30, -1, _PANEL).swapaxes(0, 1)
    rows, lams = table.shape[-2], table.shape[:-2]
    # (row, lambda..., panel, col): the products land rows-first
    e = np.empty((rows,) + lams + panels.shape[::2])
    np.matmul(table[..., None, :, :], panels, out=np.moveaxis(e, 0, -2))
    e = e.reshape((rows,) + lams + (-1,))[..., :n]
    e[:w * w:w + 1] += 1.0
    if rows > w * w:
        re, e = e, np.empty((w * w,) + e.shape[1:], complex)
        e.real, e.imag = re[:w * w], re[w * w:]
    e = e.reshape((w, w) + lams + (shape[0], -1))
    P = e[..., 0, :]
    for k in range(1, shape[0]):
        P = _mm(P, e[..., k, :])
    return P.reshape((w, w) + lams + shape[1:])


def _step_blocks(u, ts, start, stop, spacing, substeps, coeff):
    """The RK4 step matrices of the march of u' = u @ coeff(t) along a grid
    line with node coordinates ts from node start to node stop, in
    `substeps` steps per node: yields (nodes, P) per block of nodes, P[k]
    the step from nodes[k] to the next node. u gives the shapes only:
    leading batch axes, those of the coefficients, and m rows.

    On a linear equation an RK4 step is exactly u <- u P with
    c2 = a2 + (h/2) a1 a2, c3 = a2 + (h/2) c2 a2, c4 = a3 + h c3 a3 and
    P = I + (h/6)(a1 + 2 c2 + 2 c3 + c4), a1, a2, a3 the coefficients at
    the start, middle and end of the step. On the y-lines of the frame
    equations (coeff.words, see `_lax_on_line`) the same step is built as
    a sum over words in the generator's basis X, Y from a table made once
    per march (`_word_table`, `_word_steps`); elsewhere the steps of all
    of a node's substeps are built at once, the substep a batch axis, and
    composed in order, complex coefficients multiplied entries-first,
    (row, col, stage, node, batch...), by `numerics._mm` (numpy's stacked
    matmul, which real ones keep, is several times slower on small
    complex matrices). The step matrices of a block of nodes (in bytes,
    node steps x batched states x one step matrix, at most _BLOCK_STATES
    complex 3x3 step matrices) are built at once from one call on a 1-D
    array of stage times, every half substep; one Newton-Schulz step per
    block projects their square blocks P[..., :m, :m] (psi columns aside)
    onto the group."""
    direction = 1 if stop >= start else -1
    h = direction * spacing / substeps
    m, w = u.shape[-2:]
    nodes = np.arange(start, stop, direction)
    step_bytes = max(1, u[..., 0, 0].size) * w * w * u.itemsize
    per_block = max(1, _BLOCK_STATES * 144 // step_bytes)
    words = getattr(coeff, "words", None)
    if words is not None:
        angle, basis, z = words
        table = _word_table(basis, h * z)
    for b in range(0, len(nodes), per_block):
        block = nodes[b:b + per_block]
        t = ts[block] + (0.5 * h) * np.arange(2 * substeps + 1)[:, None]
        if words is not None:
            phi = angle(t.ravel())
            P = _word_steps(table, phi.reshape(t.shape + phi.shape[1:]), w)
            # projected lambda-first, as the products land
            P = np.moveaxis(P, (0, 1), (-2, -1))
            P[..., :m, :m] = polar_project(P[..., :m, :m])
            yield block, np.moveaxis(P, np.ndim(z), 0)
            continue
        a = coeff(t.ravel())
        a = a.reshape(t.shape + a.shape[1:])  # (stage, node, batch..., w, w)
        if np.iscomplexobj(a):  # (w, w, stage, node, batch...)
            a = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))
            mm, back = _mm, lambda x: np.moveaxis(x, (0, 1), (-2, -1))
            eye = np.eye(w).reshape((w, w) + (1,) * (a.ndim - 2))
            a1, a2, a3 = a[:, :, 0:-1:2], a[:, :, 1::2], a[:, :, 2::2]
        else:
            mm, back, eye = np.matmul, (lambda x: x), np.eye(w)
            a1, a2, a3 = a[0:-1:2], a[1::2], a[2::2]
        c2 = a2 + (0.5 * h) * mm(a1, a2)
        c3 = a2 + (0.5 * h) * mm(c2, a2)
        c4 = a3 + h * mm(c3, a3)
        steps = eye + (h / 6.0) * (a1 + 2.0 * c2 + 2.0 * c3 + c4)
        steps = steps if mm is np.matmul else np.moveaxis(steps, 2, 0)
        P = back(functools.reduce(mm, steps))  # ((S1 S2) S3) ...
        P[..., :m, :m] = polar_project(P[..., :m, :m])
        yield block, P


def _march(u, ts, start, stop, spacing, substeps, coeff):
    """The RK4 transport kernel: march u' = u @ coeff(t) along a grid line
    with node coordinates ts from node start to node stop, in `substeps`
    steps per node. Yields (node, u) per node. States may carry leading
    batch axes, those of the coefficients. The step matrices come from
    `_step_blocks`, one block at a time, and u @ P runs node by node
    (drift about n eps |u|^2 off the group in n nodes)."""
    direction = 1 if stop >= start else -1
    for block, P in _step_blocks(u, ts, start, stop, spacing, substeps,
                                 coeff):
        for n, p in zip(block, P):
            u = u @ p
            yield n + direction, u


def _march_end(u, ts, start, stop, spacing, substeps, coeff):
    """The end state of `_march` alone: the whole line's step matrices
    (`_step_blocks`) multiplied pairwise by node index,
    (P1 P2)(P3 P4)..., an odd last one carried to the next round,
    entries-first by `numerics._mm`, then one u @ Q. The pairing depends
    on the node count only, not on the blocks, so neither does the
    result. A march of no nodes returns u itself."""
    P = [np.moveaxis(p, (-2, -1), (0, 1)) for _, p in
         _step_blocks(u, ts, start, stop, spacing, substeps, coeff)]
    if not P:
        return u
    P = np.concatenate(P, axis=2)  # (row, col, node, batch...)
    while P.shape[2] > 1:
        n = P.shape[2]
        P = np.concatenate([_mm(P[:, :, 0:n - 1:2], P[:, :, 1::2]),
                            P[:, :, n - n % 2:]], axis=2)
    return u @ np.moveaxis(P[:, :, 0], (0, 1), (-2, -1))


# resolved marches stay within 1e-12; a 101^2 soliton frame at this
# deviation is already about 1e-2 off a substeps-16 reference
_GROUP_TOL = 1e-8

# the fixed resolution of the associated family, the split check and
# verify's loops: substeps per grid step, samples of a frame loop
_SUBSTEPS = 2
_LOOP_SAMPLES = 64


def _check_transport(u):
    """Raise StepFailure unless the square blocks u[..., :m] of the marched
    states are finite and on their group (`numerics.group_deviation`; a nan
    deviation, of states too large to square, fails too). A resolved
    march of n nodes stays within about n eps |u|^2 of it; one Newton-Schulz
    step on each node's step matrix does not pull back a march whose step
    is too coarse for the Lax system (large h * max(lambda, 1/lambda)).
    It is the one report of a march that overflows (run under errstate)."""
    u = u[..., :u.shape[-2]]
    if not np.all(np.isfinite(u)):
        raise StepFailure("RK4 transport produced non-finite entries")
    dev = group_deviation(u)
    if not dev <= _GROUP_TOL:  # nan when |u|^2 overflows
        raise StepFailure(f"RK4 transport left the group by {dev:.1e}: "
                          "the step does not resolve the Lax system; use "
                          "more substeps or a finer grid")


def _spectral(lam, substeps, batch=True):
    """The one rule by which every march takes lambda and substeps: an
    integer >= 1; lambda finite, positive or complex (0j raises
    ZeroSpectralParameter), one number or, where the march batches, a 1-D
    array, not empty. Returns lambda as floats or complex numbers; else
    ValueError."""
    if not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, not {substeps!r}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"lambda must be finite, not {lam!r}")
    a = np.asarray(lam, complex if np.iscomplexobj(lam) else float)
    if not (np.iscomplexobj(a) or np.all(a > 0)):
        raise ValueError(f"lambda must be positive or complex, not {lam!r}")
    if a.ndim > batch:
        raise ValueError("lambda must be positive or complex, and a number"
                         + (" or a 1-D array" if batch else ""))
    if not a.size:
        raise ValueError("lambda must be a number or a non-empty array, "
                         "not an empty one")
    if np.any(a == 0):
        raise ZeroSpectralParameter("the frame equations are singular at "
                                    "lambda = 0")
    return a if a.ndim else a.item()


def _lax_on_line(f, lam, axis, line, gens, substeps):
    """The coefficient of the frame equations on a grid line, from the
    generator pair gens (`_SE3`, `_SO3` or `_SU2`): in x at the y-node(s)
    `line` (axis 0) or in y at the x-node(s) `line`. It takes a 1-D array
    of stage points and returns points.shape + lambda batch + line batch
    + the generator's (m, m). The angle (phi_x in x, phi in y) is exact
    when the field is analytic, otherwise read from a table of the marched
    lines' samples refined onto the stage points of a march of `substeps`
    RK4 steps per grid step (`_stage_table`). On y-lines it also carries
    coeff.words = (angle, (X, Y), 1/lambda), the generator being
    (1/lambda)(sin(angle) X + cos(angle) Y), from which `_step_blocks`
    builds the step matrices as sums of words in X and Y."""
    g = f.grid
    lam = lam0 = np.asarray(lam)
    lam_axes = (slice(None),) + (None,) * lam.ndim
    lam = lam.reshape(lam.shape + (1,) * np.ndim(line))
    on_line = (1,) * np.ndim(line)
    if f.analytic and axis == 0:
        angle = lambda x: f.phix_fn(x.reshape(x.shape + on_line), g.ys[line])
    elif f.analytic:
        angle = lambda y: f.phi_fn(g.xs[line], y.reshape(y.shape + on_line))
    elif axis == 0:
        angle = _stage_table(f.dphi_dx[:, line], g.x0, g.hx, substeps)
    else:
        angle = _stage_table(f.phi[line].T, g.y0, g.hy, substeps)

    def coeff(t):
        return gens[axis](angle(t)[lam_axes], lam)

    if axis == 1:
        coeff.words = (angle, gens[1].basis, 1.0 / lam0)
    return coeff


def _fill_grid(f, lam, order, u0, substeps, gens):
    """March u0 from the origin along the first axis of `order`, then from
    that line along every line of the other axis, under the generator pair
    gens. Returns the states, of shape lam.shape + (nx, ny) + u0.shape."""
    if order not in ("xy", "yx"):
        raise ValueError("order must be 'xy' or 'yx'")
    g = f.grid
    U = np.zeros(np.shape(lam) + (g.nx, g.ny) + u0.shape, u0.dtype)
    a, b = (0, 1) if order == "xy" else (1, 0)
    # view with the first-marched axis in front
    V = U if a == 0 else np.swapaxes(U, -4, -3)
    lines, origin = ((g.xs, g.hx, g.nx), (g.ys, g.hy, g.ny)), g.origin_index()
    (ta, ha, na), (tb, hb, nb) = lines[a], lines[b]
    oa, ob = origin[a], origin[b]
    V[..., oa, ob, :, :] = u0
    # an unresolved march may overflow: _check_transport reports it
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = _lax_on_line(f, lam, a, ob, gens, substeps)
        for stop in (na - 1, 0):
            for n, u in _march(V[..., oa, ob, :, :].copy(), ta, oa, stop, ha,
                               substeps, coeff):
                V[..., n, ob, :, :] = u
        coeff = _lax_on_line(f, lam, b, np.arange(na), gens, substeps)
        for stop in (nb - 1, 0):
            for n, u in _march(V[..., :, ob, :, :].copy(), tb, ob, stop, hb,
                               substeps, coeff):
                V[..., :, n, :, :] = u
        _check_transport(U)
    return U


def integrate_frame(f, lam, order="xy", substeps=1):
    """Integrate the extended frame U and the Sym position psi over the
    whole grid from U(0,0) = I, psi(0,0) = 0, marching the Euclidean frame
    [U | psi] (see `ExtendedFrame`).

    order="xy" sweeps along the x axis through the origin first and then
    along every column (the default); "yx" is the transposed path, useful
    for path-independence checks. substeps > 1 subdivides each grid step
    (the spectral accuracy limit of plain RK4 at the grid step). lam and
    substeps follow the rule of every march (`_spectral`): lam is positive
    or complex, a number or a 1-D array; an array becomes the leading
    axis of U and psi, every member integrated at once. Raises
    StepFailure when the march leaves the group, i.e. when the step is too
    coarse for lambda; more substeps resolve it.
    """
    lam = _spectral(lam, substeps)
    u0 = np.eye(3, 4, dtype=complex if np.iscomplexobj(lam) else float)
    F = _fill_grid(f, lam, order, u0, substeps, _SE3)
    return ExtendedFrame(f.grid, lam, F[..., :3].copy(), F[..., 3].copy())


def compatibility_residual(f):
    """Frobenius norm of A_y - B_x - [A, B] = (sin(phi) - phi_xy) E12 per
    node, the same at every lambda: zero exactly when phi solves the
    sine-Gordon equation. Analytic derivatives of phi are used when the
    field carries them."""
    return np.sqrt(2.0) * np.abs(np.sin(f.phi) - f.phi_xy())


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
        "omega1": FormField(g, c * li, c * lam),
        "omega2": FormField(g, s * li, -s * lam),
        "omega12": FormField(g, phi_x / 2.0, -phi_y / 2.0),
        "omega13": FormField(g, s * li, s * lam),
        "omega23": FormField(g, -c * li, c * lam),
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
    column) and the Sym position psi are untouched."""
    theta = np.broadcast_to(np.asarray(theta, dtype=float),
                            (frame.grid.nx, frame.grid.ny))
    rinv = np.swapaxes(gauge_rotation(theta), -1, -2)
    return ExtendedFrame(frame.grid, frame.lam, frame.U @ rinv, frame.psi)


def su2_frame(f, lam, order="xy", substeps=1):
    """Integrate the 2x2 spinor frame P with P(0,0) = I.

    The su(2) Lax matrices are the images of A and B under the double
    cover differential, so spinor_adjoint(P) reproduces the 3x3 frame. lam
    is taken by the rule of every march (`_spectral`): a 1-D array becomes
    the leading axis of P, and at a complex lambda P J(e_k) P^-1 = J(U e_k)
    with the complex U of integrate_frame (J = `algebra.spinor_map`).
    """
    return _fill_grid(f, _spectral(lam, substeps), order,
                      np.eye(2, dtype=complex), substeps, _SU2)


def _loop_legs(f, i, j, lams, substeps):
    """Spinor frames P, the lift of U = `algebra.spinor_adjoint`(P), at the
    lambdas lams (complex on a frame loop) at the end of the x-leg,
    (x_i, y_origin), and at the end of the y-leg, (x_i, y_j), of the path
    origin -> (x_i, y_origin) -> (x_i, y_j), every lambda marched (`_SU2`,
    in SL(2, C) at a complex lambda): 2x2 step matrices, and a generator
    of half U's rate, so about 16 times less RK4 error than U's march at
    the same step."""
    g = f.grid
    if not all(isinstance(k, (int, np.integer)) for k in (i, j)):
        raise ValueError(f"node ({i}, {j}) is not a pair of integers")
    if not (0 <= i < g.nx and 0 <= j < g.ny):
        raise ValueError(f"node ({i}, {j}) is outside the {g.nx}x{g.ny} grid")
    lams = _spectral(lams, substeps)
    i0, j0 = g.origin_index()
    p = np.zeros(np.shape(lams) + (2, 2), complex) + np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _fill_grid
        p_axis = _march_end(p, g.xs, i0, i, g.hx, substeps,
                            _lax_on_line(f, lams, 0, j0, _SU2, substeps))
        p = _march_end(p_axis, g.ys, j0, j, g.hy, substeps,
                       _lax_on_line(f, lams, 1, i, _SU2, substeps))
        _check_transport(p_axis)
        _check_transport(p)
    return p_axis, p


def _frame_loop_legs(f, i, j, n, substeps):
    """`_loop_legs` at the n-th roots of unity lambda_s = exp(2 pi i s / n),
    n a power of two >= 4. The spinor Lax system is real, P(conj lambda) =
    s2 conj(P(lambda)) s2, and twisted, P(-lambda) = s3 P(lambda) s3 (sk
    the Pauli matrices), so only s = 0 .. n/4 is marched: P_{n/2-s} =
    s1 conj(P_s) s1 and P_{n-s} = s2 conj(P_s) s2 give the rest, exactly."""
    if not isinstance(n, (int, np.integer)) or n < 4 or n & (n - 1):
        raise ValueError(f"n = {n} samples: not an integer power of two >= 4")
    legs = _loop_legs(f, i, j, _circle_points(n)[:n // 4 + 1], substeps)
    out = []
    for q in legs:
        half = np.concatenate([q, q[-2::-1, ::-1, ::-1].conj()])
        out.append(np.concatenate(
            [half, _SIGNS[2] * half[-2:0:-1, ::-1, ::-1].conj()]))
    return tuple(out)


def sample_frame_loop(f, i, j, n=_LOOP_SAMPLES, substeps=1):
    """Frame loop lambda -> U(x_i, y_j; lambda) at the n-th roots of unity:
    the spinor lift of the Lax system marched along the path origin ->
    (x_i, y_origin) -> (x_i, y_j) at the n/4 + 1 roots of a quarter circle
    only, unfolded by reality and twist (`_frame_loop_legs`) and mapped
    once by `algebra.spinor_adjoint`, so the loop is twisted with real
    Fourier coefficients. Raises ValueError unless (i, j) is a grid node
    and n a power of two >= 4.
    """
    return SampledLoop(spinor_adjoint(_frame_loop_legs(f, i, j, n, substeps)[1]),
                       twisted=True, real=True)
