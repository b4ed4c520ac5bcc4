"""Weierstrass-type data of a pseudospherical surface: the normalized x-
and y-potentials in closed form, their 2x2 versions through the basis
dictionary `algebra.so3_to_su2`, ODE integration of the Birkhoff factors,
and cross-validation against numerical splitting of the frame loop.

Both potentials are p-valued axis forms (span of E13, E23) determined by
the angle restricted to the axes: eta_x by conjugating the constant -E23
with the accumulated rotation of angle phi(0,0) - phi(x,0), eta_y equal to
the boundary form gamma1 itself.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import E12, E13, E23, gauge_rotation, so3_to_su2
from .errors import NonpositiveProfile
from .frames import (_check_march, _check_transport, _frame_loop_legs,
                     _march, _stage_table)
from .loops import SampledLoop, birkhoff_split, loop_eval
from .numerics import refine_span
from .sinegordon import _write_rows

__all__ = [
    "PotentialForm", "BoundaryForms", "boundary_forms", "rotation_V0",
    "eta_x", "eta_y", "eta_2x2", "eta_general",
    "integrate_plus", "integrate_minus", "cross_check_split",
    "save_potential_csv", "load_potential_csv", "save_potential2_csv",
]


@dataclass
class PotentialForm:
    """Lie-algebra-valued 1-form sampled along one axis.

    samples[k] is the matrix coefficient of dx (axis 'x') or dy ('y') at
    the k-th axis node; lambda_power records how the meromorphic form
    scales: xi^x = lambda * eta^x (+1), xi^y = eta^y / lambda (-1).
    """

    axis: str
    coords: np.ndarray
    samples: np.ndarray
    lambda_power: int


@dataclass
class BoundaryForms:
    """Axis restrictions of the Maurer-Cartan coefficients.

    beta0/beta1 sample the dx part along y=0, gamma0/gamma1 the dy part
    along x=0; gamma0 is identically zero and beta1 constant -E23.
    """

    xs: np.ndarray
    ys: np.ndarray
    beta0: np.ndarray
    beta1: np.ndarray
    gamma0: np.ndarray
    gamma1: np.ndarray


def _axis_data(f):
    i0, j0 = f.grid.origin_index()
    return i0, j0, f.phi[:, j0], f.phi[i0, :]


def boundary_forms(f):
    """Restrict the Maurer-Cartan coefficient fields to the two axes."""
    _, j0 = f.grid.origin_index()
    nx, ny = f.grid.nx, f.grid.ny
    beta0 = f.dphi_dx[:, j0][:, None, None] * E12
    beta1 = np.broadcast_to(-E23, (nx, 3, 3)).copy()
    gamma0 = np.zeros((ny, 3, 3))
    gamma1 = eta_y(f).samples
    return BoundaryForms(f.grid.xs, f.grid.ys, beta0, beta1, gamma0, gamma1)


def rotation_V0(f):
    """The rotation exp(theta(0) - theta(x)) conjugating beta1 into eta_x
    (angle phi(0,0) - phi(x,0) around e3), sampled on the x axis."""
    i0, _, xrow, _ = _axis_data(f)
    return gauge_rotation(xrow[i0] - xrow)


def eta_x(f):
    """Normalized x-potential in closed form.

    With delta(x) = phi(0,0) - phi(x,0), the coefficient of dx is
    -sin(delta) E13 - cos(delta) E23; at x = 0 it equals beta1 = -E23.
    """
    i0, _, xrow, _ = _axis_data(f)
    delta = xrow[i0] - xrow
    samples = -np.sin(delta)[:, None, None] * E13 \
        - np.cos(delta)[:, None, None] * E23
    return PotentialForm("x", f.grid.xs, samples, +1)


def eta_y(f):
    """Normalized y-potential: exactly the boundary form gamma1."""
    _, _, _, ycol = _axis_data(f)
    samples = np.sin(ycol)[:, None, None] * E13 + np.cos(ycol)[:, None, None] * E23
    return PotentialForm("y", f.grid.ys, samples, -1)


def eta_2x2(f):
    """2x2 forms of the two potentials: `algebra.so3_to_su2` (the basis
    dictionary, Ad R of the spinor picture of `frames.su2_frame`) of the
    samples of eta_x and eta_y. The product of the off-diagonal entries
    is -1/4 for both (Chebyshev profiles).
    """
    return tuple(PotentialForm(p.axis, p.coords, so3_to_su2(p.samples),
                               p.lambda_power) for p in (eta_x(f), eta_y(f)))


def eta_general(f, Afn, Bfn):
    """2x2 potentials of a weakly regular (non-Chebyshev) parametrization
    with metric profiles A(x), B(y); reduces to eta_2x2 when A = B = 1.

    Afn/Bfn may be callables on the axis coordinates or sample arrays.
    Raises NonpositiveProfile unless both profiles are strictly positive.
    """
    xs, ys = f.grid.xs, f.grid.ys
    A = np.asarray(Afn(xs) if callable(Afn) else Afn, dtype=float)
    B = np.asarray(Bfn(ys) if callable(Bfn) else Bfn, dtype=float)
    if A.shape != xs.shape or B.shape != ys.shape:
        raise ValueError("profile samples must match the axis nodes")
    if np.any(A <= 0) or np.any(B <= 0):
        raise NonpositiveProfile("metric profiles must be strictly positive")
    ex, ey = eta_2x2(f)
    return (PotentialForm("x", xs, A[:, None, None] * ex.samples, +1),
            PotentialForm("y", ys, B[:, None, None] * ey.samples, -1))


def _integrate_axis(pot, axis, lam, substeps, node=None):
    """Solve U' = -U * xi(t) outward from U = I at the origin node, where
    xi = lambda * eta_x (axis "x") or eta_y / lambda (axis "y"). Returns
    the solution at every node, or, given a node, only at that node,
    marching from the origin to it over a stage table of that span only.
    The march steps by the first spacing of the coordinates, so any other
    spacing raises ValueError."""
    if pot.axis != axis:
        raise ValueError(f"expected an {axis}-potential, got {pot.axis!r}")
    _check_march(lam, substeps)  # lambda = 0 (real or complex), substeps
    if not np.iscomplexobj(np.asarray(lam)) and lam < 0:
        raise ValueError("lambda must be positive")
    factor = -lam if axis == "x" else -1.0 / lam
    coords = pot.coords
    h = coords[1] - coords[0]
    steps = np.diff(coords)
    bad = np.flatnonzero(np.abs(steps - h) > 1e-9 * abs(h))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{axis}-potential axis is not uniform: step "
                         f"{steps[k]:.6g} from node {k} to {k + 1} differs "
                         f"from the first step {h:.6g}")
    u0 = np.eye(3, dtype=np.result_type(factor, pot.samples))
    origin = int(np.argmin(np.abs(coords)))
    lo, hi = (0, len(coords) - 1) if node is None else sorted((origin, node))
    span = refine_span(len(coords), lo, hi)
    coeff = _stage_table(factor * pot.samples[span], coords[span.start], h,
                         substeps)
    out = np.zeros((hi - lo + 1,) + u0.shape, u0.dtype)
    out[origin - lo] = u0
    for stop in (hi, lo):
        for k, u in _march(u0, coords, origin, stop, h, substeps, coeff):
            out[k - lo] = u
    _check_transport(out)
    return out if node is None else out[node - lo]


# axis substeps of integrate_plus / integrate_minus and of the split check
_AXIS_SUBSTEPS = 4
_LAM_EVAL = 1.0     # lambda at which the split check compares factors
_SPLIT_TOL = 1e-6   # residual of the split check's Birkhoff splits


def integrate_plus(pot, lam, substeps=_AXIS_SUBSTEPS):
    """Integrate the plus Birkhoff factor: U+^{-1} dU+/dx = -lambda eta_x,
    U+(0) = I. Returns the factor along the x axis at one lambda (complex
    lambda admitted for circle sampling)."""
    return _integrate_axis(pot, "x", lam, substeps)


def integrate_minus(pot, lam, substeps=_AXIS_SUBSTEPS):
    """Integrate the minus Birkhoff factor: U-^{-1} dU-/dy = -eta_y/lambda,
    U-(0) = I. Returns the factor along the y axis at one lambda."""
    return _integrate_axis(pot, "y", lam, substeps)


def cross_check_split(f, i, j, n_samples=64, substeps=2):
    """Compare potential-integrated Birkhoff factors with factors from
    numerically splitting the sampled frame loop at node (i, j).

    Splits U(x_i, y_j, .) both ways (to residual _SPLIT_TOL = 1e-6),
    evaluates the plus/minus factors at _LAM_EVAL = 1 against the ODE
    solutions driven by eta_x / eta_y, and, when j is off the x axis,
    re-splits on the axis to verify that the plus factor does not depend
    on y. On the axis the constant complementary factor is checked against
    the closed-form rotation V0. Returns a dict of sup deviations. Raises
    ValueError unless (i, j) is a grid node and n_samples a power of 2 >= 4.

    Only what the result needs is marched: the frame loop along
    origin -> (x_i, y_0) -> (x_i, y_j), whose x-leg ends in the on-axis
    loop at (x_i, y_0), and the two axis ODEs from the origin to node i
    and to node j. Each equals, bit for bit, the value read from
    sample_frame_loop, integrate_plus or integrate_minus.
    """
    return _cross_check(f, i, j, n_samples, substeps)[-1]


def _cross_check(f, i, j, n_samples=64, substeps=2, with_axis=False):
    """The cross_check_split reports at node (i, j) and, with_axis, first
    at the on-axis node (i, j0) too, as a list (one report when j is j0).
    Both come from one march of the x-leg, one plus ODE to node i and one
    plus-first split of the on-axis loop, so each equals, bit for bit, the
    report of its own cross_check_split call."""
    _, j0 = f.grid.origin_index()
    axis_values, values = _frame_loop_legs(f, i, j, n_samples, substeps)
    plus_ode = _integrate_axis(eta_x(f), "x", _LAM_EVAL, _AXIS_SUBSTEPS, i)
    eta_minus = eta_y(f)

    def factor_devs(loop, u_plus, node):
        u_minus, _ = birkhoff_split(loop, "minus-first", tol=_SPLIT_TOL)
        minus_ode = _integrate_axis(eta_minus, "y", _LAM_EVAL, _AXIS_SUBSTEPS,
                                    node)
        return {
            "plus_factor_dev": float(np.abs(
                loop_eval(u_plus, _LAM_EVAL) - plus_ode).max()),
            "minus_factor_dev": float(np.abs(
                loop_eval(u_minus, _LAM_EVAL) - minus_ode).max()),
        }

    axis_loop = SampledLoop(axis_values, twisted=True, real=True)
    u_plus_axis, v_minus_axis = birkhoff_split(axis_loop, "plus-first",
                                               tol=_SPLIT_TOL)
    reports = []
    if with_axis or j == j0:
        report = factor_devs(axis_loop, u_plus_axis, j0)
        # on the axis the complement of U+ is the constant rotation V0
        report["v0_dev"] = float(np.abs(
            loop_eval(v_minus_axis, _LAM_EVAL) - rotation_V0(f)[i]).max())
        reports.append(report)
    if j != j0:
        loop = SampledLoop(values, twisted=True, real=True)
        u_plus, _ = birkhoff_split(loop, "plus-first", tol=_SPLIT_TOL)
        report = factor_devs(loop, u_plus, j)
        a, b = u_plus.coeffs, u_plus_axis.coeffs
        report["uplus_y_independence"] = float(max(np.abs(
            a.get(k, 0.0) - b.get(k, 0.0)).max() for k in a.keys() | b.keys()))
        reports.append(report)
    return reports


_COLS = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]


def save_potential_csv(pot, path):
    """Write a 3x3 potential: axis, coordinate, then the six off-diagonal
    entries s12,s13,s23,s21,s31,s32 of the (skew) coefficient matrix, one
    line per axis node formatted by `sinegordon._write_rows`."""
    rows, cols = zip(*_COLS)
    table = np.column_stack([pot.coords, pot.samples[:, rows, cols]])
    with open(path, "w") as fh:
        fh.write("# axis,coord,s12,s13,s23,s21,s31,s32\n")
        _write_rows(fh, table, head=f"{pot.axis},")


def load_potential_csv(path):
    """Read a 3x3 potential written by save_potential_csv; a line without
    eight fields, with a token that is not a number or with another axis
    than the first line's raises ValueError naming path:line."""
    axis = None
    coords, mats = [], []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"{path}:{n}: expected 8 comma-separated "
                                 f"fields, got {len(parts)}")
            try:
                vals = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            if axis is None:
                axis = parts[0]
            elif parts[0] != axis:
                raise ValueError(f"{path}:{n}: axis {parts[0]!r} differs "
                                 f"from the first line's {axis!r}")
            coords.append(vals[0])
            m = np.zeros((3, 3))
            for (r, s), v in zip(_COLS, vals[1:]):
                m[r, s] = v
            mats.append(m)
    if axis not in ("x", "y"):
        raise ValueError(f"{path}: unknown potential axis {axis!r}")
    return PotentialForm(axis, np.asarray(coords), np.stack(mats),
                         +1 if axis == "x" else -1)


def save_potential2_csv(pot, path):
    """Write a 2x2 potential: axis, coordinate, re/im of both off-diagonal
    entries, one line per axis node formatted by
    `sinegordon._write_rows`."""
    s01, s10 = pot.samples[:, 0, 1], pot.samples[:, 1, 0]
    table = np.column_stack([pot.coords, s01.real, s01.imag,
                             s10.real, s10.imag])
    with open(path, "w") as fh:
        fh.write("# axis,coord,re01,im01,re10,im10\n")
        _write_rows(fh, table, head=f"{pot.axis},")
