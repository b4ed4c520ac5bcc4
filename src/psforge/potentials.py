"""Weierstrass-type data of a pseudospherical surface: the normalized x-
and y-potentials in closed form, their 2x2 versions through the basis
dictionary `algebra.so3_to_su2`, ODE integration of the Birkhoff factors,
and cross-validation against numerical splitting of the frame loop.

Both potentials are p-valued axis forms (span of E13, E23) determined by
the angle restricted to the axes: eta_x by conjugating the constant -E23
with the accumulated rotation of angle phi(0,0) - phi(x,0), eta_y equal to
the Maurer-Cartan coefficient alpha_m1 on the y axis itself.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import E13, E23, gauge_rotation, so3_to_su2, spinor_adjoint
from .frames import (_LOOP_SAMPLES, _SUBSTEPS, _check_transport,
                     _frame_loop_legs, _march, _spectral, _stage_table)
from .loops import SampledLoop, birkhoff_split, loop_eval
from .numerics import refine_span
from .sinegordon import _origin_node, _write_rows

__all__ = [
    "PotentialForm", "rotation_V0",
    "eta_x", "eta_y", "eta_2x2",
    "integrate_plus", "integrate_minus", "cross_check_split",
    "save_potential_csv", "load_potential_csv", "save_potential2_csv",
]


@dataclass
class PotentialForm:
    """Lie-algebra-valued 1-form sampled along one axis.

    samples[k] is the matrix coefficient of dx (axis 'x') or dy ('y') at
    the k-th axis node. The meromorphic form is xi^x = lambda * eta^x on
    the x axis and xi^y = eta^y / lambda on the y axis.
    """

    axis: str
    coords: np.ndarray
    samples: np.ndarray


def _axis_data(f):
    i0, j0 = f.grid.origin_index()
    return i0, j0, f.phi[:, j0], f.phi[i0, :]


def rotation_V0(f):
    """The rotation exp(theta(0) - theta(x)) conjugating alpha1 = -E23 into
    eta_x (angle phi(0,0) - phi(x,0) around e3), sampled on the x axis."""
    i0, _, xrow, _ = _axis_data(f)
    return gauge_rotation(xrow[i0] - xrow)


def eta_x(f):
    """Normalized x-potential in closed form.

    With delta(x) = phi(0,0) - phi(x,0), the coefficient of dx is
    -sin(delta) E13 - cos(delta) E23; at x = 0 it equals alpha1 = -E23.
    """
    i0, _, xrow, _ = _axis_data(f)
    delta = xrow[i0] - xrow
    samples = -np.sin(delta)[:, None, None] * E13 \
        - np.cos(delta)[:, None, None] * E23
    return PotentialForm("x", f.grid.xs, samples)


def eta_y(f):
    """Normalized y-potential: the coefficient alpha_m1 of
    `frames.maurer_cartan` on the y axis, bit for bit."""
    _, _, _, ycol = _axis_data(f)
    samples = np.sin(ycol)[:, None, None] * E13 + np.cos(ycol)[:, None, None] * E23
    return PotentialForm("y", f.grid.ys, samples)


def eta_2x2(f):
    """2x2 forms of the two potentials: `algebra.so3_to_su2` (the basis
    dictionary, Ad R of the spinor picture of `frames.su2_frame`) of the
    samples of eta_x and eta_y. The product of the off-diagonal entries
    is -1/4 for both (Chebyshev profiles).
    """
    return tuple(PotentialForm(p.axis, p.coords, so3_to_su2(p.samples))
                 for p in (eta_x(f), eta_y(f)))


# axis-ODE substeps of integrate_plus / integrate_minus and the split check
_AXIS_SUBSTEPS = 4
_LAM_EVAL = 1.0     # lambda at which the split check compares factors
_SPLIT_TOL = 1e-6   # residual of the split check's Birkhoff splits


def _integrate_axis(pot, axis, lam, node=None):
    """Solve U' = -U * xi(t) outward from U = I at the origin node, where
    xi = lambda * eta_x (axis "x") or eta_y / lambda (axis "y"), in
    _AXIS_SUBSTEPS substeps per node. Returns the solution at every node,
    or, given a node, only at that node, marching from the origin to it
    over a stage table of that span only. The march steps by the first
    spacing, so fewer than 2 coordinates, a non-finite one, a zero or any
    other spacing, no node at 0 (`sinegordon._origin_node`) or samples
    that are not one finite 3x3 matrix per node raise ValueError."""
    if pot.axis != axis:
        raise ValueError(f"expected an {axis}-potential, got {pot.axis!r}")
    lam = _spectral(lam, _AXIS_SUBSTEPS, batch=False)
    factor = -lam if axis == "x" else -1.0 / lam
    coords, samples = pot.coords, pot.samples
    if len(coords) < 2 or not np.all(np.isfinite(coords)):
        raise ValueError(f"{axis}-potential needs 2 or more finite nodes")
    if samples.shape != (len(coords), 3, 3):
        raise ValueError(f"{axis}-potential has samples of shape "
                         f"{samples.shape}, not one 3x3 matrix for each of "
                         f"its {len(coords)} nodes")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{axis}-potential has a non-finite sample")
    h = coords[1] - coords[0]
    steps = np.diff(coords)
    bad = np.flatnonzero(np.abs(steps - h) > 1e-9 * abs(h))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{axis}-potential axis is not uniform: step "
                         f"{steps[k]:.6g} from node {k} to {k + 1} differs "
                         f"from the first step {h:.6g}")
    origin = _origin_node(coords[0], h, len(coords),
                          f"the {axis}-potential's axis")
    if h == 0:
        raise ValueError(f"{axis}-potential axis has a zero step")
    u0 = np.eye(3, dtype=np.result_type(factor, samples))
    lo, hi = (0, len(coords) - 1) if node is None else sorted((origin, node))
    span = refine_span(len(coords), lo, hi)
    coeff = _stage_table(factor * samples[span], coords[span.start], h,
                         _AXIS_SUBSTEPS)
    out = np.zeros((hi - lo + 1,) + u0.shape, u0.dtype)
    out[origin - lo] = u0
    # an unresolved march may overflow: _check_transport reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for stop in (hi, lo):
            for k, u in _march(u0, coords, origin, stop, h, _AXIS_SUBSTEPS,
                               coeff):
                out[k - lo] = u
        _check_transport(out)
    return out if node is None else out[node - lo]


def integrate_plus(pot, lam):
    """Integrate the plus Birkhoff factor: U+^{-1} dU+/dx = -lambda eta_x,
    U+(0) = I. Returns the factor along the x axis at one lambda, positive
    or complex (the rule of every march, `frames._spectral`)."""
    return _integrate_axis(pot, "x", lam)


def integrate_minus(pot, lam):
    """Integrate the minus Birkhoff factor: U-^{-1} dU-/dy = -eta_y/lambda,
    U-(0) = I, along the y axis at one lambda (see `integrate_plus`)."""
    return _integrate_axis(pot, "y", lam)


def cross_check_split(f, i, j):
    """Compare potential-integrated Birkhoff factors with factors from
    numerically splitting the sampled frame loop at node (i, j).

    Splits the spinor loop P(x_i, y_j, .) both ways (to residual
    _SPLIT_TOL = 1e-6): Ad = `algebra.spinor_adjoint` is a homomorphism
    that keeps the normalizations, so Ad(P_-) Ad(P_+) is the split of the
    frame loop Ad(P), whose condition number is about P's squared. It
    compares Ad of the plus/minus factors at _LAM_EVAL = 1 with the ODE
    solutions driven by eta_x / eta_y, and, when j is off the x axis,
    re-splits on the axis to verify that the plus factor's coefficients
    do not depend on y. On the axis the constant complementary factor is
    checked against the closed-form rotation V0. Returns a dict of sup
    deviations. Raises ValueError unless (i, j) is a grid node.

    Only what the result needs is marched: the spinor loop along
    origin -> (x_i, y_0) -> (x_i, y_j) (`frames._frame_loop_legs`, 64
    samples, frames._SUBSTEPS), whose x-leg ends in the on-axis loop at
    (x_i, y_0), and the axis ODEs from the origin to nodes i and j, equal
    to integrate_plus and integrate_minus bit for bit. The 2x2 factors are
    not bit-equal to those of sample_frame_loop's 3x3 loop (Ad P).
    """
    return _cross_check(f, i, j)[-1]


def _cross_check(f, i, j, with_axis=False):
    """The cross_check_split reports at node (i, j) and, with_axis, first
    at the on-axis node (i, j0) too, as a list (one report when j is j0).
    Both come from one march of the x-leg, one plus ODE to node i and one
    plus-first split of the on-axis loop, so each equals, bit for bit, the
    report of its own cross_check_split call."""
    _, j0 = f.grid.origin_index()
    axis_values, values = _frame_loop_legs(f, i, j, _LOOP_SAMPLES, _SUBSTEPS)
    plus_ode = _integrate_axis(eta_x(f), "x", _LAM_EVAL, i)
    eta_minus = eta_y(f)

    def factor_devs(loop, u_plus, node):
        u_minus, _ = birkhoff_split(loop, "minus-first", tol=_SPLIT_TOL)
        minus_ode = _integrate_axis(eta_minus, "y", _LAM_EVAL, node)
        return {
            "plus_factor_dev": float(np.abs(spinor_adjoint(
                loop_eval(u_plus, _LAM_EVAL)) - plus_ode).max()),
            "minus_factor_dev": float(np.abs(spinor_adjoint(
                loop_eval(u_minus, _LAM_EVAL)) - minus_ode).max()),
        }

    axis_loop = SampledLoop(axis_values, twisted=True, real=True)
    u_plus_axis, v_minus_axis = birkhoff_split(axis_loop, "plus-first",
                                               tol=_SPLIT_TOL)
    reports = []
    if with_axis or j == j0:
        report = factor_devs(axis_loop, u_plus_axis, j0)
        # on the axis the complement of U+ is the constant rotation V0
        report["v0_dev"] = float(np.abs(spinor_adjoint(
            loop_eval(v_minus_axis, _LAM_EVAL)) - rotation_V0(f)[i]).max())
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
    eight fields, with a token that is not a finite number or with another
    axis than the first line's raises ValueError naming path:line."""
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
                if not np.all(np.isfinite(vals)):
                    raise ValueError(f"non-finite value in {line!r}")
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
    return PotentialForm(axis, np.asarray(coords), np.stack(mats))


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
