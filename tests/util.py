"""Shared test helpers: random twisted loop-group factors, an RK4 ODE
oracle independent of psforge's march (`_rk4_pair`, one step of u' = u a
and, given w, of its derivative w' = w a + u d), the per-substep march
psforge used before its propagator form (`ref_march`) and per-node
reference writers."""

import numpy as np
from scipy.linalg import expm

from psforge.algebra import E12, E13, E23
from psforge.loops import LaurentLoop
from psforge.numerics import polar_project


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
    return LaurentLoop(out, twisted=True, real=True)


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


def coeff_dev(a, b):
    """Sup over powers of the entrywise difference of two loops."""
    keys = set(a.coeffs) | set(b.coeffs)
    return max(float(np.abs(a.coeff(k) - b.coeff(k)).max()) for k in keys)


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


def ref_save_frame(frame, path):
    g = frame.grid
    header = (f"# {g.nx} {g.ny} {g.x0:.17g} {g.y0:.17g} "
              f"{g.hx:.17g} {g.hy:.17g} {frame.lam:.17g}")
    lines = [header]
    for i in range(g.nx):
        for j in range(g.ny):
            lines.append(",".join(f"{v:.17g}" for v in frame.U[i, j].ravel()))
    with open(path, "w") as fh:
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
