import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from psforge.algebra import E13, E23, gauge_rotation, so3_to_su2
from psforge.errors import NonpositiveProfile
from psforge.frames import _frame_loop_legs, _rk4_pair, sample_frame_loop
from psforge.loops import birkhoff_split, loop_eval
from psforge.numerics import deriv4
from psforge.potentials import (PotentialForm, boundary_forms,
                                cross_check_split, eta_2x2, eta_general,
                                eta_x, eta_y, integrate_minus,
                                integrate_plus, load_potential_csv,
                                rotation_V0, save_potential_csv,
                                save_potential2_csv)
from psforge.sinegordon import (AngleField, GridSpec, constant_angle,
                                load_angle_csv, save_angle_csv,
                                soliton_angle)
from util import coeff_dev

BETA1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def test_boundary_forms(soliton):
    bf = boundary_forms(soliton)
    assert np.abs(bf.gamma0).max() == 0.0
    assert np.array_equal(bf.beta1[17], BETA1)
    half = constant_angle(np.pi / 2, soliton.grid)
    bh = boundary_forms(half)
    assert np.allclose(bh.gamma1[3], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])


def test_eta_x_values(soliton):
    ex = eta_x(soliton)
    i0, _ = soliton.grid.origin_index()
    assert np.allclose(ex.samples[i0], BETA1)
    # p-valued skew with empty (1,2) block
    assert np.abs(ex.samples + np.swapaxes(ex.samples, -1, -2)).max() < 1e-15
    assert np.abs(ex.samples[:, 0, 1]).max() == 0.0
    assert np.abs(ex.samples[:, 1, 0]).max() == 0.0
    const = constant_angle(1.3, soliton.grid)
    ec = eta_x(const)
    assert np.abs(ec.samples - ec.samples[0]).max() == 0.0
    assert np.allclose(ec.samples[0], BETA1)


def test_eta_x_matches_conjugation_and_ode(soliton):
    ex = eta_x(soliton)
    v0 = rotation_V0(soliton)
    bf = boundary_forms(soliton)
    conj = v0 @ bf.beta1 @ np.swapaxes(v0, -1, -2)
    assert np.abs(ex.samples - conj).max() < 1e-14
    # independent oracle: integrate V0' = -V0 beta0 numerically
    g = soliton.grid
    i0, _ = g.origin_index()
    spline = CubicSpline(g.xs, bf.beta0, axis=0)
    v_num = np.zeros_like(bf.beta0)
    v_num[i0] = np.eye(3)
    for direction in (1, -1):
        u = np.eye(3)
        k = i0
        while 0 <= k + direction < g.nx:
            h = direction * g.hx / 8
            for m in range(8):
                t0 = g.xs[k] + direction * g.hx * m / 8
                u, _ = _rk4_pair(u, None, lambda t: -spline(t0 + t), None, h)
            k += direction
            v_num[k] = u
    assert np.abs(v_num - v0).max() < 1e-8
    eta_ode = v_num @ bf.beta1 @ np.linalg.inv(v_num)
    assert np.abs(ex.samples - eta_ode).max() < 1e-8


def test_eta_y_values(soliton):
    ey = eta_y(soliton)
    bf = boundary_forms(soliton)
    assert np.array_equal(ey.samples, bf.gamma1)
    assert np.abs(ey.samples + np.swapaxes(ey.samples, -1, -2)).max() < 1e-15
    fpi = constant_angle(np.pi, soliton.grid)
    assert np.allclose(eta_y(fpi).samples[5], BETA1, atol=1e-15)


def test_eta_depends_only_on_axis_data(soliton):
    g = soliton.grid
    i0, j0 = g.origin_index()
    phi2 = soliton.phi.copy()
    rng = np.random.default_rng(2)
    bump = rng.normal(size=phi2.shape)
    bump[:, j0] = 0.0
    bump[i0, :] = 0.0
    f2 = AngleField(g, phi2 + bump)
    assert np.array_equal(eta_x(f2).samples, eta_x(soliton).samples)
    assert np.array_equal(eta_y(f2).samples, eta_y(soliton).samples)


def test_eta_2x2(soliton):
    ex2, ey2 = eta_2x2(soliton)
    i0, _ = soliton.grid.origin_index()
    prod = ex2.samples[:, 0, 1] * ex2.samples[:, 1, 0]
    assert np.abs(prod + 0.25).max() < 1e-12
    assert np.allclose(ex2.samples[i0], 0.5j * np.array([[0, 1], [1, 0]]))
    # transports of the 3x3 potentials under the basis dictionary
    assert np.abs(so3_to_su2(eta_x(soliton).samples) - ex2.samples).max() < 1e-14
    assert np.abs(so3_to_su2(eta_y(soliton).samples) - ey2.samples).max() < 1e-14


def test_eta_general(soliton):
    ex2, ey2 = eta_2x2(soliton)
    ga, gb = eta_general(soliton, lambda x: np.ones_like(x),
                         lambda y: np.ones_like(y))
    assert np.abs(ga.samples - ex2.samples).max() == 0.0
    assert np.abs(gb.samples - ey2.samples).max() == 0.0
    g2, _ = eta_general(soliton, lambda x: np.full_like(x, 2.0),
                        lambda y: np.ones_like(y))
    prod = g2.samples[:, 0, 1] * g2.samples[:, 1, 0]
    assert np.abs(prod + 1.0).max() < 1e-12  # -A^2/4 with A = 2
    assert np.abs(g2.samples - 2.0 * ex2.samples).max() == 0.0
    with pytest.raises(NonpositiveProfile):
        eta_general(soliton, lambda x: np.zeros_like(x),
                    lambda y: np.ones_like(y))


def test_integrate_plus(soliton):
    g = soliton.grid
    zero = PotentialForm("x", g.xs, np.zeros((g.nx, 3, 3)), +1)
    out = integrate_plus(zero, 1.0)
    assert np.abs(out - np.eye(3)).max() == 0.0
    # constant potential: exponential oracle
    const = PotentialForm("x", g.xs, np.broadcast_to(BETA1, (g.nx, 3, 3)), +1)
    got = integrate_plus(const, 1.0)
    i0, _ = g.origin_index()
    for i in (0, 57, g.nx - 1):
        assert np.abs(got[i] - expm(-g.xs[i] * BETA1)).max() < 1e-9


def test_integrate_plus_no_negative_modes(soliton):
    ex = eta_x(soliton)
    n = 32
    lams = np.exp(2j * np.pi * np.arange(n) / n)
    i_probe = 150
    vals = np.array([integrate_plus(ex, lam)[i_probe] for lam in lams])
    c = np.fft.fft(vals, axis=0) / n
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    leak = max(np.abs(c[i]).max() for i, k in enumerate(ks) if k < 0)
    assert leak < 1e-10


def test_integrate_minus(soliton):
    g = soliton.grid
    zero = PotentialForm("y", g.ys, np.zeros((g.ny, 3, 3)), -1)
    assert np.abs(integrate_minus(zero, 2.0) - np.eye(3)).max() == 0.0
    const_field = constant_angle(0.9, g)
    gamma1 = eta_y(const_field)
    lam = 2.0
    got = integrate_minus(gamma1, lam)
    j0 = int(np.argmin(np.abs(g.ys)))
    assert np.array_equal(got[j0], np.eye(3))
    m = np.sin(0.9) * E13 + np.cos(0.9) * E23
    for j in (0, 123, g.ny - 1):
        assert np.abs(got[j] - expm(-g.ys[j] / lam * m)).max() < 1e-9


def test_round_trip_plus(soliton):
    ex = eta_x(soliton)
    lam = 1.0
    up = integrate_plus(ex, lam)
    dup = deriv4(up, soliton.grid.hx, axis=0)
    extracted = -(np.linalg.inv(up) @ dup) / lam
    assert np.abs(extracted - ex.samples).max() < 1e-6


def test_round_trip_minus(soliton):
    ey = eta_y(soliton)
    lam = 1.0
    um = integrate_minus(ey, lam)
    dum = deriv4(um, soliton.grid.hy, axis=0)
    extracted = -lam * (np.linalg.inv(um) @ dum)
    assert np.abs(extracted - ey.samples).max() < 1e-6


def test_cross_check_split_origin(soliton):
    i0, j0 = soliton.grid.origin_index()
    rep = cross_check_split(soliton, i0, j0, n_samples=16)
    assert rep["plus_factor_dev"] < 1e-12
    assert rep["minus_factor_dev"] < 1e-12


def test_cross_check_split_on_axis(soliton):
    i0, j0 = soliton.grid.origin_index()
    rep = cross_check_split(soliton, 150, j0)   # node (1, 0)
    assert rep["plus_factor_dev"] < 1e-4
    assert rep["minus_factor_dev"] < 1e-4
    assert rep["v0_dev"] < 1e-4


def test_cross_check_split_y_independence(soliton):
    rep = cross_check_split(soliton, 150, 125)  # node (1, 0.5)
    assert rep["plus_factor_dev"] < 1e-4
    assert rep["minus_factor_dev"] < 1e-4
    assert rep["uplus_y_independence"] < 1e-4


def _split_from_public_pieces(f, i, j):
    """cross_check_split(f, i, j) at its defaults, assembled from the
    public functions: whole-axis ODE solutions and separately sampled
    loops."""
    i0, j0 = f.grid.origin_index()
    loop = sample_frame_loop(f, i, j, n=64, substeps=2)
    u_plus, v_minus = birkhoff_split(loop, "plus-first", tol=1e-6)
    u_minus, _ = birkhoff_split(loop, "minus-first", tol=1e-6)
    rep = {
        "plus_factor_dev": float(np.abs(loop_eval(u_plus, 1.0)
                                        - integrate_plus(eta_x(f), 1.0)[i]).max()),
        "minus_factor_dev": float(np.abs(loop_eval(u_minus, 1.0)
                                         - integrate_minus(eta_y(f), 1.0)[j]).max()),
    }
    if j != j0:
        axis_loop = sample_frame_loop(f, i, j0, n=64, substeps=2)
        u_plus_axis, _ = birkhoff_split(axis_loop, "plus-first", tol=1e-6)
        rep["uplus_y_independence"] = coeff_dev(u_plus, u_plus_axis)
    else:
        xrow = f.phi[:, j0]
        v0 = gauge_rotation(xrow[i0] - xrow[i])
        rep["v0_dev"] = float(np.abs(loop_eval(v_minus, 1.0) - v0).max())
    return rep


@pytest.fixture(scope="module")
def soliton_51():
    return soliton_angle(1.0, GridSpec(-1.0, -1.0, 51, 51, 0.04, 0.04))


@pytest.mark.parametrize("sampled", [False, True])
def test_cross_check_split_equals_public_pieces(tmp_path, soliton_51, sampled):
    # the probe-local marches give the whole-axis results bit for bit
    f = soliton_51
    if sampled:
        save_angle_csv(f, tmp_path / "phi.csv", tmp_path / "phi_x.csv")
        f = load_angle_csv(tmp_path / "phi.csv", tmp_path / "phi_x.csv")
        assert not f.analytic
    _, j0 = f.grid.origin_index()
    for i, j in [(40, 12), (9, 44), (40, j0), (9, j0)]:
        rep = cross_check_split(f, i, j)
        assert rep == _split_from_public_pieces(f, i, j)
        assert ("uplus_y_independence" in rep) == (j != j0)
        x_leg, _ = _frame_loop_legs(f, i, j, 64, 2)
        assert np.array_equal(x_leg, sample_frame_loop(f, i, j0, n=64,
                                                       substeps=2).values)


@pytest.mark.parametrize("node", ["i=-1", "j=-1", "i=nx", "j=ny"])
def test_probe_node_out_of_range(soliton_51, node):
    g = soliton_51.grid
    i, j = {"i=-1": (-1, 30), "j=-1": (30, -1),
            "i=nx": (g.nx, 30), "j=ny": (30, g.ny)}[node]
    with pytest.raises(ValueError, match="outside the 51x51 grid"):
        cross_check_split(soliton_51, i, j)
    with pytest.raises(ValueError, match="outside the 51x51 grid"):
        sample_frame_loop(soliton_51, i, j, n=16)


@pytest.mark.parametrize("line, message", [
    ("x,0,1,2", "eta_x.csv:3: expected 8 comma-separated fields, got 4"),
    ("abc", "eta_x.csv:3: expected 8 comma-separated fields, got 1"),
    ("x,0.5,0,abc,0,0,0,0", "eta_x.csv:3: could not convert string to float: 'abc'"),
])
def test_potential_csv_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "eta_x.csv"
    path.write_text("# axis,coord,s12,s13,s23,s21,s31,s32\n"
                    "x,0,0,0,-1,0,0,1\n" + line + "\n")
    with pytest.raises(ValueError, match=message):
        load_potential_csv(path)


def test_potential_csv_round_trip(tmp_path, soliton):
    ex = eta_x(soliton)
    path = tmp_path / "eta_x.csv"
    save_potential_csv(ex, path)
    back = load_potential_csv(path)
    assert back.axis == "x"
    assert np.array_equal(back.coords, ex.coords)
    assert np.array_equal(back.samples, ex.samples)
    ex2, _ = eta_2x2(soliton)
    save_potential2_csv(ex2, tmp_path / "eta_x2.csv")
    lines = (tmp_path / "eta_x2.csv").read_text().splitlines()
    assert len(lines) == 1 + soliton.grid.nx
