import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from psforge import frames, loops
from psforge.algebra import (E13, E23, gauge_rotation, so3_to_su2,
                             spinor_adjoint)
from psforge.frames import _frame_loop_legs, maurer_cartan, sample_frame_loop
from psforge.loops import SampledLoop, birkhoff_split, loop_eval
from psforge.cli import DEFAULT_TOLERANCES
from psforge.errors import BigCellViolation
from psforge.numerics import deriv4
from psforge.potentials import (PotentialForm, _integrate_axis,
                                cross_check_split, eta_2x2, eta_x, eta_y,
                                integrate_minus, integrate_plus,
                                load_potential_csv, rotation_V0,
                                save_potential_csv)
from psforge.sinegordon import (AngleField, GridSpec, load_angle_csv,
                                save_angle_csv, soliton_angle)
from util import _rk4_pair, coeff_dev, constant_angle, two_soliton

BETA1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def test_boundary_forms(soliton):
    # the boundary forms are the Maurer-Cartan coefficients on the axes
    i0, j0 = soliton.grid.origin_index()
    mc = maurer_cartan(soliton)
    assert np.array_equal(mc.alpha1[17, j0], BETA1)
    assert np.array_equal(mc.alpha_m1[i0], eta_y(soliton).samples)
    half = constant_angle(np.pi / 2, soliton.grid)
    assert np.allclose(maurer_cartan(half).alpha_m1[i0, 3],
                       [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])


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
    g = soliton.grid
    i0, j0 = g.origin_index()
    mc = maurer_cartan(soliton)
    beta0, beta1 = mc.alpha0_prime[:, j0], mc.alpha1[:, j0]
    conj = v0 @ beta1 @ np.swapaxes(v0, -1, -2)
    assert np.abs(ex.samples - conj).max() < 1e-14
    # independent oracle: integrate V0' = -V0 beta0 numerically
    spline = CubicSpline(g.xs, beta0, axis=0)
    v_num = np.zeros_like(beta0)
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
    eta_ode = v_num @ beta1 @ np.linalg.inv(v_num)
    assert np.abs(ex.samples - eta_ode).max() < 1e-8


def test_eta_y_values(soliton):
    ey = eta_y(soliton)
    i0, _ = soliton.grid.origin_index()
    assert np.array_equal(ey.samples, maurer_cartan(soliton).alpha_m1[i0])
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


def test_integrate_plus(soliton):
    g = soliton.grid
    zero = PotentialForm("x", g.xs, np.zeros((g.nx, 3, 3)))
    out = integrate_plus(zero, 1.0)
    assert np.abs(out - np.eye(3)).max() == 0.0
    # constant potential: exponential oracle
    const = PotentialForm("x", g.xs, np.broadcast_to(BETA1, (g.nx, 3, 3)))
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
    zero = PotentialForm("y", g.ys, np.zeros((g.ny, 3, 3)))
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
    rep = cross_check_split(soliton, i0, j0)
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


def _spinor_loop(f, i, j):
    """The spinor loop at node (i, j) that cross_check_split splits."""
    return SampledLoop(_frame_loop_legs(f, i, j, 64, frames._SUBSTEPS)[1],
                       twisted=True, real=True)


def _split_from_public_pieces(f, i, j):
    """cross_check_split(f, i, j) at its defaults, assembled from the
    public functions: whole-axis ODE solutions and separately sampled
    spinor loops, whose factors at lambda = 1 are mapped by Ad."""
    i0, j0 = f.grid.origin_index()
    loop = _spinor_loop(f, i, j)
    u_plus, v_minus = birkhoff_split(loop, "plus-first", tol=1e-6)
    u_minus, _ = birkhoff_split(loop, "minus-first", tol=1e-6)
    rep = {
        "plus_factor_dev": float(np.abs(
            spinor_adjoint(loop_eval(u_plus, 1.0))
            - integrate_plus(eta_x(f), 1.0)[i]).max()),
        "minus_factor_dev": float(np.abs(
            spinor_adjoint(loop_eval(u_minus, 1.0))
            - integrate_minus(eta_y(f), 1.0)[j]).max()),
    }
    if j != j0:
        axis_loop = _spinor_loop(f, i, j0)
        u_plus_axis, _ = birkhoff_split(axis_loop, "plus-first", tol=1e-6)
        rep["uplus_y_independence"] = coeff_dev(u_plus, u_plus_axis)
    else:
        xrow = f.phi[:, j0]
        v0 = gauge_rotation(xrow[i0] - xrow[i])
        rep["v0_dev"] = float(np.abs(spinor_adjoint(loop_eval(v_minus, 1.0))
                                     - v0).max())
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
        x_leg, _ = _frame_loop_legs(f, i, j, frames._LOOP_SAMPLES,
                                    frames._SUBSTEPS)
        assert np.array_equal(spinor_adjoint(x_leg), sample_frame_loop(
            f, i, j0, substeps=frames._SUBSTEPS).values)


def test_cross_check_pair_equals_separate_calls(soliton_51):
    # verify's split check: one x-leg, both reports bit for bit
    from psforge.potentials import _cross_check
    _, j0 = soliton_51.grid.origin_index()
    for i, j in [(40, 12), (9, 44)]:
        assert _cross_check(soliton_51, i, j, with_axis=True) == [
            cross_check_split(soliton_51, i, j0),
            cross_check_split(soliton_51, i, j)]
    assert _cross_check(soliton_51, 40, j0, with_axis=True) == [
        cross_check_split(soliton_51, 40, j0)]


@pytest.mark.parametrize("sampled", [False, True])
def test_axis_ode_to_a_node_equals_whole_axis(tmp_path, sampled):
    # the stage table of a march to one node covers only its span; origin
    # off-centre in x and one node from the edge in y
    f = soliton_angle(1.0, GridSpec(-0.4, -1.52, 51, 41, 0.04, 0.04))
    if sampled:
        save_angle_csv(f, tmp_path / "phi.csv", tmp_path / "phi_x.csv")
        f = load_angle_csv(tmp_path / "phi.csv", tmp_path / "phi_x.csv")
    for pot, axis, whole in ((eta_x(f), "x", integrate_plus),
                             (eta_y(f), "y", integrate_minus)):
        n = len(pot.coords)
        origin = int(np.argmin(np.abs(pot.coords)))
        nodes = {0, 1, 2, origin - 1, origin + 1, n - 3, n - 2, n - 1}
        for lam in (1.3, np.exp(0.7j)):
            want = whole(pot, lam)
            for k in sorted(nodes & set(range(n))):
                assert np.array_equal(_integrate_axis(pot, axis, lam, k),
                                      want[k]), (axis, k)


@pytest.mark.parametrize("node", ["i=-1", "j=-1", "i=nx", "j=ny",
                                  "i=30.5", "j=16.0"])
def test_probe_node_out_of_range(soliton_51, node):
    g = soliton_51.grid
    out, frac = "outside the 51x51 grid", "not a pair of integers"
    i, j, match = {"i=-1": (-1, 30, out), "j=-1": (30, -1, out),
                   "i=nx": (g.nx, 30, out), "j=ny": (30, g.ny, out),
                   "i=30.5": (30.5, 30, frac),
                   "j=16.0": (30, 16.0, frac)}[node]
    with pytest.raises(ValueError, match=match):
        cross_check_split(soliton_51, i, j)
    with pytest.raises(ValueError, match=match):
        sample_frame_loop(soliton_51, i, j, n=16)


@pytest.mark.parametrize("node", [(0, 0), (320, 320)])
def test_cross_check_split_far_corner_64_samples(node):
    # the spinor loop at a corner of [-4,4]^2 splits at truncation 16; its
    # 3x3 image needed the 31 Fourier blocks that 64 samples support
    f = two_soliton(GridSpec(-4.0, -4.0, 321, 321, 0.025, 0.025))
    report = cross_check_split(f, *node)
    assert max(report.values()) <= 1e-6


@pytest.mark.parametrize("half_width, truncations", [(5, [16]), (6, [16, 31])])
def test_cross_check_split_far_corner_in_big_cell(monkeypatch, half_width,
                                                  truncations):
    # the far corners of [-5,5]^2 and [-6,6]^2 lie outside the 3x3 split's
    # numerical big cell (condition numbers 1.0e8 and 5.3e9 at truncation
    # 31), not the spinor split's: its condition number grows like |P|^2,
    # about |g|. At [-6,6]^2 every split doubles to the 31 Fourier blocks
    # that 64 samples support (measured: 3.2e-8 and 1.1e-8)
    n = 80 * half_width + 1
    f = two_soliton(GridSpec(-half_width, -half_width, n, n, 0.025, 0.025))
    with pytest.raises(BigCellViolation):
        birkhoff_split(sample_frame_loop(f, n - 1, n - 1, substeps=2),
                       "minus-first", tol=1e-6)
    seen, solve = [], loops._solve_minus
    monkeypatch.setattr(loops, "_solve_minus",
                        lambda g, trunc, real: seen.append(trunc)
                        or solve(g, trunc, real))
    report = cross_check_split(f, n - 1, n - 1)
    assert max(report.values()) <= DEFAULT_TOLERANCES["split_cross_check"]
    assert seen == 3 * truncations  # per split, of three


@pytest.mark.parametrize("line, message", [
    ("x,0,1,2", "eta_x.csv:3: expected 8 comma-separated fields, got 4"),
    ("abc", "eta_x.csv:3: expected 8 comma-separated fields, got 1"),
    ("x,0.5,0,abc,0,0,0,0", "eta_x.csv:3: could not convert string to float: 'abc'"),
    ("x,nan,0,0,-1,0,0,1", "eta_x.csv:3: non-finite value"),
    ("x,0.5,0,inf,-1,0,0,1", "eta_x.csv:3: non-finite value"),
    ("x,0.5,0,0,-1,0,-inf,1", "eta_x.csv:3: non-finite value"),
])
def test_potential_csv_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "eta_x.csv"
    path.write_text("# axis,coord,s12,s13,s23,s21,s31,s32\n"
                    "x,0,0,0,-1,0,0,1\n" + line + "\n")
    with pytest.raises(ValueError, match=message):
        load_potential_csv(path)


@pytest.mark.parametrize("coords", [[0.0], [0.0, np.nan, 1.0],
                                    [0.0, 0.5, np.inf]],
                         ids=["one-node", "nan", "inf"])
def test_integrate_axis_rejects_short_or_non_finite_axis(coords):
    # one node used to end in an IndexError, and a nan coordinate, which
    # passes the uniform-step check, in an IndexError of the stage table
    samples = np.broadcast_to(BETA1, (len(coords), 3, 3))
    pot = PotentialForm("x", np.array(coords), samples)
    with pytest.raises(ValueError, match="x-potential needs 2 or more "
                                         "finite nodes"):
        integrate_plus(pot, 1.0)


def test_integrate_axis_needs_a_node_at_the_origin():
    # coordinates 0.1 .. 1.0 used to be marched from U = I at 0.1, the
    # node nearest to 0, with no error
    coords = np.linspace(0.1, 1.0, 10)
    pot = PotentialForm("y", coords, np.broadcast_to(BETA1, (10, 3, 3)))
    with pytest.raises(ValueError, match="the y-potential's axis does not "
                                         "contain the origin"):
        integrate_minus(pot, 1.0)
    pot.coords = coords - 0.05    # -0.05 .. 0.85: 0 between two nodes
    with pytest.raises(ValueError, match="the origin does not fall on a "
                                         "node of the y-potential's axis"):
        integrate_minus(pot, 1.0)
    pot.coords = np.full(10, 0.5)  # coinciding nodes: no step to round by
    with pytest.raises(ValueError, match="the origin does not fall on a "
                                         "node of the y-potential's axis"):
        integrate_minus(pot, 1.0)
    pot.coords = coords - 0.1     # the grid rule: 0 at node 0
    assert np.array_equal(integrate_minus(pot, 1.0)[0], np.eye(3))


def test_integrate_axis_rejects_zero_step():
    # five nodes at 0: the origin is a node, but there is no step to march
    # by; this used to end in RuntimeWarnings and numpy's IndexError
    pot = PotentialForm("x", np.zeros(5), np.broadcast_to(BETA1, (5, 3, 3)))
    with pytest.raises(ValueError, match="x-potential axis has a zero step"):
        integrate_plus(pot, 1.0)


def test_integrate_axis_rejects_bad_samples(soliton_51):
    # 5 samples on 51 nodes used to end in an IndexError of the stage
    # table, and a nan sample in a StepFailure that blamed the step
    ex = eta_x(soliton_51)
    ex.samples = ex.samples[:5]
    with pytest.raises(ValueError, match=r"x-potential has samples of shape "
                                         r"\(5, 3, 3\), not one 3x3 matrix "
                                         r"for each of its 51 nodes"):
        integrate_plus(ex, 1.0)
    ey = eta_y(soliton_51)
    ey.samples[40, 0, 2] = np.nan
    with pytest.raises(ValueError, match="y-potential has a non-finite "
                                         "sample"):
        integrate_minus(ey, 1.0)


def test_potential_csv_round_trip(tmp_path, soliton):
    ex = eta_x(soliton)
    path = tmp_path / "eta_x.csv"
    save_potential_csv(ex, path)
    back = load_potential_csv(path)
    assert back.axis == "x"
    assert np.array_equal(back.coords, ex.coords)
    assert np.array_equal(back.samples, ex.samples)


@pytest.mark.parametrize("text", ["", "# axis,coord,s12,s13,s23,s21,s31,s32\n"],
                         ids=["empty", "header-only"])
def test_potential_csv_rejects_file_without_data_lines(tmp_path, text):
    path = tmp_path / "eta_x.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_potential_csv(path)
    assert str(exc.value) == f"{path}: holds no data lines"


def test_potential_csv_rejects_mixed_axes(tmp_path):
    path = tmp_path / "eta.csv"
    path.write_text("# axis,coord,s12,s13,s23,s21,s31,s32\n"
                    "x,0,0,0,-1,0,0,1\n"
                    "x,0.5,0,0,-1,0,0,1\n"
                    "y,1,0,0,-1,0,0,1\n")
    with pytest.raises(ValueError, match=r"eta\.csv:4: axis 'y' differs "
                                         r"from the first line's 'x'"):
        load_potential_csv(path)


def test_nonuniform_potential_axis_raises(tmp_path):
    # coordinates 0, 0.5, 0.6 were integrated as 0, 0.5, 1.0
    path = tmp_path / "eta_x.csv"
    path.write_text("# axis,coord,s12,s13,s23,s21,s31,s32\n"
                    "x,0,0,0,-1,0,0,1\n"
                    "x,0.5,0,0,-1,0,0,1\n"
                    "x,0.60000000000000001,0,0,-1,0,0,1\n")
    pot = load_potential_csv(path)
    with pytest.raises(ValueError, match="x-potential axis is not uniform: "
                                         "step 0.1 from node 1 to 2 differs from "
                                         "the first step 0.5"):
        integrate_plus(pot, 1.0)
    pot.axis = "y"
    with pytest.raises(ValueError, match="y-potential axis is not uniform"):
        integrate_minus(pot, 1.0)
    pot.coords = np.array([0.0, 0.5, 1.0])
    assert np.allclose(integrate_minus(pot, 1.0)[-1][1, 1], np.cos(1.0))
