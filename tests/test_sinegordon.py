import numpy as np
import pytest

from psforge.errors import IncompatibleCorner, NonconvergentCell
from psforge.numerics import deriv4
from psforge.sinegordon import (AngleField, GridSpec, _goursat_raw,
                                goursat_solve, load_angle_csv, save_angle_csv,
                                sg_residual, soliton_angle)
from util import constant_angle, ref_goursat_raw, two_soliton


def unit_grid(n=101, h=0.02):
    return GridSpec(0.0, 0.0, n, n, h, h)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 1, 5, 0.1, 0.1)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 5, 5, -0.1, 0.1)
    with pytest.raises(ValueError):
        GridSpec(0.05, 0.0, 5, 5, 0.1, 0.1).origin_index()
    assert GridSpec(-0.2, 0.0, 5, 5, 0.1, 0.1).origin_index() == (2, 0)
    # a node count of 5.5 used to give a grid whose xs had 6 nodes
    for nx, ny in [(5.5, 5), (5, 5.0), (5, "5")]:
        with pytest.raises(ValueError, match="integer nx, ny >= 2"):
            GridSpec(0, 0, nx, ny, 0.1, 0.1)
    assert GridSpec(0, 0, np.int64(5), 5, 0.1, 0.1).xs.size == 5


def test_soliton_values(soliton):
    i0, j0 = soliton.grid.origin_index()
    assert np.isclose(soliton.phi[i0, j0], np.pi)
    assert np.isclose(soliton.phi[i0, j0], 4.0 * np.arctan(1.0))
    # depends on x + y only: constant along anti-diagonals
    d = np.diagonal(soliton.phi[::-1], offset=0)
    assert np.ptp(d) < 1e-12


def test_soliton_analytic_residual(soliton):
    x, y = soliton.grid.meshgrid()
    res = soliton.phixy_fn(x, y) - np.sin(soliton.phi_fn(x, y))
    assert np.abs(res).max() < 1e-10


def test_soliton_derivative_consistency(soliton):
    g = soliton.grid
    fd = (soliton.phi[2:, :] - soliton.phi[:-2, :]) / (2.0 * g.hx)
    assert np.abs(fd - soliton.dphi_dx[1:-1, :]).max() < 2e-4  # O(h^2)


def test_soliton_mask(soliton):
    x, y = soliton.grid.meshgrid()
    assert np.array_equal(soliton.regular_mask, (x + y) < 0)


def test_constant_fields():
    g = unit_grid(21)
    fpi = constant_angle(np.pi, g)
    assert np.abs(sg_residual(fpi)).max() < 1e-15  # |sin(fl(pi))|
    assert not fpi.regular_mask.any()
    fh = constant_angle(np.pi / 2, g)
    assert np.allclose(sg_residual(fh), -1.0)
    f3 = constant_angle(np.pi - 0.3, g)
    assert f3.regular_mask.all()


def test_sg_residual_soliton(soliton):
    assert np.abs(sg_residual(soliton)).max() < 1e-4


def test_goursat_reproduces_soliton():
    g = unit_grid()
    exact = soliton_angle(1.0, g)
    solved = goursat_solve(exact.phi[:, 0], exact.phi[0, :], g)
    assert np.abs(solved.phi - exact.phi).max() < 1e-4
    # boundary data reproduced to machine precision
    assert np.abs(solved.phi[:, 0] - exact.phi[:, 0]).max() < 1e-14
    assert np.abs(solved.phi[0, :] - exact.phi[0, :]).max() < 1e-14


def test_goursat_equilibrium():
    g = unit_grid(41)
    solved = goursat_solve(np.full(41, np.pi), np.full(41, np.pi), g)
    assert np.abs(solved.phi - np.pi).max() == 0.0


def test_goursat_convergence_order():
    errs = []
    for h in (0.04, 0.02):
        n = round(2.0 / h) + 1
        g = GridSpec(0.0, 0.0, n, n, h, h)
        exact = soliton_angle(1.0, g)
        solved = goursat_solve(exact.phi[:, 0], exact.phi[0, :], g)
        errs.append(np.abs(solved.phi - exact.phi).max())
    assert errs[0] / errs[1] > 3.8  # halving h cuts the error by >= ~4x


def test_goursat_swap_symmetry():
    g = unit_grid(61)
    exact = soliton_angle(1.2, g)
    a = goursat_solve(exact.phi[:, 0], exact.phi[0, :], g)
    b = goursat_solve(exact.phi[0, :], exact.phi[:, 0], g)
    assert np.abs(a.phi - b.phi.T).max() == 0.0


def test_goursat_four_quadrants():
    g = GridSpec(-1.0, -1.0, 81, 81, 0.025, 0.025)
    exact = soliton_angle(1.0, g)
    i0, j0 = g.origin_index()
    solved = goursat_solve(exact.phi[:, j0], exact.phi[i0, :], g)
    assert np.abs(solved.phi - exact.phi).max() < 1e-4


def test_goursat_corner_mismatch():
    g = unit_grid(11)
    with pytest.raises(IncompatibleCorner):
        goursat_solve(np.full(11, 1.0), np.full(11, 2.0), g)


def test_goursat_residual_refinement():
    # solved fields satisfy the equation at order >= 2 under refinement
    sups = []
    for h in (0.08, 0.04):
        n = round(2.0 / h) + 1
        g = GridSpec(0.0, 0.0, n, n, h, h)
        exact = soliton_angle(1.0, g)
        solved = goursat_solve(exact.phi[:, 0], exact.phi[0, :], g)
        sups.append(np.abs(sg_residual(solved)).max())
    assert sups[1] < sups[0] / 3.8


def _axis_data(grid):
    exact = two_soliton(grid)
    i0, j0 = grid.origin_index()
    return exact.phi[:, j0], exact.phi[i0, :]


@pytest.mark.parametrize("grid", [
    GridSpec(-0.7, -0.7, 71, 71, 0.02, 0.02),          # symmetric
    GridSpec(-0.3, -0.8, 61, 51, 0.02, 0.02),          # origin (15, 40)
    GridSpec(-0.7, -0.66, 71, 45, 0.02, 0.03),         # hx != hy
    GridSpec(-0.02, -0.3, 2, 31, 0.02, 0.02),          # 2-node strips
    GridSpec(-0.3, 0.0, 31, 2, 0.02, 0.02),
], ids=["sym71", "off61x51", "hx_ne_hy", "strip2x31", "strip31x2"])
def test_goursat_raw_matches_quadrant_sweep(grid):
    # the one-wavefront sweep against the quadrant-by-quadrant reference:
    # quadrants that converge earlier take a few more Picard iterations,
    # which moves results by rounding only
    x_data, y_data = _axis_data(grid)
    new = _goursat_raw(x_data, y_data, grid)
    ref = ref_goursat_raw(x_data, y_data, grid)
    assert np.abs(new - ref).max() < 1e-13


def test_goursat_raw_corner_origin_bit_identical():
    # one quadrant: the same operations in the same order as the reference
    g = GridSpec(0.0, 0.0, 61, 41, 0.02, 0.025)
    x_data, y_data = _axis_data(g)
    assert np.array_equal(_goursat_raw(x_data, y_data, g),
                          ref_goursat_raw(x_data, y_data, g))


def test_goursat_nonconvergent_cell():
    # h = 1: the Picard map contracts only by |k cos| ~ 0.25 in the
    # quadrants of negative weight, too slowly for 20 iterations
    g = GridSpec(-2.0, -2.0, 5, 5, 1.0, 1.0)
    with pytest.raises(NonconvergentCell,
                       match=r"^Picard iteration stalled on diagonal 2 "
                             r"of quadrant \(\+1,-1\)$"):
        goursat_solve(np.full(5, 1.0), np.full(5, 1.0), g)


def test_goursat_observed_order_two_soliton():
    # Goursat + Richardson is fourth order on a truly 2-D exact solution
    # (measured errors 7.1e-8, 4.3e-9, 2.7e-10: orders 4.05 and 4.01)
    errs = []
    for h in (0.04, 0.02, 0.01):
        n = round(2.0 / h) + 1
        g = GridSpec(-1.0, -1.0, n, n, h, h)
        solved = goursat_solve(*_axis_data(g), g)
        errs.append(np.abs(solved.phi - two_soliton(g).phi).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert (orders >= 3.8).all(), (errs, orders)


def test_angle_csv_round_trip(tmp_path, small_soliton):
    phi_path = tmp_path / "phi.csv"
    dphi_path = tmp_path / "phi_x.csv"
    save_angle_csv(small_soliton, phi_path, dphi_path)
    back = load_angle_csv(phi_path, dphi_path)
    assert back.grid == small_soliton.grid
    assert np.array_equal(back.phi, small_soliton.phi)
    assert np.array_equal(back.dphi_dx, small_soliton.dphi_dx)
    # deterministic bytes on re-save
    phi2 = tmp_path / "phi2.csv"
    save_angle_csv(back, phi2)
    assert phi2.read_bytes() == phi_path.read_bytes()


def test_header_format(tmp_path):
    g = GridSpec(-2.0, -2.0, 201, 201, 0.02, 0.02)
    f = constant_angle(1.0, g)
    path = tmp_path / "phi.csv"
    save_angle_csv(f, path)
    assert path.read_text().splitlines()[0] == "# 201 201 -2 -2 0.02 0.02"


def test_field_phi_xy_fallback():
    g = unit_grid(41, 0.05)
    exact = soliton_angle(1.0, g)
    bare = AngleField(g, exact.phi.copy())
    x, y = g.meshgrid()
    assert np.abs(bare.phi_xy() - exact.phixy_fn(x, y)).max() < 5e-5
    assert np.abs(deriv4(bare.phi, g.hx, axis=0)
                  - bare.dphi_dx).max() == 0.0
