import numpy as np
import pytest

from psforge.errors import SingularAngle
from psforge.frames import gauge, integrate_frame
from psforge.sinegordon import AngleField, GridSpec, soliton_angle
from psforge.surfaces import (Immersion, associated_family, export_mesh,
                              fundamental_forms, gauss_map,
                              harmonicity_check, principal_curvatures,
                              read_obj, sym_immersion)

rng = np.random.default_rng(31)


def test_sym_origin_is_zero(soliton):
    i0, j0 = soliton.grid.origin_index()
    for lam in (0.5, 1.0, 2.0):
        s = sym_immersion(soliton, lam, substeps=1)
        assert np.array_equal(s.points[i0, j0], np.zeros(3))


@pytest.mark.parametrize("substeps, bound", [(1, 1e-6), (2, 1e-7)])
def test_sym_position_matches_lambda_difference(small_soliton, substeps,
                                                bound):
    # oracle: the Sym formula psi = lam * U_lam * U^T with U_lam a central
    # difference of two plain frame integrations at lam (1 +- 1e-4)
    from psforge.algebra import unhat
    lams = np.array([0.5, 1.0, 2.0])
    sampled = AngleField(small_soliton.grid, small_soliton.phi,
                         small_soliton.dphi_dx)
    for f in (small_soliton, sampled):
        fr = integrate_frame(f, lams, substeps=substeps)
        up = integrate_frame(f, lams * (1 + 1e-4), substeps=substeps).U
        um = integrate_frame(f, lams * (1 - 1e-4), substeps=substeps).U
        lam = lams[:, None, None, None, None]
        sym = lam * (up - um) / (2e-4 * lam) @ np.swapaxes(fr.U, -1, -2)
        assert np.abs(fr.psi - unhat(sym, check=False)).max() < bound


def test_pseudosphere_curvature(pseudosphere, sin_mask):
    _, geom = pseudosphere
    mask = geom.mask & sin_mask
    assert abs(np.nanmean(geom.K[mask]) + 1.0) < 1e-3
    assert np.nanmax(np.abs(geom.K[mask] + 1.0)) < 1e-3


def test_chebyshev_first_form(pseudosphere, soliton, sin_mask):
    _, geom = pseudosphere
    mask = geom.mask & sin_mask
    assert np.abs(geom.E[mask] - 1.0).max() < 1e-4
    assert np.abs(geom.G[mask] - 1.0).max() < 1e-4
    assert np.abs(geom.F - np.cos(soliton.phi))[mask].max() < 1e-4


def test_second_form_structure(pseudosphere, soliton, sin_mask):
    _, geom = pseudosphere
    mask = geom.mask & sin_mask
    assert np.nanmax(np.abs(geom.L[mask])) < 1e-3
    assert np.nanmax(np.abs(geom.N2[mask])) < 1e-3
    assert np.abs(geom.M - np.sin(soliton.phi))[mask].max() < 1e-3


def test_metric_scaling_with_lambda(soliton, sin_mask):
    s = sym_immersion(soliton, 2.0)
    geom = fundamental_forms(s)
    mask = geom.mask & sin_mask
    assert np.abs(geom.metricA[mask] - 2.0).max() < 1e-3
    assert np.abs(geom.metricB[mask] - 0.5).max() < 1e-3


def test_principal_curvatures():
    k1, k2 = principal_curvatures(np.pi / 2)
    assert np.isclose(k1, 1.0) and np.isclose(k2, -1.0)
    phis = rng.uniform(0.1, np.pi - 0.1, 50)
    k1, k2 = principal_curvatures(phis)
    assert np.allclose(k1 * k2, -1.0)
    with pytest.raises(SingularAngle):
        principal_curvatures(np.pi)


def test_family_principal_and_mean_curvature(small_soliton):
    # every member has the principal curvatures tan(phi/2), -cot(phi/2) and
    # H = -cot(phi); the cross-product normal flips where sin(phi) changes
    # sign, and with it the signs of k1, k2 and H
    phi = small_soliton.phi
    members, _ = associated_family(small_soliton, [0.5, 1.0, 2.0])
    for _, geom in members:
        mask = geom.mask & (np.abs(np.sin(phi)) > 0.1)
        sign = np.sign(np.sin(phi[mask]))
        got = np.sort(sign * np.stack([geom.k1[mask], geom.k2[mask]]), axis=0)
        want = np.sort(np.stack(principal_curvatures(phi[mask])), axis=0)
        assert np.abs((got - want) / want).max() <= 1e-3
        assert np.abs(sign * geom.H[mask] + 1.0 / np.tan(phi[mask])).max() \
            <= 1e-2


def test_principal_curvatures_eigen_oracle():
    # eigenvalues of the shape operator written in curvature coordinates
    for phi in rng.uniform(0.2, np.pi - 0.2, 20):
        shape_op = np.array([
            [-1.0 / np.tan(phi), 1.0 / np.sin(phi)],
            [1.0 / np.sin(phi), -1.0 / np.tan(phi)],
        ])
        expected = np.sort(np.linalg.eigvalsh(shape_op))
        k1, k2 = principal_curvatures(phi)
        assert np.allclose(np.sort([k1, k2]), expected)


def test_gauss_map(soliton_frame, pseudosphere, sin_mask):
    n = gauss_map(soliton_frame, verify_parallel_tol=1e-8)
    i0, j0 = soliton_frame.grid.origin_index()
    assert np.array_equal(n[i0, j0], [0.0, 0.0, 1.0])
    assert np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() < 1e-12
    imm, geom = pseudosphere
    from psforge.numerics import deriv4
    g = soliton_frame.grid
    px = deriv4(imm.points, g.hx, axis=0)
    py = deriv4(imm.points, g.hy, axis=1)
    mask = geom.mask & sin_mask
    assert np.abs((n * px).sum(-1)[mask]).max() < 1e-4
    assert np.abs((n * py).sum(-1)[mask]).max() < 1e-4


def test_harmonicity(soliton_frame, pseudosphere, sin_mask):
    imm, geom = pseudosphere
    n = gauss_map(soliton_frame)
    rep = harmonicity_check(n, geom)
    mask = geom.mask & sin_mask
    assert rep.tangential_residual.max() < 1e-3
    assert np.abs(rep.nx_norm - geom.metricA)[mask].max() < 1e-3
    assert np.abs(rep.ny_norm - geom.metricB)[mask].max() < 1e-3


def test_harmonicity_detects_perturbation(soliton_frame, pseudosphere):
    imm, geom = pseudosphere
    n = gauss_map(soliton_frame)
    # push N along a tangent direction; the residual must react at the
    # perturbation scale
    from psforge.numerics import deriv4
    tangent = deriv4(imm.points, imm.grid.hx, axis=0)
    bad = n + 0.01 * tangent
    bad /= np.linalg.norm(bad, axis=-1, keepdims=True)
    rep = harmonicity_check(bad, geom)
    assert rep.tangential_residual.max() > 1e-3


def test_gauss_map_gauge_invariant(soliton_frame):
    g = soliton_frame.grid
    theta = rng.uniform(-np.pi, np.pi, (g.nx, g.ny))
    n0 = gauss_map(soliton_frame)
    n1 = gauss_map(gauge(soliton_frame, theta))
    assert np.abs(n0 - n1).max() < 1e-12


def test_associated_family(soliton):
    members, report = associated_family(soliton, [0.5, 1.0, 2.0])
    assert report["M_deviation_sup"] < 1e-3
    assert report["angle_deviation_sup"] < 1e-3
    for (lam, a_mean, b_mean) in zip(report["lambdas"],
                                     report["metricA_mean"],
                                     report["metricB_mean"]):
        assert abs(a_mean - lam) < 1e-3
        assert abs(b_mean - 1.0 / lam) < 1e-3


@pytest.mark.parametrize("frame_lam", [2.0, np.array([0.5, 1.0])],
                         ids=["other", "batch"])
def test_sym_immersion_rejects_frame_at_other_lambda(frame_lam):
    f = soliton_angle(1.0, GridSpec(-0.1, -0.1, 11, 11, 0.02, 0.02))
    with pytest.raises(ValueError, match="frame is at lambda"):
        sym_immersion(f, 0.5, frame=integrate_frame(f, frame_lam))


def test_lie_lorentz_consistency(soliton):
    # the lambda-member equals the lambda=1 reconstruction of the field
    # with axes rescaled by lambda and 1/lambda
    lam = 2.0
    g = soliton.grid
    g2 = GridSpec(g.x0 * lam, g.y0 / lam, g.nx, g.ny, g.hx * lam, g.hy / lam)
    rescaled = AngleField(g2, soliton.phi.copy(), soliton.dphi_dx / lam)
    a = sym_immersion(soliton, lam, substeps=2)
    b = sym_immersion(rescaled, 1.0, substeps=2)
    assert np.abs(a.points - b.points).max() < 1e-3


def test_export_mesh_counts(tmp_path):
    grid = GridSpec(0.0, 0.0, 2, 2, 1.0, 1.0)
    pts = rng.normal(size=(2, 2, 3))
    path = tmp_path / "m.obj"
    export_mesh(Immersion(grid, 1.0, pts), path)
    verts, faces = read_obj(path)
    assert verts.shape == (4, 3)
    assert faces.shape == (2, 3)


def test_export_mesh_round_trip(tmp_path, small_soliton):
    s = sym_immersion(small_soliton, 1.0, substeps=1)
    path = tmp_path / "s.obj"
    export_mesh(s, path)
    verts, faces = read_obj(path)
    g = small_soliton.grid
    assert verts.shape == (g.nx * g.ny, 3)
    assert np.array_equal(verts.reshape(g.nx, g.ny, 3), s.points)
    assert faces.min() == 1 and faces.max() == g.nx * g.ny


def test_export_mesh_mask_drops_faces(tmp_path):
    grid = GridSpec(0.0, 0.0, 3, 3, 1.0, 1.0)
    pts = rng.normal(size=(3, 3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    path = tmp_path / "masked.obj"
    export_mesh(Immersion(grid, 1.0, pts), path, mask=mask)
    _, faces = read_obj(path)
    assert len(faces) == 0  # every cell touches the masked center node


@pytest.mark.parametrize("shape", [(6, 4), (5, 5)])
def test_export_mesh_rejects_mask_of_other_shape(tmp_path, shape):
    grid = GridSpec(0.0, 0.0, 5, 4, 1.0, 1.0)
    path = tmp_path / "m.obj"
    with pytest.raises(ValueError, match="mask of shape"):
        export_mesh(Immersion(grid, 1.0, rng.normal(size=(5, 4, 3))), path,
                    mask=np.ones(shape, dtype=bool))
    assert not path.exists()


def test_export_mesh_rejects_complex_immersion(tmp_path, small_soliton):
    s = sym_immersion(small_soliton, np.exp(0.4j), substeps=1)
    path = tmp_path / "c.obj"
    with pytest.raises(ValueError, match="complex immersion"):
        export_mesh(s, path)
    assert not path.exists()
