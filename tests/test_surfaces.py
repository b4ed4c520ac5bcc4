import numpy as np
import pytest

from psforge.algebra import E12, unhat
from psforge.errors import SingularAngle
from psforge.frames import ExtendedFrame, gauge, integrate_frame
from psforge.numerics import deriv4
from psforge.sinegordon import AngleField, GridSpec, soliton_angle
from psforge.surfaces import (associated_family, export_mesh,
                              fundamental_forms, gauss_map,
                              harmonicity_check, principal_curvatures,
                              read_obj)
from util import two_soliton

rng = np.random.default_rng(31)


def test_sym_origin_is_zero(soliton):
    i0, j0 = soliton.grid.origin_index()
    for lam in (0.5, 1.0, 2.0):
        s = integrate_frame(soliton, lam, substeps=1)
        assert np.array_equal(s.psi[i0, j0], np.zeros(3))


@pytest.mark.parametrize("substeps, bound", [(1, 1e-6), (2, 1e-7)])
def test_sym_position_matches_lambda_difference(small_soliton, substeps,
                                                bound):
    # oracle: the Sym formula psi = lam * U_lam * U^T with U_lam a central
    # difference of two plain frame integrations at lam (1 +- 1e-4)
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
    geom = fundamental_forms(integrate_frame(soliton, 2.0, substeps=2))
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
        E, F, G, L, M, N2, K = (getattr(geom, c)[mask]
                                for c in ("E", "F", "G", "L", "M", "N2", "K"))
        H = (E * N2 - 2.0 * F * M + G * L) / (2.0 * (E * G - F * F))
        disc = np.sqrt(np.maximum(H * H - K, 0.0))
        got = np.sort(sign * np.stack([H + disc, H - disc]), axis=0)
        want = np.sort(np.stack(principal_curvatures(phi[mask])), axis=0)
        assert np.abs((got - want) / want).max() <= 1e-3
        assert np.abs(sign * H + 1.0 / np.tan(phi[mask])).max() <= 1e-2


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
    n = gauss_map(soliton_frame)
    i0, j0 = soliton_frame.grid.origin_index()
    assert np.array_equal(n[i0, j0], [0.0, 0.0, 1.0])
    assert np.abs(np.linalg.norm(n, axis=-1) - 1.0).max() < 1e-12
    # the axis read off the adjoint orbit U E12 U^T through the hat map is
    # parallel to N (the two identifications agree up to orientation)
    u = soliton_frame.U
    orbit = unhat(u @ E12 @ np.swapaxes(u, -1, -2), check=False)
    assert np.abs(np.cross(orbit, n)).max() <= 1e-8
    frame, geom = pseudosphere
    g = frame.grid
    px = deriv4(frame.psi, g.hx, axis=0)
    py = deriv4(frame.psi, g.hy, axis=1)
    mask = geom.mask & sin_mask
    assert np.abs((n * px).sum(-1)[mask]).max() < 1e-4
    assert np.abs((n * py).sum(-1)[mask]).max() < 1e-4


def test_harmonicity(soliton_frame, pseudosphere, sin_mask):
    _, geom = pseudosphere
    n = gauss_map(soliton_frame)
    rep = harmonicity_check(n, geom.grid)
    mask = geom.mask & sin_mask
    assert rep.tangential_residual.max() < 1e-3
    assert np.abs(rep.nx_norm - geom.metricA)[mask].max() < 1e-3
    ny_norm = np.linalg.norm(deriv4(n, geom.grid.hy, axis=1), axis=-1)
    assert np.abs(ny_norm - geom.metricB)[mask].max() < 1e-3


def test_harmonicity_detects_perturbation(soliton_frame, pseudosphere):
    frame, geom = pseudosphere
    n = gauss_map(soliton_frame)
    # push N along a tangent direction; the residual must react at the
    # perturbation scale
    tangent = deriv4(frame.psi, frame.grid.hx, axis=0)
    bad = n + 0.01 * tangent
    bad /= np.linalg.norm(bad, axis=-1, keepdims=True)
    rep = harmonicity_check(bad, geom.grid)
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
    # metric factors A = lam, B = 1/lam, averaged over the nodes where
    # every member is non-degenerate
    mask = np.logical_and.reduce([geom.mask for _, geom in members])
    for frame, geom in members:
        assert abs(np.nanmean(geom.metricA[mask]) - frame.lam) < 1e-3
        assert abs(np.nanmean(geom.metricB[mask]) - 1.0 / frame.lam) < 1e-3


def test_batched_forms_equal_per_member_forms_bit_for_bit():
    # the family's forms are taken in one call over the lambda axis; each
    # member's, masked NaNs included, is the one of that member alone
    f = two_soliton(GridSpec(-1.0, -1.0, 41, 41, 0.05, 0.05))
    lams = [0.5, 1.0, 2.0]
    batch = integrate_frame(f, np.array(lams), substeps=2)
    geom = fundamental_forms(batch)
    assert geom.K.shape == (3, 41, 41) and not geom.mask.all()
    members, _ = associated_family(f, lams)
    for k, (lam, (frame, member)) in enumerate(zip(lams, members,
                                                  strict=True)):
        alone = fundamental_forms(ExtendedFrame(f.grid, lam, batch.U[k],
                                                batch.psi[k]))
        for name in ("E", "F", "G", "L", "M", "N2", "K", "metricA",
                     "metricB", "mask"):
            want = getattr(alone, name)
            assert np.array_equal(getattr(geom, name)[k], want,
                                  equal_nan=True), (lam, name)
            assert np.array_equal(getattr(member, name), want,
                                  equal_nan=True), (lam, name)
        assert np.array_equal(frame.psi, batch.psi[k])


@pytest.mark.parametrize("n, lam", [(21, 0.5), (11, np.array([0.5, 1.0]))],
                         ids=["other_grid", "batch"])
def test_fundamental_forms_rejects_psi_off_its_grid(n, lam):
    # an 11x11 frame holding the psi of a 21x21 grid or of a lambda batch
    def field(n):
        x0 = -0.01 * (n - 1)
        return soliton_angle(1.0, GridSpec(x0, x0, n, n, 0.02, 0.02))
    frame = integrate_frame(field(11), 0.5)
    frame.psi = integrate_frame(field(n), lam).psi
    with pytest.raises(ValueError, match="on the 11x11 grid"):
        fundamental_forms(frame)


def test_harmonicity_check_rejects_normals_off_its_grid():
    # the Gauss map of a 21x21 frame checked on an 11x11 grid used to
    # return a 21x21 report differentiated with the 11x11 spacing
    big = soliton_angle(1.0, GridSpec(-0.2, -0.2, 21, 21, 0.02, 0.02))
    small = GridSpec(-0.1, -0.1, 11, 11, 0.02, 0.02)
    n = gauss_map(integrate_frame(big, 1.0))
    with pytest.raises(ValueError, match=r"normal field of shape "
                                         r"\(21, 21, 3\) on the 11x11 grid"):
        harmonicity_check(n, small)


def test_surface_checks_reject_grid_under_5_nodes():
    f = soliton_angle(1.0, GridSpec(-0.04, -0.04, 5, 5, 0.02, 0.02))
    full = integrate_frame(f, 1.0)
    grid = GridSpec(-0.04, -0.04, 5, 4, 0.02, 0.02)
    frame = ExtendedFrame(grid, 1.0, full.U[:, :4], full.psi[:, :4])
    for call in (lambda: fundamental_forms(frame),
                 lambda: harmonicity_check(gauss_map(frame), grid)):
        with pytest.raises(ValueError, match="the 5x4 grid is too small: "
                                             "4th-order differences"):
            call()


def test_lie_lorentz_consistency(soliton):
    # the lambda-member equals the lambda=1 reconstruction of the field
    # with axes rescaled by lambda and 1/lambda
    lam = 2.0
    g = soliton.grid
    g2 = GridSpec(g.x0 * lam, g.y0 / lam, g.nx, g.ny, g.hx * lam, g.hy / lam)
    rescaled = AngleField(g2, soliton.phi.copy(), soliton.dphi_dx / lam)
    a = integrate_frame(soliton, lam, substeps=2)
    b = integrate_frame(rescaled, 1.0, substeps=2)
    assert np.abs(a.psi - b.psi).max() < 1e-3


def test_export_mesh_counts(tmp_path):
    pts = rng.normal(size=(2, 2, 3))
    path = tmp_path / "m.obj"
    export_mesh(pts, path)
    verts, faces = read_obj(path)
    assert verts.shape == (4, 3)
    assert faces.shape == (2, 3)


@pytest.mark.parametrize("line, message", [
    ("v 1 2", "'v' line of 2 values"), ("f 1 2", "'f' line of 2 values"),
    ("v 1 2 x", "could not convert string to float: 'x'"),
    ("f 1 2 3.5", "invalid literal for int() with base 10: '3.5'"),
    ("v nan 1 2", "non-finite value nan"), ("v inf 0 0", "non-finite value inf")])
def test_read_obj_rejects_short_or_malformed_lines(tmp_path, line, message):
    # a v or f line without three numbers, or a v line with a nan or inf,
    # is named by path:line
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\n\n" + line + "\n")
    with pytest.raises(ValueError) as exc:
        read_obj(path)
    assert str(exc.value) == f"{path}:3: {message}"


def test_export_mesh_round_trip(tmp_path, small_soliton):
    s = integrate_frame(small_soliton, 1.0, substeps=1)
    path = tmp_path / "s.obj"
    export_mesh(s.psi, path)
    verts, faces = read_obj(path)
    g = small_soliton.grid
    assert verts.shape == (g.nx * g.ny, 3)
    assert np.array_equal(verts.reshape(g.nx, g.ny, 3), s.psi)
    assert faces.min() == 1 and faces.max() == g.nx * g.ny


def test_export_mesh_mask_drops_faces(tmp_path):
    pts = rng.normal(size=(3, 3, 3))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    path = tmp_path / "masked.obj"
    export_mesh(pts, path, mask=mask)
    _, faces = read_obj(path)
    assert len(faces) == 0  # every cell touches the masked center node


@pytest.mark.parametrize("shape", [(6, 4), (5, 5)])
def test_export_mesh_rejects_mask_of_other_shape(tmp_path, shape):
    path = tmp_path / "m.obj"
    with pytest.raises(ValueError, match="mask of shape"):
        export_mesh(rng.normal(size=(5, 4, 3)), path,
                    mask=np.ones(shape, dtype=bool))
    assert not path.exists()


def test_export_mesh_rejects_complex_immersion(tmp_path, small_soliton):
    s = integrate_frame(small_soliton, np.exp(0.4j), substeps=1)
    path = tmp_path / "c.obj"
    with pytest.raises(ValueError, match="not complex128"):
        export_mesh(s.psi, path)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(132, 3), (12, 11, 2), (2, 12, 11, 3)])
def test_export_mesh_rejects_points_not_on_a_grid(tmp_path, shape):
    path = tmp_path / "m.obj"
    with pytest.raises(ValueError, match=r"real \(nx, ny, 3\) array"):
        export_mesh(rng.normal(size=shape), path)
    assert not path.exists()
