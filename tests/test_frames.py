import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from psforge import frames, numerics, potentials
from psforge.algebra import E12, E23, P_TWIST, spinor_adjoint, spinor_map
from psforge.errors import StepFailure, ZeroSpectralParameter
from psforge.frames import (check_conditions_K, compatibility_residual,
                            flatness_residual, gauge, integrate_frame,
                            lambda_forms, maurer_cartan, sample_frame_loop,
                            su2_frame)
from psforge.loops import _circle_points, twist_deviation
from psforge.numerics import deriv4, group_deviation
from psforge.potentials import eta_x, eta_y, integrate_minus, integrate_plus
from psforge.sinegordon import (AngleField, GridSpec, load_angle_csv,
                                save_angle_csv, soliton_angle)
from psforge.surfaces import associated_family
from util import (constant_angle, ref_compatibility_residual, ref_march,
                  two_soliton)

rng = np.random.default_rng(23)


def test_lax_matrices_printed_values():
    a, b = frames._lax_A(0.0, 1.0), frames._lax_B(np.pi, 1.0)
    assert np.allclose(a, [[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    assert np.allclose(b, [[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    a2, b2 = frames._lax_A(0.3, 2.0), frames._lax_B(np.pi / 2, 2.0)
    assert np.allclose(b2, 0.5 * np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]]))
    assert np.allclose(a2, [[0, -0.3, 0], [0.3, 0, 2], [0, -2, 0]])
    assert np.allclose(a2, -a2.T) and np.allclose(b2, -b2.T)


def test_lax_twist():
    for lam in (0.5, 1.7):
        a, b = frames._lax_A(0.4, lam), frames._lax_B(1.1, lam)
        am, bm = frames._lax_A(0.4, -lam + 0j), frames._lax_B(1.1, -lam + 0j)
        assert np.allclose(am, P_TWIST @ a @ P_TWIST)
        assert np.allclose(bm, P_TWIST @ b @ P_TWIST)


def test_frame_identity_at_origin(soliton):
    i0, j0 = soliton.grid.origin_index()
    for lam in (0.5, 1.0, 2.0):
        fr = integrate_frame(soliton, lam)
        assert np.array_equal(fr.U[i0, j0], np.eye(3))


def test_frame_orthogonality(soliton):
    fr = integrate_frame(soliton, 2.0)
    dev = np.abs(np.swapaxes(fr.U, -1, -2) @ fr.U - np.eye(3)).max()
    assert dev < 1e-8
    assert np.allclose(np.linalg.det(fr.U), 1.0, atol=1e-10)


def test_frame_path_independence(soliton):
    for lam in (0.5, 2.0):
        a = integrate_frame(soliton, lam, order="xy")
        b = integrate_frame(soliton, lam, order="yx")
        assert np.abs(a.U - b.U).max() < 1e-6


def test_frame_constant_angle_exponential_oracle():
    # phi = pi: A and B are constant multiples of E23, so the frame is a
    # closed-form exponential
    g = GridSpec(0.0, 0.0, 21, 21, 0.05, 0.05)
    f = constant_angle(np.pi, g)
    lam = 1.3
    fr = integrate_frame(f, lam, substeps=8)
    for i, j in ((20, 0), (7, 13), (20, 20)):
        expected = expm((lam * g.xs[i] + g.ys[j] / lam) * E23)
        assert np.abs(fr.U[i, j] - expected).max() < 1e-9


def test_frame_rejects_bad_lambda(soliton):
    with pytest.raises(ValueError):
        integrate_frame(soliton, -1.0)
    for integrate, eta in ((integrate_plus, eta_x), (integrate_minus, eta_y)):
        with pytest.raises(ValueError, match="lambda must be positive"):
            integrate(eta(soliton), -1.0)
    with pytest.raises(ValueError):
        integrate_frame(soliton, 1.0, order="diagonal")
    with pytest.raises(ValueError):
        integrate_frame(soliton, np.array([0.5, 0.0]))


def test_compatibility_residual(soliton):
    assert compatibility_residual(soliton).max() < 1e-8
    g = soliton.grid
    half = constant_angle(np.pi / 2, g)
    r = compatibility_residual(half)
    # direct evaluation of the defect for the non-solution: |sin(phi)| * ||E12||_F
    assert np.allclose(r, np.sqrt(2.0))


def test_compatibility_residual_matches_commutator_form(soliton_grid):
    # A_y - B_x - [A, B] = (sin(phi) - phi_xy) E12 at every lambda, so the
    # closed form is the 3x3 commutator form's Frobenius norm
    for f in (soliton_angle(0.8, soliton_grid), two_soliton(soliton_grid),
              constant_angle(np.pi / 2, soliton_grid)):
        r = compatibility_residual(f)
        for lam in (0.5, 1.0, 2.0):
            ref = ref_compatibility_residual(f, lam)
            assert np.abs(r - ref).max() <= 1e-15, lam


def test_maurer_cartan_coefficients(soliton):
    form = maurer_cartan(soliton)
    assert np.array_equal(form.alpha1[0, 0], -E23)
    assert np.ptp(form.alpha1, axis=(0, 1)).max() == 0.0
    # node with phi = pi/2
    f = constant_angle(np.pi / 2, soliton.grid)
    fm = maurer_cartan(f)
    assert np.allclose(fm.alpha_m1[3, 4],
                       [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    # alpha0' spans E12 only
    assert np.abs(form.alpha0_prime[..., 0, 2]).max() == 0.0
    assert np.abs(form.alpha0_prime[..., 1, 2]).max() == 0.0


def test_maurer_cartan_matches_frame_derivative(small_soliton):
    lam = 1.3
    f = small_soliton
    g = f.grid
    fr = integrate_frame(f, lam, substeps=2)
    form = maurer_cartan(f)
    ux = deriv4(fr.U, g.hx, axis=0)
    uy = deriv4(fr.U, g.hy, axis=1)
    uinv = np.swapaxes(fr.U, -1, -2)
    omega_x = -(uinv @ ux)
    omega_y = -(uinv @ uy)
    assert np.abs(omega_x - (form.alpha0_prime + lam * form.alpha1)).max() < 5e-5
    assert np.abs(omega_y - form.alpha_m1 / lam).max() < 5e-5


def test_flatness_residual(soliton):
    form = maurer_cartan(soliton)
    assert np.nanmax(flatness_residual(form, 1.0)) < 1e-4
    # lambda and 1/lambda give the same residual up to the difference floor
    s2 = np.nanmax(flatness_residual(form, 2.0))
    s05 = np.nanmax(flatness_residual(form, 0.5))
    assert s2 < 1e-4 and s05 < 1e-4
    assert abs(s2 - s05) < 2e-5


def test_flatness_isolates_sine_gordon():
    g = GridSpec(0.0, 0.0, 21, 21, 0.05, 0.05)
    f = constant_angle(np.pi / 2, g)
    form = maurer_cartan(f)
    lam = 1.0
    p = form.alpha0_prime + lam * form.alpha1
    q = form.alpha_m1 / lam
    r = (deriv4(q, g.hx, axis=0) - deriv4(p, g.hy, axis=1)) - (p @ q - q @ p)
    assert np.allclose(r[..., 0, 1], 1.0)  # sin(pi/2) - 0
    assert np.allclose(flatness_residual(form, lam), np.sqrt(2.0))


def test_lambda_forms_values(soliton):
    g = soliton.grid
    f = constant_angle(np.pi / 2, g)
    forms = lambda_forms(f, 1.0)
    w1 = forms["omega1"]
    assert np.allclose(w1.p, np.sqrt(2.0) / 2.0)
    assert np.allclose(w1.q, np.sqrt(2.0) / 2.0)
    # omega12 does not depend on lambda
    a = lambda_forms(soliton, 0.5)["omega12"]
    b = lambda_forms(soliton, 2.0)["omega12"]
    assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


@pytest.mark.parametrize("lam", [0.0, -1.0, 1.0 + 0.5j, [0.5, 1.0]],
                         ids=["zero", "negative", "complex", "array"])
def test_lambda_forms_rejects_lambda(lam):
    f = constant_angle(np.pi / 2, GridSpec(0.0, 0.0, 5, 5, 0.1, 0.1))
    with pytest.raises(ValueError, match="positive real number"):
        lambda_forms(f, lam)


def test_lambda_forms_two_parametrizations():
    # the lambda-forms are the stated linear combinations of the lambda=1 forms
    g = GridSpec(0.0, 0.0, 12, 12, 0.1, 0.1)
    f = AngleField(g, rng.uniform(0.3, 2.7, (12, 12)))
    base = lambda_forms(f, 1.0)
    for lam in (0.5, 1.7):
        lf = lambda_forms(f, lam)
        cp, cm = (lam + 1.0 / lam) / 2.0, (lam - 1.0 / lam) / 2.0
        for comp in ("p", "q"):
            w1, w2 = getattr(base["omega1"], comp), getattr(base["omega2"], comp)
            w13, w23 = getattr(base["omega13"], comp), getattr(base["omega23"], comp)
            assert np.allclose(getattr(lf["omega1"], comp), cp * w1 + cm * w23)
            assert np.allclose(getattr(lf["omega2"], comp), cp * w2 - cm * w13)
            assert np.allclose(getattr(lf["omega13"], comp), cp * w13 - cm * w2)
            assert np.allclose(getattr(lf["omega23"], comp), cp * w23 + cm * w1)


def test_conditions_K_soliton(soliton):
    for lam in (0.5, 1.0, 2.0):
        res = check_conditions_K(lambda_forms(soliton, lam))
        assert set(res) == set("abcdefg")
        for key, r in res.items():
            assert np.nanmax(np.abs(r)) < 1e-3, key


def test_conditions_K_detects_non_solution():
    g = GridSpec(0.0, 0.0, 21, 21, 0.05, 0.05)
    f = constant_angle(np.pi / 2, g)
    res = check_conditions_K(lambda_forms(f, 1.0))
    assert np.abs(res["c"]).max() > 0.9


def test_conditions_fg_identities_any_field():
    # f and g hold for forms built from the lambda-form template at any
    # angle grid, solution or not
    g = GridSpec(0.0, 0.0, 12, 12, 0.1, 0.1)
    f = AngleField(g, rng.uniform(0.2, 2.9, (12, 12)))
    for lam in (0.5, 1.0, 1.7):
        res = check_conditions_K(lambda_forms(f, lam))
        assert np.abs(res["f"]).max() < 1e-10
        assert np.abs(res["g"]).max() < 1e-10


def test_lemma_lambda_family_implies_all():
    # when c, d, e vanish for sampled lambda, all seven vanish
    exact = soliton_angle(1.0, GridSpec(0.0, 0.0, 51, 51, 0.04, 0.04))
    sups = {}
    for lam in (0.5, 1.0, 2.0):
        res = check_conditions_K(lambda_forms(exact, lam))
        for k, r in res.items():
            sups[k] = max(sups.get(k, 0.0), np.nanmax(np.abs(r)))
    assert max(sups[k] for k in "cde") < 1e-3
    assert max(sups.values()) < 1e-3


def test_gauge(soliton_frame):
    g = soliton_frame.grid
    same = gauge(soliton_frame, 0.0)
    assert np.array_equal(same.U, soliton_frame.U)
    theta = rng.uniform(-np.pi, np.pi, (g.nx, g.ny))
    gauged = gauge(soliton_frame, theta)
    assert np.array_equal(gauged.U[..., :, 2], soliton_frame.U[..., :, 2])
    assert np.array_equal(gauged.psi, soliton_frame.psi)
    back = gauge(gauged, -theta)
    assert np.abs(back.U - soliton_frame.U).max() < 1e-13


def test_su2_frame_matches_adjoint(small_soliton):
    lam = 1.0
    i0, j0 = small_soliton.grid.origin_index()
    for order in ("xy", "yx"):
        p = su2_frame(small_soliton, lam, order=order, substeps=4)
        assert np.array_equal(p[i0, j0], np.eye(2))
        ph = np.conj(np.swapaxes(p, -1, -2))
        assert np.abs(ph @ p - np.eye(2)).max() < 1e-9
        assert np.abs(np.linalg.det(p) - 1.0).max() < 1e-9
        fr = integrate_frame(small_soliton, lam, order=order, substeps=4)
        assert np.abs(spinor_adjoint(p).real - fr.U).max() < 1e-8


def test_su2_frame_lambda_batch_matches_members(small_soliton):
    lams = [0.5, 1.0, 2.0]
    batch = su2_frame(small_soliton, lams, substeps=2)
    assert batch.shape == (3, 101, 101, 2, 2)
    for p, lam in zip(batch, lams):
        want = su2_frame(small_soliton, lam, substeps=2)
        assert np.abs(p - want).max() <= 1e-14 * np.abs(want).max()


def test_su2_frame_complex_lambda(small_soliton):
    # at a complex lambda P lies in SL(2, C) and covers the complex U:
    # P J(e_k) P^-1 = J(U e_k)
    lam = 1.0 + 0.5j
    p = su2_frame(small_soliton, lam, substeps=4)
    U = integrate_frame(small_soliton, lam, substeps=4).U
    assert np.abs(np.linalg.det(p) - 1.0).max() < 1e-9
    p_inv = np.linalg.inv(p)
    for k, e in enumerate(np.eye(3)):
        dev = np.abs(p @ spinor_map(e) @ p_inv - spinor_map(U[..., :, k]))
        assert dev.max() < 1e-8


@pytest.mark.parametrize("lam", [0.0, -1.0, [0.5, -1.0], [[1.0]]])
def test_su2_frame_rejects_lambda(small_soliton, lam):
    with pytest.raises(ValueError, match="lambda must be positive"):
        su2_frame(small_soliton, lam)


def test_su2_frame_zero_complex_lambda(small_soliton):
    with pytest.raises(ZeroSpectralParameter):
        su2_frame(small_soliton, 0j)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(phi=st.floats(-2 * np.pi, 2 * np.pi), phi_x=st.floats(-100.0, 100.0),
       lam=st.floats(0.25, 4.0))
def test_spinor_lax_pair_closed_forms(phi, phi_x, lam):
    # the spinor images of A and B against their closed forms in su(2)
    a, b = (g(np.array([v]), lam)[0]
            for g, v in zip(frames._SU2, (phi_x, phi)))
    A = np.array([[-0.5j * phi_x, 0.5j * lam], [0.5j * lam, 0.5j * phi_x]])
    B = np.array([[0.0, -0.5j * np.exp(1j * phi) / lam],
                  [-0.5j * np.exp(-1j * phi) / lam, 0.0]])
    assert np.abs(a - A).max() <= 1e-15
    assert np.abs(b - B).max() <= 1e-15


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_frame_lambda_batch_equals_scalar_frames(order):
    exact = soliton_angle(1.0, GridSpec(-0.4, -0.3, 21, 17, 0.05, 0.05))
    sampled = AngleField(exact.grid, exact.phi, exact.dphi_dx)  # refine tables
    lams = np.array([0.5, 1.0, 2.0])
    for f in (exact, sampled):
        batch = integrate_frame(f, lams, order=order, substeps=2)
        assert batch.U.shape == (3, 21, 17, 3, 3)
        assert batch.psi.shape == (3, 21, 17, 3)
        for k, lam in enumerate(lams):
            one = integrate_frame(f, lam, order=order, substeps=2)
            assert np.array_equal(batch.U[k], one.U)
            assert np.array_equal(batch.psi[k], one.psi)


@pytest.mark.parametrize("lam", [0.01, 50.0])
def test_frame_unresolved_lambda_raises(small_soliton, lam):
    # h * max(lambda, 1/lambda) = 2 and 1: one Newton-Schulz step per node
    # cannot hold the march on SO(3), so the frame must not be returned
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepFailure, match="left the group"):
            integrate_frame(small_soliton, lam)
    fr = integrate_frame(small_soliton, 0.2)  # h / lambda = 0.1 resolves it
    assert np.abs(np.swapaxes(fr.U, -1, -2) @ fr.U - np.eye(3)).max() < 1e-13


def test_overflowing_march_raises_step_failure():
    # h / lambda = 100 (or h lambda): the marches overflow. Under the
    # suite's error::RuntimeWarning filter, StepFailure must be the only
    # report, also where the states stay finite but too large to square
    # (the spinor marches here), whose nan group deviation used to pass
    f = soliton_angle(0.8, GridSpec(-1.0, -1.0, 21, 21, 0.1, 0.1))
    calls = [lambda: integrate_frame(f, 0.001, substeps=2),
             lambda: su2_frame(f, 0.001, substeps=2),
             lambda: frames._loop_legs(f, 20, 20, np.array([1e-4 + 0j]), 1),
             lambda: frames._loop_legs(f, 20, 20, np.array([1e4 + 0j]), 1),
             lambda: integrate_plus(eta_x(f), 1e4),
             lambda: integrate_minus(eta_y(f), 1e-4)]
    for call in calls:
        with pytest.raises(StepFailure):
            call()


@pytest.mark.parametrize("kind", ["se3", "so3", "su2"])
@pytest.mark.parametrize("zh", [0.3, np.array([0.05, -0.2]),
                                0.1 * np.exp(0.7j)], ids=["real", "batch",
                                                          "complex"])
def test_word_table_is_products_of_the_y_basis(kind, zh):
    # X and Y are the y generator at sin(phi), cos(phi) = (1, 0) and (0, 1):
    # each column of the table is RK_L (zh)^L times a word of length L in
    # them, the words in lexicographic order
    gen = {"se3": frames._SE3, "so3": frames._SO3, "su2": frames._SU2}[kind][1]
    X, Y = gen(np.pi / 2, 1.0), gen(0.0, 1.0)
    w = X.shape[-1]
    table = frames._word_table(gen.basis, zh)
    if table.shape[-2] == 2 * w * w:
        table = table[..., :w * w, :] + 1j * table[..., w * w:, :]
    assert table.shape == np.shape(zh) + (w * w, 30)
    col = 0
    for L, weight in enumerate(frames._RK, start=1):
        for word in np.ndindex((2,) * L):
            product = np.linalg.multi_dot([np.eye(w)] + [(X, Y)[k]
                                                         for k in word])
            want = np.multiply.outer(weight * np.asarray(zh) ** L, product)
            got = table[..., col].reshape(np.shape(zh) + (w, w))
            assert np.abs(got - want).max() <= 1e-15, (L, word)
            col += 1
    assert col == 30


def test_frame_reality_at_conjugate_lambda(small_soliton):
    for theta in (np.pi / 6, np.pi / 3):
        lam = np.exp(1j * theta)
        a = integrate_frame(small_soliton, lam)
        b = integrate_frame(small_soliton, np.conj(lam))
        assert np.abs(np.conj(b.U) - a.U).max() < 1e-12


def test_frame_twist_at_negated_lambda(small_soliton):
    lam = 1.4
    a = integrate_frame(small_soliton, lam + 0j)
    b = integrate_frame(small_soliton, -lam + 0j)
    conj = P_TWIST @ a.U @ P_TWIST
    assert np.abs(b.U - conj).max() < 1e-12


def test_sampled_frame_loop_is_twisted_real(small_soliton):
    loop = sample_frame_loop(small_soliton, 80, 70, n=32, substeps=2)
    laurent = loop.to_laurent()
    assert twist_deviation(laurent) <= 1e-9
    assert max(np.abs(c.imag).max() for c in laurent.coeffs.values()) < 1e-9


@pytest.fixture(scope="module", params=["analytic", "csv"])
def march_field(request, small_soliton, tmp_path_factory):
    """The 101^2 soliton with its closures, and read back from CSV (stage
    tables refined from the samples)."""
    if request.param == "analytic":
        return small_soliton
    d = tmp_path_factory.mktemp("march_field")
    save_angle_csv(small_soliton, d / "phi.csv", d / "phi_x.csv")
    return load_angle_csv(d / "phi.csv", d / "phi_x.csv")


def _march_outputs(f):
    """What every kind of march psforge makes returns on the field f."""
    out = {}
    for order in ("xy", "yx"):
        fr = integrate_frame(f, np.array([0.5, 1.0, 2.0]), order=order,
                             substeps=2)
        out[f"U_{order}"], out[f"psi_{order}"] = fr.U, fr.psi
    out["su2"] = su2_frame(f, 1.0, substeps=2)
    out["x_leg"], out["y_leg"] = frames._frame_loop_legs(f, 80, 30, 64, 2)
    out["plus"] = integrate_plus(eta_x(f), 1.3)
    out["minus"] = integrate_minus(eta_y(f), np.exp(0.7j))
    return out


def test_march_propagator_matches_per_substep_rk4(march_field, monkeypatch):
    # u <- u P with the composed RK4 step matrix P is the per-substep RK4
    # march up to rounding
    new = _march_outputs(march_field)

    def per_substep(u, ts, start, stop, spacing, substeps, coeff):
        return ref_march(u, ts, start, stop, spacing, substeps,
                         lambda t: coeff(np.array([t]))[0])

    monkeypatch.setattr(frames, "_march", per_substep)
    monkeypatch.setattr(potentials, "_march", per_substep)
    ref = _march_outputs(march_field)
    for key, want in ref.items():
        assert np.abs(new[key] - want).max() <= 1e-13 * np.abs(want).max(), key


def _per_substep_steps(u, ts, nodes, h, substeps, coeff):
    # `frames._step_blocks`' step matrices of the nodes, one substep of
    # length h at a time: the recurrence before its substeps were batched
    m, w = u.shape[-2:]
    t = ts[nodes] + (0.5 * h) * np.arange(2 * substeps + 1)[:, None]
    a = coeff(t.ravel())
    a = a.reshape(t.shape + a.shape[1:])
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(np.moveaxis(a, (-2, -1), (1, 2)))
        mm, back = numerics._mm, lambda x: np.moveaxis(x, (0, 1), (-2, -1))
        eye = np.eye(w).reshape((w, w) + (1,) * (a.ndim - 3))
    else:
        mm, back, eye = np.matmul, (lambda x: x), np.eye(w)
    P = None
    for k in range(0, 2 * substeps, 2):
        a1, a2, a3 = a[k], a[k + 1], a[k + 2]
        c2 = a2 + (0.5 * h) * mm(a1, a2)
        c3 = a2 + (0.5 * h) * mm(c2, a2)
        c4 = a3 + h * mm(c3, a3)
        step = eye + (h / 6.0) * (a1 + 2.0 * c2 + 2.0 * c3 + c4)
        P = step if P is None else mm(P, step)
    P = back(P)
    P[..., :m, :m] = numerics.polar_project(P[..., :m, :m])
    return P


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["se3", "so3-complex", "su2", "axis"])
def test_batched_substeps_equal_per_substep_loop(march_field, kind, substeps):
    # every substep of a block built at once, then composed in order, is
    # the per-substep recurrence bit for bit: x-lines with real (se3) and
    # complex coefficients, and an axis ODE's tabled coefficient
    f, g = march_field, march_field.grid
    i0, j0 = g.origin_index()
    if kind == "axis":
        pot = eta_x(f)
        coeff = frames._stage_table(-1.3 * pot.samples, pot.coords[0], g.hx,
                                    substeps)
        u = np.zeros((3, 3))
    else:
        lam, gens, shape = {
            "se3": (np.array([0.5, 1.0, 2.0]), frames._SE3, (3, 4)),
            "so3-complex": (_circle_points(16)[:5], frames._SO3, (3, 3)),
            "su2": (np.array([0.5, 2.0]), frames._SU2, (2, 2))}[kind]
        coeff = frames._lax_on_line(f, lam, 0, j0, gens, substeps)
        u = np.zeros(lam.shape + shape, complex if kind == "su2" else lam.dtype)
    for stop, h in ((g.nx - 1, g.hx / substeps), (0, -g.hx / substeps)):
        blocks = list(frames._step_blocks(u, g.xs, i0, stop, g.hx, substeps,
                                          coeff))
        assert blocks
        for nodes, P in blocks:
            want = _per_substep_steps(u, g.xs, nodes, h, substeps, coeff)
            assert np.array_equal(P, want), (stop, nodes[0])


def test_march_block_size_independent(march_field, monkeypatch):
    # the step matrices of a node do not depend on the block they are
    # built in, so neither do the marched states, bit for bit
    base = _march_outputs(march_field)
    for block in (1, 10**6):
        monkeypatch.setattr(frames, "_BLOCK_STATES", block)
        other = _march_outputs(march_field)
        for key, want in base.items():
            assert np.array_equal(other[key], want), (block, key)


def test_direct_frame_loop_is_twisted_real(march_field):
    # the symmetries the quarter-circle unfold relies on, on a march of
    # every root: P(conj lambda) = sigma2 conj P(lambda) sigma2,
    # P(-lambda) = sigma3 P(lambda) sigma3
    n = 64
    s = np.arange(n)
    s2, s3 = np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    for p in frames._loop_legs(march_field, 80, 30, _circle_points(n), 2):
        assert np.abs(p[-s % n] - s2 @ p.conj() @ s2).max() <= 1e-12
        assert np.abs(p[(s + n // 2) % n] - s3 @ p @ s3).max() <= 1e-12


def test_frame_loop_unfold_matches_direct_march(march_field):
    n = 64
    direct = frames._loop_legs(march_field, 80, 30, _circle_points(n), 2)
    # numpy integers are indices and sample counts as well
    unfolded = frames._frame_loop_legs(march_field, np.int64(80),
                                       np.int64(30), np.int64(n), 2)
    for leg, want in zip(unfolded, direct):
        assert np.abs(leg - want).max() <= 1e-12 * np.abs(want).max()
    # a SampledLoop takes an integer power of two >= 4 samples only
    for bad in (30, 16.0):
        with pytest.raises(ValueError, match=f"n = {bad} samples: not an "
                                             "integer power of two"):
            frames._frame_loop_legs(march_field, 80, 30, bad, 2)


def _per_node_legs(f, i, j, lams, substeps, gens=frames._SU2):
    """The two legs of `_loop_legs` marched substep by substep under the
    generator pair gens by `util.ref_march`, a reference RK4 march that
    shares no code with psforge's: by default the spinor lift P, as
    `_loop_legs` marches it."""
    g = f.grid
    i0, j0 = g.origin_index()
    m = 2 if gens is frames._SU2 else 3
    u = np.broadcast_to(np.eye(m, dtype=complex), lams.shape + (m, m)).copy()
    legs = []
    for ts, start, stop, h, axis, line in ((g.xs, i0, i, g.hx, 0, j0),
                                           (g.ys, j0, j, g.hy, 1, i)):
        coeff = frames._lax_on_line(f, lams, axis, line, gens, substeps)
        for _, u in ref_march(u, ts, start, stop, h, substeps,
                              lambda t: coeff(np.array([t]))[0]):
            pass
        legs.append(u)
    return legs


@pytest.mark.parametrize("node", [(80, 30), (83, 13), (17, 91)])
def test_march_end_matches_per_node_march(march_field, node):
    # the pairwise product of a leg's step matrices, odd node counts and
    # backward legs included, ends where the per-substep RK4 march does
    lams = _circle_points(64)[:17]
    want = _per_node_legs(march_field, *node, lams, 2)
    for leg, u in zip(frames._loop_legs(march_field, *node, lams, 2), want,
                      strict=True):
        assert np.abs(leg - u).max() <= 1e-13 * np.abs(u).max(), node


@pytest.mark.parametrize("node", [(80, 30), (17, 91)])
def test_real_lambda_legs_match_ref_march(march_field, node):
    # at a real lambda the spinor lift lies in SU(2), whose projection is
    # the one `util.ref_march` makes
    lams = np.array([0.5, 1.0, 2.0])
    want = _per_node_legs(march_field, *node, lams, 2)
    for leg, u in zip(frames._loop_legs(march_field, *node, lams, 2), want,
                      strict=True):
        assert np.abs(leg - u).max() <= 1e-13 * np.abs(u).max(), node


def _su2_newton_schulz(u):
    # the conjugate-transpose Newton-Schulz step (3I - u u*) u / 2 on real
    # quaternions u = [[a, b], [-conj b, conj a]], where u u* is
    # (a conj a + b conj b) I
    assert np.array_equal(u[..., 1, 1], u[..., 0, 0].conj())
    assert np.array_equal(u[..., 1, 0], -u[..., 0, 1].conj())
    a, b = u[..., 0, 0], u[..., 0, 1]
    return u * (0.5 * (3.0 - (a * a.conj() + b * b.conj())))[..., None, None]


def test_su2_march_projects_onto_su2_bit_for_bit(march_field, monkeypatch):
    # at real lambda the step matrices are real quaternions in floating
    # point, on which the projection of SL(2, C) by the determinant is the
    # conjugate-transpose Newton-Schulz step of SU(2), bit for bit
    lams = np.array([0.5, 1.0, 2.0])

    def marches():
        return (su2_frame(march_field, lams, substeps=2),
                *frames._loop_legs(march_field, 80, 30, lams, 2))

    got = marches()
    monkeypatch.setattr(frames, "polar_project", _su2_newton_schulz)
    for p, want in zip(got, marches(), strict=True):
        assert np.array_equal(p, want)
    p = got[0]
    assert np.abs(np.swapaxes(p, -1, -2).conj() @ p - np.eye(2)).max() <= 1e-13


_Y_FIELD = two_soliton(GridSpec(-1.0, -1.0, 41, 41, 0.05, 0.05))


def test_spinor_legs_beat_3x3_legs_at_equal_substeps(small_soliton):
    # the spinor generator turns at half U's rate, so RK4 at substeps 2 ends
    # about 16 times closer (7-18 times here) to a substeps-16 march of U
    # than the 3x3 RK4 march of U at substeps 2
    lams = _circle_points(64)[:17]
    for f, node in ((small_soliton, (100, 0)), (_Y_FIELD, (40, 40))):
        ref = _per_node_legs(f, *node, lams, 16, frames._SO3)
        old = _per_node_legs(f, *node, lams, 2, frames._SO3)
        new = [spinor_adjoint(p)
               for p in frames._loop_legs(f, *node, lams, 2)]
        for u_old, u_new, want in zip(old, new, ref, strict=True):
            assert (np.abs(u_old - want).max()
                    >= 4.0 * np.abs(u_new - want).max()), node


def test_zero_length_leg_returns_its_input(march_field):
    g = march_field.grid
    i0, j0 = g.origin_index()
    lams = _circle_points(64)[:17]
    u_axis, _ = frames._loop_legs(march_field, i0, j0 + 20, lams, 2)
    assert np.array_equal(u_axis, np.broadcast_to(np.eye(2), u_axis.shape))
    u_axis, u = frames._loop_legs(march_field, i0 + 20, j0, lams, 2)
    assert np.array_equal(u, u_axis)
    u0 = rng.normal(size=(17, 3, 3)) + 1j * rng.normal(size=(17, 3, 3))
    coeff = frames._lax_on_line(march_field, lams, 1, i0, frames._SO3, 2)
    assert np.array_equal(frames._march_end(u0, g.ys, 7, 7, g.hy, 2, coeff),
                          u0)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["se3", "so3", "su2"]),
       tabled=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       substeps=st.integers(1, 3), stop=st.sampled_from([0, 40]))
def test_lambda_free_y_steps_match_recurrence(kind, tabled, seed, substeps,
                                              stop):
    # every y generator is z G(t), z = 1/lambda: the word sum over words
    # in G's basis X, Y (`frames._word_steps`), scaled by powers of z h, is
    # the RK4 recurrence's step matrix up to rounding
    rng = np.random.default_rng(seed)
    f = _Y_FIELD
    if tabled:
        f = AngleField(f.grid, f.phi, f.dphi_dx)
    line = rng.choice(f.grid.nx, size=3, replace=False)
    if kind == "se3":
        lam, gens, shape = rng.uniform(0.25, 4.0, 3), frames._SE3, (3, 4)
    elif kind == "so3":
        n = 2 ** int(rng.integers(2, 7))
        lam, gens, shape = _circle_points(n)[:n // 4 + 1], frames._SO3, (3, 3)
    else:
        lam, gens, shape = rng.uniform(0.25, 4.0), frames._SU2, (2, 2)
    coeff = frames._lax_on_line(f, lam, 1, line, gens, substeps)
    u = np.zeros(np.shape(lam) + line.shape + shape)
    args = (u, f.grid.ys, f.grid.origin_index()[1], stop, f.grid.hy, substeps)
    free = list(frames._step_blocks(*args, coeff))
    recurrence = list(frames._step_blocks(*args, lambda t: coeff(t)))
    for (nodes, p), (want_nodes, want) in zip(free, recurrence, strict=True):
        assert np.array_equal(nodes, want_nodes)
        assert np.abs(p - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("substeps", [0, -1, 1.5])
def test_march_rejects_bad_substeps(small_soliton, substeps):
    f = small_soliton
    calls = [lambda: integrate_frame(f, 1.0, substeps=substeps),
             lambda: su2_frame(f, 1.0, substeps=substeps),
             lambda: sample_frame_loop(f, 60, 40, 16, substeps)]
    for call in calls:
        with pytest.raises(ValueError, match="substeps must be an integer"):
            call()


def test_march_rejects_zero_complex_lambda(small_soliton):
    f = small_soliton
    calls = [lambda: integrate_frame(f, 0j),
             lambda: frames._loop_legs(f, 60, 40, np.array([1.0, 0j]), 2),
             lambda: integrate_minus(eta_y(f), 0j)]
    for call in calls:
        with pytest.raises(ZeroSpectralParameter, match="lambda = 0"):
            call()


@pytest.mark.parametrize("lam", [np.nan, np.inf, complex(np.nan, 1.0),
                                 np.array([0.5, np.nan])],
                         ids=["nan", "inf", "complex-nan", "batch-nan"])
def test_march_rejects_non_finite_lambda(small_soliton, lam):
    # rejected before any step: a nan lambda used to end in a StepFailure
    # that blamed the step, an inf one in a RuntimeWarning
    f = small_soliton
    calls = [lambda: integrate_frame(f, lam), lambda: su2_frame(f, lam),
             lambda: frames._loop_legs(f, 60, 40, np.atleast_1d(lam) + 0j, 2),
             lambda: integrate_plus(eta_x(f), lam),
             lambda: integrate_minus(eta_y(f), lam)]
    if not np.iscomplexobj(lam):
        calls.append(lambda: associated_family(f, np.atleast_1d(lam)))
    for call in calls:
        with pytest.raises(ValueError, match="lambda must be finite"):
            call()


def test_every_march_takes_lambda_by_one_rule(small_soliton):
    # the grid frames, the loop legs and the axis ODEs refuse a real
    # lambda <= 0 alike; the axis ODEs used to raise ZeroSpectralParameter
    # at 0, and the loop legs marched -1
    f = small_soliton
    marches = [lambda lam: integrate_frame(f, lam),
               lambda lam: su2_frame(f, lam),
               lambda lam: frames._loop_legs(f, 60, 40, lam, 2),
               lambda lam: integrate_plus(eta_x(f), lam),
               lambda lam: integrate_minus(eta_y(f), lam)]
    for lam in (0.0, -1.0):
        errors = set()
        for march in marches:
            with pytest.raises(ValueError) as err:
                march(lam)
            errors.add(str(err.value))
        (error,) = errors
        assert error.startswith("lambda must be positive")
    # the axis ODEs march one lambda; a batch used to end in numpy's
    # "truth value of an array" error (real) or a broadcast error (complex)
    for lam in (np.array([0.5, 1.0]), np.array([0.5j, 1j])):
        for march in marches[3:]:
            with pytest.raises(ValueError, match="lambda must be"):
                march(lam)
    # an empty batch used to pass the rule (np.all of nothing is True) and
    # end in numpy's "zero-size array to reduction operation maximum"
    empty = marches + [lambda lam: associated_family(f, lam)]
    for march in empty:
        with pytest.raises(ValueError, match="lambda must be"):
            march(np.array([]))


@pytest.fixture(scope="module")
def two_soliton_201():
    return two_soliton(GridSpec(-2.0, -2.0, 201, 201, 0.02, 0.02))


def test_frame_loop_legs_stay_on_group(two_soliton_201):
    # projected once per block of step matrices, a resolved march drifts
    # off the group (SL(2, C) for a 2x2 P: |det P - 1|) by about
    # n * eps * |P|^2; |U| = |Ad P| reaches 14 on these legs
    f = two_soliton_201
    for i, j in [(0, 0), (0, 200), (200, 0), (200, 200)]:
        for p in frames._loop_legs(f, i, j, _circle_points(64), 2):
            assert group_deviation(p) <= 1e-11, (i, j)


def test_batched_grid_frame_stays_on_group(two_soliton_201):
    fr = integrate_frame(two_soliton_201, np.array([0.5, 1.0, 2.0]),
                         substeps=2)
    assert group_deviation(fr.U) <= 1e-13
