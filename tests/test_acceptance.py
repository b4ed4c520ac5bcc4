"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import json
import time

import numpy as np

from psforge import cli
from psforge.algebra import spinor_adjoint
from psforge.errors import BigCellViolation
from psforge.frames import (check_conditions_K, compatibility_residual,
                            flatness_residual, gauge, integrate_frame,
                            su2_frame)
from psforge.loops import SampledLoop, birkhoff_split
from psforge.potentials import cross_check_split, eta_2x2, eta_x, eta_y
from psforge.sinegordon import (AngleField, GridSpec, goursat_solve,
                                save_angle_csv, soliton_angle)
from psforge.surfaces import (associated_family, fundamental_forms,
                              gauss_map, harmonicity_check)
from util import coeff_dev, constant_angle, multiply, random_twisted_factor

rng = np.random.default_rng(2024)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_01_sine_gordon_oracle():
    t0 = time.time()
    grid = GridSpec(0.0, 0.0, 101, 101, 0.02, 0.02)
    exact = soliton_angle(1.0, grid)
    x, y = grid.meshgrid()
    analytic_res = np.abs(exact.phixy_fn(x, y) - np.sin(exact.phi_fn(x, y))).max()

    solved = goursat_solve(exact.phi[:, 0], exact.phi[0, :], grid)
    err_h = np.abs(solved.phi - exact.phi).max()

    errs = [err_h]
    for h in (0.04, 0.01):
        n = round(2.0 / h) + 1
        g = GridSpec(0.0, 0.0, n, n, h, h)
        e = soliton_angle(1.0, g)
        s = goursat_solve(e.phi[:, 0], e.phi[0, :], g)
        errs.append(np.abs(s.phi - e.phi).max())
    order = min(np.log2(errs[1] / errs[0]), np.log2(errs[0] / errs[2]))
    elapsed = time.time() - t0
    ok = analytic_res < 1e-10 and err_h < 1e-4 and order >= 1.9 and elapsed < 5.0
    _report(1, ok, f"analytic residual {analytic_res:.2e}, goursat sup "
                   f"{err_h:.2e}, order {order:.2f}, {elapsed:.1f}s")


def test_criterion_02_frame_integrity(soliton):
    details = []
    ok = True
    for lam in (0.5, 1.0, 2.0):
        t0 = time.time()
        a = integrate_frame(soliton, lam, order="xy")
        b = integrate_frame(soliton, lam, order="yx")
        elapsed = time.time() - t0
        orth = np.abs(np.swapaxes(a.U, -1, -2) @ a.U - np.eye(3)).max()
        path = np.abs(a.U - b.U).max()
        compat = compatibility_residual(soliton).max()
        ok &= orth < 1e-8 and path < 1e-6 and compat < 1e-8 and elapsed < 10.0
        details.append(f"lam={lam:g}: orth {orth:.1e} path {path:.1e} "
                       f"compat {compat:.1e} {elapsed:.1f}s")
    _report(2, ok, "; ".join(details))


def test_criterion_03_flatness_and_conditions(soliton):
    flat = max(np.nanmax(flatness_residual(soliton, lam))
               for lam in (0.5, 1.0, 2.0))
    cond = 0.0
    for lam in (0.5, 1.0, 2.0):
        res = check_conditions_K(soliton, lam)
        cond = max(cond, max(np.nanmax(np.abs(r)) for r in res.values()))
    # f and g are construction identities, solution or not
    rough = AngleField(GridSpec(0.0, 0.0, 16, 16, 0.1, 0.1),
                       rng.uniform(0.2, 2.9, (16, 16)))
    ident = 0.0
    for field in (rough, constant_angle(np.pi / 2, rough.grid)):
        for lam in (0.5, 1.0, 2.0):
            res = check_conditions_K(field, lam)
            ident = max(ident, np.abs(res["f"]).max(), np.abs(res["g"]).max())
    ok = flat < 1e-3 and cond < 1e-3 and ident < 1e-10
    _report(3, ok, f"flatness {flat:.2e}, conditions {cond:.2e}, "
                   f"f/g identities {ident:.2e}")


def test_criterion_04_pseudosphere(soliton, sin_mask):
    t0 = time.time()
    frame = integrate_frame(soliton, 1.0, substeps=2)
    geom = fundamental_forms(frame)
    elapsed = time.time() - t0
    i0, j0 = soliton.grid.origin_index()
    origin_exact = np.array_equal(frame.psi[i0, j0], np.zeros(3))
    mask = geom.mask & sin_mask
    dev = np.abs(geom.K[mask] + 1.0)
    ok = (dev.mean() < 1e-3 and dev.max() < 1e-2 and origin_exact
          and elapsed < 15.0)
    _report(4, ok, f"|K+1| mean {dev.mean():.2e} sup {dev.max():.2e}, "
                   f"origin exact {origin_exact}, {elapsed:.1f}s")


def test_criterion_05_associated_family(soliton, sin_mask):
    members, report = associated_family(soliton, [0.5, 2.0])
    metric_ok = True
    details = []
    for (_, geom), lam in zip(members, [0.5, 2.0]):
        mask = geom.mask & sin_mask
        da = np.abs(geom.metricA[mask] - lam).mean()
        db = np.abs(geom.metricB[mask] - 1.0 / lam).mean()
        metric_ok &= da < 1e-3 and db < 1e-3
        details.append(f"lam={lam:g}: dA {da:.1e} dB {db:.1e}")
    m_dev = report["M_deviation_sup"]
    ang = report["angle_deviation_sup"]
    ok = metric_ok and m_dev < 1e-3 and ang < 1e-3
    _report(5, ok, "; ".join(details) + f"; M dev {m_dev:.1e}, angle {ang:.1e}")


def test_criterion_06_harmonicity(soliton, soliton_frame, pseudosphere,
                                  sin_mask):
    _, geom = pseudosphere
    n = gauss_map(soliton_frame)
    rep = harmonicity_check(n, geom.grid)
    mask = geom.mask & sin_mask
    tang = rep.tangential_residual.max()
    metric = np.abs(rep.nx_norm - geom.metricA)[mask].max()
    theta = rng.uniform(-np.pi, np.pi, n.shape[:2])
    gdev = np.abs(gauss_map(gauge(soliton_frame, theta)) - n).max()
    ok = tang < 1e-3 and metric < 1e-3 and gdev < 1e-12
    _report(6, ok, f"tangential {tang:.2e}, |N_x|-|psi_x| {metric:.2e}, "
                   f"gauge dev {gdev:.1e}")


def test_criterion_07_birkhoff_oracle():
    good = 0
    flagged = 0
    worst_rec, worst_res = 0.0, 0.0
    for _ in range(100):
        gm = random_twisted_factor(-4, -1, rng)
        gp = random_twisted_factor(0, 4, rng)
        g = multiply(gm, gp)
        f1, f2 = birkhoff_split(g, "minus-first")
        rec = max(coeff_dev(f1, gm), coeff_dev(f2, gp))
        prod = multiply(f1, f2)
        res = sum(np.abs(prod.coeffs.get(k, 0.0)
                         - g.coeffs.get(k, 0.0)).sum(axis=1).max()
                  for k in set(prod.coeffs) | set(g.coeffs))
        worst_rec, worst_res = max(worst_rec, rec), max(worst_res, res)
        good += rec < 1e-8 and res < 1e-10
        flagged += f1.twisted and f1.real and f2.twisted and f2.real
    lams = np.exp(2j * np.pi * np.arange(64) / 64)
    c = (lams + 1.0 / lams) / 2.0
    s = (lams - 1.0 / lams) / 2.0j
    winding = np.zeros((64, 3, 3), complex)
    winding[:, 0, 0] = c
    winding[:, 0, 2] = s
    winding[:, 1, 1] = 1.0
    winding[:, 2, 0] = -s
    winding[:, 2, 2] = c
    try:
        birkhoff_split(SampledLoop(winding), "minus-first")
        detected = False
    except BigCellViolation:
        detected = True
    ok = good == 100 and flagged == 100 and detected
    _report(7, ok, f"{good}/100 recovered (worst rec {worst_rec:.1e}, res "
                   f"{worst_res:.1e}), flags {flagged}/100, winding "
                   f"detected {detected}")


def test_criterion_08_potential_consistency(soliton):
    from scipy.interpolate import CubicSpline
    from util import _rk4_pair
    from psforge.frames import maurer_cartan
    from psforge.potentials import rotation_V0

    # (a) closed forms against the conjugation/ODE definitions, from the
    # Maurer-Cartan coefficients on the axes
    mc = maurer_cartan(soliton)
    g = soliton.grid
    i0, j0 = g.origin_index()
    beta0, beta1 = mc.alpha0_prime[:, j0], mc.alpha1[:, j0]
    spline = CubicSpline(g.xs, beta0, axis=0)
    v_num = np.zeros_like(beta0)
    v_num[i0] = np.eye(3)
    for direction in (1, -1):
        u, k = np.eye(3), i0
        while 0 <= k + direction < g.nx:
            h = direction * g.hx / 8
            for m in range(8):
                t0 = g.xs[k] + direction * g.hx * m / 8
                u, _ = _rk4_pair(u, None, lambda t: -spline(t0 + t), None, h)
            k += direction
            v_num[k] = u
    eta_ode = v_num @ beta1 @ np.linalg.inv(v_num)
    dev_x = np.abs(eta_x(soliton).samples - eta_ode).max()
    dev_v0 = np.abs(v_num - rotation_V0(soliton)).max()
    dev_y = np.abs(eta_y(soliton).samples - mc.alpha_m1[i0]).max()

    # (b) against factors split off the integrated frame loop
    rep_axis = cross_check_split(soliton, 150, j0)
    rep_off = cross_check_split(soliton, 150, 125)
    split_dev = max(rep_axis["plus_factor_dev"], rep_axis["minus_factor_dev"],
                    rep_off["plus_factor_dev"], rep_off["minus_factor_dev"])
    indep = rep_off["uplus_y_independence"]
    ok = (max(dev_x, dev_v0, dev_y) < 1e-8 and split_dev < 1e-4
          and indep < 1e-4)
    _report(8, ok, f"closed-vs-ODE {max(dev_x, dev_v0, dev_y):.1e}, "
                   f"split factors {split_dev:.1e}, y-independence {indep:.1e}")


def test_criterion_09_spinor_passage(soliton):
    p = su2_frame(soliton, 1.0, substeps=4)
    fr = integrate_frame(soliton, 1.0, substeps=4)
    # P in SU(2) to 1e-9: unitary, with determinant 1
    unit_dev = np.abs(np.conj(np.swapaxes(p, -1, -2)) @ p - np.eye(2)).max()
    det_dev = np.abs(np.linalg.det(p) - 1.0).max()
    dev = np.abs(spinor_adjoint(p).real - fr.U).max()
    ex2, _ = eta_2x2(soliton)
    prod_dev = np.abs(ex2.samples[:, 0, 1] * ex2.samples[:, 1, 0] + 0.25).max()
    ok = (unit_dev <= 1e-9 and det_dev <= 1e-9 and dev < 1e-8
          and prod_dev < 1e-12)
    _report(9, ok, f"P in SU(2) to {max(unit_dev, det_dev):.1e}, adjoint(P) "
                   f"vs U {dev:.2e}, off-diagonal product dev {prod_dev:.1e}")


def test_criterion_10_end_to_end(tmp_path):
    t0 = time.time()
    out = tmp_path / "run"
    code = cli.main(["solve", "--soliton", "1.0",
                     "--domain", "-2", "2", "-2", "2", "--h", "0.02",
                     "--out", str(out)])
    assert code == 0
    code = cli.main(["verify", "--phi", str(out / "phi.csv"),
                     "--phi-x", str(out / "phi_x.csv"),
                     "--lambdas", "0.5,1,2", "--out", str(out)])
    elapsed = time.time() - t0
    soliton_ok = code == 0 and elapsed < 60.0

    bad = tmp_path / "bad"
    bad.mkdir()
    g = GridSpec(-2.0, -2.0, 201, 201, 0.02, 0.02)
    save_angle_csv(constant_angle(np.pi / 2, g), bad / "phi.csv")
    code_bad = cli.main(["verify", "--phi", str(bad / "phi.csv"),
                         "--out", str(bad)])
    report = json.loads((bad / "report.json").read_text())
    bad_ok = (code_bad == 1 and "flatness" in report["failures"]
              and "conditions_K" in report["failures"])
    ok = soliton_ok and bad_ok
    _report(10, ok, f"soliton verify exit 0 in {elapsed:.1f}s: {soliton_ok}; "
                    f"pi/2 verify exit 1 with flatness+conditions_K: {bad_ok}")
