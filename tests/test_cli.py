import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from psforge import frames
from psforge.algebra import E13
from psforge.cli import (_CONFIG_TYPES, _probe_indices, _stats, build_parser,
                         main, run_verification)
from psforge.loops import LaurentLoop, load_loop_json, save_loop_json
from psforge.potentials import (PotentialForm, cross_check_split, eta_2x2,
                                load_potential_csv, save_potential2_csv)
from psforge.sinegordon import (GridSpec, load_angle_csv, save_angle_csv,
                                soliton_angle)
from psforge.surfaces import associated_family, read_obj
from util import (constant_angle, identity_loop, multiply,
                  random_twisted_factor)

BETA1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    code = main(["solve", "--soliton", "1.0", "--domain", "-2", "2", "-2", "2",
                 "--h", "0.02", "--out", str(out)])
    assert code == 0
    return out


def test_solve_header_and_summary(solved):
    header = (solved / "phi.csv").read_text().splitlines()[0]
    assert header == "# 201 201 -2 -2 0.02 0.02"
    summary = json.loads((solved / "solve_summary.json").read_text())
    assert "sg_residual_sup" in summary
    assert summary["sg_residual_sup"] < 1e-4


def test_solve_boundary_mode(tmp_path):
    n = 41
    xs = 0.05 * np.arange(n)
    phi_axis = 4.0 * np.arctan(np.exp(xs))
    np.savetxt(tmp_path / "xd.txt", phi_axis)
    np.savetxt(tmp_path / "yd.txt", phi_axis)
    code = main(["solve", "--x-data", str(tmp_path / "xd.txt"),
                 "--y-data", str(tmp_path / "yd.txt"),
                 "--domain", "0", "2", "0", "2", "--h", "0.05",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "phi.csv").exists()


def test_solve_corner_mismatch_exit_2(tmp_path, capsys):
    np.savetxt(tmp_path / "xd.txt", np.full(41, 1.0))
    np.savetxt(tmp_path / "yd.txt", np.full(41, 2.0))
    code = main(["solve", "--x-data", str(tmp_path / "xd.txt"),
                 "--y-data", str(tmp_path / "yd.txt"),
                 "--domain", "0", "2", "0", "2", "--h", "0.05",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "IncompatibleCorner" in capsys.readouterr().err


def test_solve_nonconvergent_cell_exit_3(tmp_path, capsys):
    np.savetxt(tmp_path / "xd.txt", np.full(5, 1.0))
    np.savetxt(tmp_path / "yd.txt", np.full(5, 1.0))
    code = main(["solve", "--x-data", str(tmp_path / "xd.txt"),
                 "--y-data", str(tmp_path / "yd.txt"),
                 "--domain", "-2", "2", "-2", "2", "--h", "1",
                 "--out", str(tmp_path)])
    assert code == 3  # EXIT_NUMERIC
    assert "NonconvergentCell" in capsys.readouterr().err
    assert not (tmp_path / "phi.csv").exists()


def test_solve_without_source_exit_2(tmp_path):
    code = main(["solve", "--domain", "0", "1", "0", "1", "--h", "0.1",
                 "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("source", ["soliton", "data"])
def test_solve_rejects_small_grid_exit_2(tmp_path, capsys, source):
    # 3x3 nodes: too few for the 4th-order differences of an angle field
    if source == "soliton":
        args = ["--soliton", "1"]
    else:
        for name in ("xd.txt", "yd.txt"):
            np.savetxt(tmp_path / name, np.full(3, 1.0))
        args = ["--x-data", str(tmp_path / "xd.txt"),
                "--y-data", str(tmp_path / "yd.txt")]
    code = main(["solve", *args, "--domain", "-0.1", "0.1", "-0.1", "0.1",
                 "--h", "0.1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "3x3" in err and "deriv4" not in err
    assert not (tmp_path / "phi.csv").exists()


@pytest.mark.parametrize("domain, err", [
    (["-1", "1", "-1", "1", "--h", "0.3"],
     "the step 0.3 does not tile the x domain [-1.0, 1.0]"),
    (["-1", "1", "-1", "1", "--h", "0.1", "--hy", "0.3"],
     "the step 0.3 does not tile the y domain"),
    (["0.1", "1.1", "-1", "1", "--h", "0.1"],
     "the grid's x axis does not contain the origin"),
    (["-0.45", "1.55", "-1", "1", "--h", "0.1"],
     "the origin does not fall on a node of the grid's x axis"),
], ids=["untiled-x", "untiled-y", "no-origin", "origin-off-node"])
def test_solve_rejects_grid_exit_2(tmp_path, capsys, domain, err):
    # these grids used to be written, the untiled one on [-1, 1.1]^2, and
    # only `surface` found that the origin is not a node
    out = tmp_path / "out"
    code = main(["solve", "--soliton", "1", "--domain", *domain,
                 "--out", str(out)])
    assert code == 2
    assert err in capsys.readouterr().err
    assert not out.exists()


_DOMAIN = ["--domain", "-1", "1", "-1", "1"]


@pytest.mark.parametrize("args, flag", [
    (["solve", "--soliton", "nan", *_DOMAIN, "--h", "0.1"], "--soliton"),
    (["solve", "--soliton", "inf", *_DOMAIN, "--h", "0.1"], "--soliton"),
    (["solve", "--soliton", "1", *_DOMAIN, "--h", "nan"], "--h"),
    (["solve", "--soliton", "1", *_DOMAIN, "--h", "0.1", "--hy", "inf"],
     "--hy"),
    (["solve", "--soliton", "1", "--domain", "-1", "inf", "-1", "1",
      "--h", "0.1"], "--domain"),
    (["surface", "PHI", "--lambdas", "nan"], "--lambdas"),
    (["verify", "PHI", "--lambdas", "1,inf"], "--lambdas"),
    (["verify", "PHI", "--tolerance", "curvature=nan"],
     "--tolerance curvature"),
    (["verify", "PHI", "--config", "CFG"], "tol_curvature"),
], ids=["soliton-nan", "soliton-inf", "h-nan", "hy-inf", "domain-inf",
        "surface-lambdas-nan", "verify-lambdas-inf", "tolerance-nan",
        "config-tol-nan"])
def test_non_finite_flag_exit_2(solved, tmp_path, capsys, args, flag):
    cfg = tmp_path / "cfg"
    cfg.write_text("tol_curvature = nan\n")
    subs = {"PHI": ["--phi", str(solved / "phi.csv")], "CFG": [str(cfg)]}
    argv = [a for arg in args for a in subs.get(arg, [arg])]
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_surface_lambda_1(solved, tmp_path):
    code = main(["surface", "--phi", str(solved / "phi.csv"),
                 "--phi-x", str(solved / "phi_x.csv"),
                 "--lambdas", "1", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "surface_summary.json").read_text())
    assert abs(summary["K_mean"] + 1.0) < 1e-3
    verts, faces = read_obj(tmp_path / "mesh_lam1.obj")
    assert verts.shape == (201 * 201, 3)
    assert len(faces) > 0
    assert (tmp_path / "geometry_lam1.csv").exists()


def test_surface_lambda_2(solved, tmp_path):
    code = main(["surface", "--phi", str(solved / "phi.csv"),
                 "--phi-x", str(solved / "phi_x.csv"),
                 "--lambdas", "2", "--no-mesh", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "surface_summary.json").read_text())
    assert abs(summary["metricA_mean"] - 2.0) < 1e-3


def test_surface_mesh_write_error_exit_2(solved, tmp_path, capsys):
    # a file error, like every other one: exit 2 naming the path
    (tmp_path / "mesh_lam1.obj").mkdir()
    code = main(["surface", "--phi", str(solved / "phi.csv"),
                 "--phi-x", str(solved / "phi_x.csv"),
                 "--lambdas", "1", "--out", str(tmp_path)])
    assert code == 2
    assert str(tmp_path / "mesh_lam1.obj") in capsys.readouterr().err


@pytest.mark.parametrize("lambdas, tags", [
    ("0.5,1,2", ["0.5", "1", "2"]), ("1,1.0000001", None), ("2,2", None)])
def test_surface_files_named_by_lambda(tmp_path, capsys, lambdas, tags):
    # a member's files are named f"{lam:g}"; two lambdas with one name
    # would write one mesh and one geometry file, so both are refused
    assert main(["solve", "--soliton", "1", *_DOMAIN, "--h", "0.1",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    code = main(["surface", "--phi", str(tmp_path / "phi.csv"),
                 "--lambdas", lambdas, "--out", str(out)])
    if tags is None:
        first, second = map(float, lambdas.split(","))
        assert code == 2
        assert (f"lambdas {first!r} and {second!r} share the file tag "
                f"{second:g}") in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert sorted(p.name for p in out.glob("*_lam*")) == sorted(
            f"{kind}_lam{t}.{ext}" for t in tags
            for kind, ext in (("mesh", "obj"), ("geometry", "csv")))


def test_surface_missing_input_exit_2(tmp_path):
    code = main(["surface", "--phi", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_potentials_outputs(solved, tmp_path):
    code = main(["potentials", "--phi", str(solved / "phi.csv"),
                 "--su2", "--out", str(tmp_path)])
    assert code == 0
    ex = load_potential_csv(tmp_path / "eta_x.csv")
    i0 = int(np.argmin(np.abs(ex.coords)))
    assert np.allclose(ex.samples[i0], BETA1)
    ey_lines = (tmp_path / "eta_y.csv").read_text().splitlines()
    assert len(ey_lines) == 1 + 201
    # psforge writes the 2x2 potentials only; read back here, they give
    # eta_2x2 bit for bit, and written again the same bytes
    for axis, want in zip("xy", eta_2x2(load_angle_csv(solved / "phi.csv"))):
        path = tmp_path / f"eta_{axis}_su2.csv"
        coords, re01, im01, re10, im10 = np.loadtxt(
            path, delimiter=",", usecols=range(1, 6), unpack=True)
        samples = np.zeros((len(coords), 2, 2), dtype=complex)
        samples[:, 0, 1] = re01 + 1j * im01
        samples[:, 1, 0] = re10 + 1j * im10
        assert np.array_equal(coords, want.coords)
        assert np.array_equal(samples, want.samples)
        again = tmp_path / f"again_{axis}.csv"
        save_potential2_csv(PotentialForm(axis, coords, samples), again)
        assert again.read_bytes() == path.read_bytes()


def test_split_identity(tmp_path):
    save_loop_json(identity_loop(), tmp_path / "id.json")
    code = main(["split", "--loop", str(tmp_path / "id.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    f1 = load_loop_json(tmp_path / "factor1.json")
    f2 = load_loop_json(tmp_path / "factor2.json")
    assert np.allclose(f1.coeffs.get(0, 0.0), np.eye(3))
    assert np.allclose(f2.coeffs.get(0, 0.0), np.eye(3))


def test_split_product_residual(tmp_path):
    rng = np.random.default_rng(17)
    g = multiply(random_twisted_factor(-4, -1, rng),
                 random_twisted_factor(0, 4, rng))
    save_loop_json(g, tmp_path / "g.json")
    code = main(["split", "--loop", str(tmp_path / "g.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "split_summary.json").read_text())
    assert summary["residual"] < 1e-8
    assert summary["factor1_kmax"] == 0 and summary["factor2_kmin"] == 0


def test_split_plus_first_swaps_shapes(tmp_path):
    rng = np.random.default_rng(18)
    g = multiply(random_twisted_factor(-4, -1, rng),
                 random_twisted_factor(0, 4, rng))
    save_loop_json(g, tmp_path / "g.json")
    code = main(["split", "--loop", str(tmp_path / "g.json"),
                 "--direction", "plus-first", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "split_summary.json").read_text())
    assert summary["factor1_kmin"] == 0 and summary["factor2_kmax"] == 0
    assert summary["factor1_kmax"] > 0 and summary["factor2_kmin"] < 0


def test_split_non_finite_loop_exit_2(tmp_path, capfd):
    stack = np.eye(3)[None].copy()
    stack[0, 1, 2] = np.nan
    save_loop_json(LaurentLoop(stack, 0), tmp_path / "nan.json")
    assert "NaN" in (tmp_path / "nan.json").read_text()
    code = main(["split", "--loop", str(tmp_path / "nan.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    captured = capfd.readouterr()
    assert "loop is not finite" in captured.err
    assert "illegal value" not in captured.out + captured.err


@pytest.mark.parametrize("payload", [
    '{"kmin": 0, "kmax": 0, "real": true}', '[[1, 0, 0], [0, 1, 0], [0, 0, 1]]',
    '{"coeffs": {"0": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "twisted": "false"}',
    '{"coeffs": {"0": [1, 0, 0, 0, 1, 0, 0, 0, 1]}, "real": "no"}'])
def test_split_malformed_loop_json_exit_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code = main(["split", "--loop", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert f"{path}: not a loop JSON file" in capsys.readouterr().err


@pytest.mark.parametrize("power, code", [(2000, 2), (-257, 2), (256, 0),
                                         (-256, 0)])
def test_split_loop_json_powers_bounded(tmp_path, capsys, power, code):
    # a power beyond the truncation cap 256 is refused before the loop is
    # sampled: the samples grow with the power and their Vandermonde matrix
    # with its square, seconds and 300 MB at power 2000
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"coeffs": {"0": np.eye(3).ravel().tolist(),
                                           str(power): [0.0] * 9}}))
    start = time.perf_counter()
    got = main(["split", "--loop", str(path), "--out", str(tmp_path / "out")])
    assert got == code
    if code == 2:
        assert time.perf_counter() - start < 1.0
        assert (f"{path}: not a loop JSON file: ValueError('a power beyond "
                "+-256')") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--tol", "nan"], "ValueError: tol must be positive and finite, not nan"),
    (["--tol", "-1"], "ValueError: tol must be positive and finite, not -1.0"),
    (["--tol", "inf"], "ValueError: tol must be positive and finite, not inf"),
    (["--truncation", "0"], "ValueError: truncation must be an integer >= 1, "
                            "not 0"),
    (["--truncation", "-3"], "ValueError: truncation must be an integer >= 1, "
                             "not -3"),
    (["CFG:tol = nan"], "ValueError: tol must be positive and finite, not nan"),
    (["CFG:truncation = 0"], "ValueError: truncation must be an integer >= 1, "
                             "not 0"),
    (["--truncation", "700"], "ValueError: truncation must be at most 256, "
                              "not 700"),
], ids=["tol-nan", "tol-negative", "tol-inf", "truncation-0",
        "truncation-negative", "config-tol-nan", "config-truncation-0",
        "truncation-700"])
def test_split_option_out_of_range_exit_2(tmp_path, capsys, args, message):
    save_loop_json(identity_loop(), tmp_path / "id.json")
    if args[0].startswith("CFG:"):
        (tmp_path / "run.cfg").write_text(args[0][4:] + "\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    code = main(["split", "--loop", str(tmp_path / "id.json"), *args,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_split_big_cell_exit_4(tmp_path):
    # a real twisted rotation loop of large amplitude drives the truncated
    # splitting system past the conditioning threshold
    from scipy.linalg import expm
    from psforge.algebra import E13
    n = 512
    lams = np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.array([expm(16.0 * (lam + 1.0 / lam) * E13) for lam in lams])
    c = np.fft.fft(vals, axis=0) / n
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    coeffs = {int(k): c[i].real for i, k in enumerate(ks)
              if np.abs(c[i]).max() > 1e-13}
    save_loop_json(LaurentLoop.from_dict(coeffs, twisted=True, real=True),
                   tmp_path / "w.json")
    code = main(["split", "--loop", str(tmp_path / "w.json"),
                 "--out", str(tmp_path)])
    assert code == 4


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("soliton = 1.0\nh = 0.25\nout = {}\n".format(tmp_path))
    code = main(["solve", "--config", str(cfg),
                 "--domain", "0", "1", "0", "1"])
    assert code == 0
    header = (tmp_path / "phi.csv").read_text().splitlines()[0]
    assert header == "# 5 5 0 0 0.25 0.25"


@pytest.mark.parametrize("domain, code", [("0 1 0 1", 0), ("0 1 0", 2)])
def test_config_domain(tmp_path, capsys, domain, code):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"soliton = 1.0\nh = 0.25\ndomain = {domain}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert "domain needs four numbers" in capsys.readouterr().err
        assert not out.exists()
    else:
        header = (out / "phi.csv").read_text().splitlines()[0]
        assert header == "# 5 5 0 0 0.25 0.25"


@pytest.mark.parametrize("value, su2", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False),
    ("NO", False), ("ture", None), ("", None)])
def test_config_boolean(solved, tmp_path, capsys, value, su2):
    # a typo must not read as False
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"su2 = {value}\n")
    code = main(["potentials", "--phi", str(solved / "phi.csv"),
                 "--config", str(cfg), "--out", str(out)])
    if su2 is None:
        assert code == 2
        assert (f"config key 'su2' is a boolean (1/true/yes or 0/false/no), "
                f"not {value!r}") in capsys.readouterr().err
        assert not out.exists()
    else:
        assert code == 0
        assert (out / "eta_x_su2.csv").exists() == su2


def test_config_types_match_the_flags():
    # every flag of every subcommand can be set from a config file, and
    # only those; --config and --tolerance have their own syntax
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in sub.choices.values() for a in p._actions
             if a.dest != "help"}
    assert set(_CONFIG_TYPES) == dests - {"config", "tolerance"}


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize("command, line, flag, message", [
    ("solve", "h = abc", None, "h must be a number, not 'abc'"),
    ("solve", "domain = 0 1 zero 1", None,
     "--domain must be a number, not 'zero'"),
    ("split", "truncation = 2.5", None,
     "truncation must be an integer, not '2.5'"),
    ("verify", "tol_curvature = abc", None,
     "tol_curvature must be a number, not 'abc'"),
    ("verify", "", "curvature=abc",
     "--tolerance curvature must be a number, not 'abc'"),
], ids=["h", "domain", "truncation", "tol_curvature", "tolerance-flag"])
def test_value_that_does_not_convert_exit_2(tmp_path, capsys, command, line,
                                            flag, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    code = main(argv + (["--tolerance", flag] if flag else []))
    assert code == 2
    assert f"psforge: {message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_verify_soliton_passes(solved, tmp_path):
    code = main(["verify", "--phi", str(solved / "phi.csv"),
                 "--phi-x", str(solved / "phi_x.csv"),
                 "--lambdas", "0.5,1,2", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    for entry in report["checks"].values():
        assert {"sup", "mean", "tolerance", "pass"} <= set(entry)


def test_verify_non_solution_fails(tmp_path):
    g = GridSpec(-2.0, -2.0, 101, 101, 0.04, 0.04)
    save_angle_csv(constant_angle(np.pi / 2, g), tmp_path / "phi.csv")
    code = main(["verify", "--phi", str(tmp_path / "phi.csv"),
                 "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert "flatness" in report["failures"]
    assert "conditions_K" in report["failures"]


@pytest.fixture(scope="module")
def soliton_101(tmp_path_factory):
    """phi.csv of a 101^2, h = 0.02 one-soliton: too coarse a grid for the
    frame march at lambda = 0.01, which raises StepFailure."""
    phi = tmp_path_factory.mktemp("soliton_101") / "phi.csv"
    save_angle_csv(soliton_angle(1.0, GridSpec(-1.0, -1.0, 101, 101, 0.02,
                                               0.02)), phi)
    return phi


def test_surface_step_failure_exit_3(soliton_101, tmp_path, capsys):
    code = main(["surface", "--phi", str(soliton_101), "--lambdas", "0.01",
                 "--no-mesh", "--out", str(tmp_path)])
    assert code == 3
    assert "StepFailure" in capsys.readouterr().err


def test_surface_overflowing_march_reports_step_failure_alone(tmp_path):
    # h / lambda = 100: the march overflows, and stderr holds the
    # StepFailure line alone, without numpy's overflow warning before it
    phi = tmp_path / "phi.csv"
    save_angle_csv(soliton_angle(0.8, GridSpec(-1.0, -1.0, 21, 21, 0.1,
                                               0.1)), phi)
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-m", "psforge", "surface",
                          "--phi", str(phi), "--lambdas", "0.001",
                          "--out", str(tmp_path)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 3
    (line,) = run.stderr.splitlines()
    assert line.startswith("psforge: StepFailure: RK4 transport")


def test_verify_family_failure(soliton_101, tmp_path):
    # the associated family cannot be built at lambda = 0.01: every check
    # that reads it fails with the family's error, the others still run
    code = main(["verify", "--phi", str(soliton_101), "--lambdas", "0.01,1",
                 "--out", str(tmp_path)])
    assert code == 1
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    for name in ("curvature", "chebyshev", "II_invariance", "harmonicity",
                 "gauge_invariance"):
        assert checks[name]["sup"] == float("inf")
        assert checks[name]["reason"].startswith("StepFailure:")
    for name in ("compatibility", "flatness", "conditions_K", "twist",
                 "split_cross_check"):
        assert "reason" not in checks[name]
        assert checks[name]["pass"] is True


def test_family_without_shared_regular_node(tmp_path):
    # phi = 0 is degenerate at every node: the family still returns, with
    # NaN sups, surface writes them, and verify fails II_invariance on them
    f = constant_angle(0.0, GridSpec(-0.2, -0.2, 21, 21, 0.02, 0.02))
    _, report = associated_family(f, [0.5, 1.0])
    assert np.isnan(report["M_deviation_sup"])
    assert np.isnan(report["angle_deviation_sup"])
    save_angle_csv(f, tmp_path / "phi.csv")
    args = ["--phi", str(tmp_path / "phi.csv"), "--lambdas", "0.5,1"]
    assert main(["surface", *args, "--no-mesh",
                 "--out", str(tmp_path / "s")]) == 0
    assert main(["verify", *args, "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert "II_invariance" in report["failures"]
    assert not np.isfinite(report["checks"]["II_invariance"]["sup"])


def test_verify_determinism(solved, tmp_path):
    lams = "1"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["verify", "--phi", str(solved / "phi.csv"),
                     "--phi-x", str(solved / "phi_x.csv"),
                     "--lambdas", lams, "--out", str(out)])
        assert code == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_stats_count_non_finite_values_in_the_mask():
    a = np.array([1.0, np.nan, -3.0])
    assert _stats(a, np.array([True, False, True])) == (3.0, 2.0)
    assert _stats(a) == (float("inf"), float("inf"))
    assert _stats(a, np.array([True, True, False]))[0] == float("inf")
    assert all(np.isnan(_stats(a, np.zeros(3, bool))))


def test_verify_nan_residual_fails(monkeypatch):
    # a NaN in an unmasked residual is a failure, not a dropped node
    residual = frames.compatibility_residual

    def with_nan(f):
        r = residual(f)
        r[7, 9] = np.nan
        return r

    monkeypatch.setattr(frames, "compatibility_residual", with_nan)
    f = soliton_angle(1.0, GridSpec(-1.0, -1.0, 51, 51, 0.04, 0.04))
    report, ok = run_verification(f, [1.0])
    assert not ok and report["failures"] == ["compatibility"]
    assert report["checks"]["compatibility"]["sup"] == float("inf")


def test_verify_split_check_equals_cross_check_split():
    # verify and the library march the split check at one resolution
    f = soliton_angle(1.0, GridSpec(-1.0, -0.6, 51, 41, 0.04, 0.04))
    report, _ = run_verification(f, [1.0])
    check = report["checks"]["split_cross_check"]
    (pi, pj), (_, j0) = _probe_indices(f.grid), f.grid.origin_index()
    assert check["axis"] == cross_check_split(f, pi, j0)
    assert check["off_axis"] == cross_check_split(f, pi, pj)


@pytest.mark.filterwarnings("ignore:twist violation")
def test_twist_check_detects_broken_symmetry(monkeypatch):
    # a constant E13 term in the x-generator breaks U(-lambda) = P U(lambda) P.
    # The check marches every root and sees all of it (4.3e-4 here); a loop
    # unfolded from the quarter circle would keep only the part carried by
    # the roots 1 and i (3.1e-5)
    lax_A, lax_B = frames._SO3
    monkeypatch.setattr(frames, "_SO3", (
        lambda phi_x, lam: lax_A(phi_x, lam) + 1e-3 * E13, lax_B))
    f = soliton_angle(1.0, GridSpec(-1.0, -1.0, 101, 101, 0.02, 0.02))
    report, _ = run_verification(f, [1.0])
    twist = report["checks"]["twist"]
    assert not twist["pass"]
    assert twist["sup"] > 1e-4


def _phi_with_token(tmp_path, token):
    """phi.csv of a 51^2 one-soliton with node (i=20, j=30), on line 32 of
    the file, replaced by `token`."""
    g = GridSpec(-0.5, -0.5, 51, 51, 0.02, 0.02)
    phi = tmp_path / "phi.csv"
    save_angle_csv(soliton_angle(1.0, g), phi)
    lines = phi.read_text().splitlines()
    row = lines[1 + 30].split(",")
    row[20] = token
    lines[1 + 30] = ",".join(row)
    phi.write_text("\n".join(lines) + "\n")
    return phi


def test_verify_rejects_non_finite_angle_exit_2(tmp_path, capsys):
    # the residual sups skip non-finite values, so a NaN must stop at load
    phi = _phi_with_token(tmp_path, "nan")
    code = main(["verify", "--phi", str(phi), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "phi.csv" in err and "(i=20, j=30)" in err
    assert not (tmp_path / "report.json").exists()


def test_solve_rejects_non_finite_data_exit_2(tmp_path, capsys):
    data = np.zeros(41)
    data[7] = np.inf
    np.savetxt(tmp_path / "xd.txt", data)
    np.savetxt(tmp_path / "yd.txt", np.zeros(41))
    code = main(["solve", "--x-data", str(tmp_path / "xd.txt"),
                 "--y-data", str(tmp_path / "yd.txt"),
                 "--domain", "0", "2", "0", "2", "--h", "0.05",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "non-finite x characteristic data at node 7" in capsys.readouterr().err


def test_verify_rejects_malformed_csv_line_exit_2(tmp_path, capsys):
    phi = _phi_with_token(tmp_path, "abc")
    code = main(["verify", "--phi", str(phi), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "phi.csv:32" in err and "'abc'" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["surface", "verify"])
@pytest.mark.parametrize("field, token", [
    ("hx", "inf"), ("hx", "nan"), ("x0", "nan"), ("hy", "-inf"),
    ("ny", "11.5")])
def test_malformed_grid_header_exit_2(tmp_path, capsys, command, field,
                                      token):
    phi = tmp_path / "phi.csv"
    save_angle_csv(soliton_angle(1.0, GridSpec(-0.1, -0.1, 11, 11, 0.02,
                                               0.02)), phi)
    head, rest = phi.read_text().split("\n", 1)
    head = head.split()
    head[["#", "nx", "ny", "x0", "y0", "hx", "hy"].index(field)] = token
    phi.write_text(" ".join(head) + "\n" + rest)
    code = main([command, "--phi", str(phi), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(phi) in err and "Traceback" not in err


def test_python_dash_m_psforge():
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-m", "psforge", "--help"],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0
    assert run.stderr == ""
    assert "usage: psforge" in run.stdout


@pytest.mark.parametrize("args", [["-c", "import psforge"],
                                  ["-m", "psforge", "--help"]])
def test_runtime_imports_no_scipy(args):
    # numpy is the only runtime dependency; -X importtime lists every
    # module the interpreter imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0
    modules = [line.rsplit("|", 1)[-1].strip()
               for line in run.stderr.splitlines()
               if line.startswith("import time:")]
    assert "psforge.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
