"""Command-line driver: solve -> surface -> potentials -> split -> verify.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric failure, 4 Birkhoff big-cell violation. All file output uses
17-significant-digit decimal floats, so identical inputs give
byte-identical outputs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import frames, loops, potentials, surfaces
from .errors import (BigCellViolation, IncompatibleCorner, NonconvergentCell,
                     NotSkew, PsforgeError, StepFailure, TruncationTooSmall)
from .sinegordon import (GridSpec, goursat_solve, load_angle_csv,
                         save_angle_csv, sg_residual, soliton_angle)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BIGCELL = 4

DEFAULT_TOLERANCES = {
    "compatibility": 1e-4,
    "flatness": 1e-3,
    "conditions_K": 1e-3,
    "curvature": 1e-2,       # pointwise; the mean must beat a tenth of it
    "chebyshev": 1e-3,
    "II_invariance": 1e-3,
    "harmonicity": 1e-3,
    "gauge_invariance": 1e-12,
    "twist": 1e-8,
    "split_cross_check": 1e-4,
}

_CONFIG_TYPES = {
    "soliton": float, "h": float, "hx": float, "hy": float,
    "domain": str, "lambdas": str, "out": str, "phi": str, "phi_x": str,
    "x_data": str, "y_data": str, "loop": str, "direction": str,
    "truncation": int, "tol": float, "su2": bool, "mesh": bool,
}


def _fmt(v):
    return f"{v:.17g}"


def _load_config(path, args):
    """Fill argparse values that were left unset from key=value lines."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SystemExit(f"psforge: cannot read config {path}: {exc}")
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"psforge: malformed config line {raw.rstrip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("tol_"):
            name = key[4:]
            if name not in DEFAULT_TOLERANCES:
                raise SystemExit(f"psforge: unknown tolerance {name!r}")
            args.tolerance_overrides.setdefault(name, float(value))
            continue
        attr = key.replace("-", "_")
        if attr not in _CONFIG_TYPES:
            raise SystemExit(f"psforge: unknown config key {key!r}")
        if getattr(args, attr, None) is None:
            typ = _CONFIG_TYPES[attr]
            if typ is bool:
                setattr(args, attr, value.lower() in ("1", "true", "yes"))
            else:
                setattr(args, attr, typ(value))
    return args


def _parse_lambdas(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"psforge: malformed lambda list {text!r}")
    if not vals or any(v <= 0 for v in vals):
        raise SystemExit("psforge: lambda entries must be positive")
    return vals


def _grid_from_args(args):
    if args.domain is None:
        raise SystemExit("psforge: --domain is required")
    if isinstance(args.domain, str):
        parts = args.domain.split()
        if len(parts) != 4:
            raise SystemExit("psforge: domain needs four numbers")
        x0, x1, y0, y1 = map(float, parts)
    else:
        x0, x1, y0, y1 = args.domain
    hx = args.hx if args.hx is not None else args.h
    hy = args.hy if args.hy is not None else args.h
    if hx is None or hy is None:
        raise SystemExit("psforge: set --h or both --hx and --hy")
    if not (x1 > x0 and y1 > y0) or hx <= 0 or hy <= 0:
        raise SystemExit("psforge: domain bounds must be ordered, steps positive")
    nx = round((x1 - x0) / hx) + 1
    ny = round((y1 - y0) / hy) + 1
    return GridSpec(x0, y0, nx, ny, hx, hy)


def _load_field(args):
    if args.phi is None:
        raise SystemExit("psforge: --phi is required")
    return load_angle_csv(args.phi, args.phi_x)


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _finite_stat(a, stat):
    """stat of the finite entries of a (NaN marks masked nodes); NaN when
    there are none."""
    vals = np.asarray(a, dtype=float)
    vals = vals[np.isfinite(vals)]
    return float(stat(vals)) if vals.size else float("nan")


def _nan_sup(a):
    return _finite_stat(a, lambda v: np.abs(v).max())


def _nan_mean(a):
    return _finite_stat(a, lambda v: np.abs(v).mean())


def cmd_solve(args):
    grid = _grid_from_args(args)
    if args.soliton is not None:
        field = soliton_angle(args.soliton, grid)
    elif args.x_data and args.y_data:
        x_data = np.loadtxt(args.x_data, ndmin=1)
        y_data = np.loadtxt(args.y_data, ndmin=1)
        field = goursat_solve(x_data, y_data, grid)
    else:
        raise SystemExit("psforge: need --soliton or both --x-data/--y-data")

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    save_angle_csv(field, os.path.join(outdir, "phi.csv"),
                   os.path.join(outdir, "phi_x.csv"))
    res = sg_residual(field)
    summary = {
        "nx": grid.nx, "ny": grid.ny,
        "sg_residual_sup": _nan_sup(res),
        "sg_residual_mean": _nan_mean(res),
        "regular_fraction": float(field.regular_mask.mean()),
    }
    if field.analytic and field.phixy_fn is not None:
        x, y = grid.meshgrid()
        summary["sg_residual_analytic_sup"] = float(
            np.abs(field.phixy_fn(x, y) - np.sin(field.phi_fn(x, y))).max())
    _write_json(summary, os.path.join(outdir, "solve_summary.json"))
    return EXIT_OK


def cmd_surface(args):
    field = _load_field(args)
    lambdas = _parse_lambdas(args.lambdas or "1")
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    members, family_report = surfaces.associated_family(field, lambdas)

    sin_mask = np.abs(np.sin(field.phi)) > 0.1
    summary = {"lambdas": lambdas, "members": [],
               "M_deviation_sup": family_report["M_deviation_sup"],
               "angle_deviation_sup": family_report["angle_deviation_sup"]}
    for (imm, geom), lam in zip(members, lambdas):
        mask = geom.mask & sin_mask
        tag = f"{lam:g}"
        if args.mesh is not False:
            surfaces.export_mesh(imm, os.path.join(outdir, f"mesh_lam{tag}.obj"),
                                 mask=geom.mask)
        _write_geometry_csv(geom, os.path.join(outdir, f"geometry_lam{tag}.csv"))
        member = {
            "lambda": lam,
            "K_mean": _finite_stat(np.where(mask, geom.K, np.nan), np.mean),
            "K_dev_sup": _nan_sup(np.where(mask, geom.K + 1.0, np.nan)),
            "metricA_mean": _nan_mean(np.where(mask, geom.metricA, np.nan)),
            "metricB_mean": _nan_mean(np.where(mask, geom.metricB, np.nan)),
            "chebyshev_F_dev": _nan_sup(np.where(
                mask, geom.F - np.cos(field.phi), np.nan)),
        }
        summary["members"].append(member)
    if len(members) == 1:
        summary.update({k: v for k, v in summary["members"][0].items()
                        if k != "lambda"})
    _write_json(summary, os.path.join(outdir, "surface_summary.json"))
    return EXIT_OK


def _write_geometry_csv(geom, path):
    g = geom.grid
    cols = ("E", "F", "G", "L", "M", "N2", "K")
    lines = ["# i,j," + ",".join(cols)]
    data = [getattr(geom, c) for c in cols]
    for i in range(g.nx):
        for j in range(g.ny):
            vals = ",".join(_fmt(float(d[i, j])) for d in data)
            lines.append(f"{i},{j},{vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_potentials(args):
    field = _load_field(args)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    ex = potentials.eta_x(field)
    ey = potentials.eta_y(field)
    potentials.save_potential_csv(ex, os.path.join(outdir, "eta_x.csv"))
    potentials.save_potential_csv(ey, os.path.join(outdir, "eta_y.csv"))
    if args.su2:
        ex2, ey2 = potentials.eta_2x2(field)
        potentials.save_potential2_csv(ex2, os.path.join(outdir, "eta_x_su2.csv"))
        potentials.save_potential2_csv(ey2, os.path.join(outdir, "eta_y_su2.csv"))
    return EXIT_OK


def cmd_split(args):
    if args.loop is None:
        raise SystemExit("psforge: --loop is required")
    loop = loops.load_loop_json(args.loop)
    direction = args.direction or "minus-first"
    kwargs = {}
    if args.truncation is not None:
        kwargs["truncation"] = args.truncation
    if args.tol is not None:
        kwargs["tol"] = args.tol
    f1, f2 = loops.birkhoff_split(loop, direction, **kwargs)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    loops.save_loop_json(f1, os.path.join(outdir, "factor1.json"))
    loops.save_loop_json(f2, os.path.join(outdir, "factor2.json"))
    residual = loops._residual_norm(loop.coeffs, f1.coeffs, f2.coeffs)
    _write_json({"direction": direction, "residual": residual,
                 "factor1_kmin": f1.kmin, "factor1_kmax": f1.kmax,
                 "factor2_kmin": f2.kmin, "factor2_kmax": f2.kmax},
                os.path.join(outdir, "split_summary.json"))
    return EXIT_OK


def _probe_indices(grid):
    i0, j0 = grid.origin_index()
    di = max(grid.nx - 1 - i0, i0)
    dj = max(grid.ny - 1 - j0, j0)
    si = 1 if grid.nx - 1 - i0 >= i0 else -1
    sj = 1 if grid.ny - 1 - j0 >= j0 else -1
    return i0 + si * max(1, di // 2), j0 + sj * max(1, dj // 2)


def run_verification(field, lambdas, tolerances=None, substeps=2):
    """Run the full invariant suite; returns (report dict, all_passed)."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    checks = {}

    def record(name, sup, mean, extra=None):
        entry = {"sup": sup, "mean": mean, "tolerance": tol[name],
                 "pass": bool(np.isfinite(sup) and sup <= tol[name])}
        if extra:
            entry.update(extra)
        checks[name] = entry

    def guarded(name, fn):
        try:
            fn()
        except (PsforgeError, ValueError) as exc:
            checks[name] = {"sup": float("inf"), "mean": float("inf"),
                            "tolerance": tol[name], "pass": False,
                            "reason": f"{type(exc).__name__}: {exc}"}

    def c_compatibility():
        sups, means = [], []
        for lam in lambdas:
            r = frames.compatibility_residual(field, lam)
            sups.append(_nan_sup(r))
            means.append(_nan_mean(r))
        record("compatibility", max(sups), max(means))

    def c_flatness():
        form = frames.maurer_cartan(field)
        sups, means = [], []
        for lam in lambdas:
            r = frames.flatness_residual(form, lam)
            sups.append(_nan_sup(r))
            means.append(_nan_mean(r))
        record("flatness", max(sups), max(means))

    def c_conditions():
        sups, means = [], []
        for lam in lambdas:
            res = frames.check_conditions_K(frames.lambda_forms(field, lam))
            for r in res.values():
                sups.append(_nan_sup(r))
                means.append(_nan_mean(r))
        record("conditions_K", max(sups), max(means))

    family_error = None
    try:
        members, family_report = surfaces.associated_family(
            field, lambdas, substeps=substeps)
    except (PsforgeError, ValueError) as exc:
        members, family_report, family_error = None, None, exc
    sin_mask = np.abs(np.sin(field.phi)) > 0.1

    def need_members():
        if members is None:
            raise family_error

    def c_curvature():
        need_members()
        idx = int(np.argmin(np.abs(np.asarray(lambdas) - 1.0)))
        geom = members[idx][1]
        mask = geom.mask & sin_mask
        dev = np.where(mask, np.abs(geom.K + 1.0), np.nan)
        sup, mean = _nan_sup(dev), _nan_mean(dev)
        entry_pass = sup <= tol["curvature"] and mean <= tol["curvature"] / 10.0
        checks["curvature"] = {"sup": sup, "mean": mean,
                               "tolerance": tol["curvature"],
                               "mean_tolerance": tol["curvature"] / 10.0,
                               "pass": bool(np.isfinite(sup) and entry_pass)}

    def c_chebyshev():
        need_members()
        devs_mean, devs_sup = [], []
        for (_, geom), lam in zip(members, lambdas):
            mask = geom.mask & sin_mask
            da = np.where(mask, geom.metricA - lam, np.nan)
            db = np.where(mask, geom.metricB - 1.0 / lam, np.nan)
            devs_mean += [_nan_mean(da), _nan_mean(db)]
            devs_sup += [_nan_sup(da), _nan_sup(db)]
        entry_pass = max(devs_mean) <= tol["chebyshev"]
        checks["chebyshev"] = {"sup": max(devs_sup), "mean": max(devs_mean),
                               "tolerance": tol["chebyshev"],
                               "pass": bool(entry_pass)}

    def c_invariance():
        need_members()
        dev = max(family_report["M_deviation_sup"],
                  family_report["angle_deviation_sup"])
        record("II_invariance", dev, dev,
               extra={"M_deviation_sup": family_report["M_deviation_sup"],
                      "angle_deviation_sup": family_report["angle_deviation_sup"]})

    def c_harmonicity():
        need_members()
        idx = int(np.argmin(np.abs(np.asarray(lambdas) - 1.0)))
        N = surfaces.gauss_map(members[idx][0].frame)
        rep = surfaces.harmonicity_check(N, grid=field.grid)
        geom = members[idx][1]
        mask = geom.mask & sin_mask
        metric_dev = np.where(mask, rep.nx_norm - geom.metricA, np.nan)
        sup = max(_nan_sup(rep.tangential_residual), _nan_sup(metric_dev))
        mean = max(_nan_mean(rep.tangential_residual), _nan_mean(metric_dev))
        record("harmonicity", sup, mean)

    def c_gauge():
        need_members()
        frame = members[0][0].frame
        rng = np.random.default_rng(7)
        theta = rng.uniform(-np.pi, np.pi, size=(field.grid.nx, field.grid.ny))
        n0 = surfaces.gauss_map(frame)
        n1 = surfaces.gauss_map(frames.gauge(frame, theta))
        dev = float(np.abs(n0 - n1).max())
        record("gauge_invariance", dev, dev)

    pi, pj = _probe_indices(field.grid)

    def c_twist():
        loop = frames.sample_frame_loop(field, pi, pj, n=32,
                                        substeps=substeps).to_laurent()
        dev = max(loops.twist_deviation(loop),
                  max(float(np.abs(c.imag).max()) for c in loop.coeffs.values()))
        record("twist", dev, dev)

    def c_split():
        i0, j0 = field.grid.origin_index()
        rep_axis = potentials.cross_check_split(field, pi, j0,
                                                substeps=substeps)
        rep_off = potentials.cross_check_split(field, pi, pj,
                                               substeps=substeps)
        vals = list(rep_axis.values()) + list(rep_off.values())
        record("split_cross_check", max(vals), float(np.mean(vals)),
               extra={"axis": rep_axis, "off_axis": rep_off})

    guarded("compatibility", c_compatibility)
    guarded("flatness", c_flatness)
    guarded("conditions_K", c_conditions)
    guarded("curvature", c_curvature)
    guarded("chebyshev", c_chebyshev)
    guarded("II_invariance", c_invariance)
    guarded("harmonicity", c_harmonicity)
    guarded("gauge_invariance", c_gauge)
    guarded("twist", c_twist)
    guarded("split_cross_check", c_split)

    failures = sorted(name for name, entry in checks.items()
                      if not entry["pass"])
    report = {"checks": checks, "failures": failures,
              "pass": not failures, "lambdas": list(lambdas)}
    return report, not failures


def cmd_verify(args):
    field = _load_field(args)
    lambdas = _parse_lambdas(args.lambdas or "0.5,1,2")
    report, ok = run_verification(field, lambdas,
                                  tolerances=args.tolerance_overrides)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    _write_json(report, os.path.join(outdir, "report.json"))
    if not ok:
        print("verification FAILED: " + ", ".join(report["failures"]))
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


class _TolAction(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if "=" not in value:
            parser.error("--tolerance needs name=value")
        name, v = value.split("=", 1)
        if name not in DEFAULT_TOLERANCES:
            parser.error(f"unknown tolerance {name!r}")
        if getattr(namespace, "tolerance_overrides", None) is None:
            namespace.tolerance_overrides = {}
        namespace.tolerance_overrides[name] = float(v)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psforge",
        description="pseudospherical surface pipeline: sine-Gordon fields, "
                    "extended frames, Sym immersions, potentials, Birkhoff "
                    "splitting and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--out", help="output directory (default .)")

    p = sub.add_parser("solve", help="produce an angle field")
    common(p)
    p.add_argument("--soliton", type=float, help="one-soliton parameter a > 0")
    p.add_argument("--x-data", help="file with phi(x_i, 0) samples, one per line")
    p.add_argument("--y-data", help="file with phi(0, y_j) samples")
    p.add_argument("--domain", nargs=4, type=float,
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--h", type=float, help="grid step (both axes)")
    p.add_argument("--hx", type=float)
    p.add_argument("--hy", type=float)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("surface", help="Sym immersions and geometry reports")
    common(p)
    p.add_argument("--phi", help="angle field CSV")
    p.add_argument("--phi-x", help="companion derivative CSV")
    p.add_argument("--lambdas", help="comma list of positive lambdas")
    p.add_argument("--no-mesh", dest="mesh", action="store_false", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("potentials", help="normalized x/y potentials")
    common(p)
    p.add_argument("--phi", help="angle field CSV")
    p.add_argument("--phi-x", help="companion derivative CSV")
    p.add_argument("--su2", action="store_true", default=None,
                   help="also write the 2x2 spinor potentials")
    p.set_defaults(func=cmd_potentials)

    p = sub.add_parser("split", help="Birkhoff-split a loop file")
    common(p)
    p.add_argument("--loop", help="loop JSON file")
    p.add_argument("--direction", choices=["minus-first", "plus-first"])
    p.add_argument("--truncation", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
    p.add_argument("--phi", help="angle field CSV")
    p.add_argument("--phi-x", help="companion derivative CSV")
    p.add_argument("--lambdas", help="comma list (default 0.5,1,2)")
    p.add_argument("--tolerance", action=_TolAction, metavar="NAME=VALUE",
                   help="override one check tolerance (repeatable)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "tolerance_overrides", None) is None:
            args.tolerance_overrides = {}
        if getattr(args, "config", None):
            _load_config(args.config, args)
        return args.func(args)
    except SystemExit as exc:
        # config/usage problems raised as SystemExit("message")
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_CONFIG
        raise
    except BigCellViolation as exc:
        print(f"psforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BIGCELL
    except (IncompatibleCorner, FileNotFoundError, OSError, ValueError) as exc:
        print(f"psforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepFailure, NonconvergentCell, NotSkew, TruncationTooSmall,
            PsforgeError) as exc:
        print(f"psforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
