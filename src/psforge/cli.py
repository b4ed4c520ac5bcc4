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

from . import algebra, frames, loops, potentials, surfaces
from .errors import BigCellViolation, IncompatibleCorner, PsforgeError
from .sinegordon import (GridSpec, goursat_solve, load_angle_csv,
                         save_angle_csv, sg_residual, soliton_angle)
from .tables import _numbers, _read_rows, _write_file

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
    "domain": str.split, "lambdas": str, "out": str, "phi": str, "phi_x": str,
    "x_data": str, "y_data": str, "loop": str, "direction": str,
    "truncation": int, "tol": float, "su2": bool, "mesh": bool,
}
_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _finite(flag, value):
    """value, unless it is nan or infinite: then exit 2 naming the flag."""
    if not np.isfinite(value):
        raise SystemExit(f"psforge: {flag} must be finite, not {value!r}")
    return value


def _convert(flag, typ, text):
    """typ(text), unless text does not convert: then exit 2 naming the
    flag (an option or a config key)."""
    try:
        return typ(text)
    except ValueError:
        kind = "an integer" if typ is int else "a number"
        raise SystemExit(f"psforge: {flag} must be {kind}, "
                         f"not {text!r}") from None


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
            args.tolerance_overrides.setdefault(
                name, _finite(key, _convert(key, float, value)))
            continue
        attr = key.replace("-", "_")
        if attr not in _CONFIG_TYPES:
            raise SystemExit(f"psforge: unknown config key {key!r}")
        if getattr(args, attr, None) is None:
            typ = _CONFIG_TYPES[attr]
            if typ is bool and value.lower() not in _BOOLS:
                raise SystemExit(f"psforge: config key {key!r} is a boolean "
                                 f"(1/true/yes or 0/false/no), not {value!r}")
            setattr(args, attr, _BOOLS[value.lower()] if typ is bool
                    else _convert(key, typ, value))
    return args


def _parse_lambdas(text):
    try:
        vals = [_finite("--lambdas", float(v)) for v in text.split(",")
                if v.strip()]
    except ValueError:
        raise SystemExit(f"psforge: malformed lambda list {text!r}")
    if not vals or any(v <= 0 for v in vals):
        raise SystemExit("psforge: --lambdas entries must be positive")
    return vals


def _grid_from_args(args):
    if args.domain is None:
        raise SystemExit("psforge: --domain is required")
    if len(args.domain) != 4:
        raise SystemExit("psforge: domain needs four numbers")
    x0, x1, y0, y1 = (_finite("--domain", _convert("--domain", float, v))
                      for v in args.domain)
    hx = args.hx if args.hx is not None else args.h
    hy = args.hy if args.hy is not None else args.h
    if hx is None or hy is None:
        raise SystemExit("psforge: set --h or both --hx and --hy")
    _finite("--hx" if args.hx is not None else "--h", hx)
    _finite("--hy" if args.hy is not None else "--h", hy)
    if not (x1 > x0 and y1 > y0) or hx <= 0 or hy <= 0:
        raise SystemExit("psforge: domain bounds must be ordered, steps positive")
    nx = round((x1 - x0) / hx) + 1
    ny = round((y1 - y0) / hy) + 1
    for axis, a, b, h, n in (("x", x0, x1, hx, nx), ("y", y0, y1, hy, ny)):
        if abs(a + (n - 1) * h - b) > 1e-9 * max(1.0, abs(b)):
            raise SystemExit(f"psforge: the step {h!r} does not tile the "
                             f"{axis} domain [{a!r}, {b!r}]")
    grid = GridSpec(x0, y0, nx, ny, hx, hy)
    grid.origin_index()  # ValueError (exit 2) without a node at the origin
    return grid


def _load_field(args):
    if args.phi is None:
        raise SystemExit("psforge: --phi is required")
    return load_angle_csv(args.phi, args.phi_x)


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _stats(a, mask=None):
    """(sup, mean) of abs(a) over the nodes of mask, or over every node
    without one: (inf, inf) when one of those values is not finite, so
    that a check reading it fails; (nan, nan) when there are none."""
    vals = np.asarray(a, dtype=float)
    vals = np.abs(vals if mask is None else vals[mask])
    if not vals.size:
        return float("nan"), float("nan")
    if not np.isfinite(vals).all():
        return float("inf"), float("inf")
    return float(vals.max()), float(vals.mean())


def _load_data(path):
    """The numbers of a characteristic-data file, one column or one row,
    as a 1-D array; ValueError names path:line for a bad token or a ragged
    line, and path for a table of several rows and columns."""
    data = np.array(_read_rows(path, _numbers)[1])
    if data.ndim == 2 and min(data.shape) > 1:
        raise ValueError(f"{path}: a {data.shape[0]}x{data.shape[1]} table, "
                         f"not one column or one row")
    return data.ravel()


def cmd_solve(args):
    grid = _grid_from_args(args)
    if args.soliton is not None:
        field = soliton_angle(_finite("--soliton", args.soliton), grid)
    elif args.x_data and args.y_data:
        field = goursat_solve(_load_data(args.x_data),
                              _load_data(args.y_data), grid)
    else:
        raise SystemExit("psforge: need --soliton or both --x-data/--y-data")

    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    save_angle_csv(field, os.path.join(outdir, "phi.csv"),
                   os.path.join(outdir, "phi_x.csv"))
    sup, mean = _stats(sg_residual(field))
    summary = {
        "nx": grid.nx, "ny": grid.ny,
        "sg_residual_sup": sup,
        "sg_residual_mean": mean,
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
    tags = {}  # each member's files are named by its tag
    for lam in lambdas:
        tag = f"{lam:g}"
        if tag in tags:
            raise SystemExit(f"psforge: lambdas {tags[tag]!r} and {lam!r} "
                             f"share the file tag {tag}")
        tags[tag] = lam
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    members, family_report = surfaces.associated_family(field, lambdas)

    summary = {"lambdas": lambdas, "members": [],
               "M_deviation_sup": family_report["M_deviation_sup"],
               "angle_deviation_sup": family_report["angle_deviation_sup"]}
    for (frame, geom, mask), (tag, lam) in zip(_masked(field, members),
                                               tags.items()):
        if args.mesh is not False:
            surfaces.export_mesh(frame.psi,
                                 os.path.join(outdir, f"mesh_lam{tag}.obj"),
                                 mask=geom.mask)
        _write_geometry_csv(geom, os.path.join(outdir, f"geometry_lam{tag}.csv"))
        summary["members"].append({
            "lambda": lam,
            "K_mean": (float(geom.K[mask].mean()) if mask.any()
                       else float("nan")),
            "K_dev_sup": _stats(geom.K + 1.0, mask)[0],
            "metricA_mean": _stats(geom.metricA, mask)[1],
            "metricB_mean": _stats(geom.metricB, mask)[1],
            "chebyshev_F_dev": _stats(geom.F - np.cos(field.phi), mask)[0],
        })
    if len(members) == 1:
        summary.update({k: v for k, v in summary["members"][0].items()
                        if k != "lambda"})
    _write_json(summary, os.path.join(outdir, "surface_summary.json"))
    return EXIT_OK


def _write_geometry_csv(geom, path):
    """Write the fundamental forms and K of one member: header
    '# i,j,E,F,G,L,M,N2,K', then one line per node (i outer, j inner)
    formatted by `tables._write_rows`; masked K is nan."""
    cols = ("E", "F", "G", "L", "M", "N2", "K")
    i, j = np.indices((geom.grid.nx, geom.grid.ny))
    table = np.stack([i, j] + [getattr(geom, c) for c in cols], axis=-1)
    _write_file(path, dict(rows=table.reshape(-1, 2 + len(cols)), ints=2),
                text="# i,j," + ",".join(cols) + "\n")


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
    kwargs = {k: getattr(args, k) for k in ("truncation", "tol")
              if getattr(args, k) is not None}
    f1, f2 = loops.birkhoff_split(loop, direction, **kwargs)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    loops.save_loop_json(f1, os.path.join(outdir, "factor1.json"))
    loops.save_loop_json(f2, os.path.join(outdir, "factor2.json"))
    # every power of loop - f1 f2 lies within n consecutive ones
    lams = loops._circle_points(sum(x.kmax - x.kmin for x in (loop, f1, f2)) + 1)
    residual = loops._residual_norm(*(loops.loop_eval(x, lams)
                                      for x in (loop, f1, f2)))
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


def _masked(field, members):
    """Each family member as (frame, geometry, statistics mask); the
    mask geom.mask & |sin phi| > 0.1 also leaves out the cuspidal edges."""
    sin_mask = np.abs(np.sin(field.phi)) > 0.1
    return [(frame, geom, geom.mask & sin_mask) for frame, geom in members]


def _sup_mean(pairs):
    """Largest sup and largest mean of `_stats` over (residual, mask)
    pairs; a mask of None counts every node of its residual."""
    sups, means = zip(*[_stats(a, mask) for a, mask in pairs])
    return max(sups), max(means)


class _Checks:
    """The checks of run_verification: one method per DEFAULT_TOLERANCES
    key, returning (sup, mean) or (sup, mean, extra report entries). The
    associated family is built once; every march takes frames._SUBSTEPS.
    flatness and conditions_K take every lambda in one call and report the
    largest sup and the largest mean of their (lambda, equation) grids."""

    def __init__(self, field, lambdas, tol):
        self.field, self.lambdas, self.tol = field, lambdas, tol
        self.at_one = int(np.argmin(np.abs(np.asarray(lambdas) - 1.0)))
        try:
            members, self.report = surfaces.associated_family(field, lambdas)
            self._members = _masked(field, members)
        except (PsforgeError, ValueError) as exc:
            self._members = exc
        self.probe = _probe_indices(field.grid)

    def members(self):
        """_masked members; raises the error that stopped the family."""
        if isinstance(self._members, Exception):
            raise self._members
        return self._members

    def compatibility(self):
        return _stats(frames.compatibility_residual(self.field))

    def flatness(self):
        return _sup_mean((r, None) for r in
                         frames.flatness_residual(self.field, self.lambdas))

    def conditions_K(self):
        return _sup_mean((r, None) for res in frames.check_conditions_K(
            self.field, self.lambdas).values() for r in res)

    def curvature(self):
        _, geom, mask = self.members()[self.at_one]
        sup, mean = _stats(geom.K + 1.0, mask)
        tol = self.tol["curvature"]
        return sup, mean, {"mean_tolerance": tol / 10.0, "pass": bool(
            np.isfinite(sup) and sup <= tol and mean <= tol / 10.0)}

    def chebyshev(self):
        devs = []
        for (_, geom, mask), lam in zip(self.members(), self.lambdas):
            devs += [(geom.metricA - lam, mask),
                     (geom.metricB - 1.0 / lam, mask)]
        sup, mean = _sup_mean(devs)
        return sup, mean, {"pass": bool(mean <= self.tol["chebyshev"])}

    def II_invariance(self):
        self.members()  # raises when there is no family to report on
        devs = {k: self.report[k]
                for k in ("M_deviation_sup", "angle_deviation_sup")}
        return max(devs.values()), max(devs.values()), devs

    def harmonicity(self):
        frame, geom, mask = self.members()[self.at_one]
        rep = surfaces.harmonicity_check(surfaces.gauss_map(frame), frame.grid)
        return _sup_mean([(rep.tangential_residual, None),
                          (rep.nx_norm - geom.metricA, mask)])

    def gauge_invariance(self):
        frame = self.members()[0][0]
        theta = np.random.default_rng(7).uniform(-np.pi, np.pi, frame.U.shape[:2])
        dev = float(np.abs(surfaces.gauss_map(frame) - surfaces.gauss_map(
            frames.gauge(frame, theta))).max())
        return dev, dev

    def twist(self):
        # every root marched: a loop unfolded from the quarter circle
        # would be twisted and real by construction
        values = algebra.spinor_adjoint(frames._loop_legs(
            self.field, *self.probe, loops._circle_points(32),
            frames._SUBSTEPS)[1])
        loop = loops.SampledLoop(values, twisted=True, real=True).to_laurent()
        dev = max(loops.twist_deviation(loop),
                  float(np.abs(loop.stack.imag).max()))
        return dev, dev

    def split_cross_check(self):
        # cross_check_split at (pi, j0) and (pi, pj), sharing the x-leg
        axis, off_axis = potentials._cross_check(self.field, *self.probe,
                                                 with_axis=True)
        vals = [*axis.values(), *off_axis.values()]
        return max(vals), float(np.mean(vals)), dict(axis=axis, off_axis=off_axis)


def run_verification(field, lambdas, tolerances=None):
    """Run the full invariant suite; returns (report dict, all_passed).

    A check passes when its sup is finite and within its tolerance, unless
    its extra entries carry their own "pass" (curvature: the mean within a
    tenth of the tolerance too; chebyshev: the mean alone). A check that
    raises PsforgeError or ValueError fails with sup = mean = inf and the
    error as "reason". Frames are marched with frames._SUBSTEPS substeps.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    suite = _Checks(field, lambdas, tol)
    checks = {}
    for name in DEFAULT_TOLERANCES:
        try:
            sup, mean, *extra = getattr(suite, name)()
        except (PsforgeError, ValueError) as exc:
            sup = mean = float("inf")
            extra = [{"reason": f"{type(exc).__name__}: {exc}"}]
        checks[name] = {"sup": sup, "mean": mean, "tolerance": tol[name],
                        "pass": bool(np.isfinite(sup) and sup <= tol[name])}
        checks[name].update(*extra)
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
        flag = f"--tolerance {name}"
        namespace.tolerance_overrides[name] = _finite(
            flag, _convert(flag, float, v))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psforge",
        description="pseudospherical surface pipeline: sine-Gordon fields, "
                    "extended frames, Sym immersions, potentials, Birkhoff "
                    "splitting and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True):
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--out", help="output directory (default .)")
        if field:
            p.add_argument("--phi", help="angle field CSV")
            p.add_argument("--phi-x", help="companion derivative CSV")

    p = sub.add_parser("solve", help="produce an angle field")
    common(p, field=False)
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
    p.add_argument("--lambdas", help="comma list of positive lambdas")
    p.add_argument("--no-mesh", dest="mesh", action="store_false", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("potentials", help="normalized x/y potentials")
    common(p)
    p.add_argument("--su2", action="store_true", default=None,
                   help="also write the 2x2 spinor potentials")
    p.set_defaults(func=cmd_potentials)

    p = sub.add_parser("split", help="Birkhoff-split a loop file")
    common(p, field=False)
    p.add_argument("--loop", help="loop JSON file")
    p.add_argument("--direction", choices=["minus-first", "plus-first"])
    p.add_argument("--truncation", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)
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
    except (IncompatibleCorner, OSError, ValueError) as exc:
        print(f"psforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PsforgeError as exc:
        print(f"psforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
