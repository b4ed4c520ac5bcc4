"""The two benchmark workloads: what one iteration runs, and how its
outputs are validated and turned into accuracy figures.

forward-verify   psforge CLI: solve from two-soliton characteristic data
                 (Goursat + Richardson) at 71^2, then surface and verify
                 with three lambdas. The forward path with its writers
                 (OBJ meshes, geometry CSVs) and the read-and-check path,
                 on a truly 2D field that crosses phi in {0, pi}: the
                 Goursat solver and the spline sampler.
backward-split   psforge library, in process: normalized potentials of the
                 analytic two-soliton field at 201^2, their CSV files, and
                 cross_check_split at 4 of 16 probe nodes (all 16 are
                 checked once per run). The backward pipeline
                 (Birkhoff splits, axis ODEs, complex-lambda frame loops) on
                 the analytic sampler branch the CLI never takes.

A CLI workload is a list of command lines plus a validator of the output
directory; `run.py` executes the commands through `psforge.cli.main` in
its own process. The library workload is a function that performs its
library calls and returns what they produced for validation.
"""

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import inputs

LAMBDAS = "0.5,1,2"


@dataclass
class Outcome:
    """Validation result of one iteration: per-operation failures and the
    accuracy figures read from what psforge produced."""

    failures: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def fail(self, op, why):
        self.failures.append((op, why))

    @property
    def failed_ops(self):
        return len({op for op, _ in self.failures})


def _finite_json(value):
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_angle_csv(path):
    """(nx, ny) array from psforge's angle CSV (line j holds phi(:, y_j))."""
    with open(path) as fh:
        header = fh.readline().split()
    nx, ny = int(header[1]), int(header[2])
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape != (ny, nx):
        raise ValueError(f"{path}: {data.shape} values, header says {(ny, nx)}")
    return data.T


def _count_lines(data, prefix):
    return data.count(b"\n" + prefix) + data.startswith(prefix)


def check_mesh(obj_path, geom_csv_path, nx, ny):
    """Checks the OBJ against the geometry CSV of the same lambda. Returns
    (problem or None, K array). Vertices must number nx*ny; faces two per
    grid cell whose four corners are unmasked (K finite)."""
    geo = np.loadtxt(geom_csv_path, delimiter=",", comments="#",
                     usecols=(0, 1, 8), ndmin=2)
    if geo.shape[0] != nx * ny:
        return f"geometry CSV has {geo.shape[0]} rows, want {nx * ny}", None
    K = geo[:, 2].reshape(nx, ny)
    mask = np.isfinite(K)
    cells = mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
    with open(obj_path, "rb") as fh:
        data = fh.read()
    nv, nf = _count_lines(data, b"v "), _count_lines(data, b"f ")
    if nv != nx * ny:
        return f"OBJ has {nv} vertices, want {nx * ny}", K
    if nf != 2 * int(cells.sum()):
        return f"OBJ has {nf} faces, mask gives {2 * int(cells.sum())}", K
    return None, K


def _exits(rcs, outcome, ops):
    """Records non-zero exits and commands never run; True if any."""
    bad = False
    for k, op in enumerate(ops):
        if k >= len(rcs):
            outcome.fail(op, "not run")
            bad = True
        elif rcs[k] != 0:
            outcome.fail(op, f"exit {rcs[k]}")
            bad = True
    return bad


def _check_solve(out, outcome, op, n):
    summary = _read_json(os.path.join(out, "solve_summary.json"))
    if (summary.get("nx"), summary.get("ny")) != (n, n):
        outcome.fail(op, f"grid {summary.get('nx')}x{summary.get('ny')}")
    if not _finite_json(summary):
        outcome.fail(op, "solve_summary.json holds non-finite values")
    phi = read_angle_csv(os.path.join(out, "phi.csv"))
    phix = read_angle_csv(os.path.join(out, "phi_x.csv"))
    if phi.shape != (n, n) or phix.shape != (n, n):
        outcome.fail(op, "angle CSV shape")
    elif not (np.isfinite(phi).all() and np.isfinite(phix).all()):
        outcome.fail(op, "angle CSV holds non-finite values")
    return phi


@dataclass
class CliWorkload:
    """Command lines (without the program) and the output directory."""

    name: str
    commands: list
    out: str
    n: int
    params: dict
    validate: callable


def forward_verify(seed, work, h=0.02, domain=inputs.FORWARD_DOMAIN):
    a1, a2 = inputs.two_soliton_parameters(seed)
    phi_fn, _ = inputs.two_soliton(a1, a2)
    x_data, y_data = inputs.characteristic_data(phi_fn, h, domain)
    exact = inputs.exact_grid(phi_fn, h, domain)
    n = exact.shape[0]
    os.makedirs(work, exist_ok=True)
    xd, yd = os.path.join(work, "x_data.txt"), os.path.join(work, "y_data.txt")
    np.savetxt(xd, x_data, fmt="%.17g")
    np.savetxt(yd, y_data, fmt="%.17g")
    out = os.path.join(work, "out")
    angles = ["--phi", os.path.join(out, "phi.csv"),
              "--phi-x", os.path.join(out, "phi_x.csv")]
    commands = [
        ["solve", "--x-data", xd, "--y-data", yd, "--domain", *map(repr, domain),
         "--h", repr(h), "--out", out],
        ["surface", *angles, "--lambdas", LAMBDAS, "--out", out],
        ["verify", *angles, "--lambdas", LAMBDAS, "--out", out],
    ]

    def validate(rcs):
        from psforge.cli import DEFAULT_TOLERANCES as tol
        outcome = Outcome()
        if rcs[0] != 0:
            _exits(rcs, outcome, ("solve", "surface", "verify"))
            return outcome
        phi = _check_solve(out, outcome, "solve", n)
        outcome.accuracy["goursat_err_sup"] = float(np.abs(phi - exact).max())
        outcome.accuracy["oracle_err"] = outcome.accuracy["goursat_err_sup"]
        if _exits(rcs[1:2], outcome, ("surface",)):
            return outcome
        summary = _read_json(os.path.join(out, "surface_summary.json"))
        if not _finite_json(summary):
            outcome.fail("surface", "surface_summary.json holds non-finite values")
        for lam in LAMBDAS.split(","):
            tag = f"{float(lam):g}"
            problem, K = check_mesh(os.path.join(out, f"mesh_lam{tag}.obj"),
                                    os.path.join(out, f"geometry_lam{tag}.csv"),
                                    n, n)
            if problem:
                outcome.fail("surface", f"lambda {lam}: {problem}")
                continue
            if float(lam) != 1.0:
                continue
            dev = np.abs(K + 1.0)[np.isfinite(K) & (np.abs(np.sin(phi)) > 0.1)]
            k_sup, k_mean = float(dev.max()), float(dev.mean())
            member = [m for m in summary["members"] if m["lambda"] == 1.0][0]
            if member["K_dev_sup"] != k_sup:
                outcome.fail("surface", f"K_dev_sup {k_sup!r} from the files, "
                             f"{member['K_dev_sup']!r} in the summary")
            if not (k_sup <= tol["curvature"] and k_mean <= tol["curvature"] / 10):
                outcome.fail("surface", f"|K+1| sup {k_sup:.3e} mean {k_mean:.3e}")
            outcome.accuracy.update(K_dev_sup=k_sup, K_dev_mean=k_mean)
        if len(rcs) < 3:
            outcome.fail("verify", "not run")
            return outcome
        if rcs[2] != 0:
            # exit 1 still writes report.json, whose failures are read below
            outcome.fail("verify", f"exit {rcs[2]}")
        report = _read_json(os.path.join(out, "report.json"))
        if report.get("pass") is not True:
            outcome.fail("verify", f"report fails {report.get('failures')}")
        if not all(math.isfinite(c["sup"]) for c in report["checks"].values()):
            outcome.fail("verify", "report.json holds non-finite sups")
        curv = report["checks"]["curvature"]["sup"]
        k_sup = outcome.accuracy.get("K_dev_sup")
        if k_sup is not None and curv != k_sup:
            outcome.fail("verify", f"curvature sup {curv!r}, the surface files "
                         f"give {k_sup!r}")
        outcome.accuracy["split_dev_sup"] = report["checks"]["split_cross_check"]["sup"]
        return outcome

    return CliWorkload("forward-verify", commands, out, n,
                       {"a1": a1, "a2": a2}, validate)


@dataclass
class LibraryWorkload:
    """Library calls on an analytic field: `iterate(call)` performs one
    iteration and returns its results, `check(call)` the split cross-check
    at every check node, and `validate(results)` checks either."""

    name: str
    field: object
    probes: list
    checks: list
    out: str
    params: dict

    def iterate(self, call):
        """One iteration; every library call goes through call(operation,
        function, *args). Functions are looked up on the module at call
        time, so traced bindings apply. Returns (operation, result) pairs."""
        from psforge import potentials as pot
        f = self.field
        ex = call("eta_x", pot.eta_x, f)
        ey = call("eta_y", pot.eta_y, f)
        e2 = call("eta_2x2", pot.eta_2x2, f)
        call("save_potential_csv(x)", pot.save_potential_csv, ex,
             os.path.join(self.out, "eta_x.csv"))
        call("save_potential_csv(y)", pot.save_potential_csv, ey,
             os.path.join(self.out, "eta_y.csv"))
        results = [("eta_x", ex), ("eta_y", ey), ("eta_2x2", e2),
                   ("save_potential_csv(x)", ex), ("save_potential_csv(y)", ey)]
        return results + self._split(call, self.probes)

    def check(self, call):
        return self._split(call, self.checks)

    def _split(self, call, nodes):
        from psforge import potentials as pot
        return [(f"cross_check_split{(i, j)}",
                 call(f"cross_check_split{(i, j)}", pot.cross_check_split,
                      self.field, i, j)) for i, j in nodes]

    def validate(self, results):
        from psforge.cli import DEFAULT_TOLERANCES
        tol = DEFAULT_TOLERANCES["split_cross_check"]
        outcome = Outcome()
        n = self.field.grid.nx
        devs = []
        for op, res in results:
            if op in ("eta_x", "eta_y"):
                if res.samples.shape != (n, 3, 3) or not np.isfinite(res.samples).all():
                    outcome.fail(op, "samples not finite (n, 3, 3)")
            elif op == "eta_2x2":
                for form in res:
                    prod = form.samples[:, 0, 1] * form.samples[:, 1, 0]
                    if not np.allclose(prod, -0.25, rtol=0, atol=1e-12):
                        outcome.fail(op, "off-diagonal product is not -1/4")
            elif op.startswith("save_potential_csv"):
                path = os.path.join(self.out, f"eta_{res.axis}.csv")
                cols = np.loadtxt(path, delimiter=",", comments="#",
                                  usecols=range(1, 8), ndmin=2)
                want = np.column_stack([res.coords] + [
                    res.samples[:, r, s] for r, s in
                    ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))])
                if not np.array_equal(cols, want):
                    outcome.fail(op, f"{path} does not round-trip")
            else:
                dev = max(res.values())
                devs.append(dev)
                if not (math.isfinite(dev) and dev <= tol):
                    outcome.fail(op, f"deviation {dev:.3e} above {tol:g}")
        if devs:
            outcome.accuracy.update(split_dev_sup=float(max(devs)),
                                    oracle_err=float(np.mean(devs)))
        return outcome


def backward_split(seed, work, h=0.02, domain=inputs.DOMAIN,
                   n_probes=inputs.N_PROBES, n_timed=inputs.N_TIMED_PROBES,
                   dist_range=inputs.PROBE_DIST_RANGE):
    from psforge import AngleField, GridSpec
    a1, a2 = inputs.two_soliton_parameters(seed)
    phi_fn, phix_fn = inputs.two_soliton(a1, a2)
    xs, ys = inputs.grid_axes(h, domain)
    grid = GridSpec(xs[0], ys[0], len(xs), len(ys), h, h)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    f = AngleField(grid, phi_fn(x, y), phix_fn(x, y),
                   phi_fn=phi_fn, phix_fn=phix_fn)
    i0, _ = grid.origin_index()
    checks = inputs.probe_nodes(seed, grid.nx, i0, n_probes, dist_range)
    # the timed probes: every (n_probes / n_timed)-th, from the middle of
    # its block, so they still span the distance range
    probes = checks[n_probes // (2 * n_timed)::n_probes // n_timed][:n_timed]
    out = os.path.join(work, "out")
    return LibraryWorkload("backward-split", f, probes, checks, out,
                           {"a1": a1, "a2": a2, "probes": probes,
                            "checks": checks})


WORKLOADS = {
    "forward-verify": forward_verify,
    "backward-split": backward_split,
}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
