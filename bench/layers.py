"""Per-layer metrics from the spans of one traced iteration.

The layers are psforge's modules. `<m>.self_s` is the summed self time
of module m's spans; the other time metrics are the summed durations of
the outermost spans of the functions named below (a span inside another
span of the same group is not counted twice). `*_calls`, `*_terms` and
`*_bytes` are exact counts.
"""

import numpy as np

from tracing import MODULES, outermost, self_times

GROUPS = {
    "frames.integrate_frame": ["frames.integrate_frame"],
    "numerics.project": ["numerics.polar_project", "numerics.orthogonal_project"],
    "numerics.deriv4": ["numerics.deriv4"],
    "frames.residuals": ["frames.compatibility_residual", "frames.maurer_cartan",
                         "frames.flatness_residual", "frames.lambda_forms",
                         "frames.check_conditions_K"],
    "frames.sample_frame_loop": ["frames.sample_frame_loop"],
    "surfaces.associated_family": ["surfaces.associated_family"],
    "surfaces.sym_immersion": ["surfaces.sym_immersion"],
    "surfaces.fundamental_forms": ["surfaces.fundamental_forms"],
    "surfaces.harmonicity": ["surfaces.harmonicity_check", "surfaces.gauss_map"],
    "surfaces.export_mesh": ["surfaces.export_mesh"],
    "sinegordon.goursat_solve": ["sinegordon.goursat_solve"],
    "sinegordon.csv_io": ["sinegordon.save_angle_csv", "sinegordon.load_angle_csv"],
    "loops.birkhoff_split": ["loops.birkhoff_split"],
    "potentials.cross_check_split": ["potentials.cross_check_split"],
    "potentials.integrate_axis": ["potentials.integrate_plus",
                                  "potentials.integrate_minus"],
    "potentials.eta": ["potentials.eta_x", "potentials.eta_y",
                       "potentials.eta_2x2", "potentials.eta_general"],
    "cli.solve": ["cli.cmd_solve"],
    "cli.surface": ["cli.cmd_surface"],
    "cli.verify": ["cli.cmd_verify"],
}
COUNTED = ("frames.integrate_frame", "numerics.project",
           "frames.sample_frame_loop", "loops.birkhoff_split",
           "potentials.integrate_axis")
ACCURACY = ("K_dev_sup", "K_dev_mean", "split_dev_sup", "goursat_err_sup")

UNITS = {f"{m}.self_s": "s" for m in MODULES}
UNITS.update({f"{g}_s": "s" for g in GROUPS})
UNITS.update({f"{g}_calls": "count" for g in COUNTED})
UNITS.update({
    "frames.ortho_dev": "1", "frames.path_dev": "1",
    "cli.out_bytes": "bytes",
    "loops.factor_terms": "count", "trace_overhead": "ratio",
    "K_dev_sup": "1", "K_dev_mean": "1", "split_dev_sup": "1",
    "goursat_err_sup": "rad",
})


class Probe:
    """Result hooks: orthogonality of every frame psforge returns and the
    number of Laurent terms in every Birkhoff factor pair."""

    def __init__(self):
        self.ortho_dev = 0.0
        self.terms = {}

    def _ortho(self, u):
        gram = np.swapaxes(u, -1, -2) @ u
        self.ortho_dev = max(self.ortho_dev, float(np.abs(gram - np.eye(3)).max()))

    def hooks(self):
        return {
            "frames.integrate_frame": lambda span, frame: self._ortho(frame.U),
            "frames.sample_frame_loop": lambda span, loop: self._ortho(loop.values),
            "loops.birkhoff_split": lambda span, factors: self.terms.__setitem__(
                span.id, sum(len(f.coeffs) for f in factors)),
        }


def metrics(spans, probe, out_bytes):
    """Per-layer metrics from the spans of one traced iteration."""
    selfs = self_times(spans)
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    for s in spans:
        if s.layer in MODULES:
            out[f"{s.layer}.self_s"] += selfs[s.id]
    for group, names in GROUPS.items():
        top = outermost(spans, names)
        out[f"{group}_s"] = float(sum(s.duration for s in top))
        if group in COUNTED:
            out[f"{group}_calls"] = len(top)
    splits = outermost(spans, ["loops.birkhoff_split"])
    out["loops.factor_terms"] = sum(probe.terms[s.id] for s in splits)
    out["frames.ortho_dev"] = probe.ortho_dev
    out["cli.out_bytes"] = out_bytes
    return out
