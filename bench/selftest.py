"""The benchmark's own tests. Run from the checkout root:

    python3 bench/selftest.py

They cover the seeded generator, the two-soliton oracle, repeatability of
the traced run (exact counts and accuracy figures) and the accounting of
self times, on reduced grids so the whole file runs in seconds.
"""

import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.check_checkout()

import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = (-1.0, 1.0, -1.0, 1.0)


def accounted(spans, root):
    """(sum of self times, root duration + sibling overlap): equal when
    every span's time is charged exactly once."""
    return (sum(tracing.self_times(spans).values()),
            root.duration + tracing.child_overlap(spans))


def small_workloads(seed, work):
    return [
        workloads.forward_verify(seed, os.path.join(work, "f")),
        workloads.backward_split(seed, os.path.join(work, "b"), domain=SMALL,
                                 n_probes=3, n_timed=1, dist_range=(4, 90)),
    ]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for seed in (0, 7, 123456):
            self.assertEqual(inputs.two_soliton_parameters(seed),
                             inputs.two_soliton_parameters(seed))
            self.assertEqual(inputs.probe_nodes(seed, 201, 100),
                             inputs.probe_nodes(seed, 201, 100))
            phi_fn, _ = inputs.two_soliton(*inputs.two_soliton_parameters(seed))
            xd1, yd1 = inputs.characteristic_data(phi_fn, 0.02)
            phi_fn, _ = inputs.two_soliton(*inputs.two_soliton_parameters(seed))
            xd2, yd2 = inputs.characteristic_data(phi_fn, 0.02)
            np.testing.assert_array_equal(xd1, xd2)
            np.testing.assert_array_equal(yd1, yd2)

    def test_seed_changes_inputs_within_ranges(self):
        params = {inputs.two_soliton_parameters(s) for s in range(20)}
        self.assertEqual(len(params), 20)
        for a1, a2 in params:
            self.assertTrue(0.75 <= a1 <= 0.85 and 1.6 <= a2 <= 1.8)

    def test_probes_off_axis_and_stratified(self):
        for seed in range(10):
            nodes = inputs.probe_nodes(seed, 201, 100)
            self.assertEqual(len(nodes), inputs.N_PROBES)
            dists = [abs(i - 100) + abs(j - 100) for i, j in nodes]
            for k, (d, (i, j)) in enumerate(zip(dists, nodes)):
                self.assertTrue(0 <= i <= 200 and 0 <= j <= 200)
                self.assertTrue(i != 100 and j != 100)
                self.assertEqual(d, int(10 + 180 * (k + 0.5) / inputs.N_PROBES))


class OracleTest(unittest.TestCase):
    def test_two_soliton_solves_sine_gordon(self):
        """The 4th-order FD residual of phi_xy = sin(phi) falls at 4th order
        (it is truncation error, not a wrong formula): sup 8.4e-6 at
        h = 0.02 and 5.3e-7 at h = 0.01 for a1, a2 = 0.8, 1.7."""
        def d4(f, h, axis):
            f = np.moveaxis(f, axis, 0)
            out = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
            return np.moveaxis(out, 0, axis)

        for seed in range(3):
            phi_fn, phix_fn = inputs.two_soliton(*inputs.two_soliton_parameters(seed))
            residual = {}
            for h in (0.02, 0.01):
                phi = inputs.exact_grid(phi_fn, h)
                phixy = d4(d4(phi, h, 0), h, 1)
                residual[h] = np.abs(phixy - np.sin(phi[2:-2, 2:-2])).max()
                phix = inputs.exact_grid(phix_fn, h)
                self.assertLessEqual(np.abs(d4(phi, h, 0) - phix[2:-2]).max(), 1e-4)
            self.assertLessEqual(residual[0.01], 1e-6)
            self.assertGreater(np.log2(residual[0.02] / residual[0.01]), 3.8)

    def test_two_soliton_crosses_cuspidal_edges(self):
        phi_fn, _ = inputs.two_soliton(*inputs.two_soliton_parameters(0))
        phi = inputs.exact_grid(phi_fn, 0.02)
        regular = ((phi > 0) & (phi < np.pi)).mean()
        self.assertTrue(0.1 < regular < 0.9)


class SpanAccountingTest(unittest.TestCase):
    def test_overlapping_children(self):
        spans = [tracing.Span(0, "bench.iteration", None, 1, 0.0, 10.0),
                 tracing.Span(1, "surfaces.associated_family", 0, 1, 1.0, 7.0),
                 tracing.Span(2, "surfaces.sym_immersion", 1, 2, 1.0, 4.0),
                 tracing.Span(3, "surfaces.sym_immersion", 1, 3, 2.0, 6.0)]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, {0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0})
        self.assertEqual(tracing.child_overlap(spans), 2.0)
        total, expected = accounted(spans, spans[0])
        self.assertEqual(total, expected)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
        cls.runs = []
        for _ in range(2):
            shutil.rmtree(cls.work, ignore_errors=True)
            cls.runs.append([(wl.name,) + run.traced_iteration(wl)
                             for wl in small_workloads(3, cls.work)])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_counts_and_accuracy_repeat_exactly(self):
        for first, second in zip(*self.runs):
            name, spans1, _, probe1, out1, _, bytes1 = first
            _, spans2, _, probe2, out2, _, bytes2 = second
            with self.subTest(workload=name):
                self.assertEqual(out1.failures, [])
                self.assertEqual(out1.accuracy, out2.accuracy)
                m1 = layers.metrics(spans1, probe1, bytes1)
                m2 = layers.metrics(spans2, probe2, bytes2)
                exact = [k for k in m1 if k.endswith(("_calls", "_terms", "_bytes",
                                                      "ortho_dev"))]
                self.assertEqual({k: m1[k] for k in exact},
                                 {k: m2[k] for k in exact})
                self.assertEqual(sorted(s.name for s in spans1),
                                 sorted(s.name for s in spans2))

    def test_layers_reached(self):
        got = {name: layers.metrics(spans, probe, nbytes)
               for name, spans, _, probe, _, _, nbytes in self.runs[0]}
        self.assertEqual(got["forward-verify"]["frames.integrate_frame_calls"], 8)
        self.assertEqual(got["backward-split"]["frames.integrate_frame_calls"], 0)
        self.assertGreater(got["forward-verify"]["surfaces.export_mesh_s"], 0)
        self.assertGreater(got["forward-verify"]["sinegordon.goursat_solve_s"], 0)
        self.assertGreater(got["forward-verify"]["loops.birkhoff_split_calls"], 0)
        self.assertEqual(got["backward-split"]["loops.birkhoff_split_calls"], 3)
        self.assertGreater(got["backward-split"]["loops.factor_terms"], 0)
        for m in got.values():
            self.assertEqual(set(m) | {"frames.path_dev", "trace_overhead"}
                             | set(layers.ACCURACY), set(layers.UNITS))

    def test_self_times_nonnegative_and_sum_to_root(self):
        for name, spans, root, *_ in self.runs[0]:
            with self.subTest(workload=name):
                selfs = tracing.self_times(spans)
                self.assertGreaterEqual(min(selfs.values()), -1e-9)
                total, expected = accounted(spans, root)
                self.assertAlmostEqual(total, expected, delta=1e-6 * expected)
                if name == "backward-split":
                    self.assertEqual(tracing.child_overlap(spans), 0.0)


class CheckoutTest(unittest.TestCase):
    def test_refuses_without_psforge_source(self):
        bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "backward-split",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
