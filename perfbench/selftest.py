"""Self-tests of the benchmark's tracer, output checks, inputs and metric names.

    python3 perfbench/selftest.py

Run from the repository root. The file is not named ``test_*.py`` on purpose:
importing ``run`` pins BLAS threads for the whole process, which must not
leak into the package's own test session.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before NumPy loads)

run.import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from upcr import encoder, evalbench, separation, training  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = encoder.EncoderConfig(k=8, m=16, widths=(8, 8, 16, 16, 16), head_widths=(16,))


def _tiny_case(seed: int = 3):
    pair = inputs.make_pairs(seed, 1, 64)[0]
    sample = workloads._sample(pair)
    model = encoder.init_params(TINY, workloads.FEATURE, "euler", 1)
    return sample, model


def _traced_pair(tracer: spans.Tracer) -> float:
    """Register one tiny pair and run one PFH-initialised ICP under tracing."""
    sample, model = _tiny_case()
    undo = spans.install(tracer)
    try:
        t0 = perf_counter()
        root = tracer.open("bench.op")
        separation.register_pair(sample.source, sample.target, model)
        evalbench.evaluate_icp([sample], init_spec=workloads.FeatureSpec("pfh"), k=8)
        tracer.close(root)
        return perf_counter() - t0
    finally:
        spans.restore(undo)


def replace_ns(ns: SimpleNamespace, **kw) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(ns), **kw})


class TracerTest(unittest.TestCase):
    def test_self_times_nonnegative_and_within_wall(self):
        tracer = spans.Tracer()
        wall = _traced_pair(tracer)
        selfs = tracer.self_times()
        self.assertGreater(len(selfs), 20)
        self.assertGreaterEqual(min(selfs), -1e-9)
        self.assertLessEqual(sum(selfs), wall)
        for s in tracer.spans:
            self.assertLessEqual(s.start, s.end)
            if s.parent >= 0:
                p = tracer.spans[s.parent]
                self.assertTrue(p.start <= s.start and s.end <= p.end)

    def test_install_reaches_aliases_and_restores(self):
        originals = {
            "encoder.affine": encoder.affine,
            "separation.affine": separation.affine,
            "encoder.neighbor_feature_array": encoder.neighbor_feature_array,
            "evalbench.point_descriptor_table": evalbench.point_descriptor_table,
            "training.register_pair": training.register_pair,
            "evalbench.register_pair": evalbench.register_pair,
            "training.precompute_cloud": training.precompute_cloud,
            "training.sqdist_matrix": training.sqdist_matrix,
        }
        mods = {"encoder": encoder, "separation": separation, "evalbench": evalbench,
                "training": training}
        undo = spans.install(spans.Tracer())
        try:
            for name, fn in originals.items():
                mod, attr = name.split(".")
                wrapped = getattr(mods[mod], attr)
                self.assertIsNot(wrapped, fn, name)
                self.assertIs(wrapped.__wrapped__, fn, name)
        finally:
            spans.restore(undo)
        for name, fn in originals.items():
            mod, attr = name.split(".")
            self.assertIs(getattr(mods[mod], attr), fn, name)

    def test_exact_counts_per_pair(self):
        tracer = spans.Tracer()
        _traced_pair(tracer)
        wl = SimpleNamespace(count_units=1)
        metrics = run.layer_metrics(tracer, wl, traced_units=1)
        # 5 global layers + 1 invariant graph per cloud, two clouds
        self.assertEqual(metrics["geom.graph_knn.calls"], 12.0)
        n, k = 64, TINY.k
        want = 2 * 8 * n * k * (sum(TINY.widths) + sum(TINY.widths[1:]))
        self.assertEqual(metrics["autodiff.edge_table_bytes"], float(want))
        self.assertGreaterEqual(metrics["evalbench.icp.iterations"], 1.0)


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sample, model = _tiny_case()
        cls.x = sample.source.points
        cls.res = separation.register_pair(sample.source, sample.target, model)

    def test_real_result_passes(self):
        self.assertEqual(checks.registration_problems(self.res, self.x), [])

    def test_flags_reflection(self):
        bad = SimpleNamespace(rotation=np.diag([1.0, 1.0, -1.0]),
                              translation=self.res.transform.translation)
        problems = checks.registration_problems(replace(self.res, transform=bad), self.x)
        self.assertTrue(any("det" in p for p in problems), problems)

    def test_flags_broken_composition(self):
        t = self.res.transform
        bad = SimpleNamespace(rotation=t.rotation, translation=t.translation + 1e-3)
        problems = checks.registration_problems(replace(self.res, transform=bad), self.x)
        self.assertTrue(any("R_Y R_X^T" in p for p in problems), problems)
        swapped = replace(self.res, transform=SimpleNamespace(
            rotation=t.rotation.T, translation=t.translation))
        self.assertTrue(checks.registration_problems(swapped, self.x))

    def test_flags_wrong_canonical_cloud(self):
        moved = SimpleNamespace(points=self.res.canonical_x.points + 1e-6)
        problems = checks.registration_problems(replace(self.res, canonical_x=moved), self.x)
        self.assertTrue(any("canonical_x" in p for p in problems), problems)

    def test_flags_non_finite_and_non_orthonormal(self):
        t = self.res.transform
        for rot in (np.full((3, 3), np.nan), 1.001 * t.rotation):
            bad = SimpleNamespace(rotation=rot, translation=t.translation)
            self.assertTrue(checks.registration_problems(replace(self.res, transform=bad), self.x))

    def test_baseline_checks(self):
        sample, _ = _tiny_case()
        x, y = sample.source.points, sample.target.points
        pose = evalbench.icp(sample.source, sample.target)
        ok = SimpleNamespace(rmse_rot_deg=2.0, mae_rot_deg=1.0, rmse_trans=0.2, mae_trans=0.1)
        self.assertEqual(checks.baseline_problems(pose, None, ok, x, y, "icp"), [])
        for bad in (replace_ns(ok, mae_trans=np.nan), replace_ns(ok, rmse_trans=0.05)):
            self.assertTrue(checks.baseline_problems(pose, None, bad, x, y, "icp"))
        # a pose that fits worse than its initial guess breaks ICP's guarantee
        problems = checks.baseline_problems(
            replace_ns(pose, translation=pose.translation + 0.3), None, ok, x, y, "icp")
        self.assertTrue(any("initial guess" in p for p in problems), problems)
        problems = checks.baseline_problems(
            SimpleNamespace(rotation=np.eye(3), translation=np.zeros(3)), pose, ok, x, y, "icp")
        self.assertTrue(any("initial guess" in p for p in problems), problems)

    def test_repeated_pair_must_give_identical_icp_poses(self):
        wl = workloads.DeskBench()
        ops = [workloads.Op(pool_index=i, icp_pose_bytes=b) for i, b in
               ((0, b"a"), (1, b"b"), (0, b"a"), (1, b"c"))]
        wl.summary(ops)
        self.assertEqual([bool(op.problems) for op in ops], [False, False, False, True])

    def test_training_checks(self):
        run_ok = SimpleNamespace(loss_curve=[0.2, 0.1], diverged=False)
        params = {"w": np.ones(3)}
        self.assertEqual(checks.training_problems(run_ok, params), [])
        self.assertTrue(checks.training_problems(replace_ns(run_ok, diverged=True), params))
        self.assertTrue(checks.training_problems(run_ok, {"w": np.array([np.inf])}))
        self.assertTrue(checks.training_problems(
            replace_ns(run_ok, loss_curve=[0.2, float("nan")]), params))


class ImportTest(unittest.TestCase):
    def test_package_compiled_from_source(self):
        mods = spans.package_modules()
        self.assertGreater(len(mods), 5)
        for mod in mods:
            self.assertTrue(mod.__file__.startswith(run.SRC), mod.__file__)
            self.assertIsInstance(mod.__loader__, run._SourceOnlyLoader, mod.__name__)

    def test_span_dict_round_trip(self):
        tracer = spans.Tracer()
        _traced_pair(tracer)
        copy = spans.Tracer()
        copy.spans = [spans.Span.from_dict(json.loads(json.dumps(s.to_dict())))
                      for s in tracer.spans]
        self.assertEqual([s.to_dict() for s in copy.spans], [s.to_dict() for s in tracer.spans])
        self.assertEqual(copy.self_times(), tracer.self_times())


class InputsTest(unittest.TestCase):
    def test_same_seed_bit_identical(self):
        a = inputs.make_pairs(11, 3, 256)
        b = inputs.make_pairs(11, 3, 256)
        for pa, pb in zip(a, b):
            for field in ("source", "target", "rotation", "translation"):
                self.assertEqual(getattr(pa, field).tobytes(), getattr(pb, field).tobytes())
        c = inputs.make_pairs(12, 1, 256)[0]
        self.assertNotEqual(a[0].source.tobytes(), c.source.tobytes())

    def test_shape_frame_and_pose_range(self):
        for pair in inputs.make_pairs(5, 4, 256):
            self.assertEqual(pair.source.shape, (256, 3))
            self.assertLess(abs(np.linalg.norm(pair.source, axis=1).max() - 1.0), 0.1)
            self.assertLess(np.abs(pair.source.mean(axis=0)).max(), 0.01)
            self.assertTrue(np.all(np.abs(pair.translation) <= inputs.MAX_TRANS))
            self.assertLess(np.abs(pair.rotation.T @ pair.rotation - np.eye(3)).max(), 1e-12)


class NamesTest(unittest.TestCase):
    def test_metric_names_and_benchmark_file_agree(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        e2e = [m["name"] for m in bench["end_to_end"]]
        layer = [m["name"] for m in bench["per_layer"]]
        for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(sorted(e2e), sorted(run.END_TO_END))
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))
        tracer = spans.Tracer()
        _traced_pair(tracer)
        produced = run.layer_metrics(tracer, SimpleNamespace(count_units=1), 1)
        produced.update(dict.fromkeys(("bench.untraced_pairs_per_s", "bench.traced_pairs_per_s",
                                       "bench.trace_overhead_pct"), 0.0))
        self.assertEqual(sorted(produced), sorted(layer))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])


if __name__ == "__main__":
    unittest.main()
