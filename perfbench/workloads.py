"""The three benchmark workloads.

Each workload builds its inputs from the run's seed, sets up a model with a
fixed seed, runs one warm-up operation, and then runs timed operations in a
closed loop: one caller, each call issued after the previous one returns.

* ``desk-bench``: the ``upcr bench --baselines`` path at the desk preset.
  Per pair, ``register_pair`` and then ``evalbench.evaluate_icp`` three ways
  (plain, PFH-initialised, SPFH-initialised). Graph KNN has its largest
  share here and the feature tables dominate the baselines.
* ``paper-register``: ``register_pair`` alone at the paper preset. The
  [N*k, 512] edge tables (~100 MB) are far beyond L2; no features, no ICP.
* ``desk-train``: ``training.train`` on a fixed set of desk pairs. The only
  workload that records a tape and runs backward + Adam.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter

import checks
import spans
from inputs import make_pairs
from upcr import evalbench, separation, training
from upcr.datagen import DatasetSample
from upcr.encoder import EncoderConfig, init_params
from upcr.features import FeatureSpec
from upcr.geom import PointCloud, RigidTransform

MODEL_SEED = 7
TRAIN_SEED = 0
ROTATION_MODE = "euler"
FEATURE = FeatureSpec("distance")
# CLI desk preset: 256 points, m=64; paper preset: 1024 points, m=512
DESK = dict(points=256, config=EncoderConfig(k=24, m=64))
PAPER = dict(points=1024, config=EncoderConfig(k=24, m=512))
BASELINE_INITS = (None, FeatureSpec("pfh"), FeatureSpec("spfh"))


def _sample(pair) -> DatasetSample:
    return DatasetSample(PointCloud(pair.source), PointCloud(pair.target),
                         RigidTransform(pair.rotation, pair.translation), category=0)


@dataclass
class Op:
    """What one timed operation did; ``units`` are pairs, or steps in training."""

    wall_s: float = 0.0
    pairs: int = 0
    units: int = 0
    register_ms: list[float] = field(default_factory=list)
    baseline_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    pool_index: int = -1
    icp_mae_deg: float = float("nan")
    icp_pose_bytes: bytes = b""  # every ICP pose's R and t, to compare repeats bit for bit
    loss_curve: list[float] = field(default_factory=list)


def _report_warm_up(op: Op) -> None:
    """Warm-up is not a timed operation; the timed ones carry the verdict."""
    for p in op.problems:
        print(f"warm-up check failed: {p}", file=sys.stderr)


@contextmanager
def _rebound(original, replacement):
    undo = spans.rebind(original, replacement, spans.package_modules())
    try:
        yield
    finally:
        spans.restore(undo)


class Workload:
    name = ""
    unit = "pair"
    min_ops = 1      # timed operations run even when the time is up
    count_units = 1  # the exact counts are taken over this many traced units

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_op(self, index: int, tracer: spans.Tracer | None) -> Op:
        raise NotImplementedError

    def summary(self, ops: list[Op]) -> list[tuple[str, float | None, str, int]]:
        """Workload-specific (name, value, unit, samples) report lines."""
        return []


class _RegisterWorkload(Workload):
    preset: dict = {}
    pool_size = 16

    def setup(self, seed: int) -> None:
        cfg = self.preset["config"]
        self.model = init_params(cfg, FEATURE, ROTATION_MODE, MODEL_SEED)
        pairs = make_pairs(seed, self.pool_size + 1, self.preset["points"])
        self.pool = [_sample(p) for p in pairs[1:]]
        _report_warm_up(self._pair(_sample(pairs[0]), -1))

    def _register(self, s: DatasetSample, op: Op) -> None:
        t0 = perf_counter()
        res = separation.register_pair(s.source, s.target, self.model)
        op.register_ms.append((perf_counter() - t0) * 1e3)
        op.problems += checks.registration_problems(res, s.source.points)

    def _pair(self, s: DatasetSample, pool_index: int) -> Op:
        op = Op(pairs=1, units=1, pool_index=pool_index)
        self._register(s, op)
        op.wall_s = op.register_ms[-1] / 1e3
        return op

    def run_op(self, index: int, tracer: spans.Tracer | None) -> Op:
        i = index % len(self.pool)
        return self._pair(self.pool[i], i)


class PaperRegister(_RegisterWorkload):
    name = "paper-register"
    preset = PAPER
    pool_size = 8
    min_ops = 2


class DeskBench(_RegisterWorkload):
    name = "desk-bench"
    preset = DESK
    pool_size = 64
    min_ops = 4
    count_units = 4

    def _pair(self, s: DatasetSample, pool_index: int) -> Op:
        op = Op(pairs=1, units=1, pool_index=pool_index)
        self._register(s, op)
        poses, starts = [], []
        orig = evalbench.icp

        def capture(*args, **kwargs):
            pose = orig(*args, **kwargs)
            poses.append(pose)
            starts.append(kwargs["init"] if "init" in kwargs
                          else args[2] if len(args) > 2 else None)
            return pose

        reports = []
        with _rebound(orig, capture):
            t0 = perf_counter()
            for init in BASELINE_INITS:
                reports.append(evalbench.evaluate_icp([s], init_spec=init,
                                                      k=self.preset["config"].k))
            op.baseline_ms.append((perf_counter() - t0) * 1e3)
        op.wall_s = (op.register_ms[-1] + op.baseline_ms[-1]) / 1e3
        if len(poses) != len(BASELINE_INITS):
            op.problems.append(f"expected {len(BASELINE_INITS)} ICP runs, saw {len(poses)}")
        for spec, pose, start, rep in zip(BASELINE_INITS, poses, starts, reports):
            op.problems += checks.baseline_problems(
                pose, start, rep, s.source.points, s.target.points,
                f"icp+{spec.kind if spec else 'plain'}")
        op.icp_pose_bytes = b"".join(p.rotation.tobytes() + p.translation.tobytes()
                                     for p in poses)
        op.icp_mae_deg = reports[0].mae_rot_deg
        return op

    def summary(self, ops: list[Op]):
        first = {}
        for op in ops:
            seen = first.setdefault(op.pool_index, op)
            if seen is not op and seen.icp_pose_bytes != op.icp_pose_bytes:
                op.problems.append(f"ICP poses of pool pair {op.pool_index} differ "
                                   "from its earlier run")
        mae = statistics.fmean(op.icp_mae_deg for op in first.values())
        return [("icp_rot_mae_deg", mae, "deg", len(first))]


class DeskTrain(Workload):
    name = "desk-train"
    unit = "step"
    n_pairs = 16
    epochs = 2
    batch = 8
    min_ops = 2

    def setup(self, seed: int) -> None:
        self.samples = [_sample(p) for p in make_pairs(seed, self.n_pairs, DESK["points"])]
        self.count_units = self.epochs * -(-self.n_pairs // self.batch)
        _report_warm_up(self._train(self.samples[:self.batch], epochs=1, tracer=None))

    def _train(self, samples, epochs: int, tracer: spans.Tracer | None) -> Op:
        op = Op(pairs=len(samples) * epochs)
        results = []
        reg = training.register_pair

        def timed_register(x, y, *args, **kwargs):
            t0 = perf_counter()
            res = reg(x, y, *args, **kwargs)
            op.register_ms.append((perf_counter() - t0) * 1e3)
            # drop the tape tensors so the tape can be freed after its step
            results.append((replace(res, canonical_x_t=None, canonical_y_t=None), x))
            return res

        step = training.adam_step

        def counted_step(*args, **kwargs):
            step(*args, **kwargs)
            op.units += 1
            if tracer is not None:
                tracer.unit += 1

        with _rebound(reg, timed_register), _rebound(step, counted_step):
            t0 = perf_counter()
            result = training.train(DESK["config"], FEATURE, ROTATION_MODE, samples,
                                    epochs=epochs, lr=1e-3, batch_size=self.batch,
                                    seed=TRAIN_SEED, clip_norm=None, schedule="constant")
            op.wall_s = perf_counter() - t0
        op.loss_curve = list(result.loss_curve)
        op.problems += checks.training_problems(result, result.checkpoint.params)
        for res, x in results:
            op.problems += checks.registration_problems(res, x.points)
        return op

    def run_op(self, index: int, tracer: spans.Tracer | None) -> Op:
        return self._train(self.samples, self.epochs, tracer)

    def summary(self, ops: list[Op]):
        curves = [op.loss_curve for op in ops if op.loss_curve]
        if not curves:
            return []
        for op in ops:
            if op.loss_curve and op.loss_curve != curves[0]:
                op.problems.append("loss curve differs between identical seeded runs")
        n = self.n_pairs
        return [("train_loss_first", curves[0][0], "chamfer", n),
                ("train_loss_final", curves[0][-1], "chamfer", n)]


WORKLOADS = {w.name: w for w in (DeskBench, PaperRegister, DeskTrain)}
