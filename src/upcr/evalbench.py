"""Error metrics, ICP baselines, protocol sweeps, and the timing harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .datagen import DatasetSample
from .encoder import ModelParams
from .features import FeatureSpec, point_descriptor_table
from .geom import PointCloud, RigidTransform
from .rng import Rng, derive_seed
from .separation import register_pair


@dataclass
class MetricReport:
    """Aggregate pose errors over a sample set. RMSE >= MAE always holds."""

    rmse_rot_deg: float
    mae_rot_deg: float
    rmse_trans: float
    mae_trans: float
    me_t: float
    count: int
    tags: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {"rmse_rot_deg": self.rmse_rot_deg, "mae_rot_deg": self.mae_rot_deg,
                "rmse_trans": self.rmse_trans, "mae_trans": self.mae_trans,
                "me_t": self.me_t, "count": self.count, **self.tags}


def _check_paired(predictions, ground_truths):
    if len(predictions) != len(ground_truths) or not predictions:
        raise ValueError(f"need equal nonempty lists, got {len(predictions)} "
                         f"vs {len(ground_truths)}")


def rotation_metrics(predictions, ground_truths):
    """(RMSE, MAE) in degrees over all 3n Euler error components.

    The error angles are the Euler decomposition of the relative rotation
    R_gt^T R_pred.
    """
    _check_paired(predictions, ground_truths)
    comps = []
    for pred, gt in zip(predictions, ground_truths):
        comps.extend(np.rad2deg(geom.euler_from_matrix(gt.rotation.T @ pred.rotation)))
    comps = np.array(comps)
    return float(np.sqrt(np.mean(comps ** 2))), float(np.mean(np.abs(comps)))


def translation_metrics(predictions, ground_truths):
    """(RMSE, MAE) over all 3n translation error components."""
    _check_paired(predictions, ground_truths)
    comps = np.concatenate([pred.translation - gt.translation
                            for pred, gt in zip(predictions, ground_truths)])
    return float(np.sqrt(np.mean(comps ** 2))), float(np.mean(np.abs(comps)))


def se3_mean_error(predictions, ground_truths) -> float:
    """Mean pose error: geodesic rotation angle (degrees) plus translation
    norm of the relative pose gt^-1 * pred, averaged over samples."""
    _check_paired(predictions, ground_truths)
    total = 0.0
    for pred, gt in zip(predictions, ground_truths):
        rel_rot = gt.rotation.T @ pred.rotation
        cos = np.clip((np.trace(rel_rot) - 1.0) / 2.0, -1.0, 1.0)
        angle = np.rad2deg(np.arccos(cos))
        rel_t = gt.rotation.T @ (pred.translation - gt.translation)
        total += angle + float(np.linalg.norm(rel_t))
    return total / len(predictions)


def evaluate_poses(predictions, ground_truths, tags: dict | None = None) -> MetricReport:
    rr, mr = rotation_metrics(predictions, ground_truths)
    rt, mt = translation_metrics(predictions, ground_truths)
    return MetricReport(rr, mr, rt, mt, se3_mean_error(predictions, ground_truths),
                        len(predictions), dict(tags or {}))


# ---------------------------------------------------------------------------
# classical baselines


def _correspondence_stats(src_pts: np.ndarray, dst_pts: np.ndarray,
                          pose: RigidTransform):
    moved = src_pts @ pose.rotation.T + pose.translation
    d2 = geom.sqdist_matrix(moved, dst_pts)
    nn = np.argmin(d2, axis=1)
    dists = np.sqrt(d2[np.arange(len(moved)), nn])
    return nn, float(dists.mean())


def icp(source: PointCloud, target: PointCloud,
        init: RigidTransform | None = None, max_iters: int = 50,
        tol: float = 1e-7) -> RigidTransform:
    """Point-to-point ICP with SVD pose fits; returns the best pose seen.

    The best pose (by mean correspondence distance) is tracked from the
    initial guess onward, so the result never degrades the initialization.
    """
    pose = init if init is not None else RigidTransform.identity()
    src = source.points
    dst = target.points
    nn, mean_d = _correspondence_stats(src, dst, pose)
    best_pose, best_d = pose, mean_d
    prev_d = mean_d
    for _ in range(max_iters):
        pose = geom.fit_rigid(src, dst[nn])
        nn, mean_d = _correspondence_stats(src, dst, pose)
        if mean_d < best_d:
            best_pose, best_d = pose, mean_d
        if abs(prev_d - mean_d) < tol:
            break
        prev_d = mean_d
    return best_pose


def feature_match_init(source: PointCloud, target: PointCloud,
                       spec: FeatureSpec, k: int = 24) -> RigidTransform:
    """Closed-form pose from mutual nearest neighbors in feature space."""
    fs = point_descriptor_table(source, spec, k).values
    ft = point_descriptor_table(target, spec, k).values
    d2 = geom.sqdist_matrix(fs, ft)
    fwd = np.argmin(d2, axis=1)
    bwd = np.argmin(d2, axis=0)
    mutual = np.nonzero(bwd[fwd] == np.arange(len(fs)))[0]
    if mutual.size < 3:
        raise ValueError(f"feature_match_init: only {mutual.size} mutual matches "
                         "(need >= 3)")
    return geom.fit_rigid(source.points[mutual], target.points[fwd[mutual]])


# ---------------------------------------------------------------------------
# model evaluation, sweeps, timing


@dataclass
class EvalResult:
    report: MetricReport
    predictions: list[RigidTransform]
    chamfer_improved_fraction: float


def evaluate_model(model: ModelParams, samples: list[DatasetSample],
                   tags: dict | None = None) -> EvalResult:
    preds = []
    improved = 0
    for s in samples:
        out = register_pair(s.source, s.target, model)
        preds.append(out.transform)
        before = geom.chamfer(s.source, s.target)
        after = geom.chamfer(geom.apply_transform(out.transform, s.source), s.target)
        improved += after < before
    gts = [s.gt for s in samples]
    report = evaluate_poses(preds, gts, tags)
    return EvalResult(report, preds, improved / len(samples))


def evaluate_icp(samples: list[DatasetSample], init_spec: FeatureSpec | None = None,
                 tags: dict | None = None, k: int = 24) -> MetricReport:
    preds = []
    for s in samples:
        init = None
        if init_spec is not None:
            try:
                init = feature_match_init(s.source, s.target, init_spec, k)
            except ValueError:
                init = None
        preds.append(icp(s.source, s.target, init=init))
    return evaluate_poses(preds, [s.gt for s in samples], tags)


def corrupt_with_outliers(cloud: PointCloud, ratio_percent: float, rng: Rng) -> PointCloud:
    """Replace floor(ratio*N/100) random points with uniform unit-ball noise."""
    n = len(cloud)
    n_out = int(np.floor(ratio_percent * n / 100.0))
    if n_out == 0:
        return cloud
    pts = cloud.points.copy()
    u = rng.uniform(size=n)
    idx = np.argsort(u, kind="stable")[:n_out]
    pts[idx] = np.stack([rng.in_unit_ball() for _ in range(n_out)])
    return PointCloud(pts)


def outlier_sweep(model: ModelParams, samples: list[DatasetSample],
                  ratios: list[float], seed: int = 0) -> list[dict]:
    """Model-vs-ICP metric rows per outlier ratio, with monotonicity tags."""
    if any(not 0 <= r < 100 for r in ratios):
        raise ValueError("ratios must lie in [0, 100)")
    rows = []
    for ratio in ratios:
        rng = Rng(derive_seed(seed, "outliers", int(ratio * 100)))
        corrupted = [
            DatasetSample(corrupt_with_outliers(s.source, ratio, rng.spawn("src", i)),
                          corrupt_with_outliers(s.target, ratio, rng.spawn("tgt", i)),
                          s.gt, s.category, dict(s.tags, outlier_ratio=ratio))
            for i, s in enumerate(samples)
        ]
        model_eval = evaluate_model(model, corrupted, tags={"method": "model"})
        icp_eval = evaluate_icp(corrupted, tags={"method": "icp"})
        rows.append({"ratio": ratio, "model": model_eval.report, "icp": icp_eval})
    for metric in ("mae_rot_deg", "mae_trans"):
        for method in ("model", "icp"):
            vals = [getattr(r[method], metric) for r in rows]
            monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            for r in rows:
                r[f"{method}_{metric}_monotone"] = monotone
    return rows


@dataclass
class TimingReport:
    mean_ms: float
    std_ms: float
    repetitions: int


def timing(fn, repetitions: int = 5) -> TimingReport:
    """Wall-clock mean/std per call, in ms, after one warm-up call."""
    if repetitions < 3:
        raise ValueError("timing needs at least 3 repetitions")
    fn()  # warm-up
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return TimingReport(float(np.mean(times)), float(np.std(times)), repetitions)


def time_registration(model: ModelParams, n_points: int = 1024,
                      repetitions: int = 5, seed: int = 0) -> TimingReport:
    from .datagen import sample_transform, synth_shape
    rng = Rng(derive_seed(seed, "timing"))
    x = synth_shape(0, n_points, rng.spawn("shape"))
    y = geom.apply_transform(sample_transform("modelnet_style", rng.spawn("pose")), x)
    return timing(lambda: register_pair(x, y, model), repetitions)
