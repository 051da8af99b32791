"""Error metrics, ICP baselines, model evaluation, and the one report that
puts the model beside its baselines at each outlier ratio."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import geom
from .datagen import DatasetSample
from .encoder import ModelParams
from .features import FeatureSpec, MatchError, point_descriptor_table
from .geom import PointCloud, RigidTransform
from .rng import Rng, derive_seed
from .separation import register_pair
from .training import unsupervised_loss


@dataclass
class MetricReport:
    """Aggregate pose errors over a sample set. RMSE >= MAE always holds."""

    rmse_rot_deg: float
    mae_rot_deg: float
    rmse_trans: float
    mae_trans: float
    me_t: float
    count: int


def evaluate_poses(predictions, ground_truths) -> MetricReport:
    """Errors of paired poses, from each pair's relative rotation R_gt^T R_pred
    and offset t_pred - t_gt: RMSE and MAE over all 3n Euler angles (degrees)
    and over all 3n offset components, and ``me_t``, the mean geodesic angle
    (degrees) plus translation norm of the relative pose gt^-1 * pred. The
    angle is atan2(|v|, (tr R - 1) / 2), v the axial vector of R's skew part,
    which stays exact near 0 and 180 degrees, where arccos loses it."""
    if len(predictions) != len(ground_truths) or not predictions:
        raise ValueError(f"need equal nonempty lists, got {len(predictions)} "
                         f"vs {len(ground_truths)}")
    rot, trans, total = [], [], 0.0
    for pred, gt in zip(predictions, ground_truths):
        rel_rot = gt.rotation.T @ pred.rotation
        offset = pred.translation - gt.translation
        rot.extend(np.rad2deg(geom.euler_from_matrix(rel_rot)))
        trans.append(offset)
        axial = np.array([rel_rot[2, 1] - rel_rot[1, 2], rel_rot[0, 2] - rel_rot[2, 0],
                          rel_rot[1, 0] - rel_rot[0, 1]]) / 2.0
        angle = np.arctan2(np.linalg.norm(axial), (np.trace(rel_rot) - 1.0) / 2.0)
        total += np.rad2deg(angle) + float(np.linalg.norm(gt.rotation.T @ offset))
    rot, trans = np.array(rot), np.concatenate(trans)
    return MetricReport(float(np.sqrt(np.mean(rot ** 2))), float(np.mean(np.abs(rot))),
                        float(np.sqrt(np.mean(trans ** 2))), float(np.mean(np.abs(trans))),
                        total / len(predictions), len(predictions))


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
        init: RigidTransform | None = None) -> RigidTransform:
    """Point-to-point ICP with SVD pose fits; returns the best pose seen.

    Stops after 50 fits, or once the mean correspondence distance changes
    by less than 1e-7.

    The best pose (by mean correspondence distance) is tracked from the
    initial guess onward, so the result never degrades the initialization.
    """
    pose = init if init is not None else RigidTransform.identity()
    src = source.points
    dst = target.points
    nn, mean_d = _correspondence_stats(src, dst, pose)
    best_pose, best_d = pose, mean_d
    prev_d = mean_d
    for _ in range(50):
        pose = geom.fit_rigid(src, dst[nn])
        nn, mean_d = _correspondence_stats(src, dst, pose)
        if mean_d < best_d:
            best_pose, best_d = pose, mean_d
        if abs(prev_d - mean_d) < 1e-7:
            break
        prev_d = mean_d
    return best_pose


def feature_match_init(source: PointCloud, target: PointCloud,
                       spec: FeatureSpec, k: int = 24) -> RigidTransform:
    """Closed-form pose from mutual nearest neighbors in feature space; a
    MatchError if fewer than 3 points match mutually."""
    fs = point_descriptor_table(source, spec, k)
    ft = point_descriptor_table(target, spec, k)
    d2 = geom.sqdist_matrix(fs, ft)
    fwd = np.argmin(d2, axis=1)
    bwd = np.argmin(d2, axis=0)
    mutual = np.nonzero(bwd[fwd] == np.arange(len(fs)))[0]
    if mutual.size < 3:
        raise MatchError(f"feature_match_init: only {mutual.size} mutual matches "
                         "(need >= 3)")
    return geom.fit_rigid(source.points[mutual], target.points[fwd[mutual]])


# ---------------------------------------------------------------------------
# model evaluation and the bench report


@dataclass
class EvalResult:
    report: MetricReport
    chamfer_improved_fraction: float


def evaluate_model(model: ModelParams, samples: list[DatasetSample]) -> EvalResult:
    """Pose errors, and the share of pairs whose Chamfer distance (the
    training loss, off tape) the predicted transform lowers."""
    preds = []
    improved = 0
    for s in samples:
        out = register_pair(s.source, s.target, model)
        preds.append(out.transform)
        x, y = ad.constant(s.source.points), ad.constant(s.target.points)
        moved = ad.constant(geom.apply_transform(out.transform, s.source).points)
        improved += unsupervised_loss(moved, y).item() < unsupervised_loss(x, y).item()
    report = evaluate_poses(preds, [s.gt for s in samples])
    return EvalResult(report, improved / len(samples))


def evaluate_icp(samples: list[DatasetSample], init_spec: FeatureSpec | None = None,
                 k: int = 24) -> MetricReport:
    """ICP from feature matching if ``init_spec`` is given. A pair whose matching
    finds no pose (a MatchError) starts from the identity; other errors propagate."""
    preds = []
    for s in samples:
        init = None
        if init_spec is not None:
            try:
                init = feature_match_init(s.source, s.target, init_spec, k)
            except MatchError:
                init = None
        preds.append(icp(s.source, s.target, init=init))
    return evaluate_poses(preds, [s.gt for s in samples])


def _outlier_count(ratio_percent: float, n: int) -> int:
    return int(np.floor(ratio_percent * n / 100.0))


def corrupt_with_outliers(cloud: PointCloud, ratio_percent: float, rng: Rng) -> PointCloud:
    """Replace floor(ratio*N/100) random points with uniform unit-ball noise."""
    n = len(cloud)
    n_out = _outlier_count(ratio_percent, n)
    if n_out == 0:
        return cloud
    pts = cloud.points.copy()
    u = rng.uniform(size=n)
    idx = np.argsort(u, kind="stable")[:n_out]
    pts[idx] = np.stack([rng.in_unit_ball() for _ in range(n_out)])
    return PointCloud(pts)


def check_outlier_ratios(ratios: list[float], n: int) -> list[int]:
    """The corruption stream of each outlier ratio (a percentage),
    ``round(ratio * 100)``, for clouds of at least ``n`` points. Raises
    ValueError for a ratio outside [0, 100), for two ratios that round to
    one stream, which would corrupt the same clouds, and then for a non-zero
    ratio that replaces no point of an ``n``-point cloud, whose row would
    measure the clean clouds."""
    if any(not 0 <= r < 100 for r in ratios):
        raise ValueError("ratios must lie in [0, 100)")
    first: dict[int, float] = {}
    for ratio in ratios:
        other = first.setdefault(round(ratio * 100), ratio)
        if other != ratio:
            raise ValueError(f"ratios {other} and {ratio} round to one corruption stream")
    for ratio in ratios:
        if ratio > 0 and _outlier_count(ratio, n) == 0:
            raise ValueError(f"outlier ratio {ratio} replaces no point of a {n}-point cloud; "
                             f"use 0 or at least {100 / n:.6g}")
    return [round(r * 100) for r in ratios]


def bench_rows(model: ModelParams, samples: list[DatasetSample], ratios: list[float],
               baselines: bool, seed: int) -> list[dict]:
    """The one report of a model beside its baselines: per outlier ratio (a
    percentage) a row for the model, the identity pose (the floor a model
    has to beat) and plain ICP, and with ``baselines`` ICP started from PFH
    and from SPFH matches over the model's ``k`` neighbours. Each ratio
    corrupts the split from its own stream, and must replace a point of the
    smallest cloud (:func:`check_outlier_ratios`); ratio 0 leaves it as it
    is. Each row is flagged with whether its method's rotation MAE never
    falls as the ratio grows; ``chamfer_improved`` is NaN but for the model."""
    smallest = min(len(c) for s in samples for c in (s.source, s.target))
    gts = [s.gt for s in samples]
    rows = []
    for ratio, stream in zip(ratios, check_outlier_ratios(ratios, smallest)):
        rng = Rng(derive_seed(seed, "outliers", stream))
        split = [DatasetSample(corrupt_with_outliers(s.source, ratio, rng.spawn("src", i)),
                               corrupt_with_outliers(s.target, ratio, rng.spawn("tgt", i)),
                               s.gt, s.category)
                 for i, s in enumerate(samples)]
        ev = evaluate_model(model, split)
        reports = [("model", ev.report, ev.chamfer_improved_fraction),
                   ("identity", evaluate_poses([RigidTransform.identity()] * len(split), gts),
                    np.nan),
                   ("icp", evaluate_icp(split), np.nan)]
        if baselines:
            reports += [(f"icp+{kind}", evaluate_icp(split, FeatureSpec(kind), model.config.k),
                         np.nan) for kind in ("pfh", "spfh")]
        rows += [{"ratio": ratio, "method": method, **asdict(report), "chamfer_improved": chamfer}
                 for method, report, chamfer in reports]
    maes: dict[str, list] = {}
    for r in rows:
        maes.setdefault(r["method"], []).append((r["ratio"], r["mae_rot_deg"]))
    for r in rows:
        vals = [mae for _, mae in sorted(maes[r["method"]])]
        r["mae_rot_monotone"] = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    return rows
