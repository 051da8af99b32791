from types import SimpleNamespace

import numpy as np
import pytest

from upcr import evalbench, features, geom
from upcr.datagen import DatasetSample, Protocol, build_benchmark, synth_shape
from upcr.encoder import EncoderConfig, init_params
from upcr.evalbench import MetricReport, bench_rows, evaluate_poses, feature_match_init, icp
from upcr.features import FeatureSpec
from upcr.geom import PointCloud, RigidTransform
from upcr.rng import Rng

from conftest import random_transform


def rot_z(deg):
    return geom.euler_to_matrix(np.deg2rad([0.0, 0.0, deg]))


# ---------------------------------------------------------------------------
# metrics


def test_rotation_metrics_exact_predictions():
    rng = Rng(1)
    poses = [random_transform(rng) for _ in range(5)]
    report = evaluate_poses(poses, poses)
    assert report.rmse_rot_deg == pytest.approx(0.0, abs=1e-9)
    assert report.mae_rot_deg == pytest.approx(0.0, abs=1e-9)


def test_rotation_metrics_hand_value():
    gt = [RigidTransform.identity()]
    pred = [RigidTransform(geom.euler_to_matrix(np.deg2rad([3.0, 4.0, 0.0])),
                           np.zeros(3))]
    report = evaluate_poses(pred, gt)
    assert report.mae_rot_deg == pytest.approx(7.0 / 3.0, abs=1e-6)
    assert report.rmse_rot_deg == pytest.approx(np.sqrt(25.0 / 3.0), abs=1e-6)


def test_rotation_metrics_order_invariant():
    rng = Rng(2)
    gts = [random_transform(rng) for _ in range(6)]
    preds = [random_transform(rng) for _ in range(6)]
    a = evaluate_poses(preds, gts)
    b = evaluate_poses(list(reversed(preds)), list(reversed(gts)))
    assert (a.rmse_rot_deg, a.mae_rot_deg) == pytest.approx((b.rmse_rot_deg, b.mae_rot_deg))


def test_translation_metrics_hand_value():
    gt = [RigidTransform.identity()]
    pred = [RigidTransform(np.eye(3), [0.3, 0.4, 0.0])]
    report = evaluate_poses(pred, gt)
    assert report.mae_trans == pytest.approx(0.7 / 3.0)
    assert report.rmse_trans == pytest.approx(np.sqrt(0.25 / 3.0))


def test_translation_metrics_homogeneous():
    rng = Rng(3)
    gts = [random_transform(rng) for _ in range(4)]
    preds = [RigidTransform(g.rotation, g.translation + rng.uniform(-0.1, 0.1, 3))
             for g in gts]
    r1 = evaluate_poses(preds, gts)
    scaled = [RigidTransform(g.rotation, g.translation + 3.0 * (p.translation - g.translation))
              for p, g in zip(preds, gts)]
    r2 = evaluate_poses(scaled, gts)
    assert r2.rmse_trans == pytest.approx(3.0 * r1.rmse_trans)
    assert r2.mae_trans == pytest.approx(3.0 * r1.mae_trans)


def test_metrics_length_mismatch():
    with pytest.raises(ValueError, match="need equal nonempty lists"):
        evaluate_poses([RigidTransform.identity()], [])
    with pytest.raises(ValueError, match="need equal nonempty lists"):
        evaluate_poses([], [])


def test_se3_mean_error_cases():
    ident = [RigidTransform.identity()]
    assert evaluate_poses(ident, ident).me_t == 0.0
    pred = [RigidTransform(rot_z(90.0), np.zeros(3))]
    assert evaluate_poses(pred, ident).me_t == pytest.approx(90.0)


@pytest.mark.parametrize("angle", [1e-10, 1e-7, np.pi - 1e-9],
                         ids=["1e-10", "1e-7", "pi-minus-1e-9"])
def test_se3_mean_error_resolves_angles_near_0_and_180_degrees(angle):
    # arccos((tr R - 1) / 2) read 0, 1.2% low and 180 degrees here
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    report = evaluate_poses([RigidTransform(rot, np.zeros(3))], [RigidTransform.identity()])
    assert report.me_t == pytest.approx(np.rad2deg(angle), rel=1e-12)


def test_se3_left_invariance():
    rng = Rng(4)
    gts = [random_transform(rng) for _ in range(8)]
    preds = [random_transform(rng) for _ in range(8)]
    base = evaluate_poses(preds, gts).me_t
    common = random_transform(rng)

    def left(t):
        return RigidTransform(common.rotation @ t.rotation,
                              common.rotation @ t.translation + common.translation)

    moved = evaluate_poses([left(p) for p in preds], [left(g) for g in gts]).me_t
    assert moved == pytest.approx(base, abs=1e-9)


def test_rmse_at_least_mae_on_reports():
    rng = Rng(5)
    gts = [random_transform(rng) for _ in range(10)]
    preds = [random_transform(rng) for _ in range(10)]
    report = evaluate_poses(preds, gts)
    assert report.rmse_rot_deg >= report.mae_rot_deg >= 0
    assert report.rmse_trans >= report.mae_trans >= 0
    geodesic = [np.rad2deg(np.arccos(np.clip((np.trace(g.rotation.T @ p.rotation) - 1) / 2,
                                             -1, 1)))
                + np.linalg.norm(g.rotation.T @ (p.translation - g.translation))
                for p, g in zip(preds, gts)]
    assert report.me_t == pytest.approx(np.mean(geodesic))
    assert report.count == 10


# ---------------------------------------------------------------------------
# icp


def test_icp_identity_on_identical_clouds():
    cloud = synth_shape(0, 128, Rng(6))
    pose = icp(cloud, cloud)
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(pose.translation, 0.0, atol=1e-10)


def test_icp_recovers_small_rotation():
    cloud = synth_shape(1, 256, Rng(7))
    gt = RigidTransform(rot_z(15.0), np.array([0.05, -0.02, 0.03]))
    moved = geom.apply_transform(gt, cloud)
    pose = icp(cloud, moved)
    rel = np.rad2deg(geom.euler_from_matrix(gt.rotation.T @ pose.rotation))
    assert np.abs(rel).max() < 0.1


def test_icp_struggles_at_large_rotation():
    rng = Rng(8)
    failures = 0
    for i in range(50):
        cloud = synth_shape(i % 40, 128, rng.spawn("shape", i))
        gt = RigidTransform(geom.euler_to_matrix(np.deg2rad([45.0, 45.0, 45.0])),
                            rng.uniform(-0.5, 0.5, 3))
        moved = geom.apply_transform(gt, cloud)
        pose = icp(cloud, moved)
        err = np.rad2deg(np.abs(geom.euler_from_matrix(gt.rotation.T @ pose.rotation)))
        failures += err.max() > 5.0
    assert failures >= 15  # at least 30 percent


def test_icp_never_worse_than_init():
    rng = Rng(9)
    for i in range(5):
        src = synth_shape(i, 96, rng.spawn("s", i))
        dst = geom.apply_transform(random_transform(rng, 60.0, 0.5), src)
        init = random_transform(rng, 30.0, 0.2)
        pose = icp(src, dst, init=init)
        _, d_init = evalbench._correspondence_stats(src.points, dst.points, init)
        _, d_final = evalbench._correspondence_stats(src.points, dst.points, pose)
        assert d_final <= d_init + 1e-12


# ---------------------------------------------------------------------------
# feature matching


def test_feature_match_identical_clouds_near_identity():
    cloud = synth_shape(2, 128, Rng(10))
    pose = feature_match_init(cloud, cloud, FeatureSpec("pfh"), k=12)
    np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-6)
    np.testing.assert_allclose(pose.translation, 0.0, atol=1e-6)


def test_feature_match_recovers_pose_majority():
    rng = Rng(11)
    hits = 0
    for i in range(50):
        cloud = synth_shape(i % 40, 128, rng.spawn("shape", i))
        gt = RigidTransform(random_transform(rng, 45.0, 0.5).rotation,
                            rng.uniform(-0.5, 0.5, 3))
        moved = geom.apply_transform(gt, cloud)
        try:
            pose = feature_match_init(cloud, moved, FeatureSpec("pfh"), k=12)
        except ValueError:
            continue
        rel = gt.rotation.T @ pose.rotation
        angle = np.rad2deg(np.arccos(np.clip((np.trace(rel) - 1) / 2, -1, 1)))
        hits += angle < 10.0
    assert hits >= 40  # at least 80 percent


def test_feature_match_output_in_so3():
    rng = Rng(12)
    a = synth_shape(3, 96, rng.spawn("a"))
    b = geom.apply_transform(random_transform(rng, 90.0, 1.0), a)
    pose = feature_match_init(a, b, FeatureSpec("pfh"), k=10)
    assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() < 1e-9


def test_feature_match_too_few_matches():
    # two far-apart random sets still produce mutual matches, so force the
    # failure with the smallest k on tiny clouds where descriptors collide
    with pytest.raises(features.MatchError, match="only 2 mutual matches"):
        feature_match_init(PointCloud(np.zeros((4, 3)) + np.eye(4, 3)),
                           PointCloud(100.0 + np.zeros((4, 3)) + np.eye(4, 3) * -1),
                           FeatureSpec("spfh"), k=3)


@pytest.mark.parametrize("call", [
    lambda a, b, spec: features.point_descriptor_table(a, spec, 8),
    lambda a, b, spec: feature_match_init(a, b, spec, k=8),
    lambda a, b, spec: evalbench.evaluate_icp([DatasetSample(a, b, RigidTransform.identity(), 0)],
                                              init_spec=spec, k=8),
], ids=["point_descriptor_table", "feature_match_init", "evaluate_icp"])
def test_matching_rejects_a_kind_without_a_histogram_table(call):
    # a plain ValueError, not a MatchError, which evaluate_icp would turn into an identity start
    a = synth_shape(3, 32, Rng(18))
    with pytest.raises(ValueError, match="'spfh' or 'pfh', got 'distance'") as err:
        call(a, geom.apply_transform(random_transform(Rng(19), 30.0, 0.5), a),
             FeatureSpec("distance"))
    assert not isinstance(err.value, features.MatchError)


def test_non_finite_descriptor_falls_back_to_plain_icp(monkeypatch):
    a = synth_shape(3, 48, Rng(14))
    gt = random_transform(Rng(15), 30.0, 0.5)
    sample = DatasetSample(a, geom.apply_transform(gt, a), gt, 3)

    def nan_histograms(pts, nrm, nbr):
        return np.full((len(pts), features.PFH_BINS ** 3), np.nan)

    monkeypatch.setattr(features, "pfh_table", nan_histograms)
    with pytest.raises(ValueError, match="non-finite"):
        features.point_descriptor_table(a, FeatureSpec("pfh"), 8)
    fallback = evalbench.evaluate_icp([sample], init_spec=FeatureSpec("pfh"), k=8)
    assert fallback == evalbench.evaluate_icp([sample])


@pytest.mark.parametrize("k, message", [(2, "normal estimation needs k >= 3"),
                                        (40, r"k must be in \[1, N-1\] = \[1, 31\], got 40")],
                         ids=["k-below-3", "k-above-cloud"])
def test_evaluate_icp_propagates_errors_other_than_a_failed_match(k, message):
    a = synth_shape(3, 32, Rng(16))
    gt = random_transform(Rng(17), 30.0, 0.5)
    sample = DatasetSample(a, geom.apply_transform(gt, a), gt, 3)
    with pytest.raises(ValueError, match=message):
        evalbench.evaluate_icp([sample], init_spec=FeatureSpec("pfh"), k=k)


# ---------------------------------------------------------------------------
# the bench report


def small_model():
    cfg = EncoderConfig(k=5, m=16, widths=(8, 16), head_widths=(8,))
    return init_params(cfg, FeatureSpec("distance"), "euler", 3)


def rows_of(rows, method):
    return [r for r in rows if r["method"] == method]


def test_bench_rows_zero_ratio_matches_base():
    model = small_model()
    _, test_s = build_benchmark(Protocol(setting="UPC"), 4, 4, 3, 32, seed=14)
    rows = bench_rows(model, test_s, [0.0, 10.0], False, 14)
    base = evalbench.evaluate_model(model, test_s)
    assert rows_of(rows, "model")[0]["mae_rot_deg"] == pytest.approx(base.report.mae_rot_deg)
    assert rows[0]["ratio"] == 0.0
    assert [(r["ratio"], r["method"]) for r in rows] == [
        (ratio, method) for ratio in (0.0, 10.0) for method in ("model", "identity", "icp")]
    identity = [{k: v for k, v in r.items() if k != "ratio"} for r in rows_of(rows, "identity")]
    assert identity[0] == identity[1] and identity[0]["mae_rot_monotone"]


def test_bench_rows_deterministic():
    model = small_model()
    _, test_s = build_benchmark(Protocol(setting="UPC"), 4, 4, 3, 32, seed=15)
    a = bench_rows(model, test_s, [0.0, 20.0], True, 15)
    b = bench_rows(model, test_s, [0.0, 20.0], True, 15)
    assert len(a) == 10
    for ra, rb in zip(a, b):
        assert ra["method"] == rb["method"]
        assert ra["mae_rot_deg"] == rb["mae_rot_deg"]


def test_bench_rows_ratio_bounds():
    model = small_model()
    _, test_s = build_benchmark(Protocol(setting="UPC"), 4, 4, 2, 32, seed=16)
    with pytest.raises(ValueError):
        bench_rows(model, test_s, [0.0, 100.0], False, 16)


def test_bench_rows_monotone_flag_follows_ascending_ratios(monkeypatch):
    maes = iter([3.0, 1.0, 2.0])  # the model's MAE at ratios 20, 0 and 10
    monkeypatch.setattr(evalbench, "evaluate_model", lambda model, s: SimpleNamespace(
        report=MetricReport(0.0, next(maes), 0.0, 0.0, 0.0, len(s)),
        chamfer_improved_fraction=0.0))
    _, test_s = build_benchmark(Protocol(setting="UPC"), 2, 2, 2, 32, seed=21)
    rows = rows_of(bench_rows(small_model(), test_s, [20.0, 0.0, 10.0], False, 21), "model")
    assert [r["mae_rot_deg"] for r in rows] == [3.0, 1.0, 2.0]
    assert all(r["mae_rot_monotone"] for r in rows)


def test_bench_rows_ratios_a_hundredth_apart_corrupt_differently(monkeypatch):
    # 0.56 * 100 and 0.57 * 100 both truncate to 56, so int() gave them one
    # stream; at 256 points each ratio replaces one point
    seen = []
    report = MetricReport(0.0, 0.0, 0.0, 0.0, 0.0, 2)
    monkeypatch.setattr(evalbench, "evaluate_model", lambda model, s: seen.append(s)
                        or SimpleNamespace(report=report, chamfer_improved_fraction=0.0))
    monkeypatch.setattr(evalbench, "evaluate_icp", lambda s: report)
    _, test_s = build_benchmark(Protocol(setting="UPC"), 2, 2, 2, 256, seed=18)
    bench_rows(small_model(), test_s, [0.56, 0.57], False, 18)
    assert evalbench.check_outlier_ratios([0.56, 0.57], 256) == [56, 57]
    for lo, hi, base in zip(*seen, test_s):
        for cloud in ("source", "target"):
            a, b, clean = (getattr(s, cloud).points for s in (lo, hi, base))
            assert np.any(a != clean, axis=1).sum() == np.any(b != clean, axis=1).sum() == 1
            assert a.tobytes() != b.tobytes()


def test_bench_rows_rejects_ratios_on_one_stream():
    _, test_s = build_benchmark(Protocol(setting="UPC"), 2, 2, 2, 32, seed=19)
    with pytest.raises(ValueError, match=r"ratios 0\.561 and 0\.559 round to one"):
        bench_rows(small_model(), test_s, [0.0, 0.561, 0.559], False, 19)
    assert evalbench.check_outlier_ratios([0.0, 10.0, 20.0, 10.0], 32) == [0, 1000, 2000, 1000]


def test_bench_rows_rejects_a_ratio_that_replaces_no_point():
    # 4% of 32 points replaces one, of 20 points none: the row would measure
    # the clean clouds, so the smallest cloud decides
    _, test_s = build_benchmark(Protocol(setting="UPC"), 2, 2, 2, 32, seed=20)
    assert bench_rows(small_model(), test_s, [0.0, 4.0], False, 20)[-1]["ratio"] == 4.0
    cropped = [DatasetSample(s.source, PointCloud(s.target.points[:20]), s.gt, s.category)
               for s in test_s]
    with pytest.raises(ValueError, match=r"^outlier ratio 4\.0 replaces no point of a "
                                         r"20-point cloud; use 0 or at least 5$"):
        bench_rows(small_model(), cropped, [0.0, 4.0], False, 20)
    assert evalbench.check_outlier_ratios([0.0, 5.0], 20) == [0, 500]


def test_corrupt_replaces_expected_count():
    rng = Rng(17)
    cloud = synth_shape(0, 100, rng.spawn("s"))
    out = evalbench.corrupt_with_outliers(cloud, 30.0, rng.spawn("o"))
    changed = np.any(out.points != cloud.points, axis=1).sum()
    assert changed == 30

