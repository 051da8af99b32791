"""Golden outputs: SHA-256 of seeded neighbor tables, of pose-error reports
and descriptor tables on seeded inputs, of seeded ND benchmark splits, of one
seeded desk registration, of one seeded desk training run (with its loss
curve), of the parameters and checkpoint files a seeded train and fine-tune
write and of the CSV that ``upcr bench --baselines --ratios`` writes (every
method at three outlier ratios), pinned so that a speed or format change
proves it left outputs unchanged.

A change that moves any of these on purpose says so and re-pins them.
"""

import hashlib
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from upcr import geom
from upcr.cli import main
from upcr.datagen import Protocol, build_benchmark
from upcr.encoder import EncoderConfig, init_params
from upcr.evalbench import evaluate_poses
from upcr.features import FeatureSpec, neighbor_feature_array, point_descriptor_table
from upcr.geom import PointCloud, RigidTransform
from upcr.separation import register_pair
from upcr.training import fine_tune, save_checkpoint, train

from conftest import TINY, tiny_model_file

# paper-size rows at the widths the global branch scans
GRAPH_KNN_SHA = {
    3: "d742dc2e7d518ba0ad340cb4ce35f73a988d6465ab090dce54fb24dedec2d126",
    64: "27cd7aaea9799c1c89689833f84d44e47683213752b045d1199439b9d1ba326b",
    128: "bb349b2f3d97d2b66dcf6d1c5a71b419c6675d7c11ab34de772f4e03221dc692",
    256: "43f78e720e42fa8cd2c0b4b041d8176e4fd2315badbfa0d7becb6aaefe95bdff",
}
POSE_REPORT_SHA = "d3f84cc2d57da55148849ed90a8c4c4b43f8c2e7d7f05319598fb9f177356ee9"
FEATURE_TABLE_SHA = "0d65d9b1e8f4c7fc3d3bb405e80fc1901ce2cde537ff2e9e2d268672e6b1a996"
REGISTER_SHA = "9517c347e981933dd2aaa70b30a96d08b3005750ef7b13bb872f3a302b8d8cef"
TRAIN_LOSS_HEX = ["0x1.caf8883c4e3efp-4", "0x1.74421b5ac79d0p-4"]
TRAIN_PARAMS_SHA = "df4c7ea877ab4c126ff2cb57703440b34cd9d84a2ae7e566bf5181a02402d23b"
# source and target bytes of every pair of both splits
ND_SPLIT_SHA = {
    "consistent": "8f652cb500724a092cac1c632f7c7a4c1e3337a265feb9f7a4d9e49ef549401f",
    "partial": "aa8fe68242394e783c1bcd41a97881eed9e35c073ac8827ae31f2fde60096f98",
}
CHECKPOINT_PARAMS_SHA = {
    "train": "fd79d185af3bbb5e37b53b46b9e6dd0f19e5d43c11c87727df88f5b790be8318",
    "fine_tune": "54519a72cf234be918814f1b6a40bf294ba91568d721d6f7fecb4fc44b0dcc5d",
}
CHECKPOINT_FILE_SHA = {
    "train": "cd2e3e2c2fc0faf6ba1296294848720b57d65232b8b5b9730bacd6417e54f6ec",
    "fine_tune": "5ea0bbc8ba8689b59866706e4107b778ab50f30018f29ec26a0011f49b63b6a7",
}
CSV_SHA = {
    "metrics.csv": "9ad01860de3896845c5b27c6bc71a240ae326a44dd02dae3ddfa11e0b2e9497d",
}


def sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("c", sorted(GRAPH_KNN_SHA))
def test_graph_knn_tables_pinned(c):
    rows = np.random.default_rng(1000 + c).normal(size=(1024, c))
    table = geom.graph_knn(rows, 24)
    assert table.dtype == np.int64 and table.shape == (1024, 24)
    assert sha(table) == GRAPH_KNN_SHA[c]


def test_pose_reports_pinned():
    """Reports on random poses, on exact predictions and at the Euler gimbal lock."""
    rng = np.random.default_rng(21)

    def pose(angles):
        return RigidTransform(geom.euler_to_matrix(angles), rng.normal(size=3))

    h = hashlib.sha256()
    for n in [1, 2, 3, 5, 8, 13] * 4:
        gts = [pose(rng.uniform(-np.pi, np.pi, 3)) for _ in range(n)]
        preds = [pose(rng.uniform(-np.pi, np.pi, 3)) for _ in range(n)]
        preds[0] = gts[0]
        preds[-1] = RigidTransform(gts[-1].rotation @ geom.euler_to_matrix([0.3, np.pi / 2, -0.2]),
                                   gts[-1].translation)
        h.update(np.array(astuple(evaluate_poses(preds, gts)), dtype=np.float64).tobytes())
    assert h.hexdigest() == POSE_REPORT_SHA


def test_feature_tables_pinned():
    """Neighbor features and descriptors of each histogram kind and of the
    combined kind that holds every part, PPF among them, on an anisotropic
    cloud and on a plane grid with duplicated points."""
    rng = np.random.default_rng(22)
    grid = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0), [0.0]), axis=-1).reshape(-1, 3)
    clouds = [PointCloud(rng.normal(size=(96, 3)) * np.array([1.0, 0.6, 0.3])),
              PointCloud(np.concatenate([grid, grid[:6]]))]
    specs = [FeatureSpec("distance+ppf+spfh"), FeatureSpec("pfh"), FeatureSpec("spfh")]
    tables = []
    for cloud in clouds:
        nbr = geom.knn(cloud, 10)
        for spec in specs:
            tables += [neighbor_feature_array(cloud, spec, nbr),
                       point_descriptor_table(cloud, spec, 10)]
    assert sha(*tables) == FEATURE_TABLE_SHA


@pytest.mark.parametrize("pairing", sorted(ND_SPLIT_SHA))
def test_nd_splits_pinned(pairing):
    """The noisy protocol's clouds, whole and cropped to partial scans."""
    proto = Protocol(setting="ND", partial_keep=48 if pairing == "partial" else 0)
    train_s, test_s = build_benchmark(proto, 4, 3, 2, 64, seed=5)
    clouds = [c.points for s in train_s + test_s for c in (s.source, s.target)]
    assert sha(*clouds) == ND_SPLIT_SHA[pairing]


def test_desk_register_pair_pinned():
    rng = np.random.default_rng(11)
    src = rng.normal(size=(256, 3)) * np.array([1.0, 0.6, 0.3])
    angle = 0.4
    rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                    [np.sin(angle), np.cos(angle), 0.0],
                    [0.0, 0.0, 1.0]])
    dst = src @ rot.T + np.array([0.1, -0.2, 0.05]) + 0.01 * rng.normal(size=src.shape)
    model = init_params(EncoderConfig(k=24, m=64), FeatureSpec("distance"), "euler", 7)
    res = register_pair(PointCloud(src), PointCloud(dst), model)
    got = sha(res.transform.rotation, res.transform.translation,
              res.canonical_x.points, res.canonical_y.points)
    assert got == REGISTER_SHA


def rotated_pairs(seed: int, count: int, points: int) -> list[SimpleNamespace]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        src = rng.normal(size=(points, 3)) * np.array([1.0, 0.6, 0.3])
        angle = rng.uniform(-0.5, 0.5)
        rot = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                        [np.sin(angle), np.cos(angle), 0.0],
                        [0.0, 0.0, 1.0]])
        dst = src @ rot.T + rng.uniform(-0.2, 0.2, 3) + 0.01 * rng.normal(size=src.shape)
        # training reads only the clouds
        pairs.append(SimpleNamespace(source=PointCloud(src), target=PointCloud(dst)))
    return pairs


def test_desk_training_pinned():
    pairs = rotated_pairs(12, 8, 256)
    res = train(EncoderConfig(k=24, m=64), FeatureSpec("distance"), "euler", pairs,
                epochs=2, lr=1e-3, batch_size=4, seed=0)
    assert [float(v).hex() for v in res.loss_curve] == TRAIN_LOSS_HEX
    params = res.checkpoint.params
    assert sha(*(params[name] for name in sorted(params))) == TRAIN_PARAMS_SHA


def test_checkpoint_files_pinned(tmp_path):
    """The parameters and the bytes on disk, with the graph and the feature
    kind off their defaults: a fixed graph and a combined histogram kind."""
    cfg = EncoderConfig(k=6, m=16, widths=(8, 16), head_widths=(8,),
                        dynamic_graph=False)
    spec = FeatureSpec("distance+ppf+spfh")
    pairs = rotated_pairs(13, 4, 48)
    res = train(cfg, spec, "euler", pairs, epochs=2, lr=1e-3, batch_size=2, seed=3)
    ft = fine_tune(res.checkpoint, [(p.source, p.target) for p in pairs], epochs=1,
                   lr=1e-4, batch_size=2, seed=4)
    assert not res.diverged and not ft.diverged
    params, files = {}, {}
    for name, result in (("train", res), ("fine_tune", ft)):
        p = result.checkpoint.params
        params[name] = sha(*(p[k] for k in sorted(p)))
        path = tmp_path / f"{name}.upcr"
        save_checkpoint(str(path), result.checkpoint)
        files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert params == CHECKPOINT_PARAMS_SHA
    assert files == CHECKPOINT_FILE_SHA


@pytest.mark.parametrize("argv, name", [
    (["bench", "--baselines", "--seed", "7", "--ratios", "0,10,20"], "metrics.csv"),
], ids=["bench"])
def test_cli_csv_files_pinned(tmp_path, argv, name):
    out = tmp_path / "out"
    assert main(argv + ["--model", tiny_model_file(tmp_path), "--out", str(out)] + TINY) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == CSV_SHA[name]
