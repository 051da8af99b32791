import dataclasses
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from upcr import autodiff as ad
from upcr import geom
from upcr.datagen import Protocol, build_benchmark
from upcr.encoder import EncoderConfig, init_params
from upcr.features import FeatureSpec
from upcr.geom import PointCloud
from upcr.rng import Rng
from upcr.training import (Checkpoint, OptimState, adam_step, fine_tune,
                           load_checkpoint, save_checkpoint, train,
                           unsupervised_loss, write_loss_curve)

CFG = EncoderConfig(k=5, m=16, layers=2, widths=(8, 16), head_widths=(8,))
SPEC = FeatureSpec("distance")


def tiny_dataset(n_train=6, n_test=3, points=24, seed=5):
    return build_benchmark(Protocol(setting="UPC"), 4, n_train, n_test, points, seed)


# ---------------------------------------------------------------------------
# loss


def test_loss_identical_clouds_exactly_zero():
    pts = Rng(1).uniform(-1, 1, (20, 3))
    loss = unsupervised_loss(ad.constant(pts), ad.constant(pts.copy()))
    assert loss.item() == 0.0


def test_loss_matches_offline_chamfer():
    rng = Rng(2)
    a = rng.uniform(-1, 1, (15, 3))
    b = rng.uniform(-1, 1, (11, 3))
    loss = unsupervised_loss(ad.constant(a), ad.constant(b)).item()
    ref = geom.chamfer(PointCloud(a), PointCloud(b))
    assert abs(loss - ref) <= 1e-12


def test_loss_gradient_single_point():
    tape = ad.Tape()
    x = tape.leaf(np.array([[0.0, 0.0, 0.0]]), requires_grad=True)
    loss = unsupervised_loss(x, ad.constant(np.array([[1.0, 0.0, 0.0]])))
    ad.backward(loss)
    # both chamfer directions pull the single point toward (1,0,0)
    np.testing.assert_allclose(x.grad, [[-4.0, 0.0, 0.0]])


def test_loss_rejects_empty_cloud():
    with pytest.raises(ad.ShapeError):
        unsupervised_loss(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# adam


def make_state(params, lr=1e-3):
    return OptimState.for_params(params, lr=lr)


def test_adam_zero_gradient_keeps_parameters():
    params = {"w": np.ones((2, 2))}
    state = make_state(params)
    adam_step(params, {"w": np.zeros((2, 2))}, state)
    np.testing.assert_array_equal(params["w"], np.ones((2, 2)))
    assert state.step == 1


def test_adam_first_step_magnitude():
    params = {"w": np.zeros(3)}
    state = make_state(params, lr=1e-3)
    adam_step(params, {"w": np.array([1.0, -2.0, 0.5])}, state)
    np.testing.assert_allclose(np.abs(params["w"]), 1e-3, atol=1e-9)
    np.testing.assert_array_equal(np.sign(params["w"]), [-1.0, 1.0, -1.0])


def test_adam_deterministic_runs():
    rng = Rng(3)
    grads = [{"w": rng.normal((4, 4))} for _ in range(10)]

    def run():
        params = {"w": np.ones((4, 4))}
        state = make_state(params)
        for g in grads:
            adam_step(params, g, state)
        return params["w"]

    assert np.array_equal(run(), run())


def test_adam_rejects_nan_gradient():
    params = {"w": np.ones(2)}
    state = make_state(params)
    bad = {"w": np.array([np.nan, 0.0])}
    with pytest.raises(ValueError, match="'w'"):
        adam_step(params, bad, state)
    np.testing.assert_array_equal(params["w"], np.ones(2))  # step aborted


# ---------------------------------------------------------------------------
# train / fine_tune


def test_train_zero_epochs_returns_initial_params():
    train_s, _ = tiny_dataset()
    res = train(CFG, SPEC, "euler", train_s, epochs=0, seed=9)
    fresh = init_params(CFG, SPEC, "euler", __import__("upcr.rng", fromlist=["derive_seed"]).derive_seed(9, "init"))
    for name, arr in fresh.tensors.items():
        np.testing.assert_array_equal(res.checkpoint.params[name], arr)
    assert res.loss_curve == []


def test_train_deterministic_curves():
    train_s, _ = tiny_dataset()
    r1 = train(CFG, SPEC, "euler", train_s, epochs=2, batch_size=4, seed=11)
    r2 = train(CFG, SPEC, "euler", train_s, epochs=2, batch_size=4, seed=11)
    assert r1.loss_curve == r2.loss_curve
    for name in r1.checkpoint.params:
        assert np.array_equal(r1.checkpoint.params[name], r2.checkpoint.params[name])


def test_train_loss_decreases_on_tiny_problem():
    # A dynamic graph rebuilds layers >= 1 from feature-space KNN off the
    # tape, so the Chamfer loss jumps wherever a neighbor set changes and one
    # small Adam step can raise it. Descent is only expected on the fixed
    # spatial graph; test_train_deterministic_curves covers the dynamic one.
    cfg = dataclasses.replace(CFG, dynamic_graph=False)
    train_s, _ = tiny_dataset(n_train=8, points=32)
    res = train(cfg, SPEC, "euler", train_s, epochs=8, batch_size=4, seed=13)
    assert res.loss_curve[-1] < res.loss_curve[0]


def test_finetune_lr_zero_keeps_parameters():
    train_s, test_s = tiny_dataset()
    res = train(CFG, SPEC, "euler", train_s, epochs=1, seed=15)
    pairs = [(s.source, s.target) for s in test_s]
    ft = fine_tune(res.checkpoint, pairs, epochs=2, lr=0.0, seed=15)
    for name in res.checkpoint.params:
        np.testing.assert_array_equal(ft.checkpoint.params[name],
                                      res.checkpoint.params[name])


def test_finetune_improves_or_holds_loss():
    train_s, _ = tiny_dataset(n_train=6, points=32)
    res = train(CFG, SPEC, "euler", train_s, epochs=4, batch_size=4, seed=17)
    pairs = [(s.source, s.target) for s in train_s]
    ft = fine_tune(res.checkpoint, pairs, epochs=4, lr=1e-4, batch_size=4, seed=17)
    assert ft.loss_curve[-1] <= res.loss_curve[-1] * 1.05


def test_finetune_touches_only_clouds():
    import inspect
    sig = inspect.signature(fine_tune)
    assert "pairs" in sig.parameters  # API takes bare cloud pairs, no samples


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_params(CFG, SPEC, "euler", 19)
    state = OptimState.for_params(model.tensors, lr=1e-3)
    state.step = 3
    ckpt = Checkpoint.from_model(model, optim=state, metadata={"epochs": 1})
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.rotation_mode == "euler"
    assert loaded.config.to_dict() == CFG.to_dict()
    assert loaded.metadata["epochs"] == 1
    for name, arr in ckpt.params.items():
        assert np.array_equal(loaded.params[name], arr)
    assert loaded.optim is not None and loaded.optim.step == 3
    for name in state.m:
        assert np.array_equal(loaded.optim.m[name], state.m[name])


def test_checkpoint_corrupt_header_rejected(tmp_path):
    model = init_params(CFG, SPEC, "euler", 21)
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, Checkpoint.from_model(model))
    blob = bytearray(Path(path).read_bytes())
    blob[2] ^= 0xFF  # flip a magic byte
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated_rejected(tmp_path):
    model = init_params(CFG, SPEC, "euler", 23)
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, Checkpoint.from_model(model))
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:len(blob) - 20])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply ``edit`` to a saved checkpoint's JSON header in place."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:])


@pytest.mark.parametrize("edit,message", [
    (lambda h: h.pop("spec"), "missing key 'spec'"),
    (lambda h: h["config"].update(bogus=1), "unexpected keyword argument 'bogus'"),
    (lambda h: h.update(config=[5, 16]), "config and spec must be JSON objects"),
], ids=["missing-key", "unknown-config-key", "non-dict-config"])
def test_checkpoint_malformed_header_rejected(tmp_path, edit, message):
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, Checkpoint.from_model(init_params(CFG, SPEC, "euler", 29)))
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=f"corrupt checkpoint header: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_unknown_rotation_mode_rejected(tmp_path):
    ckpt = Checkpoint.from_model(init_params(CFG, SPEC, "euler", 27))
    ckpt.rotation_mode = "spin"
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="'spin'; expected one of euler, quaternion, sixd, matrix"):
        load_checkpoint(path)


def test_checkpoint_config_guard(tmp_path):
    model = init_params(CFG, SPEC, "euler", 25)
    ckpt = Checkpoint.from_model(model)
    big = EncoderConfig(k=24, m=512, layers=5)
    with pytest.raises(ValueError, match="does not match"):
        ckpt.require_compatible(config=big)
    with pytest.raises(ValueError, match="rotation mode"):
        ckpt.require_compatible(rotation_mode="quaternion")
    ckpt.require_compatible(config=CFG, spec=SPEC, rotation_mode="euler")


def test_loss_curve_csv(tmp_path):
    path = str(tmp_path / "curve.csv")
    write_loss_curve(path, [0.5, 0.25])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("1,0.5")
