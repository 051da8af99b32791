import os
from pathlib import Path

import numpy as np
import pytest

from upcr import cli
from upcr.cli import main
from upcr.datagen import save_cloud, synth_shape
from upcr.encoder import EncoderConfig, init_params
from upcr.features import FeatureSpec
from upcr.rng import Rng
from upcr.training import Checkpoint, save_checkpoint

TINY = ["--points", "32", "--categories", "4", "--train-pairs", "4",
        "--test-pairs", "2", "--k", "5", "--m", "16", "--layers", "2"]


def tiny_model_file(tmp_path, mode="euler"):
    cfg = EncoderConfig(k=5, m=16, layers=2, widths=(8, 16), head_widths=(8,))
    model = init_params(cfg, FeatureSpec("distance"), mode, 3)
    path = str(tmp_path / "model.upcr")
    save_checkpoint(path, Checkpoint.from_model(model))
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_help_lists_subcommands_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("gen", "train", "finetune", "register", "bench",
                "sweep-outliers", "time"):
        assert cmd in out
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    assert "--epochs" in out and "default" in out


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_model_file_is_error_with_path(tmp_path, capsys):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    rc = main(["register", "--source", a, "--target", a,
               "--model", str(tmp_path / "missing.upcr")])
    assert rc == 1
    assert "missing.upcr" in capsys.readouterr().err


def test_corrupt_checkpoint_header_is_error(tmp_path, capsys):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    blob = Path(model).read_bytes()
    Path(model).write_bytes(blob.replace(b'"spec"', b'"spek"', 1))
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "corrupt checkpoint header" in err


def test_register_self_prints_identity(tmp_path, capsys):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(1, 48, Rng(2)), a)
    model = tiny_model_file(tmp_path)
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 0
    rows = [list(map(float, line.split()))
            for line in capsys.readouterr().out.strip().splitlines()]
    mat = np.array(rows)
    assert mat.shape == (3, 4)
    np.testing.assert_allclose(mat[:, :3], np.eye(3), atol=1e-9)
    np.testing.assert_allclose(mat[:, 3], 0.0, atol=1e-9)


def test_gen_writes_dataset_and_manifest(tmp_path):
    out = str(tmp_path / "data")
    rc = main(["gen", "--out", out, "--seed", "3"] + TINY)
    assert rc == 0
    assert os.path.exists(os.path.join(out, "index.csv"))
    assert os.path.exists(os.path.join(out, "manifest.txt"))
    assert os.path.exists(os.path.join(out, "train", "0000_source.xyz"))
    manifest = Path(out, "manifest.txt").read_text()
    assert "seed = 3" in manifest and "sha256" in manifest


def test_bench_deterministic_csv(tmp_path, capsys):
    model = tiny_model_file(tmp_path)
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    args = ["bench", "--model", model, "--seed", "7"] + TINY
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(os.path.join(out2, "metrics.csv"))


def test_train_then_register_smoke(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--out", out, "--epochs", "1", "--seed", "5"] + TINY)
    assert rc == 0
    model = os.path.join(out, "model.upcr")
    assert os.path.exists(model)
    assert os.path.exists(os.path.join(out, "loss_curve.csv"))
    assert "model written" in capsys.readouterr().out

    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(4)), a)
    moved = str(tmp_path / "moved.xyz")
    rc = main(["register", "--source", a, "--target", a, "--model", model,
               "--save-transformed", moved, "--out", str(tmp_path / "reg")])
    assert rc == 0
    assert os.path.exists(moved)
    assert os.path.exists(os.path.join(str(tmp_path / "reg"), "manifest.txt"))


def test_finetune_roundtrip(tmp_path):
    model = tiny_model_file(tmp_path)
    out = str(tmp_path / "ft")
    rc = main(["finetune", "--model", model, "--out", out, "--seed", "5"] + TINY)
    assert rc == 0
    assert os.path.exists(os.path.join(out, "model.upcr"))


def test_finetune_mode_mismatch_rejected(tmp_path, capsys):
    model = tiny_model_file(tmp_path, mode="quaternion")
    rc = main(["finetune", "--model", model, "--out", str(tmp_path / "x"),
               "--mode", "euler"] + TINY)
    assert rc == 1
    assert "rotation mode" in capsys.readouterr().err


def test_sweep_outliers_csv(tmp_path):
    model = tiny_model_file(tmp_path)
    out = str(tmp_path / "sweep")
    rc = main(["sweep-outliers", "--model", model, "--out", out,
               "--ratios", "0,10"] + TINY)
    assert rc == 0
    lines = Path(out, "outlier_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("ratio,method")
    assert len(lines) == 5  # header + 2 ratios x 2 methods


def test_time_command(tmp_path, capsys):
    rc = main(["time", "--features", "distance", "--points", "48", "--reps", "3",
               "--k", "5", "--m", "16", "--layers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean_ms" in out and "distance" in out


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\n"
                   "[encoder]\nk = 6\nm = 16\nlayers = 2\n"
                   "[data]\npoints = 32\ncategories = 4\ntrain = 4\ntest = 2\n")
    ns = cli.build_parser().parse_args(["gen", "--config", str(cfg),
                                        "--out", "x", "--k", "7"])
    resolved = cli.resolve_config(ns)
    assert resolved["encoder.k"] == 7      # flag beats file
    assert resolved["encoder.m"] == 16     # file beats default
    assert resolved["data.points"] == 32
    assert resolved["seed"] == 9


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("typo = 1\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown configuration key" in capsys.readouterr().err


def test_config_file_unknown_rotation_mode_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[rotation]\nmode = spin\n")
    rc = main(["time", "--config", str(cfg), "--features", "distance", "--points", "48",
               "--reps", "3", "--k", "5", "--m", "16", "--layers", "2"])
    assert rc == 1
    assert "expected one of euler, quaternion, sixd, matrix" in capsys.readouterr().err


def test_preset_desk_and_paper():
    ns = cli.build_parser().parse_args(["gen", "--preset", "paper", "--out", "x"])
    resolved = cli.resolve_config(ns)
    assert resolved["encoder.m"] == 512
    assert resolved["data.points"] == 1024
    assert resolved["train.batch"] == 26
