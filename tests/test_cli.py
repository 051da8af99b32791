import argparse
import json
import os
import re
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from upcr import cli, geom
from upcr.cli import main
from upcr.datagen import Protocol, build_benchmark, load_cloud, save_cloud, synth_shape
from upcr.encoder import EncoderConfig, init_params
from upcr.evalbench import evaluate_poses
from upcr.features import FEATURE_KINDS, FeatureSpec
from upcr.geom import RigidTransform
from upcr.rng import Rng
from upcr.training import load_checkpoint, save_checkpoint

from conftest import TINY, replace_header, rewrite_header, set_version, \
    tiny_model_file

# only train builds a model; every other command runs the checkpoint's
TINY_MODEL = ["--k", "5", "--m", "16"]
# train builds no test pairs, so it takes no --test-pairs
TINY_TRAIN = TINY[:TINY.index("--test-pairs")]
# bench resolves its configuration before it reads the model file
BENCH = ["bench", "--model", "m.upcr"]


def read(path):
    """A file's bytes, or a directory's sorted entries."""
    if os.path.isdir(path):
        return sorted(os.listdir(path))
    with open(path, "rb") as fh:
        return fh.read()


def test_help_lists_subcommands_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("gen", "train", "finetune", "register", "bench"):
        assert cmd in out
    # timing lives in perfbench/, and the outlier sweep is bench --ratios
    for gone in ("time", "sweep-outliers"):
        with pytest.raises(SystemExit) as exc:
            main([gone])
        assert exc.value.code == 2
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


@pytest.mark.parametrize("header", [[1, 2], None], ids=["list", "null"])
def test_non_object_checkpoint_header_is_error(tmp_path, capsys, header):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    replace_header(model, header)
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: {model}: corrupt checkpoint header: "
                   "the header must be a JSON object\n")


@pytest.mark.parametrize("m,head", [(2 ** 31, 8), (2 ** 32 - 1, 2 ** 32 - 1)],
                         ids=["16GiB", "int64-overflow"])
def test_checkpoint_oversized_dims_is_error(tmp_path, capsys, m, head):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    rewrite_header(model, lambda h: h["config"].update(m=m, widths=[8, m], head_widths=[head]))
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    assert f"error: {model}: checkpoint truncated: " in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["config"].update(k=5.5), "k and m must be positive ints, got (5.5, 16)"),
    (lambda h: h["spec"].update(pfh_bins=-1), "unexpected spec.pfh_bins"),
], ids=["float-k", "negative-pfh-bins"])
def test_checkpoint_count_that_is_not_a_positive_int_is_error(tmp_path, capsys, edit, message):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    rewrite_header(model, edit)
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {model}: corrupt checkpoint header: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda p: rewrite_header(p, lambda h: h["config"].update(dynamic_graph="false")),
     "corrupt checkpoint header: dynamic_graph must be a bool, got 'false'"),
    (lambda p: set_version(p, 2), "unsupported checkpoint version 2"),
    (lambda p: set_version(p, 3), "unsupported checkpoint version 3"),
    (lambda p: set_version(p, 4), "unsupported checkpoint version 4"),
    (lambda p: set_version(p, 5), "unsupported checkpoint version 5"),
    # feature kinds and rotation modes deleted for losing to distance(+spfh) and
    # euler after fine-tuning; since version 4 the header names no mode at all
] + [
    (lambda p, kind=kind: rewrite_header(p, lambda h: h["spec"].update(kind=kind)),
     f"corrupt checkpoint header: unknown feature kind '{kind}'; choose from {FEATURE_KINDS}")
    for kind in ("ppf", "distance+ppf", "distance+ppf+spfh")
] + [
    (lambda p, mode=mode: rewrite_header(p, lambda h: h.update(rotation_mode=mode)),
     "corrupt checkpoint header: unexpected key 'rotation_mode'")
    for mode in ("quaternion", "sixd", "matrix")
], ids=["string-dynamic-graph", "version-2", "version-3", "version-4", "version-5",
        "deleted-kind-ppf", "deleted-kind-distance+ppf", "deleted-kind-distance+ppf+spfh",
        "deleted-mode-quaternion", "deleted-mode-sixd",
        "deleted-mode-matrix"])
def test_checkpoint_the_loader_rejects_is_one_error_line(tmp_path, capsys, edit, message):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    edit(model)
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {model}: {message}\n"


def test_checkpoint_missing_tensor_is_error(tmp_path, capsys):
    """A payload one tensor short, the last."""
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    model = tiny_model_file(tmp_path)
    sizes = [8 * p.size for p in load_checkpoint(model).params.values()]
    Path(model).write_bytes(Path(model).read_bytes()[:-sizes[-1]])
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {model}: checkpoint truncated: a record needs "
                                       f"{sum(sizes)} bytes, {sum(sizes[:-1])} are left\n")


def test_checkpoint_non_finite_tensor_is_error(tmp_path, capsys):
    """The checkpoint is named, not the finite input clouds."""
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    cfg = EncoderConfig(k=5, m=16, widths=(8, 16), head_widths=(8,))
    ckpt = init_params(cfg, FeatureSpec("distance"), "euler", 3)
    ckpt.params["head.1.b"][0, 0] = np.nan
    model = str(tmp_path / "model.upcr")
    save_checkpoint(model, ckpt)
    rc = main(["register", "--source", a, "--target", a, "--model", model])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {model}: non-finite values in checkpoint tensor head.1.b\n")


@pytest.mark.parametrize("text", ["OFF\n\n", "ply\nformat\nelement vertex 3\nend_header\n"],
                         ids=["off-no-count", "ply-no-format-type"])
def test_corrupt_cloud_file_is_error(tmp_path, capsys, text):
    src = tmp_path / ("bad.off" if text.startswith("OFF") else "bad.ply")
    src.write_text(text)
    rc = main(["register", "--source", str(src), "--target", str(src),
               "--model", tiny_model_file(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"{src}:" in err


@pytest.mark.parametrize("small", ["source", "target"])
def test_register_names_the_cloud_with_too_few_points(tmp_path, capsys, small):
    """A 6-point cloud under a k = 8 checkpoint fails naming its flag and
    file, before --save-transformed or --out is written."""
    few, many = str(tmp_path / "few.xyz"), str(tmp_path / "many.xyz")
    save_cloud(geom.PointCloud(Rng(3).uniform(-1, 1, (6, 3))), few)
    save_cloud(synth_shape(1, 32, Rng(4)), many)
    source, target = (few, many) if small == "source" else (many, few)
    moved, out = tmp_path / "moved.xyz", tmp_path / "out"
    rc = main(["register", "--source", source, "--target", target,
               "--model", tiny_model_file(tmp_path, k=8),
               "--save-transformed", str(moved), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: --{small} {few} has 6 points; "
                                       "the checkpoint's k = 8 needs at least 9\n")
    assert not moved.exists() and not out.exists()


def test_register_binary_ply_names_its_format(tmp_path, capsys):
    """The header is ascii, the vertex rows are not UTF-8 text."""
    src = tmp_path / "scan.ply"
    src.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                    b"property float x\nproperty float y\nproperty float z\nend_header\n"
                    + np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5]], dtype="<f4").tobytes())
    rc = main(["register", "--source", str(src), "--target", str(src),
               "--model", tiny_model_file(tmp_path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {src}:2: only ascii PLY is supported\n")


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


@pytest.mark.parametrize("flags, message", [
    (["--save-transformed", "{moved_txt}"],
     "--save-transformed {moved_txt}: unsupported cloud format 'txt' (use xyz, off or ply)"),
    (["--save-transformed", "{moved}", "--out", "{a}"], "--out {a} exists and is not a directory"),
    # a later --target or --model overrides the one every case passes
    (["--save-transformed", "{a}"], "--save-transformed {a} would replace --source {a}"),
    (["--target", "{b}", "--save-transformed", "{dir}/./b.xyz"],
     "--save-transformed {dir}/./b.xyz would replace --target {b}"),
    (["--model", "{model_xyz}", "--save-transformed", "{model_xyz}"],
     "--save-transformed {model_xyz} would replace --model {model_xyz}"),
    (["--save-transformed", "{a}/moved.xyz"],
     "--save-transformed {a}/moved.xyz: {a} exists and is not a directory"),
    (["--save-transformed", "{dir_xyz}"], "--save-transformed {dir_xyz} is a directory"),
    (["--source", ""], "--source '': unsupported cloud format '' (use xyz, off or ply)"),
    (["--target", ""], "--target '': unsupported cloud format '' (use xyz, off or ply)"),
    (["--source", "{a_txt}"], "--source {a_txt}: unsupported cloud format 'txt' (use xyz, off or ply)"),
    (["--target", "{a_txt}"], "--target {a_txt}: unsupported cloud format 'txt' (use xyz, off or ply)"),
], ids=["save-transformed-txt", "out-is-a-file", "save-transformed-is-source",
        "save-transformed-is-target", "save-transformed-is-model",
        "save-transformed-under-a-file", "save-transformed-is-a-directory",
        "source-empty", "target-empty", "source-txt", "target-txt"])
def test_register_checks_output_paths_before_reading_inputs(tmp_path, capsys, flags, message):
    names = {"a": str(tmp_path / "a.xyz"), "b": str(tmp_path / "b.xyz"),
             "dir": str(tmp_path), "moved": str(tmp_path / "moved.xyz"),
             "moved_txt": str(tmp_path / "moved.txt"),
             "model_xyz": tiny_model_file(tmp_path, name="model.xyz"),
             "dir_xyz": str(tmp_path / "clouds.xyz"), "a_txt": str(tmp_path / "a.txt")}
    os.mkdir(names["dir_xyz"])
    save_cloud(synth_shape(1, 48, Rng(2)), names["a"])
    Path(names["a_txt"]).write_text(Path(names["a"]).read_text())  # a cloud in a .txt file
    save_cloud(synth_shape(2, 48, Rng(3)), names["b"])
    model = tiny_model_file(tmp_path)
    before = {name: read(tmp_path / name) for name in os.listdir(tmp_path)}
    rc = main(["register", "--source", names["a"], "--target", names["a"], "--model", model]
              + [f.format(**names) for f in flags])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message.format(**names)}\n"
    assert {name: read(tmp_path / name) for name in os.listdir(tmp_path)} == before


def test_register_save_transformed_creates_its_directory(tmp_path, capsys):
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(1, 48, Rng(2)), a)
    moved = tmp_path / "new" / "moved.xyz"
    rc = main(["register", "--source", a, "--target", a, "--model", tiny_model_file(tmp_path),
               "--save-transformed", str(moved)])
    assert rc == 0 and capsys.readouterr().err == ""
    assert len(moved.read_text().splitlines()) == 48


@pytest.mark.parametrize("argv", [
    # each run would fail another way if it started, so the --out check must come first
    ["gen", "--train-pairs", "0", "--test-pairs", "0"],
    ["train", "--train-pairs", "0"],
    ["finetune", "--model", "{nope}"],
    ["register", "--source", "{nope}", "--target", "{nope}", "--model", "{nope}"],
    ["bench", "--model", "{nope}"],
    ["bench", "--model", "{nope}", "--ratios", "0,10"],
], ids=["gen", "train", "finetune", "register", "bench", "bench-ratios"])
def test_out_that_is_a_file_rejected_before_the_command_runs(tmp_path, capsys, argv):
    out = tmp_path / "outfile"
    out.write_text("kept\n")
    argv = [a.format(nope=tmp_path / "nope") for a in argv]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: --out {out} exists and is not a directory\n")
    assert out.read_text() == "kept\n" and os.listdir(tmp_path) == ["outfile"]


@pytest.mark.parametrize("argv", [
    ["gen"] + TINY,
    ["train", "--epochs", "1"] + TINY_TRAIN + TINY_MODEL,
], ids=lambda argv: argv[0])
def test_out_under_a_file_rejected_before_the_command_runs(tmp_path, capsys, monkeypatch, argv):
    """``--out file/sub`` cannot be created when ``file`` is a regular file;
    the command must fail naming the flag before it builds a pair or trains."""
    parent = tmp_path / "file"
    parent.write_text("kept\n")
    monkeypatch.setattr(cli, "make_splits", lambda cfg: pytest.fail("pairs were built"))
    for out in (parent / "sub", parent / "sub" / "deeper"):
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: --out {out}: {parent} exists and is not a directory\n")
    assert parent.read_text() == "kept\n" and os.listdir(tmp_path) == ["file"]


def test_out_under_missing_directories_is_created(tmp_path):
    out = tmp_path / "new" / "deeper"
    assert main(["gen"] + TINY + ["--out", str(out)]) == 0
    assert (out / "manifest.txt").is_file()


def test_manifest_tells_inputs_with_one_file_name_apart(tmp_path):
    """Two inputs named x.xyz in different directories: each manifest line
    names its flag and path, so the source and target hashes are told apart."""
    a, b = tmp_path / "a" / "x.xyz", tmp_path / "b" / "x.xyz"
    for i, path in enumerate((a, b)):
        path.parent.mkdir()
        save_cloud(synth_shape(i, 32, Rng(i + 1)), str(path))
    model = tiny_model_file(tmp_path)
    out = tmp_path / "reg"
    assert main(["register", "--source", str(a), "--target", str(b), "--model", model,
                 "--out", str(out)]) == 0
    assert manifest_hashes(out) == {f"input --source {a}": cli._sha256(str(a)),
                                    f"input --target {b}": cli._sha256(str(b)),
                                    f"input --model {model}": cli._sha256(model)}
    assert cli._sha256(str(a)) != cli._sha256(str(b))


def test_finetune_into_its_model_file_rejected_before_pairs_are_built(tmp_path, capsys,
                                                                     monkeypatch):
    model = tiny_model_file(tmp_path)
    before = read(model)
    monkeypatch.setattr(cli, "make_splits", lambda cfg: pytest.fail("pairs were built"))
    rc = main(["finetune", "--model", model, "--out", str(tmp_path)] + TINY)
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: --out {tmp_path} would replace --model {model}\n")
    assert os.listdir(tmp_path) == ["model.upcr"] and read(model) == before


def test_gen_writes_dataset_and_manifest(tmp_path):
    out = str(tmp_path / "data")
    rc = main(["gen", "--out", out, "--seed", "3"] + TINY)
    assert rc == 0
    assert os.path.exists(os.path.join(out, "index.csv"))
    assert os.path.exists(os.path.join(out, "manifest.txt"))
    assert os.path.exists(os.path.join(out, "train", "0000_source.xyz"))
    manifest = Path(out, "manifest.txt").read_text()
    assert "seed = 3" in manifest and "sha256" in manifest


def test_gen_index_round_trips_the_ground_truth_poses(tmp_path):
    out = tmp_path / "data"
    argv = ["gen", "--out", str(out)] + TINY
    assert main(argv) == 0
    train_s, test_s = cli.make_splits(cli.resolve_config(cli.build_parser().parse_args(argv)))
    header, *rows = (line.split(",") for line in (out / "index.csv").read_text().splitlines())
    assert len(rows) == len(train_s) + len(test_s) == 6
    for row in map(dict, (zip(header, row) for row in rows)):
        gt = {"train": train_s, "test": test_s}[row["split"]][int(row["index"])].gt
        pose = RigidTransform([[float(row[f"r{r}{c}"]) for c in range(3)] for r in range(3)],
                              [float(row[f"t{c}"]) for c in range(3)])
        assert pose.rotation.tobytes() == gt.rotation.tobytes()
        assert pose.translation.tobytes() == gt.translation.tobytes()


def test_gen_partial_keep_alone_writes_partial_clouds(tmp_path):
    out = tmp_path / "o"
    assert main(["gen", "--partial-keep", "24", "--out", str(out)] + TINY) == 0
    manifest = Path(out, "manifest.txt").read_text()
    assert "protocol.partial_keep = 24" in manifest and "pairing" not in manifest
    for side in ("source", "target"):
        assert len(load_cloud(str(out / "train" / f"0000_{side}.xyz"))) == 24


@pytest.mark.parametrize("argv, cfg_text, message", [
    (["gen"], "[protocol]\npairing = partial\n",
     "{cfg}:2: unknown configuration key 'protocol.pairing'"),
    (["gen"], "[protocol]\nnoise_clip = 0.1\n",
     "{cfg}:2: unknown configuration key 'protocol.noise_clip'"),
    (["gen"], "[data]\npoints = 64\npoints = 32\n",
     "{cfg}:3: configuration key 'data.points' already set on line 2"),
    # the encoder's depth is the number of encoder.widths entries
    (["gen"], "[encoder]\nlayers = 2\n",
     "{cfg}:2: unknown configuration key 'encoder.layers'"),
], ids=["pairing", "noise-clip", "key-set-twice", "encoder-layers"])
def test_protocol_keys_that_would_be_ignored_rejected(tmp_path, capsys, argv, cfg_text,
                                                      message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "o"
    rc = main(argv + TINY + ["--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert f"error: {message.format(cfg=cfg)}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["finetune", "--model", "{model}"]], ids=["finetune"])
def test_diverged_fine_tune_warns(tmp_path, capsys, monkeypatch, argv):
    real = cli.fine_tune
    monkeypatch.setattr(cli, "fine_tune",
                        lambda *a, **kw: replace(real(*a, **kw), diverged=True))
    argv = [a.format(model=tiny_model_file(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")] + TINY) == 0
    out = capsys.readouterr().out
    assert "warning: fine-tuning diverged; checkpoint is the last finite state\n" in out
    assert "warning: training diverged" not in out


def test_train_whose_step_overflows_warns_and_writes_the_model(tmp_path, capsys):
    """At lr 1e200 the second epoch's forward overflows; the run rolls back
    to the first epoch's parameters instead of failing."""
    out = tmp_path / "o"
    rc = main(["train", "--out", str(out), "--epochs", "5", "--lr", "1e200",
               "--feature", "distance"] + TINY_TRAIN + TINY_MODEL)
    assert rc == 0
    assert "warning: training diverged; checkpoint is the last finite state\n" in (
        capsys.readouterr().out)
    model = load_checkpoint(str(out / "model.upcr"))
    assert model.metadata["diverged"] is True and model.metadata["epochs"] == 1


def test_bench_reports_the_identity_pose(tmp_path):
    out = tmp_path / "b"
    assert main(["bench", "--model", tiny_model_file(tmp_path), "--out", str(out)] + TINY) == 0
    header, *rows = (line.split(",") for line in (out / "metrics.csv").read_text().splitlines())
    rows = {row[header.index("method")]: dict(zip(header, row)) for row in rows}
    assert list(rows) == ["model", "identity", "icp"]
    _, test_s = build_benchmark(Protocol(), 4, 4, 2, 32, seed=7)  # TINY at the default seed
    floor = evaluate_poses([RigidTransform.identity()] * 2, [s.gt for s in test_s])
    assert rows["identity"]["mae_rot_deg"] == cli._fmt(floor.mae_rot_deg)
    assert rows["identity"]["mae_trans"] == cli._fmt(floor.mae_trans)
    assert rows["identity"]["chamfer_improved"] == "nan"


def test_bench_deterministic_csv(tmp_path, capsys):
    model = tiny_model_file(tmp_path)
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    args = ["bench", "--model", model, "--seed", "7"] + TINY
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert read(os.path.join(out1, "metrics.csv")) == read(os.path.join(out2, "metrics.csv"))


def test_train_then_register_smoke(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--out", out, "--epochs", "1", "--seed", "5"] + TINY_TRAIN + TINY_MODEL)
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


def test_finetune_keeps_checkpoint_kind(tmp_path):
    model = tiny_model_file(tmp_path, kind="pfh")
    out = tmp_path / "ft"
    rc = main(["finetune", "--model", model, "--out", str(out)] + TINY)
    assert rc == 0
    ckpt = load_checkpoint(str(out / "model.upcr"))
    assert ckpt.spec == FeatureSpec("pfh")
    assert ckpt.config == load_checkpoint(model).config


def test_finetune_rejects_non_object_metadata_before_out(tmp_path, capsys):
    model = tiny_model_file(tmp_path)
    rewrite_header(model, lambda h: h.update(metadata=[1, 2]))
    out = tmp_path / "ft"
    rc = main(["finetune", "--model", model, "--out", str(out)] + TINY)
    assert rc == 1
    assert (f"error: {model}: corrupt checkpoint header: config, spec and metadata "
            "must be JSON objects") in capsys.readouterr().err
    assert not out.exists()


def test_bench_ratios_csv(tmp_path):
    model = tiny_model_file(tmp_path)
    out = str(tmp_path / "bench")
    rc = main(["bench", "--model", model, "--out", out,
               "--ratios", "0,10"] + TINY)
    assert rc == 0
    lines = Path(out, "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("ratio,method")
    assert len(lines) == 7  # header + 2 ratios x 3 methods


def test_bench_ratio_zero_rows_equal_a_plain_bench(tmp_path):
    model = tiny_model_file(tmp_path)
    tables = []
    for name, ratios in (("plain", []), ("swept", ["--ratios", "0,10"])):
        out = tmp_path / name
        assert main(["bench", "--baselines", "--model", model, "--out", str(out)]
                    + ratios + TINY) == 0
        tables.append([line.split(",") for line in (out / "metrics.csv").read_text().splitlines()])
    plain, swept = tables
    assert plain[0] == swept[0] and plain[0][:2] == ["ratio", "method"]
    assert plain[0][-1] == "mae_rot_monotone"
    methods = ["model", "identity", "icp", "icp+pfh", "icp+spfh"]
    assert [row[:2] for row in swept[1:]] == [[r, m] for r in ("0", "10") for m in methods]
    # the monotone flag spans both ratios, so it alone may differ
    assert [row[:-1] for row in swept[1:6]] == [row[:-1] for row in plain[1:]]
    assert all(row[-1] == "True" for row in plain[1:])


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\n"
                   "[encoder]\nk = 6\nm = 16\nwidths = 8,16\n"
                   "[data]\npoints = 32\ncategories = 4\ntrain = 4\ntest = 2\n")
    ns = cli.build_parser().parse_args(["train", "--config", str(cfg),
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


def test_config_file_that_is_not_utf8_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 3\n[data]\npoints = 3\xff2\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, line, value", [
    ("encoder", "dynamic_graph = ture", "'ture'"), ("encoder", "k = abc", "'abc'"),
    ("train", "lr = fast", "'fast'")],
    ids=["bool", "int", "float"])
def test_config_file_unparsable_value_rejected(tmp_path, capsys, section, line, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{line}\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    key = f"{section}." + line.split()[0]
    assert f"error: configuration key {key!r}: cannot parse {value}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["head_widths = 8,x", "widths = 8,,16", "head_widths = 8,0"],
                         ids=["non-int", "empty-item", "zero"])
@pytest.mark.parametrize("command", ["gen", "train"])
def test_config_file_bad_width_list_rejected(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[encoder]\n{line}\n")
    argv = ["gen"] if command == "gen" else ["train"] + TINY_MODEL
    rc = main(argv + ["--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    key, value = (part.strip() for part in line.split("="))
    assert f"error: configuration key 'encoder.{key}': cannot parse {value!r}" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "train", "finetune", "bench"])
def test_config_file_last_width_must_equal_m(tmp_path, capsys, command):
    # a cross-key error is caught for every command that takes a config file,
    # not only for the one that builds an encoder
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[encoder]\nwidths = 8,16\n")
    argv = {"gen": ["gen"], "train": ["train"], "finetune": ["finetune", "--model", "m.upcr"],
            "bench": BENCH}[command]
    rc = main(argv + ["--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == "error: last width 16 must equal m=64\n"
    assert not (tmp_path / "o").exists()


def test_config_file_width_lists_parsed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[encoder]\nwidths = 8, 16\nhead_widths = 12\n")
    ns = cli.build_parser().parse_args(["train", "--out", "x", "--config", str(cfg),
                                        "--m", "16"])
    enc = cli.encoder_config(cli.resolve_config(ns))
    assert enc.widths == (8, 16) and enc.head_widths == (12,)
    defaults = cli.encoder_config(cli.resolve_config(cli.build_parser().parse_args(
        ["train", "--out", "x"])))
    assert defaults.widths == (16, 16, 32, 32, 64) and defaults.head_widths == (256, 128)


@pytest.mark.parametrize("text, expected", [
    ("OFF", False), ("no", False), ("0", False), ("False", False),
    ("ON", True), ("yes", True), ("1", True), ("True", True)])
def test_config_file_bool_spellings(tmp_path, text, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[encoder]\ndynamic_graph = {text}\n")
    ns = cli.build_parser().parse_args(["gen", "--config", str(cfg), "--out", "x"])
    assert cli.resolve_config(ns)["encoder.dynamic_graph"] is expected


def test_config_file_unknown_rotation_mode_rejected(tmp_path, capsys):
    """The head has one rotation decoder, so no key chooses one, not even euler."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[rotation]\nmode = euler\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:2: unknown configuration key 'rotation.mode'\n"
    assert not (tmp_path / "o").exists()


def test_config_file_unknown_protocol_setting_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[protocol]\nsetting = XYZ\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: setting must be one of ('UPC', 'UC', 'ND'), got 'XYZ'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, cfg_text, message", [
    (["train", "--batch", "0"], "",
     "'train.batch' must be >= 1, got 0"),
    (["train", "--lr", "-0.001"], "",
     "'train.lr' must be positive and finite, got -0.001"),
    (["train", "--lr", "0"], "",
     "'train.lr' must be positive and finite, got 0.0"),
    (["train", "--lr", "nan"], "",
     "'train.lr' must be positive and finite, got nan"),
    (["train"], "[train]\nlr = inf\n",
     "'train.lr' must be positive and finite, got inf"),
    (["train"], "[finetune]\nlr = -1e-4\n",
     "'finetune.lr' must be positive and finite, got -0.0001"),
    (["train", "--epochs", "-1"], "",
     "'train.epochs' must be >= 0, got -1"),
    (["train"], "[finetune]\nepochs = -2\n",
     "'finetune.epochs' must be >= 0, got -2"),
    (["gen", "--categories", "0"], "",
     "'data.categories' must be >= 1, got 0"),
    (["gen", "--setting", "UC", "--categories", "1"], "",
     "'data.categories' must be >= 2 under UC (train and test take disjoint halves), got 1"),
    (["gen", "--points", "8"], "",
     "'data.points' must be >= 16, got 8"),
    (["gen", "--train-pairs", "-3"], "",
     "'data.train' must be >= 0, got -3"),
    (["gen", "--test-pairs", "-1"], "",
     "'data.test' must be >= 0, got -1"),
], ids=["batch-0", "lr-negative", "lr-zero", "lr-nan", "lr-inf", "finetune-lr",
        "epochs", "finetune-epochs", "categories-0", "uc-categories-1", "points-8",
        "train-pairs", "test-pairs"])
def test_out_of_range_numbers_rejected_before_out_exists(tmp_path, capsys, argv,
                                                         cfg_text, message):
    out = tmp_path / "o"
    extra = []
    if cfg_text:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        extra = ["--config", str(cfg)]
    # tiny sizes first, so a missed check fails fast; the case's flags override them
    rc = main(argv[:1] + (TINY_TRAIN + TINY_MODEL + ["--epochs", "1"] if argv[0] == "train"
                          else TINY) + argv[1:] + extra + ["--out", str(out)])
    assert rc == 1
    assert f"error: configuration key {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_smallest_legal_numbers_accepted():
    ns = cli.build_parser().parse_args(
        ["train", "--batch", "1", "--epochs", "0", "--points", "16", "--categories", "2",
         "--setting", "UC", "--lr", "1e-9", "--out", "x"])
    cfg = cli.resolve_config(ns)
    assert (cfg["train.batch"], cfg["train.epochs"], cfg["data.points"]) == (1, 0, 16)


def test_preset_desk_and_paper():
    ns = cli.build_parser().parse_args(["gen", "--preset", "paper", "--out", "x"])
    resolved = cli.resolve_config(ns)
    assert resolved["encoder.m"] == 512
    assert resolved["data.points"] == 1024
    assert resolved["train.batch"] == 26


# ---------------------------------------------------------------------------
# which flags each command offers, and what its manifest records

_PAIR_FLAGS = {"--config", "--preset", "--seed", "--setting", "--regime",
               "--partial-keep", "--points", "--categories", "--train-pairs", "--test-pairs"}
OFFERED = {
    "gen": _PAIR_FLAGS | {"--out"},
    "train": _PAIR_FLAGS - {"--test-pairs"} | {"--k", "--m", "--feature",
                                               "--epochs", "--lr", "--batch", "--out"},
    "finetune": _PAIR_FLAGS | {"--model", "--out"},
    "register": {"--source", "--target", "--model", "--save-transformed", "--out"},
    "bench": _PAIR_FLAGS | {"--model", "--out", "--baselines", "--ratios"},
}


def subcommands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def subparser(name):
    return subcommands()[name]


def test_model_keys_are_exactly_the_config_and_spec_fields(tmp_path):
    """A model setting is a dataclass field with a key, never one without the
    other, and a checkpoint header stores exactly those fields: a deleted
    field leaves no key behind, and a new one cannot go unkeyed."""
    blob = Path(tiny_model_file(tmp_path)).read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    for section, cls, stored in (("encoder", EncoderConfig, "config"),
                                 ("feature", FeatureSpec, "spec")):
        keys = {key.split(".", 1)[1] for key in cli.KEYS if cli._section(key) == section}
        assert keys == {f.name for f in fields(cls)} == header[stored].keys(), section


def test_empty_out_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--out", ""] + TINY) == 1
    assert capsys.readouterr() == ("", "error: --out must name a directory, got ''\n")
    assert os.listdir(tmp_path) == []


def readme_cli_section():
    readme = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text(
        encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_section_names_exactly_the_offered_flags():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme_cli_section()))
    offered = {s for name in OFFERED for a in subparser(name)._actions
               for s in a.option_strings}
    assert documented - {"--help"} == offered - {"-h", "--help"}


def test_readme_cli_section_names_exactly_the_parsers_subcommands():
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("upcr ")}
    assert documented == set(subcommands())


def test_keys_with_choices_offer_at_least_two():
    """A key whose only legal value is its default is a knob nothing varies."""
    for key, k in cli.KEYS.items():
        assert not k.choices or len(k.choices) >= 2, key


@pytest.mark.parametrize("command", list(OFFERED))
def test_each_command_offers_exactly_the_flags_it_reads(command):
    actions = subparser(command)._actions
    flags = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
    assert flags == OFFERED[command]
    keyed = [a for a in actions if a.dest in cli.KEYS]
    assert {a.option_strings[0] for a in keyed} == flags & {
        k.flag for k in cli.KEYS.values()}
    for a in keyed:
        assert a.option_strings == [cli.KEYS[a.dest].flag]
        shown = re.search(r"\(default (.*)\)$", a.help).group(1)
        assert shown == str(cli.DEFAULTS[a.dest]), a.dest


@pytest.mark.parametrize("argv", [
    ["bench", "--model", "{model}", "--k", "7"],
    ["bench", "--model", "{model}", "--feature", "pfh"],
    ["bench", "--model", "{model}", "--ratios", "0,10", "--mode", "euler"],
    ["train", "--mode", "euler"],
    ["train", "--test-pairs", "2"],
    ["train", "--finetune"],
    ["finetune", "--model", "{model}", "--m", "16"],
    ["finetune", "--model", "{model}", "--epochs", "1"],
    ["train", "--layers", "2"],
    ["gen", "--pairing", "partial"],
    ["register", "--source", "{cloud}", "--target", "{cloud}", "--model", "{model}",
     "--seed", "1"],
    ["register", "--source", "{cloud}", "--target", "{cloud}", "--model", "{model}",
     "--config", "{cloud}"],
], ids=["bench-k", "bench-feature", "bench-ratios-mode", "train-mode", "train-test-pairs",
        "train-finetune", "finetune-m", "finetune-epochs", "train-layers", "gen-pairing",
        "register-seed", "register-config"])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    cloud = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), cloud)
    names = {"model": tiny_model_file(tmp_path), "cloud": cloud}
    argv = [a.format(**names) for a in argv]
    tiny = {"register": [], "train": TINY_TRAIN}.get(argv[0], TINY)
    with pytest.raises(SystemExit) as exc:
        main(argv + tiny + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def manifest_keys(out):
    lines = Path(out, "manifest.txt").read_text().splitlines()
    assert lines[0].startswith("command = ")
    return {line.split(" = ")[0] for line in lines[1:] if " sha256 = " not in line}


def test_manifests_record_only_the_sections_a_command_reads(tmp_path):
    model = tiny_model_file(tmp_path)
    a = str(tmp_path / "a.xyz")
    save_cloud(synth_shape(0, 32, Rng(1)), a)
    runs = {
        "bench": ["bench", "--model", model],
        "finetune": ["finetune", "--model", model],
        "bench-ratios": ["bench", "--model", model, "--ratios", "0,10"],
        "gen": ["gen"],
        "train": ["train", "--epochs", "0"] + TINY_MODEL,
    }
    for name, argv in runs.items():
        tiny = TINY_TRAIN if name == "train" else TINY
        assert main(argv + tiny + ["--out", str(tmp_path / name)]) == 0, name
    pairs = {key for key in cli.KEYS if cli._section(key) in ("seed", "protocol", "data")}
    assert manifest_keys(tmp_path / "bench") == pairs | {"--baselines", "--ratios"}
    assert manifest_keys(tmp_path / "bench-ratios") == pairs | {"--baselines", "--ratios"}
    assert manifest_keys(tmp_path / "gen") == pairs
    finetune = {"finetune.epochs", "finetune.lr"}
    assert manifest_keys(tmp_path / "finetune") == pairs | finetune | {"train.batch"}
    assert manifest_keys(tmp_path / "train") == set(cli.KEYS) - finetune - {"data.test"}
    bench = Path(tmp_path, "bench", "manifest.txt").read_text()
    assert not re.search(r"^(encoder|feature)\.", bench, re.M)
    b = str(tmp_path / "b.xyz")
    save_cloud(synth_shape(1, 32, Rng(2)), b)
    assert main(["register", "--source", a, "--target", b, "--model", model,
                 "--out", str(tmp_path / "reg")]) == 0
    lines = Path(tmp_path, "reg", "manifest.txt").read_text().splitlines()
    assert lines[0] == "command = register"
    assert [line.split(" sha256 = ")[0] for line in lines[1:]] == [
        f"input --source {a}", f"input --target {b}", f"input --model {model}"]


def test_bench_manifest_records_ratios_and_baselines(tmp_path):
    """Two reports on one checkpoint differ in their manifests' flag lines,
    not only in the hash of metrics.csv."""
    model = tiny_model_file(tmp_path)
    runs = {"plain": ["--ratios", "0"], "swept": ["--ratios", "0,10", "--baselines"]}
    lines = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert main(["bench", "--model", model, *flags] + TINY + ["--out", str(out)]) == 0
        lines[name] = set(Path(out, "manifest.txt").read_text().splitlines())
    plain, swept = lines["plain"] - lines["swept"], lines["swept"] - lines["plain"]
    assert {line for line in plain if " sha256 = " not in line} == {
        "--baselines = False", "--ratios = 0"}
    assert {line for line in swept if " sha256 = " not in line} == {
        "--baselines = True", "--ratios = 0,10"}


def manifest_hashes(out):
    """The (label, path) -> SHA-256 lines of a manifest, each kept once."""
    hashes = {}
    for line in Path(out, "manifest.txt").read_text().splitlines():
        if " sha256 = " in line:
            name, digest = line.split(" sha256 = ")
            assert name not in hashes, name
            hashes[name] = digest
    return hashes


@pytest.mark.parametrize("argv", [
    ["gen"] + TINY,
    ["train", "--epochs", "1"] + TINY_TRAIN + TINY_MODEL,
    ["finetune", "--model", "{model}"] + TINY,
    ["finetune", "--model", "{out}/trained.upcr"] + TINY,
    ["register", "--source", "{a}", "--target", "{b}", "--model", "{model}",
     "--save-transformed", "{out}/moved.xyz"],
    ["bench", "--model", "{model}"] + TINY,
    ["bench", "--model", "{model}", "--ratios", "0,10"] + TINY,
], ids=["gen", "train", "finetune", "finetune-into-its-model-dir", "register", "bench",
        "bench-ratios"])
def test_manifest_hashes_every_file_the_run_read_and_wrote(tmp_path, argv):
    out = tmp_path / "out"
    names = {"out": out, "model": tiny_model_file(tmp_path), "a": tmp_path / "a.xyz",
             "b": tmp_path / "b.xyz"}
    if "{out}/trained.upcr" in argv:  # --out already holds the input model
        out.mkdir()
        tiny_model_file(out, name="trained.upcr")
    save_cloud(synth_shape(0, 32, Rng(1)), str(names["a"]))
    save_cloud(synth_shape(1, 32, Rng(2)), str(names["b"]))
    argv = [a.format(**names) for a in argv]
    flags = [(a, argv[i + 1]) for i, a in enumerate(argv) if a in ("--source", "--target", "--model")]
    inputs = [p for _, p in flags]
    before = {f"input {flag} {p}": cli._sha256(p) for flag, p in flags}
    assert main(argv + ["--out", str(out)]) == 0
    inputs_under_out = {os.path.relpath(p, out) for p in inputs if p.startswith(str(out))}
    written = sorted(os.path.relpath(os.path.join(root, f), out)
                     for root, _, files in os.walk(out) for f in files)
    written = [p for p in written if p != "manifest.txt" and p not in inputs_under_out]
    hashes = manifest_hashes(out)
    assert {k: v for k, v in hashes.items() if k.startswith("input ")} == before
    outputs = {k.split(" ", 1)[1]: v for k, v in hashes.items() if k.startswith("output ")}
    assert sorted(outputs) == written
    for path, digest in outputs.items():
        assert cli._sha256(str(out / path)) == digest, path


def test_bench_baselines_take_k_from_the_checkpoint(tmp_path, monkeypatch):
    seen = []
    real = cli.evalbench.evaluate_icp

    def spy(samples, init_spec=None, k=24):
        seen.append((init_spec and init_spec.kind, k))
        return real(samples, init_spec=init_spec, k=k)

    monkeypatch.setattr(cli.evalbench, "evaluate_icp", spy)
    model = tiny_model_file(tmp_path)  # a k = 5 checkpoint; the table's default is 24
    rc = main(["bench", "--model", model, "--baselines", "--out", str(tmp_path / "b")] + TINY)
    assert rc == 0
    assert seen == [(None, 24), ("pfh", 5), ("spfh", 5)]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--train-pairs", "0", "--test-pairs", "0"],
     "gen has no pairs: data.train = 0 and data.test = 0"),
    (["train", "--train-pairs", "0"], "train has no pairs: data.train = 0"),
    (["finetune", "--model", "{model}", "--test-pairs", "0"],
     "finetune has no pairs: data.test = 0"),
    (["bench", "--model", "{model}", "--test-pairs", "0"], "bench has no pairs: data.test = 0"),
    (["bench", "--model", "{model}", "--ratios", "0,10", "--test-pairs", "0"],
     "bench has no pairs: data.test = 0"),
    (["finetune", "--model", "{nope}"], "cannot read model {nope}: "),
    (["bench", "--model", "{nope}"], "cannot read model {nope}: "),
    (["bench", "--model", "{nope}", "--ratios", "0,10"], "cannot read model {nope}: "),
    (["bench", "--model", "{model}", "--ratios", "10,abc"],
     "--ratios must be a comma list of percentages in [0, 100), got '10,abc'"),
    (["bench", "--model", "{model}", "--ratios", "100"],
     "--ratios must be a comma list of percentages in [0, 100), got '100'"),
    (["bench", "--model", "{model}", "--ratios", "nan"],
     "--ratios must be a comma list of percentages in [0, 100), got 'nan'"),
    (["bench", "--model", "{model}", "--ratios", "0.561,0.559"],
     "ratios 0.561 and 0.559 round to one corruption stream"),
    (["bench", "--model", "{model}", "--ratios", "0,3"],
     "outlier ratio 3.0 replaces no point of a 32-point cloud; use 0 or at least 3.125"),
    (["bench", "--model", "{model}", "--ratios", "4", "--partial-keep", "20"],
     "outlier ratio 4.0 replaces no point of a 20-point cloud; use 0 or at least 5"),
    (["train", "--k", "40"], "data.points = 32 must exceed encoder.k = 40"),
    (["train", "--partial-keep", "16", "--k", "20"],
     "protocol.partial_keep = 16 must exceed encoder.k = 20"),
    (["bench", "--model", "{model_k24}", "--points", "20"],
     "data.points = 20 must exceed the checkpoint's k = 24"),
    (["train", "--config", "{spfh_bins_0}"],
     "{spfh_bins_0}:2: unknown configuration key 'feature.spfh_bins'"),
    (["train", "--config", "{spfh_bins_-1}"],
     "{spfh_bins_-1}:2: unknown configuration key 'feature.spfh_bins'"),
    (["bench", "--model", "{model_k2}", "--baselines"],
     "--baselines estimates normals over the checkpoint's k = 2 neighbours, which needs k >= 3"),
    (["train", "--k", "2"],
     "feature.kind = distance+spfh estimates normals over encoder.k = 2 neighbours, "
     "which needs k >= 3"),
    (["gen", "--partial-keep", "-1"],
     "configuration key 'protocol.partial_keep' must be >= 0, got -1"),
    (["gen", "--partial-keep", "64", "--points", "64"],
     "configuration key 'protocol.partial_keep' must be below data.points = 64 "
     "(0 = full clouds), got 64"),
    (["gen", "--config", ""], "--config must name a file, got ''"),
    (["train", "--config", ""], "--config must name a file, got ''"),
], ids=["gen-no-pairs", "train-no-pairs", "finetune-no-pairs",
        "bench-no-pairs", "bench-ratios-no-pairs", "finetune-no-model", "bench-no-model",
        "bench-ratios-no-model", "ratios-not-a-number", "ratios-100", "ratios-nan", "ratios-one-stream",
        "ratios-below-one-point", "ratios-below-one-partial-point",
        "train-k-above-points", "train-k-above-partial-keep", "bench-checkpoint-k-above-points",
        "train-spfh-bins-0", "train-spfh-bins-negative", "bench-baselines-checkpoint-k-below-3",
        "train-normals-k-below-3", "gen-partial-keep-negative", "gen-partial-keep-not-below-points",
        "gen-config-empty", "train-config-empty"])
def test_inputs_checked_before_out_exists(tmp_path, capsys, argv, message):
    names = {"model": tiny_model_file(tmp_path), "nope": str(tmp_path / "nope.upcr"),
             "model_k24": tiny_model_file(tmp_path, k=24, name="model_k24.upcr"),
             "model_k2": tiny_model_file(tmp_path, k=2, name="model_k2.upcr")}
    for bins in (0, -1):
        names[f"spfh_bins_{bins}"] = str(tmp_path / f"spfh_bins_{bins}.cfg")
        Path(names[f"spfh_bins_{bins}"]).write_text(f"[feature]\nspfh_bins = {bins}\n")
    argv = [a.format(**names) for a in argv]
    out = tmp_path / "o"
    # tiny sizes first, so a missed check fails fast; the case's flags override them
    rc = main(argv[:1] + (TINY_TRAIN + TINY_MODEL + ["--epochs", "1"] if argv[0] == "train"
                          else TINY) + argv[1:] + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message.format(**names)}") and err.count("\n") == 1
    assert not out.exists()
