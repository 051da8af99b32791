"""Command-line entry point.

Subcommands: gen, train, finetune, register, bench, sweep-outliers.
``KEYS`` declares each configuration key once: its default, its flag (none
if only a ``--config`` file sets it), its help, choices and smallest value.
A key resolves from its default (or ``--preset``), then an optional
``--config`` file (flat ``key = value`` lines with ``[section]`` headers),
then its flag. ``COMMANDS`` gives the sections whose flags each subcommand
offers and those its manifest records: ``train`` all; ``gen``, ``bench``
and ``sweep-outliers`` the seed, protocol and data that build their pairs;
``finetune`` the same, and it records the ``train`` and ``finetune`` keys it
also reads; ``register`` none. A command that loads a checkpoint runs the
encoder config and feature kind stored in it. A ``--config`` file may hold
any key, and each one it holds is checked. Every command checks its inputs
before ``--out`` exists, exiting 1 with ``error: ...``; ``register`` checks
its output paths before it reads an input.
A manifest holds the command, the recorded keys and the SHA-256 of each
input and output.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import asdict
from typing import NamedTuple

from . import evalbench, geom
from .datagen import PAIRINGS, REGIMES, SETTINGS, Protocol, build_benchmark, cloud_format, \
    load_cloud, save_cloud
from .encoder import EncoderConfig
from .features import FEATURE_KINDS, FeatureSpec
from .separation import register_pair
from .training import fine_tune, load_checkpoint, save_checkpoint, train, write_loss_curve


class Key(NamedTuple):
    default: object
    flag: str | None = None   # None: only a --config file sets the key
    help: str = ""
    choices: tuple = ()
    low: int | None = None    # smallest legal value; the library would fail later, or not at all


KEYS = {
    "encoder.k": Key(24, "--k", "neighbor count"),
    "encoder.m": Key(64, "--m", "representation width"),
    "encoder.layers": Key(5, "--layers", "encoder depth"),
    "encoder.widths": Key(()),          # comma list; empty = preset for (layers, m)
    "encoder.dynamic_graph": Key(True),
    "encoder.head_widths": Key((256, 128)),
    "feature.kind": Key("distance+spfh", "--feature", "pose-invariant feature kind",
                        FEATURE_KINDS),
    "protocol.setting": Key("UPC", "--setting", "dataset setting", SETTINGS),
    "protocol.pairing": Key("consistent", "--pairing", "pair construction", PAIRINGS),
    "protocol.regime": Key("modelnet_style", "--regime", "pose sampling regime", REGIMES),
    "protocol.partial_keep": Key(0, "--partial-keep",
                                 "points kept by partial scans; 0 = consistent clouds"),
    "data.points": Key(256, "--points", "points per cloud", low=16),
    "data.categories": Key(40, "--categories", "shape categories", low=1),
    "data.train": Key(200, "--train-pairs", "training pairs", low=0),
    "data.test": Key(50, "--test-pairs", "test pairs", low=0),
    "train.epochs": Key(30, "--epochs", "training epochs", low=0),
    "train.lr": Key(1e-3, "--lr", "learning rate"),
    "train.batch": Key(8, "--batch", "batch size", low=1),
    "finetune.epochs": Key(10, low=0),
    "finetune.lr": Key(1e-4),
    "seed": Key(7, "--seed", "master seed"),
}

DEFAULTS = {key: k.default for key, k in KEYS.items()}


def _section(key: str) -> str:
    return key.split(".", 1)[0]


SECTIONS = tuple(dict.fromkeys(map(_section, KEYS)))
_PAIRS = ("seed", "protocol", "data")  # the sections that build a command's pairs

# subcommand: (sections whose flags it offers, sections its manifest records)
COMMANDS = {
    "gen": (_PAIRS, _PAIRS),
    "train": (SECTIONS, SECTIONS),
    "finetune": (_PAIRS, _PAIRS + ("train", "finetune")),
    "register": ((), ()),
    "bench": (_PAIRS, _PAIRS),
    "sweep-outliers": (_PAIRS, _PAIRS),
}

PRESETS = {
    "desk": {"encoder.m": 64, "data.points": 256, "train.batch": 8},
    "paper": {"encoder.m": 512, "data.points": 1024, "train.batch": 26,
              "train.epochs": 500, "finetune.epochs": 200},
}


class CliError(Exception):
    """Fatal runtime error; message printed, exit status 1."""


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``[section]`` prefixes following keys.
    Values come back parsed to their key's type."""
    values = {}
    section = ""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            full = f"{section}.{key}" if section else key
            if full not in DEFAULTS:
                raise CliError(f"{path}:{lineno}: unknown configuration key {full!r}")
            values[full] = _coerce(full, val)
    return values


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, value: str):
    default = DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            items = tuple(int(w) for w in value.split(",")) if value else ()
            if any(w < 1 for w in items):
                raise ValueError
            return items
        if isinstance(default, bool):
            return _BOOLS[value.lower()]
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
    except (KeyError, ValueError):
        expected = ("1/true/yes/on or 0/false/no/off" if isinstance(default, bool)
                    else "a comma list of positive ints" if isinstance(default, tuple)
                    else f"a {type(default).__name__}")
        raise CliError(f"configuration key {key!r}: cannot parse {value!r}; "
                       f"expected {expected}") from None
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset:
        cfg.update(PRESETS[preset])
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in KEYS:  # each flag's dest is its key, and argparse already typed it
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    # range, cross-key and name checks for every command, before any output exists
    _check_ranges(cfg)
    encoder_config(cfg)
    if feature_spec(cfg).needs_normals and cfg["encoder.k"] < 3:
        raise CliError(f"feature.kind = {cfg['feature.kind']} estimates normals over "
                       f"encoder.k = {cfg['encoder.k']} neighbours, which needs k >= 3")
    protocol(cfg)
    return cfg


def _check_ranges(cfg: dict) -> None:
    for key, k in KEYS.items():
        if k.low is not None and cfg[key] < k.low:
            raise CliError(f"configuration key {key!r} must be >= {k.low}, got {cfg[key]}")
    keep, points = cfg["protocol.partial_keep"], cfg["data.points"]
    if cfg["protocol.pairing"] == "partial" and not 1 <= keep < points:
        raise CliError("configuration key 'protocol.partial_keep' must be in "
                       f"[1, data.points - 1] = [1, {points - 1}] under partial pairing, "
                       f"got {keep}")
    if cfg["protocol.setting"] == "UC" and cfg["data.categories"] < 2:
        raise CliError("configuration key 'data.categories' must be >= 2 under UC "
                       f"(train and test take disjoint halves), got {cfg['data.categories']}")
    for key in ("train.lr", "finetune.lr"):
        if not 0.0 < cfg[key] < math.inf:  # NaN fails both comparisons
            raise CliError(f"configuration key {key!r} must be positive and finite, "
                           f"got {cfg[key]}")


def encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(k=cfg["encoder.k"], m=cfg["encoder.m"],
                         layers=cfg["encoder.layers"], widths=cfg["encoder.widths"] or None,
                         dynamic_graph=cfg["encoder.dynamic_graph"],
                         head_widths=cfg["encoder.head_widths"])


def feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(cfg["feature.kind"])


def protocol(cfg: dict) -> Protocol:
    return Protocol(setting=cfg["protocol.setting"], pairing=cfg["protocol.pairing"],
                    pose_regime=cfg["protocol.regime"],
                    partial_keep=cfg["protocol.partial_keep"] or None)


def make_splits(cfg: dict):
    return build_benchmark(protocol(cfg), cfg["data.categories"],
                           cfg["data.train"], cfg["data.test"],
                           cfg["data.points"], cfg["seed"])


def _need_pairs(cfg: dict, command: str, *keys: str) -> None:
    """Reject a command whose split is empty, before ``--out`` exists."""
    if sum(cfg[key] for key in keys) < 1:
        raise CliError(f"{command} has no pairs: " + " and ".join(f"{key} = 0" for key in keys))


def _points_key(cfg: dict) -> str:
    """The key that sets the point count of each cloud of a command's pairs."""
    return "protocol.partial_keep" if cfg["protocol.pairing"] == "partial" else "data.points"


def _need_points_above_k(cfg: dict, k: int, what: str) -> None:
    """Reject clouds too small for a k-neighbour graph, before ``--out`` exists."""
    key = _points_key(cfg)
    if cfg[key] <= k:
        raise CliError(f"{key} = {cfg[key]} must exceed {what} = {k}")


# ---------------------------------------------------------------------------
# manifest and table helpers


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir: str, cfg: dict, command: str,
                   inputs: list[str] = (), outputs: list[str] = ()) -> str:
    """The command, the keys of the sections it records, and the file hashes."""
    path = os.path.join(out_dir, "manifest.txt")
    recorded = COMMANDS[command][1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(k for k in cfg if _section(k) in recorded):
            val = cfg[key]
            fh.write(f"{key} = {','.join(map(str, val)) if isinstance(val, tuple) else val}\n")
        for label, paths in (("input", inputs), ("output", outputs)):
            for p in paths:
                fh.write(f"{label} {os.path.basename(p)} sha256 = {_sha256(p)}\n")
    return path


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def write_csv(path: str, rows: list[dict]) -> None:
    keys = list(rows[0].keys())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[k]) for k in keys) + "\n")


def print_table(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    cells = [[_fmt(r[k]) for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for c in cells:
        print("  ".join(v.ljust(w) for v, w in zip(c, widths)))


def _ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _read(load, path: str, what: str):
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from None


def _model_and_test_split(args, cfg: dict):
    """The checkpoint and the test split that a checkpoint command runs on."""
    _need_pairs(cfg, args.command, "data.test")
    model = _read(load_checkpoint, args.model, "model")
    _need_points_above_k(cfg, model.config.k, "the checkpoint's k")
    _, test_s = make_splits(cfg)
    return model, test_s


def _parse_ratios(text: str) -> list[float]:
    try:
        ratios = [float(r) for r in text.split(",")]
        if all(0 <= r < 100 for r in ratios):  # NaN fails the comparison
            return ratios
    except ValueError:
        pass
    raise CliError(f"--ratios must be a comma list of percentages in [0, 100), got {text!r}")


# ---------------------------------------------------------------------------
# subcommands


def _write_fine_tuned(out: str, model, test_s, cfg: dict) -> str:
    """Fine-tune ``model`` on the test pairs into ``out``/model.upcr; returns
    the path of the loss curve written beside it."""
    ft = fine_tune(model, [(s.source, s.target) for s in test_s],
                   epochs=cfg["finetune.epochs"], lr=cfg["finetune.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    save_checkpoint(os.path.join(out, "model.upcr"), ft.checkpoint)
    curve_path = os.path.join(out, "finetune_curve.csv")
    write_loss_curve(curve_path, ft.loss_curve)
    _warn_if_diverged(ft, "fine-tuning")
    return curve_path


def _warn_if_diverged(result, what: str) -> None:
    if result.diverged:
        print(f"warning: {what} diverged; checkpoint is the last finite state")


def cmd_gen(args) -> int:
    cfg = resolve_config(args)
    _need_pairs(cfg, "gen", "data.train", "data.test")
    train_s, test_s = make_splits(cfg)
    out = _ensure_dir(args.out)
    index_rows = []
    for split, samples in (("train", train_s), ("test", test_s)):
        _ensure_dir(os.path.join(out, split))
        for i, s in enumerate(samples):
            src = os.path.join(out, split, f"{i:04d}_source.xyz")
            tgt = os.path.join(out, split, f"{i:04d}_target.xyz")
            save_cloud(s.source, src)
            save_cloud(s.target, tgt)
            row = {"split": split, "index": i, "category": s.category,
                   "source": os.path.relpath(src, out),
                   "target": os.path.relpath(tgt, out)}
            row.update({f"r{r}{c}": s.gt.rotation[r, c] for r in range(3) for c in range(3)})
            row.update({f"t{c}": s.gt.translation[c] for c in range(3)})
            index_rows.append(row)
    index = os.path.join(out, "index.csv")
    write_csv(index, index_rows)
    write_manifest(out, cfg, "gen", outputs=[index])
    print(f"wrote {len(index_rows)} pairs under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _need_pairs(cfg, "train", "data.train")
    if args.finetune:
        _need_pairs(cfg, "train --finetune", "data.test")
    _need_points_above_k(cfg, cfg["encoder.k"], "encoder.k")
    train_s, test_s = make_splits(cfg)
    out = _ensure_dir(args.out)
    result = train(encoder_config(cfg), feature_spec(cfg), "euler", train_s,
                   epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    model_path = os.path.join(out, "model.upcr")
    curve_path = os.path.join(out, "loss_curve.csv")
    save_checkpoint(model_path, result.checkpoint)
    write_loss_curve(curve_path, result.loss_curve)
    outputs = [model_path, curve_path]
    if args.finetune:
        outputs.append(_write_fine_tuned(out, result.checkpoint, test_s, cfg))
    write_manifest(out, cfg, "train", outputs=outputs)
    print(f"model written to {model_path}")
    _warn_if_diverged(result, "training")
    return 0


def cmd_finetune(args) -> int:
    cfg = resolve_config(args)
    model, test_s = _model_and_test_split(args, cfg)
    out = _ensure_dir(args.out)
    outputs = [os.path.join(out, "model.upcr"), _write_fine_tuned(out, model, test_s, cfg)]
    write_manifest(out, cfg, "finetune", inputs=[args.model], outputs=outputs)
    print(f"model written to {outputs[0]}")
    return 0


def cmd_register(args) -> int:
    # a bad output path fails here, before anything is printed or written
    if args.save_transformed:
        try:
            cloud_format(args.save_transformed)
        except ValueError as exc:
            raise CliError(f"--save-transformed {args.save_transformed}: {exc}") from None
    if args.out and os.path.exists(args.out) and not os.path.isdir(args.out):
        raise CliError(f"--out {args.out} exists and is not a directory")
    source = _read(load_cloud, args.source, "source cloud")
    target = _read(load_cloud, args.target, "target cloud")
    model = _read(load_checkpoint, args.model, "model")
    k = model.config.k
    for flag, path, cloud in (("--source", args.source, source), ("--target", args.target, target)):
        if len(cloud) <= k:
            raise CliError(f"{flag} {path} has {len(cloud)} points; the checkpoint's "
                           f"k = {k} needs at least {k + 1}")
    result = register_pair(source, target, model)
    for row in result.transform.matrix34():
        print(" ".join(f"{v:.9g}" for v in row))
    outputs = []
    if args.save_transformed:
        moved = geom.apply_transform(result.transform, source)
        save_cloud(moved, args.save_transformed)
        outputs.append(args.save_transformed)
    if args.out:
        _ensure_dir(args.out)
        write_manifest(args.out, {}, "register",
                       inputs=[args.source, args.target, args.model], outputs=outputs)
    return 0


def _bench_rows(model, test_s, baselines: bool):
    ev = evalbench.evaluate_model(model, test_s)
    rows = [dict(asdict(ev.report), method="model",
                 chamfer_improved=ev.chamfer_improved_fraction)]
    # the floor a model has to beat: every pair left at the identity pose
    identity = [geom.RigidTransform.identity()] * len(test_s)
    reports = [("identity", evalbench.evaluate_poses(identity, [s.gt for s in test_s]))]
    if baselines:
        # the feature-matched ICP takes its neighbour count from the checkpoint
        reports += [("icp", evalbench.evaluate_icp(test_s))]
        reports += [(f"icp+{kind}", evalbench.evaluate_icp(test_s, init_spec=FeatureSpec(kind),
                                                          k=model.config.k))
                    for kind in ("pfh", "spfh")]
    rows += [dict(asdict(rep), method=method, chamfer_improved=float("nan"))
             for method, rep in reports]
    return rows


def cmd_bench(args) -> int:
    cfg = resolve_config(args)
    model, test_s = _model_and_test_split(args, cfg)
    if args.baselines and model.config.k < 3:
        raise CliError(f"--baselines estimates normals over the checkpoint's k = "
                       f"{model.config.k} neighbours, which needs k >= 3")
    out = _ensure_dir(args.out)
    rows = _bench_rows(model, test_s, args.baselines)
    csv_path = os.path.join(out, "metrics.csv")
    write_csv(csv_path, rows)
    print_table(rows)
    write_manifest(out, cfg, "bench", inputs=[args.model], outputs=[csv_path])
    return 0


def cmd_sweep_outliers(args) -> int:
    cfg = resolve_config(args)
    ratios = _parse_ratios(args.ratios)
    # two ratios on one stream, or one that corrupts no point, fail before --out exists
    evalbench.check_outlier_ratios(ratios, cfg[_points_key(cfg)])
    model, test_s = _model_and_test_split(args, cfg)
    out = _ensure_dir(args.out)
    sweep = evalbench.outlier_sweep(model, test_s, ratios, seed=cfg["seed"])
    rows = []
    for entry in sweep:
        for method in ("model", "icp"):
            rows.append({"ratio": entry["ratio"], "method": method, **asdict(entry[method]),
                         "mae_rot_monotone": entry[f"{method}_mae_rot_monotone"]})
    csv_path = os.path.join(out, "outlier_sweep.csv")
    write_csv(csv_path, rows)
    print_table(rows)
    write_manifest(out, cfg, "sweep-outliers", inputs=[args.model], outputs=[csv_path])
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_subcommand(sub, name: str, fn, help: str) -> argparse.ArgumentParser:
    """A subparser offering the flags of the sections ``COMMANDS`` gives it."""
    # no abbreviations: a removed --mode or --m would otherwise parse as --model
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(fn=fn)
    sections = COMMANDS[name][0]
    if sections:
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="size preset")
    for key, k in KEYS.items():
        if k.flag and _section(key) in sections:
            p.add_argument(k.flag, dest=key, type=type(k.default), choices=k.choices or None,
                           help=f"{k.help} (default {k.default})")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcr",
        description="Correspondences-free unsupervised point cloud registration lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_subcommand(sub, "gen", cmd_gen, "generate a dataset on disk")
    p.add_argument("--out", required=True, help="output directory")

    p = _add_subcommand(sub, "train", cmd_train, "train a model on a generated dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--finetune", action="store_true",
                   help="also fine-tune on the test split (unsupervised)")

    p = _add_subcommand(sub, "finetune", cmd_finetune, "fine-tune a checkpoint on the test split")
    p.add_argument("--model", required=True, help="input checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")

    p = _add_subcommand(sub, "register", cmd_register, "register two cloud files")
    p.add_argument("--source", required=True, help="source cloud (xyz/off/ply)")
    p.add_argument("--target", required=True, help="target cloud (xyz/off/ply)")
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--save-transformed", help="write the transformed source here")
    p.add_argument("--out", help="directory for the run manifest")

    p = _add_subcommand(sub, "bench", cmd_bench, "evaluate a model under a protocol")
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--baselines", action="store_true",
                   help="also run ICP and feature-initialized ICP")

    p = _add_subcommand(sub, "sweep-outliers", cmd_sweep_outliers, "outlier-robustness sweep")
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ratios", default="0,10,20,30",
                   help="comma list of outlier percentages in [0, 100) (default 0,10,20,30)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
