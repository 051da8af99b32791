"""Command-line entry point.

Subcommands: gen, train, finetune, register, bench, sweep-outliers.
Configuration resolves in three layers: built-in defaults, then an optional
``--config`` file (flat ``key = value`` lines with ``[section]`` headers),
then command-line flags. Every artifact-producing run writes a manifest with
the fully resolved configuration, seeds, and artifact hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys

from . import evalbench, geom
from .datagen import Protocol, build_benchmark, load_cloud, save_cloud
from .encoder import EncoderConfig
from .features import FEATURE_KINDS, FeatureSpec
from .separation import register_pair
from .training import (fine_tune, load_checkpoint, save_checkpoint, train,
                       write_loss_curve)

DEFAULTS = {
    "encoder.k": 24,
    "encoder.m": 64,
    "encoder.layers": 5,
    "encoder.widths": (),          # comma list; empty = preset for (layers, m)
    "encoder.slope": 0.2,
    "encoder.dynamic_graph": True,
    "encoder.head_widths": (256, 128),
    "feature.kind": "distance",
    "feature.spfh_bins": 11,
    "feature.pfh_bins": 5,
    "rotation.mode": "euler",
    "protocol.setting": "UPC",
    "protocol.pairing": "consistent",
    "protocol.regime": "modelnet_style",
    "protocol.noise_sigma": 0.0,   # 0 disables (ND forces 0.01/0.05)
    "protocol.noise_clip": 0.0,
    "protocol.partial_keep": 0,    # 0 = consistent clouds
    "data.points": 256,
    "data.categories": 40,
    "data.train": 200,
    "data.test": 50,
    "train.epochs": 30,
    "train.lr": 1e-3,
    "train.batch": 8,
    "finetune.epochs": 10,
    "finetune.lr": 1e-4,
    "seed": 7,
}

PRESETS = {
    "desk": {"encoder.m": 64, "data.points": 256, "train.batch": 8},
    "paper": {"encoder.m": 512, "data.points": 1024, "train.batch": 26,
              "train.epochs": 500, "finetune.epochs": 200},
}


class CliError(Exception):
    """Fatal runtime error; message printed, exit status 1."""


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``[section]`` prefixes following keys."""
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
            values[full] = val
    return values


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(key: str, value):
    default = DEFAULTS[key]
    if isinstance(default, bool) and isinstance(value, bool):
        return value
    try:
        if isinstance(default, tuple):
            items = tuple(int(w) for w in str(value).split(",")) if str(value).strip() else ()
            if any(w < 1 for w in items):
                raise ValueError
            return items
        if isinstance(default, bool):
            return _BOOLS[str(value).strip().lower()]
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
    return str(value)


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset:
        cfg.update(PRESETS[preset])
    if getattr(args, "config", None):
        for key, val in parse_config_file(args.config).items():
            cfg[key] = _coerce(key, val)
    overrides = {
        "k": "encoder.k", "m": "encoder.m", "layers": "encoder.layers",
        "feature": "feature.kind", "mode": "rotation.mode",
        "setting": "protocol.setting", "pairing": "protocol.pairing",
        "regime": "protocol.regime", "partial_keep": "protocol.partial_keep",
        "points": "data.points", "categories": "data.categories",
        "train_pairs": "data.train", "test_pairs": "data.test",
        "epochs": "train.epochs", "lr": "train.lr", "batch": "train.batch",
        "seed": "seed",
    }
    for attr, key in overrides.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = _coerce(key, val)
    # range, cross-key and name checks for every command, before any output exists
    _check_ranges(cfg)
    encoder_config(cfg)
    feature_spec(cfg)
    geom.rotation_mode(cfg["rotation.mode"])
    protocol(cfg)
    return cfg


# smallest legal value of each integer key; the library would only fail later, or not at all
_MINIMUMS = {"train.batch": 1, "train.epochs": 0, "finetune.epochs": 0,
             "data.categories": 1, "data.points": 16, "data.train": 0, "data.test": 0}


def _check_ranges(cfg: dict) -> None:
    for key, low in _MINIMUMS.items():
        if cfg[key] < low:
            raise CliError(f"configuration key {key!r} must be >= {low}, got {cfg[key]}")
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
                         slope=cfg["encoder.slope"],
                         dynamic_graph=cfg["encoder.dynamic_graph"],
                         head_widths=cfg["encoder.head_widths"])


def feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(cfg["feature.kind"], spfh_bins=cfg["feature.spfh_bins"],
                       pfh_bins=cfg["feature.pfh_bins"])


def protocol(cfg: dict) -> Protocol:
    noise = None
    if cfg["protocol.noise_sigma"] > 0:
        noise = (cfg["protocol.noise_sigma"], cfg["protocol.noise_clip"] or 0.05)
    return Protocol(setting=cfg["protocol.setting"], pairing=cfg["protocol.pairing"],
                    pose_regime=cfg["protocol.regime"], noise=noise,
                    partial_keep=cfg["protocol.partial_keep"] or None)


def make_splits(cfg: dict):
    return build_benchmark(protocol(cfg), cfg["data.categories"],
                           cfg["data.train"], cfg["data.test"],
                           cfg["data.points"], cfg["seed"])


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
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n")
        for key in sorted(cfg):
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


def _load_model(path: str):
    try:
        ckpt = load_checkpoint(path)
    except OSError as exc:
        raise CliError(f"cannot read model {path}: {exc}") from None
    return ckpt


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = resolve_config(args)
    out = _ensure_dir(args.out)
    train_s, test_s = make_splits(cfg)
    outputs = []
    index_rows = []
    for split, samples in (("train", train_s), ("test", test_s)):
        _ensure_dir(os.path.join(out, split))
        for i, s in enumerate(samples):
            src = os.path.join(out, split, f"{i:04d}_source.xyz")
            tgt = os.path.join(out, split, f"{i:04d}_target.xyz")
            save_cloud(s.source, src)
            save_cloud(s.target, tgt)
            outputs += [src, tgt]
            row = {"split": split, "index": i, "category": s.category,
                   "source": os.path.relpath(src, out),
                   "target": os.path.relpath(tgt, out)}
            for r in range(3):
                for c in range(3):
                    row[f"r{r}{c}"] = s.gt.rotation[r, c]
            for c in range(3):
                row[f"t{c}"] = s.gt.translation[c]
            index_rows.append(row)
    index = os.path.join(out, "index.csv")
    write_csv(index, index_rows)
    write_manifest(out, cfg, "gen", outputs=[index])
    print(f"wrote {len(index_rows)} pairs under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out = _ensure_dir(args.out)
    train_s, test_s = make_splits(cfg)
    result = train(encoder_config(cfg), feature_spec(cfg), cfg["rotation.mode"],
                   train_s, epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    model_path = os.path.join(out, "model.upcr")
    curve_path = os.path.join(out, "loss_curve.csv")
    save_checkpoint(model_path, result.checkpoint)
    write_loss_curve(curve_path, result.loss_curve)
    if args.finetune:
        ft = fine_tune(result.checkpoint, [(s.source, s.target) for s in test_s],
                       epochs=cfg["finetune.epochs"], lr=cfg["finetune.lr"],
                       batch_size=cfg["train.batch"], seed=cfg["seed"])
        save_checkpoint(model_path, ft.checkpoint)
        write_loss_curve(os.path.join(out, "finetune_curve.csv"), ft.loss_curve)
    write_manifest(out, cfg, "train", outputs=[model_path, curve_path])
    print(f"model written to {model_path}")
    if result.diverged:
        print("warning: training diverged; checkpoint is the last finite state")
    return 0


def cmd_finetune(args) -> int:
    cfg = resolve_config(args)
    out = _ensure_dir(args.out)
    ckpt = _load_model(args.model)
    ckpt.require_compatible(rotation_mode=cfg["rotation.mode"])
    _, test_s = make_splits(cfg)
    ft = fine_tune(ckpt, [(s.source, s.target) for s in test_s],
                   epochs=cfg["finetune.epochs"], lr=cfg["finetune.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    model_path = os.path.join(out, "model.upcr")
    curve_path = os.path.join(out, "finetune_curve.csv")
    save_checkpoint(model_path, ft.checkpoint)
    write_loss_curve(curve_path, ft.loss_curve)
    write_manifest(out, cfg, "finetune", inputs=[args.model],
                   outputs=[model_path, curve_path])
    print(f"model written to {model_path}")
    return 0


def cmd_register(args) -> int:
    cfg = resolve_config(args)
    try:
        source = load_cloud(args.source)
    except OSError as exc:
        raise CliError(f"cannot read source cloud {args.source}: {exc}") from None
    try:
        target = load_cloud(args.target)
    except OSError as exc:
        raise CliError(f"cannot read target cloud {args.target}: {exc}") from None
    ckpt = _load_model(args.model)
    model = ckpt.to_model()
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
        write_manifest(args.out, cfg, "register",
                       inputs=[args.model], outputs=outputs)
    return 0


def _bench_rows(cfg, model, test_s, baselines: bool):
    rows = []
    ev = evalbench.evaluate_model(model, test_s, tags={"method": "model"})
    row = ev.report.row()
    row["chamfer_improved"] = ev.chamfer_improved_fraction
    rows.append(row)
    if baselines:
        icp_rep = evalbench.evaluate_icp(test_s, tags={"method": "icp"})
        r = icp_rep.row()
        r["chamfer_improved"] = float("nan")
        rows.append(r)
        for kind in ("pfh", "spfh"):
            rep = evalbench.evaluate_icp(test_s, init_spec=FeatureSpec(kind),
                                         tags={"method": f"icp+{kind}"},
                                         k=cfg["encoder.k"])
            r = rep.row()
            r["chamfer_improved"] = float("nan")
            rows.append(r)
    return rows


def cmd_bench(args) -> int:
    cfg = resolve_config(args)
    out = _ensure_dir(args.out)
    ckpt = _load_model(args.model)
    model = ckpt.to_model()
    _, test_s = make_splits(cfg)
    rows = _bench_rows(cfg, model, test_s, args.baselines)
    csv_path = os.path.join(out, "metrics.csv")
    write_csv(csv_path, rows)
    print_table(rows)
    write_manifest(out, cfg, "bench", inputs=[args.model], outputs=[csv_path])
    return 0


def cmd_sweep_outliers(args) -> int:
    cfg = resolve_config(args)
    out = _ensure_dir(args.out)
    ckpt = _load_model(args.model)
    model = ckpt.to_model()
    _, test_s = make_splits(cfg)
    ratios = [float(r) for r in args.ratios.split(",")]
    sweep = evalbench.outlier_sweep(model, test_s, ratios, seed=cfg["seed"])
    rows = []
    for entry in sweep:
        for method in ("model", "icp"):
            rep = entry[method]
            row = {"ratio": entry["ratio"], "method": method}
            row.update({k: v for k, v in rep.row().items() if k != "method"})
            row["mae_rot_monotone"] = entry[f"{method}_mae_rot_deg_monotone"]
            rows.append(row)
    csv_path = os.path.join(out, "outlier_sweep.csv")
    write_csv(csv_path, rows)
    print_table(rows)
    write_manifest(out, cfg, "sweep-outliers", inputs=[args.model], outputs=[csv_path])
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, with_data: bool = True):
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--preset", choices=sorted(PRESETS), help="size preset")
    p.add_argument("--seed", type=int, help="master seed (default 7)")
    p.add_argument("--mode", choices=tuple(geom.ROTATION_MODES),
                   help="rotation parameterization (default euler)")
    p.add_argument("--feature", choices=FEATURE_KINDS,
                   help="pose-invariant feature kind (default distance)")
    p.add_argument("--k", type=int, help="neighbor count (default 24)")
    p.add_argument("--m", type=int, help="representation width (default 64)")
    p.add_argument("--layers", type=int, help="encoder depth (default 5)")
    if with_data:
        p.add_argument("--setting", choices=("UPC", "UC", "ND"),
                       help="dataset setting (default UPC)")
        p.add_argument("--pairing", choices=("consistent", "partial"),
                       help="pair construction (default consistent)")
        p.add_argument("--regime", choices=("modelnet_style", "sevenscenes_style"),
                       help="pose sampling regime (default modelnet_style)")
        p.add_argument("--partial-keep", dest="partial_keep", type=int,
                       help="points kept by partial scans (default off)")
        p.add_argument("--points", type=int, help="points per cloud (default 256)")
        p.add_argument("--categories", type=int, help="shape categories (default 40)")
        p.add_argument("--train-pairs", dest="train_pairs", type=int,
                       help="training pairs (default 200)")
        p.add_argument("--test-pairs", dest="test_pairs", type=int,
                       help="test pairs (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upcr",
        description="Correspondences-free unsupervised point cloud registration lab",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset on disk")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, help="training epochs (default 30)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--batch", type=int, help="batch size (default 8)")
    p.add_argument("--finetune", action="store_true",
                   help="also fine-tune on the test split (unsupervised)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the test split")
    _add_common(p)
    p.add_argument("--model", required=True, help="input checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("register", help="register two cloud files")
    _add_common(p, with_data=False)
    p.add_argument("--source", required=True, help="source cloud (xyz/off/ply)")
    p.add_argument("--target", required=True, help="target cloud (xyz/off/ply)")
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--save-transformed", help="write the transformed source here")
    p.add_argument("--out", help="directory for the run manifest")
    p.set_defaults(fn=cmd_register)

    p = sub.add_parser("bench", help="evaluate a model under a protocol")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--baselines", action="store_true",
                   help="also run ICP and feature-initialized ICP")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sweep-outliers", help="outlier-robustness sweep")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint (.upcr)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ratios", default="0,10,20,30",
                   help="comma list of outlier percentages")
    p.set_defaults(fn=cmd_sweep_outliers)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
