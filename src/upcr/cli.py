"""Command-line entry point.

Subcommands: gen, train, finetune, register, bench, sweep-outliers.
``KEYS`` declares each configuration key once: its default, its flag (none
if only a ``--config`` file sets it), its help, choices and smallest value.
A key resolves from its default (or ``--preset``), then an optional
``--config`` file (flat ``key = value`` lines with ``[section]`` headers;
a key set twice is an error), then its flag. ``COMMANDS`` names the keys or
sections whose flags each subcommand offers and those its manifest records:
``gen``, ``bench`` and ``sweep-outliers`` the seed, protocol and data that
build their pairs; ``train`` the model and training keys and those that
build its training pairs; ``finetune`` the pair keys, and it records the
``train.batch`` and ``finetune`` keys it also reads; ``register`` none. A
command that loads a checkpoint runs the encoder config and feature kind
stored in it. A ``--config`` file may hold any key, and each one it holds is
checked. ``main`` rejects an ``--out`` that is, or lies under, a path
that is not a directory; a command then checks its inputs, and that no
output replaces one, before it writes anything, exiting 1 with
``error: ...``. Each command writes its files, and a manifest of the
recorded keys and the SHA-256 of each input, by flag and path, and of each
output, through one call to ``_write_run``.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import asdict
from functools import partial
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


def _selects(names: tuple, key: str) -> bool:
    """Whether a ``COMMANDS`` entry names ``key`` or its section."""
    return key in names or _section(key) in names


_PAIRS = ("seed", "protocol", "data")  # the sections that build a command's pairs
# train builds no test pairs and reads no finetune key
_TRAIN = ("seed", "encoder", "feature", "protocol", "data.points", "data.categories",
          "data.train", "train")

# subcommand: (keys or sections whose flags it offers, those its manifest records)
COMMANDS = {
    "gen": (_PAIRS, _PAIRS),
    "train": (_TRAIN, _TRAIN),
    "finetune": (_PAIRS, _PAIRS + ("train.batch", "finetune")),
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
    values, lines = {}, {}
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
            if full in lines:
                raise CliError(f"{path}:{lineno}: configuration key {full!r} already set "
                               f"on line {lines[full]}")
            lines[full] = lineno
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


def _write_run(args, cfg: dict, writers: dict, inputs: tuple[str, ...] = ()) -> None:
    """A command's one output stage. ``writers`` maps each output path to a
    function that writes that file; ``inputs`` names the flags of the files
    the command read. The inputs are hashed first, then each output is
    written, its directory created, then, if ``--out`` is given,
    ``manifest.txt``: the command, the keys ``COMMANDS`` records for it, and
    the SHA-256 of each input, by its flag and path as given
    (``input --source a/x.xyz``), and of each output, by its path under
    ``--out``."""
    hashes = [f"input --{dest} {getattr(args, dest)} sha256 = {_sha256(getattr(args, dest))}"
              for dest in inputs]
    for path, write in writers.items():
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        write(path)
    if not args.out:
        return
    recorded = COMMANDS[args.command][1]
    lines = [f"command = {args.command}"] + [
        f"{key} = {','.join(map(str, val)) if isinstance(val, tuple) else val}"
        for key, val in sorted(cfg.items()) if _selects(recorded, key)] + hashes
    lines += [f"output {os.path.relpath(p, args.out)} sha256 = {_sha256(p)}" for p in writers]
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


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


def _check_not_an_input(args, flag: str, value: str, path: str) -> None:
    """Reject an output ``path``, set by ``flag value``, that names an input file."""
    for dest in ("source", "target", "model"):
        given = getattr(args, dest, None)
        if given and os.path.realpath(given) == os.path.realpath(path):
            raise CliError(f"{flag} {value} would replace --{dest} {given}")


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


def cmd_gen(args) -> int:
    cfg = resolve_config(args)
    _need_pairs(cfg, "gen", "data.train", "data.test")
    train_s, test_s = make_splits(cfg)
    writers, index_rows = {}, []
    for split, samples in (("train", train_s), ("test", test_s)):
        for i, s in enumerate(samples):
            row = {"split": split, "index": i, "category": s.category}
            for end, cloud in (("source", s.source), ("target", s.target)):
                row[end] = f"{split}/{i:04d}_{end}.xyz"
                writers[os.path.join(args.out, row[end])] = partial(save_cloud, cloud)
            row.update({f"r{r}{c}": s.gt.rotation[r, c] for r in range(3) for c in range(3)})
            row.update({f"t{c}": s.gt.translation[c] for c in range(3)})
            index_rows.append(row)
    writers[os.path.join(args.out, "index.csv")] = lambda p: write_csv(p, index_rows)
    _write_run(args, cfg, writers)
    print(f"wrote {len(index_rows)} pairs under {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    _need_pairs(cfg, "train", "data.train")
    _need_points_above_k(cfg, cfg["encoder.k"], "encoder.k")
    # test shapes follow the training ones, so no test pairs leaves these unchanged
    train_s, _ = make_splits({**cfg, "data.test": 0})
    result = train(encoder_config(cfg), feature_spec(cfg), "euler", train_s,
                   epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    model_path = os.path.join(args.out, "model.upcr")
    _write_run(args, cfg, {
        model_path: lambda p: save_checkpoint(p, result.checkpoint),
        os.path.join(args.out, "loss_curve.csv"): lambda p: write_loss_curve(p, result.loss_curve),
    })
    print(f"model written to {model_path}")
    if result.diverged:
        print("warning: training diverged; checkpoint is the last finite state")
    return 0


def cmd_finetune(args) -> int:
    cfg = resolve_config(args)
    model_path = os.path.join(args.out, "model.upcr")
    _check_not_an_input(args, "--out", args.out, model_path)
    model, test_s = _model_and_test_split(args, cfg)
    ft = fine_tune(model, [(s.source, s.target) for s in test_s],
                   epochs=cfg["finetune.epochs"], lr=cfg["finetune.lr"],
                   batch_size=cfg["train.batch"], seed=cfg["seed"])
    _write_run(args, cfg, {
        model_path: lambda p: save_checkpoint(p, ft.checkpoint),
        os.path.join(args.out, "finetune_curve.csv"): lambda p: write_loss_curve(p, ft.loss_curve),
    }, inputs=("model",))
    print(f"model written to {model_path}")
    if ft.diverged:
        print("warning: fine-tuning diverged; checkpoint is the last finite state")
    return 0


def cmd_register(args) -> int:
    # a bad output path fails here, before anything is printed or written
    if args.save_transformed:
        try:
            cloud_format(args.save_transformed)
        except ValueError as exc:
            raise CliError(f"--save-transformed {args.save_transformed}: {exc}") from None
        _check_not_an_input(args, "--save-transformed", args.save_transformed,
                            args.save_transformed)
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
    moved = geom.apply_transform(result.transform, source)
    writers = {args.save_transformed: partial(save_cloud, moved)} if args.save_transformed else {}
    _write_run(args, {}, writers, inputs=("source", "target", "model"))
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
    rows = _bench_rows(model, test_s, args.baselines)
    print_table(rows)
    _write_run(args, cfg, {os.path.join(args.out, "metrics.csv"): lambda p: write_csv(p, rows)},
               inputs=("model",))
    return 0


def cmd_sweep_outliers(args) -> int:
    cfg = resolve_config(args)
    ratios = _parse_ratios(args.ratios)
    # two ratios on one stream, or one that corrupts no point, fail before --out exists
    evalbench.check_outlier_ratios(ratios, cfg[_points_key(cfg)])
    model, test_s = _model_and_test_split(args, cfg)
    sweep = evalbench.outlier_sweep(model, test_s, ratios, seed=cfg["seed"])
    rows = []
    for entry in sweep:
        for method in ("model", "icp"):
            rows.append({"ratio": entry["ratio"], "method": method, **asdict(entry[method]),
                         "mae_rot_monotone": entry[f"{method}_mae_rot_monotone"]})
    print_table(rows)
    _write_run(args, cfg, {os.path.join(args.out, "outlier_sweep.csv"):
                           lambda p: write_csv(p, rows)}, inputs=("model",))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_subcommand(sub, name: str, fn, help: str) -> argparse.ArgumentParser:
    """A subparser offering the flags of the keys ``COMMANDS`` gives it."""
    # no abbreviations: a removed --mode or --m would otherwise parse as --model
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(fn=fn)
    offered = COMMANDS[name][0]
    if offered:
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="size preset")
    for key, k in KEYS.items():
        if k.flag and _selects(offered, key):
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


def _check_out(out: str) -> None:
    """Reject an ``--out`` that is, or would be created under, an existing
    path that is not a directory, naming the flag."""
    path = out
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        where = "" if path == out else f": {path}"
        raise CliError(f"--out {out}{where} exists and is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
