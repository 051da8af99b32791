"""Feature-kind study: does a PPF kind beat the default ``distance+spfh``?

Each arm trains a desk model on one feature kind, then fine-tunes it on the
test pairs (no ground truth is read there) and reports the test pairs'
rotation MAE and ``me_t`` before and after fine-tuning, beside the identity
pose and plain ICP. The verdict reads fine-tuned rotation MAE: a kind beats
the default in a cell (one seed, one pairing) when its error is lower, and it
is kept only if it does so in at least 5 of the 6 cells.

Pairs are "resampled": one 512-point ``synth_shape`` draw is split into two
random disjoint halves; the source is one half, the target the other half
moved by a ``modelnet_style`` pose. So no target point is a moved source
point, and a point matcher cannot solve the pair exactly. Partial pairs crop
each half to its 192 points nearest a random anchor (``make_partial``).

The arms are the studied kinds that ``FEATURE_KINDS`` still holds. The PPF
kinds were deleted after this study rejected them; to re-run their arms, put
the ``src/`` of commit 6bf6903, the last that has them, on ``PYTHONPATH``.
``feature_kinds.csv`` beside this script holds that run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python studies/feature_kinds.py --jobs 2 --out kinds
    PYTHONPATH=src python studies/feature_kinds.py --smoke --out /tmp/smoke

writes ``<out>.csv`` (one line per seed, pairing, method and stage) and
``<out>.md`` (the table README shows, and the verdict). ``--smoke`` runs every
arm at tiny sizes in a few seconds, to check that the script runs.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from upcr import EncoderConfig, FeatureSpec, PointCloud, RigidTransform
from upcr.datagen import DatasetSample, make_partial, sample_transform, synth_shape
from upcr.evalbench import evaluate_icp, evaluate_model, evaluate_poses
from upcr.features import FEATURE_KINDS
from upcr.geom import apply_transform
from upcr.rng import Rng, derive_seed
from upcr.training import fine_tune, train

DEFAULT = "distance+spfh"
STUDIED = (DEFAULT, "distance+ppf", "distance+ppf+spfh")
SEEDS = (0, 1, 2)
PAIRINGS = ("full", "partial")
WINS_TO_KEEP = 5

# the science budget, and a smoke budget that only checks the script runs
BUDGETS = {
    "science": dict(categories=8, n_train=200, n_test=32, shape_points=512, crop=192,
                    k=24, epochs=30, tune_epochs=10),
    "smoke": dict(categories=2, n_train=2, n_test=2, shape_points=64, crop=24,
                  k=8, epochs=1, tune_epochs=1),
}
LR, BATCH = 1e-3, 8


def resampled_pair(category: int, index: int, seed: int, partial: bool,
                   shape_points: int, crop: int) -> DatasetSample:
    """One shape's two disjoint random halves, the second moved by the pose."""
    rng = Rng(derive_seed(seed, "feature-kinds", category, index))
    pts = synth_shape(category, shape_points, rng.spawn("shape")).points
    order = list(range(shape_points))
    rng.spawn("halves").shuffle(order)
    half = shape_points // 2
    gt = sample_transform("modelnet_style", rng.spawn("pose"))
    source = PointCloud(pts[np.sort(order[:half])])
    target = apply_transform(gt, PointCloud(pts[np.sort(order[half:])]))
    if partial:
        source = make_partial(source, crop, rng.spawn("crop_src"))
        target = make_partial(target, crop, rng.spawn("crop_tgt"))
    return DatasetSample(source, target, gt, category)


def splits(seed: int, pairing: str, budget: dict):
    """Train and test pairs; test shapes are drawn after (and apart from) the train ones."""
    cats, n_train = budget["categories"], budget["n_train"]
    make = lambda i: resampled_pair(i % cats, i, seed, pairing == "partial",
                                    budget["shape_points"], budget["crop"])
    return ([make(i) for i in range(n_train)],
            [make(n_train + i) for i in range(budget["n_test"])])


def _scores(report) -> dict:
    return {"mae_rot_deg": report.mae_rot_deg, "me_t": report.me_t}


def run_arm(job) -> list[dict]:
    """CSV rows of one (seed, pairing, method): ``baselines`` gives the identity
    and ICP rows, a feature kind trains and fine-tunes one model."""
    seed, pairing, method, budget = job
    train_set, test_set = splits(seed, pairing, budget)
    row = {"seed": seed, "pairing": pairing}
    if method == "baselines":
        identity = evaluate_poses([RigidTransform.identity()] * len(test_set),
                                  [s.gt for s in test_set])
        return [{**row, "method": name, "stage": stage, **_scores(rep)}
                for name, rep in (("identity", identity), ("icp", evaluate_icp(test_set)))
                for stage in ("before", "after")]
    config = EncoderConfig(k=budget["k"], m=64, dynamic_graph=False)
    model = train(config, FeatureSpec(method), "euler", train_set, epochs=budget["epochs"],
                  lr=LR, batch_size=BATCH, seed=seed).checkpoint
    tuned = fine_tune(model, [(s.source, s.target) for s in test_set],
                      epochs=budget["tune_epochs"], lr=LR, batch_size=BATCH, seed=seed).checkpoint
    return [{**row, "method": method, "stage": stage, **_scores(evaluate_model(m, test_set).report)}
            for stage, m in (("before", model), ("after", tuned))]


def table(rows: list[dict], arms: list[str]) -> str:
    """Markdown: per pairing, identity, ICP and each arm, seeds 0 / 1 / 2 per
    cell, then how many cells each non-default arm wins after fine-tuning."""
    val = {(r["seed"], r["pairing"], r["method"], r["stage"], metric): r[metric]
           for r in rows for metric in ("mae_rot_deg", "me_t")}
    seeds = sorted({r["seed"] for r in rows})

    def cell(pairing, method, stage, metric):
        return " / ".join(f"{val[s, pairing, method, stage, metric]:.2f}" for s in seeds)

    out = ["| pairing | method | rotation MAE before | rotation MAE after "
           "| me_t before | me_t after |", "| --- | --- | --- | --- | --- | --- |"]
    for pairing in PAIRINGS:
        for method in ("identity", "icp", *arms):
            out.append(f"| {pairing} | {method} | " + " | ".join(
                cell(pairing, method, stage, metric)
                for metric in ("mae_rot_deg", "me_t") for stage in ("before", "after")) + " |")
    out.append("")
    cells = [(s, p) for s in seeds for p in PAIRINGS]
    after = lambda s, p, method: val[s, p, method, "after", "mae_rot_deg"]
    for arm in arms:
        if arm == DEFAULT:
            continue
        wins = sum(after(s, p, arm) < after(s, p, DEFAULT) for s, p in cells)
        verdict = "keep" if wins >= WINS_TO_KEEP else "delete"
        out.append(f"- `{arm}` beats `{DEFAULT}` after fine-tuning in {wins} of {len(cells)} "
                   f"cells: {verdict}.")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output path stem: writes <out>.csv and <out>.md")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes (one per vCPU)")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, to check the script runs")
    args = ap.parse_args(argv)
    budget = BUDGETS["smoke" if args.smoke else "science"]
    arms = [kind for kind in STUDIED if kind in FEATURE_KINDS]
    jobs = [(seed, pairing, method, budget) for seed in SEEDS for pairing in PAIRINGS
            for method in ("baselines", *arms)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_arm, jobs))
    else:
        results = [run_arm(job) for job in jobs]
    rows = [r for rs in results for r in rs]
    with open(args.out + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    text = table(rows, arms)
    with open(args.out + ".md", "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
