import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_feature_kind_study_smoke(tmp_path):
    sys.path.insert(0, str(ROOT / "studies"))
    try:
        import feature_kinds as study
    finally:
        sys.path.pop(0)
    out = tmp_path / "kinds"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "studies" / "feature_kinds.py"), "--smoke",
                    "--out", str(out)], check=True, env=env, timeout=60, capture_output=True)
    arms = [kind for kind in study.STUDIED if kind in study.FEATURE_KINDS]
    assert study.DEFAULT in arms
    lines = (tmp_path / "kinds.md").read_text().splitlines()
    body = [line.split(" | ")[:2] for line in lines[2:] if line.startswith("| ")]
    assert body == [[f"| {pairing}", method] for pairing in study.PAIRINGS
                    for method in ("identity", "icp", *arms)]
    with open(tmp_path / "kinds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    methods = 2 + len(arms)
    assert len(rows) == len(study.SEEDS) * len(study.PAIRINGS) * methods * 2
