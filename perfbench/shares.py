"""Per-layer shares of one root function's time, from a traced run's spans.

    python3 perfbench/shares.py perfbench/out/spans-paper-register-seed1.jsonl
    python3 perfbench/shares.py FILE --root evalbench.icp

For every span name under the root spans (default ``separation.register_pair``)
it prints self time and inclusive time as shares of the roots' total time.
Inclusive time counts only the outermost span of a name, so a layer's
children (``geom.sqdist_matrix`` inside ``geom.graph_knn``, say) count in its
inclusive share but not in its self share.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

import spans


def shares(tracer: spans.Tracer, root: str) -> tuple[float, dict, dict]:
    """(root total seconds, self seconds by name, inclusive seconds by name)."""
    run = tracer.spans
    selfs = tracer.self_times()
    children = defaultdict(list)
    for i, s in enumerate(run):
        if s.parent >= 0:
            children[s.parent].append(i)
    self_t, incl_t = defaultdict(float), defaultdict(float)
    total = 0.0

    def walk(i: int, open_names: frozenset) -> None:
        s = run[i]
        self_t[s.name] += selfs[i]
        if s.name not in open_names:
            incl_t[s.name] += s.duration
        for c in children[i]:
            walk(c, open_names | {s.name})

    for i, s in enumerate(run):
        if s.name == root and not _under(run, s.parent, root):
            total += s.duration
            walk(i, frozenset())
    return total, self_t, incl_t


def _under(run: list[spans.Span], idx: int, name: str) -> bool:
    while idx >= 0:
        if run[idx].name == name:
            return True
        idx = run[idx].parent
    return False


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("spans")
    p.add_argument("--root", default="separation.register_pair")
    args = p.parse_args()
    tracer = spans.Tracer()
    with open(args.spans, encoding="utf-8") as fh:
        tracer.spans = [spans.Span.from_dict(json.loads(line)) for line in fh]
    total, self_t, incl_t = shares(tracer, args.root)
    if total <= 0:
        raise SystemExit(f"no {args.root} spans in {args.spans}")
    print(f"root {args.root}: {total * 1e3:.1f} ms in total")
    print(f"{'layer':44s} {'self %':>7s} {'incl %':>7s}")
    for name in sorted(incl_t, key=lambda n: -self_t[n]):
        print(f"{name:44s} {100 * self_t[name] / total:7.1f} {100 * incl_t[name] / total:7.1f}")


if __name__ == "__main__":
    main()
