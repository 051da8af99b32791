"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-bench --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
alternates traced and untraced operations and reports per-layer metrics from
the traced ones, plus the tracing overhead. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are fixed at library load, so pin them before NumPy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 3
IMPORT_REPS = 3  # this process's imports plus those of IMPORT_REPS - 1 fresh interpreters
# the imports this process makes before its set-up, timed the same way in a child
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, {here!r}); "
                "import run; run.import_package(); import workloads; "
                "print(time.perf_counter() - t0)")
SPAN_DIR = os.path.join(HERE, "out")

# name -> unit of the end-to-end metrics (trace 0) and per-layer metrics (trace 1)
END_TO_END = {"setup_s": "s", "pairs_per_s": "1/s", "register_ms.p50": "ms",
              "peak_rss_mb": "MB"}
COUNTS = {"geom.graph_knn.calls": "count", "autodiff.edge_table_bytes": "B",
          "autodiff.tape_nodes": "count", "evalbench.icp.iterations": "count"}
LAYER_UNITS = {**COUNTS, "evalbench.feature_match_init.success_ratio": "ratio",
               "bench.untraced_pairs_per_s": "1/s", "bench.traced_pairs_per_s": "1/s",
               "bench.trace_overhead_pct": "%"}


def unit_of(name: str) -> str:
    """Unit of any reported metric; the remaining per-layer ones are *.self_ms."""
    return END_TO_END.get(name) or LAYER_UNITS.get(name, "ms")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class _SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its ``.py`` file and neither reads nor writes
    ``__pycache__``, so the import costs the same whatever the checkout holds."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return self.source_to_code(self.get_data(path), path)


class _UpcrFinder:
    """Finds ``upcr`` and its submodules in ``src/`` and loads them from source."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name != "upcr" and not name.startswith("upcr."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path or [SRC])
        if spec is not None and type(spec.loader) is importlib.machinery.SourceFileLoader:
            spec.loader = _SourceOnlyLoader(spec.loader.name, spec.loader.path)
        return spec


def import_package():
    """Import ``upcr`` from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "upcr", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/upcr not found; run from a full checkout of the repository")
    if _UpcrFinder not in sys.meta_path:
        sys.meta_path.insert(0, _UpcrFinder)
    import upcr
    if not os.path.abspath(upcr.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported upcr from {upcr.__file__}, not from {SRC}")


def fresh_import_seconds() -> float:
    """Seconds a new interpreter takes for the imports this process timed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(here=HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def blas_threads() -> int:
    """OS threads of this process after a large matmul (a BLAS pool shows here)."""
    import numpy as np
    a = np.ones((768, 768))
    (a @ a).sum()
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def environment() -> dict:
    import numpy as np
    import scipy
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            level, kind, size = (_read(os.path.join(base, idx, f)) for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower()}={size}")
    env["caches"] = " ".join(caches) or "unknown"
    env["commit"] = git_commit()
    env["blas_env"] = ",".join(f"{v}={os.environ[v]}" for v in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return env


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read().strip()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            return _read(os.path.join(git, ref))
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def layer_metrics(tracer, wl, traced_units: int) -> dict[str, float]:
    """Per-unit self times over all traced units; exact counts over the first
    ``wl.count_units`` traced units, which are the same inputs on every run."""
    selfs = tracer.self_times()
    names = [f"{m}.{f}" for m, f in spans.TRACED] + ["bench.op"]
    total = dict.fromkeys(names, 0.0)
    for span, st in zip(tracer.spans, selfs):
        total[span.name] += st
    out = {f"{n}.self_ms": total[n] * 1e3 / traced_units for n in names}

    window = [s for s in tracer.spans if s.unit < wl.count_units]
    units = wl.count_units

    def per_unit(pred, value=lambda s: 1.0):
        return sum(value(s) for s in window if pred(s)) / units

    out["geom.graph_knn.calls"] = per_unit(lambda s: s.name == "geom.graph_knn")
    out["autodiff.edge_table_bytes"] = per_unit(lambda s: s.name == "autodiff.pair_table",
                                                lambda s: s.value)
    out["autodiff.tape_nodes"] = per_unit(lambda s: s.name == "autodiff.backward",
                                          lambda s: s.value)
    out["evalbench.icp.iterations"] = per_unit(
        lambda s: s.name == "geom.fit_rigid" and s.parent >= 0
        and tracer.spans[s.parent].name == "evalbench.icp")
    inits = [s for s in window if s.name == "evalbench.feature_match_init"]
    out["evalbench.feature_match_init.success_ratio"] = (
        sum(not s.failed for s in inits) / len(inits) if inits else 0.0)
    return out


def write_spans(tracer, workload: str, seed: int) -> str:
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.to_dict()) + "\n")
    return path


def run(args) -> int:
    import_package()
    import workloads
    import_times = [time.perf_counter() - T_START]
    import_times += [fresh_import_seconds() for _ in range(IMPORT_REPS - 1)]
    threads = blas_threads()
    env = environment()
    env["threads_after_matmul"] = threads
    for key, val in env.items():
        print(f"env.{key} = {val}")
    if threads != 1:
        print(f"perfbench: expected 1 thread after a large matmul, found {threads}; "
              "BLAS threads are not pinned", file=sys.stderr)
        return 3

    import numpy as np
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = statistics.median(import_times)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload]()
        wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = spans.Tracer() if args.trace else None
    min_ops = wl.min_ops
    if args.trace:  # every count window traced, and at least one untraced op to compare
        min_ops = max(min_ops, 2 * (wl.count_units if wl.unit == "pair" else 1))
    ops, traced = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - t_start < args.seconds:
        on = tracer is not None and index % 2 == 0
        undo = spans.install(tracer) if on else []
        root = tracer.open("bench.op") if on else None
        try:
            op = wl.run_op(index, tracer if on else None)
        except Exception as exc:  # any exception is a failed operation
            op = workloads.Op(problems=[f"{type(exc).__name__}: {exc}"])
        finally:
            if on:
                tracer.close(root)
                spans.restore(undo)
        if on and wl.unit == "pair":
            tracer.unit += 1
        (traced if on else ops).append(op)
        index += 1
    wall = time.perf_counter() - t_start

    all_ops = ops + traced
    extra = wl.summary(all_ops)
    for op in all_ops:
        attempted += max(op.pairs, 1)
        failed += max(op.pairs, 1) if op.problems else 0
    problems = [p for op in all_ops for p in op.problems]
    for p in sorted(set(problems))[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    def pps(group):
        secs = sum(op.wall_s for op in group)
        return sum(op.pairs for op in group) / secs if secs > 0 else 0.0

    print(f"workload = {wl.name}  seed = {args.seed}  trace = {args.trace}  "
          f"timed wall = {wall:.3f} s  ops = {len(all_ops)}")
    print(f"setup_s = {setup_s:.4f} s (median of {IMPORT_REPS} imports "
          f"{[round(t, 3) for t in import_times]} + median of "
          f"{SETUP_REPS} set-ups {[round(t, 3) for t in setup_times]})")
    if args.trace:
        traced_units = max(sum(op.units for op in traced), 1)
        metrics = layer_metrics(tracer, wl, traced_units)
        untraced_pps, traced_pps = pps(ops), pps(traced)
        metrics["bench.untraced_pairs_per_s"] = untraced_pps
        metrics["bench.traced_pairs_per_s"] = traced_pps
        metrics["bench.trace_overhead_pct"] = (
            (untraced_pps / traced_pps - 1.0) * 100.0 if traced_pps > 0 else 0.0)
        print(f"traced {traced_units} {wl.unit}s in {len(traced)} ops; "
              f"exact counts over the first {wl.count_units} traced {wl.unit}s")
        print(f"spans written to {os.path.relpath(write_spans(tracer, wl.name, args.seed), ROOT)}")
        per = f"per {wl.unit}"
        for name, val in metrics.items():
            unit = unit_of(name)
            print(f"{name} = {val:.6g} {unit}" + (f" {per}" if unit in ("ms", "B", "count") else ""))
    else:
        reg = [ms for op in ops for ms in op.register_ms]
        base = [ms for op in ops for ms in op.baseline_ms]
        metrics = {"setup_s": setup_s, "pairs_per_s": pps(ops),
                   "register_ms.p50": statistics.median(reg) if reg else 0.0}
        lines = [("pairs_per_s", metrics["pairs_per_s"], "1/s", sum(op.pairs for op in ops))]
        for label, samples in (("register_ms", reg), ("baseline_ms", base)):
            if samples:
                lines.append((f"{label}.p50", statistics.median(samples), "ms", len(samples)))
                lines.append((f"{label}.p90", float(np.percentile(samples, 90)) if len(samples) >= 100
                               else None, "ms", len(samples)))
        for name, val, unit, n in lines + extra:
            shown = f"{val:.6g} {unit}" if val is not None else "n/a (needs >= 100 samples)"
            print(f"{name} = {shown} (n={n})")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        metrics["peak_rss_mb"] = peak
    print(f"peak_rss_mb = {peak:.1f} MB")
    print(f"failed_share = {failed / max(attempted, 1):.4f} ({failed} failed of {attempted} attempted)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit_of(name)} for name, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
