"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the
pair (or training step) it belongs to. Spans stay in memory until the run
ends. A layer's self time is its span's duration minus the time its child
spans cover; calls are strictly nested on one thread, so that is the sum of
the children's durations.

Wrapping is done at every module attribute that is bound to the function, so
aliases such as ``encoder.affine`` (= ``autodiff.affine``) or the
``register_pair`` imported into ``training`` and ``evalbench`` are caught
where their callers look them up at call time.
"""

from __future__ import annotations

import sys
from time import perf_counter
from types import ModuleType
from typing import Callable

# (module, function) pairs whose calls become spans; the span is named
# "<module>.<function>" after the module that defines the function
TRACED = (
    ("autodiff", "leaky_relu"), ("autodiff", "reduce_max"), ("autodiff", "pair_table"),
    ("autodiff", "matmul"), ("autodiff", "affine"), ("autodiff", "backward"),
    ("geom", "graph_knn"), ("geom", "knn"), ("geom", "sqdist_matrix"), ("geom", "fit_rigid"),
    ("encoder", "precompute_cloud"), ("encoder", "edge_conv_layer"),
    ("encoder", "channel_norm"), ("encoder", "encode_global"), ("encoder", "encode_invariant"),
    ("features", "neighbor_feature_array"), ("features", "estimate_normals"),
    ("features", "pfh_table"), ("features", "spfh_table"),
    ("features", "point_descriptor_table"),
    ("separation", "register_pair"),
    ("training", "train"), ("training", "unsupervised_loss"), ("training", "adam_step"),
    ("evalbench", "feature_match_init"), ("evalbench", "icp"),
)


def _edge_table_bytes(result, args, kwargs) -> float:
    return float(result.data.nbytes)


def _tape_nodes(result, args, kwargs) -> float:
    loss = args[0] if args else kwargs["loss"]
    return float(len(loss.tape.nodes)) if loss.tape is not None else 0.0


# per-span values read off a call's arguments and result
VALUE_HOOKS = {
    "autodiff.pair_table": _edge_table_bytes,
    "autodiff.backward": _tape_nodes,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "value", "failed")

    def __init__(self, name: str, start: float, parent: int, unit: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.value = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "unit": self.unit, "value": self.value,
                "failed": self.failed}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["name"], d["start"], d["parent"], d["unit"])
        span.end, span.value, span.failed = d["end"], d["value"], d["failed"]
        return span


class Tracer:
    """Collects spans; ``unit`` is the pair or step id stamped on new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent, self.unit))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = VALUE_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].failed = True
                raise
            finally:
                self.close(idx)
            if hook is not None:
                self.spans[idx].value = hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Per-span self time in seconds, in span order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def package_modules(package: str = "upcr") -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def rebind(original: Callable, replacement: Callable,
           modules: list[ModuleType]) -> list[tuple[ModuleType, str, Callable]]:
    """Point every module attribute bound to ``original`` at ``replacement``.

    Returns the (module, attribute, previous value) triples needed to undo it.
    """
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list[tuple[ModuleType, str, Callable]]) -> None:
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


def install(tracer: Tracer, package: str = "upcr") -> list[tuple[ModuleType, str, Callable]]:
    """Wrap every function in :data:`TRACED`; returns the undo list."""
    modules = package_modules(package)
    by_name = {m.__name__: m for m in modules}
    undo = []
    for mod_name, fn_name in TRACED:
        original = getattr(by_name[f"{package}.{mod_name}"], fn_name)
        undo += rebind(original, tracer.wrap(f"{mod_name}.{fn_name}", original), modules)
    return undo
