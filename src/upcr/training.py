"""Unsupervised training: Chamfer loss on latent canonical shapes, Adam,
train / fine-tune loops, and binary checkpoints: a JSON header, then every
parameter as float64 in ``encoder.param_shapes`` order, so the header alone
fixes the payload's layout and length.

The loss path receives nothing but point clouds; ground-truth transforms
never enter this module's training functions.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from functools import reduce

import numpy as np

from . import autodiff as ad
from .encoder import EncoderConfig, ModelParams, init_params, param_shapes, precompute_cloud
from .features import FeatureSpec
from .geom import PointCloud, sqdist_matrix
from .rng import Rng, derive_seed
from .separation import register_pair

CHECKPOINT_MAGIC = b"UPCR"
CHECKPOINT_VERSION = 5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
HEADER_KEYS = frozenset({"config", "spec", "metadata"})


def unsupervised_loss(canonical_x: ad.Tensor, canonical_y: ad.Tensor) -> ad.Tensor:
    """Symmetric Chamfer value between canonical clouds, as one tape node.

    Nearest neighbors are chosen off-tape, the lowest index winning a tie;
    the loss is the mean of the selected squared distances in each
    direction, summed, so the gradient flows to the argmin pairs and
    identical clouds give exactly zero. Forward and gradients round as the
    unfused chain of gathers, ``x - y[j*]``, squares, sums, divisions and
    one add would, bit for bit.
    """
    x, y = canonical_x.data, canonical_y.data
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != 3 or y.shape[1] != 3:
        raise ad.ShapeError("unsupervised_loss expects [N,3] canonical clouds")
    nx, ny = len(x), len(y)
    if nx < 1 or ny < 1:
        raise ValueError("unsupervised_loss: empty cloud")
    d2 = sqdist_matrix(x, y)
    j_star = np.argmin(d2, axis=1)
    i_star = np.argmin(d2, axis=0)
    dx = x - y[j_star]
    dy = x[i_star] - y
    out = np.add(np.divide(np.sum(dx * dx), float(nx)), np.divide(np.sum(dy * dy), float(ny)))

    @ad._per_g
    def terms(g):  # d loss / d dx and d loss / d dy, each the sum of a square's two factors
        gx = np.full(dx.shape, float(g / nx))
        gy = np.full(dy.shape, float(g / ny))
        return gx * dx + gx * dx, gy * dy + gy * dy

    return ad._emit("chamfer", out, [
        (canonical_x, lambda g: terms(g)[0] + ad._scatter_rows(i_star, terms(g)[1], nx)),
        (canonical_y, lambda g: -terms(g)[1] + ad._scatter_rows(j_star, -terms(g)[0], ny))])


def _mean(losses: list[ad.Tensor]) -> ad.Tensor:
    """A batch's loss as one tape node: the pair losses summed left to
    right, divided by their count B; each pair's gradient is g / B."""
    total = reduce(np.add, [li.data for li in losses])
    count = np.asarray(float(len(losses)))
    return ad._emit("mean", np.divide(total, count),
                    [(li, lambda g: g / count) for li in losses])


# ---------------------------------------------------------------------------
# Adam


@dataclass
class OptimState:
    """Adam accumulators; moment shapes mirror the parameter shapes."""

    lr: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], lr: float) -> "OptimState":
        return cls(lr=lr, m={k: np.zeros_like(a) for k, a in params.items()},
                   v={k: np.zeros_like(a) for k, a in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimState) -> None:
    """Standard bias-corrected Adam update, in place."""
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for parameter {name!r}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoints


def _read_exact(fh, n: int) -> bytes:
    """The next ``n`` bytes; a length past the end of the file raises unread."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"{fh.name}: checkpoint truncated: a record needs {n} bytes, "
                         f"{left} are left")
    return fh.read(n)


def save_checkpoint(path: str, model: ModelParams) -> None:
    """Write ``model``, raising ValueError before the file is opened unless its
    parameters have exactly ``param_shapes``' names and shapes. No optimizer
    state is kept, as fine-tuning starts afresh."""
    shapes = param_shapes(model.config, model.spec)
    got = {k: np.shape(a) for k, a in model.params.items()}
    wrong = [f"{k} is {got.get(k, 'missing')}, expected {shapes.get(k, 'absent')}"
             for k in sorted(got.keys() | shapes.keys()) if got.get(k) != shapes.get(k)]
    if wrong:
        raise ValueError("model parameters do not match param_shapes: " + "; ".join(wrong))
    blob = json.dumps({"config": asdict(model.config), "spec": asdict(model.spec),
                       "metadata": model.metadata}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(blob)) + blob)
        for name in shapes:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def _check_keys(d: dict, names, label) -> None:
    """Raise unless ``d`` has exactly the keys ``names``, naming each wrong one."""
    wrong = ([f"missing {label(k)}" for k in sorted(names - d.keys())]
             + [f"unexpected {label(k)}" for k in sorted(d.keys() - names)])
    if wrong:
        raise ValueError("; ".join(wrong))


def _from_fields(cls, d: dict, section: str):
    """``cls(**d)``, once ``d`` names exactly the dataclass's fields."""
    _check_keys(d, {f.name for f in fields(cls)}, lambda k: f"{section}.{k}")
    return cls(**d)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        blob = _read_exact(fh, hlen)
        try:
            header = json.loads(blob.decode("utf-8"))  # both errors are ValueErrors
            if not isinstance(header, dict):
                raise TypeError("the header must be a JSON object")
            _check_keys(header, HEADER_KEYS, lambda k: f"key {k!r}")
            if not all(isinstance(header[k], dict) for k in HEADER_KEYS):
                raise TypeError("config, spec and metadata must be JSON objects")
            config = _from_fields(EncoderConfig, header["config"], "config")
            spec = _from_fields(FeatureSpec, header["spec"], "spec")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
        shapes = param_shapes(config, spec)
        sizes = [math.prod(s) for s in shapes.values()]  # Python ints: no overflow
        payload = _read_exact(fh, 8 * sum(sizes))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    # astype makes the one writeable copy that every parameter views
    chunks = np.split(np.frombuffer(payload, "<f8").astype(np.float64), np.cumsum(sizes)[:-1])
    params = {k: c.reshape(s) for (k, s), c in zip(shapes.items(), chunks)}
    bad = [k for k, a in params.items() if not np.all(np.isfinite(a))]
    if bad:
        raise ValueError(f"{path}: non-finite values in checkpoint tensor " + ", ".join(bad))
    return ModelParams(config, spec, params, header["metadata"])


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    checkpoint: ModelParams
    loss_curve: list[float]
    diverged: bool = False


def _run_epochs(model: ModelParams, pairs: list[tuple[PointCloud, PointCloud]],
                epochs: int, lr: float, batch_size: int, seed: int) -> tuple[list[float], bool]:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0.0 <= lr < np.inf:  # NaN fails both; lr = 0 is a legal no-op run
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    caches = [(precompute_cloud(x, model.spec, model.config),
               precompute_cloud(y, model.spec, model.config)) for x, y in pairs]
    order_rng = Rng(derive_seed(seed, "batch-order"))
    state = OptimState.for_params(model.params, lr=lr)
    curve: list[float] = []
    last_good = model.copy()
    for _ in range(epochs):
        idx = list(range(len(pairs)))
        order_rng.shuffle(idx)
        sample_losses: list[float] = []
        for lo in range(0, len(idx), batch_size):
            batch = idx[lo:lo + batch_size]
            tape = ad.Tape()
            bound = model.bind(tape)
            losses = []
            for i in batch:
                x, y = pairs[i]
                res = register_pair(x, y, model, caches=caches[i], bound=bound)
                losses.append(unsupervised_loss(res.canonical_x_t, res.canonical_y_t))
                sample_losses.append(losses[-1].item())
            loss = _mean(losses)
            if not np.isfinite(loss.item()):
                model.params = last_good.params
                return curve, True
            ad.backward(loss)
            grads = {name: bound[name].grad for name in model.params}
            adam_step(model.params, grads, state)
        curve.append(float(np.mean(sample_losses)))
        last_good = model.copy()
    return curve, False


def train(config: EncoderConfig, spec: FeatureSpec, rotation_mode: str,
          samples, epochs: int, lr: float = 1e-3, batch_size: int = 8,
          seed: int = 0, clip_norm: None = None, schedule: str = "constant") -> TrainResult:
    """Train a fresh model on dataset samples (only their clouds are read),
    with Adam at the constant learning rate ``lr``.

    ``rotation_mode``, ``clip_norm`` and ``schedule`` accept only ``"euler"``,
    ``None`` and ``"constant"``. They stay only because the benchmark passes
    them, and go with the benchmark change of ROADMAP item B.
    """
    if clip_norm is not None:
        raise ValueError(f"clip_norm must be None, got {clip_norm!r}")
    if schedule != "constant":
        raise ValueError(f"schedule must be 'constant', got {schedule!r}")
    if not samples:
        raise ValueError("train: dataset is empty")
    pairs = [(s.source, s.target) for s in samples]
    model = init_params(config, spec, rotation_mode, derive_seed(seed, "init"))
    curve, diverged = _run_epochs(model, pairs, epochs, lr, batch_size, seed)
    model.metadata = {"epochs": len(curve), "seed": seed, "lr": lr,
                      "batch_size": batch_size, "loss_history": curve, "diverged": diverged}
    return TrainResult(model, curve, diverged)


def fine_tune(model: ModelParams, pairs: list[tuple[PointCloud, PointCloud]],
              epochs: int, lr: float = 1e-4, batch_size: int = 8,
              seed: int = 0) -> TrainResult:
    """Train a copy of ``model`` further, with a fresh optimizer state;
    ``model`` itself is left as it was.

    Takes bare cloud pairs: there is no ground truth anywhere in this path.
    """
    if not pairs:
        raise ValueError("fine_tune: no pairs given")
    model = model.copy()
    curve, diverged = _run_epochs(model, pairs, epochs, lr, batch_size, seed)
    model.metadata.update({"fine_tune_epochs": len(curve), "fine_tune_lr": lr,
                           "fine_tune_seed": seed, "fine_tune_loss_history": curve,
                           "fine_tune_diverged": diverged})
    return TrainResult(model, curve, diverged)


def write_loss_curve(path: str, curve: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for i, v in enumerate(curve, start=1):
            fh.write(f"{i},{v:.12g}\n")
