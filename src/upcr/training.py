"""Unsupervised training: Chamfer loss on latent canonical shapes, Adam,
train / fine-tune loops, and binary checkpoints.

The loss path receives nothing but point clouds; ground-truth transforms
never enter this module's training functions.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geom
from .encoder import EncoderConfig, ModelParams, init_params, precompute_cloud
from .features import FeatureSpec
from .geom import PointCloud, sqdist_matrix
from .rng import Rng, derive_seed
from .separation import register_pair

CHECKPOINT_MAGIC = b"UPCR"
CHECKPOINT_VERSION = 1


def unsupervised_loss(canonical_x: ad.Tensor, canonical_y: ad.Tensor) -> ad.Tensor:
    """Differentiable symmetric Chamfer value between canonical clouds.

    Nearest neighbors are chosen off-tape; the loss is the mean of the
    selected squared distances, so the gradient flows to the argmin pairs
    and identical clouds give exactly zero.
    """
    x, y = canonical_x.data, canonical_y.data
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != 3 or y.shape[1] != 3:
        raise ad.ShapeError("unsupervised_loss expects [N,3] canonical clouds")
    if x.shape[0] < 1 or y.shape[0] < 1:
        raise ValueError("unsupervised_loss: empty cloud")
    d2 = sqdist_matrix(x, y)
    j_star = np.argmin(d2, axis=1)
    i_star = np.argmin(d2, axis=0)

    dx = ad.sub(canonical_x, ad.gather_rows(canonical_y, j_star))
    dy = ad.sub(ad.gather_rows(canonical_x, i_star), canonical_y)
    term_x = ad.div(ad.reduce_sum(ad.mul(dx, dx)), float(x.shape[0]))
    term_y = ad.div(ad.reduce_sum(ad.mul(dy, dy)), float(y.shape[0]))
    return ad.add(term_x, term_y)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class OptimState:
    """Adam accumulators; moment shapes mirror the parameter shapes."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, tensors: dict[str, np.ndarray], lr: float, **kw) -> "OptimState":
        state = cls(lr=lr, **kw)
        state.m = {k: np.zeros_like(a) for k, a in tensors.items()}
        state.v = {k: np.zeros_like(a) for k, a in tensors.items()}
        return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: OptimState) -> None:
    """Standard bias-corrected Adam update, in place."""
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise ValueError(f"adam_step: non-finite gradient for parameter {name!r}")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    config: EncoderConfig
    spec: FeatureSpec
    rotation_mode: str
    params: dict[str, np.ndarray]
    optim: OptimState | None = None
    metadata: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_model(self) -> ModelParams:
        return ModelParams(self.config, self.spec, self.rotation_mode,
                           {k: v.copy() for k, v in self.params.items()})

    @classmethod
    def from_model(cls, model: ModelParams, optim: OptimState | None = None,
                   metadata: dict | None = None) -> "Checkpoint":
        return cls(model.config, model.spec, model.rotation_mode,
                   {k: v.copy() for k, v in model.tensors.items()},
                   optim=optim, metadata=dict(metadata or {}))

    def require_compatible(self, config: EncoderConfig | None = None,
                           spec: FeatureSpec | None = None,
                           rotation_mode: str | None = None) -> None:
        """Reject use under a pipeline configured differently."""
        if config is not None and config.to_dict() != self.config.to_dict():
            raise ValueError(f"checkpoint config {self.config.to_dict()} does not match "
                             f"requested {config.to_dict()}")
        if spec is not None and (spec.kind, spec.spfh_bins, spec.pfh_bins) != (
                self.spec.kind, self.spec.spfh_bins, self.spec.pfh_bins):
            raise ValueError(f"checkpoint feature spec {self.spec.kind!r} does not match "
                             f"requested {spec.kind!r}")
        if rotation_mode is not None and rotation_mode != self.rotation_mode:
            raise ValueError(f"checkpoint rotation mode {self.rotation_mode!r} does not "
                             f"match requested {rotation_mode!r}")


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError("checkpoint truncated")
    return buf


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, nlen).decode("utf-8")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    count = int(np.prod(dims)) if rank else 1
    data = np.frombuffer(_read_exact(fh, 8 * count), dtype="<f8").astype(np.float64)
    return name, data.reshape(dims)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    header = {
        "config": ckpt.config.to_dict(),
        "spec": {"kind": ckpt.spec.kind, "spfh_bins": ckpt.spec.spfh_bins,
                 "pfh_bins": ckpt.spec.pfh_bins},
        "rotation_mode": ckpt.rotation_mode,
        "metadata": ckpt.metadata,
        "optim": None if ckpt.optim is None else {
            "lr": ckpt.optim.lr, "beta1": ckpt.optim.beta1,
            "beta2": ckpt.optim.beta2, "eps": ckpt.optim.eps,
            "step": ckpt.optim.step,
        },
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = dict(ckpt.params)
    if ckpt.optim is not None:
        for k, a in ckpt.optim.m.items():
            tensors[f"optim.m.{k}"] = a
        for k, a in ckpt.optim.v.items():
            tensors[f"optim.v.{k}"] = a
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name in tensors:
            _write_tensor(fh, name, tensors[name])


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        tensors = dict(_read_tensor(fh) for _ in range(count))
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")

    params = {k: v for k, v in tensors.items() if not k.startswith("optim.")}
    try:
        if not isinstance(header["config"], dict) or not isinstance(header["spec"], dict):
            raise TypeError("config and spec must be JSON objects")
        config = EncoderConfig.from_dict(header["config"])
        spec = FeatureSpec(**header["spec"])
        mode = header["rotation_mode"]
        o = header.get("optim")
        optim = None if o is None else OptimState(
            lr=o["lr"], beta1=o["beta1"], beta2=o["beta2"], eps=o["eps"], step=o["step"])
    except KeyError as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    if optim is not None:
        optim.m = {k[len("optim.m."):]: v for k, v in tensors.items()
                   if k.startswith("optim.m.")}
        optim.v = {k[len("optim.v."):]: v for k, v in tensors.items()
                   if k.startswith("optim.v.")}
    geom.rotation_mode(mode)  # an unknown mode raises ValueError here
    return Checkpoint(
        config=config,
        spec=spec,
        rotation_mode=mode,
        params=params,
        optim=optim,
        metadata=header.get("metadata", {}),
        version=version,
    )


# ---------------------------------------------------------------------------
# training loops


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    loss_curve: list[float]
    diverged: bool = False


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def _run_epochs(model: ModelParams, pairs: list[tuple[PointCloud, PointCloud]],
                epochs: int, batch_size: int, seed: int, state: OptimState,
                clip_norm: float | None, schedule: str = "constant") -> tuple[list[float], bool]:
    caches = [(precompute_cloud(x, model.spec, model.config),
               precompute_cloud(y, model.spec, model.config)) for x, y in pairs]
    order_rng = Rng(derive_seed(seed, "batch-order"))
    curve: list[float] = []
    last_good = model.copy()
    lr0 = state.lr
    steps_per_epoch = (len(pairs) + batch_size - 1) // batch_size
    total_steps = max(1, epochs * steps_per_epoch)
    step = 0
    for _ in range(epochs):
        idx = list(range(len(pairs)))
        order_rng.shuffle(idx)
        sample_losses: list[float] = []
        for lo in range(0, len(idx), batch_size):
            batch = idx[lo:lo + batch_size]
            tape = ad.Tape()
            bound = model.bind(tape)
            total = None
            for i in batch:
                x, y = pairs[i]
                res = register_pair(x, y, model, caches=caches[i], bound=bound)
                li = unsupervised_loss(res.canonical_x_t, res.canonical_y_t)
                sample_losses.append(li.item())
                total = li if total is None else ad.add(total, li)
            loss = ad.div(total, float(len(batch)))
            if not np.isfinite(loss.item()):
                model.tensors = last_good.tensors
                return curve, True
            ad.backward(loss)
            grads = {name: bound[name].grad for name in model.tensors}
            if clip_norm is not None:
                _clip_gradients({k: g for k, g in grads.items() if g is not None}, clip_norm)
            if schedule == "cosine":
                state.lr = lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
            adam_step(model.tensors, grads, state)
            step += 1
        curve.append(float(np.mean(sample_losses)))
        last_good = model.copy()
    state.lr = lr0
    return curve, False


def train(config: EncoderConfig, spec: FeatureSpec, rotation_mode: str,
          samples, epochs: int, lr: float = 1e-3, batch_size: int = 8,
          seed: int = 0, clip_norm: float | None = None,
          schedule: str = "constant") -> TrainResult:
    """Train a fresh model on dataset samples (only their clouds are read).

    ``lr`` is the initial learning rate; ``schedule="cosine"`` decays it to
    zero over the run, the default holds it constant.
    """
    if not samples:
        raise ValueError("train: dataset is empty")
    pairs = [(s.source, s.target) for s in samples]
    model = init_params(config, spec, rotation_mode, derive_seed(seed, "init"))
    state = OptimState.for_params(model.tensors, lr=lr)
    curve, diverged = _run_epochs(model, pairs, epochs, batch_size, seed, state,
                                  clip_norm, schedule)
    meta = {"epochs": len(curve), "seed": seed, "lr": lr,
            "batch_size": batch_size, "loss_history": curve, "diverged": diverged}
    return TrainResult(Checkpoint.from_model(model, optim=state, metadata=meta),
                       curve, diverged)


def fine_tune(checkpoint: Checkpoint, pairs: list[tuple[PointCloud, PointCloud]],
              epochs: int, lr: float = 1e-4, batch_size: int = 8,
              seed: int = 0, clip_norm: float | None = None,
              schedule: str = "constant") -> TrainResult:
    """Continue training from a checkpoint with a fresh optimizer state.

    Takes bare cloud pairs: there is no ground truth anywhere in this path.
    """
    if not pairs:
        raise ValueError("fine_tune: no pairs given")
    model = checkpoint.to_model()
    state = OptimState.for_params(model.tensors, lr=lr)
    curve, diverged = _run_epochs(model, pairs, epochs, batch_size, seed, state,
                                  clip_norm, schedule)
    meta = dict(checkpoint.metadata)
    meta.update({"fine_tune_epochs": len(curve), "fine_tune_lr": lr,
                 "fine_tune_seed": seed, "fine_tune_loss_history": curve,
                 "diverged": diverged})
    return TrainResult(Checkpoint.from_model(model, optim=state, metadata=meta),
                       curve, diverged)


def write_loss_curve(path: str, curve: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for i, v in enumerate(curve, start=1):
            fh.write(f"{i},{v:.12g}\n")
