"""Graph encoders for the global and pose-invariant cloud representations.

Both branches stack edge-convolution layers: per point, every neighbor
contributes concat(center, neighbor - center) through a shared affine +
LeakyReLU, and max-pooling over neighbors gives the new point feature.
Max-pooling over all points turns the last layer into an m-vector.

The global branch runs on raw coordinates and rebuilds its graph from the
current feature values each layer (configurable); the invariant branch runs
on pose-invariant neighbor features over the fixed spatial graph, so its
output never moves under a rigid motion of the input. The dynamic graph is
rebuilt off the tape, so the global output, and with it the training loss,
is only piecewise continuous in the weights: it jumps wherever a small
weight change alters some point's feature-space neighbor set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import geom
from .features import FeatureSpec, embed_from_features, neighbor_feature_array
from .geom import PointCloud
from .rng import Rng

# per-layer widths for the two standard sizes (last width == m)
_PRESET_WIDTHS = {
    (5, 512): (64, 64, 128, 256, 512),
    (5, 64): (16, 16, 32, 32, 64),
}


@dataclass
class EncoderConfig:
    k: int = 24
    m: int = 512
    layers: int = 5
    widths: tuple[int, ...] | None = None
    slope: float = 0.2
    dynamic_graph: bool = True
    feature_norm: bool = True  # per-cloud channel normalization between layers
    head_widths: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        if self.k < 1 or self.m < 1 or self.layers < 1:
            raise ValueError("k, m and layers must all be >= 1")
        if self.widths is None:
            self.widths = _PRESET_WIDTHS.get((self.layers, self.m))
        if self.widths is None:
            # geometric ramp up to m
            self.widths = tuple(
                max(4, self.m >> (self.layers - 1 - i)) for i in range(self.layers - 1)
            ) + (self.m,)
        self.widths = tuple(int(w) for w in self.widths)
        if len(self.widths) != self.layers:
            raise ValueError(f"widths {self.widths} must have one entry per layer ({self.layers})")
        if self.widths[-1] != self.m:
            raise ValueError(f"last width {self.widths[-1]} must equal m={self.m}")
        if any(w < 1 for w in self.widths):
            raise ValueError("layer widths must be positive")
        self.head_widths = tuple(int(w) for w in self.head_widths)

    def to_dict(self) -> dict:
        return {
            "k": self.k, "m": self.m, "layers": self.layers,
            "widths": list(self.widths), "slope": self.slope,
            "dynamic_graph": self.dynamic_graph, "feature_norm": self.feature_norm,
            "head_widths": list(self.head_widths),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = dict(d)
        d["widths"] = tuple(d["widths"])
        d["head_widths"] = tuple(d["head_widths"])
        return cls(**d)


@dataclass
class ModelParams:
    """Named parameter tensors for both encoders and the pose head."""

    config: EncoderConfig
    spec: FeatureSpec
    rotation_mode: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def bind(self, tape: ad.Tape) -> dict[str, ad.Tensor]:
        """Register every parameter as a grad-requiring leaf on ``tape``."""
        return {name: tape.leaf(arr, requires_grad=True) for name, arr in self.tensors.items()}

    def constants(self) -> dict[str, ad.Tensor]:
        return {name: ad.constant(arr) for name, arr in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.spec, self.rotation_mode,
                           {k: v.copy() for k, v in self.tensors.items()})

    def check_finite(self) -> None:
        for name, arr in self.tensors.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"parameter {name!r} contains non-finite values")


def _glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_params(config: EncoderConfig, spec: FeatureSpec, rotation_mode: str,
                seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, in a deterministic name order."""
    rot_len = geom.rotation_mode(rotation_mode).length
    rng = Rng(seed)
    t: dict[str, np.ndarray] = {}
    c_in = 3
    for i, c_out in enumerate(config.widths):
        t[f"global.{i}.w"] = _glorot(rng, 2 * c_in, c_out)
        t[f"global.{i}.b"] = np.zeros((1, c_out))
        c_in = c_out
    t["alpha.w"] = _glorot(rng, spec.dim, config.widths[0])
    t["alpha.b"] = np.zeros((1, config.widths[0]))
    c_in = config.widths[0]
    for i in range(1, config.layers):
        c_out = config.widths[i]
        t[f"inv.{i}.w"] = _glorot(rng, 2 * c_in, c_out)
        t[f"inv.{i}.b"] = np.zeros((1, c_out))
        c_in = c_out
    dims = (config.m,) + config.head_widths + (rot_len + 3,)
    for i in range(len(dims) - 1):
        t[f"head.{i}.w"] = _glorot(rng, dims[i], dims[i + 1])
        t[f"head.{i}.b"] = np.zeros((1, dims[i + 1]))
    return ModelParams(config, spec, rotation_mode, t)


# ---------------------------------------------------------------------------
# layers


affine = ad.affine


def channel_norm(feats: ad.Tensor, eps: float = 1e-8) -> ad.Tensor:
    """Rescale each channel by its root-mean-square over the cloud's points.

    Deterministic per-sample statistics (this is not batch normalization):
    permutation-invariant, unchanged by duplicating points, and invariant
    features stay invariant. No centering, so per-channel offsets (which
    carry the cloud's absolute position in the global branch) pass through.
    Keeps deep stacks well-scaled so the desk-size training budget converges.
    """
    n = feats.shape[0]
    ms_row = ad.matmul(ad.constant(np.full((1, n), 1.0 / n)),
                       ad.mul(feats, feats))                             # [1, c]
    scale = ad.sqrt(ad.add(ms_row, eps))
    return ad.div(feats, ad.repeat_rows(scale, n))


def edge_conv_layer(feats: ad.Tensor, neighbors: np.ndarray, weight, bias,
                    slope: float = 0.2) -> ad.Tensor:
    """One edge convolution: shared MLP over (center, neighbor - center) edge
    pairs, max-pooled over each point's k neighbors.

    The edge input concat(F_i, F_j - F_i) @ W factors into per-point linear
    maps, F_i @ (W_top - W_bot) + F_j @ W_bot, so the k-fold expansion happens
    after the matrix products (k times fewer GEMM flops, same function).
    """
    n, k = neighbors.shape
    if feats.shape[0] != n:
        raise ad.ShapeError(f"edge_conv_layer: {feats.shape[0]} feature rows for {n} points")
    w = ad.as_tensor(weight)
    c = feats.shape[1]
    if w.shape[0] != 2 * c:
        raise ad.ShapeError(f"edge_conv_layer: weight rows {w.shape[0]} != 2*c = {2 * c}")
    w_top = ad.gather_rows(w, np.arange(c))
    w_bot = ad.gather_rows(w, np.arange(c, 2 * c))
    center = ad.affine(feats, ad.sub(w_top, w_bot), bias)  # [n, c']
    nbr_part = ad.matmul(feats, w_bot)                     # [n, c']
    h = ad.leaky_relu(ad.pair_table(center, nbr_part, neighbors), slope)
    h = ad.reshape(h, (n, k, h.shape[1]))
    return ad.reduce_max(h, axis=1)                        # [n, c']


@dataclass
class CloudCache:
    """Pose- and parameter-independent per-cloud work, reusable across steps."""

    spatial_graph: np.ndarray  # [N, k] geom.graph_knn table: layer 0, embedding, invariant layers
    phi: np.ndarray            # [N, k, d] raw invariant neighbor features over spatial_graph


def precompute_cloud(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig) -> CloudCache:
    if len(cloud) <= config.k:
        raise ValueError(f"need more than k={config.k} points, got {len(cloud)}")
    graph = geom.graph_knn(cloud.points, config.k)
    return CloudCache(graph, neighbor_feature_array(cloud, spec, graph))


def encode_global(cloud: PointCloud, config: EncoderConfig, params: dict,
                  cache: CloudCache | None = None) -> ad.Tensor:
    """Global representation: stacked edge convolutions on raw coordinates,
    max-pooled over all points into an m-vector. Pose sensitive by design."""
    n = len(cloud)
    if n <= config.k:
        raise ValueError(f"encode_global needs N > k, got N={n}, k={config.k}")
    x = ad.constant(cloud.points)
    for i in range(config.layers):
        if i == 0:
            nbr = cache.spatial_graph if cache is not None else geom.graph_knn(
                cloud.points, config.k)
        elif config.dynamic_graph:
            nbr = geom.graph_knn(x.data, config.k)
        x = edge_conv_layer(x, nbr, params[f"global.{i}.w"], params[f"global.{i}.b"],
                            config.slope)
        if config.feature_norm and i < config.layers - 1:
            x = channel_norm(x)
    return ad.reduce_max(x, axis=0)


def encode_invariant(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig,
                     params: dict, cache: CloudCache | None = None) -> ad.Tensor:
    """Pose-invariant representation: invariant point embedding followed by
    edge convolutions over the (pose-invariant) spatial neighbor graph."""
    n = len(cloud)
    if n <= config.k:
        raise ValueError(f"encode_invariant needs N > k, got N={n}, k={config.k}")
    if cache is None:
        cache = precompute_cloud(cloud, spec, config)
    x = embed_from_features(cache.phi, params["alpha.w"], params["alpha.b"], config.slope)
    if config.feature_norm:
        x = channel_norm(x)
    for i in range(1, config.layers):
        x = edge_conv_layer(x, cache.spatial_graph, params[f"inv.{i}.w"],
                            params[f"inv.{i}.b"], config.slope)
        if config.feature_norm and i < config.layers - 1:
            x = channel_norm(x)
    return ad.reduce_max(x, axis=0)
