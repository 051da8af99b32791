"""Graph encoders for the global and pose-invariant cloud representations.

Both branches stack edge-convolution layers: per point, every neighbor
contributes concat(center, neighbor - center) through a shared affine +
LeakyReLU, and max-pooling over neighbors gives the new point feature.
Between layers, and after the invariant branch's point embedding,
``channel_norm`` rescales every channel over the cloud. Max-pooling over all
points turns the last layer into an m-vector.

LeakyReLU with slope ``autodiff.SLOPE`` >= 0 is monotone, and so is the
float rounding of SLOPE*x and of a sum, so max_j act(a_i + b_j) ==
act(a_i + max_j b_j) bit for bit wherever no sum is inf - inf. Every layer
therefore pools only the neighbor term over k, in ``autodiff.neighbor_max``,
then adds the centre term and applies the activation to [n, c] rows: no
[n*k, c] edge table ever exists whole, and on a tape only the [n, c] winning
neighbors are kept, so the backward never builds an [n*k, c] gradient.

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


def check_counts(label: str, *values) -> None:
    """Raise ValueError unless every value is a plain int (not a bool) >= 1."""
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values):
        raise ValueError(f"{label} must be positive ints, got {values}")


@dataclass
class EncoderConfig:
    k: int = 24
    m: int = 512
    layers: int = 5
    widths: tuple[int, ...] | None = None
    dynamic_graph: bool = True
    head_widths: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        check_counts("k, m and layers", self.k, self.m, self.layers)
        if not isinstance(self.dynamic_graph, bool):
            raise ValueError(f"dynamic_graph must be a bool, got {self.dynamic_graph!r}")
        if self.widths is None:
            self.widths = _PRESET_WIDTHS.get((self.layers, self.m))
        if self.widths is None:
            # geometric ramp up to m
            self.widths = tuple(
                max(4, self.m >> (self.layers - 1 - i)) for i in range(self.layers - 1)
            ) + (self.m,)
        self.widths, self.head_widths = tuple(self.widths), tuple(self.head_widths)
        check_counts("layer and head widths", *self.widths, *self.head_widths)
        if len(self.widths) != self.layers:
            raise ValueError(f"widths {self.widths} must have one entry per layer ({self.layers})")
        if self.widths[-1] != self.m:
            raise ValueError(f"last width {self.widths[-1]} must equal m={self.m}")


@dataclass
class ModelParams:
    """The model: named parameter arrays for both encoders and the pose head, and
    the run metadata training records. Checkpoints store exactly this."""

    config: EncoderConfig
    spec: FeatureSpec
    rotation_mode: str
    params: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def bind(self, tape: ad.Tape) -> dict[str, ad.Tensor]:
        """Register every parameter as a grad-requiring leaf on ``tape``."""
        return {name: tape.leaf(arr) for name, arr in self.params.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.spec, self.rotation_mode,
                           {k: v.copy() for k, v in self.params.items()}, dict(self.metadata))


def _glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def param_shapes(config: EncoderConfig, spec: FeatureSpec,
                 rotation_mode: str) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter, in :func:`init_params` order."""
    rot_len = geom.rotation_mode(rotation_mode).length
    shapes: dict[str, tuple[int, int]] = {}
    c_in = 3
    for i, c_out in enumerate(config.widths):
        shapes[f"global.{i}.w"] = (2 * c_in, c_out)
        shapes[f"global.{i}.b"] = (1, c_out)
        c_in = c_out
    shapes["alpha.w"] = (spec.dim, config.widths[0])
    shapes["alpha.b"] = (1, config.widths[0])
    c_in = config.widths[0]
    for i in range(1, config.layers):
        c_out = config.widths[i]
        shapes[f"inv.{i}.w"] = (2 * c_in, c_out)
        shapes[f"inv.{i}.b"] = (1, c_out)
        c_in = c_out
    dims = (config.m,) + config.head_widths + (rot_len + 3,)
    for i in range(len(dims) - 1):
        shapes[f"head.{i}.w"] = (dims[i], dims[i + 1])
        shapes[f"head.{i}.b"] = (1, dims[i + 1])
    return shapes


def init_params(config: EncoderConfig, spec: FeatureSpec, rotation_mode: str,
                seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, in a deterministic name order."""
    rng = Rng(seed)
    t = {name: _glorot(rng, *shape) if name.endswith(".w") else np.zeros(shape)
         for name, shape in param_shapes(config, spec, rotation_mode).items()}
    return ModelParams(config, spec, rotation_mode, t)


# ---------------------------------------------------------------------------
# layers


affine = ad.affine


def channel_norm(feats: ad.Tensor) -> ad.Tensor:
    """Rescale each channel by its root-mean-square over the cloud's points.

    Deterministic per-sample statistics (this is not batch normalization):
    permutation-invariant, unchanged by duplicating points, and invariant
    features stay invariant. No centering, so per-channel offsets (which
    carry the cloud's absolute position in the global branch) pass through.
    Keeps deep stacks well-scaled so the desk-size training budget converges.

    One tape op. Dividing by the [1, c] scale row is bit for bit dividing by
    its [n, c] repeat. The VJP adds the quotient's term, then f*f's two
    operand terms, in the order of a backward over the unfused chain.
    """
    f = feats.data
    row = np.full((1, f.shape[0]), 1.0 / f.shape[0])
    scale = np.sqrt(row @ (f * f) + 1e-8)  # [1, c]; finite on an all-zero channel

    def grad(g):
        d_sq = row.T @ (0.5 * (-g * f / (scale * scale)).sum(axis=0, keepdims=True) / scale)
        return g / scale + d_sq * f + d_sq * f

    return ad._emit("channel_norm", f / scale, [(feats, grad)])


def edge_conv_layer(feats: ad.Tensor, neighbors: np.ndarray, weight, bias) -> ad.Tensor:
    """One edge convolution: shared MLP over (center, neighbor - center) edge
    pairs, max-pooled over each point's k neighbors.

    The edge input concat(F_i, F_j - F_i) @ W factors into per-point linear
    maps, F_i @ (W_top - W_bot) + F_j @ W_bot, so the k-fold expansion happens
    after the matrix products (k times fewer GEMM flops, same function).

    Pooling comes before the centre term and the activation (see the module
    docstring): ``ad.neighbor_max`` of the neighbor term alone pools a bounded
    row block at a time, and its backward scatters only the [n, c'] pooled
    gradient onto the winning neighbors.
    """
    n = neighbors.shape[0]
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
    return ad.leaky_relu(ad.add(center, ad.neighbor_max(nbr_part, neighbors)))


@dataclass
class CloudCache:
    """Pose- and parameter-independent per-cloud work, reusable across steps."""

    # [N, k] geom.graph_knn table, the cloud's one spatial neighbor search: normals,
    # SPFH/PFH and phi are built over it; global layer 0 and the invariant layers use it
    spatial_graph: np.ndarray
    phi: np.ndarray  # [N, k, d] raw invariant neighbor features over spatial_graph


def precompute_cloud(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig) -> CloudCache:
    if len(cloud) <= config.k:
        raise ValueError(f"need more than k={config.k} points, got {len(cloud)}")
    graph = geom.graph_knn(cloud.points, config.k)
    return CloudCache(graph, neighbor_feature_array(cloud, spec, graph))


def encode_global(cloud: PointCloud, config: EncoderConfig, params: dict,
                  cache: CloudCache | None = None) -> ad.Tensor:
    """Global representation: stacked edge convolutions on raw coordinates,
    max-pooled over all points into an m-vector. Pose sensitive by design."""
    x = ad.constant(cloud.points)
    for i in range(config.layers):
        if i == 0:
            nbr = cache.spatial_graph if cache is not None else geom.graph_knn(
                cloud.points, config.k)
        elif config.dynamic_graph:
            nbr = geom.graph_knn(x.data, config.k)
        x = edge_conv_layer(x, nbr, params[f"global.{i}.w"], params[f"global.{i}.b"])
        if i < config.layers - 1:
            x = channel_norm(x)
    return ad.reduce_max(x, axis=0)


def encode_invariant(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig,
                     params: dict, cache: CloudCache | None = None) -> ad.Tensor:
    """Pose-invariant representation: invariant point embedding followed by
    edge convolutions over the (pose-invariant) spatial neighbor graph."""
    if cache is None:
        cache = precompute_cloud(cloud, spec, config)
    x = embed_from_features(cache.phi, params["alpha.w"], params["alpha.b"])
    x = channel_norm(x)
    for i in range(1, config.layers):
        x = edge_conv_layer(x, cache.spatial_graph, params[f"inv.{i}.w"], params[f"inv.{i}.b"])
        if i < config.layers - 1:
            x = channel_norm(x)
    return ad.reduce_max(x, axis=0)
