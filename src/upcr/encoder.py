"""Graph encoders for the global and pose-invariant cloud representations.

Both branches run one loop of edge-convolution layers: per point, every
neighbor contributes concat(center, neighbor - center) through a shared
affine + LeakyReLU, and max-pooling over neighbors gives the new point
feature. Between layers, and after the invariant branch's point embedding
(its layer 0) at every depth, ``channel_norm`` rescales every channel over
the cloud. Max-pooling over all points turns the last layer into an m-vector.

LeakyReLU with slope ``autodiff.SLOPE`` >= 0 is monotone, and so is the
float rounding of SLOPE*x and of a sum, so max_j act(a_i + b_j) ==
act(a_i + max_j b_j) bit for bit wherever no sum is inf - inf. So the point
embedding and every edge-convolution layer pool only their k-fold term, then
add the rest and activate [n, c] rows, all in ``autodiff._max_pool``: no
[n*k, c] table ever exists whole, and a tape keeps only the [n, c] winning k
index and a 1-byte activation gate. Each is one tape op, as ``channel_norm``
is, with its own backward.

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
from .features import FeatureSpec, neighbor_feature_array, point_tables
from .geom import PointCloud
from .rng import Rng

# per-layer widths of the two standard sizes, by m; the depth is len(widths)
_PRESET_WIDTHS = {
    512: (64, 64, 128, 256, 512),
    64: (16, 16, 32, 32, 64),
}


def check_counts(label: str, *values) -> None:
    """Raise ValueError unless every value is a plain int (not a bool) >= 1."""
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in values):
        raise ValueError(f"{label} must be positive ints, got {values}")


@dataclass
class EncoderConfig:
    k: int = 24
    m: int = 512
    widths: tuple[int, ...] | None = None
    dynamic_graph: bool = True
    head_widths: tuple[int, ...] = (256, 128)

    def __post_init__(self):
        check_counts("k and m", self.k, self.m)
        if not isinstance(self.dynamic_graph, bool):
            raise ValueError(f"dynamic_graph must be a bool, got {self.dynamic_graph!r}")
        if self.widths is None:  # the preset for m, else a five-layer geometric ramp up to m
            self.widths = _PRESET_WIDTHS.get(self.m) or tuple(
                max(4, self.m >> (4 - i)) for i in range(4)) + (self.m,)
        self.widths, self.head_widths = tuple(self.widths), tuple(self.head_widths)
        if not self.widths:
            raise ValueError("widths must name at least one layer, got ()")
        check_counts("layer and head widths", *self.widths, *self.head_widths)
        if self.widths[-1] != self.m:
            raise ValueError(f"last width {self.widths[-1]} must equal m={self.m}")


@dataclass
class ModelParams:
    """The model: named parameter arrays for both encoders and the pose head, and
    the run metadata training records. Checkpoints store exactly this."""

    config: EncoderConfig
    spec: FeatureSpec
    params: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def bind(self, tape: ad.Tape) -> dict[str, ad.Tensor]:
        """Register every parameter as a grad-requiring leaf on ``tape``."""
        return {name: tape.leaf(arr) for name, arr in self.params.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.spec,
                           {k: v.copy() for k, v in self.params.items()}, dict(self.metadata))


def _glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def param_shapes(config: EncoderConfig, spec: FeatureSpec) -> dict[str, tuple[int, int]]:
    """Name and shape of every parameter, in :func:`init_params` order: also
    the checkpoint payload's layout, so reordering it bumps the file version."""
    shapes: dict[str, tuple[int, int]] = {}
    c_in = 3
    for i, c_out in enumerate(config.widths):
        shapes[f"global.{i}.w"] = (2 * c_in, c_out)
        shapes[f"global.{i}.b"] = (1, c_out)
        c_in = c_out
    shapes["alpha.w"] = (spec.dim, config.widths[0])
    shapes["alpha.b"] = (1, config.widths[0])
    c_in = config.widths[0]
    for i, c_out in enumerate(config.widths[1:], start=1):
        shapes[f"inv.{i}.w"] = (2 * c_in, c_out)
        shapes[f"inv.{i}.b"] = (1, c_out)
        c_in = c_out
    dims = (config.m,) + config.head_widths + (6,)  # 3 Euler angles, 3 translation
    for i in range(len(dims) - 1):
        shapes[f"head.{i}.w"] = (dims[i], dims[i + 1])
        shapes[f"head.{i}.b"] = (1, dims[i + 1])
    return shapes


def init_params(config: EncoderConfig, spec: FeatureSpec, rotation_mode: str,
                seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, in a deterministic name order.

    ``rotation_mode`` must be ``"euler"``, the head's one decoder. The
    parameter stays only because the benchmark passes it, and goes with the
    benchmark change of ROADMAP item B.
    """
    if rotation_mode != "euler":
        raise ValueError(f"rotation_mode must be 'euler', got {rotation_mode!r}")
    rng = Rng(seed)
    t = {name: _glorot(rng, *shape) if name.endswith(".w") else np.zeros(shape)
         for name, shape in param_shapes(config, spec).items()}
    return ModelParams(config, spec, t)


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

    One tape op: the centre GEMM plus bias is written into the output array,
    which ``ad._max_pool`` then pools the neighbor term into and activates,
    a neighbor-major [k, rows, c'] block at a time gathered by
    ``ad.pair_table``; the VJP maps each winning k index to the source row
    its gradient scatters onto. Values and gradients are those of the
    unfused chain gather_rows, sub, affine, matmul, the neighbor max, add and
    leaky_relu, bit for bit: each gradient adds its terms in that chain's
    backward order, and the weight rows of W_top and W_bot start from 0.0 as
    a row scatter's do. The two terms of the feats gradient are summed before
    they reach the tape, which is that order wherever the layer is the one
    reader of ``feats``, as in both encoders.
    """
    w, b = ad.as_tensor(weight), ad.as_tensor(bias)
    nbr = np.asarray(neighbors, dtype=np.int64)
    if feats.ndim != 2 or w.ndim != 2 or nbr.ndim != 2:
        raise ad.ShapeError(f"edge_conv_layer: got feats {feats.shape}, weight {w.shape}, "
                            f"neighbors {nbr.shape}")
    (n, c), (r, k) = feats.shape, nbr.shape
    if r != n:
        raise ad.ShapeError(f"edge_conv_layer: {n} feature rows for {r} points")
    if w.shape[0] != 2 * c:
        raise ad.ShapeError(f"edge_conv_layer: weight rows {w.shape[0]} != 2*c = {2 * c}")
    if b.shape != (1, w.shape[1]):
        raise ad.ShapeError(f"edge_conv_layer: bias {b.shape} for weight {w.shape}")
    if k < 1:
        raise ad.ShapeError("edge_conv_layer: neighbors has no columns")
    if nbr.size and (nbr.min() < 0 or nbr.max() >= n):
        raise ad.ShapeError(f"edge_conv_layer: neighbor index out of range for {n} points")
    fv, wv = feats.data, w.data
    w_bot = wv[c:]
    out = fv @ (wv[:c] - w_bot)  # the [c, c'] difference is rebuilt, not kept, for a VJP
    out += b.data
    nb = fv @ w_bot  # the neighbor term, gathered per block
    taped = any(t.node_id is not None for t in (feats, w, b))
    won = ad._max_pool(out, k, lambda s, e: ad.pair_table(nb, nbr[s:e].T).data.reshape(
        k, e - s, -1), 0, taped)

    @ad._per_g
    def parts(g):  # the centre term's gradient, then the neighbor term's
        gate, arg = won
        g_centre = ad._gated(g, gate)
        return g_centre, ad._scatter_rows(geom.take_rows(nbr, arg), g_centre, n)

    def grad_feats(g):
        g_centre, g_nbr = parts(g)
        return g_nbr @ w_bot.T + g_centre @ (wv[:c] - w_bot).T

    def grad_weight(g):
        g_centre, g_nbr = parts(g)
        g_top = fv.T @ g_centre
        gw = np.empty(wv.shape)
        gw[:c] = g_top
        gw[c:] = fv.T @ g_nbr + np.negative(g_top)  # matmul's term, then sub's
        gw += 0.0  # a row scatter adds to 0.0, which turns -0.0 into +0.0
        return gw

    return ad._emit("edge_conv", out, [
        (feats, grad_feats), (w, grad_weight),
        (b, lambda g: parts(g)[0].sum(axis=0, keepdims=True))])


def embed_from_features(phi: np.ndarray, weight, bias) -> ad.Tensor:
    """The invariant point embedding: LeakyReLU of the max over k of h_alpha
    on a precomputed [N, k, d] feature array.

    One tape op with the values and gradients of the chain affine, reshape,
    reduce_max and leaky_relu, bit for bit. ``ad._max_pool`` runs the affine
    map and the max a [rows, k, c] block at a time into an output of -0.0,
    the additive identity, so ±0 and NaN maxima pass unchanged. The backward
    builds the [N*k, c] gradient, so the weight gradient is the chain's one
    GEMM. Row-blocked products can round one ulp from the whole product at
    some shapes (OpenBLAS picks its kernel by shape, see ``geom._scan``); at
    the paper and desk presets they agree bit for bit.
    """
    w, b = ad.as_tensor(weight), ad.as_tensor(bias)
    if phi.ndim != 3 or w.ndim != 2 or w.shape[0] != phi.shape[2] or b.shape != (1, w.shape[1]):
        raise ad.ShapeError(f"embed_from_features: got phi {phi.shape}, weight {w.shape}, "
                            f"bias {b.shape}")
    (n, k, d), c = phi.shape, w.shape[1]
    wv, bv = w.data, b.data

    def block(s, e):
        h = phi[s:e].reshape((e - s) * k, d) @ wv
        h += bv
        return h.reshape(e - s, k, c)

    out = np.full((n, c), -0.0)
    won = ad._max_pool(out, k, block, 1, w.node_id is not None or b.node_id is not None)
    flat = phi.reshape(n * k, d)

    @ad._per_g
    def table(g):  # the [N*k, c] gradient of the affine rows
        gate, arg = won
        full = np.zeros((n, k, c))
        np.put_along_axis(full, arg[:, None, :], ad._gated(g, gate)[:, None, :], axis=1)
        return full.reshape(n * k, c)

    return ad._emit("embed", out, [(w, lambda g: flat.T @ table(g)),
                                   (b, lambda g: table(g).sum(axis=0, keepdims=True))])


@dataclass
class CloudCache:
    """Pose- and parameter-independent per-cloud work that costs more than a
    rebuild, reusable across steps. The [N, k, d] invariant features are
    rebuilt from it on each forward, so only the graph has a k-fold axis."""

    # [N, k] geom.graph_knn table, the cloud's one spatial neighbor search: the
    # features are built over it; global layer 0 and the invariant layers use it
    spatial_graph: np.ndarray
    tables: dict[str, np.ndarray]  # features.point_tables over spatial_graph


def precompute_cloud(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig) -> CloudCache:
    """The cloud's spatial graph and the per-point tables of ``spec`` over it."""
    if len(cloud) <= config.k:
        raise ValueError(f"need more than k={config.k} points, got {len(cloud)}")
    graph = geom.graph_knn(cloud.points, config.k)
    return CloudCache(graph, point_tables(cloud, spec, graph))


def _check_cache(cache: CloudCache, cloud: PointCloud, config: EncoderConfig,
                 spec: FeatureSpec | None = None) -> None:
    """Raise ValueError unless ``cache`` fits the cloud, the config and, when
    given, the spec: an [N, k] graph, and exactly ``spec.table_names``."""
    want = (len(cloud), config.k)
    if cache.spatial_graph.shape != want:
        raise ValueError(f"cache graph is {cache.spatial_graph.shape}, but {len(cloud)} points "
                         f"at k={config.k} need {want}")
    if spec is not None and tuple(cache.tables) != spec.table_names:
        raise ValueError(f"cache holds tables {tuple(cache.tables)}, but kind {spec.kind!r} "
                         f"needs {spec.table_names}")


def _edge_stack(x: ad.Tensor, prefix: str, first: int, graph: np.ndarray, dynamic: bool,
                config: EncoderConfig, params: dict) -> ad.Tensor:
    """Edge convolutions ``first`` to the last of one branch on ``x``, with a
    channel norm after every layer but the last, max-pooled over the points.
    Layer ``first`` reads ``graph``; with ``dynamic`` each later layer reads
    the kNN graph of its own input features, else ``graph`` too. Callers pass
    ``x`` inline, so no local of theirs holds it past layer ``first``."""
    depth = len(config.widths)
    for i in range(first, depth):
        if dynamic and i > first:
            graph = geom.graph_knn(x.data, config.k)
        x = edge_conv_layer(x, graph, params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"])
        if i < depth - 1:
            x = channel_norm(x)
    return ad.reduce_max(x, axis=0)


def encode_global(cloud: PointCloud, config: EncoderConfig, params: dict,
                  cache: CloudCache | None = None) -> ad.Tensor:
    """Global representation: stacked edge convolutions on raw coordinates,
    max-pooled over all points into an m-vector. Pose sensitive by design.
    A ``cache`` whose graph is not [len(cloud), config.k] raises ValueError."""
    if cache is not None:
        _check_cache(cache, cloud, config)
    graph = geom.graph_knn(cloud.points, config.k) if cache is None else cache.spatial_graph
    return _edge_stack(ad.constant(cloud.points), "global", 0, graph, config.dynamic_graph,
                       config, params)


def encode_invariant(cloud: PointCloud, spec: FeatureSpec, config: EncoderConfig,
                     params: dict, cache: CloudCache | None = None) -> ad.Tensor:
    """Pose-invariant representation: invariant point embedding followed by
    edge convolutions over the (pose-invariant) spatial neighbor graph. The
    [N, k, d] features are rebuilt from ``cache`` (built here when not given);
    a cache that does not fit the cloud, config or spec raises ValueError."""
    if cache is None:
        cache = precompute_cloud(cloud, spec, config)
    _check_cache(cache, cloud, config, spec)
    phi = neighbor_feature_array(cloud, spec, cache.spatial_graph, cache.tables)
    return _edge_stack(channel_norm(embed_from_features(phi, params["alpha.w"], params["alpha.b"])),
                       "inv", 1, cache.spatial_graph, False, config, params)
