"""Representation subtraction, pose regression, and pair registration.

The global and invariant m-vectors become probability vectors via softmax;
their entrywise p*log(p/q) (summing to the KL divergence) is the pose-related
representation, from which a shared MLP head regresses each cloud's pose
relative to a latent canonical frame. The relative motion between the two
clouds is the composition of those per-cloud poses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import geom
from .encoder import CloudCache, EncoderConfig, ModelParams, affine, encode_global, \
    encode_invariant
from .geom import PointCloud, RigidTransform

# guards softmax underflow inside log(p/q); well below every test tolerance
EPS_FLOOR = 1e-12


@dataclass
class PosePrediction:
    """Regressed pose: the decoded transform of one cloud."""

    decoded: RigidTransform


def _softmax_vjp(s: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """The gradient of the softmax's input, given ``gs``, that of its output ``s``."""
    return s * (gs - np.dot(gs, s))


def _pose_related_t(gamma_v: ad.Tensor, gamma_g: ad.Tensor) -> ad.Tensor:
    """The [1, m] row the pose head reads, from the invariant and global
    m-vectors: p = softmax(gamma_v) and q = softmax(gamma_g), each after
    max-subtraction, then entrywise p_i * log(p_i / q_i), ``EPS_FLOOR`` added
    to both inside the log; the entries sum to KL(p || q) >= 0. One tape op
    with the values and gradients of the chain it fuses (two softmaxes, then
    add, div, log and mul), bit for bit: each gradient map is the chain's map
    followed by the softmax VJP."""
    ev, eg = (np.exp(t.data - np.max(t.data)) for t in (gamma_v, gamma_g))
    p, q = ev / np.sum(ev), eg / np.sum(eg)
    pa, qa = p + EPS_FLOOR, q + EPS_FLOOR
    ratio = pa / qa
    log_ratio = np.log(ratio)
    return ad._emit("pose_related", (p * log_ratio).reshape(1, -1), [
        (gamma_v, lambda g: _softmax_vjp(p, g[0] * log_ratio + g[0] * p / ratio / qa)),
        (gamma_g, lambda g: _softmax_vjp(q, -(g[0] * p / ratio) * pa / (qa * qa)))])


def _head_forward(x: ad.Tensor, params: dict, config: EncoderConfig) -> ad.Tensor:
    """Shared MLP head over the [1, m] pose-related row ``x``: its [1, 6]
    output, 3 Euler angles then the translation (see :func:`_canonical_t`)."""
    n_layers = len(config.head_widths) + 1
    for i in range(n_layers):
        x = affine(x, params[f"head.{i}.w"], params[f"head.{i}.b"])
        if i < n_layers - 1:
            x = ad.leaky_relu(x)
    return x


def _canonical_t(points: np.ndarray, head: ad.Tensor) -> tuple[ad.Tensor, RigidTransform]:
    """Rows R^T (x - t) of the [n, 3] ``points`` as one tape op, and the pose
    (R, t) decoded from the [1, 6] ``head`` output: R = Rz(gamma) @ (Ry(beta)
    @ Rx(alpha)) from outputs 0-2 and t from 3-5, so a zero output is the
    identity pose.

    The angles' gradient takes the product rule through both matrix
    products; each sin and cos value then sums the two factor entries that
    hold it, so the order of that sum cannot change a bit. The [1, 6]
    gradient adds 0.0 to it and the translation's: each entry sums from
    +0.0, as a scatter-add into the head's row would, so -0.0 becomes +0.0.
    """
    angles, trans = head.data[0, :3], head.data[0, 3:]
    rx, ry, rz = geom._euler_factors(angles)
    m = ry @ rx
    rot = rz @ m
    diff = points - trans

    def grad(g):
        d_rot = diff.T @ g
        d_rz, d_m = d_rot @ m.T, rz.T @ d_rot
        d_ry, d_rx = d_m @ rx.T, ry.T @ d_m
        ds = np.array([d_rx[2, 1] - d_rx[1, 2], d_ry[0, 2] - d_ry[2, 0], d_rz[1, 0] - d_rz[0, 1]])
        dc = np.array([d_rx[1, 1] + d_rx[2, 2], d_ry[0, 0] + d_ry[2, 2], d_rz[0, 0] + d_rz[1, 1]])
        d_angles = ds * np.cos(angles) + -dc * np.sin(angles)
        return np.concatenate([d_angles, -(g @ rot.T).sum(axis=0)]).reshape(1, 6) + 0.0

    canonical = ad._emit("canonical", diff @ rot, [(head, grad)])
    return canonical, RigidTransform(rot.copy(), trans.copy())


# ---------------------------------------------------------------------------
# full pair registration


@dataclass
class RegistrationResult:
    transform: RigidTransform       # aligns source onto target
    pose_x: PosePrediction
    pose_y: PosePrediction
    canonical_x: PointCloud
    canonical_y: PointCloud
    # tape tensors of the canonical coordinates (present when training)
    canonical_x_t: ad.Tensor | None = None
    canonical_y_t: ad.Tensor | None = None


def _forward_cloud(cloud: PointCloud, model: ModelParams, params: dict,
                   cache: CloudCache | None):
    """The cloud's pose and its canonical coordinates R^T (p - t), both from
    the one decoded rotation that the loss trains on."""
    gamma_g = encode_global(cloud, model.config, params, cache)
    gamma_v = encode_invariant(cloud, model.spec, model.config, params, cache)
    head = _head_forward(_pose_related_t(gamma_v, gamma_g), params, model.config)
    canonical, decoded = _canonical_t(cloud.points, head)
    return PosePrediction(decoded), canonical


def register_pair(x: PointCloud, y: PointCloud, model: ModelParams,
                  caches: tuple[CloudCache, CloudCache] | None = None,
                  bound: dict | None = None) -> RegistrationResult:
    """Register source ``x`` onto target ``y``.

    Each cloud independently yields a pose relative to the shared latent
    canonical frame; the returned transform is their composition. Pass a
    ``bound`` parameter dict (from ``model.bind(tape)``) to record the
    computation for training; the canonical-coordinate tensors then ride
    along in the result.
    """
    params = bound if bound is not None else model.params
    cache_x, cache_y = caches or (None, None)
    pose_x, canon_x = _forward_cloud(x, model, params, cache_x)
    pose_y, canon_y = _forward_cloud(y, model, params, cache_y)
    on_tape = bound is not None
    return RegistrationResult(
        transform=geom.compose_relative(pose_x.decoded, pose_y.decoded),
        pose_x=pose_x,
        pose_y=pose_y,
        canonical_x=PointCloud(canon_x.data.copy()),
        canonical_y=PointCloud(canon_y.data.copy()),
        canonical_x_t=canon_x if on_tape else None,
        canonical_y_t=canon_y if on_tape else None,
    )
