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
    """Regressed pose: raw rotation head output plus the decoded transform."""

    rotation_param: np.ndarray
    decoded: RigidTransform


def _pose_related_t(p: ad.Tensor, q: ad.Tensor) -> ad.Tensor:
    """Entrywise p_i * log(p_i / q_i); entries sum to KL(p || q) >= 0."""
    ratio = ad.div(ad.add(p, EPS_FLOOR), ad.add(q, EPS_FLOOR))
    return ad.mul(p, ad.log(ratio))


# ---------------------------------------------------------------------------
# pose head


def _head_forward(gamma_mu: ad.Tensor, params: dict, config: EncoderConfig,
                  mode: str):
    """Shared MLP head: returns (rotation param tensor, translation tensor,
    rotation matrix tensor).

    The head output parameterizes the rotation as a residual from the
    identity (zero output decodes to the identity pose in every mode).
    """
    rot_mode = geom.rotation_mode(mode)
    rd = rot_mode.length
    x = ad.reshape(gamma_mu, (1, gamma_mu.shape[0]))
    n_layers = len(config.head_widths) + 1
    for i in range(n_layers):
        x = affine(x, params[f"head.{i}.w"], params[f"head.{i}.b"])
        if i < n_layers - 1:
            x = ad.leaky_relu(x, config.slope)
    out = ad.reshape(x, (rd + 3,))
    rot_vals = ad.add(ad.gather_rows(out, list(range(rd))), ad.constant(rot_mode.identity))
    trans = ad.gather_rows(out, list(range(rd, rd + 3)))
    return rot_vals, trans, rot_mode.decode(rot_vals)


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
    the one tape rotation that the loss trains on."""
    gamma_g = encode_global(cloud, model.config, params, cache)
    gamma_v = encode_invariant(cloud, model.spec, model.config, params, cache)
    q = ad.softmax(gamma_g)
    p = ad.softmax(gamma_v)
    gamma_mu = _pose_related_t(p, q)
    rot_vals, trans, rot = _head_forward(gamma_mu, params, model.config, model.rotation_mode)
    pts = ad.constant(cloud.points)
    n = len(cloud)
    t_row = ad.repeat_rows(ad.reshape(trans, (1, 3)), n)
    canonical = ad.matmul(ad.sub(pts, t_row), rot)  # rows: R^T (p - t)
    pose = PosePrediction(rot_vals.data.copy(),
                          RigidTransform(rot.data.copy(), trans.data.copy()))
    return pose, canonical


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
    params = bound if bound is not None else model.constants()
    cache_x = caches[0] if caches else None
    cache_y = caches[1] if caches else None
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
