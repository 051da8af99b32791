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


def _pose_related_t(p: ad.Tensor, q: ad.Tensor) -> ad.Tensor:
    """Entrywise p_i * log(p_i / q_i), ``EPS_FLOOR`` added to both inside the
    log; entries sum to KL(p || q) >= 0. One tape op, whose gradients add their
    terms in the order of a backward over the add, div, log and mul chain."""
    pv = p.data
    pa, qa = pv + EPS_FLOOR, q.data + EPS_FLOOR
    ratio = pa / qa
    log_ratio = np.log(ratio)
    return ad._emit("pose_related", pv * log_ratio,
                    [(p, lambda g: g * log_ratio + g * pv / ratio / qa),
                     (q, lambda g: -(g * pv / ratio) * pa / (qa * qa))])


def _canonical_t(points: np.ndarray, trans: ad.Tensor, rot: ad.Tensor) -> ad.Tensor:
    """Rows R^T (x - t) of the [n, 3] ``points`` under the [3] translation and
    [3, 3] rotation, as one tape op."""
    rv = rot.data
    diff = points - trans.data
    return ad._emit("canonical", diff @ rv,
                    [(trans, lambda g: -(g @ rv.T).sum(axis=0)),
                     (rot, lambda g: diff.T @ g)])


# ---------------------------------------------------------------------------
# pose head


def _head_forward(gamma_mu: ad.Tensor, params: dict, config: EncoderConfig):
    """Shared MLP head: returns (translation tensor, rotation matrix tensor).

    The first 3 of its 6 outputs are Euler angles, the last 3 the
    translation; a zero head output decodes to the identity pose.
    """
    x = ad.reshape(gamma_mu, (1, gamma_mu.shape[0]))
    n_layers = len(config.head_widths) + 1
    for i in range(n_layers):
        x = affine(x, params[f"head.{i}.w"], params[f"head.{i}.b"])
        if i < n_layers - 1:
            x = ad.leaky_relu(x)
    out = ad.reshape(x, (6,))
    rot = geom._euler_rotation(ad.gather_rows(out, [0, 1, 2]))
    trans = ad.gather_rows(out, [3, 4, 5])
    return trans, rot


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
    trans, rot = _head_forward(gamma_mu, params, model.config)
    canonical = _canonical_t(cloud.points, trans, rot)
    pose = PosePrediction(RigidTransform(rot.data.copy(), trans.data.copy()))
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
    params = bound if bound is not None else model.params
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
