"""Output checks. Each returns a list of problems; an empty list means pass.

They read plain attributes (``rotation``, ``translation``, ``points``...), so a
self-test can hand them a deliberately corrupted stand-in object.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

ORTHO_TOL = 1e-9
# the returned transform and the canonical clouds are recomputed here in a
# different operation order, so compare to a tolerance well above rounding
MATCH_TOL = 1e-9


def rotation_problems(rot: np.ndarray, label: str) -> list[str]:
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3) or not np.all(np.isfinite(rot)):
        return [f"{label}: rotation is not a finite 3x3 matrix"]
    problems = []
    dev = float(np.max(np.abs(rot.T @ rot - np.eye(3))))
    if dev > ORTHO_TOL:
        problems.append(f"{label}: |R^T R - I|_inf = {dev:.3e} > {ORTHO_TOL}")
    if not np.linalg.det(rot) > 0.0:
        problems.append(f"{label}: det R = {np.linalg.det(rot):.6f} is not positive")
    return problems


def transform_problems(transform, label: str) -> list[str]:
    problems = rotation_problems(transform.rotation, label)
    t = np.asarray(transform.translation, dtype=np.float64)
    if t.shape != (3,) or not np.all(np.isfinite(t)):
        problems.append(f"{label}: translation is not a finite 3-vector")
    return problems


def _mismatch(got: np.ndarray, want: np.ndarray) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want)))


def registration_problems(result, source_points: np.ndarray) -> list[str]:
    """Check one ``register_pair`` result against the paper's composition.

    The transform must be a finite proper rotation plus translation equal to
    R = R_Y R_X^T, t = t_Y - R t_X of the per-cloud poses, and the canonical
    source cloud must equal R_X^T (x - t_X).
    """
    problems = transform_problems(result.transform, "transform")
    px, py = result.pose_x.decoded, result.pose_y.decoded
    problems += transform_problems(px, "pose_x") + transform_problems(py, "pose_y")
    if problems:
        return problems
    want_r = py.rotation @ px.rotation.T
    want_t = py.translation - want_r @ px.translation
    err = max(_mismatch(result.transform.rotation, want_r),
              _mismatch(result.transform.translation, want_t))
    if err > MATCH_TOL:
        problems.append(f"transform differs from R_Y R_X^T, t_Y - R t_X by {err:.3e}")
    want_canon = (np.asarray(source_points) - px.translation) @ px.rotation
    err = _mismatch(result.canonical_x.points, want_canon)
    if err > MATCH_TOL:
        problems.append(f"canonical_x differs from R_X^T (x - t_X) by {err:.3e}")
    return problems


def mean_nn_distance(pose, source: np.ndarray, target: np.ndarray) -> float:
    """Mean distance from each moved source point to its nearest target point."""
    moved = np.asarray(source) @ np.asarray(pose.rotation).T + np.asarray(pose.translation)
    d2 = np.sum((moved[:, None, :] - np.asarray(target)[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.min(axis=1)).mean())


def baseline_problems(pose, init, report, source: np.ndarray, target: np.ndarray,
                      label: str) -> list[str]:
    """One ICP baseline: a proper rigid pose, finite errors with RMSE >= MAE,
    and ICP's own guarantee that the pose fits no worse than its initial
    guess (identity when ``init`` is None), by mean nearest-neighbour distance."""
    problems = transform_problems(pose, label)
    for kind in ("rot_deg", "trans"):
        rmse, mae = getattr(report, f"rmse_{kind}"), getattr(report, f"mae_{kind}")
        if not (np.isfinite(rmse) and np.isfinite(mae) and rmse >= mae):
            problems.append(f"{label}: rmse_{kind} {rmse} < mae_{kind} {mae} or not finite")
    if problems:
        return problems
    start = init if init is not None else SimpleNamespace(rotation=np.eye(3),
                                                           translation=np.zeros(3))
    before = mean_nn_distance(start, source, target)
    after = mean_nn_distance(pose, source, target)
    if not after <= before + MATCH_TOL:
        problems.append(f"{label}: mean NN distance {after:.6g} is worse than "
                        f"the initial guess's {before:.6g}")
    return problems


def training_problems(result, params: dict[str, np.ndarray]) -> list[str]:
    """One ``training.train`` result: finite curve, no divergence, finite params."""
    problems = []
    if not result.loss_curve or not np.all(np.isfinite(result.loss_curve)):
        problems.append(f"loss curve is empty or not finite: {result.loss_curve}")
    if result.diverged:
        problems.append("training reported divergence")
    bad = sorted(name for name, arr in params.items() if not np.all(np.isfinite(arr)))
    if bad:
        problems.append(f"non-finite parameters: {bad[:5]}")
    return problems
