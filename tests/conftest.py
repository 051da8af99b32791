import numpy as np
import pytest

from upcr import geom
from upcr.rng import Rng


def random_rotation(rng: Rng, max_angle_deg: float = 180.0) -> np.ndarray:
    axis = rng.unit_vector()
    angle = np.deg2rad(rng.uniform(-max_angle_deg, max_angle_deg))
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_transform(rng: Rng, max_angle_deg: float = 180.0,
                     max_trans: float = 1.0) -> geom.RigidTransform:
    return geom.RigidTransform(random_rotation(rng, max_angle_deg),
                               rng.uniform(-max_trans, max_trans, 3))


def random_cloud(rng: Rng, n: int = 64) -> geom.PointCloud:
    return geom.PointCloud(rng.uniform(-1.0, 1.0, (n, 3)))


def distance_feature(center, point, neighbor) -> np.ndarray:
    """Scalar reference for one edge of the "distance" block of
    ``features.neighbor_feature_array``:
    [D(neighbor, center), D(neighbor, point), D(center, point)]."""
    center, point, neighbor = (np.asarray(v, dtype=np.float64) for v in (center, point, neighbor))
    return np.array([
        np.linalg.norm(neighbor - center),
        np.linalg.norm(neighbor - point),
        np.linalg.norm(center - point),
    ])


def ppf_feature(p1, n1, p2, n2) -> np.ndarray:
    """Scalar reference for one edge of the "ppf" block of
    ``features.neighbor_feature_array``:
    (angle(n1, d), angle(n2, d), angle(n1, n2), |d|) with d = p2 - p1."""
    d = np.asarray(p2, dtype=np.float64) - np.asarray(p1, dtype=np.float64)
    dist = np.linalg.norm(d)
    if dist < 1e-12:
        raise ValueError("ppf_feature: coincident points")
    dn = d / dist
    ang = lambda u, v: float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))
    return np.array([ang(n1, dn), ang(n2, dn), ang(n1, n2), dist])


@pytest.fixture
def rng():
    return Rng(0xC0FFEE)


def rotation_oracle(mode: str, vals) -> np.ndarray:
    """Plain NumPy reference for the tape rotation decoders in ``geom``."""
    v = np.asarray(vals, dtype=np.float64)
    if mode == "euler":
        return geom.euler_to_matrix(v)
    if mode == "quaternion":
        w, x, y, z = v / np.linalg.norm(v)
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ])
    if mode == "sixd":
        c1 = v[:3] / np.linalg.norm(v[:3])
        b = v[3:] - np.dot(c1, v[3:]) * c1
        c2 = b / np.linalg.norm(b)
        return np.column_stack([c1, c2, np.cross(c1, c2)])
    # matrix: SVD projection, flipping the smallest singular axis if det < 0
    u, _, vt = np.linalg.svd(v.reshape(3, 3))
    return u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
