"""Correspondences-free unsupervised 3D point cloud registration lab."""

__version__ = "0.1.0"

from .features import FeatureSpec
from .geom import PointCloud, RigidTransform
from .encoder import EncoderConfig, ModelParams, init_params
from .separation import RegistrationResult, register_pair
from .training import load_checkpoint, save_checkpoint

__all__ = [
    "FeatureSpec", "PointCloud", "RigidTransform",
    "EncoderConfig", "ModelParams", "init_params",
    "RegistrationResult", "register_pair",
    "load_checkpoint", "save_checkpoint",
]
