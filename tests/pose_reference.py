"""Pose helpers that the tests use as references: a point transform and the
homogeneous matrix of a pose."""

from __future__ import annotations

import numpy as np


def transform_point(pose, p: np.ndarray) -> np.ndarray:
    """Apply a pose to one point (3,) or a batch (N, 3)."""
    p = np.asarray(p, dtype=float)
    return p @ pose.R.T + pose.t


def pose_matrix(pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of a pose."""
    m = np.eye(4)
    m[:3, :3] = pose.R
    m[:3, 3] = pose.t
    return m
