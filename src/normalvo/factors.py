"""Measurement factors: stereo reprojection and tangent-plane normal residuals.

Both residuals come with analytic Jacobians with respect to a left-multiplicative
twist perturbation of the pose (ordering: translation rho, then rotation phi) and
with respect to their landmark-side variable (3D point, or the world normal).

The robust loss is a Huber norm applied to the *whitened* residual norm, so the
chi-square deltas sqrt(7.815) / sqrt(5.991) are directly meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Intrinsics, NonPositiveDepth, PoseSE3, skew

_I3 = np.eye(3)

#: 95% chi-square quantiles for 3 and 2 degrees of freedom.
CHI2_95_3DOF = 7.815
CHI2_95_2DOF = 5.991

#: Largest deviation from unit length accepted for a measured frame normal.
NORMAL_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class RobustLossConfig:
    """Huber deltas (whitened units) and the normal-constraint weight."""

    huber_delta_repro: float = math.sqrt(CHI2_95_3DOF)
    huber_delta_normal: float = math.sqrt(CHI2_95_2DOF)
    normal_weight: float = 1.0e4

    def __post_init__(self):
        if self.huber_delta_repro <= 0.0 or self.huber_delta_normal <= 0.0:
            raise ValueError("Huber deltas must be positive")
        if self.normal_weight < 0.0:
            raise ValueError("normal_weight must be non-negative")


def huber(r, delta: float):
    """Huber cost and IRLS weight for scalar (or array) residual norms.

    cost   = r^2 for |r| <= delta, else 2*delta*|r| - delta^2
    weight = rho'(r) / (2 r), which is 1 in the quadratic branch (and at r=0)
             and delta/|r| in the linear branch.
    """
    r = np.asarray(r, dtype=float)
    a = np.abs(r)
    cost = np.where(a <= delta, r * r, 2.0 * delta * a - delta * delta)
    weight = delta / np.maximum(a, delta)
    if r.ndim == 0:
        return float(cost), float(weight)
    return cost, weight


def make_tangent_basis(frame_normal: np.ndarray) -> np.ndarray:
    """Deterministic 2x3 orthonormal basis of the plane orthogonal to n.

    Rows are b0 = n x v / ||.|| and b1 = n x b0 / ||.|| with the fixed seed
    v = (1,0,0), switching to v = (0,1,0) when |n_x| > 0.9. Built once per
    frame (``FrameData.tangent_basis``) and reused for every evaluation of
    its normal residual, in tracking and in its keyframe.
    """
    n = np.asarray(frame_normal, dtype=float)
    if n.shape != (3,):
        raise ValueError("frame normal must have shape (3,)")
    x, y, z = n.tolist()
    if not abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= NORMAL_UNIT_TOL:  # NaN too
        raise ValueError("frame normal must be unit length")
    # b0 = n x v: (0, z, -y) for v = (1,0,0), (-z, 0, x) for v = (0,1,0)
    u, v, w = (0.0, z, -y) if abs(x) <= 0.9 else (-z, 0.0, x)
    norm = math.sqrt(u * u + v * v + w * w)
    u, v, w = u / norm, v / norm, w / norm
    # b1 = n x b0
    p, q, r = y * w - z * v, z * u - x * w, x * v - y * u
    norm = math.sqrt(p * p + q * q + r * r)
    return np.array([[u, v, w], [p / norm, q / norm, r / norm]])


def reprojection_residual(
    K: Intrinsics, pose: PoseSE3, point: np.ndarray, measured: np.ndarray
) -> np.ndarray:
    """pi(R p + t) - (uL, v, uR); batched over leading axis when given (N,3)."""
    from .geometry import project, transform_point

    pc = transform_point(pose, point)
    return project(K, pc) - np.asarray(measured, dtype=float)


def reprojection_pose_jacobian(K: Intrinsics, pc: np.ndarray) -> np.ndarray:
    """Jacobian (N, 3, 6) of the reprojection residual with respect to the
    pose twist, at camera-frame points ``pc`` (N, 3) in front of the camera.

    Under the left-multiplicative update the camera-frame point moves as
    p_c + rho + phi x p_c, so J = Jpi @ [I | -skew(p_c)] with
    Jpi = d pi / d p_c. Its entries are written out here in the normalized
    coordinates u = x/z, v = y/z of the left camera and u_r = (x - b)/z of
    the right one; the first three columns are Jpi itself.
    """
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    inv_z = 1.0 / z
    u, v, u_r = x * inv_z, y * inv_z, (x - K.b) * inv_z
    fx_z, fy_z = K.fx * inv_z, K.fy * inv_z
    fx_v = K.fx * v
    J = np.zeros((pc.shape[0], 3, 6))
    J[:, 0, 0] = J[:, 2, 0] = fx_z
    J[:, 1, 1] = fy_z
    J[:, 0, 2] = -fx_z * u
    J[:, 1, 2] = -fy_z * v
    J[:, 2, 2] = -fx_z * u_r
    J[:, 0, 3] = -fx_v * u
    J[:, 1, 3] = -K.fy * (1.0 + v * v)
    J[:, 2, 3] = -fx_v * u_r
    J[:, 0, 4] = K.fx * (1.0 + u * u)
    J[:, 1, 4] = K.fy * (u * v)
    J[:, 2, 4] = K.fx * (1.0 + u_r * u)
    J[:, 0, 5] = J[:, 2, 5] = -fx_v
    J[:, 1, 5] = K.fy * u
    return J


def reprojection_jacobians(K: Intrinsics, pose, point: np.ndarray, pc=None):
    """Analytic Jacobians of the reprojection residual at the current pose.

    Returns (J_pose, J_point): (3,6) and (3,3) for a single point, or
    (N,3,6) and (N,3,3) for a batch. ``pose`` is a PoseSE3 or an ``(R, t)``
    pair whose arrays may hold one pose per point, (N,3,3) and (N,3); ``pc``
    passes the camera-frame points when the caller has them already.
    J_pose is :func:`reprojection_pose_jacobian`, columns in the twist
    order (rho, phi); J_point = Jpi @ R, with Jpi its first three columns.
    """
    point = np.asarray(point, dtype=float)
    single = point.ndim == 1
    R, t = (pose.R, pose.t) if isinstance(pose, PoseSE3) else pose
    if pc is None:
        pc = np.einsum("...ij,...j->...i", R, np.atleast_2d(point)) + t
    pc = np.atleast_2d(pc)
    if np.any(pc[:, 2] <= 0.0):
        raise NonPositiveDepth("point behind camera while linearizing")
    J_pose = reprojection_pose_jacobian(K, pc)
    J_point = J_pose[:, :, :3] @ R
    if single:
        return J_pose[0], J_point[0]
    return J_pose, J_point


def normal_residual(
    basis: np.ndarray,
    rotation: np.ndarray,
    world_normal: np.ndarray,
    frame_normal: np.ndarray,
) -> np.ndarray:
    """Tangent-plane residual B (R n_w/||n_w|| - n_k), shape (2,).

    ``basis``, ``rotation`` and ``frame_normal`` may carry a leading keyframe
    axis, (K,2,3), (K,3,3) and (K,3), for a (K,2) result against the shared
    world normal. Scale-invariant in the world normal; components of the
    difference along n_k are annihilated by construction of the basis.
    """
    n_w = np.asarray(world_normal, dtype=float)
    norm = math.sqrt(n_w @ n_w)
    if norm <= 1e-6:
        raise ValueError("world normal norm must exceed 1e-6")
    d = rotation @ (n_w / norm) - np.asarray(frame_normal, dtype=float)
    return np.einsum("...ij,...j->...i", basis, d)


def normal_jacobian(basis: np.ndarray, rotation: np.ndarray, world_normal: np.ndarray):
    """Jacobians (J_phi, J_nw) of the normal residual, each 2x3.

    Batched like :func:`normal_residual`: a leading keyframe axis on
    ``basis`` and ``rotation`` gives (K,2,3) Jacobians. J_phi is with
    respect to the rotational half of a left-multiplicative twist (the
    translational half is identically zero); J_nw differentiates through the
    normalization of the world normal.
    """
    n_w = np.asarray(world_normal, dtype=float)
    norm = math.sqrt(n_w @ n_w)
    if norm <= 1e-6:
        raise ValueError("world normal norm must exceed 1e-6")
    n_hat = n_w / norm
    m = rotation @ n_hat
    J_phi = -basis @ skew(m)
    J_nw = basis @ rotation @ (_I3 - n_hat[:, None] * n_hat) / norm
    return J_phi, J_nw
