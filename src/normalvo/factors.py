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

from .geometry import Intrinsics, NonPositiveDepth, PoseSE3, check_finite, skew
from .geometry import normalized_coordinates

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
        check_finite(self)
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
    if not (isinstance(r, np.ndarray) and r.ndim):  # one norm, in Python floats
        a = abs(float(r))
        cost = a * a if a <= delta else 2.0 * delta * a - delta * delta
        return cost, delta / max(a, delta)
    a = np.abs(r)
    cost = np.where(a <= delta, r * r, 2.0 * delta * a - delta * delta)
    return cost, delta / np.maximum(a, delta)


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


# Pose Jacobian of normalized coordinates (u, v, u_r), q = 1/z, columns rho, phi:
#   u    q  0  -q u    -v u        1 + u u    -v
#   v    0  q  -q v    -1 - v v    u v         u
#   u_r  q  0  -q u_r  -v u_r      1 + u_r u  -v
# Entry e is _J_SIGN[e] a_i b_j + _J_ONE[e] at _J_AT[e] = 4 i + j, for
# a = (q, 1, u, v) and b = (1, u, v, u_r).
_J_AT = np.array([0, 0, 1, 13, 9, 12, 0, 0, 2, 14, 10, 5, 0, 0, 3, 15, 11, 12])
_J_SIGN = np.array([1, 0, -1, -1, 1, -1, 0, 1, -1, -1, 1, 1, 1, 0, -1, -1, 1, -1.0])
_J_ONE = np.array([0, 0, 0, 0, 1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1, 0.0])


def reprojection_row_jacobians(inv_z, nc, R=None, rows=None):
    """Jacobians (J_pose, J_point) of the reprojection residuals, at points in
    front of the camera given by :func:`~normalvo.geometry.normalized_coordinates`,
    in normalized units: times ``K.scale[k]``, row k of a block is in pixels.

    Under the left-multiplicative update the camera-frame point moves as
    p_c + rho + phi x p_c, and a point step dX moves it by R dX, so
    J_pose = Jpi [I | -skew(p_c)] (columns rho, phi) and J_point = Jpi R,
    with Jpi = d pi / d p_c, whose row k is (R_k' - nc_k R_2) / z against
    R's rows k' = (0, 1, 0). J_pose (F, 3, 6) holds the rows ``rows`` (an
    index array; every row when None); J_point (N, 3, 3) holds every row
    against ``R``, (N, 3, 3) or (3, 3), and is None without it.
    """
    J_point = None if R is None else inv_z[:, None, None] * (
        R.take((0, 1, 0), axis=-2) - nc[:, :, None] * R[..., 2:, :])
    if rows is not None:
        inv_z, nc = inv_z.take(rows), nc.take(rows, axis=0)
    a = np.empty((5, inv_z.size))
    a[0], a[1], a[2:] = inv_z, 1.0, nc.T
    J = (a[:4, None] * a[None, 1:]).reshape(16, -1).T[:, _J_AT]
    J *= _J_SIGN
    J += _J_ONE
    return J.reshape(-1, 3, 6), J_point


def reprojection_jacobians(K: Intrinsics, pose, point: np.ndarray, pc=None):
    """Analytic Jacobians of the reprojection residual at the current pose.

    Returns (J_pose, J_point): (3,6) and (3,3) for a single point, or
    (N,3,6) and (N,3,3) for a batch. ``pose`` is a PoseSE3 or an ``(R, t)``
    pair whose arrays may hold one pose per point, (N,3,3) and (N,3); ``pc``
    passes the camera-frame points when the caller has them already.
    Both are :func:`reprojection_row_jacobians`'s for every row, in pixels.
    """
    point = np.asarray(point, dtype=float)
    R, t = (pose.R, pose.t) if isinstance(pose, PoseSE3) else pose
    if pc is None:
        pc = np.einsum("...ij,...j->...i", R, np.atleast_2d(point)) + t
    pc = np.atleast_2d(pc)
    if np.any(pc[:, 2] <= 0.0):
        raise NonPositiveDepth("point behind camera while linearizing")
    Js = reprojection_row_jacobians(*normalized_coordinates(K, pc), R)
    J_pose, J_point = (J * K.scale[:, None] for J in Js)
    if point.ndim == 1:
        return J_pose[0], J_point[0]
    return J_pose, J_point


def _unit_world_normal(world_normal: np.ndarray):
    """The world normal's direction and norm, rejecting a near-zero one."""
    n_w = np.asarray(world_normal, dtype=float)
    norm = math.sqrt(n_w @ n_w)
    if norm <= 1e-6:
        raise ValueError("world normal norm must exceed 1e-6")
    return n_w / norm, norm


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
    n_hat, _ = _unit_world_normal(world_normal)
    d = rotation @ n_hat - np.asarray(frame_normal, dtype=float)
    return np.einsum("...ij,...j->...i", basis, d)


def normal_pose_jacobian(
    basis: np.ndarray, rotation: np.ndarray, world_normal: np.ndarray
) -> np.ndarray:
    """J_phi of :func:`normal_jacobian` alone, for a solver whose world
    normal is held fixed; batched the same way."""
    n_hat, _ = _unit_world_normal(world_normal)
    return -basis @ skew(rotation @ n_hat)


def normal_jacobian(basis: np.ndarray, rotation: np.ndarray, world_normal: np.ndarray):
    """Jacobians (J_phi, J_nw) of the normal residual, each 2x3.

    Batched like :func:`normal_residual`: a leading keyframe axis on
    ``basis`` and ``rotation`` gives (K,2,3) Jacobians. J_phi is with
    respect to the rotational half of a left-multiplicative twist (the
    translational half is identically zero); J_nw differentiates through the
    normalization of the world normal.
    """
    n_hat, norm = _unit_world_normal(world_normal)
    J_phi = normal_pose_jacobian(basis, rotation, world_normal)
    J_nw = basis @ rotation @ (_I3 - n_hat[:, None] * n_hat) / norm
    return J_phi, J_nw
