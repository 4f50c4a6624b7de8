"""SE(3) kernel and rectified-stereo camera model.

Conventions used throughout the package:

* A pose ``T = (R, t)`` maps points INTO its frame: ``p_local = R @ p + t``.
  The estimator stores world-to-camera poses; trajectory files store the
  inverse (camera-to-world), see :mod:`normalvo.dataset`.
* Twists are 6-vectors ordered ``(rho, phi)``: translational part first,
  rotational part last, angles in radians.
* Pose updates are left-multiplicative: ``apply_update(xi, T) = exp(xi) * T``.
* Quaternions appear only at the file-format boundary, ordered (x, y, z, w).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

SMALL_ANGLE = 1e-8
DEFAULT_MIN_DISPARITY = 0.5
_ORTHONORMAL_TOL = 1e-9
_NEAR_PI_MARGIN = 1e-6
# Below this angle the closed-form V / V^-1 coefficients lose digits to
# cancellation (error ~ eps/angle^2), so a truncated series is used instead.
_SERIES_ANGLE = 1e-2
_I3 = np.eye(3)
# skew(v) flattened row-major is v[_SKEW_INDEX] * _SKEW_SIGN
_SKEW_INDEX = np.array([0, 2, 1, 2, 0, 0, 1, 0, 0])
_SKEW_SIGN = np.array([0.0, -1.0, 1.0, 1.0, 0.0, -1.0, -1.0, 1.0, 0.0])


class NonPositiveDepth(ValueError):
    """Point lies on or behind the principal plane (Z <= 0)."""


class DegenerateDisparity(ValueError):
    """Stereo disparity too small for a usable depth."""


class NearPiRotationWarning(RuntimeWarning):
    """Rotation angle within 1e-6 of pi; the near-pi log branch was used."""


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 cross-product matrix of a 3-vector (last axis for batches)."""
    v = np.asarray(v, dtype=float)
    return (v[..., _SKEW_INDEX] * _SKEW_SIGN).reshape(v.shape[:-1] + (3, 3))


def _vee(m: np.ndarray) -> np.ndarray:
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def check_finite(settings) -> None:
    """Raise ValueError naming the first float field of dataclass
    ``settings`` that is NaN or infinite. Its module must postpone
    annotations, so that a field's type reads as the string ``"float"``."""
    for f in fields(settings):
        if f.type == "float" and not math.isfinite(getattr(settings, f.name)):
            raise ValueError(f"{type(settings).__name__}.{f.name} must be finite")


@dataclass(frozen=True)
class Intrinsics:
    """Rectified stereo camera: shared pinhole intrinsics plus baseline [m]."""

    fx: float
    fy: float
    cx: float
    cy: float
    b: float

    def __post_init__(self):
        check_finite(self)
        for name in ("fx", "fy", "b"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Intrinsics.{name} must be positive")
        # the per-column constants of a (uL, v, uR) triplet, as read-only arrays
        for name, triple in (("scale", (self.fx, self.fy, self.fx)),
                             ("offset", (self.cx, self.cy, self.cx)),
                             ("shift", (0.0, 0.0, self.b))):
            object.__setattr__(self, name, np.array(triple))
            getattr(self, name).flags.writeable = False


@dataclass(frozen=True)
class PoseSE3:
    """Rigid transform with rotation ``R`` (3x3) and translation ``t`` (3,).

    Arrays are copied, validated (finite, orthonormality and det within
    1e-9) and frozen on construction, so a PoseSE3 can be shared safely.
    """

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = np.array(self.R, dtype=float)
        t = np.array(self.t, dtype=float)
        if R.shape != (3, 3) or t.shape != (3,):
            raise ValueError("PoseSE3 expects R (3,3) and t (3,)")
        check_poses(R, t)
        R.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "PoseSE3":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "PoseSE3") -> "PoseSE3":
        """self * other (apply ``other`` first)."""
        return PoseSE3(self.R @ other.R, self.R @ other.t + self.t)

    def inverse(self) -> "PoseSE3":
        return PoseSE3(self.R.T, -self.R.T @ self.t)


def check_poses(R: np.ndarray, t: np.ndarray) -> None:
    """Raise ValueError unless rotations ``R`` (..., 3, 3) and translations
    ``t`` (..., 3) are finite and every rotation is orthonormal with
    determinant +1, both within 1e-9: the checks of :class:`PoseSE3`."""
    if not (np.isfinite(R).all() and np.isfinite(t).all()):
        raise ValueError("pose rotation and translation must be finite")
    if np.any(np.abs(np.swapaxes(R, -1, -2) @ R - _I3) > _ORTHONORMAL_TOL):
        raise ValueError("rotation is not orthonormal within 1e-9")
    if np.any(np.abs(np.linalg.det(R) - 1.0) > _ORTHONORMAL_TOL):
        raise ValueError("rotation determinant is not +1 within 1e-9")


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rodrigues formula; second-order Taylor below the small-angle cutoff.

    ``phi`` may carry leading batch axes, (..., 3) -> (..., 3, 3); each row
    takes its own branch.
    """
    return _exp_and_left_jacobian(phi)[0]


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of ``R``; warns (and stays stable) near pi."""
    R = np.asarray(R, dtype=float)
    sin_vec = 0.5 * _vee(R - R.T)  # = sin(angle) * axis
    s = np.linalg.norm(sin_vec)
    c = 0.5 * (np.trace(R) - 1.0)
    angle = np.arctan2(s, min(max(c, -1.0), 1.0))
    if angle < SMALL_ANGLE:
        return sin_vec
    if np.pi - angle < _NEAR_PI_MARGIN:
        warnings.warn(
            f"rotation angle {angle!r} is within 1e-6 of pi",
            NearPiRotationWarning,
            stacklevel=2,
        )
        # R + I == 2 n n^T at angle pi; take the strongest column as axis.
        m = R + np.eye(3)
        col = int(np.argmax(np.diag(m)))
        axis = m[:, col] / np.linalg.norm(m[:, col])
        if s > 0.0 and np.dot(axis, sin_vec) < 0.0:
            axis = -axis
        return angle * axis
    return (angle / s) * sin_vec


def _exp_coefficients(a2: float):
    """Coefficients ``(a, b, b_v, c)`` of ``exp(phi) = I + a W + b W^2`` and
    ``V(phi) = I + b_v W + c W^2``, ``W = skew(phi)``, at ``a2 = |phi|^2``.

    Below SMALL_ANGLE exp uses its Taylor form. V's coefficients switch to a
    truncated series below _SERIES_ANGLE, where the closed forms lose digits
    to cancellation (error ~ eps/angle^2).
    """
    angle = math.sqrt(a2)
    if angle < SMALL_ANGLE:
        a, b = 1.0, 0.5
    else:
        sin = math.sin(angle)
        half_sin = math.sin(0.5 * angle)
        a = sin / angle
        b = 2.0 * half_sin * half_sin / (angle * angle)
    if angle < _SERIES_ANGLE:
        b_v = 0.5 - a2 / 24.0 + a2 * a2 / 720.0
        c = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0
        return a, b, b_v, c
    return a, b, b, (angle - sin) / (angle * angle * angle)


def _exp_and_left_jacobian(phi: np.ndarray):
    """``exp(phi)`` and ``V(phi)`` for rotation vectors (..., 3), each row
    on its own branch of :func:`_exp_coefficients`."""
    phi = np.asarray(phi, dtype=float)
    shape = phi.shape[:-1] + (3, 3)
    phi = phi.reshape(-1, 3)
    w = skew(phi)
    ww = w @ w
    a2 = np.einsum("ij,ij->i", phi, phi).tolist()
    coef = np.array([_exp_coefficients(x) for x in a2]).reshape(-1, 4, 1, 1)
    a, b, b_v, c = coef[:, 0], coef[:, 1], coef[:, 2], coef[:, 3]
    R = _I3 + a * w + b * ww
    V = _I3 + b_v * w + c * ww
    return R.reshape(shape), V.reshape(shape)


def _left_jacobian_inv(phi: np.ndarray) -> np.ndarray:
    w = skew(phi)
    angle = np.linalg.norm(phi)
    if angle < SMALL_ANGLE:
        return np.eye(3) - 0.5 * w + (w @ w) / 12.0
    a2 = angle * angle
    if angle < _SERIES_ANGLE:
        coef = 1.0 / 12.0 + a2 / 720.0 + a2 * a2 / 30240.0
    else:
        half = 0.5 * angle
        half_sin = np.sin(half)
        coef = (1.0 - half * np.cos(half) / half_sin) / a2
    return np.eye(3) - 0.5 * w + coef * (w @ w)


def se3_exp(xi: np.ndarray) -> PoseSE3:
    """Exponential map of a twist (rho, phi) -> PoseSE3."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (6,):
        raise ValueError("twist must have shape (6,)")
    R, t = _se3_exp_rows(xi[None])
    return PoseSE3(R[0], t[0])


def _se3_exp_rows(xi: np.ndarray):
    """Rotations (P, 3, 3) and translations (P, 3) of twists (P, 6)."""
    R, V = _exp_and_left_jacobian(xi[:, 3:])
    return R, (V @ xi[:, :3, None])[:, :, 0]


def se3_log(pose: PoseSE3) -> np.ndarray:
    """Inverse of :func:`se3_exp`. Warns near pi, result still valid."""
    phi = so3_log(pose.R)
    rho = _left_jacobian_inv(phi) @ pose.t
    return np.concatenate([rho, phi])


def nearest_rotation(R: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto SO(3) (polar factor, det +1)."""
    U, _, Vt = np.linalg.svd(R)
    D = np.eye(3)
    D[2, 2] = np.sign(np.linalg.det(U @ Vt))
    return U @ D @ Vt


def update_poses(xi: np.ndarray, R: np.ndarray, t: np.ndarray):
    """Left-multiplicative twist updates ``exp(xi_i) * (R_i, t_i)`` of stacked
    poses: twists (P, 6), rotations (P, 3, 3), translations (P, 3).

    Each updated rotation gets one Newton-Schulz polar step,
    ``R <- 1.5 R - 0.5 R R^T R``, which pulls an orthonormality error e to
    about e^2, so drift from repeated float multiplications cannot
    accumulate across long update chains. The arrays are returned
    unvalidated; wrap a row in PoseSE3 where it leaves the solver. A single
    pose (P = 1, tracking's case) is updated on its 3x3 blocks directly.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape[0] == 1:
        R, t = update_pose(xi[0], R[0], t[0])
        return R[None], t[None]
    step_R, step_t = _se3_exp_rows(xi)
    R = step_R @ R
    t = (step_R @ t[:, :, None])[:, :, 0] + step_t
    return 1.5 * R - 0.5 * (R @ (np.swapaxes(R, 1, 2) @ R)), t


def update_pose(xi: np.ndarray, R: np.ndarray, t: np.ndarray):
    """One pose's :func:`update_poses`, with the same bits and no one-row stack:
    twist (6,), rotation (3, 3), translation (3,)."""
    phi = xi[3:]
    # the batched path's einsum, so that a row sums its squares alike
    a, b, b_v, c = _exp_coefficients(float(np.einsum("i,i", phi, phi)))
    w = skew(phi)
    ww = w @ w
    step_R = _I3 + a * w + b * ww
    R = step_R @ R
    t = step_R @ t + (_I3 + b_v * w + c * ww) @ xi[:3]
    return 1.5 * R - 0.5 * (R @ (R.T @ R)), t


def apply_update(xi: np.ndarray, pose: PoseSE3) -> PoseSE3:
    """Left-multiplicative twist update ``exp(xi) * pose``: the one-pose case
    of :func:`update_poses`."""
    R, t = update_poses(np.reshape(xi, (1, 6)), pose.R[None], pose.t[None])
    return PoseSE3(R[0], t[0])


def project(K: Intrinsics, pc: np.ndarray) -> np.ndarray:
    """Project camera-frame points to (uL, v, uR) pixel triplets.

    pc: (3,) or (N, 3) camera-frame coordinates, Z forward.
    Raises NonPositiveDepth if any Z <= 0.
    """
    pc = np.asarray(pc, dtype=float)
    z = pc[..., 2:]
    if (z <= 0.0).any():
        raise NonPositiveDepth(f"depth must be positive, got min Z = {z.min()!r}")
    uvu = pc.take((0, 1, 0), axis=-1) - K.shift  # then scaled in place
    uvu *= K.scale
    uvu /= z
    uvu += K.offset
    return uvu


def normalized_coordinates(K: Intrinsics, pc: np.ndarray):
    """``1/z`` (N,) and ``(x/z, y/z, (x - b)/z)`` (N, 3) of points ``pc`` (N, 3)."""
    inv_z = 1.0 / pc[:, 2]
    return inv_z, (pc.take((0, 1, 0), axis=1) - K.shift) * inv_z[:, None]


def triangulate(
    K: Intrinsics, obs: np.ndarray, d_min: float = DEFAULT_MIN_DISPARITY
) -> np.ndarray:
    """Camera-frame point from a (uL, v, uR) triplet (or batch (N, 3)).

    Raises DegenerateDisparity when uL - uR <= d_min.
    """
    obs = np.asarray(obs, dtype=float)
    single = obs.ndim == 1
    m = np.atleast_2d(obs)
    d = m[:, 0] - m[:, 2]
    if np.any(d <= d_min):
        raise DegenerateDisparity(
            f"disparity must exceed {d_min} px, got min {d.min()!r}"
        )
    z = K.fx * K.b / d
    x = (m[:, 0] - K.cx) * z / K.fx
    y = (m[:, 1] - K.cy) * z / K.fy
    out = np.stack([x, y, z], axis=-1)
    return out[0] if single else out


def rotation_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) with w >= 0 from a rotation matrix."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s, 0.25 * s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[i] = 0.25 * s
        q[j] = (R[j, i] + R[i, j]) / s
        q[k] = (R[k, i] + R[i, k]) / s
        q[3] = (R[k, j] - R[j, k]) / s
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix from an (x, y, z, w) quaternion (normalized here);
    batched over leading axes, (..., 4) -> (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    # each row's norm as a 1x4 @ 4x1 product, which numpy computes with the
    # dot np.linalg.norm uses on one vector: the same bits for one or many
    q = q / np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    x, y, z, w = np.moveaxis(q, -1, 0)
    R = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]
    return np.moveaxis(np.array(R), (0, 1), (-2, -1))
