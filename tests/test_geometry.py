from __future__ import annotations

import numpy as np
import pytest

from normalvo.geometry import (
    DegenerateDisparity,
    Intrinsics,
    NearPiRotationWarning,
    NonPositiveDepth,
    PoseSE3,
    _exp_and_left_jacobian,
    apply_update,
    nearest_rotation,
    project,
    quat_to_rotation,
    rotation_to_quat,
    se3_exp,
    se3_log,
    skew,
    so3_exp,
    triangulate,
    update_poses,
)
from pose_reference import pose_matrix, transform_point

K = Intrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, b=0.05)


def random_twists(rng, n, max_angle=3.0):
    rho = rng.uniform(-5.0, 5.0, size=(n, 3))
    axis = rng.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = rng.uniform(0.0, max_angle, size=(n, 1))
    return np.hstack([rho, axis * angle])


def test_identity_pose_transform():
    p = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(transform_point(PoseSE3.identity(), p), p)


def test_translation_only_transform():
    T = PoseSE3(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(
        transform_point(T, np.zeros(3)), [1.0, 2.0, 3.0], atol=0
    )


def test_rotation_about_z_maps_x_to_y():
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    T = PoseSE3(Rz, np.zeros(3))
    np.testing.assert_allclose(
        transform_point(T, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-15
    )


def test_pose_rejects_non_orthonormal_rotation():
    R = np.eye(3)
    R[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        PoseSE3(R, np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["R", "t"])
def test_pose_rejects_non_finite_entries(part, value):
    # a NaN passes every tolerance comparison, and an inf makes R^T R
    # invalid; both must fail before any arithmetic warns
    R, t = np.eye(3), np.zeros(3)
    (R if part == "R" else t)[0] = value
    with pytest.raises(ValueError, match="finite"):
        PoseSE3(R, t)


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_intrinsics_reject_non_finite_fields(field, value):
    fields = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, b=0.2)
    Intrinsics(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Intrinsics(**fields)


def test_compose_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for xi in random_twists(rng, 50):
        T = se3_exp(xi)
        I = T.compose(T.inverse())
        np.testing.assert_allclose(I.R, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(I.t, np.zeros(3), atol=1e-12)


def test_exp_zero_twist_is_identity():
    T = se3_exp(np.zeros(6))
    assert np.array_equal(T.R, np.eye(3))
    assert np.array_equal(T.t, np.zeros(3))


def test_exp_pure_rotation_about_z():
    xi = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.pi / 2])
    T = se3_exp(xi)
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(T.R, expected, atol=1e-15)
    np.testing.assert_allclose(T.t, np.zeros(3), atol=0)


def test_exp_pure_translation():
    xi = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0])
    T = se3_exp(xi)
    assert np.array_equal(T.R, np.eye(3))
    np.testing.assert_allclose(T.t, [1.0, 2.0, 3.0], atol=0)


def test_log_identity_is_zero():
    assert np.array_equal(se3_log(PoseSE3.identity()), np.zeros(6))


def test_log_near_pi_flagged_but_valid():
    xi = np.array([0.0, 0.0, 0.0, np.pi, 0.0, 0.0])
    T = se3_exp(xi)
    with pytest.warns(NearPiRotationWarning):
        back = se3_log(T)
    assert abs(np.linalg.norm(back[3:]) - np.pi) < 1e-9
    T2 = se3_exp(back)
    np.testing.assert_allclose(T2.R, T.R, atol=1e-9)


def test_exp_log_roundtrip_small_angles():
    rng = np.random.default_rng(11)
    for xi in random_twists(rng, 200, max_angle=1e-7):
        err = np.linalg.norm(se3_log(se3_exp(xi)) - xi)
        assert err <= 1e-9


def test_exp_log_roundtrip_bulk():
    rng = np.random.default_rng(1234)
    twists = random_twists(rng, 10_000, max_angle=3.0)
    worst = 0.0
    for xi in twists:
        worst = max(worst, np.linalg.norm(se3_log(se3_exp(xi)) - xi))
    assert worst <= 1e-9


def test_apply_update_is_left_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = random_twists(rng, 1)[0]
        T = se3_exp(random_twists(rng, 1)[0])
        expected = se3_exp(xi).compose(T)
        got = apply_update(xi, T)
        np.testing.assert_allclose(pose_matrix(got), pose_matrix(expected), atol=1e-12)


# Per-pose scalar forms of exp and V, as the package computed them before
# its kernel took a batch axis; the batched rows must reproduce them.
def reference_so3_exp(phi):
    w = skew(phi)
    angle = np.linalg.norm(phi)
    if angle < 1e-8:
        return np.eye(3) + w + 0.5 * (w @ w)
    half_sin = np.sin(0.5 * angle)
    return (
        np.eye(3)
        + (np.sin(angle) / angle) * w
        + (2.0 * half_sin * half_sin / (angle * angle)) * (w @ w)
    )


def reference_left_jacobian(phi):
    w = skew(phi)
    angle = np.linalg.norm(phi)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * w + (w @ w) / 6.0
    a2 = angle * angle
    if angle < 1e-2:
        b = 0.5 - a2 / 24.0 + a2 * a2 / 720.0
        c = 1.0 / 6.0 - a2 / 120.0 + a2 * a2 / 5040.0
    else:
        half_sin = np.sin(0.5 * angle)
        b = 2.0 * half_sin * half_sin / a2
        c = (angle - np.sin(angle)) / (a2 * angle)
    return np.eye(3) + b * w + c * (w @ w)


def test_batched_update_matches_scalar_path_on_every_branch():
    # one stack whose rows take every branch of exp and V: zero, the
    # second-order Taylor form, V's series, either side of the series
    # cutoff 1e-2, and the closed forms up to near pi; then each row alone
    rng = np.random.default_rng(31)
    angles = np.array([0.0, 1e-9, 5e-3, 1e-2 - 1e-9, 1e-2 + 1e-9, 0.5, 3.0])
    axes = rng.normal(size=(angles.size, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    xi = np.hstack([rng.uniform(-2.0, 2.0, (angles.size, 3)), axes * angles[:, None]])
    bases = [se3_exp(x) for x in random_twists(rng, angles.size)]
    R = np.array([p.R for p in bases])
    t = np.array([p.t for p in bases])

    new_R, new_t = update_poses(xi, R, t)
    V = _exp_and_left_jacobian(xi[:, 3:])[1]

    for i in range(angles.size):
        # V's angle-dependent terms are O(angle) and O(angle^2): scale the
        # tolerance so a wrong branch shows at small angles too
        expected_V = reference_left_jacobian(xi[i, 3:])
        tol = 1e-12 * angles[i] ** 2
        np.testing.assert_allclose(V[i], expected_V, rtol=0, atol=tol)
        step_R = reference_so3_exp(xi[i, 3:])
        step_t = reference_left_jacobian(xi[i, 3:]) @ xi[i, :3]
        expected_R = nearest_rotation(step_R @ R[i])
        expected_t = step_R @ t[i] + step_t
        np.testing.assert_allclose(new_R[i], expected_R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_t[i], expected_t, rtol=0, atol=1e-12)
        # a one-row stack takes the one-pose path that tracking runs
        one_R, one_t = update_poses(xi[i : i + 1], R[i : i + 1], t[i : i + 1])
        np.testing.assert_allclose(one_R[0], expected_R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(one_t[0], expected_t, rtol=0, atol=1e-12)
        # the one-pose forms are rows of the same kernel
        step = se3_exp(xi[i])
        np.testing.assert_allclose(step.R, step_R, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.t, step_t, rtol=0, atol=1e-12)
        one = apply_update(xi[i], bases[i])
        np.testing.assert_array_equal(one.R, new_R[i])
        np.testing.assert_array_equal(one.t, new_t[i])
    rows = np.array([so3_exp(x[3:]) for x in xi])
    np.testing.assert_array_equal(so3_exp(xi[:, 3:]), rows)


def test_chained_updates_stay_orthonormal():
    # the Newton-Schulz polar step keeps 10^4 chained left updates on SO(3)
    rng = np.random.default_rng(32)
    twists = random_twists(rng, 10_000)
    R, t = np.eye(3)[None], np.zeros((1, 3))
    for xi in twists:
        R, t = update_poses(xi[None], R, t)
    assert np.max(np.abs(R[0].T @ R[0] - np.eye(3))) <= 1e-12
    pose = PoseSE3(R[0], t[0])  # validates orthonormality and det
    assert abs(np.linalg.det(pose.R) - 1.0) <= 1e-12

    # a rotation knocked 1e-6 off SO(3) lands within ~(1e-6)^2 of the polar
    # factor after one (zero) update
    off = R + rng.uniform(-1e-6, 1e-6, R.shape)
    back, _ = update_poses(np.zeros((1, 6)), off, t)
    assert np.max(np.abs(back[0].T @ back[0] - np.eye(3))) <= 1e-11
    np.testing.assert_allclose(back[0], nearest_rotation(off[0]), rtol=0, atol=1e-11)


def test_project_centered_point():
    obs = project(K, np.array([0.0, 0.0, 2.0]))
    np.testing.assert_allclose(obs, [320.0, 240.0, 310.0], atol=1e-12)


def test_project_off_axis_point():
    obs = project(K, np.array([1.0, 1.0, 2.0]))
    np.testing.assert_allclose(obs, [520.0, 440.0, 510.0], atol=1e-12)


def test_project_rejects_zero_depth():
    with pytest.raises(NonPositiveDepth):
        project(K, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(NonPositiveDepth):
        project(K, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0]]))


def test_triangulate_known_point():
    p = triangulate(K, np.array([520.0, 440.0, 510.0]))
    np.testing.assert_allclose(p, [1.0, 1.0, 2.0], atol=1e-12)


def test_triangulate_rejects_small_disparity():
    with pytest.raises(DegenerateDisparity):
        triangulate(K, np.array([320.0, 240.0, 319.6]))


def test_project_triangulate_roundtrip_bulk():
    rng = np.random.default_rng(77)
    n = 10_000
    z = rng.uniform(0.5, 30.0, size=n)  # disparity stays above 0.5 px
    x = rng.uniform(-1.0, 1.0, size=n) * z
    y = rng.uniform(-0.6, 0.6, size=n) * z
    pts = np.stack([x, y, z], axis=1)
    obs = project(K, pts)
    assert np.all(obs[:, 0] - obs[:, 2] > 0.5)
    back = triangulate(K, obs)
    worst = np.max(np.linalg.norm(back - pts, axis=1))
    assert worst <= 1e-9


def test_exp_produces_valid_pose():
    rng = np.random.default_rng(5)
    for xi in random_twists(rng, 100):
        T = se3_exp(xi)  # PoseSE3 validates orthonormality on construction
        assert abs(np.linalg.det(T.R) - 1.0) < 1e-9


def test_quaternion_roundtrip():
    rng = np.random.default_rng(21)
    for xi in random_twists(rng, 200):
        R = so3_exp(xi[3:])
        q = rotation_to_quat(R)
        assert q[3] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        np.testing.assert_allclose(quat_to_rotation(q), R, atol=1e-12)


def test_quaternion_roundtrip_near_pi():
    R = so3_exp(np.array([np.pi - 1e-9, 0.0, 0.0]))
    np.testing.assert_allclose(quat_to_rotation(rotation_to_quat(R)), R, atol=1e-12)


def test_rotation_to_quat_batches_over_leading_axes():
    rng = np.random.default_rng(23)
    R = so3_exp(rng.uniform(-3.0, 3.0, size=(2, 5, 3)))
    q = rotation_to_quat(R)
    assert q.shape == (2, 5, 4)
    for qi, Ri in zip(q.reshape(-1, 4), R.reshape(-1, 3, 3)):
        assert np.array_equal(qi, rotation_to_quat(Ri))
    assert rotation_to_quat(R[0, 0]).shape == (4,)
