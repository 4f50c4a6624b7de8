from __future__ import annotations

import numpy as np
import pytest

from normalvo.factors import (
    huber,
    make_tangent_basis,
    normal_jacobian,
    normal_pose_jacobian,
    normal_residual,
    reprojection_jacobians,
    reprojection_row_jacobians,
)
from normalvo.geometry import (
    Intrinsics,
    PoseSE3,
    normalized_coordinates,
    project,
    se3_exp,
    skew,
    so3_exp,
)
from pose_reference import transform_point

K = Intrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, b=0.05)
FD_STEP = 1e-6


def random_pose(rng, max_angle=0.5):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    xi = np.concatenate([rng.uniform(-1, 1, 3), axis * rng.uniform(0, max_angle)])
    return se3_exp(xi)


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def reprojection_residual(K, pose, point, measured):
    """Reference residual pi(R p + t) - (uL, v, uR), batched over a leading
    axis of ``point`` and ``measured``."""
    return project(K, transform_point(pose, point)) - np.asarray(measured, dtype=float)


# --- tangent basis ---------------------------------------------------------


def test_basis_down_normal():
    B = make_tangent_basis(np.array([0.0, 0.0, -1.0]))
    np.testing.assert_allclose(B[0], [0.0, -1.0, 0.0], atol=1e-15)


def test_basis_up_normal():
    B = make_tangent_basis(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(B[0], [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(B[1], [-1.0, 0.0, 0.0], atol=1e-15)


def test_basis_switches_seed_for_x_aligned_normal():
    B = make_tangent_basis(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(B[0], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(B[1], [0.0, -1.0, 0.0], atol=1e-15)


def test_basis_rows_orthonormal_and_orthogonal_to_normal():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = random_unit(rng)
        B = make_tangent_basis(n)
        gram = B @ B.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-9
        assert np.max(np.abs(B @ n)) <= 1e-9


def test_basis_deterministic():
    n = np.array([0.3, -0.4, -np.sqrt(1 - 0.25)])
    a = make_tangent_basis(n)
    b = make_tangent_basis(n)
    assert np.array_equal(a, b)


def test_basis_rejects_non_unit_input():
    with pytest.raises(ValueError):
        make_tangent_basis(np.array([0.0, 0.0, -2.0]))
    with pytest.raises(ValueError):
        make_tangent_basis(np.array([np.nan, 0.0, -1.0]))


# --- normal residual -------------------------------------------------------


def test_normal_residual_zero_when_aligned():
    n_k = np.array([0.0, 0.0, -1.0])
    B = make_tangent_basis(n_k)
    e = normal_residual(B, np.eye(3), np.array([0.0, 0.0, -2.0]), n_k)
    np.testing.assert_allclose(e, [0.0, 0.0], atol=1e-15)


def test_normal_residual_small_tilt():
    n_k = np.array([0.0, 0.0, 1.0])
    B = make_tangent_basis(n_k)
    R = so3_exp(np.array([0.1, 0.0, 0.0]))
    e = normal_residual(B, R, np.array([0.0, 0.0, 1.0]), n_k)
    np.testing.assert_allclose(e, [-np.sin(0.1), 0.0], atol=1e-12)


def test_normal_residual_scale_invariance_bulk():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10_000):
        n_k = random_unit(rng)
        B = make_tangent_basis(n_k)
        R = random_pose(rng).R
        n_w = rng.normal(size=3) * rng.uniform(0.2, 3.0)
        if np.linalg.norm(n_w) < 1e-3:
            continue
        c = rng.uniform(0.1, 10.0)
        e1 = normal_residual(B, R, n_w, n_k)
        e2 = normal_residual(B, R, c * n_w, n_k)
        worst = max(worst, np.max(np.abs(e1 - e2)))
    assert worst <= 1e-12


def test_normal_residual_annihilates_normal_component_bulk():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(10_000):
        n_k = random_unit(rng)
        B = make_tangent_basis(n_k)
        d = rng.normal(size=3)
        alpha = rng.uniform(-2.0, 2.0)
        worst = max(worst, np.max(np.abs(B @ (d + alpha * n_k) - B @ d)))
    assert worst <= 1e-12


def test_normal_residual_rejects_tiny_world_normal():
    n_k = np.array([0.0, 0.0, -1.0])
    B = make_tangent_basis(n_k)
    with pytest.raises(ValueError):
        normal_residual(B, np.eye(3), np.array([0.0, 0.0, -1e-7]), n_k)


# --- huber -----------------------------------------------------------------


def test_huber_quadratic_branch():
    cost, weight = huber(0.5, 1.0)
    assert cost == 0.25
    assert weight == 1.0


def test_huber_linear_branch():
    cost, weight = huber(2.0, 1.0)
    assert cost == 3.0
    assert weight == 0.5


def test_huber_zero_residual():
    cost, weight = huber(0.0, 1.0)
    assert cost == 0.0
    assert weight == 1.0


def test_huber_continuous_at_delta():
    delta = 1.7
    c_in, _ = huber(delta, delta)
    c_out, _ = huber(delta + 1e-12, delta)
    assert abs(c_in - c_out) < 1e-9
    assert abs(c_in - delta * delta) < 1e-12


def test_huber_scalar_matches_the_array_path():
    delta = 1.7
    r = np.array([-3.0, -delta, 0.0, 0.5, delta, delta + 1e-12, 2.0, 1e9, np.inf])
    cost, weight = huber(r, delta)
    for i, x in enumerate(r):
        for scalar in (float(x), np.float64(x), np.array(x)):
            c, w = huber(scalar, delta)
            assert type(c) is float and type(w) is float
            assert c == cost[i] and w == weight[i]


def test_huber_weight_bounds_and_monotone_cost():
    r = np.linspace(0.0, 10.0, 1001)
    cost, weight = huber(r, 2.0)
    assert np.all(weight > 0.0) and np.all(weight <= 1.0)
    assert np.all(np.diff(cost) >= 0.0)


# --- reprojection factor ---------------------------------------------------


def test_reprojection_residual_example():
    e = reprojection_residual(
        K, PoseSE3.identity(), np.array([0.0, 0.0, 2.0]),
        np.array([321.0, 240.0, 310.0]),
    )
    np.testing.assert_allclose(e, [-1.0, 0.0, 0.0], atol=1e-12)


def test_reprojection_translation_block_example():
    # Landmark straight ahead: d uL / d rho_x must equal fx / Z.
    J_pose, _ = reprojection_jacobians(K, PoseSE3.identity(), np.array([0.0, 0.0, 2.0]))
    assert abs(J_pose[0, 0] - K.fx / 2.0) < 1e-12


def _fd_pose_jacobian(K, pose, point, residual_fn):
    J = np.zeros((3, 6))
    for i in range(6):
        step = np.zeros(6)
        step[i] = FD_STEP
        hi = residual_fn(se3_exp(step).compose(pose))
        lo = residual_fn(se3_exp(-step).compose(pose))
        J[:, i] = (hi - lo) / (2.0 * FD_STEP)
    return J


def _rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_reprojection_jacobians_match_finite_differences():
    rng = np.random.default_rng(1001)
    measured = np.array([300.0, 200.0, 290.0])
    worst_pose = worst_point = 0.0
    for _ in range(1000):
        pose = random_pose(rng)
        # sample a point with comfortable positive depth in the camera frame
        pc = np.array(
            [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 20.0)]
        )
        point = pose.inverse().R @ pc + pose.inverse().t
        J_pose, J_point = reprojection_jacobians(K, pose, point)

        fd_pose = _fd_pose_jacobian(
            K, pose, point, lambda T: reprojection_residual(K, T, point, measured)
        )
        worst_pose = max(worst_pose, _rel_err(J_pose, fd_pose))

        fd_point = np.zeros((3, 3))
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = FD_STEP
            hi = reprojection_residual(K, pose, point + dp, measured)
            lo = reprojection_residual(K, pose, point - dp, measured)
            fd_point[:, i] = (hi - lo) / (2.0 * FD_STEP)
        worst_point = max(worst_point, _rel_err(J_point, fd_point))
    assert worst_pose <= 1e-5
    assert worst_point <= 1e-5


def test_reprojection_point_jacobian_is_pixel_jacobian_times_rotation():
    rng = np.random.default_rng(55)
    pose = random_pose(rng)
    point = pose.inverse().R @ np.array([0.3, -0.2, 4.0]) + pose.inverse().t
    J_pose, J_point = reprojection_jacobians(K, pose, point)
    np.testing.assert_allclose(J_point, J_pose[:, :3] @ pose.R, atol=1e-12)


def test_batched_jacobians_match_single():
    rng = np.random.default_rng(77)
    pose = random_pose(rng)
    pcs = np.stack(
        [pose.inverse().R @ np.array([x, y, z]) + pose.inverse().t
         for x, y, z in rng.uniform([[-1, -1, 2]] * 5, [[1, 1, 8]] * 5)]
    )
    Jp_b, Jl_b = reprojection_jacobians(K, pose, pcs)
    for i in range(5):
        Jp, Jl = reprojection_jacobians(K, pose, pcs[i])
        np.testing.assert_allclose(Jp_b[i], Jp, atol=0)
        np.testing.assert_allclose(Jl_b[i], Jl, atol=0)


def test_jacobians_with_one_pose_per_point_match_single_pose_calls():
    rng = np.random.default_rng(78)
    poses = [random_pose(rng) for _ in range(4)]
    points = np.stack(
        [p.inverse().R @ np.array([0.2 * i, -0.1, 3.0 + i]) + p.inverse().t
         for i, p in enumerate(poses)]
    )
    R = np.stack([p.R for p in poses])
    t = np.stack([p.t for p in poses])
    pc = np.einsum("nij,nj->ni", R, points) + t
    for given in (None, pc):
        Jp_b, Jl_b = reprojection_jacobians(K, (R, t), points, pc=given)
        for i, pose in enumerate(poses):
            Jp, Jl = reprojection_jacobians(K, pose, points[i])
            np.testing.assert_allclose(Jp_b[i], Jp, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(Jl_b[i], Jl, rtol=1e-12, atol=1e-12)


def pixel_jacobians(K, p):
    """Reference pose and projection Jacobians, in pixels, of one
    camera-frame point p: Jpi [I | -skew(p)] and Jpi = d pi / d p."""
    x, y, z = p
    Jpi = np.array(
        [
            [K.fx / z, 0.0, -K.fx * x / (z * z)],
            [0.0, K.fy / z, -K.fy * y / (z * z)],
            [K.fx / z, 0.0, -K.fx * (x - K.b) / (z * z)],
        ]
    )
    return Jpi @ np.hstack([np.eye(3), -skew(p)]), Jpi


def test_row_kernel_in_pixels_matches_reference_and_differences():
    # the kernel works in normalized units: scaled back to pixels, its pose
    # rows (all, or a subset) and point rows are the reference Jacobians of
    # each point, and the pose rows are central differences of project
    rng = np.random.default_rng(404)
    n = 200
    poses = [random_pose(rng) for _ in range(n)]
    R = np.stack([p.R for p in poses])
    # wide angles and depths from 0.3 m to 60 m, a few far off the axis
    pc = np.column_stack(
        [rng.uniform(-8.0, 8.0, n), rng.uniform(-8.0, 8.0, n), rng.uniform(0.3, 60.0, n)]
    )
    inv_z, nc = normalized_coordinates(K, pc)
    rows = np.sort(rng.choice(n, 77, replace=False))
    Jp_all, Jl = reprojection_row_jacobians(inv_z, nc, R)
    Jp_rows, Jl_rows = reprojection_row_jacobians(inv_z, nc, R, rows)
    Jp_only, none = reprojection_row_jacobians(inv_z, nc)
    assert none is None and Jp_all.shape == (n, 3, 6) and Jp_rows.shape == (77, 3, 6)
    np.testing.assert_array_equal(Jp_rows, Jp_all[rows])
    np.testing.assert_array_equal(Jp_only, Jp_all)
    np.testing.assert_array_equal(Jl_rows, Jl)
    scale = K.scale[:, None]
    for i in range(n):
        ref_pose, Jpi = pixel_jacobians(K, pc[i])
        assert _rel_err(scale * Jp_all[i], ref_pose) <= 1e-13
        assert _rel_err(scale * Jl[i], Jpi @ R[i]) <= 1e-13
    # the public per-point form gives the same pixel rows
    Jp_pix, Jl_pix = reprojection_jacobians(K, (R, np.zeros((n, 3))), pc, pc=pc)
    np.testing.assert_allclose(Jp_pix, scale * Jp_all, rtol=0, atol=0)
    np.testing.assert_allclose(Jl_pix, scale * Jl, rtol=0, atol=0)
    worst = 0.0
    for i in rows[:40]:
        point = poses[i].inverse().R @ pc[i] + poses[i].inverse().t
        fd = _fd_pose_jacobian(
            K, poses[i], point, lambda T: project(K, transform_point(T, point))
        )
        worst = max(worst, _rel_err(scale * Jp_all[i], fd))
    assert worst <= 1e-5


# --- normal factor jacobians -----------------------------------------------


def test_normal_factor_batched_over_keyframes_matches_single_calls():
    rng = np.random.default_rng(2003)
    n_w = random_unit(rng) * 1.7
    normals = [random_unit(rng) for _ in range(5)]
    B = np.stack([make_tangent_basis(n) for n in normals])
    R = np.stack([random_pose(rng).R for _ in range(5)])
    r_b = normal_residual(B, R, n_w, np.stack(normals))
    J_phi_b, J_nw_b = normal_jacobian(B, R, n_w)
    assert r_b.shape == (5, 2) and J_phi_b.shape == J_nw_b.shape == (5, 2, 3)
    for k in range(5):
        J_phi, J_nw = normal_jacobian(B[k], R[k], n_w)
        np.testing.assert_allclose(
            r_b[k], normal_residual(B[k], R[k], n_w, normals[k]), rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(J_phi_b[k], J_phi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(J_nw_b[k], J_nw, rtol=0, atol=1e-15)
        # tracking forms J_phi alone; it must be the same numbers
        np.testing.assert_array_equal(normal_pose_jacobian(B[k], R[k], n_w), J_phi)
    np.testing.assert_array_equal(normal_pose_jacobian(B, R, n_w), J_phi_b)




def test_normal_jacobians_match_finite_differences():
    rng = np.random.default_rng(2002)
    worst_phi = worst_nw = 0.0
    for _ in range(1000):
        n_k = random_unit(rng)
        B = make_tangent_basis(n_k)
        R = random_pose(rng).R
        n_w = random_unit(rng) * rng.uniform(0.3, 3.0)
        J_phi, J_nw = normal_jacobian(B, R, n_w)

        fd_phi = np.zeros((2, 3))
        for i in range(3):
            dphi = np.zeros(3)
            dphi[i] = FD_STEP
            hi = normal_residual(B, so3_exp(dphi) @ R, n_w, n_k)
            lo = normal_residual(B, so3_exp(-dphi) @ R, n_w, n_k)
            fd_phi[:, i] = (hi - lo) / (2.0 * FD_STEP)
        worst_phi = max(worst_phi, _rel_err(J_phi, fd_phi))

        fd_nw = np.zeros((2, 3))
        for i in range(3):
            dn = np.zeros(3)
            dn[i] = FD_STEP
            hi = normal_residual(B, R, n_w + dn, n_k)
            lo = normal_residual(B, R, n_w - dn, n_k)
            fd_nw[:, i] = (hi - lo) / (2.0 * FD_STEP)
        worst_nw = max(worst_nw, _rel_err(J_nw, fd_nw))
    assert worst_phi <= 1e-5
    assert worst_nw <= 1e-5


def test_normal_jacobian_nw_rank_two_at_alignment():
    n_k = np.array([0.0, 0.0, -1.0])
    B = make_tangent_basis(n_k)
    _, J_nw = normal_jacobian(B, np.eye(3), np.array([0.0, 0.0, -1.5]))
    s = np.linalg.svd(J_nw, compute_uv=False)
    assert s[1] > 1e-9  # two useful directions
    # radial direction of n_w is in the null space
    np.testing.assert_allclose(J_nw @ np.array([0.0, 0.0, -1.5]), 0.0, atol=1e-12)
