from __future__ import annotations

import copy
import logging
import math
import re
import warnings

import numpy as np
import pytest

from normalvo import estimator
from normalvo.estimator import (
    FrameData,
    MapState,
    SolverConfig,
    SolverDiverged,
    TrackingLost,
    TrackResult,
    _ba_assemble,
    _ba_linearize,
    _ba_solve,
    _BAProblem,
    _predicted_decrease,
    constant_velocity_init,
    cull_landmarks,
    insert_keyframe,
    local_bundle_adjustment,
    map_cost,
    reject_outliers,
    run_sequence,
    select_keyframe,
    track_frame,
)
from normalvo.evaluation import ate
from normalvo.factors import (
    RobustLossConfig,
    huber,
    make_tangent_basis,
    normal_jacobian,
    normal_pose_jacobian,
    normal_residual,
    reprojection_jacobians,
)
from normalvo.geometry import (
    Intrinsics,
    PoseSE3,
    project,
    se3_exp,
    so3_exp,
    update_poses,
)
from normalvo.simulator import SceneConfig, generate_sequence
from pose_reference import transform_point

K = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, b=0.2)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def scatter_points(rng, n):
    """World points 4-8 m ahead of an identity camera, well inside the view."""
    return np.column_stack(
        [
            rng.uniform(-2.5, 2.5, n),
            rng.uniform(-1.8, 1.8, n),
            rng.uniform(4.0, 8.0, n),
        ]
    )


def landmark_map(points, config=None):
    ms = MapState(K, config or SolverConfig())
    ms.add_landmarks(np.arange(len(points)), points)
    return ms


def landmark_row(ms, lm_id):
    """Row of mapped landmark ``lm_id`` in the landmark arrays."""
    (row,) = ms.landmark_rows([lm_id])
    assert row >= 0, f"landmark {lm_id} is not mapped"
    return int(row)


def position(ms, lm_id):
    return ms.lm_pos[landmark_row(ms, lm_id)]


def frame_at(pose_w2c, points, frame_id=0, normal=None):
    """Exact stereo measurements of world points seen from a given pose."""
    meas = project(K, points @ pose_w2c.R.T + pose_w2c.t)
    return FrameData(
        frame_id=frame_id,
        timestamp=float(frame_id),
        landmark_ids=np.arange(len(points)),
        measurements=meas,
        frame_normal=normal,
    )


SECOND_TWIST = np.array([0.35, 0.05, 0.0, 0.0, 0.04, 0.0])


def two_keyframe_map(config, *, n=40, seed=3, with_normal=False, pixel_noise=0.0):
    """Hand-built two-keyframe map with exact (optionally noised) observations.

    The world frame is the first camera; the second pose is a fixed twist away.
    Returns (map_state, true points, [w2c pose0, w2c pose1]).
    """
    rng = np.random.default_rng(seed)
    points = scatter_points(rng, n)
    pose0 = PoseSE3.identity()
    pose1 = se3_exp(SECOND_TWIST)
    n_w = unit([0.05, -0.03, -1.0]) if with_normal else None
    ms = MapState(K, config)
    for kf_id, pose in enumerate([pose0, pose1]):
        normal = None if n_w is None else pose.R @ n_w
        basis = None if normal is None else make_tangent_basis(normal)
        ms.add_keyframe(kf_id, pose, normal, basis)
    if n_w is not None:
        ms.world_normal = n_w.copy()
    ms.add_landmarks(np.arange(n), points)
    meas = np.zeros((2, n, 3))
    for i, p in enumerate(points):
        for kf_id, pose in enumerate([pose0, pose1]):
            meas[kf_id, i] = project(K, pose.R @ p + pose.t)
            if pixel_noise:
                meas[kf_id, i] += rng.normal(0.0, pixel_noise, 3)
    for kf_id in range(2):
        ms.add_observations(kf_id, np.arange(n), meas[kf_id])
    ms.reference_inliers = n
    return ms, points, [pose0, pose1]


def obs_row(ms, kf_id, lm_id):
    """Id of the live observation of landmark ``lm_id`` from ``kf_id``."""
    (row,) = np.flatnonzero((ms.obs_kf == kf_id) & (ms.obs_lm == lm_id))
    return int(row)


def observers(ms, lm_id):
    """Keyframes holding a live observation of landmark ``lm_id``."""
    return set(ms.obs_kf[(ms.obs_lm == lm_id) & (ms.obs_kf >= 0)].tolist())


def brute_force_covisibility(ms):
    """Shared-landmark counts recounted pair by pair from the live rows:
    {keyframe: {other keyframe: count}}, zero counts left out."""
    kfs_of = {}
    for row in range(ms.obs_kf.size):
        if ms.obs_kf[row] >= 0:
            kfs_of.setdefault(int(ms.obs_lm[row]), []).append(int(ms.obs_kf[row]))
    counts = {}
    for kfs in kfs_of.values():
        for a in kfs:
            for b in kfs:
                if a != b:
                    counts.setdefault(a, {}).setdefault(b, 0)
                    counts[a][b] += 1
    return counts


def assert_map_consistent(ms, min_shared=1):
    """covisibility and covisible_keyframes agree with the brute-force
    recount; a landmark is mapped iff it has a live observation; landmark
    ids ascend strictly, and their position, miss and live-observation
    count rows line up with them, the counts equal to a recount."""
    fresh = brute_force_covisibility(ms)
    for k in range(len(ms.keyframes)):
        edges = fresh.get(k, {})
        expected = np.zeros(len(ms.keyframes), dtype=int)
        for j, c in edges.items():
            expected[j] = c
        np.testing.assert_array_equal(ms.covisibility(k), expected)
        assert ms.covisible_keyframes(k, min_shared) == sorted(
            (j for j, c in edges.items() if c >= min_shared),
            key=lambda j: (-edges[j], j),
        )
    recount = {}
    for row in range(ms.obs_kf.size):
        if ms.obs_kf[row] >= 0:
            lm_id = int(ms.obs_lm[row])
            recount[lm_id] = recount.get(lm_id, 0) + 1
    assert ms.landmarks.tolist() == sorted(recount)
    assert np.all(np.diff(ms.landmarks) > 0)
    n = ms.landmarks.size
    assert ms.lm_pos.shape == (n, 3)
    assert ms.lm_misses.shape == (n,)


# --- frame input -------------------------------------------------------------


MALFORMED_FRAMES = [
    pytest.param(dict(measurements=np.zeros((3, 3))), "shape", id="short-meas"),
    pytest.param(dict(landmark_ids=[0, 1, 1, 2]), "twice", id="repeated-id"),
    pytest.param(
        dict(measurements=np.full((4, 3), np.nan)), "finite", id="nan-measurement"
    ),
    pytest.param(dict(frame_normal=[0.0, 0.0, 2.0]), "unit", id="non-unit-normal"),
    pytest.param(dict(frame_normal=[0.0, 1.0]), "shape", id="short-normal"),
    pytest.param(
        dict(landmark_ids=np.arange(4).reshape(4, 1)), "one-dimensional", id="2d-ids"
    ),
    pytest.param(
        dict(landmark_ids=[0.0, 1.7, 2.0, 3.0]), "integers", id="fractional-id"
    ),
]


@pytest.mark.parametrize("edit, message", MALFORMED_FRAMES)
def test_frame_data_rejects_malformed_input(edit, message):
    fields = dict(
        frame_id=0,
        timestamp=0.0,
        landmark_ids=np.arange(4),
        measurements=np.tile([330.0, 240.0, 310.0], (4, 1)),
        frame_normal=None,
    )
    FrameData(**fields)
    fields.update(edit)
    with pytest.raises(ValueError, match=message):
        FrameData(**fields)


def test_frame_data_accepts_whole_float_ids_as_integers():
    frame = FrameData(0, 0.0, [0.0, 3.0], np.tile([330.0, 240.0, 310.0], (2, 1)))
    assert frame.landmark_ids.dtype.kind == "i"
    assert frame.landmark_ids.tolist() == [0, 3]


# --- motion model ------------------------------------------------------------


def test_motion_model_without_history_is_identity():
    R, t = constant_velocity_init()
    assert np.array_equal(R, np.eye(3))
    assert np.array_equal(t, np.zeros(3))


def test_motion_model_with_single_pose_holds_it():
    prev = se3_exp(np.array([0.1, 0.2, -0.3, 0.02, -0.01, 0.03]))
    R, t = constant_velocity_init(prev)
    np.testing.assert_array_equal(R, prev.R)
    np.testing.assert_array_equal(t, prev.t)


def test_motion_model_extrapolates_constant_twist():
    a = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.02, -0.015]))
    step = se3_exp(np.array([0.24, 0.0, 0.0, 0.0, 0.0, 0.03]))
    b = step.compose(a)
    R, t = constant_velocity_init(b, a)
    expect = step.compose(b)
    np.testing.assert_allclose(R, expect.R, rtol=0, atol=1e-12)
    np.testing.assert_allclose(t, expect.t, rtol=0, atol=1e-12)


def test_motion_model_builds_no_pose(monkeypatch):
    a = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.02, -0.015]))
    b = se3_exp(np.array([0.24, 0.0, 0.0, 0.0, 0.0, 0.03])).compose(a)
    built = []
    original = PoseSE3.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PoseSE3, "__post_init__", counting)
    constant_velocity_init(b, a)
    assert built == []


def test_motion_model_keeps_rotation_orthonormal_over_long_recursions():
    """pose -> extrapolation -> pose doubles orthonormality error per step
    unless the rotation is projected back onto SO(3); run the recursion long
    enough that an unprojected implementation would have blown past the
    constructor's validity gate."""
    rng = np.random.default_rng(4)
    a = se3_exp(rng.normal(size=6) * 0.1)
    b = se3_exp(rng.normal(size=6) * 0.1)
    for _ in range(400):
        a, b = b, PoseSE3(*constant_velocity_init(b, a))
    assert np.max(np.abs(b.R @ b.R.T - np.eye(3))) <= 1e-12


# --- tracking ----------------------------------------------------------------


def test_track_recovers_exact_pose_from_perturbed_start():
    config = SolverConfig()
    rng = np.random.default_rng(7)
    points = scatter_points(rng, 60)
    ms = landmark_map(points, config)
    c2w = se3_exp(np.array([0.1, -0.05, 0.2, 0.03, -0.02, 0.01]))
    w2c = c2w.inverse()
    frame = frame_at(w2c, points, frame_id=5)
    twist = rng.normal(size=6)
    twist *= 0.05 / np.linalg.norm(twist)
    init = se3_exp(twist).compose(w2c)

    result = track_frame(ms, frame, config, prev_pose=init)

    np.testing.assert_allclose(result.R, w2c.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.t, w2c.t, rtol=0, atol=1e-6)
    assert result.matched == 60
    assert result.inlier_ids.size == 60
    assert result.outlier_ids.size == 0
    assert result.cost <= 1e-10


def test_track_first_frame_without_history_stays_at_identity():
    # measurements generated at the identity: the zero step must be taken
    # verbatim, leaving the initial pose bit-identical
    config = SolverConfig()
    rng = np.random.default_rng(2)
    points = scatter_points(rng, 40)
    ms = landmark_map(points, config)
    frame = frame_at(PoseSE3.identity(), points)
    result = track_frame(ms, frame, config)
    assert np.array_equal(result.R, np.eye(3))
    assert np.array_equal(result.t, np.zeros(3))
    assert result.inlier_ids.size == 40


def test_track_needs_minimum_mapped_observations():
    config = SolverConfig()
    rng = np.random.default_rng(5)
    points = scatter_points(rng, 5)
    ms = landmark_map(points, config)
    frame = frame_at(PoseSE3.identity(), points, frame_id=17)
    with pytest.raises(TrackingLost, match="mapped observations") as exc:
        track_frame(ms, frame, config)
    assert exc.value.frame_id == 17


def test_track_low_inlier_fraction_raises():
    config = SolverConfig()
    rng = np.random.default_rng(6)
    points = scatter_points(rng, 60)
    ms = landmark_map(points, config)
    pose = se3_exp(np.array([0.2, -0.1, 0.1, 0.02, 0.01, -0.03]))
    meas = project(K, points @ pose.R.T + pose.t)
    bad = rng.choice(60, size=36, replace=False)
    offsets = rng.normal(size=(36, 3))
    offsets = 80.0 * offsets / np.linalg.norm(offsets, axis=1, keepdims=True)
    meas[bad] += offsets
    frame = FrameData(0, 0.0, np.arange(60), meas)
    with pytest.raises(TrackingLost, match="inlier fraction"):
        track_frame(ms, frame, config, prev_pose=pose)


def test_track_init_behind_camera_raises():
    config = SolverConfig()
    rng = np.random.default_rng(3)
    points = scatter_points(rng, 20)
    ms = landmark_map(points, config)
    frame = frame_at(PoseSE3.identity(), points)
    flipped = PoseSE3(so3_exp(np.array([math.pi, 0.0, 0.0])), np.zeros(3))
    with pytest.raises(TrackingLost, match="behind camera"):
        track_frame(ms, frame, config, prev_pose=flipped)


def test_track_partitions_inliers_and_outliers():
    config = SolverConfig()
    rng = np.random.default_rng(21)
    points = scatter_points(rng, 30)
    ms = landmark_map(points, config)
    w2c = se3_exp(np.array([0.05, 0.02, -0.1, 0.01, 0.0, 0.02]))
    meas = project(K, points @ w2c.R.T + w2c.t)
    corrupted = [3, 11, 19]
    meas[3, 1] += 50.0
    meas[11, 1] -= 50.0
    meas[19, 0] += 50.0
    frame = FrameData(0, 0.0, np.arange(30), meas)

    result = track_frame(ms, frame, config, prev_pose=w2c)

    assert sorted(result.outlier_ids.tolist()) == corrupted
    assert sorted(result.inlier_ids.tolist()) == sorted(
        set(range(30)) - set(corrupted)
    )
    assert result.matched == 30
    # the outliers stay in the robust sum, so the minimum sits near, not at,
    # the true pose; only the classification must be exact
    np.testing.assert_allclose(result.t, w2c.t, rtol=0, atol=0.02)


def test_track_with_consistent_normal_still_exact():
    """An exactly consistent frame normal must not bias the pose estimate."""
    config = SolverConfig()
    rng = np.random.default_rng(30)
    points = scatter_points(rng, 50)
    ms = landmark_map(points, config)
    n_w = unit([0.1, -0.2, -0.97])
    ms.world_normal = n_w
    w2c = se3_exp(np.array([-0.1, 0.05, 0.15, 0.02, -0.03, 0.01]))
    frame = frame_at(w2c, points, normal=w2c.R @ n_w)
    twist = rng.normal(size=6)
    twist *= 0.05 / np.linalg.norm(twist)
    init = se3_exp(twist).compose(w2c)

    result = track_frame(ms, frame, config, prev_pose=init)

    np.testing.assert_allclose(result.R, w2c.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.t, w2c.t, rtol=0, atol=1e-6)
    assert result.cost <= 1e-10


def test_track_tolerates_missing_frame_normal():
    config = SolverConfig()
    rng = np.random.default_rng(31)
    points = scatter_points(rng, 40)
    ms = landmark_map(points, config)
    ms.world_normal = unit([0.0, 0.0, -1.0])
    w2c = se3_exp(np.array([0.1, 0.0, 0.05, 0.0, 0.01, 0.0]))
    frame = frame_at(w2c, points)  # no frame normal attached
    result = track_frame(ms, frame, config, prev_pose=w2c)
    np.testing.assert_allclose(result.t, w2c.t, rtol=0, atol=1e-8)


def reference_track_frame(map_state, frame, config, prev_pose, prev_prev_pose):
    """Tracking as the package computed it while it held its pose as a
    one-row stack: every evaluation gathers the pose once per point, the
    pose Jacobian comes from reprojection_jacobians (its point Jacobian
    discarded), and the pose is updated as a (1, 3, 3), (1, 3) stack. It
    stops before a trial step whose model decrease -2 g^T h - h^T H h falls
    below cost_tolerance times the cost.
    Returns (pose, inlier ids, outlier ids, cost) or raises TrackingLost."""
    Kc = map_state.intrinsics
    lm_rows = map_state.landmark_rows(frame.landmark_ids)
    mask = lm_rows >= 0
    matched_ids = frame.landmark_ids[mask]
    if matched_ids.size < config.min_track_observations:
        raise TrackingLost(frame.frame_id, "too few mapped observations")
    points = map_state.lm_pos[lm_rows[mask]]
    measured = frame.measurements[mask]
    rows = np.zeros(matched_ids.size, dtype=int)
    n_w = map_state.world_normal
    sqrt_lam = math.sqrt(config.loss.normal_weight)
    use_normal = (
        config.normal_in_tracking
        and config.loss.normal_weight > 0.0
        and n_w is not None
        and frame.frame_normal is not None
    )

    def evaluate(R, t):
        pc = np.einsum("nij,nj->ni", R[rows], points) + t[rows]
        front = pc[:, 2] > 0.0
        r = (project(Kc, np.where(front[:, None], pc, 1.0)) - measured) / config.sigma_px
        r[~front] = np.inf
        sq = np.einsum("ij,ij->i", r, r)
        rho, w = huber(np.sqrt(sq), config.loss.huber_delta_repro)
        cost = float(np.sum(rho))
        rn = wn = None
        if use_normal:
            rn = sqrt_lam * normal_residual(
                frame.tangent_basis[None], R[rows[:1]], n_w, frame.frame_normal[None]
            )
            rho_n, wn = huber(
                np.sqrt(np.einsum("ij,ij->i", rn, rn)), config.loss.huber_delta_normal
            )
            cost += float(np.sum(rho_n))
        return pc, r, sq, w, rn, wn, cost

    R, t = constant_velocity_init(prev_pose, prev_prev_pose)
    R, t = R[None], t[None]
    pc, r, sq, w, rn, wn, cost = evaluate(R, t)
    if not np.isfinite(cost):
        raise TrackingLost(frame.frame_id, "initial pose puts landmarks behind camera")
    lam = config.initial_damping
    for _ in range(config.max_iterations):
        Jp, _ = reprojection_jacobians(Kc, (R[0], t[0]), points, pc=pc)
        Jp = Jp.reshape(-1, 6) / config.sigma_px
        wJp = np.repeat(w, 3)[:, None] * Jp
        H = Jp.T @ wJp
        g = wJp.T @ r.ravel()
        if use_normal:
            J_phi = sqrt_lam * normal_jacobian(frame.tangent_basis, R[0], n_w)[0]
            H[3:, 3:] += wn[0] * J_phi.T @ J_phi
            g[3:] += wn[0] * J_phi.T @ rn[0]
        accepted = converged = False
        while lam <= config.damping_ceiling:
            damped = H + lam * np.diag(np.diag(H))
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= config.damping_increase
                continue
            if not np.all(np.isfinite(step)):
                lam *= config.damping_increase
                continue
            if np.linalg.norm(step) < config.step_tolerance:
                converged = True
                break
            if -2.0 * g @ step - step @ H @ step < config.cost_tolerance * cost:
                converged = True
                break
            new_R, new_t = update_poses(step[None], R, t)
            trial = evaluate(new_R, new_t)
            if trial[-1] < cost:
                rel = (cost - trial[-1]) / max(cost, 1e-300)
                R, t = new_R, new_t
                pc, r, sq, w, rn, wn, cost = trial
                lam = max(lam / config.damping_decrease, 1e-12)
                accepted = True
                converged = rel < config.cost_tolerance
                break
            lam *= config.damping_increase
        if converged or not accepted:
            break
    inliers = sq <= config.chi2_threshold
    n_inliers = int(np.count_nonzero(inliers))
    if n_inliers < max(
        config.min_track_observations, config.min_inlier_fraction * matched_ids.size
    ):
        raise TrackingLost(frame.frame_id, "too few inliers")
    return PoseSE3(R[0], t[0]), matched_ids[inliers], matched_ids[~inliers], cost


def test_track_frame_matches_reference_tracker_on_noisy_strip(monkeypatch):
    # every tracking attempt of a run over a noisy strip with 20% outliers
    # and the normal factor on is repeated with the reference tracker
    seq = generate_sequence(small_scene(outlier_rate=0.2))
    config = SolverConfig()
    compared = []
    original = estimator.track_frame

    def both(map_state, frame, config, prev_pose=None, prev_prev_pose=None):
        try:
            expected = reference_track_frame(
                map_state, frame, config, prev_pose, prev_prev_pose
            )
        except TrackingLost:
            expected = None
        try:
            result = original(map_state, frame, config, prev_pose, prev_prev_pose)
        except TrackingLost:
            assert expected is None
            raise
        assert expected is not None
        pose, inlier_ids, outlier_ids, cost = expected
        np.testing.assert_array_equal(result.inlier_ids, inlier_ids)
        np.testing.assert_array_equal(result.outlier_ids, outlier_ids)
        np.testing.assert_allclose(result.R, pose.R, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.t, pose.t, rtol=0, atol=1e-9)
        assert result.cost == pytest.approx(cost, rel=1e-12)
        compared.append((outlier_ids.size, frame.frame_normal is not None))
        return result

    monkeypatch.setattr(estimator, "track_frame", both)
    run_sequence(seq.frames, seq.intrinsics, config)

    assert len(compared) == len(seq.frames) - 1
    assert sum(n for n, _ in compared) >= len(compared)  # outliers were met
    assert all(has_normal for _, has_normal in compared)


def test_track_retry_from_the_previous_pose_matches_reference_tracker(monkeypatch):
    # run_sequence retries a frame that failed to track from the previous
    # pose alone: at frame 20 of a noisy run the first attempt starts from a
    # motion history that extrapolates the camera 1 km forward, past every
    # landmark, and must raise with its message under warnings as errors; the
    # retry is repeated with the reference tracker
    seq = generate_sequence(small_scene(outlier_rate=0.2))
    config = SolverConfig()
    original = estimator.track_frame
    attempts = []

    def tampered(map_state, frame, config, prev_pose=None, prev_prev_pose=None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if frame.frame_id != 20:
                return original(map_state, frame, config, prev_pose, prev_prev_pose)
            attempts.append(prev_prev_pose)
            if prev_prev_pose is not None:
                far = PoseSE3(prev_pose.R, prev_pose.t + np.array([0.0, 0.0, 1000.0]))
                with pytest.raises(TrackingLost) as lost:
                    reference_track_frame(map_state, frame, config, prev_pose, far)
                assert lost.value.reason == "initial pose puts landmarks behind camera"
                with pytest.raises(TrackingLost) as lost:
                    original(map_state, frame, config, prev_pose, far)
                assert lost.value.frame_id == 20
                assert lost.value.reason == "initial pose puts landmarks behind camera"
                raise lost.value
            pose, inlier_ids, outlier_ids, cost = reference_track_frame(
                map_state, frame, config, prev_pose, None
            )
            result = original(map_state, frame, config, prev_pose, None)
        np.testing.assert_array_equal(result.inlier_ids, inlier_ids)
        np.testing.assert_array_equal(result.outlier_ids, outlier_ids)
        np.testing.assert_allclose(result.R, pose.R, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.t, pose.t, rtol=0, atol=1e-9)
        assert result.cost == pytest.approx(cost, rel=1e-12)
        return result

    monkeypatch.setattr(estimator, "track_frame", tampered)
    result = run_sequence(seq.frames, seq.intrinsics, config)

    assert len(attempts) == 2 and attempts[0] is not None and attempts[1] is None
    assert result.records[20].inliers > 0  # the retry tracked, it did not coast


def test_tracker_normal_row_matches_the_batched_factor():
    # a tracked frame's one normal row is formed in 3-vector floats; the
    # batched factor that bundle adjustment uses is the reference for the
    # weighted residual, its Huber cost and weight and the rotation
    # Jacobian, on both branches of the tangent basis and of the Huber loss
    config = SolverConfig()
    sqrt_w = math.sqrt(config.loss.normal_weight)
    delta = config.loss.huber_delta_normal
    no_rows = np.zeros((0, 3))  # no reprojection rows: the cost is the normal row's
    rng = np.random.default_rng(23)
    branches, knees = set(), set()
    for _ in range(300):
        n_hat = unit(rng.normal(size=3))
        R = so3_exp(rng.normal(size=3))
        # frame normals from exactly consistent to far off the rotated one
        n_k = unit(R @ n_hat + rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 0.0))
        basis = make_tangent_basis(n_k)
        normal = (sqrt_w, n_hat, basis.tolist(), n_k.tolist())
        state = estimator._track_evaluate(K, config, no_rows, no_rows, normal, R, np.zeros(3))
        cost, (rn, wn, J_phi) = state[0], state[-1]
        factor = estimator._normal_rows(config, basis[None], n_k[None], 0)
        batched = estimator._evaluate(K, config, no_rows, no_rows, (R[None],) + factor, n_hat)

        ref = sqrt_w * normal_residual(basis, R, n_hat, n_k)
        ref_rho, ref_w = huber(np.linalg.norm(ref), delta)
        np.testing.assert_allclose(rn, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rn, batched.rn[0], rtol=0, atol=1e-12)
        assert cost == pytest.approx(ref_rho, rel=1e-12, abs=1e-12)
        assert cost == pytest.approx(batched.cost, rel=1e-12, abs=1e-12)
        assert wn == pytest.approx(ref_w, rel=1e-12)
        assert wn == pytest.approx(batched.wn[0], rel=1e-12)
        ref_J = sqrt_w * normal_pose_jacobian(basis, R, n_hat)
        np.testing.assert_allclose(J_phi, ref_J, rtol=0, atol=1e-12)
        # the rotation Jacobian against central differences of the residual
        # under a left-multiplied rotation
        eps = 1e-6
        fd = np.column_stack(
            [
                normal_residual(basis, so3_exp(eps * e) @ R, n_hat, n_k)
                - normal_residual(basis, so3_exp(-eps * e) @ R, n_hat, n_k)
                for e in np.eye(3)
            ]
        ) * (sqrt_w / (2.0 * eps))
        np.testing.assert_allclose(J_phi, fd, rtol=0, atol=1e-6)
        branches.add(abs(n_k[0]) > 0.9)
        knees.add(wn < 1.0)
    assert branches == {True, False}
    assert knees == {True, False}


def test_track_reads_the_world_normal_as_a_direction():
    # a world normal of norm 3.7 tracks a frame as its unit direction does,
    # and as the reference tracker, whose batched factor normalizes it
    config = SolverConfig()
    rng = np.random.default_rng(32)
    points = scatter_points(rng, 50)
    n_w = unit([0.1, -0.2, -0.97])
    w2c = se3_exp(np.array([-0.1, 0.05, 0.15, 0.02, -0.03, 0.01]))
    meas = project(K, points @ w2c.R.T + w2c.t) + rng.normal(0.0, 0.5, (50, 3))
    # a frame normal 1.3 degrees off the true one, so the normal row pulls
    normal = unit(w2c.R @ n_w + np.array([0.02, -0.01, 0.0]))
    frame = FrameData(1, 1.0, np.arange(50), meas, normal)
    init = se3_exp(np.array([0.01, -0.02, 0.0, 0.005, 0.0, -0.004])).compose(w2c)
    results = []
    for scale in (1.0, 3.7):
        ms = landmark_map(points, config)
        ms.world_normal = scale * n_w
        results.append(track_frame(ms, frame, config, prev_pose=init))
        pose, inlier_ids, _, cost = reference_track_frame(ms, frame, config, init, None)
        np.testing.assert_array_equal(results[-1].inlier_ids, inlier_ids)
        np.testing.assert_allclose(results[-1].R, pose.R, rtol=0, atol=1e-9)
        np.testing.assert_allclose(results[-1].t, pose.t, rtol=0, atol=1e-9)
        assert results[-1].cost == pytest.approx(cost, rel=1e-12)
    np.testing.assert_allclose(results[1].R, results[0].R, rtol=0, atol=1e-12)
    np.testing.assert_allclose(results[1].t, results[0].t, rtol=0, atol=1e-12)
    assert results[1].cost == pytest.approx(results[0].cost, rel=1e-12)


def test_evaluate_residuals_match_project_and_read_inf_behind_the_camera():
    # the evaluator builds its residuals from normalized coordinates; they
    # are project's to rounding, and a row on or behind the camera's plane
    # reads inf without a warning
    config = SolverConfig()
    rng = np.random.default_rng(61)
    pc = np.column_stack(
        [rng.uniform(-9.0, 9.0, 60), rng.uniform(-6.0, 6.0, 60), rng.uniform(0.3, 40.0, 60)]
    )
    pc[[5, 17, 40], 2] = (0.0, -0.2, -30.0)
    measured = rng.uniform(-200.0, 900.0, (60, 3))
    front = pc[:, 2] > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = estimator._evaluate(K, config, pc, measured)
        whole = estimator._evaluate(K, config, pc[front], measured[front])
    expected = (project(K, pc[front]) - measured[front]) / config.sigma_px
    for got in (ev.r[front], whole.r):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert np.all(np.isinf(ev.r[~front])) and np.all(np.isinf(ev.sq[~front]))
    assert np.all(ev.w[~front] == 0.0) and ev.cost == np.inf
    assert np.isfinite(whole.cost)
    # the coordinates the linearization reads
    np.testing.assert_array_equal(ev.inv_z[front], 1.0 / pc[front, 2])
    pixels = ev.nc[front] * K.scale + K.offset
    np.testing.assert_allclose(pixels, project(K, pc[front]), rtol=1e-14, atol=1e-12)


@pytest.mark.parametrize("normal_in_tracking", [True, False])
def test_tracking_normal_equations_match_the_dense_product(
    monkeypatch, normal_in_tracking
):
    # at every linearization of a noisy run, tracking's H and g, with the
    # pixel scale folded into the weights and the normal row pre-accumulated,
    # are J^T W J and J^T W r of the dense whitened pixel Jacobian
    seq = generate_sequence(small_scene(outlier_rate=0.2, trajectory_length=1.5))
    config = SolverConfig(normal_in_tracking=normal_in_tracking)
    K_run = seq.intrinsics
    evaluations = []
    original_evaluate = estimator._track_evaluate
    original_step = estimator._damped_step
    original_solve = np.linalg.solve
    checked = []

    def recording_evaluate(K, config, points, measured, normal, R, t):
        state = original_evaluate(K, config, points, measured, normal, R, t)
        # the state's cost, its camera-frame points, weights, residuals and row
        evaluations.append((state[0], points @ R.T + t, state[7], state[6], state[8]))
        return state

    def checking_step(config, lam, cost, g, d, solve, trial):
        if np.ndim(g) == 1 and g.size == 6:  # a tracking step, not BA's
            systems = []

            def capture(a, b):
                systems.append(np.array(a))
                return original_solve(a, b)

            monkeypatch.setattr(np.linalg, "solve", capture)
            solve(0.0)  # the undamped system is H itself
            monkeypatch.setattr(np.linalg, "solve", original_solve)
            H = systems[0]
            _, pc, w, r, row = next(e for e in reversed(evaluations) if e[0] == cost)
            Jp, _ = reprojection_jacobians(K_run, (np.eye(3), np.zeros(3)), pc, pc=pc)
            J = Jp.reshape(-1, 6) / config.sigma_px
            W = np.repeat(w, 3)[:, None]
            r = r.reshape(-1, 1)
            if row is not None:  # the normal row, on the rotation columns
                rn, wn, J_phi = row
                Jn = np.zeros((2, 6))
                Jn[:, 3:] = J_phi
                J = np.vstack([J, Jn])
                W = np.vstack([W, [[wn], [wn]]])
                r = np.vstack([r, np.reshape(rn, (2, 1))])
            H_ref, g_ref = J.T @ (W * J), (J.T @ (W * r))[:, 0]
            # relative to the size of the summed terms, which can cancel
            H_tol = 1e-12 * (np.abs(J).T @ (W * np.abs(J)))
            g_tol = 1e-12 * (np.abs(J).T @ (W * np.abs(r)))[:, 0]
            assert np.all(np.abs(H - H_ref) <= H_tol)
            assert np.all(np.abs(g - g_ref) <= g_tol)
            np.testing.assert_array_equal(d, H.diagonal())
            checked.append(row is not None)
        return original_step(config, lam, cost, g, d, solve, trial)

    monkeypatch.setattr(estimator, "_track_evaluate", recording_evaluate)
    monkeypatch.setattr(estimator, "_damped_step", checking_step)
    run_sequence(seq.frames, seq.intrinsics, config)
    assert len(checked) >= 2 * (len(seq.frames) - 1)
    assert all(has_row == normal_in_tracking for has_row in checked)


def test_track_trial_step_past_a_close_landmark_is_rejected(monkeypatch):
    """A landmark 0.5 m ahead of the start pose and a camera whose true pose
    is 1 m further forward: the first, nearly undamped, step carries the
    camera past the landmark. That trial must cost inf and raise the
    damping; the solve ends in a pose or in TrackingLost."""
    config = SolverConfig()
    rng = np.random.default_rng(41)
    far = scatter_points(rng, 30) + np.array([0.0, 0.0, 4.0])
    close = np.array([[0.1, 0.05, 0.5]])
    ms = landmark_map(np.vstack([far, close]), config)
    true = PoseSE3(np.eye(3), np.array([0.0, 0.0, -1.0]))  # camera at z = 1 m
    meas = np.vstack(
        [
            project(K, far @ true.R.T + true.t),
            # measured as a gross outlier, so Huber all but ignores it
            project(K, close) + np.array([300.0, 200.0, 300.0]),
        ]
    )
    frame = FrameData(1, 1.0, np.arange(31), meas)

    costs, damped = [], []
    original_evaluate = estimator._track_evaluate
    original_solve = np.linalg.solve

    def recording_evaluate(*args):
        state = original_evaluate(*args)
        costs.append(state[0])
        return state

    def recording_solve(a, b):
        damped.append(np.array(a))
        return original_solve(a, b)

    monkeypatch.setattr(estimator, "_track_evaluate", recording_evaluate)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = track_frame(ms, frame, config, prev_pose=PoseSE3.identity())
        except TrackingLost:
            result = None

    assert np.isfinite(costs[0])  # the start pose sees every landmark
    assert costs[1] == np.inf  # the first trial passed the close landmark
    # the retry solves the same linearization with a larger damping: equal
    # off-diagonal terms, a larger diagonal
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_array_equal(damped[1][off], damped[0][off])
    assert np.all(np.diag(damped[1]) > np.diag(damped[0]))
    if result is not None:
        assert (result.R @ close[0] + result.t)[2] > 0.0


def test_predicted_decrease_equals_the_model_decrease():
    # for h solving (H + lam diag(H)) h = -g, lam h^T D h - g^T h is the
    # Gauss-Newton model's decrease -2 g^T h - h^T H h
    rng = np.random.default_rng(5)
    for n in (6, 9, 30):
        for lam in (0.0, 1e-6, 1e-4, 0.3, 10.0, 1e4):
            A = rng.normal(size=(n, n))
            H = A @ A.T + n * np.eye(n)
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 4)
            d = np.diag(H)
            h = np.linalg.solve(H + lam * np.diag(d), -g)
            model = -2.0 * g @ h - h @ H @ h
            assert model > 0.0
            assert _predicted_decrease(g, d, h, lam) == pytest.approx(model, rel=1e-12)


@pytest.mark.parametrize("outlier_rate", [0.05, 0.2])
def test_default_stopping_rule_halves_the_evaluations(monkeypatch, outlier_rate):
    # the default stops tracking and bundle adjustment once the model cannot
    # gain a relevant digit; a tenth-digit tolerance may not track better
    seq = generate_sequence(small_scene(outlier_rate=outlier_rate))
    calls = []

    def counting(original):
        def counted(*args, **kwargs):
            calls[-1] += 1
            return original(*args, **kwargs)

        return counted

    # bundle adjustment's evaluations and tracking's
    for name in ("_evaluate", "_track_evaluate"):
        monkeypatch.setattr(estimator, name, counting(getattr(estimator, name)))
    errors = []
    for config in (SolverConfig(cost_tolerance=1e-10), SolverConfig()):
        calls.append(0)
        result = run_sequence(seq.frames, seq.intrinsics, config)
        errors.append(ate(result.trajectory, seq.ground_truth).rmse)
    assert calls[1] <= 0.6 * calls[0]
    assert errors[1] <= 1.1 * errors[0]


def test_track_at_the_damping_ceiling_keeps_its_start_pose(monkeypatch):
    # every damped solve returns a non-finite step: the damping climbs to its
    # ceiling and tracking ends at the pose it started from
    config = SolverConfig()
    rng = np.random.default_rng(17)
    points = scatter_points(rng, 40)
    ms = landmark_map(points, config)
    w2c = se3_exp(np.array([0.1, 0.0, 0.05, 0.0, 0.01, 0.0]))
    frame = frame_at(w2c, points, frame_id=3)
    tried = []

    def non_finite(a, b):
        tried.append(a)
        return np.full(np.shape(b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", non_finite)
    result = track_frame(ms, frame, config, prev_pose=w2c)

    # one solve per damping value from initial_damping up to the ceiling
    steps = math.log10(config.damping_ceiling / config.initial_damping)
    assert len(tried) == round(steps) + 1
    np.testing.assert_array_equal(result.R, w2c.R)
    np.testing.assert_array_equal(result.t, w2c.t)
    assert result.inlier_ids.size == 40

    # from a start far off the frame's pose, the same solve fails the inlier
    # floor instead
    far = PoseSE3(w2c.R, w2c.t + np.array([0.5, 0.0, 0.0]))
    with pytest.raises(TrackingLost, match="inlier"):
        track_frame(ms, frame, config, prev_pose=far)


def test_track_retries_a_singular_solve_with_more_damping(monkeypatch):
    # a solve that raises LinAlgError has failed: the same linearization is
    # solved again at damping_increase times the damping, and tracking goes
    # on to the frame's pose
    config = SolverConfig()
    rng = np.random.default_rng(17)
    points = scatter_points(rng, 40)
    ms = landmark_map(points, config)
    w2c = se3_exp(np.array([0.1, 0.0, 0.05, 0.0, 0.01, 0.0]))
    frame = frame_at(w2c, points, frame_id=3)
    start = PoseSE3(w2c.R, w2c.t + np.array([0.05, -0.02, 0.03]))
    solves = []
    original_solve = np.linalg.solve

    def singular_once(a, b):
        solves.append((np.array(a), np.array(b)))
        if len(solves) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return original_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    result = track_frame(ms, frame, config, prev_pose=start)

    (a0, b0), (a1, b1) = solves[:2]
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_array_equal(a1[off], a0[off])
    np.testing.assert_array_equal(b1, b0)
    # diag(H) (1 + lam): the retry's lam is damping_increase times the first
    lam = config.initial_damping
    np.testing.assert_allclose(
        np.diag(a1) / (1.0 + config.damping_increase * lam),
        np.diag(a0) / (1.0 + lam),
        rtol=1e-14,
    )
    assert len(solves) > 2  # the solve went on past the retried step
    # from 6 cm off, the exact measurements pull it to within 1e-6
    np.testing.assert_allclose(result.R, w2c.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.t, w2c.t, rtol=0, atol=1e-6)
    assert result.inlier_ids.size == 40


# --- landmark culling ---------------------------------------------------------


def test_cull_retires_persistently_rejected_landmarks():
    config = SolverConfig(cull_misses=3)
    rng = np.random.default_rng(8)
    points = scatter_points(rng, 3)
    ms = landmark_map(points, config)
    ms.add_keyframe(0, PoseSE3.identity())
    ms.add_observations(0, np.arange(3), project(K, points))

    reject = TrackResult(
        R=np.eye(3),
        t=np.zeros(3),
        inlier_ids=np.array([0, 1]),
        outlier_ids=np.array([2]),
        matched=3,
        cost=0.0,
        inlier_rows=ms.landmark_rows([0, 1]),
        outlier_rows=ms.landmark_rows([2]),
    )
    assert cull_landmarks(ms, reject, config) == 0
    assert cull_landmarks(ms, reject, config) == 0
    assert ms.lm_misses[landmark_row(ms, 2)] == 2

    # one clean re-acceptance pardons the streak
    pardon = TrackResult(
        R=np.eye(3),
        t=np.zeros(3),
        inlier_ids=np.array([2]),
        outlier_ids=np.array([], dtype=int),
        matched=3,
        cost=0.0,
        inlier_rows=ms.landmark_rows([2]),
        outlier_rows=np.array([], dtype=int),
    )
    cull_landmarks(ms, pardon, config)
    assert ms.lm_misses[landmark_row(ms, 2)] == 0

    for _ in range(2):
        assert cull_landmarks(ms, reject, config) == 0
    assert cull_landmarks(ms, reject, config) == 1
    assert 2 not in ms.landmarks
    assert 2 not in ms.obs_lm[ms.observations]
    assert_map_consistent(ms)


# --- keyframe policy and insertion ---------------------------------------------


def test_keyframe_selection_gap_and_overlap():
    config = SolverConfig()  # gap 5 frames, overlap floor 0.9
    ms = MapState(K, config)
    ms.add_keyframe(10, PoseSE3.identity())
    ms.reference_inliers = 100
    assert select_keyframe(ms, 15, 100, config)  # gap reached
    assert not select_keyframe(ms, 12, 95, config)  # overlap still high
    assert select_keyframe(ms, 12, 89, config)  # overlap decayed


def test_insert_first_keyframe_triangulates_and_seeds_normal():
    config = SolverConfig()
    rng = np.random.default_rng(9)
    near = scatter_points(rng, 20)
    far = np.array([[0.0, 0.0, 300.0]])  # 0.33 px disparity, below the floor
    points = np.vstack([near, far])
    n0 = unit([0.02, -0.04, -1.0])
    ms = MapState(K, config)
    frame = frame_at(PoseSE3.identity(), points, normal=n0)

    kf_id = insert_keyframe(ms, frame, PoseSE3.identity(), (), config)

    assert kf_id == 0 and ms.kf_fixed.tolist() == [True]
    assert set(ms.landmarks) == set(range(20))
    for i in range(20):
        np.testing.assert_allclose(position(ms, i), near[i], rtol=0, atol=1e-9)
    np.testing.assert_allclose(ms.world_normal, n0, rtol=0, atol=1e-15)
    assert ms.reference_inliers == 20
    assert ms.normal_init_remaining == config.normal_init_window - 1
    assert ms.normal_active


def test_insert_second_keyframe_links_covisibility():
    config = SolverConfig()
    rng = np.random.default_rng(10)
    points = scatter_points(rng, 25)
    ms = MapState(K, config)
    insert_keyframe(
        ms, frame_at(PoseSE3.identity(), points), PoseSE3.identity(), (), config
    )
    pose1 = se3_exp(np.array([0.3, 0.0, 0.0, 0.0, 0.02, 0.0]))
    kf1 = insert_keyframe(
        ms, frame_at(pose1, points, frame_id=5), pose1, np.arange(25), config
    )
    assert kf1 == 1 and ms.kf_fixed.tolist() == [True, False]
    assert ms.keyframes.tolist() == [0, 5]
    assert ms.covisibility(0)[1] == 25
    assert ms.covisibility(1)[0] == 25
    assert len(ms.landmarks) == 25  # nothing new triangulated
    assert_map_consistent(ms)
    assert ms.normal_init_remaining == config.normal_init_window - 2


def test_insert_seeds_world_normal_in_world_frame():
    config = SolverConfig()
    rng = np.random.default_rng(11)
    pose = PoseSE3(so3_exp(np.array([0.2, -0.1, 0.3])), np.array([0.4, -0.2, 0.1]))
    pcs = scatter_points(rng, 15)  # points in the camera frame
    c2w = pose.inverse()
    world = pcs @ c2w.R.T + c2w.t
    n_k = unit([-0.1, 0.2, -0.97])
    frame = FrameData(0, 0.0, np.arange(15), project(K, pcs), n_k)
    ms = MapState(K, config)

    insert_keyframe(ms, frame, pose, (), config)

    np.testing.assert_allclose(ms.world_normal, pose.R.T @ n_k, rtol=0, atol=1e-12)
    for i in range(15):
        np.testing.assert_allclose(position(ms, i), world[i], rtol=0, atol=1e-9)


# --- map bookkeeping -----------------------------------------------------------


def test_remove_observation_updates_covisibility_and_orphans():
    config = SolverConfig()
    ms = MapState(K, config)
    for k in range(2):
        ms.add_keyframe(k, PoseSE3.identity())
    ms.add_landmarks([0, 1], [[0.0, 0.0, 5.0], [0.0, 0.0, 6.0]])
    uvu = np.array([[330.0, 240.0, 310.0]] * 2)
    for k in range(2):
        ms.add_observations(k, [0, 1], uvu)
    assert ms.covisibility(0)[1] == 2
    with pytest.raises(ValueError):
        ms.add_observations(1, [1], uvu[:1])  # the pair is already stored
    with pytest.raises(ValueError):
        ms.add_observations(0, [7, 7], uvu)  # twice within one batch
    with pytest.raises(KeyError):
        ms.add_observations(0, [7], uvu[:1])  # no such landmark

    ms.remove_observations([obs_row(ms, 0, 1)])
    assert ms.covisibility(0)[1] == 1
    assert ms.covisible_keyframes(0, 1) == [1]
    assert ms.covisible_keyframes(1, 2) == []

    # dropping the last observation deletes the landmark itself
    ms.remove_observations([obs_row(ms, 1, 1)])
    assert 1 not in ms.landmarks
    assert_map_consistent(ms)


def test_chi_square_boundary_classification():
    config = SolverConfig()  # sigma 1 px, threshold 7.815
    rng = np.random.default_rng(19)
    points = scatter_points(rng, 10)
    ms = landmark_map(points, config)
    ms.add_keyframe(0, PoseSE3.identity())
    uvu = project(K, points)
    uvu[0, 0] += math.sqrt(7.814)  # squared norm lands just below the gate
    uvu[1, 0] += math.sqrt(7.816)  # and this one just above
    ms.add_observations(0, np.arange(10), uvu)
    problem = _BAProblem(ms, [0], config)

    removed = reject_outliers(ms, config, problem.obs_ids, problem.ev.sq)

    assert removed == 1
    assert 1 not in ms.landmarks
    assert 0 in ms.landmarks
    assert len(ms.landmarks) == 9
    assert_map_consistent(ms)


def test_remove_observations_counts_dead_and_repeated_ids_once():
    config = SolverConfig()
    ms, _, _ = two_keyframe_map(config, n=3, seed=5)
    row = obs_row(ms, 0, 0)

    ms.remove_observations([row, row])  # landmark 0 keeps its other observation
    assert 0 in ms.landmarks and observers(ms, 0) == {1}
    ms.remove_observations([row])  # already dead: nothing left to count
    assert 0 in ms.landmarks and observers(ms, 0) == {1}
    assert_map_consistent(ms)

    ms.remove_observations([obs_row(ms, 1, 0)])
    assert 0 not in ms.landmarks
    assert_map_consistent(ms)


def test_landmarks_stay_sorted_and_reject_a_second_mapping():
    ms = MapState(K, SolverConfig())
    ms.add_landmarks([7, 2], [[0.0, 0.0, 7.0], [0.0, 0.0, 2.0]])
    ms.add_landmarks([5, 9, 0], [[0.0, 0.0, 5.0], [0.0, 0.0, 9.0], [0.0, 0.0, 0.5]])
    assert ms.landmarks.tolist() == [0, 2, 5, 7, 9]
    assert ms.lm_pos[:, 2].tolist() == [0.5, 2.0, 5.0, 7.0, 9.0]
    assert ms.landmark_rows([9, 4, 0, 10]).tolist() == [4, -1, 0, -1]
    with pytest.raises(ValueError, match="already mapped"):
        ms.add_landmarks([3, 5], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="already mapped"):
        ms.add_landmarks([3, 3], np.zeros((2, 3)))
    assert ms.landmarks.tolist() == [0, 2, 5, 7, 9]


def test_map_rejects_arrays_that_do_not_line_up():
    # each call would leave the row-aligned arrays out of step, or drop rows
    config = SolverConfig()
    ms, _, _ = two_keyframe_map(config, n=3, seed=5)
    uvu = np.array([[330.0, 240.0, 310.0]] * 2)
    ms.add_keyframe(2, PoseSE3.identity())
    before = (ms.obs_kf.copy(), ms.obs_lm.copy(), ms.obs_uvu.copy())
    with pytest.raises(ValueError, match="shape"):
        ms.add_observations(2, [0, 1, 2], uvu)  # 3 landmarks, 2 measurements
    for kf_id in (3, -1):  # a keyframe the map does not hold
        with pytest.raises(ValueError, match="no keyframe"):
            ms.add_observations(kf_id, [0, 1], uvu)
    with pytest.raises(ValueError, match="out of range"):
        ms.remove_observations([-1])  # no negative indexing from the end
    with pytest.raises(ValueError, match="out of range"):
        ms.remove_observations([ms.obs_kf.size])
    for a, b in zip(before, (ms.obs_kf, ms.obs_lm, ms.obs_uvu)):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="shape"):
        ms.add_landmarks([4, 5, 6], np.zeros((5, 3)))  # 3 ids, 5 positions
    assert ms.landmarks.tolist() == [0, 1, 2]
    assert_map_consistent(ms)


def brute_force_rows(ms, lm_ids):
    """Live rows of landmarks ``lm_ids`` by an ``np.isin`` over every row,
    grouped in the order of ``lm_ids`` with keyframes ascending."""
    live = np.flatnonzero(ms.obs_kf >= 0)
    rows = live[np.isin(ms.obs_lm[live], lm_ids)]
    rank = {int(lm): i for i, lm in enumerate(lm_ids)}
    return np.array(
        sorted(rows.tolist(), key=lambda r: (rank[int(ms.obs_lm[r])], ms.obs_kf[r])),
        dtype=int,
    )


def test_observation_index_matches_a_scan_through_adds_culls_and_compaction():
    rng = np.random.default_rng(31)
    ms = MapState(K, SolverConfig())
    compacted = False
    for kf_id in range(12):
        ms.add_keyframe(kf_id, PoseSE3.identity())
        fresh = np.arange(6 * kf_id, 6 * kf_id + 6)
        old = rng.choice(ms.landmarks, size=min(4, ms.landmarks.size), replace=False)
        ms.add_landmarks(fresh, rng.uniform(1.0, 5.0, (6, 3)))
        ids = np.concatenate([fresh, old])
        ms.add_observations(kf_id, ids, rng.normal(size=(ids.size, 3)))
        # an older keyframe's rows, written after the newer keyframe's
        k = int(rng.integers(kf_id + 1))
        unseen = np.setdiff1d(ms.landmarks, ms.obs_lm[ms.obs_kf == k])
        ids = rng.choice(unseen, size=min(3, unseen.size), replace=False)
        ms.add_observations(k, ids, rng.normal(size=(ids.size, 3)))

        size = ms.obs_kf.size
        ms.remove_observations(rng.choice(size, size=size // 3, replace=False))
        compacted |= ms.obs_kf.size < size
        query = rng.permutation(np.append(ms.landmarks, [10_000, -4]))
        np.testing.assert_array_equal(
            ms.observation_rows(query), brute_force_rows(ms, query)
        )
        assert_map_consistent(ms)
    assert compacted


def test_row_indices_match_a_recount_through_growth_and_compactions(monkeypatch):
    # the arrays grow through several capacity doublings, the landmark
    # order folds its second run into the first, rows go to an older
    # keyframe and removals compact the arrays; after each step every read
    # matches a recount over all rows
    monkeypatch.setattr(MapState, "_RECENT_ROWS", 40)
    rng = np.random.default_rng(8)
    ms = MapState(K, SolverConfig())
    capacities, folded, compactions, older = [0], False, 0, 0

    def check():
        np.testing.assert_array_equal(ms.observations, np.flatnonzero(ms.obs_kf >= 0))
        query = rng.permutation(np.append(ms.landmarks, [10**6, -2]))
        np.testing.assert_array_equal(
            ms.observation_rows(query), brute_force_rows(ms, query)
        )
        kfs = rng.permutation(len(ms.keyframes))[:4]
        by_kf = [np.flatnonzero(ms.obs_kf == k) for k in kfs]
        np.testing.assert_array_equal(ms.keyframe_rows(kfs), np.concatenate(by_kf))
        assert_map_consistent(ms)

    for kf_id in range(24):
        ms.add_keyframe(kf_id, PoseSE3.identity())
        fresh = np.arange(8 * kf_id, 8 * kf_id + 8)
        old = rng.choice(ms.landmarks, size=min(12, ms.landmarks.size), replace=False)
        ms.add_landmarks(fresh, rng.uniform(1.0, 5.0, (8, 3)))
        ids = rng.permutation(np.concatenate([fresh, old]))
        rows = ms.add_observations(kf_id, ids, rng.normal(size=(ids.size, 3)))
        np.testing.assert_array_equal(ms.obs_lm[rows], ids)
        assert np.all(ms.obs_kf[rows] == kf_id)
        capacities.append(len(ms.obs_kf.base))
        folded |= 0 < ms._lm_fold < ms.obs_kf.size
        check()
        if kf_id % 7 == 6:  # an older keyframe's rows, after a newer one's
            k = int(rng.integers(kf_id))
            unseen = np.setdiff1d(ms.landmarks, ms.obs_lm[ms.obs_kf == k])
            ms.add_observations(k, unseen[:3], rng.normal(size=(3, 3)))
            older += 1
            check()
        if kf_id % 8 == 7:  # enough removals to compact
            size = ms.obs_kf.size
            while ms.obs_kf.size == size:
                live = ms.observations
                doomed = rng.choice(live, size=live.size // 4, replace=False)
                ms.remove_observations(doomed)
            compactions += 1
            check()
    doublings = sum(b > a for a, b in zip(capacities, capacities[1:]))
    assert doublings >= 4 and folded and older >= 3 and compactions >= 2


def test_ba_problem_selects_the_rows_of_the_old_scan():
    # the window's rows through the index, in the order the old isin and
    # lexsort over every row gave them, with a row written for an older
    # keyframe after a newer one
    config = SolverConfig()
    ms = ba_test_map(config)
    ms.add_keyframe(3, PoseSE3(ms.kf_R[2], ms.kf_t[2]))
    ms.add_observations(3, [0, 1, 2], ms.obs_uvu[:3])
    ms.remove_observations([obs_row(ms, 1, 5), obs_row(ms, 2, 7)])
    ms.add_landmarks([12], [[0.1, 0.2, 6.0]])
    ms.add_observations(1, [12], ms.obs_uvu[:1])
    ms.add_observations(0, [12], ms.obs_uvu[:1])
    for window in ([1, 2], [0, 3], [0, 1, 2, 3]):
        problem = _BAProblem(ms, window, config)
        obs_kf, obs_lm = ms.obs_kf, ms.obs_lm
        lm_ids = np.unique(obs_lm[np.isin(obs_kf, window)])
        rows = np.flatnonzero(np.isin(obs_lm, lm_ids) & (obs_kf >= 0))
        expected = rows[np.lexsort((obs_kf[rows], obs_lm[rows]))]
        np.testing.assert_array_equal(problem.lm_ids, lm_ids)
        np.testing.assert_array_equal(problem.obs_ids, expected)


def test_ba_without_rejections_writes_back_once(monkeypatch):
    config = SolverConfig()
    ms, _, _ = two_keyframe_map(config, with_normal=True, pixel_noise=0.3)
    calls = []
    original = _BAProblem.write_back

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(_BAProblem, "write_back", counting)
    report = local_bundle_adjustment(ms, 1, config)
    assert report.accepted_steps > 0 and report.removed_observations == 0
    assert len(calls) == 1


# --- bundle adjustment ----------------------------------------------------------


def ba_test_map(config):
    """Three keyframes sharing 12 landmarks, the first fixed, the normal
    factor active, 0.5 px noise."""
    ms, _, poses = two_keyframe_map(
        config, n=12, seed=24, with_normal=True, pixel_noise=0.5
    )
    pose2 = se3_exp(0.5 * SECOND_TWIST).compose(poses[1])
    ms.add_keyframe(2, pose2)
    ms.add_observations(2, np.arange(12), project(K, ms.lm_pos @ pose2.R.T + pose2.t))
    return ms


def dense_system(Hpp, gp, Hll, gl, W):
    """The undamped normal equations (H, g) that the Schur blocks split."""
    P, Lb = Hpp.shape[0], Hll.shape[0]
    H = np.zeros((6 * P + 3 * Lb, 6 * P + 3 * Lb))
    for p in range(P):
        H[6 * p : 6 * p + 6, 6 * p : 6 * p + 6] = Hpp[p]
    for lm in range(Lb):
        at = 6 * P + 3 * lm
        H[at : at + 3, at : at + 3] = Hll[lm]
    H[: 6 * P, 6 * P :] = W
    H[6 * P :, : 6 * P] = W.T
    return H, np.concatenate([gp.ravel(), gl.ravel()])


def test_ba_damped_step_matches_dense_solve():
    # the Schur solve must equal solving the whole damped system at once,
    # H + lam diag(H), with the pose blocks damped like the landmark ones
    config = SolverConfig()
    problem = _BAProblem(ba_test_map(config), [0, 1, 2], config)
    assert problem.nw_active and len(problem.free_ids) == 2
    Hpp, gp, Hll, gl, W = _ba_assemble(problem, *_ba_linearize(problem))
    P = Hpp.shape[0]
    H, g = dense_system(Hpp, gp, Hll, gl, W)

    for lam in (0.0, 0.5, 30.0):
        dp, dl = _ba_solve(Hpp, gp, Hll, gl, W, lam)
        dense = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
        atol = 1e-9 * np.max(np.abs(dense))
        np.testing.assert_allclose(dp.ravel(), dense[: 6 * P], rtol=0, atol=atol)
        np.testing.assert_allclose(dl.ravel(), dense[6 * P :], rtol=0, atol=atol)


def test_ba_stops_on_the_dense_model_decrease(monkeypatch):
    # the stopping test sees the assembled gradient and the diagonal of the
    # whole undamped system, pose and landmark blocks alike
    config = SolverConfig(covisibility_min_shared=1)
    ms = ba_test_map(config)
    assembled, predicted = [], []
    original_assemble = estimator._ba_assemble
    original_predicted = estimator._predicted_decrease

    def recording_assemble(*args):
        assembled.append(original_assemble(*args))
        return assembled[-1]

    def recording_predicted(g, d, h, lam):
        value = original_predicted(g, d, h, lam)
        predicted.append((len(assembled), h, lam, value))
        return value

    monkeypatch.setattr(estimator, "_ba_assemble", recording_assemble)
    monkeypatch.setattr(estimator, "_predicted_decrease", recording_predicted)
    report = local_bundle_adjustment(ms, 2, config)

    assert report.free_poses == 2 and predicted
    for n_assembled, h, lam, value in predicted:
        blocks = assembled[n_assembled - 1]
        H, g = dense_system(*blocks)
        dp, dl = _ba_solve(*blocks, lam)
        np.testing.assert_array_equal(h, np.concatenate([dp.ravel(), dl.ravel()]))
        # the identity holds to the accuracy of the Schur solve, not exactly
        assert value == pytest.approx(-2.0 * g @ h - h @ H @ h, rel=1e-8)


def reference_ba_blocks(problem):
    """The Schur blocks (Hpp, gp, Hll, gl, W) of ``problem``'s state built
    one observation and one normal row at a time, with each row's residual,
    Huber weight and Jacobians taken from ``factors``."""
    config, ms = problem.config, problem.map
    sqrt_lam = math.sqrt(config.loss.normal_weight)
    P, L = len(problem.free_ids), len(problem.lm_ids)
    Lb = L + problem.nw_active
    Hpp, gp = np.zeros((P, 6, 6)), np.zeros((P, 6))
    Hll, gl = np.zeros((Lb, 3, 3)), np.zeros((Lb, 3))
    W = np.zeros((6 * P, 3 * Lb))
    free_of = {int(k): f for f, k in enumerate(problem.free_ids)}
    lm_of = {int(lm_id): i for i, lm_id in enumerate(problem.lm_ids)}
    for obs in problem.obs_ids:
        kf, lm = int(ms.obs_kf[obs]), lm_of[int(ms.obs_lm[obs])]
        row = int(np.searchsorted(problem.all_kf_ids, kf))
        R, t, X = problem.R[row], problem.t[row], problem.points[lm]
        r = (project(K, R @ X + t) - ms.obs_uvu[obs]) / config.sigma_px
        _, w = huber(np.linalg.norm(r), config.loss.huber_delta_repro)
        Jp, Jl = reprojection_jacobians(K, (R, t), X)
        Jp, Jl = Jp / config.sigma_px, Jl / config.sigma_px
        Hll[lm] += w * Jl.T @ Jl
        gl[lm] += w * Jl.T @ r
        if kf in free_of:
            f = free_of[kf]
            Hpp[f] += w * Jp.T @ Jp
            gp[f] += w * Jp.T @ r
            W[6 * f : 6 * f + 6, 3 * lm : 3 * lm + 3] += w * Jp.T @ Jl
    for kf in problem.window_ids:
        if np.isnan(ms.kf_normal[kf, 0]):
            continue
        R = problem.R[int(np.searchsorted(problem.all_kf_ids, kf))]
        basis, n_k = ms.kf_basis[kf], ms.kf_normal[kf]
        rn = sqrt_lam * normal_residual(basis, R, problem.n_w, n_k)
        _, wn = huber(np.linalg.norm(rn), config.loss.huber_delta_normal)
        J_phi, J_nw = normal_jacobian(basis, R, problem.n_w)
        J_phi, J_nw = sqrt_lam * J_phi, sqrt_lam * J_nw
        if kf in free_of:
            f = free_of[kf]
            Hpp[f, 3:, 3:] += wn * J_phi.T @ J_phi
            gp[f, 3:] += wn * J_phi.T @ rn
            if problem.nw_active:
                W[6 * f + 3 : 6 * f + 6, 3 * L :] += wn * J_phi.T @ J_nw
        if problem.nw_active:
            Hll[L] += wn * J_nw.T @ J_nw
            gl[L] += wn * J_nw.T @ rn
    if problem.nw_active:
        n_hat = unit(problem.n_w)
        Hll[L] += np.trace(Hll[L]) * np.outer(n_hat, n_hat)
    return Hpp, gp, Hll, gl, W


@pytest.mark.parametrize(
    "window, frozen, fixed",
    [
        pytest.param([0, 1, 2], False, 0, id="window0"),
        pytest.param([1, 2], False, 0, id="window1"),
        pytest.param([2], False, 0, id="window2"),
        pytest.param([0, 1, 2], True, 0, id="normal-frozen"),
        pytest.param([1, 2], False, 1, id="normal-keyframe-fixed"),
        pytest.param([1, 2], True, 1, id="normal-keyframe-fixed-normal-frozen"),
    ],
)
def test_ba_assembly_matches_a_per_observation_loop(window, frozen, fixed):
    # rows at the gauge pose, at a pose outside the window and at free
    # poses, with the world normal among the variables or frozen; a fixed
    # window keyframe with a normal row adds no pose block
    config = SolverConfig()
    ms = ba_test_map(config)
    ms.kf_normal[2], ms.kf_basis[2] = ms.kf_normal[1], ms.kf_basis[1]
    ms.kf_fixed[fixed] = True
    if frozen:
        ms.normal_init_remaining = 0
    problem = _BAProblem(ms, window, config)
    assert problem.nw_active != frozen
    assert np.any(problem.obs_free < 0) and np.any(problem.obs_free >= 0)
    assert fixed not in problem.free_ids

    blocks = _ba_assemble(problem, *_ba_linearize(problem))

    for got, expected in zip(blocks, reference_ba_blocks(problem)):
        assert got.shape == expected.shape
        scale = np.abs(expected).max()
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10 * scale)


@pytest.mark.parametrize("poses", [2, 0])
def test_ba_solve_raises_on_a_singular_landmark_block(poses):
    # an exactly zero landmark block stays zero under damping: the solve
    # fails as a singular one, without a division warning on the way
    config = SolverConfig()
    problem = _BAProblem(ba_test_map(config), [0, 1, 2], config)
    Hpp, gp, Hll, gl, W = _ba_assemble(problem, *_ba_linearize(problem))
    Hll[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _ba_solve(Hpp[:poses], gp[:poses], Hll, gl, W[: 6 * poses], 0.5)


def test_ba_at_the_damping_ceiling_raises_solver_diverged(monkeypatch):
    config = SolverConfig(covisibility_min_shared=1)
    ms = ba_test_map(config)
    lams = []

    def non_finite(Hpp, gp, Hll, gl, W, lam):
        lams.append(lam)
        return np.full(gp.shape, np.nan), np.full(gl.shape, np.nan)

    monkeypatch.setattr(estimator, "_ba_solve", non_finite)
    with pytest.raises(SolverDiverged, match="damping ceiling"):
        local_bundle_adjustment(ms, 2, config)
    assert lams[0] == config.initial_damping
    assert lams[-1] <= config.damping_ceiling < lams[-1] * config.damping_increase


def test_ba_retries_a_singular_solve_with_more_damping(monkeypatch):
    # a Schur solve that raises LinAlgError has failed: the same blocks are
    # solved again at damping_increase times the damping, and the bundle
    # adjustment goes on to lower the cost
    config = SolverConfig(covisibility_min_shared=1)
    ms = ba_test_map(config)
    calls = []
    original_solve = estimator._ba_solve

    def singular_once(Hpp, gp, Hll, gl, W, lam):
        calls.append(((Hpp, gp, Hll, gl, W), lam))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return original_solve(Hpp, gp, Hll, gl, W, lam)

    monkeypatch.setattr(estimator, "_ba_solve", singular_once)
    report = local_bundle_adjustment(ms, 2, config)

    (blocks0, lam0), (blocks1, lam1) = calls[:2]
    for block0, block1 in zip(blocks0, blocks1):
        np.testing.assert_array_equal(block1, block0)
    assert lam0 == config.initial_damping
    assert lam1 == lam0 * config.damping_increase
    assert report.accepted_steps > 0
    assert report.cost_final < report.cost_initial


def test_ba_perfect_map_is_a_fixed_point():
    config = SolverConfig()
    ms, points, poses = two_keyframe_map(config, with_normal=True)
    report = local_bundle_adjustment(ms, 1, config)

    assert report.window == (0, 1)
    assert report.free_poses == 1
    assert report.landmarks == 40
    assert report.observations == 80
    assert report.iterations == 1
    assert report.accepted_steps == 0
    assert report.removed_observations == 0
    assert report.cost_final < 1e-18
    np.testing.assert_array_equal(ms.kf_R[0], np.eye(3))
    np.testing.assert_array_equal(ms.kf_R[1], poses[1].R)
    np.testing.assert_array_equal(ms.kf_t[1], poses[1].t)
    for i in range(40):
        np.testing.assert_array_equal(position(ms, i), points[i])


def test_ba_landmark_only_recovery_with_all_poses_fixed():
    config = SolverConfig()
    ms, points, _ = two_keyframe_map(config, n=40, seed=12)
    ms.kf_fixed[1] = True
    rng = np.random.default_rng(13)
    for i in range(40):
        ms.lm_pos[landmark_row(ms, i)] += rng.uniform(-0.008, 0.008, 3)

    report = local_bundle_adjustment(ms, 1, config)

    assert report.free_poses == 0
    assert report.removed_observations == 0
    assert report.cost_final <= 1e-12
    for i in range(40):
        np.testing.assert_allclose(position(ms, i), points[i], rtol=0, atol=1e-6)


def test_ba_pose_recovery_keeps_gauge_anchor_untouched():
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(config, n=40, seed=14)
    true_pose1 = poses[1]
    # small enough that no exact observation crosses the rejection gate
    twist = np.array([0.002, -0.0015, 0.001, 0.0005, -0.001, 0.00075])
    start = se3_exp(twist).compose(true_pose1)
    ms.kf_R[1], ms.kf_t[1] = start.R, start.t

    report = local_bundle_adjustment(ms, 1, config)

    np.testing.assert_array_equal(ms.kf_R[0], np.eye(3))
    np.testing.assert_array_equal(ms.kf_t[0], np.zeros(3))
    np.testing.assert_allclose(ms.kf_R[1], true_pose1.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ms.kf_t[1], true_pose1.t, rtol=0, atol=1e-6)
    assert report.cost_final <= 1e-10


def test_ba_rejection_removes_labeled_outliers_only():
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(config, n=60, seed=15)
    for lm_id in range(6):
        ms.obs_uvu[obs_row(ms, 1, lm_id)] += np.array([50.0, -30.0, 50.0])
    assert len(ms.observations) == 120

    report = local_bundle_adjustment(ms, 1, config)

    assert report.removed_observations == 6
    assert len(ms.observations) == 114
    for lm_id in range(6):
        assert observers(ms, lm_id) == {0}
    for lm_id in range(6, 60):
        assert observers(ms, lm_id) == {0, 1}
    np.testing.assert_allclose(ms.kf_t[1], poses[1].t, rtol=0, atol=1e-6)
    assert_map_consistent(ms)


def test_ba_accepted_costs_never_increase(caplog):
    config = SolverConfig()
    ms, _, _ = two_keyframe_map(config, n=50, seed=16, pixel_noise=0.5)
    for lm_id in range(4):
        ms.obs_uvu[obs_row(ms, 1, lm_id)] += np.array([30.0, 20.0, 30.0])

    with caplog.at_level(logging.DEBUG, logger="normalvo.estimator"):
        report = local_bundle_adjustment(ms, 1, config)

    costs = []
    for rec in caplog.records:
        m = re.search(r"accepted cost ([0-9.eE+-]+)", rec.getMessage())
        if m:
            costs.append(float(m.group(1)))
    assert len(costs) >= 2
    assert all(later <= earlier for earlier, later in zip(costs, costs[1:]))
    assert report.removed_observations == 4


def reference_map_cost(map_state, config):
    """The robust objective as a plain loop over keyframes and observations,
    the reference the package's vectorized evaluator is checked against."""
    K = map_state.intrinsics
    kf_ids = range(len(map_state.keyframes))
    inv_sigma = 1.0 / config.sigma_px
    sqrt_lam = math.sqrt(config.loss.normal_weight)
    total = 0.0
    for kf_id in kf_ids:
        pose = PoseSE3(map_state.kf_R[kf_id], map_state.kf_t[kf_id])
        normal, basis = map_state.kf_normal[kf_id], map_state.kf_basis[kf_id]
        for obs_id in np.flatnonzero(map_state.obs_kf == kf_id):
            p = position(map_state, int(map_state.obs_lm[obs_id]))
            r = (
                project(K, transform_point(pose, p))
                - map_state.obs_uvu[obs_id]
            ) * inv_sigma
            total += float(huber(np.linalg.norm(r), config.loss.huber_delta_repro)[0])
        if (
            config.loss.normal_weight > 0.0
            and not np.isnan(normal).any()
            and map_state.world_normal is not None
        ):
            rn = sqrt_lam * normal_residual(
                basis, pose.R, map_state.world_normal, normal
            )
            total += float(
                huber(np.linalg.norm(rn), config.loss.huber_delta_normal)[0]
            )
    return total


def test_ba_vectorized_cost_matches_reference_loop():
    # bundle adjustment, map_cost and tracking all evaluate the objective
    # through one batched evaluator; each must agree with the plain loop
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(
        config, n=30, seed=17, with_normal=True, pixel_noise=0.7
    )
    for lm_id in range(3):  # gross errors reach Huber's linear branch
        ms.obs_uvu[obs_row(ms, 1, lm_id)] += np.array([30.0, -20.0, 30.0])
    reference = reference_map_cost(ms, config)

    problem = _BAProblem(ms, [0, 1], config)
    assert problem.nw_active
    # the solver state is one stacked row per keyframe of all_kf_ids
    assert problem.R.shape == (2, 3, 3) and problem.t.shape == (2, 3)
    for row, k in enumerate(problem.all_kf_ids):
        np.testing.assert_array_equal(problem.R[row], ms.kf_R[k])
        np.testing.assert_array_equal(problem.t[row], ms.kf_t[k])
    evaluation = problem.evaluate(problem.R, problem.t, problem.points, problem.n_w)
    assert evaluation.cost == pytest.approx(reference, rel=1e-12)
    assert map_cost(ms, config) == pytest.approx(reference, rel=1e-12)

    # a third frame tracked against the same landmarks: its cost at the
    # returned pose is the reference objective of a map holding that frame
    rng = np.random.default_rng(23)
    pose2 = se3_exp(np.array([0.05, 0.0, 0.01, 0.0, 0.01, 0.0])).compose(poses[1])
    ids = np.arange(30)
    points = np.array([position(ms, i) for i in ids])
    meas = project(K, points @ pose2.R.T + pose2.t) + rng.normal(0.0, 0.7, (30, 3))
    meas[:3] += np.array([25.0, 15.0, 25.0])
    normal = unit(pose2.R @ ms.world_normal + np.array([0.02, -0.01, 0.0]))
    frame = FrameData(2, 2.0, ids, meas, frame_normal=normal)
    result = track_frame(ms, frame, config, prev_pose=poses[1])

    solo = MapState(K, config)
    solo.world_normal = ms.world_normal
    basis = make_tangent_basis(normal)
    solo.add_keyframe(2, result, normal, basis)
    solo.add_landmarks(ids, points)
    solo.add_observations(0, ids, meas)
    assert result.cost == pytest.approx(reference_map_cost(solo, config), rel=1e-12)


def test_map_cost_of_a_map_without_observations_is_its_normal_terms():
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(config, n=5, seed=17, with_normal=True)
    tilted = se3_exp(np.array([0.0, 0.0, 0.0, 0.01, 0.0, 0.0])).compose(poses[1])
    ms.kf_R[1], ms.kf_t[1] = tilted.R, tilted.t
    ms.remove_observations(ms.observations)
    assert ms.landmarks.size == 0

    cost = map_cost(ms, config)

    assert cost > 0.0
    assert cost == pytest.approx(reference_map_cost(ms, config), rel=1e-12)


def behind_camera_map(config):
    """Two-keyframe map whose landmark 0 lies in front of keyframe 0 (which
    measures it exactly) but behind keyframe 1, whose stale observation of
    it stays. Returns (map_state, id of the behind-camera observation)."""
    ms, _, poses = two_keyframe_map(config, n=40, seed=22)
    p = np.array([10.0, 0.0, 0.2])
    assert p[2] > 0.0 > (poses[1].R @ p + poses[1].t)[2]
    ms.lm_pos[landmark_row(ms, 0)] = p
    ms.obs_uvu[obs_row(ms, 0, 0)] = project(K, p)
    return ms, obs_row(ms, 1, 0)


def test_reject_outliers_removes_observation_behind_camera():
    config = SolverConfig()
    ms, behind = behind_camera_map(config)
    problem = _BAProblem(ms, [0, 1], config)

    removed = reject_outliers(ms, config, problem.obs_ids, problem.ev.sq)

    assert removed == 1
    assert behind not in ms.observations
    assert observers(ms, 0) == {0}
    assert_map_consistent(ms)


def test_ba_first_rejection_pass_clears_behind_camera_observation():
    # linearizing a point behind its camera raises NonPositiveDepth, so the
    # pass before the first iteration must already have dropped it
    config = SolverConfig()
    ms, behind = behind_camera_map(config)

    report = local_bundle_adjustment(ms, 1, config)

    assert report.removed_observations == 1
    assert math.isfinite(report.cost_initial)
    assert report.cost_final <= report.cost_initial
    assert behind not in ms.observations
    assert observers(ms, 0) == {0}
    assert_map_consistent(ms)


def test_ba_world_normal_frozen_after_init_window():
    config = SolverConfig(normal_init_window=2, covisibility_min_shared=10)
    rng = np.random.default_rng(18)
    points = scatter_points(rng, 30)
    n0 = unit([0.01, -0.03, -1.0])
    ms = MapState(K, config)
    insert_keyframe(
        ms,
        frame_at(PoseSE3.identity(), points, normal=n0),
        PoseSE3.identity(),
        (),
        config,
    )
    assert ms.normal_active
    assert ms.normal_init_remaining == 1
    pose1 = se3_exp(np.array([0.3, 0.0, 0.0, 0.0, 0.02, 0.0]))
    insert_keyframe(
        ms,
        frame_at(pose1, points, frame_id=5, normal=pose1.R @ n0),
        pose1,
        np.arange(30),
        config,
    )
    assert not ms.normal_active

    before = ms.world_normal.copy()
    local_bundle_adjustment(ms, 1, config)
    assert np.array_equal(ms.world_normal, before)


def test_ba_refines_world_normal_while_active():
    config = SolverConfig(covisibility_min_shared=10)
    rng = np.random.default_rng(20)
    points = scatter_points(rng, 30)
    n0 = unit([0.01, -0.03, -1.0])
    ms = MapState(K, config)
    insert_keyframe(
        ms,
        frame_at(PoseSE3.identity(), points, normal=n0),
        PoseSE3.identity(),
        (),
        config,
    )
    pose1 = se3_exp(np.array([0.3, 0.0, 0.0, 0.0, 0.02, 0.0]))
    tilted = unit(pose1.R @ n0 + np.array([0.05, 0.0, 0.0]))
    insert_keyframe(
        ms, frame_at(pose1, points, frame_id=5, normal=tilted), pose1,
        np.arange(30), config,
    )
    assert ms.normal_active

    before = ms.world_normal.copy()
    local_bundle_adjustment(ms, 1, config)
    assert not np.array_equal(ms.world_normal, before)
    assert abs(np.linalg.norm(ms.world_normal) - 1.0) <= 1e-12


# --- full sequence runs ----------------------------------------------------------


def test_run_builds_each_frame_tangent_basis_once(monkeypatch):
    seq = generate_sequence(small_scene(trajectory_length=2.0))
    built = []

    def counting(normal):
        built.append(normal)
        return make_tangent_basis(normal)

    monkeypatch.setattr(estimator, "make_tangent_basis", counting)
    result = run_sequence(seq.frames, seq.intrinsics, SolverConfig())

    assert sum(r.keyframe_id is not None for r in result.records) >= 2
    assert 0 < len(built) <= len(seq.frames)


def small_scene(**overrides):
    """A 51-frame strip at the simulator's native frame rate.

    The inter-keyframe baseline must stay small next to the depth noise of
    single-observation landmarks (they need one accepted re-observation
    before bundle adjustment can repair their depth), so the scene is kept
    short rather than undersampled.
    """
    base = dict(
        landmark_count=500,
        extent_x=12.0,
        extent_y=10.0,
        trajectory_shape="line",
        trajectory_length=4.0,
        altitude=8.0,
        speed=2.4,
        frame_rate=30.0,
        seed=11,
    )
    base.update(overrides)
    return SceneConfig(**base)


@pytest.fixture(scope="module")
def noisy_seq():
    return generate_sequence(small_scene())


@pytest.fixture(scope="module")
def clean_seq():
    return generate_sequence(
        small_scene(
            pixel_noise=0.0,
            outlier_rate=0.0,
            roughness=0.0,
            normal_noise_deg=0.0,
            seed=13,
        )
    )


def test_run_sequence_recovers_clean_scene(clean_seq):
    result = run_sequence(clean_seq.frames, clean_seq.intrinsics, SolverConfig())
    assert len(result.trajectory) == clean_seq.config.frame_count
    report = ate(result.trajectory, clean_seq.ground_truth, S=PoseSE3.identity())
    assert report.rmse < 1e-6


@pytest.mark.xfail(strict=True, raises=TrackingLost, reason="ROADMAP item 6")
def test_run_sequence_finishes_lawnmower_seed_29():
    # the default lawnmower scene of seed 29 is lost at frame 457, and so is
    # this 40 m cut of it
    seq = generate_sequence(SceneConfig(seed=29, trajectory_length=40.0))
    run_sequence(seq.frames, seq.intrinsics, SolverConfig())


def test_run_sequence_is_deterministic(noisy_seq):
    config = SolverConfig()
    a = run_sequence(noisy_seq.frames, noisy_seq.intrinsics, config)
    b = run_sequence(noisy_seq.frames, noisy_seq.intrinsics, config)
    assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
    for pa, pb in zip(a.trajectory.poses, b.trajectory.poses):
        assert np.array_equal(pa.R, pb.R)


def test_zero_weight_equals_running_without_normals(noisy_seq):
    """normal_weight = 0 must reproduce, bit for bit, a run on the same
    stream with every frame normal stripped."""
    lam0 = SolverConfig(loss=RobustLossConfig(normal_weight=0.0))
    with_normals = run_sequence(noisy_seq.frames, noisy_seq.intrinsics, lam0)
    stripped = [
        FrameData(f.frame_id, f.timestamp, f.landmark_ids, f.measurements, None)
        for f in noisy_seq.frames
    ]
    bare = run_sequence(stripped, noisy_seq.intrinsics, SolverConfig())
    assert np.array_equal(
        with_normals.trajectory.positions, bare.trajectory.positions
    )
    for pa, pb in zip(with_normals.trajectory.poses, bare.trajectory.poses):
        assert np.array_equal(pa.R, pb.R)


def _blank_frame(seq, fid):
    return FrameData(
        fid,
        float(seq.ground_truth.timestamps[fid]),
        np.zeros(0, dtype=int),
        np.zeros((0, 3)),
    )


def test_run_sequence_coasts_through_short_visibility_gap(clean_seq):
    frames = list(clean_seq.frames)
    for fid in range(20, 23):
        frames[fid] = _blank_frame(clean_seq, fid)
    result = run_sequence(frames, clean_seq.intrinsics, SolverConfig())

    for rec in result.records[20:23]:
        assert rec.matched == 0
        assert rec.inliers == 0
        assert rec.keyframe_id is None
    assert result.records[23].inliers > 0
    # constant-velocity coasting is exact on this constant-velocity path
    report = ate(result.trajectory, clean_seq.ground_truth, S=PoseSE3.identity())
    assert report.rmse < 1e-6


def test_run_sequence_reports_first_frame_of_lost_streak(clean_seq):
    frames = list(clean_seq.frames)
    for fid in range(20, 32):  # longer than the coasting allowance
        frames[fid] = _blank_frame(clean_seq, fid)
    with pytest.raises(TrackingLost, match="no recovery") as exc:
        run_sequence(frames, clean_seq.intrinsics, SolverConfig())
    assert exc.value.frame_id == 20


@pytest.mark.parametrize("extra", [0, 1])
def test_coasting_streak_that_ends_the_run(clean_seq, extra):
    # max_track_failures blank frames at the end are coasted through; one
    # more ends the run with the first frame of the streak
    config = SolverConfig()
    blanks = config.max_track_failures + extra
    frames = list(clean_seq.frames)
    first = len(frames) - blanks
    frames[first:] = [_blank_frame(clean_seq, fid) for fid in range(first, len(frames))]
    if extra:
        with pytest.raises(TrackingLost, match="no recovery") as exc:
            run_sequence(frames, clean_seq.intrinsics, config)
        assert exc.value.frame_id == first
        return
    result = run_sequence(frames, clean_seq.intrinsics, config)
    assert len(result.trajectory) == len(frames)
    assert result.records[first - 1].inliers > 0
    for rec in result.records[first:]:
        assert rec.matched == 0 and rec.keyframe_id is None


def test_run_output_holds_final_keyframe_poses_and_tracked_poses(noisy_seq):
    # a noisy run that inserts keyframes and coasts over two blank frames:
    # a keyframe's output pose is its final map pose, any other frame's is
    # the pose tracking (or coasting) gave it, both camera-to-world
    frames = list(noisy_seq.frames)
    for fid in (30, 31):
        frames[fid] = _blank_frame(noisy_seq, fid)
    result = run_sequence(frames, noisy_seq.intrinsics, SolverConfig())
    ms = result.map_state

    keyframe_records = [r for r in result.records if r.keyframe_id is not None]
    assert [r.keyframe_id for r in keyframe_records] == list(range(len(ms.keyframes)))
    assert [r.frame_id for r in keyframe_records] == ms.keyframes.tolist()
    assert len(ms.keyframes) > 2
    assert [r.matched for r in result.records[30:32]] == [0, 0]
    assert len(result.trajectory) == len(result.records) == len(frames)
    moved = 0
    for rec, pose in zip(result.records, result.trajectory.poses):
        tracked = PoseSE3(rec.R, rec.t).inverse()
        if rec.keyframe_id is None:
            expected = tracked
        else:
            k = rec.keyframe_id
            expected = PoseSE3(ms.kf_R[k], ms.kf_t[k]).inverse()
            moved += not np.array_equal(expected.t, tracked.t)
        np.testing.assert_array_equal(pose.R, expected.R)
        np.testing.assert_array_equal(pose.t, expected.t)
    assert moved > 0  # bundle adjustment moved keyframes off their tracked poses


def test_run_builds_at_most_one_pose_per_keyframe(noisy_seq, monkeypatch):
    # tracked and coasted poses, records, keyframe insertion and the output
    # trajectory stay arrays; the one PoseSE3 is the bootstrap identity
    frames = list(noisy_seq.frames)
    for fid in (30, 31):
        frames[fid] = _blank_frame(noisy_seq, fid)
    built = []
    original = PoseSE3.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PoseSE3, "__post_init__", counting)
    result = run_sequence(frames, noisy_seq.intrinsics, SolverConfig())
    coasted = sum(r.keyframe_id is None and r.matched == 0 for r in result.records)
    assert coasted == 2
    assert len(built) == 1


def test_map_bookkeeping_matches_recount_after_culls_and_rejections(monkeypatch):
    # a noisy strip whose run inserts keyframes, culls landmarks in tracking
    # and rejects observations in bundle adjustment
    seq = generate_sequence(small_scene(pixel_noise=1.0))
    config = SolverConfig()
    removed = {"culled": 0, "rejected": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            n = fn(*args, **kwargs)
            removed[key] += n
            return n

        return wrapped

    monkeypatch.setattr(estimator, "cull_landmarks", counting(cull_landmarks, "culled"))
    monkeypatch.setattr(
        estimator, "reject_outliers", counting(reject_outliers, "rejected")
    )
    ms = run_sequence(seq.frames, seq.intrinsics, config).map_state

    assert removed["culled"] > 0 and removed["rejected"] > 0
    assert len(ms.keyframes) > 2
    assert np.count_nonzero(ms.obs_kf < 0) > 0
    assert_map_consistent(ms)
    assert_map_consistent(ms, config.covisibility_min_shared)

    # dropping two landmarks in three leaves more dead rows than live ones,
    # so the arrays compact; the live rows keep their content and order,
    # and a bundle adjustment matches the same map left uncompacted
    uncompacted = copy.deepcopy(ms)
    doomed_lms = [lm for lm in ms.landmarks if lm % 3]
    doomed = np.flatnonzero(np.isin(ms.obs_lm, doomed_lms) & (ms.obs_kf >= 0))
    uncompacted.obs_kf[doomed] = -1
    kept = ~np.isin(uncompacted.landmarks, doomed_lms)
    for name in ("landmarks", "lm_pos", "lm_misses"):
        setattr(uncompacted, name, getattr(uncompacted, name)[kept])
    live = uncompacted.obs_kf >= 0
    assert 2 * np.count_nonzero(live) < live.size

    ms.remove_observations(doomed)

    assert ms.obs_kf.size == np.count_nonzero(live)
    np.testing.assert_array_equal(ms.obs_kf, uncompacted.obs_kf[live])
    np.testing.assert_array_equal(ms.obs_lm, uncompacted.obs_lm[live])
    np.testing.assert_array_equal(ms.obs_uvu, uncompacted.obs_uvu[live])
    assert_map_consistent(ms)
    last = len(ms.keyframes) - 1
    report = local_bundle_adjustment(ms, last, config)
    assert report.free_poses > 0
    assert report == local_bundle_adjustment(uncompacted, last, config)
    np.testing.assert_array_equal(ms.kf_R, uncompacted.kf_R)
    np.testing.assert_array_equal(ms.kf_t, uncompacted.kf_t)
    np.testing.assert_array_equal(ms.landmarks, uncompacted.landmarks)
    np.testing.assert_array_equal(ms.lm_pos, uncompacted.lm_pos)
    assert_map_consistent(ms)


def test_culling_removes_landmarks_as_removing_their_observations_does(monkeypatch):
    # every cull of a run deletes its landmarks directly; the same deletion
    # through remove_observations of all their rows, on a copy of the map,
    # must leave the same arrays, dead-row count and index reads, across the
    # compactions that some culls trigger (a single rejection culls here)
    seq = generate_sequence(small_scene(pixel_noise=1.0))
    config = SolverConfig(cull_misses=1)
    original = MapState.remove_landmarks
    culls, compactions = [0], [0]

    def compared(ms, rows):
        ids = ms.landmarks[rows]
        twin = copy.deepcopy(ms)
        # the twin deletes its orphans through the unpatched method
        twin.remove_landmarks = original.__get__(twin)
        twin.remove_observations(twin.observation_rows(ids))
        size = ms.obs_kf.size
        original(ms, rows)
        culls[0] += 1
        compactions[0] += ms.obs_kf.size < size
        for name in ("landmarks", "lm_pos", "lm_misses", "obs_kf", "obs_lm", "obs_uvu"):
            np.testing.assert_array_equal(getattr(ms, name), getattr(twin, name))
        assert ms._dead == twin._dead
        query = np.concatenate([ms.landmarks, ids, [-3, 10**9]])
        np.testing.assert_array_equal(
            ms.observation_rows(query), twin.observation_rows(query)
        )

    monkeypatch.setattr(MapState, "remove_landmarks", compared)
    ms = run_sequence(seq.frames, seq.intrinsics, config).map_state
    assert culls[0] > 0 and compactions[0] > 0
    assert_map_consistent(ms)


def test_far_landmark_measured_without_disparity_is_kept():
    # a landmark triangulated at 1 px disparity, later tracked as an inlier
    # with uL <= uR, becomes an ordinary observation of the new keyframe
    rng = np.random.default_rng(41)
    points = np.vstack([scatter_points(rng, 60), [[0.5, 0.2, 100.0]]])
    poses = [se3_exp(np.array([0.05 * k, 0.0, 0.0, 0.0, 0.0, 0.0])) for k in range(3)]
    frames = [frame_at(pose, points, frame_id=k) for k, pose in enumerate(poses)]
    frames[2].measurements[60, 2] = frames[2].measurements[60, 0] + 0.3
    config = SolverConfig(keyframe_gap=1)

    result = run_sequence(frames, K, config)

    assert len(result.trajectory) == 3
    assert result.records[2].keyframe_id == 2
    row = obs_row(result.map_state, 2, 60)
    assert result.map_state.obs_uvu[row, 0] < result.map_state.obs_uvu[row, 2]


def test_normal_constraint_cuts_tilt_drift_on_degenerate_scene():
    """On the near-planar scene the surface constraint must reduce mean tilt
    (out-of-plane rotation error), the drift mode it is built to anchor."""
    cfg = SceneConfig(
        trajectory_shape="line", trajectory_length=30.0, frame_rate=30.0, seed=42
    )
    seq = generate_sequence(cfg)
    base = run_sequence(
        seq.frames, seq.intrinsics,
        SolverConfig(loss=RobustLossConfig(normal_weight=0.0)),
    )
    anchored = run_sequence(seq.frames, seq.intrinsics, SolverConfig())

    def mean_tilt_deg(result):
        total = 0.0
        for est, gt in zip(result.trajectory.poses, seq.ground_truth.poses):
            err = est.R.T @ gt.R
            total += math.degrees(math.acos(min(1.0, max(-1.0, err[2, 2]))))
        return total / len(seq.ground_truth)

    assert len(base.trajectory) == cfg.frame_count
    assert len(anchored.trajectory) == cfg.frame_count
    assert mean_tilt_deg(anchored) < mean_tilt_deg(base)
