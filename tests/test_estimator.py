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
    Keyframe,
    MapState,
    SolverConfig,
    TrackingLost,
    TrackResult,
    _ba_assemble,
    _ba_linearize,
    _ba_solve,
    _BAProblem,
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
from normalvo.evaluation import Trajectory, ate
from normalvo.factors import (
    RobustLossConfig,
    huber,
    make_tangent_basis,
    normal_jacobian,
    normal_residual,
    reprojection_jacobians,
)
from normalvo.geometry import (
    Intrinsics,
    PoseSE3,
    project,
    se3_exp,
    so3_exp,
    transform_point,
    update_poses,
)
from normalvo.simulator import SceneConfig, generate_sequence

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
        ms.keyframes.append(
            Keyframe(
                id=kf_id,
                frame_id=kf_id,
                timestamp=float(kf_id),
                pose=pose,
                normal=normal,
                basis=None if normal is None else make_tangent_basis(normal),
                fixed=kf_id == 0,
            )
        )
    if n_w is not None:
        ms.world_normal = n_w.copy()
    ms.add_landmarks(np.arange(n), points)
    meas = np.zeros((2, n, 3))
    for i, p in enumerate(points):
        for kf_id, pose in enumerate([pose0, pose1]):
            meas[kf_id, i] = project(K, pose.R @ p + pose.t)
            if pixel_noise:
                meas[kf_id, i] += rng.normal(0.0, pixel_noise, 3)
    for kf in ms.keyframes:
        ms.add_observations(kf.id, np.arange(n), meas[kf.id])
        kf.reference_inliers = n
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
    assert ms.lm_misses.shape == (n,) and ms.lm_nobs.shape == (n,)
    assert ms.lm_nobs.tolist() == [recount[i] for i in ms.landmarks.tolist()]


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
    init = constant_velocity_init()
    assert np.array_equal(init.R, np.eye(3))
    assert np.array_equal(init.t, np.zeros(3))


def test_motion_model_with_single_pose_holds_it():
    prev = se3_exp(np.array([0.1, 0.2, -0.3, 0.02, -0.01, 0.03]))
    init = constant_velocity_init(prev)
    np.testing.assert_array_equal(init.R, prev.R)
    np.testing.assert_array_equal(init.t, prev.t)


def test_motion_model_extrapolates_constant_twist():
    a = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.02, -0.015]))
    step = se3_exp(np.array([0.24, 0.0, 0.0, 0.0, 0.0, 0.03]))
    b = step.compose(a)
    init = constant_velocity_init(b, a)
    expect = step.compose(b)
    np.testing.assert_allclose(init.R, expect.R, rtol=0, atol=1e-12)
    np.testing.assert_allclose(init.t, expect.t, rtol=0, atol=1e-12)


def test_motion_model_validates_one_pose(monkeypatch):
    a = se3_exp(np.array([0.05, -0.02, 0.01, 0.01, 0.02, -0.015]))
    b = se3_exp(np.array([0.24, 0.0, 0.0, 0.0, 0.0, 0.03])).compose(a)
    built = []
    original = PoseSE3.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PoseSE3, "__post_init__", counting)
    init = constant_velocity_init(b, a)
    assert built == [init]


def test_motion_model_keeps_rotation_orthonormal_over_long_recursions():
    """pose -> extrapolation -> pose doubles orthonormality error per step
    unless the rotation is projected back onto SO(3); run the recursion long
    enough that an unprojected implementation would have blown past the
    constructor's validity gate."""
    rng = np.random.default_rng(4)
    a = se3_exp(rng.normal(size=6) * 0.1)
    b = se3_exp(rng.normal(size=6) * 0.1)
    for _ in range(400):
        a, b = b, constant_velocity_init(b, a)
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

    np.testing.assert_allclose(result.pose.R, w2c.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.pose.t, w2c.t, rtol=0, atol=1e-6)
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
    assert np.array_equal(result.pose.R, np.eye(3))
    assert np.array_equal(result.pose.t, np.zeros(3))
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
    np.testing.assert_allclose(result.pose.t, w2c.t, rtol=0, atol=0.02)


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

    np.testing.assert_allclose(result.pose.R, w2c.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.pose.t, w2c.t, rtol=0, atol=1e-6)
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
    np.testing.assert_allclose(result.pose.t, w2c.t, rtol=0, atol=1e-8)


def reference_track_frame(map_state, frame, config, prev_pose, prev_prev_pose):
    """Tracking as the package computed it while it held its pose as a
    one-row stack: every evaluation gathers the pose once per point, the
    pose Jacobian comes from reprojection_jacobians (its point Jacobian
    discarded), and the pose is updated as a (1, 3, 3), (1, 3) stack.
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

    init = constant_velocity_init(prev_pose, prev_prev_pose)
    R, t = init.R[None], init.t[None]
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
        np.testing.assert_allclose(result.pose.R, pose.R, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.pose.t, pose.t, rtol=0, atol=1e-9)
        assert result.cost == pytest.approx(cost, rel=1e-12)
        compared.append((outlier_ids.size, frame.frame_normal is not None))
        return result

    monkeypatch.setattr(estimator, "track_frame", both)
    run_sequence(seq.frames, seq.intrinsics, config)

    assert len(compared) == len(seq.frames) - 1
    assert sum(n for n, _ in compared) >= len(compared)  # outliers were met
    assert all(has_normal for _, has_normal in compared)


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
    original_evaluate = estimator._evaluate
    original_solve = np.linalg.solve

    def recording_evaluate(*args, **kwargs):
        ev = original_evaluate(*args, **kwargs)
        costs.append(ev.cost)
        return ev

    def recording_solve(a, b):
        damped.append(np.array(a))
        return original_solve(a, b)

    monkeypatch.setattr(estimator, "_evaluate", recording_evaluate)
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
        assert (result.pose.R @ close[0] + result.pose.t)[2] > 0.0


# --- landmark culling ---------------------------------------------------------


def test_cull_retires_persistently_rejected_landmarks():
    config = SolverConfig(cull_misses=3)
    rng = np.random.default_rng(8)
    points = scatter_points(rng, 3)
    ms = landmark_map(points, config)
    ms.keyframes.append(
        Keyframe(id=0, frame_id=0, timestamp=0.0, pose=PoseSE3.identity())
    )
    ms.add_observations(0, np.arange(3), project(K, points))

    reject = TrackResult(
        pose=PoseSE3.identity(),
        inlier_ids=np.array([0, 1]),
        outlier_ids=np.array([2]),
        matched=3,
        cost=0.0,
    )
    assert cull_landmarks(ms, reject, config) == 0
    assert cull_landmarks(ms, reject, config) == 0
    assert ms.lm_misses[landmark_row(ms, 2)] == 2

    # one clean re-acceptance pardons the streak
    pardon = TrackResult(
        pose=PoseSE3.identity(),
        inlier_ids=np.array([2]),
        outlier_ids=np.array([], dtype=int),
        matched=3,
        cost=0.0,
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
    kf = Keyframe(id=0, frame_id=10, timestamp=1.0, pose=PoseSE3.identity())
    kf.reference_inliers = 100
    ms.keyframes.append(kf)
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

    kf = insert_keyframe(ms, frame, PoseSE3.identity(), (), config)

    assert kf.id == 0 and kf.fixed
    assert set(ms.landmarks) == set(range(20))
    for i in range(20):
        np.testing.assert_allclose(position(ms, i), near[i], rtol=0, atol=1e-9)
    np.testing.assert_allclose(ms.world_normal, n0, rtol=0, atol=1e-15)
    assert kf.reference_inliers == 20
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
    assert not kf1.fixed
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
        ms.keyframes.append(
            Keyframe(id=k, frame_id=k, timestamp=float(k), pose=PoseSE3.identity())
        )
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
    ms.keyframes.append(
        Keyframe(id=0, frame_id=0, timestamp=0.0, pose=PoseSE3.identity(), fixed=True)
    )
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
    assert ms.lm_nobs[landmark_row(ms, 0)] == 1
    ms.remove_observations([row])  # already dead: nothing left to count
    assert ms.lm_nobs[landmark_row(ms, 0)] == 1
    assert observers(ms, 0) == {1}
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


# --- bundle adjustment ----------------------------------------------------------


def test_ba_damped_step_matches_dense_solve():
    # the Schur solve must equal solving the whole damped system at once,
    # H + lam diag(H), with the pose blocks damped like the landmark ones
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(
        config, n=12, seed=24, with_normal=True, pixel_noise=0.5
    )
    ms.keyframes.append(
        Keyframe(
            id=2,
            frame_id=2,
            timestamp=2.0,
            pose=se3_exp(0.5 * SECOND_TWIST).compose(poses[1]),
        )
    )
    points = ms.lm_pos.copy()
    pose2 = ms.keyframes[2].pose
    ms.add_observations(2, np.arange(12), project(K, points @ pose2.R.T + pose2.t))
    problem = _BAProblem(ms, [0, 1, 2], config)
    assert problem.nw_active and len(problem.free_ids) == 2
    Hpp, gp, Hll, gl, W = _ba_assemble(problem, *_ba_linearize(problem))
    P, Lb = Hpp.shape[0], Hll.shape[0]
    H = np.zeros((6 * P + 3 * Lb, 6 * P + 3 * Lb))
    for p in range(P):
        H[6 * p : 6 * p + 6, 6 * p : 6 * p + 6] = Hpp[p]
    for lm in range(Lb):
        at = 6 * P + 3 * lm
        H[at : at + 3, at : at + 3] = Hll[lm]
    H[: 6 * P, 6 * P :] = W
    H[6 * P :, : 6 * P] = W.T
    g = np.concatenate([gp.ravel(), gl.ravel()])

    for lam in (0.0, 0.5, 30.0):
        dp, dl = _ba_solve(Hpp, gp, Hll, gl, W, lam)
        dense = np.linalg.solve(H + lam * np.diag(np.diag(H)), -g)
        atol = 1e-9 * np.max(np.abs(dense))
        np.testing.assert_allclose(dp.ravel(), dense[: 6 * P], rtol=0, atol=atol)
        np.testing.assert_allclose(dl.ravel(), dense[6 * P :], rtol=0, atol=atol)


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
    np.testing.assert_array_equal(ms.keyframes[0].pose.R, np.eye(3))
    np.testing.assert_array_equal(ms.keyframes[1].pose.R, poses[1].R)
    np.testing.assert_array_equal(ms.keyframes[1].pose.t, poses[1].t)
    for i in range(40):
        np.testing.assert_array_equal(position(ms, i), points[i])


def test_ba_landmark_only_recovery_with_all_poses_fixed():
    config = SolverConfig()
    ms, points, _ = two_keyframe_map(config, n=40, seed=12)
    ms.keyframes[1].fixed = True
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
    ms.keyframes[1].pose = se3_exp(twist).compose(true_pose1)

    report = local_bundle_adjustment(ms, 1, config)

    np.testing.assert_array_equal(ms.keyframes[0].pose.R, np.eye(3))
    np.testing.assert_array_equal(ms.keyframes[0].pose.t, np.zeros(3))
    np.testing.assert_allclose(ms.keyframes[1].pose.R, true_pose1.R, rtol=0, atol=1e-6)
    np.testing.assert_allclose(ms.keyframes[1].pose.t, true_pose1.t, rtol=0, atol=1e-6)
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
    np.testing.assert_allclose(ms.keyframes[1].pose.t, poses[1].t, rtol=0, atol=1e-6)
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
        kf = map_state.keyframes[kf_id]
        for obs_id in np.flatnonzero(map_state.obs_kf == kf_id):
            p = position(map_state, int(map_state.obs_lm[obs_id]))
            r = (
                project(K, transform_point(kf.pose, p))
                - map_state.obs_uvu[obs_id]
            ) * inv_sigma
            total += float(huber(np.linalg.norm(r), config.loss.huber_delta_repro)[0])
        if (
            config.loss.normal_weight > 0.0
            and kf.basis is not None
            and map_state.world_normal is not None
        ):
            rn = sqrt_lam * normal_residual(
                kf.basis, kf.pose.R, map_state.world_normal, kf.normal
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
        np.testing.assert_array_equal(problem.R[row], ms.keyframes[k].pose.R)
        np.testing.assert_array_equal(problem.t[row], ms.keyframes[k].pose.t)
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
    solo.keyframes.append(
        Keyframe(
            id=0,
            frame_id=2,
            timestamp=2.0,
            pose=result.pose,
            normal=normal,
            basis=make_tangent_basis(normal),
        )
    )
    solo.add_landmarks(ids, points)
    solo.add_observations(0, ids, meas)
    assert result.cost == pytest.approx(reference_map_cost(solo, config), rel=1e-12)


def test_map_cost_of_a_map_without_observations_is_its_normal_terms():
    config = SolverConfig()
    ms, _, poses = two_keyframe_map(config, n=5, seed=17, with_normal=True)
    ms.keyframes[1].pose = se3_exp(np.array([0.0, 0.0, 0.0, 0.01, 0.0, 0.0])).compose(
        poses[1]
    )
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


def gt_trajectory(seq):
    return Trajectory(seq.timestamps, list(seq.poses))


def test_run_sequence_recovers_clean_scene(clean_seq):
    result = run_sequence(clean_seq.frames, clean_seq.intrinsics, SolverConfig())
    assert len(result.trajectory) == clean_seq.config.frame_count
    report = ate(result.trajectory, gt_trajectory(clean_seq), S=PoseSE3.identity())
    assert report.rmse < 1e-6


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
        fid, float(seq.timestamps[fid]), np.zeros(0, dtype=int), np.zeros((0, 3))
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
    report = ate(result.trajectory, gt_trajectory(clean_seq), S=PoseSE3.identity())
    assert report.rmse < 1e-6


def test_run_sequence_reports_first_frame_of_lost_streak(clean_seq):
    frames = list(clean_seq.frames)
    for fid in range(20, 32):  # longer than the coasting allowance
        frames[fid] = _blank_frame(clean_seq, fid)
    with pytest.raises(TrackingLost, match="no recovery") as exc:
        run_sequence(frames, clean_seq.intrinsics, SolverConfig())
    assert exc.value.frame_id == 20


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
    for name in ("landmarks", "lm_pos", "lm_misses", "lm_nobs"):
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
    for a, b in zip(ms.keyframes, uncompacted.keyframes):
        np.testing.assert_array_equal(a.pose.matrix(), b.pose.matrix())
    np.testing.assert_array_equal(ms.landmarks, uncompacted.landmarks)
    np.testing.assert_array_equal(ms.lm_pos, uncompacted.lm_pos)
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
        for est, gt in zip(result.trajectory.poses, seq.poses):
            err = est.R.T @ gt.R
            total += math.degrees(math.acos(min(1.0, max(-1.0, err[2, 2]))))
        return total / len(seq.poses)

    assert len(base.trajectory) == cfg.frame_count
    assert len(anchored.trajectory) == cfg.frame_count
    assert mean_tilt_deg(anchored) < mean_tilt_deg(base)
