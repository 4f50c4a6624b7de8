from __future__ import annotations

import numpy as np
import pytest

from normalvo.geometry import Intrinsics, PoseSE3, so3_exp
from normalvo.simulator import (
    DegenerateCloud,
    SceneConfig,
    _path_segments,
    _pose_at,
    estimate_frame_normal,
    generate_scene,
    generate_sequence,
    generate_trajectory,
    render_observations,
)
from pose_reference import pose_matrix


def small_cfg(**kw) -> SceneConfig:
    base = dict(
        landmark_count=600,
        extent_x=20.0,
        extent_y=14.0,
        trajectory_length=20.0,
        speed=2.0,
        frame_rate=10.0,
        seed=5,
    )
    base.update(kw)
    return SceneConfig(**base)


# --- plane fit --------------------------------------------------------------


def test_normal_of_exact_horizontal_plane():
    rng = np.random.default_rng(0)
    pts = np.column_stack(
        [rng.uniform(-3, 3, 200), rng.uniform(-3, 3, 200), np.full(200, 5.0)]
    )
    n, score = estimate_frame_normal(pts)
    np.testing.assert_allclose(n, [0.0, 0.0, -1.0], atol=1e-12)
    assert score < 1e-12


def test_normal_of_tilted_plane():
    # points satisfying x + z = 4 -> normal prop to (1, 0, 1), z-negative rep
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, 300)
    y = rng.uniform(-2, 2, 300)
    pts = np.column_stack([x, y, 4.0 - x])
    n, _ = estimate_frame_normal(pts)
    np.testing.assert_allclose(n, [-np.sqrt(0.5), 0.0, -np.sqrt(0.5)], atol=1e-9)


def test_normal_noisy_plane_accuracy():
    rng = np.random.default_rng(2)
    pts = np.column_stack(
        [
            rng.uniform(-4, 4, 500),
            rng.uniform(-2, 2, 500),
            5.0 + rng.normal(0, 0.01, 500),
        ]
    )
    n, score = estimate_frame_normal(pts)
    angle = np.degrees(np.arccos(min(1.0, -n[2])))
    assert angle < 0.5
    assert 0.0 < score < 0.01


def test_normal_rotation_equivariance():
    rng = np.random.default_rng(3)
    pts = np.column_stack(
        [rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400), rng.normal(5, 0.02, 400)]
    )
    n0, s0 = estimate_frame_normal(pts)
    R = so3_exp(np.array([0.2, -0.1, 0.3]))
    n1, s1 = estimate_frame_normal(pts @ R.T)
    expected = R @ n0
    if expected[2] > 0:
        expected = -expected
    np.testing.assert_allclose(n1, expected, atol=1e-9)
    assert abs(s0 - s1) < 1e-9


def test_normal_rejects_degenerate_clouds():
    with pytest.raises(DegenerateCloud):
        estimate_frame_normal(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]))
    line = np.outer(np.linspace(0, 1, 50), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateCloud):
        estimate_frame_normal(line)


# --- scene ------------------------------------------------------------------


def test_scene_fitted_normal_close_to_truth():
    cfg = SceneConfig(landmark_count=2000, extent_x=20.0, extent_y=5.0, roughness=0.01)
    pts = generate_scene(cfg)
    n, _ = estimate_frame_normal(pts)
    cos = abs(np.dot(n, [0.0, 0.0, 1.0]))  # the noiseless plane is z = const
    assert np.degrees(np.arccos(min(1.0, cos))) < 0.2


def test_scene_zero_roughness_is_coplanar():
    cfg = small_cfg(roughness=0.0, plane_height=1.5)
    pts = generate_scene(cfg)
    assert np.max(np.abs(pts[:, 2] - 1.5)) == 0.0


def test_scene_deterministic():
    cfg = small_cfg()
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    assert np.array_equal(a, b)


def test_scene_respects_extent():
    pts = generate_scene(small_cfg())
    assert pts[:, 0].min() >= 0.0 and pts[:, 0].max() <= 20.0
    assert pts[:, 1].min() >= 0.0 and pts[:, 1].max() <= 14.0


# --- trajectory -------------------------------------------------------------


def test_straight_line_spacing():
    cfg = small_cfg(trajectory_shape="line", speed=1.0, frame_rate=30.0,
                    trajectory_length=5.0)
    _, t = generate_trajectory(cfg)
    gaps = np.linalg.norm(np.diff(t, axis=0), axis=1)
    np.testing.assert_allclose(gaps, 1.0 / 30.0, atol=1e-12)


def test_lawnmower_heading_reverses_once_continuously():
    cfg = small_cfg(trajectory_length=35.0, speed=2.0, frame_rate=20.0)
    R, _ = generate_trajectory(cfg)
    headings = np.arctan2(R[:, 1, 0], R[:, 0, 0])
    unwrapped = np.unwrap(headings)
    # never jumps more than one frame's worth of turn
    assert np.max(np.abs(np.diff(unwrapped))) < 0.2
    # starts along +x, ends along -x, monotone through the single turn
    assert abs(unwrapped[0]) < 1e-12
    assert abs(abs(unwrapped[-1]) - np.pi) < 1e-6
    reversals = np.sum(np.abs(np.diff(np.round(unwrapped / np.pi))) > 0)
    assert reversals == 1


def test_first_pose_is_downward_looking_at_lane_start():
    R, t = generate_trajectory(small_cfg())
    np.testing.assert_allclose(R[0][:, 2], [0.0, 0.0, -1.0], atol=0)
    assert t[0][2] == small_cfg().altitude


def test_sequence_anchored_to_first_camera():
    cfg = small_cfg()
    seq = generate_sequence(cfg)
    np.testing.assert_allclose(pose_matrix(seq.ground_truth.poses[0]), np.eye(4), atol=1e-12)
    # ground plane sits at depth ~altitude in front of the first camera
    assert abs(np.mean(seq.landmark_positions[:, 2]) - cfg.altitude) < 0.3


# --- rendering --------------------------------------------------------------


def test_render_noiseless_matches_projection():
    cfg = small_cfg(pixel_noise=0.0, outlier_rate=0.0, roughness=0.0)
    seq = generate_sequence(cfg)
    from normalvo.geometry import project

    for frame in seq.frames[:5]:
        pose = seq.ground_truth.poses[frame.frame_id]
        w2c = pose.inverse()
        pts = seq.landmark_positions[frame.landmark_ids]
        clean = project(cfg.intrinsics, pts @ w2c.R.T + w2c.t)
        np.testing.assert_allclose(frame.measurements, clean, atol=1e-9)
        assert not frame.outlier_mask.any()


def test_render_culls_points_behind_camera():
    cfg = small_cfg(pixel_noise=0.0, outlier_rate=0.0)
    landmarks = np.array([[0.0, 0.0, 4.0], [0.0, 0.0, -4.0], [0.1, 0.1, 3.0]])
    rng = np.random.default_rng(0)
    ids, meas, mask, pc = render_observations(
        landmarks, np.eye(3), np.zeros(3), cfg, rng
    )
    assert 1 not in ids
    assert np.all(pc[:, 2] > 0)


def test_render_outlier_count_deterministic_and_plausible():
    cfg = small_cfg(outlier_rate=0.05, landmark_count=2000, seed=11)
    seq1 = generate_sequence(cfg)
    seq2 = generate_sequence(cfg)
    counts1 = [f.outlier_mask.sum() for f in seq1.frames]
    counts2 = [f.outlier_mask.sum() for f in seq2.frames]
    assert counts1 == counts2
    n_obs = sum(len(f.landmark_ids) for f in seq1.frames)
    n_out = sum(counts1)
    assert 0.03 < n_out / n_obs < 0.07


def test_render_outliers_have_configured_magnitude():
    cfg = small_cfg(pixel_noise=0.0, outlier_rate=0.2, outlier_magnitude=50.0)
    seq = generate_sequence(cfg)
    from normalvo.geometry import project

    frame = next(f for f in seq.frames if f.outlier_mask.any())
    pose = seq.ground_truth.poses[frame.frame_id].inverse()
    pts = seq.landmark_positions[frame.landmark_ids]
    clean = project(cfg.intrinsics, pts @ pose.R.T + pose.t)
    err = np.linalg.norm(frame.measurements - clean, axis=1)
    np.testing.assert_allclose(err[frame.outlier_mask], 50.0, atol=1e-9)
    np.testing.assert_allclose(err[~frame.outlier_mask], 0.0, atol=1e-9)


def test_rendered_disparities_always_valid():
    seq = generate_sequence(small_cfg(outlier_rate=0.1))
    for frame in seq.frames:
        d = frame.measurements[:, 0] - frame.measurements[:, 2]
        assert np.all(d > 0.5)


def test_sequence_bit_identical_across_runs():
    cfg = small_cfg(seed=123)
    a = generate_sequence(cfg)
    b = generate_sequence(cfg)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.measurements, fb.measurements)
        assert np.array_equal(fa.landmark_ids, fb.landmark_ids)
        assert np.array_equal(fa.frame_normal, fb.frame_normal)
    for pa, pb in zip(a.ground_truth.poses, b.ground_truth.poses):
        assert np.array_equal(pose_matrix(pa), pose_matrix(pb))


def reference_sequence(cfg):
    """Ground truth and frames by one PoseSE3 per frame: each field pose
    composed with the inverse of the first, and each frame rendered from the
    landmarks moved into its camera by that pose's inverse."""
    segments = _path_segments(cfg)
    available = sum(seg[-1] for seg in segments)
    ds = cfg.speed / cfg.frame_rate
    field_poses = [
        PoseSE3(*_pose_at(segments, min(i * ds, available - 1e-9), cfg.altitude))
        for i in range(cfg.frame_count)
    ]
    anchor = field_poses[0].inverse()
    poses = [anchor.compose(p) for p in field_poses]
    landmarks = generate_scene(cfg) @ anchor.R.T + anchor.t
    frames = []
    for i, pose in enumerate(poses):
        w2c = pose.inverse()
        # camera-frame points seen from the identity pose render unchanged
        frames.append(render_observations(
            landmarks @ w2c.R.T + w2c.t, np.eye(3), np.zeros(3), cfg,
            np.random.default_rng([cfg.seed, 1, i]),
        ))
    return poses, landmarks, frames


@pytest.mark.parametrize(
    "scene",
    [
        dict(trajectory_shape="line", trajectory_length=12.0, seed=3),
        dict(seed=5),  # the lawnmower's first lane and part of its turn
        dict(seed=29),
    ],
)
def test_ground_truth_is_bit_identical_to_per_frame_poses(scene):
    cfg = small_cfg(**scene)
    seq = generate_sequence(cfg)
    poses, landmarks, frames = reference_sequence(cfg)
    assert np.array_equal(seq.ground_truth.R, [p.R for p in poses])
    assert np.array_equal(seq.ground_truth.t, [p.t for p in poses])
    assert np.array_equal(seq.landmark_positions, landmarks)
    assert len(seq.frames) == len(frames)
    for frame, (ids, meas, mask, _) in zip(seq.frames, frames):
        assert np.array_equal(frame.landmark_ids, ids)
        assert np.array_equal(frame.measurements, meas)
        assert np.array_equal(frame.outlier_mask, mask)


def test_generate_sequence_builds_no_pose(monkeypatch):
    built = []
    original = PoseSE3.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PoseSE3, "__post_init__", counting)
    seq = generate_sequence(small_cfg())
    assert len(seq.ground_truth) == small_cfg().frame_count
    assert built == []


def test_viewing_axis_scatter_far_below_lateral():
    cfg = small_cfg(roughness=0.01, pixel_noise=0.0, outlier_rate=0.0)
    seq = generate_sequence(cfg)
    frame = seq.frames[0]
    pose = seq.ground_truth.poses[0].inverse()
    pc = seq.landmark_positions[frame.landmark_ids] @ pose.R.T + pose.t
    depth_sd = np.std(pc[:, 2])
    lateral_sd = max(np.std(pc[:, 0]), np.std(pc[:, 1]))
    assert depth_sd <= 0.011 * 1.2
    assert lateral_sd > 100 * depth_sd


def test_frame_normal_points_toward_camera_and_nearly_unit():
    seq = generate_sequence(small_cfg())
    for frame in seq.frames[:20]:
        n = frame.frame_normal
        assert abs(np.linalg.norm(n) - 1.0) < 1e-9
        assert n[2] < 0


def test_frame_count_matches_length():
    cfg = small_cfg(trajectory_length=12.0, speed=2.0, frame_rate=10.0)
    assert cfg.frame_count == 61
    assert len(generate_sequence(cfg).frames) == 61


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(outlier_rate=0.9)
    with pytest.raises(ValueError):
        small_cfg(trajectory_shape="spiral")
    with pytest.raises(ValueError):
        small_cfg(speed=0.0)
