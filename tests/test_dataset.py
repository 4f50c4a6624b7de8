"""Trajectory files and dataset directories: exact round trips, hard errors."""

import hashlib
import warnings

import numpy as np
import pytest

from normalvo.config import ConfigError, RunConfig
from normalvo.dataset import (
    DATASET_FILES,
    DataFormatError,
    QuaternionNormWarning,
    load_dataset,
    load_intrinsics,
    load_trajectory,
    save_trajectory,
    write_dataset,
)
from normalvo.estimator import SolverConfig, run_sequence
from normalvo.evaluation import Trajectory
from normalvo.geometry import se3_exp
from normalvo.simulator import SceneConfig, generate_sequence


def random_trajectory(rng, n=12):
    stamps = np.cumsum(rng.uniform(0.01, 0.5, size=n))
    poses = [se3_exp(rng.uniform(-1.0, 1.0, size=6)) for _ in range(n)]
    return Trajectory(stamps, poses)


SCENE = SceneConfig(
    landmark_count=500,
    extent_x=12.0,
    extent_y=10.0,
    trajectory_shape="line",
    trajectory_length=4.0,
    frame_rate=30.0,
    seed=11,
)


@pytest.fixture(scope="module")
def sim_seq():
    return generate_sequence(SCENE)


@pytest.fixture(scope="module")
def dataset_dir(sim_seq, tmp_path_factory):
    d = tmp_path_factory.mktemp("ds") / "data"
    write_dataset(d, sim_seq, RunConfig(scene=SCENE))
    return d


# --- trajectory files ---


def test_trajectory_round_trip_is_exact(tmp_path):
    """Timestamps and translations byte-exact, rotations to machine epsilon."""
    rng = np.random.default_rng(3)
    for k in range(5):
        traj = random_trajectory(rng)
        path = tmp_path / f"t{k}.txt"
        save_trajectory(path, traj, header="test")
        back = load_trajectory(path)
        assert np.array_equal(back.timestamps, traj.timestamps)
        for a, b in zip(back.poses, traj.poses):
            assert np.array_equal(a.t, b.t)
            assert np.max(np.abs(a.R - b.R)) < 1e-14


def test_trajectory_written_quaternions_have_nonnegative_w(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "t.txt"
    save_trajectory(path, random_trajectory(rng, n=40))
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        assert float(line.split()[7]) >= 0.0


def test_trajectory_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "# a comment\n\n0.0 1 2 3 0 0 0 1\n# mid comment\n1.0 4 5 6 0 0 0 1\n"
    )
    traj = load_trajectory(path)
    assert len(traj) == 2
    assert np.array_equal(traj.poses[1].t, [4.0, 5.0, 6.0])
    assert np.array_equal(traj.poses[0].R, np.eye(3))


def test_trajectory_field_count_error_names_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0.0 1 2 3 0 0 0 1\n1.0 4 5 6\n")
    with pytest.raises(DataFormatError, match=r"t\.txt:2: expected 8 fields"):
        load_trajectory(path)


@pytest.mark.parametrize("field", [0, 2, 7])  # timestamp, ty, qw
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_trajectory_non_finite_field_error_names_line(tmp_path, field, value):
    path = tmp_path / "t.txt"
    record = "1.0 4 5 6 0 0 0 1".split()
    record[field] = value
    path.write_text("# header\n0.0 1 2 3 0 0 0 1\n" + " ".join(record) + "\n")
    with pytest.raises(DataFormatError, match=r"t\.txt:3: non-finite"):
        load_trajectory(path)


def test_trajectory_non_numeric_error_names_line(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0.0 1 2 three 0 0 0 1\n")
    with pytest.raises(DataFormatError, match=r"t\.txt:1: non-numeric"):
        load_trajectory(path)


def test_trajectory_zero_quaternion_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0.0 1 2 3 0 0 0 0\n")
    with pytest.raises(DataFormatError, match="zero quaternion"):
        load_trajectory(path)


def test_trajectory_empty_file_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# only comments\n")
    with pytest.raises(DataFormatError, match="no trajectory records"):
        load_trajectory(path)


def test_trajectory_decreasing_timestamps_rejected(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1.0 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n")
    with pytest.raises(DataFormatError, match="strictly increasing"):
        load_trajectory(path)


def test_missing_trajectory_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        load_trajectory(tmp_path / "gone.txt")


def test_off_norm_quaternion_warns_and_renormalizes(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0.0 1 2 3 0 0 0 1.001\n")
    with pytest.warns(QuaternionNormWarning, match=r"t\.txt:1"):
        traj = load_trajectory(path)
    # renormalized to a clean identity rotation
    assert np.max(np.abs(traj.poses[0].R - np.eye(3))) < 1e-12


def test_quaternion_within_tolerance_does_not_warn(tmp_path):
    path = tmp_path / "t.txt"
    q = 1.0 + 5e-7  # inside the 1e-6 read tolerance
    path.write_text(f"0.0 1 2 3 0 0 0 {q!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuaternionNormWarning)
        load_trajectory(path)


def test_ground_truth_file_is_write_idempotent(sim_seq, tmp_path):
    """Writing what the reader loaded reproduces the file byte for byte."""
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_trajectory(p1, sim_seq.ground_truth, header="ground truth")
    save_trajectory(p2, load_trajectory(p1), header="ground truth")
    assert p1.read_bytes() == p2.read_bytes()


# --- intrinsics ---


def test_intrinsics_round_trip(tmp_path, sim_seq, dataset_dir):
    K = load_intrinsics(dataset_dir / "intrinsics.txt")
    assert K == sim_seq.intrinsics


def test_intrinsics_field_count(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("500 500 320\n")
    with pytest.raises(DataFormatError, match="expected 'fx fy cx cy b'"):
        load_intrinsics(path)


def test_intrinsics_single_line_enforced(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("500 500 320 240 0.2\n500 500 320 240 0.2\n")
    with pytest.raises(DataFormatError, match="exactly one data line"):
        load_intrinsics(path)


def test_intrinsics_validation_wrapped(tmp_path):
    path = tmp_path / "intrinsics.txt"
    path.write_text("-500 500 320 240 0.2\n")
    with pytest.raises(DataFormatError, match="fx"):
        load_intrinsics(path)


# --- dataset directories ---


def tree_digest(root):
    """SHA-256 over the relative name and bytes of every file under root,
    as the benchmark digests its inputs."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize(
    "scene, digest",
    [
        (SCENE, "6eed1f41dd0e28647c1cccdeb257d6d22c61105667ff5ec2bd33961a6a54c694"),
        (
            SceneConfig(
                landmark_count=800,
                extent_x=12.0,
                extent_y=21.0,
                trajectory_length=30.0,
                seed=5,
            ),
            "570f01dbd8333c38e3214daa6a8b1fde3074b3bba5edba86e6d66a8c1ddf1581",
        ),
    ],
    ids=["line", "lawnmower-with-turns"],
)
def test_written_dataset_bytes_are_pinned(scene, digest, tmp_path):
    # every file write_dataset writes, byte for byte: the simulator and the
    # writers may change how they compute, not what they write
    d = write_dataset(tmp_path / "data", generate_sequence(scene), RunConfig(scene=scene))
    assert tree_digest(d) == digest


def test_dataset_round_trip_is_exact(sim_seq, dataset_dir):
    ds = load_dataset(dataset_dir)
    assert ds.intrinsics == sim_seq.intrinsics
    assert np.array_equal(ds.landmark_ids, sim_seq.landmark_ids)
    assert np.array_equal(ds.landmark_positions, sim_seq.landmark_positions)
    assert np.array_equal(ds.ground_truth.timestamps, sim_seq.ground_truth.timestamps)
    assert len(ds.frames) == len(sim_seq.frames)
    for loaded, src in zip(ds.frames, sim_seq.frames):
        assert loaded.frame_id == src.frame_id
        assert np.array_equal(loaded.landmark_ids, src.landmark_ids)
        assert np.array_equal(loaded.measurements, src.measurements)
        assert np.array_equal(loaded.frame_normal, src.frame_normal)
    for mask, src in zip(ds.outlier_labels, sim_seq.frames):
        assert np.array_equal(mask, src.outlier_mask)
    assert ds.config == RunConfig(scene=SCENE)


def test_estimator_agrees_between_loaded_and_in_memory_frames(sim_seq, dataset_dir):
    """File round trip must not change a single bit of the estimate."""
    ds = load_dataset(dataset_dir)
    config = SolverConfig()
    r_mem = run_sequence(sim_seq.frames, sim_seq.intrinsics, config)
    r_load = run_sequence(ds.frames, ds.intrinsics, config)
    assert np.array_equal(
        r_mem.trajectory.timestamps, r_load.trajectory.timestamps
    )
    for a, b in zip(r_mem.trajectory.poses, r_load.trajectory.poses):
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.t, b.t)


def test_missing_file_named(dataset_dir, tmp_path):
    partial = tmp_path / "partial"
    partial.mkdir()
    for name in DATASET_FILES:
        if name != "normals.csv":
            (partial / name).write_bytes((dataset_dir / name).read_bytes())
    with pytest.raises(DataFormatError, match="missing normals.csv"):
        load_dataset(partial)


def test_not_a_directory(tmp_path):
    with pytest.raises(DataFormatError, match="not a dataset directory"):
        load_dataset(tmp_path / "absent")


def _copy_dataset(src, dst):
    dst.mkdir()
    for name in DATASET_FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def _rewrite(path, old, new, count=1):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, count))


def test_obs_header_mismatch(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    _rewrite(d / "obs.csv", "frame_id,landmark_id", "frame,landmark")
    with pytest.raises(DataFormatError, match=r"obs\.csv:1: expected header"):
        load_dataset(d)


def test_obs_frame_id_out_of_range(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    with open(d / "obs.csv", "a") as fh:
        fh.write("999,0,100.0,100.0,90.0,0\n")
    with pytest.raises(DataFormatError, match=r"obs\.csv:\d+: frame_id 999"):
        load_dataset(d)


def test_obs_unknown_landmark(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    with open(d / "obs.csv", "a") as fh:
        fh.write("0,123456,100.0,100.0,90.0,0\n")
    with pytest.raises(DataFormatError, match="landmark_id 123456 not in"):
        load_dataset(d)


def test_obs_bad_outlier_flag(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    lid = int(load_dataset(dataset_dir).landmark_ids[0])
    with open(d / "obs.csv", "a") as fh:
        fh.write(f"0,{lid},100.0,100.0,90.0,2\n")
    with pytest.raises(DataFormatError, match="is_outlier must be 0 or 1"):
        load_dataset(d)


def test_obs_duplicate_observation(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    first_row = (d / "obs.csv").read_text().splitlines()[1]
    with open(d / "obs.csv", "a") as fh:
        fh.write(first_row + "\n")
    with pytest.raises(DataFormatError, match="frame 0"):
        load_dataset(d)


def test_normals_duplicate_frame(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    with open(d / "normals.csv", "a") as fh:
        fh.write("0,0.0,0.0,-1.0\n")
    with pytest.raises(DataFormatError, match="duplicate frame_id 0"):
        load_dataset(d)


def test_landmarks_duplicate_id(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    first_row = (d / "landmarks.csv").read_text().splitlines()[1]
    with open(d / "landmarks.csv", "a") as fh:
        fh.write(first_row + "\n")
    with pytest.raises(DataFormatError, match="duplicate landmark ids"):
        load_dataset(d)


def test_column_count_error_names_line(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    with open(d / "landmarks.csv", "a") as fh:
        fh.write("7777,1.0,2.0\n")
    with pytest.raises(DataFormatError, match=r"landmarks\.csv:\d+: expected 4 columns"):
        load_dataset(d)


def test_broken_config_surfaces_as_config_error(dataset_dir, tmp_path):
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    (d / "config_used.txt").write_text("nonsense_key = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_dataset(d)


def test_frames_without_observations_load_empty(dataset_dir, tmp_path):
    """A frame absent from obs.csv still exists, with zero measurements."""
    d = _copy_dataset(dataset_dir, tmp_path / "d")
    lines = (d / "obs.csv").read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if not ln.startswith("3,")]
    (d / "obs.csv").write_text("\n".join(kept) + "\n")
    ds = load_dataset(d)
    assert ds.frames[3].landmark_ids.size == 0
    assert ds.frames[3].measurements.shape == (0, 3)
    assert ds.outlier_labels[3].size == 0
    assert ds.frames[3].frame_normal is not None
