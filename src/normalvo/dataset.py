"""Plain-text dataset directories and trajectory files.

A dataset directory holds six files:

* ``intrinsics.txt``: one line, ``fx fy cx cy b``.
* ``traj_gt.txt``: ground-truth trajectory (format below).
* ``landmarks.csv``: columns ``id,x,y,z``, world frame.
* ``obs.csv``: columns ``frame_id,landmark_id,uL,v,uR,is_outlier``.
* ``normals.csv``: columns ``frame_id,nx,ny,nz``, measured camera-frame
  surface normal of each frame.
* ``config_used.txt``: the full flat config that produced the data.

Trajectory files carry one ``timestamp tx ty tz qx qy qz qw`` record per
line: camera-to-world, quaternion in (x, y, z, w) order, written with
w >= 0. ``#`` starts a comment. A quaternion whose norm is off by more than
1e-6 is renormalized with a warning; parse failures name file and line.

Every float is written with 17 significant digits, so a read-back reproduces
the values bit for bit.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, format_config, format_float, load_config
from .estimator import FrameData
from .evaluation import Trajectory
from .geometry import Intrinsics, PoseSE3, quat_to_rotation, rotation_to_quat

QUAT_NORM_TOL = 1e-6

DATASET_FILES = (
    "intrinsics.txt",
    "traj_gt.txt",
    "landmarks.csv",
    "obs.csv",
    "normals.csv",
    "config_used.txt",
)


class DataFormatError(ValueError):
    """A file that does not parse; the message carries file and line."""


class QuaternionNormWarning(UserWarning):
    """An input quaternion was off unit length beyond the read tolerance."""


# --- trajectory files ---


def save_trajectory(path, trajectory: Trajectory, header: str = "") -> None:
    """Write camera-to-world records, one pose per line."""
    lines = [f"# {h}" for h in header.splitlines()]
    lines.append("# timestamp tx ty tz qx qy qz qw")
    for stamp, pose in zip(trajectory.timestamps, trajectory.poses):
        q = rotation_to_quat(pose.R)
        fields = [stamp, *pose.t, *q]
        lines.append(" ".join(format_float(v) for v in fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}") from err
    stamps = []
    poses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise DataFormatError(
                f"{path}:{lineno}: expected 8 fields "
                f"(timestamp tx ty tz qx qy qz qw), got {len(parts)}"
            )
        try:
            values = np.array([float(p) for p in parts])
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric field in {line!r}"
            ) from None
        if not np.isfinite(values).all():
            raise DataFormatError(f"{path}:{lineno}: non-finite field in {line!r}")
        q = values[4:8]
        norm = float(np.linalg.norm(q))
        if norm == 0.0:
            raise DataFormatError(f"{path}:{lineno}: zero quaternion")
        if abs(norm - 1.0) > QUAT_NORM_TOL:
            warnings.warn(
                f"{path}:{lineno}: quaternion norm {norm:.9g}, renormalizing",
                QuaternionNormWarning,
                stacklevel=2,
            )
        stamps.append(values[0])
        poses.append(PoseSE3(quat_to_rotation(q), values[1:4]))
    if not poses:
        raise DataFormatError(f"{path}: no trajectory records")
    try:
        return Trajectory(np.array(stamps), poses)
    except ValueError as err:
        raise DataFormatError(f"{path}: {err}") from err


# --- dataset directories ---


@dataclass
class Dataset:
    """A loaded dataset directory, ready to feed the estimator.

    ``frames[i]`` pairs with ``ground_truth`` record i; ``outlier_labels[i]``
    is a boolean mask aligned with ``frames[i].landmark_ids`` marking the
    measurements the generator corrupted (evaluation-only knowledge, never
    shown to the estimator).
    """

    intrinsics: Intrinsics
    ground_truth: Trajectory
    frames: list
    outlier_labels: list
    landmark_ids: np.ndarray
    landmark_positions: np.ndarray
    config: RunConfig


def write_dataset(dirpath, sequence, cfg: RunConfig) -> Path:
    """Write a simulated sequence to a dataset directory (created if needed)."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)

    K = sequence.intrinsics
    (d / "intrinsics.txt").write_text(
        " ".join(format_float(v) for v in (K.fx, K.fy, K.cx, K.cy, K.b)) + "\n",
        encoding="utf-8",
    )
    save_trajectory(
        d / "traj_gt.txt",
        Trajectory(sequence.timestamps, list(sequence.poses)),
        header="ground truth",
    )

    with open(d / "landmarks.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "x", "y", "z"])
        for lid, pos in zip(sequence.landmark_ids, sequence.landmark_positions):
            writer.writerow([int(lid), *(format_float(v) for v in pos)])

    with open(d / "obs.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame_id", "landmark_id", "uL", "v", "uR", "is_outlier"])
        for frame in sequence.frames:
            for lid, meas, bad in zip(
                frame.landmark_ids, frame.measurements, frame.outlier_mask
            ):
                writer.writerow(
                    [
                        int(frame.frame_id),
                        int(lid),
                        *(format_float(v) for v in meas),
                        int(bad),
                    ]
                )

    with open(d / "normals.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame_id", "nx", "ny", "nz"])
        for frame in sequence.frames:
            writer.writerow(
                [int(frame.frame_id)]
                + [format_float(v) for v in frame.frame_normal]
            )

    (d / "config_used.txt").write_text(format_config(cfg), encoding="utf-8")
    return d


def _csv_rows(path: Path, header: tuple):
    """Yield (lineno, row) for every data row, after checking the header."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}") from err
    rows = list(csv.reader(text.splitlines()))
    if not rows or tuple(rows[0]) != header:
        raise DataFormatError(
            f"{path}:1: expected header {','.join(header)!r}"
        )
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
            )
        yield lineno, row


def _field(path: Path, lineno: int, text: str, kind, label: str):
    try:
        return kind(text)
    except ValueError:
        raise DataFormatError(
            f"{path}:{lineno}: bad {label} value {text!r}"
        ) from None


def load_intrinsics(path) -> Intrinsics:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}") from err
    data_lines = [
        (n, ln.strip())
        for n, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if len(data_lines) != 1:
        raise DataFormatError(f"{path}: expected exactly one data line")
    lineno, line = data_lines[0]
    parts = line.split()
    if len(parts) != 5:
        raise DataFormatError(
            f"{path}:{lineno}: expected 'fx fy cx cy b', got {len(parts)} fields"
        )
    values = [_field(path, lineno, p, float, "intrinsics") for p in parts]
    try:
        return Intrinsics(*values)
    except ValueError as err:
        raise DataFormatError(f"{path}:{lineno}: {err}") from err


def load_dataset(dirpath) -> Dataset:
    d = Path(dirpath)
    if not d.is_dir():
        raise DataFormatError(f"{d}: not a dataset directory")
    for fname in DATASET_FILES:
        if not (d / fname).is_file():
            raise DataFormatError(f"{d}: missing {fname}")

    intrinsics = load_intrinsics(d / "intrinsics.txt")
    ground_truth = load_trajectory(d / "traj_gt.txt")
    cfg = load_config(d / "config_used.txt")
    frame_count = len(ground_truth)

    lm_path = d / "landmarks.csv"
    lm_ids = []
    lm_pos = []
    for lineno, row in _csv_rows(lm_path, ("id", "x", "y", "z")):
        lm_ids.append(_field(lm_path, lineno, row[0], int, "id"))
        lm_pos.append(
            [_field(lm_path, lineno, v, float, "coordinate") for v in row[1:]]
        )
    if len(set(lm_ids)) != len(lm_ids):
        raise DataFormatError(f"{lm_path}: duplicate landmark ids")
    known_ids = set(lm_ids)

    obs_path = d / "obs.csv"
    per_frame_ids = [[] for _ in range(frame_count)]
    per_frame_meas = [[] for _ in range(frame_count)]
    per_frame_bad = [[] for _ in range(frame_count)]
    header = ("frame_id", "landmark_id", "uL", "v", "uR", "is_outlier")
    for lineno, row in _csv_rows(obs_path, header):
        fid = _field(obs_path, lineno, row[0], int, "frame_id")
        if not 0 <= fid < frame_count:
            raise DataFormatError(
                f"{obs_path}:{lineno}: frame_id {fid} outside the "
                f"{frame_count}-record ground truth"
            )
        lid = _field(obs_path, lineno, row[1], int, "landmark_id")
        if lid not in known_ids:
            raise DataFormatError(
                f"{obs_path}:{lineno}: landmark_id {lid} not in landmarks.csv"
            )
        meas = [_field(obs_path, lineno, v, float, "pixel") for v in row[2:5]]
        if not meas[0] > meas[2]:
            raise DataFormatError(f"{obs_path}:{lineno}: uL must exceed uR")
        if row[5] not in ("0", "1"):
            raise DataFormatError(
                f"{obs_path}:{lineno}: is_outlier must be 0 or 1, got {row[5]!r}"
            )
        per_frame_ids[fid].append(lid)
        per_frame_meas[fid].append(meas)
        per_frame_bad[fid].append(row[5] == "1")

    normals_path = d / "normals.csv"
    normals: dict[int, np.ndarray] = {}
    for lineno, row in _csv_rows(normals_path, ("frame_id", "nx", "ny", "nz")):
        fid = _field(normals_path, lineno, row[0], int, "frame_id")
        if not 0 <= fid < frame_count:
            raise DataFormatError(
                f"{normals_path}:{lineno}: frame_id {fid} outside the "
                f"{frame_count}-record ground truth"
            )
        if fid in normals:
            raise DataFormatError(
                f"{normals_path}:{lineno}: duplicate frame_id {fid}"
            )
        normals[fid] = np.array(
            [_field(normals_path, lineno, v, float, "normal") for v in row[1:]]
        )

    frames = []
    labels = []
    for fid in range(frame_count):
        ids = np.array(per_frame_ids[fid], dtype=int)
        meas = np.array(per_frame_meas[fid], dtype=float).reshape(ids.size, 3)
        try:
            frames.append(
                FrameData(
                    frame_id=fid,
                    timestamp=float(ground_truth.timestamps[fid]),
                    landmark_ids=ids,
                    measurements=meas,
                    frame_normal=normals.get(fid),
                )
            )
        except ValueError as err:
            raise DataFormatError(f"{d}: frame {fid}: {err}") from err
        labels.append(np.array(per_frame_bad[fid], dtype=bool))

    return Dataset(
        intrinsics=intrinsics,
        ground_truth=ground_truth,
        frames=frames,
        outlier_labels=labels,
        landmark_ids=np.array(lm_ids, dtype=int),
        landmark_positions=np.array(lm_pos, dtype=float).reshape(-1, 3),
        config=cfg,
    )
