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

:func:`load_dataset` reads the three CSV files in one of two passes. The
fast pass parses each file with one ``np.loadtxt`` and makes every check
as an array predicate. It takes only plain files: ASCII, the exact
header, no quote, NUL or line break other than ``\\n``, ``\\r\\n`` or
``\\r``, and it turns numpy's warnings into failures. It tests this on the
file's bytes in 1 MiB chunks, never holding a decoded copy. It copies the
columns it keeps out of the parsed table and frees the table before the
range and id checks, so no frame is built beside it. The per-line pass
reads each field with ``int`` or ``float`` in file order. It runs when
the fast pass rejects anything, and it alone builds the result or raises
the first error, so every message names the file and line as before. On
any file both accept, the two build the same arrays, bit for bit. Rows
in frame order, as :func:`write_dataset` writes them, are split by frame
where they lie; only other files are sorted, stably, first.
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
from .geometry import Intrinsics, quat_to_rotation, rotation_to_quat

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


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}") from err


# --- trajectory files ---


def save_trajectory(path, trajectory: Trajectory, header: str = "") -> None:
    """Write camera-to-world records, one pose per line."""
    lines = [f"# {h}" for h in header.splitlines()]
    lines.append("# timestamp tx ty tz qx qy qz qw")
    records = np.column_stack(
        [trajectory.timestamps, trajectory.t, rotation_to_quat(trajectory.R)]
    )
    record = " ".join(["%.17g"] * 8)  # as format_float renders each field
    lines += [record % tuple(row) for row in records.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    text = _read_text(path)
    rows, records = [], []
    failure = None  # the first record that does not parse ends the read
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            failure = DataFormatError(
                f"{path}:{lineno}: expected 8 fields "
                f"(timestamp tx ty tz qx qy qz qw), got {len(parts)}"
            )
            break
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            failure = DataFormatError(f"{path}:{lineno}: non-numeric field in {line!r}")
            break
        records.append((lineno, line))
    values = np.array(rows, dtype=float).reshape(-1, 8)
    q = values[:, 4:]
    # row by row the norm that quat_to_rotation divides by
    norm = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0, 0]
    finite = np.isfinite(values).all(axis=1)
    bad = np.flatnonzero(~finite | (norm == 0.0))
    # warnings and the first error in line order
    stop = bad[0] if bad.size else len(rows)
    for i in np.flatnonzero(np.abs(norm[:stop] - 1.0) > QUAT_NORM_TOL):
        warnings.warn(
            f"{path}:{records[i][0]}: quaternion norm {norm[i]:.9g}, renormalizing",
            QuaternionNormWarning,
            stacklevel=2,
        )
    if bad.size:
        lineno, line = records[stop]
        if not finite[stop]:
            raise DataFormatError(f"{path}:{lineno}: non-finite field in {line!r}")
        raise DataFormatError(f"{path}:{lineno}: zero quaternion")
    if failure is not None:
        raise failure
    if not rows:
        raise DataFormatError(f"{path}: no trajectory records")
    try:
        return Trajectory(values[:, 0], R=quat_to_rotation(q), t=values[:, 1:4])
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
    save_trajectory(d / "traj_gt.txt", sequence.ground_truth, header="ground truth")
    # one table per file: %.17g renders as format_float does, and the
    # simulator's ids and flags are exact as float64 (ids stay below 2**53)
    f3 = ["%.17g"] * 3
    np.savetxt(
        d / "landmarks.csv",
        np.column_stack([sequence.landmark_ids, sequence.landmark_positions]),
        fmt=["%d", *f3], delimiter=",", header="id,x,y,z", comments="",
    )
    np.savetxt(
        d / "obs.csv",
        np.concatenate([
            np.column_stack([
                np.full(f.landmark_ids.size, f.frame_id), f.landmark_ids,
                f.measurements, f.outlier_mask,
            ])
            for f in sequence.frames
        ]),
        fmt=["%d", "%d", *f3, "%d"], delimiter=",",
        header="frame_id,landmark_id,uL,v,uR,is_outlier", comments="",
    )
    np.savetxt(
        d / "normals.csv",
        [[f.frame_id, *f.frame_normal] for f in sequence.frames],
        fmt=["%d", *f3], delimiter=",", header="frame_id,nx,ny,nz", comments="",
    )

    (d / "config_used.txt").write_text(format_config(cfg), encoding="utf-8")
    return d


def _csv_rows(path: Path, header: tuple):
    """Yield (lineno, row) for every data row, after checking the header."""
    text = _read_text(path)
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


def _int64(text: str) -> int:
    """int(text), refused as a ValueError outside the range of np.int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} overflows int64")
    return value


def load_intrinsics(path) -> Intrinsics:
    path = Path(path)
    text = _read_text(path)
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


_LANDMARKS = ("landmarks.csv", ("id", "x", "y", "z"))
_OBS = ("obs.csv", ("frame_id", "landmark_id", "uL", "v", "uR", "is_outlier"))
_NORMALS = ("normals.csv", ("frame_id", "nx", "ny", "nz"))
# bytes that the per-line pass reads differently from np.loadtxt: a
# quote, NUL, and the line breaks of str.splitlines other than "\n"
_NOT_PLAIN = b'"\0\v\f\x1c\x1d\x1e'
_CHUNK = 1 << 20  # bytes the plainness check holds at a time


def _loadtxt(d: Path, spec, dtype) -> np.ndarray:
    """The data rows of a plain CSV file in one np.loadtxt call; ValueError
    for a file that is not plain or not parsed whole."""
    name, header = spec
    head = ",".join(header).encode()
    with open(d / name, "rb") as fh:
        # the first line ends at "\r" or "\n", as universal newlines end it
        plain = fh.read(len(head) + 1) in (head, head + b"\n", head + b"\r")
        while plain and (chunk := fh.read(_CHUNK)):
            plain = chunk.isascii() and not any(c in chunk for c in _NOT_PLAIN)
    if not plain:
        raise ValueError(f"{name} is not plain")
    return np.loadtxt(
        d / name, dtype, delimiter=",", comments=None, skiprows=1, ndmin=1,
        encoding="utf-8",
    )


def _read_tables(d: Path, frame_count: int):
    """The fast pass over the three CSV files: one np.loadtxt each, and the
    checks of :func:`_read_tables_per_line` as array predicates. Returns the
    same tables, or None when anything fails, a numpy warning included."""
    try:
        with warnings.catch_warnings():
            # numpy < 2 parses "1.0" as an int, with a DeprecationWarning
            warnings.simplefilter("error")
            lm = _loadtxt(d, _LANDMARKS, [("id", "i8"), ("pos", "f8", 3)])
            obs = _loadtxt(
                d, _OBS, [("frame", "i8"), ("lm", "i8"), ("uvu", "f8", 3), ("bad", "U2")]
            )
            bad = obs["bad"] == "1"
            flags_ok = np.all(bad | (obs["bad"] == "0"))
            # the kept columns, copied out so that the table is freed before the
            # other checks
            frame, ids, uvu = (obs[f].copy() for f in ("frame", "lm", "uvu"))
            del obs
            nrm = _loadtxt(d, _NORMALS, [("frame", "i8"), ("n", "f8", 3)])
            known = np.sort(lm["id"])
            frame_ids = np.concatenate([frame, nrm["frame"]])
            at = np.searchsorted(known, ids).clip(max=known.size - 1)
            ok = (
                np.all(known[1:] != known[:-1])
                and np.all((frame_ids >= 0) & (frame_ids < frame_count))
                and np.bincount(nrm["frame"]).max() <= 1
                and np.all(known[at] == ids)
                and np.all(uvu[:, 0] > uvu[:, 2])
                and flags_ok
            )
    except (OSError, ValueError, Warning):
        return None
    if not ok:
        return None
    return lm["id"].copy(), lm["pos"].copy(), frame, ids, uvu, bad, nrm["frame"], nrm["n"]


def _read_tables_per_line(d: Path, frame_count: int):
    """The per-line pass over the three CSV files, field by field in file
    order: raises the DataFormatError of the first bad field or row."""
    lm_path = d / _LANDMARKS[0]
    lm_ids = []
    lm_pos = []
    for lineno, row in _csv_rows(lm_path, _LANDMARKS[1]):
        lm_ids.append(_field(lm_path, lineno, row[0], _int64, "id"))
        lm_pos.append(
            [_field(lm_path, lineno, v, float, "coordinate") for v in row[1:]]
        )
    if len(set(lm_ids)) != len(lm_ids):
        raise DataFormatError(f"{lm_path}: duplicate landmark ids")
    known_ids = set(lm_ids)

    obs_path = d / _OBS[0]
    obs = []
    for lineno, row in _csv_rows(obs_path, _OBS[1]):
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
        obs.append((fid, lid, meas, row[5] == "1"))

    normals_path = d / _NORMALS[0]
    normals: dict[int, list] = {}
    for lineno, row in _csv_rows(normals_path, _NORMALS[1]):
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
        normals[fid] = [
            _field(normals_path, lineno, v, float, "normal") for v in row[1:]
        ]

    obs_frame, obs_lm, obs_uvu, obs_bad = zip(*obs) if obs else ((), (), (), ())
    return (
        np.array(lm_ids, dtype=int),
        np.array(lm_pos, dtype=float).reshape(-1, 3),
        np.array(obs_frame, dtype=int),
        np.array(obs_lm, dtype=int),
        np.array(obs_uvu, dtype=float).reshape(-1, 3),
        np.array(obs_bad, dtype=bool),
        np.array(list(normals), dtype=int),
        np.array(list(normals.values()), dtype=float).reshape(-1, 3),
    )


def load_dataset(dirpath) -> Dataset:
    """Load a dataset directory. The CSV files are read by a fast pass,
    one np.loadtxt per file; when it rejects anything the per-line pass
    reads them again, and builds the same tables or raises the error."""
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
    tables = _read_tables(d, frame_count) or _read_tables_per_line(d, frame_count)
    lm_ids, lm_pos, obs_frame, obs_lm, obs_uvu, obs_bad, normal_frame, normal_vec = tables

    # group the observations by frame, file order within a frame; the rows
    # are sorted only when not in frame order, as write_dataset writes them
    if np.any(obs_frame[1:] < obs_frame[:-1]):
        order = np.argsort(obs_frame, kind="stable")
        obs_frame, obs_lm, obs_uvu, obs_bad = (a[order] for a in tables[2:6])
    cuts = np.searchsorted(obs_frame, np.arange(1, frame_count))
    ids, meas, labels = (np.split(a, cuts) for a in (obs_lm, obs_uvu, obs_bad))
    normals = [None] * frame_count
    for fid, n in zip(normal_frame.tolist(), normal_vec):
        normals[fid] = n
    stamps = ground_truth.timestamps.tolist()
    frames = []
    for fid in range(frame_count):
        try:
            frames.append(FrameData(fid, stamps[fid], ids[fid], meas[fid], normals[fid]))
        except ValueError as err:
            raise DataFormatError(f"{d}: frame {fid}: {err}") from err

    return Dataset(
        intrinsics=intrinsics,
        ground_truth=ground_truth,
        frames=frames,
        outlier_labels=labels,
        landmark_ids=lm_ids,
        landmark_positions=lm_pos,
        config=cfg,
    )
