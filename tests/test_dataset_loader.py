"""The two passes of load_dataset: the one-numpy-pass reader must build
exactly what the per-line reader builds, and on any file it does not take,
leave the result or the error to the per-line reader."""

import tracemalloc
import warnings

import numpy as np
import pytest

from normalvo import dataset
from normalvo.config import RunConfig
from normalvo.dataset import (
    DATASET_FILES,
    DataFormatError,
    QuaternionNormWarning,
    load_dataset,
    load_trajectory,
    write_dataset,
)
from normalvo.simulator import SceneConfig, generate_sequence

SCENES = [
    SceneConfig(
        landmark_count=400, extent_x=12.0, extent_y=10.0, trajectory_shape="line",
        trajectory_length=3.0, frame_rate=30.0, seed=3,
    ),
    SceneConfig(
        landmark_count=300, extent_x=10.0, extent_y=8.0, trajectory_shape="line",
        trajectory_length=2.0, frame_rate=20.0, outlier_rate=0.3, seed=5,
    ),
    SceneConfig(
        landmark_count=600, extent_x=16.0, extent_y=16.0, trajectory_length=6.0,
        speed=3.0, frame_rate=10.0, pixel_noise=1.0, seed=9,
    ),
]


@pytest.fixture(scope="module", params=range(len(SCENES)), ids=["line", "outliers", "mower"])
def scene_dir(request, tmp_path_factory):
    scene = SCENES[request.param]
    d = tmp_path_factory.mktemp("scene") / "data"
    write_dataset(d, generate_sequence(scene), RunConfig(scene=scene))
    return d


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    scene = SCENES[0]
    d = tmp_path_factory.mktemp("base") / "data"
    write_dataset(d, generate_sequence(scene), RunConfig(scene=scene))
    return d


def _copy(src, dst):
    dst.mkdir()
    for name in DATASET_FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def _outcome(d):
    try:
        return load_dataset(d)
    except Exception as err:  # every error type must match, not only ours
        return err


def _per_line_outcome(d, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(dataset, "_read_tables", lambda d, frame_count: None)
        return _outcome(d)


def _same_array(a, b):
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_dataset(a, b):
    assert a.intrinsics == b.intrinsics and a.config == b.config
    _same_array(a.landmark_ids, b.landmark_ids)
    _same_array(a.landmark_positions, b.landmark_positions)
    for name in ("timestamps", "R", "t"):
        _same_array(getattr(a.ground_truth, name), getattr(b.ground_truth, name))
    assert len(a.frames) == len(b.frames) == len(a.outlier_labels)
    for fa, fb, la, lb in zip(a.frames, b.frames, a.outlier_labels, b.outlier_labels):
        assert fa.frame_id == fb.frame_id
        assert type(fa.timestamp) is type(fb.timestamp) and fa.timestamp == fb.timestamp
        _same_array(fa.landmark_ids, fb.landmark_ids)
        _same_array(fa.measurements, fb.measurements)
        if fa.frame_normal is None:
            assert fb.frame_normal is None
        else:
            _same_array(fa.frame_normal, fb.frame_normal)
        _same_array(la, lb)


def assert_same_outcome(d, monkeypatch):
    got, want = _outcome(d), _per_line_outcome(d, monkeypatch)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert_same_dataset(got, want)


def _fast_takes(d):
    return dataset._read_tables(d, len(load_trajectory(d / "traj_gt.txt"))) is not None


# --- valid files: the fast pass takes them and builds the same arrays ---


def test_fast_pass_equals_per_line_pass_on_simulated_scenes(scene_dir, monkeypatch):
    assert _fast_takes(scene_dir)
    assert_same_outcome(scene_dir, monkeypatch)


def test_fast_pass_keeps_frames_without_observations(base_dir, tmp_path, monkeypatch):
    d = _copy(base_dir, tmp_path / "d")
    last = len(load_trajectory(d / "traj_gt.txt")) - 1
    empty = ("0", "4", "5", str(last))
    lines = (d / "obs.csv").read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.split(",")[0] not in empty]
    (d / "obs.csv").write_text("\n".join(kept) + "\n")
    assert _fast_takes(d)
    assert_same_outcome(d, monkeypatch)
    ds = load_dataset(d)
    for fid in map(int, empty):
        assert ds.frames[fid].landmark_ids.shape == (0,)
        assert ds.frames[fid].measurements.shape == (0, 3)
        assert ds.outlier_labels[fid].dtype == bool


def _blank_lines(text):
    lines = text.split("\n")
    return "\n".join(lines[:3] + [""] + lines[3:7] + ["", ""] + lines[7:])


def _crlf(text):
    return text.replace("\n", "\r\n")


def _no_final_newline(text):
    return text.rstrip("\n")


def _plus_sign(text):
    head, *rows = text.split("\n")
    return "\n".join([head] + ["+" + r if r else r for r in rows])


def _padded(text):
    # every field but the last, whose 0/1 the per-line pass reads verbatim
    head, *rows = text.split("\n")
    padded = [" " + ", ".join(r.split(",")[:-1]) + " ," + r.split(",")[-1] for r in rows if r]
    return "\n".join([head] + padded) + "\n"


def _interleaved(text):
    # rows of different frames interleaved at random, each frame's rows
    # still in file order
    head, *rows = text.rstrip("\n").split("\n")
    keys = [r.split(",")[0] for r in rows]
    queues = {k: iter([r for r, kr in zip(rows, keys) if kr == k]) for k in keys}
    order = np.random.default_rng(0).permutation(len(rows))
    return "\n".join([head] + [next(queues[keys[i]]) for i in order]) + "\n"


VARIANTS = [_blank_lines, _crlf, _no_final_newline, _plus_sign, _padded, _interleaved]
CSV_NAMES = ["landmarks.csv", "obs.csv", "normals.csv"]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", CSV_NAMES)
def test_text_variants_both_passes_accept(base_dir, tmp_path, monkeypatch, name, variant):
    d = _copy(base_dir, tmp_path / "d")
    (d / name).write_bytes(variant((d / name).read_text()).encode())
    assert _fast_takes(d)
    assert_same_outcome(d, monkeypatch)
    if (name, variant) != ("landmarks.csv", _interleaved):  # reordered ids
        assert_same_dataset(load_dataset(d), load_dataset(base_dir))


# --- everything else: the per-line pass decides, message for message ---


def _append(name, row):
    def edit(d):
        with open(d / name, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
    return edit


def _replace(name, old, new):
    def edit(d):
        text = (d / name).read_text()
        assert old in text
        (d / name).write_text(text.replace(old, new, 1))
    return edit


def _row(name, edit_fields, at=1):
    """Rewrite line ``at`` of ``name`` (the first data row by default; -2,
    the last, ahead of the final newline) field by field."""
    def edit(d):
        lines = (d / name).read_text().split("\n")
        fields = lines[at].split(",")
        edit_fields(fields)
        lines[at] = ",".join(fields)
        (d / name).write_text("\n".join(lines))
    return edit


def _obs_row(edit_fields):
    return _row("obs.csv", edit_fields)


def _set(i, value):
    def edit_fields(fields):
        fields[i] = value
    return edit_fields


def _first_landmark_id_to(new):
    """Rename the first landmark and its observations to id ``new``."""
    def edit(d):
        lm = (d / "landmarks.csv").read_text().split("\n")
        old = lm[1].split(",")[0]
        lm[1] = new + lm[1][len(old):]
        (d / "landmarks.csv").write_text("\n".join(lm))
        obs = (d / "obs.csv").read_text().split("\n")
        for i, row in enumerate(obs[1:], start=1):
            f = row.split(",")
            if len(f) > 1 and f[1] == old:
                f[1] = new
                obs[i] = ",".join(f)
        (d / "obs.csv").write_text("\n".join(obs))
    return edit


def _header_only(name):
    def edit(d):
        (d / name).write_text((d / name).read_text().split("\n")[0] + "\n")
    return edit


def _duplicate_first_row(name):
    def edit(d):
        row = (d / name).read_text().split("\n")[1]
        _append(name, row)(d)
    return edit


def _quote_all(name):
    def edit(d):
        lines = (d / name).read_text().split("\n")
        (d / name).write_text(
            "\n".join([lines[0]] + [",".join(f'"{v}"' for v in r.split(",")) if r else r
                                    for r in lines[1:]])
        )
    return edit


MALFORMED = {
    "whitespace-only row": _append("obs.csv", "   "),
    "tab-only row": _append("normals.csv", "\t"),
    "id 1.0": _obs_row(_set(0, "1.0")),
    "landmark id 1_000": _first_landmark_id_to("1_000"),
    "quoted obs fields": _quote_all("obs.csv"),
    "quoted landmark_id": _obs_row(lambda f: f.__setitem__(1, f'"{f[1]}"')),
    "nan pixel v": _obs_row(_set(3, "nan")),
    "nan pixel uL": _obs_row(_set(2, "nan")),
    "header-only obs.csv": _header_only("obs.csv"),
    "header-only normals.csv": _header_only("normals.csv"),
    "header-only landmarks.csv": _header_only("landmarks.csv"),
    "obs header": _replace("obs.csv", "frame_id,landmark_id", "frame,landmark"),
    "frame id out of range": _append("obs.csv", "999,0,100.0,100.0,90.0,0"),
    "negative frame id": _append("normals.csv", "-1,0.0,0.0,-1.0"),
    "negative obs frame id": _obs_row(_set(0, "-1")),
    "unicode line separator": _obs_row(_set(5, "1\u2028")),
    "unknown landmark": _append("obs.csv", "0,123456,100.0,100.0,90.0,0"),
    "uL not above uR": _obs_row(lambda f: f.__setitem__(4, f[2])),
    "outlier flag 2": _obs_row(_set(5, "2")),
    "outlier flag padded": _obs_row(_set(5, " 0")),
    "outlier flag 00": _obs_row(_set(5, "00")),
    "duplicate observation": _duplicate_first_row("obs.csv"),
    "duplicate normal frame": _append("normals.csv", "0,0.0,0.0,-1.0"),
    "normal not unit": _row("normals.csv", lambda f: f.__setitem__(slice(1, 4), ["0.5"] * 3)),
    "duplicate landmark id": _duplicate_first_row("landmarks.csv"),
    "landmark column count": _append("landmarks.csv", "7777,1.0,2.0"),
    "obs column count": _append("obs.csv", "0,1,2,3,4,0,0"),
    "comment row": _append("obs.csv", "# a comment"),
    "NUL in a flag": _obs_row(_set(5, "1\0")),
    "form feed in a row": _obs_row(_set(5, "1\f")),
    "non-ASCII digit": _obs_row(_set(0, "١")),
    # in the last row, which a plainness check in chunks reads last
    "quote in the last row": _row("obs.csv", lambda f: f.__setitem__(1, f'"{f[1]}"'), at=-2),
    "NUL in the last row": _row("obs.csv", _set(5, "1\0"), at=-2),
    "non-ASCII byte in the last row": _row("obs.csv", lambda f: f.__setitem__(2, f[2] + "\xa0"), at=-2),
    "id past int64": _append("obs.csv", "99999999999999999999,0,100.0,100.0,90.0,0"),
    "landmark id past int64": _append("landmarks.csv", "99999999999999999999,1.0,2.0,3.0"),
    "empty obs.csv": lambda d: (d / "obs.csv").write_text(""),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_per_line_pass_decides_every_other_file(base_dir, tmp_path, monkeypatch, case):
    d = _copy(base_dir, tmp_path / "d")
    MALFORMED[case](d)
    assert_same_outcome(d, monkeypatch)
    # and the outcome is a dataset or a typed data error, never a crash
    assert isinstance(_outcome(d), (dataset.Dataset, DataFormatError))


# --- the plainness check in chunks of a few bytes: every file above spans
# hundreds of them, where the default chunk holds the whole file ---

SMALL_CHUNK = 7


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(dataset, "_CHUNK", SMALL_CHUNK)


def test_simulated_scenes_in_small_chunks(scene_dir, monkeypatch, small_chunks):
    test_fast_pass_equals_per_line_pass_on_simulated_scenes(scene_dir, monkeypatch)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", CSV_NAMES)
def test_text_variants_in_small_chunks(base_dir, tmp_path, monkeypatch, small_chunks, name, variant):
    test_text_variants_both_passes_accept(base_dir, tmp_path, monkeypatch, name, variant)


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_files_in_small_chunks(base_dir, tmp_path, monkeypatch, small_chunks, case):
    test_per_line_pass_decides_every_other_file(base_dir, tmp_path, monkeypatch, case)


def test_crlf_split_across_a_chunk_boundary(base_dir, tmp_path, monkeypatch):
    d = _copy(base_dir, tmp_path / "d")
    text = _crlf((d / "obs.csv").read_text()).encode()
    (d / "obs.csv").write_bytes(text)
    # the header line is read with its "\r"; one chunk then ends on the
    # final "\r", and the next holds only the final "\n"
    start = text.index(b"\r") + 1
    monkeypatch.setattr(dataset, "_CHUNK", len(text) - 1 - start)
    assert _fast_takes(d)
    assert_same_outcome(d, monkeypatch)
    assert_same_dataset(load_dataset(d), load_dataset(base_dir))


def test_load_peak_memory_is_bounded_by_the_file(tmp_path):
    """load_dataset holds no decoded copy of obs.csv and no parsed table
    beside the columns it keeps: its traced peak stays well below twice the
    file's size (a decoded copy beside the read bytes alone is twice)."""
    scene = SceneConfig(
        landmark_count=2400, extent_x=30.0, extent_y=21.0, trajectory_shape="line",
        trajectory_length=24.0, frame_rate=60.0, seed=4,
    )
    write_dataset(tmp_path, generate_sequence(scene), RunConfig(scene=scene))
    size = (tmp_path / "obs.csv").stat().st_size
    assert size > 2_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * size


def test_malformed_messages_name_file_and_line(base_dir, tmp_path):
    d = _copy(base_dir, tmp_path / "d")
    _obs_row(_set(0, "1.0"))(d)
    with pytest.raises(DataFormatError, match=r"obs\.csv:2: bad frame_id value '1\.0'"):
        load_dataset(d)
    d = _copy(base_dir, tmp_path / "e")
    MALFORMED["whitespace-only row"](d)
    with pytest.raises(DataFormatError, match=r"obs\.csv:\d+: expected 6 columns, got 1"):
        load_dataset(d)


def test_numpy_warning_falls_back_to_per_line_pass(base_dir, monkeypatch):
    """numpy < 2 parses an int field "1.0" with only a DeprecationWarning; any
    warning from np.loadtxt must hand the file to the per-line pass."""
    original = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert not _fast_takes(base_dir)
    assert_same_dataset(load_dataset(base_dir), _per_line_outcome(base_dir, monkeypatch))


# --- trajectory files: batched checks, per-line messages and warnings ---


def test_trajectory_warnings_in_line_order_before_the_first_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "0.0 0 0 0 0 0 0 1\n"
        "1.0 0 0 0 0 0 0 1.01\n"
        "# comment\n"
        "2.0 0 0 0 0 0 0 0.98\n"
        "3.0 0 0 0 0 0 0 nan\n"
        "4.0 0 0 0 0 0 0 2\n"
        "5.0 0 0\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataFormatError, match=r"t\.txt:5: non-finite field"):
            load_trajectory(path)
    assert [str(w.message).split(": quaternion")[0] for w in caught] == [
        f"{path}:2", f"{path}:4"
    ]
    assert all(w.category is QuaternionNormWarning for w in caught)


@pytest.mark.parametrize(
    "records, message",
    [
        ("0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 0\n2 0 0\n", r"t\.txt:2: zero quaternion"),
        ("0 0 0 0 0 0 0 1\n1 0 0\n2 0 0 0 0 0 0 0\n", r"t\.txt:2: expected 8 fields"),
        ("0 0 0 0 0 0 0 1\n1 0 x 0 0 0 0 1\n2 0 0 0 0 0 0 0\n", r"t\.txt:2: non-numeric"),
        ("0 0 0 0 0 0 0 1\n0 0 0 0 0 0 0 1\n", r"t\.txt: timestamps must be strictly"),
    ],
)
def test_trajectory_first_error_in_line_order(tmp_path, records, message):
    path = tmp_path / "t.txt"
    path.write_text(records)
    with pytest.raises(DataFormatError, match=message):
        load_trajectory(path)


def test_trajectory_rotations_match_per_record_conversion(base_dir):
    from normalvo.geometry import quat_to_rotation

    traj = load_trajectory(base_dir / "traj_gt.txt")
    rows = np.loadtxt(base_dir / "traj_gt.txt")
    expected = np.array([quat_to_rotation(q) for q in rows[:, 4:]])
    _same_array(traj.R, expected)
    _same_array(traj.t, rows[:, 1:4])
