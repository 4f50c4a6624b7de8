"""End-to-end command-line behavior: files, determinism, exit codes."""

import csv
import subprocess
import sys

import numpy as np
import pytest

from normalvo import estimator
from normalvo.cli import EXIT_DATA, EXIT_ESTIMATOR, EXIT_OK, EXIT_USAGE, main
from normalvo.config import parse_config
from normalvo.dataset import DATASET_FILES, load_trajectory

CFG_TEXT = """\
# 51-frame strip, same envelope as the estimator integration tests
landmark_count = 500
extent_x = 12
extent_y = 10
trajectory_shape = line
trajectory_length = 4
frame_rate = 30
seed = 11
seeds = 11 12
rde_delta = 10
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(CFG_TEXT)
    return path


@pytest.fixture(scope="module")
def dataset(cfg_file, tmp_path_factory):
    d = tmp_path_factory.mktemp("sim") / "ds"
    assert main(["--quiet", "simulate", str(d), "--config", str(cfg_file)]) == EXIT_OK
    return d


@pytest.fixture(scope="module")
def estimate(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("est") / "est.txt"
    assert main(["--quiet", "run", str(dataset), str(out)]) == EXIT_OK
    return out


def _copy_dataset(src, dst):
    dst.mkdir(parents=True)
    for name in DATASET_FILES:
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


# --- simulate ---


def test_simulate_writes_complete_dataset(dataset):
    for name in DATASET_FILES:
        assert (dataset / name).is_file(), name


def test_simulate_is_deterministic(cfg_file, dataset, tmp_path):
    d2 = tmp_path / "again"
    assert main(["--quiet", "simulate", str(d2), "--config", str(cfg_file)]) == EXIT_OK
    for name in DATASET_FILES:
        assert (dataset / name).read_bytes() == (d2 / name).read_bytes(), name


def test_simulate_refuses_nonempty_dir_without_force(cfg_file, dataset, tmp_path, capsys):
    d = _copy_dataset(dataset, tmp_path / "occupied")
    assert main(["--quiet", "simulate", str(d), "--config", str(cfg_file)]) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err
    assert main(
        ["--quiet", "simulate", str(d), "--config", str(cfg_file), "--force"]
    ) == EXIT_OK


def test_simulate_creates_nested_output_dirs(cfg_file, tmp_path):
    d = tmp_path / "a" / "b" / "ds"
    assert main(["--quiet", "simulate", str(d), "--config", str(cfg_file)]) == EXIT_OK
    assert (d / "obs.csv").is_file()


def test_simulate_zero_outlier_rate_labels_nothing(tmp_path):
    cfg = tmp_path / "clean.cfg"
    cfg.write_text(
        "landmark_count = 300\nextent_x = 8\ntrajectory_shape = line\n"
        "trajectory_length = 2\nframe_rate = 30\noutlier_rate = 0\n"
    )
    d = tmp_path / "ds"
    assert main(["--quiet", "simulate", str(d), "--config", str(cfg)]) == EXIT_OK
    with open(d / "obs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["is_outlier"] == "0" for r in rows)


def test_simulate_bad_config_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    rc = main(["--quiet", "simulate", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == EXIT_DATA
    assert "unknown key" in capsys.readouterr().err


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "normalvo", "--quiet", *args],
        capture_output=True,
        text=True,
    )


def _assert_one_line_data_error(proc, message):
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1 and message in proc.stderr


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("simulate", "seed = -1\n", "SceneConfig.seed must be non-negative"),
        ("experiment", "seeds = -2 3\n", "seeds must be non-negative"),
    ],
    ids=["scene-seed", "experiment-seeds"],
)
def test_negative_seed_is_a_data_error(tmp_path, command, text, message):
    # a negative seed would reach np.random.default_rng and end in its
    # traceback; it is refused while the config is read, naming the file
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(text)
    proc = _cli(command, str(tmp_path / "out"), "--config", str(cfg))
    _assert_one_line_data_error(proc, f"{cfg}: {message}")
    assert not (tmp_path / "out").exists()


# --- run ---


def test_run_is_deterministic(dataset, estimate, tmp_path):
    out = tmp_path / "rerun.txt"
    assert main(["--quiet", "run", str(dataset), str(out)]) == EXIT_OK
    assert out.read_bytes() == estimate.read_bytes()


def test_run_no_normal_reports_zero_terms(dataset, tmp_path, capsys):
    out = tmp_path / "nn.txt"
    assert main(["run", str(dataset), str(out), "--no-normal"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "0 normal terms" in captured.out
    # the cost breakdown in the log shows no surface terms at all
    assert "+ normal 0 (0 terms)" in captured.err
    assert "normal_weight = 0" in out.read_text()


def test_run_lambda_zero_matches_no_normal(dataset, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["--quiet", "run", str(dataset), str(a), "--no-normal"]) == EXIT_OK
    assert main(["--quiet", "run", str(dataset), str(b), "--lambda", "0"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_baseline_differs_from_constrained(dataset, estimate, tmp_path):
    out = tmp_path / "nn.txt"
    assert main(["--quiet", "run", str(dataset), str(out), "--no-normal"]) == EXIT_OK
    assert out.read_bytes() != estimate.read_bytes()


def test_run_contradictory_flags(dataset, tmp_path, capsys):
    rc = main(
        ["--quiet", "run", str(dataset), str(tmp_path / "x.txt"),
         "--no-normal", "--lambda", "100"]
    )
    assert rc == EXIT_USAGE
    assert "contradict" in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["-3", "nan", "inf", "-inf"])
def test_run_negative_lambda(dataset, tmp_path, weight):
    # "=" keeps argparse from reading "-inf" as an option
    rc = main(
        ["--quiet", "run", str(dataset), str(tmp_path / "x.txt"), f"--lambda={weight}"]
    )
    assert rc == EXIT_USAGE


def test_run_seed_recorded_but_inert(dataset, estimate, tmp_path):
    out = tmp_path / "seeded.txt"
    assert main(["--quiet", "run", str(dataset), str(out), "--seed", "7"]) == EXIT_OK
    assert "# seed = 7" in out.read_text()
    a = load_trajectory(out)
    b = load_trajectory(estimate)
    assert np.array_equal(a.timestamps, b.timestamps)
    for pa, pb in zip(a.poses, b.poses):
        assert np.array_equal(pa.t, pb.t) and np.array_equal(pa.R, pb.R)


def test_run_missing_dataset_is_a_data_error(tmp_path, capsys):
    rc = main(["--quiet", "run", str(tmp_path / "nope"), str(tmp_path / "x.txt")])
    assert rc == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_run_tracking_loss_exit_code_names_frame(dataset, tmp_path, capsys):
    """Starving the stream of observations must exit 3 with the frame id."""
    d = _copy_dataset(dataset, tmp_path / "starved")
    lines = (d / "obs.csv").read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if ln.startswith("0,")]
    (d / "obs.csv").write_text("\n".join(kept) + "\n")
    rc = main(["--quiet", "run", str(d), str(tmp_path / "x.txt")])
    assert rc == EXIT_ESTIMATOR
    assert "tracking lost at frame 1" in capsys.readouterr().err


def test_run_bundle_adjustment_at_damping_ceiling_exits_3(
    dataset, tmp_path, capsys, monkeypatch
):
    """A bundle adjustment whose every damped step is non-finite must end
    the run with exit 3 and a one-line error, not a traceback."""
    def non_finite(Hpp, gp, Hll, gl, W, lam):
        return np.full(gp.shape, np.nan), np.full(gl.shape, np.nan)

    monkeypatch.setattr(estimator, "_ba_solve", non_finite)
    rc = main(["--quiet", "run", str(dataset), str(tmp_path / "x.txt")])
    assert rc == EXIT_ESTIMATOR
    err = capsys.readouterr().err
    assert "damping ceiling" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.txt").exists()


def _edit_second_line(path, column, edit):
    """Replace one field of the first data row of a CSV file."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    fields[header.index(column)] = edit(dict(zip(header, fields)))
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


MALFORMED_INPUTS = [
    pytest.param("obs.csv", "uL", lambda row: "nan", id="nan-pixel"),
    pytest.param("obs.csv", "v", lambda row: "inf", id="inf-pixel"),
    pytest.param("obs.csv", "uR", lambda row: "-inf", id="minus-inf-pixel"),
    pytest.param("obs.csv", "uR", lambda row: row["uL"], id="zero-disparity"),
    pytest.param(
        "obs.csv", "uR", lambda row: repr(float(row["uL"]) + 1.0),
        id="negative-disparity",
    ),
    pytest.param(
        "normals.csv", "nx", lambda row: repr(float(row["nx"]) + 0.5),
        id="non-unit-normal",
    ),
    pytest.param("normals.csv", "nz", lambda row: "nan", id="nan-normal"),
]


@pytest.mark.parametrize("name, column, edit", MALFORMED_INPUTS)
def test_run_malformed_measurement_is_a_data_error(
    dataset, tmp_path, name, column, edit
):
    d = _copy_dataset(dataset, tmp_path / "malformed")
    _edit_second_line(d / name, column, edit)
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "normalvo", "--quiet", "run", str(d), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_landmark_id_past_int64_is_a_data_error(dataset, tmp_path):
    d = _copy_dataset(dataset, tmp_path / "big-id")
    with open(d / "landmarks.csv", "a") as fh:
        fh.write("99999999999999999999,1.0,2.0,3.0\n")
    proc = _cli("run", str(d), str(tmp_path / "x.txt"))
    _assert_one_line_data_error(proc, "bad id value '99999999999999999999'")


def test_run_non_finite_intrinsics_is_a_data_error(dataset, tmp_path):
    d = _copy_dataset(dataset, tmp_path / "nan-cx")
    fx, fy, _, cy, b = (d / "intrinsics.txt").read_text().split()
    (d / "intrinsics.txt").write_text(f"{fx} {fy} nan {cy} {b}\n")
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "normalvo", "--quiet", "run", str(d), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "error:" in proc.stderr and "cx must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_run_non_finite_solver_setting_is_a_data_error(dataset, tmp_path):
    # a NaN sigma that reached the estimator would end the run as a
    # tracking failure (exit 3), blaming the estimator for the input
    d = _copy_dataset(dataset, tmp_path / "nan-sigma")
    lines = (d / "config_used.txt").read_text().splitlines()
    at = [line.split(" = ")[0] for line in lines].index("sigma_px")
    lines[at] = "sigma_px = nan"
    (d / "config_used.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "normalvo", "--quiet", "run", str(d), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "error:" in proc.stderr and "sigma_px must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# --- evaluate ---


def test_evaluate_writes_report_and_per_frame_errors(dataset, estimate, tmp_path, capsys):
    out = tmp_path / "report"
    rc = main(
        ["--quiet", "evaluate", str(estimate), str(dataset / "traj_gt.txt"),
         str(out), "--delta", "10"]
    )
    assert rc == EXIT_OK
    text = (out / "report.txt").read_text()
    assert "ATE [m]" in text and "RDE (delta=10) [m]" in text and "Total" in text
    assert text in capsys.readouterr().out
    with open(out / "errors_ate.csv", newline="") as fh:
        ate_rows = list(csv.DictReader(fh))
    with open(out / "errors_rde.csv", newline="") as fh:
        rde_rows = list(csv.DictReader(fh))
    assert len(ate_rows) == 51          # one per matched frame
    assert len(rde_rows) == 51 - 10     # one per start frame
    with open(out / "summary.csv", newline="") as fh:
        metrics = {r["metric"] for r in csv.DictReader(fh)}
    assert metrics == {"ate", "rde"}


def test_evaluate_identical_trajectories_report_zero(dataset, tmp_path):
    gt = dataset / "traj_gt.txt"
    out = tmp_path / "report"
    assert main(["--quiet", "evaluate", str(gt), str(gt), str(out), "--delta", "10"]) == EXIT_OK
    with open(out / "errors_ate.csv", newline="") as fh:
        errors = [float(r["error"]) for r in csv.DictReader(fh)]
    assert max(errors) < 1e-12


def test_evaluate_delta_longer_than_sequence(dataset, estimate, tmp_path):
    rc = main(
        ["--quiet", "evaluate", str(estimate), str(dataset / "traj_gt.txt"),
         str(tmp_path / "r"), "--delta", "60"]
    )
    assert rc == EXIT_DATA


def test_evaluate_nonpositive_delta_is_usage(dataset, estimate, tmp_path):
    rc = main(
        ["--quiet", "evaluate", str(estimate), str(dataset / "traj_gt.txt"),
         str(tmp_path / "r"), "--delta", "0"]
    )
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("field, value", [(0, "nan"), (1, "nan"), (7, "inf")])
def test_evaluate_non_finite_trajectory_field_is_a_data_error(
    dataset, estimate, tmp_path, field, value
):
    lines = estimate.read_text().splitlines()
    lineno = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 5
    parts = lines[lineno].split()
    parts[field] = value
    lines[lineno] = " ".join(parts)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "normalvo", "--quiet", "evaluate", str(bad),
         str(dataset / "traj_gt.txt"), str(tmp_path / "r")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert f"error: {bad}:{lineno + 1}: non-finite field" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_evaluate_malformed_trajectory(dataset, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1 2 3\n")
    rc = main(
        ["--quiet", "evaluate", str(bad), str(dataset / "traj_gt.txt"),
         str(tmp_path / "r")]
    )
    assert rc == EXIT_DATA


# --- experiment ---


@pytest.fixture(scope="module")
def experiment(cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    rc = main(["--quiet", "experiment", str(out), "--config", str(cfg_file)])
    assert rc == EXIT_OK
    return out


def test_experiment_layout(experiment):
    assert (experiment / "summary.txt").is_file()
    assert (experiment / "config_used.txt").is_file()
    for seed in (11, 12):
        for mode in ("normal", "baseline"):
            assert (experiment / f"seed_{seed}" / f"est_{mode}.txt").is_file()


def test_experiment_per_seed_rows(experiment):
    with open(experiment / "per_seed.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["mode"]) for r in rows] == [
        ("11", "normal"), ("11", "baseline"), ("12", "normal"), ("12", "baseline")
    ]
    assert all(r["status"] == "ok" and r["detail"] == "" for r in rows)
    assert all(float(r["ate_rmse"]) > 0 for r in rows)


def test_experiment_summary_table_lists_both_modes(experiment):
    text = (experiment / "summary.txt").read_text()
    assert "normal" in text and "baseline" in text
    assert "seed 11" in text and "seed 12" in text
    assert "WARNING" not in text


def test_experiment_config_round_trips(experiment, cfg_file):
    written = parse_config((experiment / "config_used.txt").read_text())
    assert written == parse_config(cfg_file.read_text())


def test_experiment_estimates_match_direct_runs(experiment, dataset, tmp_path):
    """Seed 11 of the sweep is the same computation as a direct run."""
    direct = tmp_path / "direct.txt"
    assert main(["--quiet", "run", str(dataset), str(direct)]) == EXIT_OK
    a = load_trajectory(direct)
    b = load_trajectory(experiment / "seed_11" / "est_normal.txt")
    assert np.array_equal(a.timestamps, b.timestamps)
    for pa, pb in zip(a.poses, b.poses):
        assert np.array_equal(pa.t, pb.t) and np.array_equal(pa.R, pb.R)


def test_experiment_single_seed_total_equals_seed_row(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(CFG_TEXT.replace("seeds = 11 12", "seeds = 11"))
    out = tmp_path / "exp"
    assert main(["--quiet", "experiment", str(out), "--config", str(cfg)]) == EXIT_OK
    lines = (out / "summary.txt").read_text().splitlines()
    seed_row = next(ln for ln in lines if ln.startswith("seed 11"))
    total_row = next(ln for ln in lines if ln.startswith("Total"))
    assert seed_row.split("|")[1:] == total_row.split("|")[1:]


def test_experiment_flags_failed_seeds_and_continues(tmp_path, capsys):
    """Seeds that cannot track produce flagged rows, not a crash."""
    cfg = tmp_path / "starved.cfg"
    cfg.write_text(
        "landmark_count = 300\nextent_x = 8\ntrajectory_shape = line\n"
        "trajectory_length = 1.2\nframe_rate = 30\nseeds = 21 22\nrde_delta = 2\n"
        "min_track_observations = 100000\n"  # no frame can ever track
    )
    out = tmp_path / "exp"
    rc = main(["--quiet", "experiment", str(out), "--config", str(cfg)])
    assert rc == EXIT_ESTIMATOR  # nothing completed
    with open(out / "per_seed.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # both seeds were still attempted, in both modes
    assert all(r["status"] == "failed" for r in rows)
    assert all("tracking lost" in r["detail"] for r in rows)
    assert all(r["ate_rmse"] == "" for r in rows)
    summary = (out / "summary.txt").read_text()
    assert "WARNING" in summary and "0 of 2 seeds" in summary


# --- wiring ---


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "normalvo", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "experiment" in proc.stdout
