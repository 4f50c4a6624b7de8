"""normalvo benchmark: frame throughput, frame latency, set-up time and drift.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload lawnmower|frontend|ab-sweep|all
                              [--seed N] [--seconds S] [--trace 0|1]

The load is a closed loop with one caller in one process: ``run_sequence``
pulls the next frame only after the previous one is finished, as the
``run`` and ``experiment`` commands use it. Inputs are generated from
``--seed`` by ``inputs.py`` before anything is timed; the estimator only
sees the generated dataset directory or experiment config. A run repeats
whole passes over the workload until ``--seconds`` have elapsed (at least
one pass), then checks the outputs and prints every metric by name and unit.
Times are calibrated against the shared machine's changing speed (see
``calibration.py``); the raw wall-clock figures are printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones, taken from one traced pass that
follows one untraced pass of the same workload.

Results, the machine record and the traced spans are written under
``benchmarks/out/<workload>/seed-<N>-trace-<T>/``. See NOTES.md for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# OpenBLAS would otherwise start a worker per core that spins during the
# estimator's small dense solves: on a 2-core machine it doubled CPU use with no
# change in wall time, and it competes with whatever shares the machine. Set
# before numpy is imported here or in a child; a value the caller set is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
LEDGER = OUT / "ledger.jsonl"

sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
from calibration import PROBE_NOMINAL_NS, FrameClock  # noqa: E402
from inputs import WORKLOADS, files_digest  # noqa: E402
from tracing import Tracer  # noqa: E402

# set-up is measured in fresh processes this many times; the median is reported
SETUP_REPEATS = 5
# an estimate this far from ground truth is broken, not merely drifting; every
# workload stays under 0.1 m on the seeds tried while sizing
MAX_ATE_RMSE_M = 0.5
# each child process (input generation, set-up probe, one workload of `all`)
# must end within this many seconds
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PassResult:
    """One pass over a workload: timings plus what the checks compare.

    ``frames`` counts the frames attempted. ``unreached`` counts those never
    estimated because a run raised; ``coasted`` those that failed to track
    even after the retry and were extrapolated on the motion model.
    ``wall_s`` leaves out the calibration probes; ``calibrated_s`` is the
    same interval scaled frame by frame (see ``calibration.py``).
    """

    frames: int
    wall_s: float = 0.0
    calibrated_s: float = 0.0
    gaps_ns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    calibrated_gaps_ns: np.ndarray = field(default_factory=lambda: np.zeros(0))
    unreached: int = 0
    coasted: int = 0
    errors: list = field(default_factory=list)
    trajectory_sha256: str | None = None
    map_counts: dict | None = None
    trajectory_poses: int = 0
    ate_rmse_m: float = math.nan
    rde_mean_m: float = math.nan
    ate_ratio: float | None = None

    @property
    def frames_per_s(self) -> float:
        return self.frames / self.calibrated_s

    def clocked(self, clock: FrameClock, start: float, end: float) -> None:
        """Take the timings from a finished pass."""
        if not clock.probe_ns:
            raise BenchError(
                "no frame reached run_sequence in this process; the frame "
                "timing and its calibration cannot be measured"
            )
        self.wall_s = end - start - clock.probe_total_s
        self.gaps_ns = clock.gaps_ns()
        self.calibrated_gaps_ns = clock.calibrated_gaps_ns()
        outside_frames = self.wall_s - self.gaps_ns.sum() / 1e9
        self.calibrated_s = (
            self.calibrated_gaps_ns.sum() / 1e9 + outside_frames * clock.speed_factor()
        )


# --- the program under test ---


def load_program():
    """Import normalvo from this checkout's src/, never from elsewhere."""
    pkg = SRC / "normalvo"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no normalvo package at {pkg}")
    sys.path.insert(0, str(SRC))
    import normalvo

    if Path(normalvo.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"normalvo imported from {normalvo.__file__}, not {pkg}")
    return normalvo


def source_digest() -> str:
    return files_digest(SRC, SRC.rglob("*.py"))


def run_child(argv, what: str) -> str:
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def generate_inputs(workload: str, seed: int, outdir: Path) -> tuple[Path, str]:
    out = run_child(
        [str(BENCH_DIR / "inputs.py"), str(SRC), workload, str(seed), str(outdir)],
        "input generation",
    )
    path = outdir / ("experiment.txt" if workload == "ab-sweep" else "dataset")
    return path, out.strip()


def time_setup(kind: str, path: Path, log: Path) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its first frame is
    ready for the estimator, once per repeat: raw, and calibrated by the
    probes the child runs right afterwards."""
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        with open(log, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), kind, str(path)],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                probes, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed: {log.read_text().strip()}")
        raw.append(elapsed)
        calibrated.append(
            elapsed * PROBE_NOMINAL_NS / statistics.median(int(v) for v in probes.split())
        )
    return raw, calibrated


# --- passes ---


def _unreached(nv, n_frames: int, pulled: int, err) -> int:
    """Frames lost to a run that raised: the failing streak and the rest."""
    if isinstance(err, nv.TrackingLost):
        return n_frames - err.frame_id
    return n_frames - max(pulled - 1, 0)


def _coasted(records) -> int:
    return sum(1 for r in records if r.keyframe_id is None and r.matched == 0)


def _map_counts(map_state) -> dict:
    return {
        "keyframes": len(map_state.keyframes),
        "landmarks": len(map_state.landmarks),
        "observations": len(map_state.observations),
    }


def dataset_pass(nv, ds, traj_path: Path) -> PassResult:
    """Time one ``run_sequence`` over a loaded dataset, then evaluate it."""
    clock = FrameClock()
    res = PassResult(frames=len(ds.frames))
    start = time.perf_counter()
    try:
        result = nv.run_sequence(clock.frames(ds.frames), ds.intrinsics, ds.config.solver)
    except (nv.TrackingLost, nv.SolverDiverged) as err:
        res.clocked(clock, start, time.perf_counter())
        res.unreached = _unreached(nv, res.frames, len(clock.starts), err)
        res.errors.append(f"{type(err).__name__}: {err}")
        return res
    res.clocked(clock, start, time.perf_counter())

    nv.save_trajectory(traj_path, result.trajectory, header="benchmark estimate")
    gt = ds.ground_truth
    res.coasted = _coasted(result.records)
    res.trajectory_sha256 = files_digest(traj_path.parent, [traj_path])
    res.map_counts = _map_counts(result.map_state)
    res.trajectory_poses = len(result.trajectory)
    res.ate_rmse_m = nv.ate(result.trajectory, gt).rmse
    res.rde_mean_m = nv.rde(result.trajectory, gt, delta=ds.config.rde_delta).mean
    return res


def experiment_pass(nv, cfg_path: Path, outdir: Path, log_path: Path) -> PassResult:
    """Time one in-process ``normalvo experiment``; every estimator run in it
    pulls its frames through the same clock."""
    import normalvo.cli as cli

    clock = FrameClock()
    runs = []
    inner = cli.run_sequence

    def clocked_run_sequence(frames, intrinsics, config):
        run = {"frames": len(frames), "unreached": 0, "coasted": 0}
        runs.append(run)
        first = len(clock.starts)
        try:
            result = inner(clock.frames(frames), intrinsics, config)
        except (nv.TrackingLost, nv.SolverDiverged) as err:
            run["unreached"] = _unreached(nv, run["frames"], len(clock.starts) - first, err)
            raise
        run["coasted"] = _coasted(result.records)
        run["map"] = _map_counts(result.map_state)
        return result

    cli.run_sequence = clocked_run_sequence
    try:
        with open(log_path, "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
            start = time.perf_counter()
            code = cli.main(
                ["--quiet", "experiment", str(outdir), "--config", str(cfg_path), "--force"]
            )
            end = time.perf_counter()
    finally:
        cli.run_sequence = inner

    if not (outdir / "per_seed.csv").is_file():
        raise BenchError(f"experiment exited {code} without writing per_seed.csv")
    with open(outdir / "per_seed.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    res = PassResult(
        frames=sum(int(r["frames"]) for r in rows),
        unreached=sum(r["unreached"] for r in runs),
        coasted=sum(r["coasted"] for r in runs),
    )
    res.clocked(clock, start, end)
    if code != 0:
        res.errors.append(f"experiment exited {code}")
    for row in rows:
        if row["status"] != "ok":
            res.errors.append(f"seed {row['seed']} {row['mode']}: {row['status']} {row['detail']}")
    if res.errors:
        return res

    estimates = sorted(outdir.glob("seed_*/est_*.txt"))
    res.trajectory_sha256 = files_digest(outdir, estimates)
    res.trajectory_poses = sum(len(nv.load_trajectory(p)) for p in estimates)
    res.map_counts = {
        k: sum(r["map"][k] for r in runs) for k in ("keyframes", "landmarks", "observations")
    }
    normal = {r["seed"]: r for r in rows if r["mode"] == "normal"}
    baseline = {r["seed"]: r for r in rows if r["mode"] == "baseline"}
    res.ate_rmse_m = statistics.median(float(r["ate_rmse"]) for r in normal.values())
    res.rde_mean_m = statistics.median(float(r["rde_mean"]) for r in normal.values())
    res.ate_ratio = statistics.median(
        float(normal[s]["ate_rmse"]) / float(baseline[s]["ate_rmse"]) for s in normal
    )
    return res


# --- checks ---


def check_passes(passes: list[PassResult], expected_poses: int) -> list[str]:
    """Failures found by comparing the passes of one run with each other."""
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {e}" for e in p.errors]
        if p.errors:
            continue
        if p.trajectory_poses != expected_poses:
            problems.append(
                f"pass {i}: {p.trajectory_poses} estimated poses, expected {expected_poses}"
            )
        if not p.ate_rmse_m <= MAX_ATE_RMSE_M:
            problems.append(f"pass {i}: ATE RMSE {p.ate_rmse_m} m over {MAX_ATE_RMSE_M} m")
    done = [p for p in passes if not p.errors]
    for i, p in enumerate(done[1:], start=1):
        if p.trajectory_sha256 != done[0].trajectory_sha256:
            problems.append(f"pass {i}: trajectory differs from pass 0")
        if p.map_counts != done[0].map_counts:
            problems.append(f"pass {i}: map {p.map_counts} differs from {done[0].map_counts}")
    return problems


def check_ledger(key: str, entry: dict) -> list[str]:
    """Compare with earlier runs of the same code on the same inputs, then
    append this run. Outputs, map sizes and traced counts must repeat."""
    problems = []
    if LEDGER.is_file():
        for line in LEDGER.read_text(encoding="utf-8").splitlines():
            old = json.loads(line)
            if old["key"] != key:
                continue
            for name in ("trajectory_sha256", "map", "counts"):
                if name in old and name in entry and old[name] != entry[name]:
                    problems.append(f"{name} differs from an earlier run of the same code and inputs")
    with open(LEDGER, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": key, **entry}, sort_keys=True) + "\n")
    return problems


# --- machine record ---


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return None


def _thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_record(workload: str, seed: int, src_digest: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "process_threads": _thread_count(),
        "git_commit": _git_commit(),
        "source_sha256": src_digest,
    }


# --- metrics ---


def _percentile_ms(gaps_ns, q: float) -> float:
    return float(np.percentile(gaps_ns, q)) / 1e6


def end_to_end(passes: list[PassResult], setup: tuple[list[float], list[float]]) -> dict:
    """Every end-to-end metric; calibrated times, then their raw wall-clock
    counterparts under ``.wall``."""
    raw_gaps = np.concatenate([p.gaps_ns for p in passes])
    cal_gaps = np.concatenate([p.calibrated_gaps_ns for p in passes])
    first = passes[0]
    attempted = sum(p.frames for p in passes)
    m = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "frames_per_s": (attempted / sum(p.calibrated_s for p in passes), "1/s"),
        "frame_ms.p50": (_percentile_ms(cal_gaps, 50), "ms"),
        "frame_ms.p99": (_percentile_ms(cal_gaps, 99), "ms"),
        "ate_rmse_m": (first.ate_rmse_m, "m"),
        "rde_mean_m": (first.rde_mean_m, "m"),
        "failed_frac": (sum(p.unreached + p.coasted for p in passes) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if first.ate_ratio is not None:
        m["ate_ratio"] = (first.ate_ratio, "ratio")
    m["setup_s.wall"] = (statistics.median(setup[0]), "s")
    m["frames_per_s.wall"] = (attempted / sum(p.wall_s for p in passes), "1/s")
    m["frame_ms.p50.wall"] = (_percentile_ms(raw_gaps, 50), "ms")
    m["frame_ms.p99.wall"] = (_percentile_ms(raw_gaps, 99), "ms")
    return m


def per_layer(tracer, traced: PassResult, untraced: PassResult) -> dict:
    lt = tracer.layer_times()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations_ns": np.zeros(0)}

    def t(name):
        return lt.get(name, empty)

    c = tracer.counts
    ba = t("estimator.local_bundle_adjustment")
    ba_ms = ba["durations_ns"] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in (
        "estimator.local_bundle_adjustment",
        "estimator.reject_outliers",
        "estimator.track_frame",
        "estimator.insert_keyframe",
        "estimator.cull_landmarks",
    ):
        m[f"{name}.s"] = (t(name)["s"], "s")
        m[f"{name}.self_s"] = (t(name)["self_s"], "s")
        m[f"{name}.calls"] = (t(name)["calls"], "count")
    m["estimator.local_bundle_adjustment.ms_p50"] = (
        float(np.median(ba_ms)) if ba_ms.size else 0.0,
        "ms",
    )
    m["estimator.local_bundle_adjustment.iterations"] = (c["ba.iterations"], "count")
    m["estimator.local_bundle_adjustment.accept_frac"] = (
        ratio(c["ba.accepted"], c["ba.iterations"]),
        "ratio",
    )
    m["estimator.local_bundle_adjustment.window_obs_mean"] = (
        ratio(c["ba.window_obs"], ba["calls"]),
        "count",
    )
    m["estimator.reject_outliers.removed_frac"] = (
        ratio(c["reject.removed"], c["reject.examined"]),
        "ratio",
    )
    m["estimator.track_frame.retries"] = (c["track.retries"], "count")
    m["estimator.track_frame.coasted"] = (traced.coasted, "count")
    m["estimator.track_frame.inlier_frac"] = (
        ratio(c["track.inliers"], c["track.matched"]),
        "ratio",
    )
    m["estimator.cull_landmarks.culled"] = (c["cull.culled"], "count")
    for k in ("keyframes", "landmarks", "observations"):
        m[f"estimator.map.{k}"] = (c[f"map.{k}"], "count")
    for name in (
        "factors.reprojection_jacobians",
        "factors.huber",
        "factors.normal_residual",
        "factors.normal_jacobian",
        "geometry.project",
        "geometry.apply_update",
        "geometry.nearest_rotation",
    ):
        m[f"{name}.calls"] = (t(name)["calls"], "count")
        m[f"{name}.s"] = (t(name)["s"], "s")
    m["factors.reprojection_jacobians.points"] = (c["jacobians.points"], "count")
    m["geometry.PoseSE3.constructions"] = (t("geometry.PoseSE3")["calls"], "count")
    m["geometry.PoseSE3.s"] = (t("geometry.PoseSE3")["s"], "s")
    normal = t("estimator.run_sequence.normal")
    baseline = t("estimator.run_sequence.baseline")
    m["estimator.run_sequence.normal_s"] = (normal["s"], "s")
    m["estimator.run_sequence.baseline_s"] = (baseline["s"], "s")
    m["estimator.run_sequence.self_s"] = (normal["self_s"] + baseline["self_s"], "s")
    for name in (
        "simulator.generate_sequence",
        "evaluation.ate",
        "evaluation.rde",
        "dataset.save_trajectory",
        "dataset.load_dataset",
        "cli.cmd_experiment",
    ):
        m[f"{name}.s"] = (t(name)["s"], "s")
    m["cli.cmd_experiment.self_s"] = (t("cli.cmd_experiment")["self_s"], "s")
    m["trace.spans"] = (len(tracer.span_start), "count")
    m["trace.frames_per_s.untraced"] = (untraced.frames_per_s, "1/s")
    m["trace.frames_per_s.traced"] = (traced.frames_per_s, "1/s")
    m["trace.overhead_pct"] = (
        100.0 * (untraced.frames_per_s - traced.frames_per_s) / untraced.frames_per_s,
        "%",
    )
    return m


def exact_counts(tracer) -> dict:
    """Counts that must repeat exactly between traced runs of one input."""
    out = {f"{n}.calls": v["calls"] for n, v in tracer.layer_times().items()}
    out.update(tracer.counts)
    return dict(sorted(out.items()))


# --- driver ---


def declared_metrics(section: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[section]]


def run_workload(args) -> dict:
    nv = load_program()
    src_digest = source_digest()
    run_dir = OUT / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    print(f"[{args.workload}] generating inputs for seed {args.seed}", file=sys.stderr)
    in_path, in_digest = generate_inputs(args.workload, args.seed, work / "input")
    experiment = args.workload == "ab-sweep"
    setup = time_setup(
        "config" if experiment else "dataset", in_path, work / "probe.log"
    )

    if experiment:
        cfg = nv.load_config(in_path)
        expected_poses = 2 * cfg.scene.frame_count * len(cfg.seeds)

        def one_pass():
            return experiment_pass(nv, in_path, work / "experiment", work / "experiment.log")

        traced_pass = one_pass

    else:
        ds = nv.load_dataset(in_path)
        expected_poses = len(ds.frames)

        def one_pass():
            return dataset_pass(nv, ds, work / "trajectory.txt")

        def traced_pass():
            # loads again so that load_dataset shows in the trace
            return dataset_pass(nv, nv.load_dataset(in_path), work / "trajectory.txt")

    passes = []
    tracer = None
    start = time.perf_counter()
    while True:
        print(f"[{args.workload}] pass {len(passes)}", file=sys.stderr)
        passes.append(one_pass())
        gc.collect()
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    if args.trace:
        print(f"[{args.workload}] traced pass", file=sys.stderr)
        with Tracer() as tracer:
            passes.append(traced_pass())
        tracer.save(run_dir / "spans.npz")

    problems = check_passes(passes, expected_poses)
    done = [p for p in passes if not p.errors]
    key = f"{args.workload}|{args.seed}|{in_digest}|{src_digest}"
    entry = {}
    if done:
        entry = {"trajectory_sha256": done[0].trajectory_sha256, "map": done[0].map_counts}
    if tracer is not None:
        entry["counts"] = exact_counts(tracer)
    problems += check_ledger(key, entry)

    metrics = end_to_end(passes[:1] if args.trace else passes, setup)
    if tracer is not None:
        metrics.update(per_layer(tracer, passes[1], passes[0]))
    attempted = sum(p.frames for p in passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": in_digest,
        "source_sha256": src_digest,
        "passes": [
            {k: v for k, v in vars(p).items() if not k.endswith("gaps_ns")} for p in passes
        ],
        "setup_s_samples": {"wall": setup[0], "calibrated": setup[1]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(p.unreached for p in passes),
    }
    (run_dir / "results.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    machine = machine_record(args.workload, args.seed, src_digest)
    (run_dir / "machine.json").write_text(json.dumps(machine, indent=1), encoding="utf-8")
    shutil.rmtree(work / "input", ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    print(f"inputs sha256 {in_digest}")
    print(f"machine {machine['cpu_model']}, nproc {machine['nproc']}, numpy {machine['numpy']}, {machine['blas']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks {'passed' if not problems else 'FAILED'}; results in {run_dir.relative_to(ROOT)}")
    return result


def report_line(result: dict, section: str) -> dict:
    metrics = {}
    for name, unit in declared_metrics(section):
        value = result["metrics"][name]["value"]
        metrics[name] = {"value": value if math.isfinite(value) else None, "unit": unit}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own process, in turn; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        lines = run_child(argv, f"workload {workload}").splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            line = run_all(args)
        else:
            result = run_workload(args)
            line = report_line(result, "per_layer" if args.trace else "end_to_end")
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
