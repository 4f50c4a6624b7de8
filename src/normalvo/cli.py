"""Command-line front end: simulate, run, evaluate, experiment.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed data,
3 estimator failure (tracking lost or solver diverged). All outputs are
deterministic: the same inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, format_config, format_float, load_config
from .dataset import (
    DataFormatError,
    load_dataset,
    load_trajectory,
    save_trajectory,
    write_dataset,
)
from .estimator import SolverDiverged, TrackingLost, map_cost, run_sequence
from .evaluation import (
    SequenceTooShort,
    TimestampMismatch,
    TooFewPoses,
    associate,
    ate,
    rde,
    report_csv,
    report_table,
)
from .simulator import DegenerateCloud, generate_sequence

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ESTIMATOR = 3

_DATA_ERRORS = (
    ConfigError,
    DataFormatError,
    DegenerateCloud,
    TooFewPoses,
    TimestampMismatch,
    SequenceTooShort,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _claim_output_dir(path: Path, force: bool) -> int | None:
    """Create the directory; refuse to reuse a non-empty one without force."""
    if path.exists():
        if not path.is_dir():
            return _usage_error(f"{path} exists and is not a directory")
        if any(path.iterdir()) and not force:
            return _usage_error(
                f"output directory {path} is not empty (use --force to reuse)"
            )
    path.mkdir(parents=True, exist_ok=True)
    return None


def _with_normal_weight(cfg: RunConfig, weight: float):
    loss = dataclasses.replace(cfg.solver.loss, normal_weight=weight)
    return dataclasses.replace(cfg.solver, loss=loss)


# --- simulate ---


def cmd_simulate(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    outdir = Path(args.outdir)
    refused = _claim_output_dir(outdir, args.force)
    if refused is not None:
        return refused
    sequence = generate_sequence(cfg.scene)
    write_dataset(outdir, sequence, cfg)
    n_obs = sum(f.landmark_ids.size for f in sequence.frames)
    n_bad = sum(int(f.outlier_mask.sum()) for f in sequence.frames)
    print(
        f"wrote {outdir}: {len(sequence.frames)} frames, "
        f"{sequence.landmark_ids.size} landmarks, {n_obs} observations "
        f"({n_bad} corrupted)"
    )
    return EXIT_OK


# --- run ---


def _normal_term_count(map_state, solver) -> int:
    """Keyframes contributing a surface factor to the final map cost."""
    if solver.loss.normal_weight <= 0.0 or map_state.world_normal is None:
        return 0
    return np.count_nonzero(~np.isnan(map_state.kf_normal[:, 0]))


def cmd_run(args) -> int:
    if args.no_normal and args.normal_weight is not None:
        return _usage_error("--no-normal and --lambda contradict each other")
    if args.normal_weight is not None and not 0.0 <= args.normal_weight < np.inf:
        return _usage_error("--lambda must be finite and non-negative")
    ds = load_dataset(args.dataset)
    weight = ds.config.solver.loss.normal_weight
    if args.no_normal:
        weight = 0.0
    elif args.normal_weight is not None:
        weight = args.normal_weight
    solver = _with_normal_weight(ds.config, weight)

    result = run_sequence(ds.frames, ds.intrinsics, solver)

    n_terms = _normal_term_count(result.map_state, solver)
    if logger.isEnabledFor(logging.INFO):  # the costs are only logged
        cost_total = map_cost(result.map_state, solver)
        cost_repro = map_cost(result.map_state, _with_normal_weight(ds.config, 0.0))
        logger.info(
            "final map cost %.9g = reprojection %.9g (%d observations) "
            "+ normal %.9g (%d terms)",
            cost_total,
            cost_repro,
            len(result.map_state.observations),
            cost_total - cost_repro,
            n_terms,
        )

    header_lines = [
        "estimated trajectory",
        f"dataset: {args.dataset}",
        f"normal_weight = {format_float(weight)}",
    ]
    if args.seed is not None:
        header_lines.append(f"seed = {args.seed} (recorded only; the estimator is deterministic)")
    save_trajectory(args.output, result.trajectory, header="\n".join(header_lines))
    n_kf = sum(1 for r in result.records if r.keyframe_id is not None)
    print(
        f"wrote {args.output}: {len(result.records)} poses, {n_kf} keyframes, "
        f"{n_terms} normal terms"
    )
    return EXIT_OK


# --- evaluate ---


def _write_error_csv(path: Path, stamps, indices, errors) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "timestamp", "error"])
        for idx, stamp, err in zip(indices, stamps, errors):
            writer.writerow([int(idx), format_float(stamp), format_float(err)])


def cmd_evaluate(args) -> int:
    if args.delta < 1:
        return _usage_error("--delta must be a positive frame count")
    est = load_trajectory(args.estimate)
    gt = load_trajectory(args.ground_truth)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    est_idx, _, _ = associate(est, gt)
    r_ate = ate(est, gt, planar=args.planar)
    r_rde = rde(est, gt, delta=args.delta)

    label = Path(args.estimate).stem
    reports_ate = {"estimate": {label: r_ate}}
    reports_rde = {"estimate": {label: r_rde}}
    table = (
        report_table(reports_ate, title="ATE")
        + "\n"
        + report_table(reports_rde, title=f"RDE (delta={args.delta})")
    )
    (outdir / "report.txt").write_text(table, encoding="utf-8")
    csv_rde = report_csv(reports_rde, metric="rde")
    (outdir / "summary.csv").write_text(
        report_csv(reports_ate, metric="ate") + csv_rde.split("\n", 1)[1],
        encoding="utf-8",
    )
    _write_error_csv(
        outdir / "errors_ate.csv",
        est.timestamps[est_idx],
        est_idx,
        r_ate.errors,
    )
    n_rde = r_rde.errors.size
    _write_error_csv(
        outdir / "errors_rde.csv",
        est.timestamps[est_idx[:n_rde]],
        est_idx[:n_rde],
        r_rde.errors,
    )
    print(table, end="")
    print(f"report written to {outdir}")
    return EXIT_OK


# --- experiment ---


_PER_SEED_HEADER = [
    "seed",
    "mode",
    "status",
    "frames",
    "ate_mean",
    "ate_median",
    "ate_rmse",
    "ate_sd",
    "rde_mean",
    "rde_median",
    "rde_rmse",
    "rde_sd",
    "seconds",
    "detail",
]

_MODES = ("normal", "baseline")


def cmd_experiment(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    outdir = Path(args.outdir)
    refused = _claim_output_dir(outdir, args.force)
    if refused is not None:
        return refused
    (outdir / "config_used.txt").write_text(format_config(cfg), encoding="utf-8")

    table_ate = {m: {} for m in _MODES}
    table_rde = {m: {} for m in _MODES}
    rows = []
    completed = 0

    for seed in cfg.seeds:
        scene = dataclasses.replace(cfg.scene, seed=seed)
        label = f"seed {seed}"
        try:
            sequence = generate_sequence(scene)
        except _DATA_ERRORS as err:
            for mode in _MODES:
                table_ate[mode][label] = None
                table_rde[mode][label] = None
                rows.append(
                    [seed, mode, "failed", 0] + [""] * 8 + ["0.0", str(err)]
                )
            print(f"seed {seed}: simulation FAILED ({err})", flush=True)
            continue
        gt = sequence.ground_truth
        seed_dir = outdir / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        seed_ok = True
        for mode in _MODES:
            weight = cfg.solver.loss.normal_weight if mode == "normal" else 0.0
            solver = _with_normal_weight(cfg, weight)
            start = time.perf_counter()
            try:
                result = run_sequence(sequence.frames, sequence.intrinsics, solver)
                r_ate = ate(result.trajectory, gt)
                r_rde = rde(result.trajectory, gt, delta=cfg.rde_delta)
            except (TrackingLost, SolverDiverged, *_DATA_ERRORS) as err:
                seconds = time.perf_counter() - start
                seed_ok = False
                table_ate[mode][label] = None
                table_rde[mode][label] = None
                rows.append(
                    [seed, mode, "failed", len(sequence.frames)]
                    + [""] * 8
                    + [f"{seconds:.1f}", str(err)]
                )
                print(f"seed {seed} {mode}: FAILED ({err})", flush=True)
                continue
            seconds = time.perf_counter() - start
            save_trajectory(
                seed_dir / f"est_{mode}.txt",
                result.trajectory,
                header=f"seed {seed}, mode {mode}, "
                f"normal_weight = {format_float(weight)}",
            )
            table_ate[mode][label] = r_ate
            table_rde[mode][label] = r_rde
            rows.append(
                [seed, mode, "ok", len(sequence.frames)]
                + [
                    format_float(v)
                    for v in (
                        r_ate.mean, r_ate.median, r_ate.rmse, r_ate.sd,
                        r_rde.mean, r_rde.median, r_rde.rmse, r_rde.sd,
                    )
                ]
                + [f"{seconds:.1f}", ""]
            )
            print(
                f"seed {seed} {mode}: ATE rmse {r_ate.rmse:.4f} m, "
                f"RDE mean {r_rde.mean:.4f} m ({seconds:.0f}s)",
                flush=True,
            )
        if seed_ok:
            completed += 1

    with open(outdir / "per_seed.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PER_SEED_HEADER)
        writer.writerows(rows)

    summary = (
        report_table(table_ate, title="ATE")
        + "\n"
        + report_table(table_rde, title=f"RDE (delta={cfg.rde_delta})")
    )
    if completed < len(cfg.seeds):
        summary += (
            f"\nWARNING: only {completed} of {len(cfg.seeds)} seeds completed "
            "both modes; totals pool completed runs only.\n"
        )
    (outdir / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    print(f"experiment written to {outdir}")
    return EXIT_OK if completed > 0 else EXIT_ESTIMATOR


# --- wiring ---


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normalvo",
        description="Stereo visual odometry with a planar surface-normal "
        "constraint: synthetic datasets, estimation, and trajectory metrics.",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="debug-level logging"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="warnings and errors only"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic dataset directory")
    p.add_argument("outdir", help="dataset directory to create")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument(
        "--force", action="store_true", help="reuse a non-empty output directory"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="estimate a trajectory from a dataset")
    p.add_argument("dataset", help="dataset directory (from simulate)")
    p.add_argument("output", help="estimated trajectory file to write")
    p.add_argument(
        "--no-normal",
        action="store_true",
        help="disable the surface-normal constraint (baseline mode)",
    )
    p.add_argument(
        "--lambda",
        dest="normal_weight",
        type=float,
        metavar="WEIGHT",
        help="override the surface-constraint weight",
    )
    p.add_argument(
        "--seed",
        type=int,
        help="recorded in the output header; the estimator itself is "
        "deterministic and uses no randomness",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="ATE/RDE report for a trajectory pair")
    p.add_argument("estimate", help="estimated trajectory file")
    p.add_argument("ground_truth", help="ground-truth trajectory file")
    p.add_argument("outdir", help="report directory to write")
    p.add_argument(
        "--delta", type=int, default=20, help="RDE frame step (default 20)"
    )
    p.add_argument(
        "--planar",
        action="store_true",
        help="restrict alignment to yaw plus translation",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "experiment",
        help="A/B sweep: per seed, simulate then run with and without the "
        "surface constraint and compare the metrics",
    )
    p.add_argument("outdir", help="experiment directory to create")
    p.add_argument("--config", help="flat key = value config file (lists seeds)")
    p.add_argument(
        "--force", action="store_true", help="reuse a non-empty output directory"
    )
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        level = logging.DEBUG
    elif args.quiet:
        level = logging.WARNING
    else:
        level = logging.INFO
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        return args.func(args)
    except (*_DATA_ERRORS, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (TrackingLost, SolverDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ESTIMATOR


if __name__ == "__main__":
    sys.exit(main())
