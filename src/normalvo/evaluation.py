"""Trajectory metrics: alignment, absolute and relative drift errors.

Trajectories here are camera-to-world pose sequences (the translation of each
pose is the camera position). The absolute error of frame i is the x-y part of
the translation of ``T_i^-1 * S * T_i^gt`` after fitting the rigid alignment
``S`` (no scale) that maps ground-truth positions onto estimated positions.
The relative error compares in-plane distance traveled over a fixed frame gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PoseSE3, check_poses, nearest_rotation


class TooFewPoses(ValueError):
    """Fewer than 3 matched poses; rigid alignment is underdetermined."""


class TimestampMismatch(ValueError):
    """Trajectories share no usable timestamp overlap."""


class SequenceTooShort(ValueError):
    """Trajectory shorter than the relative-error frame gap."""


class Trajectory:
    """Ordered (timestamp, camera-to-world pose) records as read-only arrays:
    ``timestamps`` (N,), rotations ``R`` (N, 3, 3) and translations ``t``
    (N, 3), validated as one batch with the checks of :class:`PoseSE3`.
    Built from PoseSE3 records, ``Trajectory(timestamps, poses)``, or from
    the stacks, ``Trajectory(timestamps, R=R, t=t)``."""

    def __init__(self, timestamps, poses=None, *, R=None, t=None):
        if poses is not None:
            poses = list(poses)
            R = np.array([p.R for p in poses]).reshape(-1, 3, 3)
            t = np.array([p.t for p in poses]).reshape(-1, 3)
        self.timestamps = np.array(timestamps, dtype=float)
        self.R, self.t = np.array(R, dtype=float), np.array(t, dtype=float)
        if self.R.shape[1:] != (3, 3) or self.t.shape != (len(self.R), 3):
            raise ValueError("Trajectory expects R (N, 3, 3) and t (N, 3)")
        if len(self.R) != len(self.timestamps):
            raise ValueError("timestamps and poses disagree in length")
        check_poses(self.R, self.t)
        if not np.isfinite(self.timestamps).all():
            raise ValueError("timestamps must be finite")
        if len(self.R) > 1 and np.any(np.diff(self.timestamps) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        for a in (self.timestamps, self.R, self.t):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def poses(self) -> list[PoseSE3]:
        """The records as PoseSE3, built on each access."""
        return [PoseSE3(R, t) for R, t in zip(self.R, self.t)]

    @property
    def positions(self) -> np.ndarray:
        return self.t

    @property
    def rotations(self) -> np.ndarray:
        return self.R


@dataclass(frozen=True)
class MetricReport:
    """Per-frame error series [m] and its summary statistics."""

    errors: np.ndarray
    mean: float
    median: float
    rmse: float
    sd: float
    dropped: int = 0

    @classmethod
    def from_errors(cls, errors: np.ndarray, dropped: int = 0) -> "MetricReport":
        e = np.asarray(errors, dtype=float)
        if e.size == 0:
            raise ValueError("cannot summarize an empty error series")
        mean = float(np.mean(e))
        rmse = float(np.sqrt(np.mean(e * e)))
        return cls(
            errors=e,
            mean=mean,
            median=float(np.median(e)),
            rmse=rmse,
            sd=float(np.std(e)),
            dropped=dropped,
        )


def associate(est: Trajectory, gt: Trajectory):
    """Match frames by nearest timestamp within half the ground-truth period.

    Returns (est_indices, gt_indices, n_dropped) with strictly increasing
    matches; raises TimestampMismatch when nothing lines up at all.
    """
    tol = 0.5 * float(np.median(np.diff(gt.timestamps))) if len(gt) >= 2 else 0.5
    ts = est.timestamps
    gt_ts = np.append(gt.timestamps, np.inf)  # a sentinel that matches nothing
    after = np.searchsorted(gt_ts, ts)
    before = np.maximum(after - 1, 0)
    dt_before, dt_after = np.abs(gt_ts[before] - ts), np.abs(gt_ts[after] - ts)
    best = np.where(dt_after <= dt_before, after, before)  # ties go later
    near = np.flatnonzero(np.minimum(dt_before, dt_after) <= tol)
    if not near.size:
        raise TimestampMismatch(
            "no ground-truth pose within half a frame period of any estimate"
        )
    # estimates increase, so their nearest poses never decrease: each pose
    # keeps its first estimate
    gt_idx, first = np.unique(best[near], return_index=True)
    est_idx = near[first]
    dropped = (len(est) - len(est_idx)) + (len(gt) - len(gt_idx))
    return est_idx, gt_idx, dropped


def _fit_rigid(src: np.ndarray, dst: np.ndarray, planar: bool) -> PoseSE3:
    """Closed-form rigid S (rotation + translation, no scale): dst ~ S src.

    With planar=True the rotation is restricted to the z-axis (the flag for
    comparing trajectories that only share a ground plane)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cross = (dst - mu_d).T @ (src - mu_s)
    if planar:
        # 2D Procrustes on x-y, identity on z
        a = cross[0, 0] + cross[1, 1]
        b = cross[1, 0] - cross[0, 1]
        theta = np.arctan2(b, a)
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        R = nearest_rotation(cross)
    return PoseSE3(R, mu_d - R @ mu_s)


def align(est: Trajectory, gt: Trajectory, planar: bool = False) -> PoseSE3:
    """Rigid transform minimizing sum ||t_i - S t_i^gt||^2 over matched frames."""
    est_idx, gt_idx, _ = associate(est, gt)
    if len(est_idx) < 3:
        raise TooFewPoses(f"alignment needs >= 3 matched poses, got {len(est_idx)}")
    return _fit_rigid(gt.positions[gt_idx], est.positions[est_idx], planar)


def ate(
    est: Trajectory,
    gt: Trajectory,
    S: PoseSE3 | None = None,
    planar: bool = False,
) -> MetricReport:
    """Absolute trajectory error over the x-y translation components.

    Per matched frame: ``|| xy( trans(T_i^-1 S T_i^gt) ) ||``. When S is not
    supplied it is fitted internally via :func:`align`.
    """
    est_idx, gt_idx, dropped = associate(est, gt)
    gt_pos, est_pos = gt.positions[gt_idx], est.positions[est_idx]
    if S is None:
        if len(est_idx) < 3:
            raise TooFewPoses(
                f"ATE needs >= 3 matched poses to align, got {len(est_idx)}"
            )
        S = _fit_rigid(gt_pos, est_pos, planar)
    # trans(T_i^-1 S T_i^gt) = R_i^T (S t_i^gt - t_i)
    d = np.einsum("nji,nj->ni", est.rotations[est_idx], gt_pos @ S.R.T + S.t - est_pos)
    return MetricReport.from_errors(np.hypot(d[:, 0], d[:, 1]), dropped=dropped)


def rde(est: Trajectory, gt: Trajectory, delta: int = 20) -> MetricReport:
    """Relative distance error over a gap of ``delta`` frames.

    Per start frame i: the absolute difference of in-plane distance traveled,
    ``| ||xy(T_i^-1 T_{i+d})|| - ||xy(T_i^gt^-1 T_{i+d}^gt)|| ||``.
    """
    if delta < 1:
        raise ValueError("delta must be a positive frame count")
    est_idx, gt_idx, dropped = associate(est, gt)
    n = len(est_idx)
    if n <= delta:
        raise SequenceTooShort(
            f"need more than delta={delta} matched frames, got {n}"
        )
    # trans(T_i^-1 T_{i+d}) = R_i^T (t_{i+d} - t_i), estimate and truth stacked
    t = np.stack([est.positions[est_idx], gt.positions[gt_idx]])
    R = np.stack([est.rotations[est_idx[:-delta]], gt.rotations[gt_idx[:-delta]]])
    d = np.einsum("knji,knj->kni", R, t[:, delta:] - t[:, :-delta])
    moved = np.hypot(d[..., 0], d[..., 1])
    errors = np.abs(moved[0] - moved[1])
    return MetricReport.from_errors(errors, dropped=dropped)


_STATS = ("mean", "median", "rmse", "sd")


def pool_reports(reports) -> MetricReport:
    """Statistics over the concatenation of several per-frame error series."""
    errors = np.concatenate([r.errors for r in reports])
    return MetricReport.from_errors(
        errors, dropped=sum(r.dropped for r in reports)
    )


def report_table(
    reports: dict,
    title: str = "ATE",
    unit: str = "m",
    total_label: str = "Total",
) -> str:
    """Side-by-side comparison table.

    ``reports`` maps method name -> {dataset name -> MetricReport}; datasets
    are pooled per method into a final Total row (statistics of the
    concatenated error series, not averages of averages).
    """
    methods = list(reports.keys())
    datasets: list[str] = []
    for per_method in reports.values():
        for name in per_method:
            if name not in datasets:
                datasets.append(name)

    col_w = 8
    name_w = max([len(total_label)] + [len(d) for d in datasets]) + 2
    lines = []
    header1 = " " * name_w
    header2 = f"{'':<{name_w}}"
    for m in methods:
        block = len(_STATS) * (col_w + 1) - 1
        header1 += "| " + m[: block - 1].center(block - 1) + " "
        header2 += "| " + " ".join(s.upper().center(col_w) for s in _STATS)[: block - 1] + " "
    sep = "-" * len(header2)
    lines += [f"{title} [{unit}]", sep, header1, header2, sep]

    def fmt_row(label, per_method_reports):
        row = f"{label:<{name_w}}"
        for rep in per_method_reports:
            if rep is None:
                row += "| " + " ".join("-".center(col_w) for _ in _STATS) + " "
            else:
                row += "| " + " ".join(
                    f"{getattr(rep, s):>{col_w}.3f}" for s in _STATS
                ) + " "
        return row

    for d in datasets:
        lines.append(fmt_row(d, [reports[m].get(d) for m in methods]))
    lines.append(sep)
    totals = []
    for m in methods:
        per = [r for r in reports[m].values() if r is not None]
        totals.append(pool_reports(per) if per else None)
    lines.append(fmt_row(total_label, totals))
    lines.append(sep)
    return "\n".join(lines) + "\n"


def report_csv(reports: dict, metric: str = "ate", total_label: str = "Total") -> str:
    """Same content as :func:`report_table` in machine-readable form.

    One row per (method, dataset) plus a pooled Total row per method; columns
    metric,method,dataset,mean,median,rmse,sd,frames,dropped.
    """
    lines = ["metric,method,dataset,mean,median,rmse,sd,frames,dropped"]

    def emit(method, dataset, rep):
        stats = ",".join(f"{getattr(rep, s):.9g}" for s in _STATS)
        lines.append(
            f"{metric},{method},{dataset},{stats},{rep.errors.size},{rep.dropped}"
        )

    for method, per_dataset in reports.items():
        for dataset, rep in per_dataset.items():
            if rep is not None:
                emit(method, dataset, rep)
        pooled = [r for r in per_dataset.values() if r is not None]
        if pooled:
            emit(method, total_label, pool_reports(pooled))
    return "\n".join(lines) + "\n"
