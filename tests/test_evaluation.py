import inspect

import numpy as np
import pytest

from normalvo.evaluation import (
    MetricReport,
    SequenceTooShort,
    TimestampMismatch,
    TooFewPoses,
    Trajectory,
    align,
    associate,
    ate,
    pool_reports,
    rde,
    report_csv,
    report_table,
)
from normalvo.geometry import PoseSE3, so3_exp


def make_trajectory(positions, rotations=None, t0=0.0, dt=0.1):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if rotations is None:
        rotations = [np.eye(3)] * n
    poses = [PoseSE3(R, p) for R, p in zip(rotations, positions)]
    return Trajectory(t0 + dt * np.arange(n), poses)


def random_trajectory(rng, n, rot_scale=0.3):
    positions = np.cumsum(rng.normal(scale=0.5, size=(n, 3)), axis=0)
    rotations = [so3_exp(rng.normal(scale=rot_scale, size=3)) for _ in range(n)]
    return make_trajectory(positions, rotations)


def transformed(traj, G):
    return Trajectory(traj.timestamps.copy(), [G.compose(p) for p in traj.poses])


def test_trajectory_rejects_nonincreasing_timestamps():
    poses = [PoseSE3.identity()] * 3
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2, 0.2]), poses)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.2]), poses)


@pytest.mark.parametrize("stamp", [np.nan, np.inf])
def test_trajectory_rejects_non_finite_timestamps(stamp):
    poses = [PoseSE3.identity()] * 3
    with pytest.raises(ValueError, match="finite"):
        Trajectory(np.array([0.0, stamp, 0.4]), poses)


def _stacks(rng, n):
    R = so3_exp(rng.normal(scale=0.5, size=(n, 3)))
    return np.arange(n) * 0.1, R, rng.normal(size=(n, 3))


def test_trajectory_arrays_round_trip_through_poses():
    stamps, R, t = _stacks(np.random.default_rng(2), 7)
    traj = Trajectory(stamps, R=R, t=t)
    assert np.array_equal(traj.rotations, R) and np.array_equal(traj.positions, t)
    poses = traj.poses
    assert all(isinstance(p, PoseSE3) for p in poses)
    back = Trajectory(traj.timestamps, poses)
    for name in ("timestamps", "R", "t"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))
    assert len(back) == 7


def test_trajectory_arrays_are_read_only_copies():
    stamps, R, t = _stacks(np.random.default_rng(3), 4)
    traj = Trajectory(stamps, R=R, t=t)
    t[0] = 99.0
    assert traj.t[0, 0] != 99.0
    with pytest.raises(ValueError):
        traj.positions[0] = 0.0


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda R, t: R.__setitem__((2, 0, 0), R[2, 0, 0] + 1e-6), "orthonormal"),
        (lambda R, t: R.__setitem__((1,), -R[1]), "determinant"),
        (lambda R, t: t.__setitem__((3, 1), np.nan), "finite"),
    ],
)
def test_trajectory_validates_every_pose_like_pose_se3(corrupt, message):
    stamps, R, t = _stacks(np.random.default_rng(4), 5)
    corrupt(R, t)
    with pytest.raises(ValueError, match=message):
        Trajectory(stamps, R=R, t=t)


def test_trajectory_rejects_misshapen_stacks():
    stamps, R, t = _stacks(np.random.default_rng(5), 5)
    with pytest.raises(ValueError, match="disagree in length"):
        Trajectory(stamps[:4], R=R, t=t)
    with pytest.raises(ValueError, match=r"expects R \(N, 3, 3\)"):
        Trajectory(stamps, R=R, t=t[:4])


def test_align_identity_when_equal():
    traj = random_trajectory(np.random.default_rng(0), 12)
    S = align(traj, traj)
    assert np.allclose(S.R, np.eye(3), atol=1e-12)
    assert np.allclose(S.t, 0.0, atol=1e-12)


def test_align_recovers_known_transform():
    rng = np.random.default_rng(1)
    gt = random_trajectory(rng, 15)
    G = PoseSE3(so3_exp(np.array([0.2, -0.4, 1.1])), np.array([3.0, -2.0, 0.7]))
    est = transformed(gt, G)
    S = align(est, gt)
    assert np.allclose(S.R, G.R, atol=1e-10)
    assert np.allclose(S.t, G.t, atol=1e-10)
    # and the aligned residual vanishes
    res = est.positions - (gt.positions @ S.R.T + S.t)
    assert np.max(np.abs(res)) < 1e-10


def _alignment_objective(params, src, dst):
    R = so3_exp(params[:3])
    t = params[3:]
    res = dst - (src @ R.T + t)
    return float(np.sum(res * res))


def test_align_matches_brute_force_minimizer():
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    for _ in range(5):
        gt = random_trajectory(rng, 8)
        est = random_trajectory(rng, 8)
        S = align(est, gt)
        closed = float(
            np.sum((est.positions - (gt.positions @ S.R.T + S.t)) ** 2)
        )
        best, best_x = np.inf, None
        for _ in range(12):
            x0 = np.concatenate(
                [rng.uniform(-np.pi, np.pi, 3), rng.normal(scale=2.0, size=3)]
            )
            out = minimize(
                _alignment_objective,
                x0,
                args=(gt.positions, est.positions),
                method="BFGS",
                options={"gtol": 1e-10, "maxiter": 500},
            )
            if out.fun < best:
                best, best_x = out.fun, out.x
        # closed form is the global optimum; numerical search only approaches it
        assert closed <= best + 1e-9
        assert abs(closed - best) < 1e-6
        assert np.allclose(so3_exp(best_x[:3]), S.R, atol=1e-5)
        assert np.allclose(best_x[3:], S.t, atol=1e-5)


def test_align_too_few_poses():
    traj = make_trajectory([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(TooFewPoses):
        align(traj, traj)
    with pytest.raises(TooFewPoses):
        ate(traj, traj)


def test_ate_zero_for_identical():
    traj = random_trajectory(np.random.default_rng(3), 20)
    rep = ate(traj, traj)
    assert np.max(rep.errors) < 1e-12
    assert rep.rmse < 1e-12


def test_ate_discards_z_offset():
    gt = make_trajectory([[0, 0, 0], [1, 0, 0], [2, 1, 0], [3, 1, 0]])
    est_positions = gt.positions + np.array([0.0, 0.0, 3.0])
    est = make_trajectory(est_positions)
    rep = ate(est, gt, S=PoseSE3.identity())
    assert np.max(rep.errors) < 1e-12
    rep = ate(est, gt)
    assert np.max(rep.errors) < 1e-12


def test_ate_two_pose_hand_computed():
    # frame 0 identical; frame 1 rotated 90 deg about z and offset in x-y
    Rz = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
    est = make_trajectory([[0, 0, 0], [1, 0, 0]], [np.eye(3), Rz])
    gt = make_trajectory([[0, 0, 0], [2, 1, 0]], [np.eye(3), np.eye(3)])
    rep = ate(est, gt, S=PoseSE3.identity())
    # delta_1 = est_1^-1 gt_1: translation Rz(-90)(1, 1, 0) = (1, -1, 0)
    assert rep.errors == pytest.approx([0.0, np.sqrt(2.0)], abs=1e-12)
    assert rep.mean == pytest.approx(np.sqrt(2.0) / 2, abs=1e-12)


def test_ate_invariant_under_rigid_transform_of_estimate():
    rng = np.random.default_rng(11)
    gt = random_trajectory(rng, 40)
    est = Trajectory(
        gt.timestamps.copy(),
        [
            PoseSE3(
                p.R @ so3_exp(rng.normal(scale=0.01, size=3)),
                p.t + rng.normal(scale=0.05, size=3),
            )
            for p in gt.poses
        ],
    )
    base = ate(est, gt)
    for _ in range(4):
        G = PoseSE3(
            so3_exp(rng.uniform(-np.pi, np.pi, 3) * 0.9),
            rng.normal(scale=5.0, size=3),
        )
        moved = ate(transformed(est, G), gt)
        for stat in ("mean", "median", "rmse", "sd"):
            assert getattr(moved, stat) == pytest.approx(
                getattr(base, stat), abs=1e-9
            )


def test_rde_zero_for_identical():
    traj = random_trajectory(np.random.default_rng(5), 30)
    rep = rde(traj, traj, delta=5)
    assert np.max(rep.errors) < 1e-12


def test_rde_collinear_hand_case():
    est = make_trajectory([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    gt = make_trajectory([[0, 0, 0], [1.1, 0, 0], [2.2, 0, 0]])
    rep = rde(est, gt, delta=1)
    assert rep.errors == pytest.approx([0.1, 0.1], abs=1e-12)


def test_rde_default_gap_is_20_frames():
    assert inspect.signature(rde).parameters["delta"].default == 20


def test_rde_invariant_under_z_rotation_and_translation():
    rng = np.random.default_rng(13)
    gt = random_trajectory(rng, 50)
    est = random_trajectory(rng, 50)
    base = rde(est, gt, delta=7)
    for _ in range(3):
        Ge = PoseSE3(
            so3_exp(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)])),
            rng.normal(scale=4.0, size=3),
        )
        Gg = PoseSE3(
            so3_exp(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)])),
            rng.normal(scale=4.0, size=3),
        )
        moved = rde(transformed(est, Ge), transformed(gt, Gg), delta=7)
        assert np.allclose(moved.errors, base.errors, atol=1e-9)


def reference_ate_errors(est, gt, S):
    """ATE per matched frame as a loop of pose products, the reference the
    vectorized metric is checked against."""
    est_idx, gt_idx, _ = associate(est, gt)
    errors = []
    for i, j in zip(est_idx, gt_idx):
        delta = est.poses[i].inverse().compose(S).compose(gt.poses[j])
        errors.append(np.hypot(delta.t[0], delta.t[1]))
    return np.array(errors)


def reference_rde_errors(est, gt, delta):
    """RDE per start frame as a loop of pose products."""
    est_idx, gt_idx, _ = associate(est, gt)
    errors = []
    for k in range(len(est_idx) - delta):
        a = est.poses[est_idx[k]].inverse().compose(est.poses[est_idx[k + delta]])
        b = gt.poses[gt_idx[k]].inverse().compose(gt.poses[gt_idx[k + delta]])
        errors.append(abs(np.hypot(a.t[0], a.t[1]) - np.hypot(b.t[0], b.t[1])))
    return np.array(errors)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ate_and_rde_match_the_pose_product_loops(seed):
    # the metrics stack rotations instead of composing poses frame by frame;
    # the sums run in another order, so agreement is to rounding (1e-12 m on
    # metre-scale trajectories), with an unmatched estimate frame dropped
    rng = np.random.default_rng(seed)
    gt = random_trajectory(rng, 60, rot_scale=1.0)
    est = random_trajectory(rng, 61, rot_scale=1.0)
    est = Trajectory(np.append(gt.timestamps, 9.0), est.poses)
    S = align(est, gt)
    expected = reference_ate_errors(est, gt, S)
    np.testing.assert_allclose(ate(est, gt, S=S).errors, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ate(est, gt).errors, expected, rtol=0, atol=1e-12)
    expected = reference_rde_errors(est, gt, 7)
    got = rde(est, gt, delta=7).errors
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_rde_sequence_too_short():
    traj = random_trajectory(np.random.default_rng(2), 10)
    with pytest.raises(SequenceTooShort):
        rde(traj, traj, delta=10)
    with pytest.raises(ValueError):
        rde(traj, traj, delta=0)


def test_metric_report_statistic_identities():
    rng = np.random.default_rng(17)
    for _ in range(50):
        errors = np.abs(rng.normal(scale=rng.uniform(0.1, 5.0), size=rng.integers(1, 200)))
        rep = MetricReport.from_errors(errors)
        assert rep.rmse >= abs(rep.mean)
        assert rep.median <= np.max(errors)
        assert rep.sd**2 == pytest.approx(rep.rmse**2 - rep.mean**2, abs=1e-9)


def test_associate_drops_unmatched_and_counts():
    gt = make_trajectory(np.zeros((6, 3)), dt=0.1)
    # est runs at half rate and extends past gt's end
    est = Trajectory(
        np.array([0.0, 0.2, 0.4, 0.6, 1.4, 1.6]), [PoseSE3.identity()] * 6
    )
    est_idx, gt_idx, dropped = associate(est, gt)
    # est 0.6 is 0.1 s from gt 0.5, outside the 0.05 s tolerance
    assert list(est_idx) == [0, 1, 2]
    assert list(gt_idx) == [0, 2, 4]
    assert dropped == 6


def reference_associate(est, gt):
    """Reference: one searchsorted and up to two candidates per estimate,
    ties to the later pose, each pose matched by its first estimate."""
    tol = 0.5 * float(np.median(np.diff(gt.timestamps))) if len(gt) >= 2 else 0.5
    gt_ts = gt.timestamps
    est_idx, gt_idx = [], []
    used = -1
    for i, t in enumerate(est.timestamps):
        j = int(np.searchsorted(gt_ts, t))
        best, best_dt = None, tol
        for cand in (j - 1, j):
            if 0 <= cand < len(gt_ts):
                dt = abs(gt_ts[cand] - t)
                if dt <= best_dt:
                    best, best_dt = cand, dt
        if best is not None and best > used:
            est_idx.append(i)
            gt_idx.append(best)
            used = best
    if not est_idx:
        raise TimestampMismatch("no match")
    dropped = (len(est) - len(est_idx)) + (len(gt) - len(gt_idx))
    return np.array(est_idx), np.array(gt_idx), dropped


def random_stamps(rng, n, grid):
    """Strictly increasing timestamps: on a dyadic grid with holes, where
    midpoints and half-period gaps are exact, or jittered with long gaps."""
    if grid:
        step = 2.0 ** -int(rng.integers(1, 4))
        return step * np.sort(rng.choice(3 * n, size=n, replace=False))
    gaps = rng.uniform(0.02, 0.12, n) * np.where(rng.random(n) < 0.1, 5.0, 1.0)
    return rng.uniform(-0.5, 0.5) + np.cumsum(gaps)


def test_associate_matches_the_reference_loop_on_random_trajectories():
    rng = np.random.default_rng(29)
    identity = PoseSE3.identity()
    outcomes = set()
    for _ in range(1500):
        grid = rng.random() < 0.4
        stamps = [random_stamps(rng, int(rng.integers(1, 60)), grid) for _ in "ab"]
        if rng.random() < 0.1:
            stamps[0] = stamps[0] + 100.0  # no overlap
        est, gt = (Trajectory(ts, [identity] * len(ts)) for ts in stamps)
        try:
            expected = reference_associate(est, gt)
        except TimestampMismatch:
            with pytest.raises(TimestampMismatch):
                associate(est, gt)
            outcomes.add("mismatch")
            continue
        est_idx, gt_idx, dropped = associate(est, gt)
        np.testing.assert_array_equal(est_idx, expected[0])
        np.testing.assert_array_equal(gt_idx, expected[1])
        assert dropped == expected[2]
        outcomes.add("dropped" if dropped else "all matched")
    assert outcomes == {"mismatch", "dropped", "all matched"}


def test_associate_disjoint_raises():
    gt = make_trajectory(np.zeros((4, 3)), t0=0.0, dt=0.1)
    est = make_trajectory(np.zeros((4, 3)), t0=100.0, dt=0.1)
    with pytest.raises(TimestampMismatch):
        associate(est, gt)


def test_report_table_total_pools_frames():
    rng = np.random.default_rng(19)
    series = {
        "with": {
            "seq-a": np.abs(rng.normal(size=30)),
            "seq-b": np.abs(rng.normal(size=70)),
        },
        "without": {
            "seq-a": np.abs(rng.normal(size=30)),
            "seq-b": np.abs(rng.normal(size=70)),
        },
    }
    reports = {
        m: {d: MetricReport.from_errors(e) for d, e in per.items()}
        for m, per in series.items()
    }
    table = report_table(reports, title="ATE", unit="m")
    total_line = [l for l in table.splitlines() if l.startswith("Total")][0]
    pooled = MetricReport.from_errors(
        np.concatenate(list(series["with"].values()))
    )
    cells = total_line.split("|")[1].split()
    assert float(cells[0]) == pytest.approx(pooled.mean, abs=5e-4)
    assert float(cells[2]) == pytest.approx(pooled.rmse, abs=5e-4)
    # pooling is statistics over the concatenated series, not a mean of means
    assert pool_reports(list(reports["with"].values())).mean == pytest.approx(
        pooled.mean, abs=1e-12
    )


def test_report_table_single_dataset_total_matches_row():
    rep = MetricReport.from_errors(np.array([0.5, 1.0, 2.0]))
    table = report_table({"ours": {"seq": rep}})
    lines = table.splitlines()
    row = [l for l in lines if l.startswith("seq")][0]
    total = [l for l in lines if l.startswith("Total")][0]
    assert row.split("|")[1] == total.split("|")[1]


def test_report_table_formats_reference_totals():
    # choose a two-frame series whose pooled mean/RMSE land on known values
    mean, rmse = 3.175, 3.540
    half_spread = np.sqrt(rmse**2 - mean**2)
    errors = np.array([mean - half_spread, mean + half_spread])
    rep = MetricReport.from_errors(errors)
    table = report_table({"baseline": {"seq-1": rep}})
    total = [l for l in table.splitlines() if l.startswith("Total")][0]
    assert "3.175" in total
    assert "3.540" in total


def test_report_csv_round_trips_values():
    import csv
    import io

    rng = np.random.default_rng(23)
    reports = {
        "with": {"a": MetricReport.from_errors(np.abs(rng.normal(size=20)))},
        "without": {"a": MetricReport.from_errors(np.abs(rng.normal(size=20)))},
    }
    text = report_csv(reports, metric="rde")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 4  # one per method-dataset plus one Total per method
    first = rows[0]
    assert first["metric"] == "rde"
    assert float(first["mean"]) == pytest.approx(reports["with"]["a"].mean)
    assert int(first["frames"]) == 20
    totals = [r for r in rows if r["dataset"] == "Total"]
    assert len(totals) == 2
