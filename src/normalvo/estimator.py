"""Stereo visual-odometry back end.

Per frame: pose-only tracking against the current map, a keyframe decision,
and for keyframes a local bundle adjustment over the covisible neighborhood.
Surface-normal constraints enter both stages through a world-frame ground
normal that is itself optimized over the first few keyframes and then frozen.

All poses held by the estimator map world coordinates into the camera frame.
Trajectories handed back by :func:`run_sequence` are inverted to the
camera-to-world convention used by the evaluation and file formats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .evaluation import Trajectory
from .factors import (
    CHI2_95_3DOF,
    NORMAL_UNIT_TOL,
    RobustLossConfig,
    huber,
    make_tangent_basis,
    normal_jacobian,
    normal_residual,
    reprojection_jacobians,
    reprojection_pose_jacobian,
)
from .geometry import (
    Intrinsics,
    PoseSE3,
    nearest_rotation,
    project,
    transform_point,
    triangulate,
    update_poses,
)

logger = logging.getLogger(__name__)

_DAMPING_FLOOR = 1e-12


class TrackingLost(RuntimeError):
    """Raised when a frame cannot be localized against the map."""

    def __init__(self, frame_id: int, reason: str):
        super().__init__(f"tracking lost at frame {frame_id}: {reason}")
        self.frame_id = frame_id
        self.reason = reason


class SolverDiverged(RuntimeError):
    """Damping hit its ceiling without ever reducing the cost."""


@dataclass(frozen=True)
class SolverConfig:
    """Back-end tuning knobs; defaults match the shipped experiment setup."""

    max_iterations: int = 20
    initial_damping: float = 1e-4
    damping_increase: float = 10.0
    damping_decrease: float = 10.0
    damping_ceiling: float = 1e10
    step_tolerance: float = 1e-8
    cost_tolerance: float = 1e-10
    chi2_threshold: float = CHI2_95_3DOF
    sigma_px: float = 1.0
    min_disparity: float = 0.5
    normal_init_window: int = 10
    keyframe_gap: int = 5
    keyframe_overlap: float = 0.9
    covisibility_min_shared: int = 15
    covisibility_max_window: int = 8
    min_track_observations: int = 6
    min_inlier_fraction: float = 0.5
    cull_misses: int = 3
    max_track_failures: int = 10
    normal_in_tracking: bool = True
    loss: RobustLossConfig = field(default_factory=RobustLossConfig)

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in (
            "initial_damping",
            "damping_ceiling",
            "step_tolerance",
            "cost_tolerance",
            "chi2_threshold",
            "sigma_px",
            "min_disparity",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.damping_increase <= 1.0 or self.damping_decrease <= 1.0:
            raise ValueError("damping factors must exceed 1")
        if not 0.0 < self.keyframe_overlap <= 1.0:
            raise ValueError("keyframe_overlap must be in (0, 1]")
        if not 0.0 < self.min_inlier_fraction <= 1.0:
            raise ValueError("min_inlier_fraction must be in (0, 1]")
        if self.keyframe_gap < 1 or self.normal_init_window < 0:
            raise ValueError("keyframe_gap >= 1 and normal_init_window >= 0")
        if self.covisibility_min_shared < 1 or self.min_track_observations < 3:
            raise ValueError(
                "covisibility_min_shared >= 1 and min_track_observations >= 3"
            )
        if self.cull_misses < 1:
            raise ValueError("cull_misses must be at least 1")
        if self.covisibility_max_window != 0 and self.covisibility_max_window < 2:
            raise ValueError("covisibility_max_window must be 0 (uncapped) or >= 2")
        if self.max_track_failures < 0:
            raise ValueError("max_track_failures must be non-negative")


@dataclass(frozen=True)
class FrameData:
    """Stereo measurements of one frame, keyed by feature-track id."""

    frame_id: int
    timestamp: float
    landmark_ids: np.ndarray
    measurements: np.ndarray
    frame_normal: np.ndarray | None = None

    def __post_init__(self):
        raw = np.asarray(self.landmark_ids)
        ids = raw.astype(int, copy=False)
        if raw.ndim != 1:
            raise ValueError("landmark_ids must be one-dimensional")
        if ids is not raw and not np.array_equal(ids, raw):  # 1.7 is not 1
            raise ValueError("landmark_ids must be integers")
        meas = np.asarray(self.measurements, dtype=float)
        if meas.shape != (ids.size, 3):
            raise ValueError("measurements must have shape (len(landmark_ids), 3)")
        if np.unique(ids).size != ids.size:
            raise ValueError("a frame cannot observe the same landmark twice")
        if not np.all(np.isfinite(meas)):
            raise ValueError("measurements must be finite")
        object.__setattr__(self, "landmark_ids", ids)
        object.__setattr__(self, "measurements", meas)
        if self.frame_normal is not None:
            n = np.asarray(self.frame_normal, dtype=float)
            if n.shape != (3,):
                raise ValueError("frame normal must have shape (3,)")
            if not abs(np.linalg.norm(n) - 1.0) <= NORMAL_UNIT_TOL:  # NaN fails too
                raise ValueError("frame normal must be unit length")
            object.__setattr__(self, "frame_normal", n)

    @cached_property
    def tangent_basis(self) -> np.ndarray | None:
        """Tangent basis of the frame normal (None without one), built on
        first use and shared by every tracking attempt and the keyframe."""
        if self.frame_normal is None:
            return None
        return make_tangent_basis(self.frame_normal)


@dataclass
class Keyframe:
    id: int
    frame_id: int
    timestamp: float
    pose: PoseSE3
    normal: np.ndarray | None = None
    basis: np.ndarray | None = None
    fixed: bool = False
    reference_inliers: int = 0


class MapState:
    """Keyframes, landmarks and the observations tying them together.

    Landmarks are four arrays aligned by row: ids ``landmarks``, ascending,
    positions ``lm_pos`` (N, 3), ``lm_misses``, the consecutive tracking
    rejections (reset on acceptance), and ``lm_nobs``, the number of live
    observations. :meth:`landmark_rows` maps ids to rows.

    Observations are three parallel arrays: keyframe id ``obs_kf``, landmark
    id ``obs_lm`` and measurement ``obs_uvu``. An observation's id is its
    row; removal sets its ``obs_kf`` to -1. Once such dead rows outnumber
    the live ones, the removal drops them, keeping the live rows in order,
    so an id is only valid until the next removal. Covisibility is counted
    from these arrays when asked for.

    Single-writer contract: tracking only reads; insertion, bundle-adjustment
    write-back, and outlier rejection mutate and must not run concurrently.
    """

    def __init__(self, intrinsics: Intrinsics, config: SolverConfig):
        self.intrinsics = intrinsics
        self.config = config
        self.keyframes: list[Keyframe] = []
        self.landmarks = np.zeros(0, dtype=int)
        self.lm_pos = np.zeros((0, 3))
        self.lm_misses = np.zeros(0, dtype=int)
        self.lm_nobs = np.zeros(0, dtype=int)
        self.obs_kf = np.zeros(0, dtype=int)
        self.obs_lm = np.zeros(0, dtype=int)
        self.obs_uvu = np.zeros((0, 3))
        self.world_normal: np.ndarray | None = None
        self.normal_init_remaining: int = config.normal_init_window

    @property
    def normal_active(self) -> bool:
        """True while the world normal is still an optimization variable."""
        return self.world_normal is not None and self.normal_init_remaining > 0

    @property
    def observations(self) -> np.ndarray:
        """Ids of the live observations."""
        return np.flatnonzero(self.obs_kf >= 0)

    def landmark_rows(self, ids) -> np.ndarray:
        """Rows of landmarks ``ids`` in the landmark arrays, -1 where an id
        is not mapped."""
        ids = np.asarray(ids, dtype=int)
        if not self.landmarks.size:
            return np.full(ids.shape, -1)
        rows = np.searchsorted(self.landmarks, ids)
        rows = np.minimum(rows, self.landmarks.size - 1)
        return np.where(self.landmarks[rows] == ids, rows, -1)

    def add_landmarks(self, ids, positions):
        """Map new landmarks ``ids`` at world ``positions`` (N, 3), without
        observations yet."""
        ids = np.asarray(ids, dtype=int).reshape(-1)
        order = np.argsort(ids)
        ids = ids[order]
        if np.any(self.landmark_rows(ids) >= 0) or np.any(ids[1:] == ids[:-1]):
            raise ValueError("landmark id already mapped")
        at = np.searchsorted(self.landmarks, ids)
        self.landmarks = np.insert(self.landmarks, at, ids)
        self.lm_pos = np.insert(
            self.lm_pos, at, np.reshape(positions, (-1, 3))[order], axis=0
        )
        self.lm_misses = np.insert(self.lm_misses, at, 0)
        self.lm_nobs = np.insert(self.lm_nobs, at, 0)

    def add_observations(self, kf_id: int, landmark_ids, uvu) -> np.ndarray:
        """Record measurements ``uvu`` (N, 3) of existing landmarks from one
        keyframe; returns their ids. A keyframe observes a landmark once."""
        ids = np.asarray(landmark_ids, dtype=int).reshape(-1)
        seen = np.isin(ids, self.obs_lm[self.obs_kf == kf_id])
        if seen.any() or np.unique(ids).size != ids.size:
            raise ValueError(f"keyframe {kf_id} observes a landmark twice")
        rows = self.landmark_rows(ids)
        if np.any(rows < 0):
            raise KeyError(f"no landmark {ids[rows < 0][0]}")
        self.lm_nobs[rows] += 1
        start = self.obs_kf.size
        self.obs_kf = np.concatenate([self.obs_kf, np.full(ids.size, kf_id)])
        self.obs_lm = np.concatenate([self.obs_lm, ids])
        self.obs_uvu = np.concatenate([self.obs_uvu, np.reshape(uvu, (-1, 3))])
        return np.arange(start, self.obs_kf.size)

    def remove_observations(self, obs_ids):
        """Drop observations by id (dead or repeated ids count once) and
        delete the landmarks left unobserved; compacts the arrays once dead
        rows outnumber live ones."""
        obs_ids = np.unique(np.asarray(obs_ids, dtype=int))
        obs_ids = obs_ids[self.obs_kf[obs_ids] >= 0]
        self.obs_kf[obs_ids] = -1
        touched, counts = np.unique(self.obs_lm[obs_ids], return_counts=True)
        rows = np.searchsorted(self.landmarks, touched)
        self.lm_nobs[rows] -= counts
        orphans = rows[self.lm_nobs[rows] == 0]
        if orphans.size:
            self.landmarks = np.delete(self.landmarks, orphans)
            self.lm_pos = np.delete(self.lm_pos, orphans, axis=0)
            self.lm_misses = np.delete(self.lm_misses, orphans)
            self.lm_nobs = np.delete(self.lm_nobs, orphans)
        live = self.obs_kf >= 0
        if 2 * np.count_nonzero(live) < live.size:
            self.obs_kf = self.obs_kf[live]
            self.obs_lm = self.obs_lm[live]
            self.obs_uvu = self.obs_uvu[live]

    def covisibility(self, kf_id: int) -> np.ndarray:
        """Landmarks each keyframe shares with ``kf_id``, indexed by keyframe
        id (0 for ``kf_id`` itself)."""
        mine = np.isin(self.obs_lm, self.obs_lm[self.obs_kf == kf_id])
        others = self.obs_kf[mine & (self.obs_kf >= 0) & (self.obs_kf != kf_id)]
        return np.bincount(others, minlength=len(self.keyframes))

    def covisible_keyframes(self, kf_id: int, min_shared: int) -> list[int]:
        """Keyframes sharing at least ``min_shared`` landmarks with ``kf_id``,
        most shared first, ties by id."""
        shared = self.covisibility(kf_id)
        ids = np.flatnonzero(shared >= min_shared)
        return ids[np.lexsort((ids, -shared[ids]))].tolist()


def constant_velocity_init(
    prev: PoseSE3 | None = None, prev_prev: PoseSE3 | None = None
) -> PoseSE3:
    """Extrapolated initial pose; identity when no motion history exists.

    The rotation of the extrapolation is projected back onto SO(3): the
    recursion pose -> extrapolation -> next pose would otherwise double
    accumulated orthonormality error every frame.
    """
    if prev is None:
        return PoseSE3.identity()
    if prev_prev is None:
        return prev
    # prev * prev_prev^-1 * prev, composed on the arrays
    R_inv = prev_prev.R.T
    R_step = prev.R @ R_inv
    t_step = prev.R @ (-R_inv @ prev_prev.t) + prev.t
    return PoseSE3(nearest_rotation(R_step @ prev.R), R_step @ prev.t + t_step)


@dataclass(frozen=True)
class TrackResult:
    pose: PoseSE3
    inlier_ids: np.ndarray
    outlier_ids: np.ndarray
    matched: int
    cost: float


@dataclass(frozen=True)
class _Evaluation:
    """The robust objective at one state, with the per-row terms it sums."""

    pc: np.ndarray  # (M, 3) camera-frame points
    r: np.ndarray  # (M, 3) whitened reprojection residuals, inf behind camera
    sq: np.ndarray  # (M,) whitened squared norms, inf behind the camera
    w: np.ndarray  # (M,) IRLS weights of the reprojection rows
    rn: np.ndarray  # (N, 2) weighted normal residuals
    wn: np.ndarray  # (N,) IRLS weights of the normal rows
    cost: float  # Huber total, inf when any point is behind its camera


def _evaluate(K, config, pc, measured, normals=None, n_w=None) -> _Evaluation:
    """The robust objective at camera-frame points ``pc`` (M, 3).

    Reprojection row i is ``pc[i]`` measured as ``measured[i]``; a row
    behind its camera gets infinite residuals, so it costs inf and weighs 0.
    ``normals``, a triple (world-to-camera rotations, tangent bases, frame
    normals) of the keyframes or frame that measured one, adds their
    weighted tangent-plane factors against the world normal ``n_w``.
    """
    front = pc[:, 2] > 0.0
    behind = not front.all()
    # rows behind the camera project a stand-in point, then read inf
    shown = np.where(front[:, None], pc, 1.0) if behind else pc
    r = (project(K, shown) - measured) / config.sigma_px
    if behind:
        r[~front] = np.inf
    sq = np.einsum("ij,ij->i", r, r)
    rho, w = huber(np.sqrt(sq), config.loss.huber_delta_repro)
    cost = float(rho.sum())
    rn, wn = np.zeros((0, 2)), np.zeros(0)
    if normals is not None:
        rotations, basis, frame_normals = normals
        rn = math.sqrt(config.loss.normal_weight) * normal_residual(
            basis, rotations, n_w, frame_normals
        )
        rho_n, wn = huber(
            np.sqrt(np.einsum("ij,ij->i", rn, rn)), config.loss.huber_delta_normal
        )
        cost += float(rho_n.sum())
    return _Evaluation(pc=pc, r=r, sq=sq, w=w, rn=rn, wn=wn, cost=cost)


def track_frame(
    map_state: MapState,
    frame: FrameData,
    config: SolverConfig,
    prev_pose: PoseSE3 | None = None,
    prev_prev_pose: PoseSE3 | None = None,
) -> TrackResult:
    """Damped Gauss-Newton on the frame pose alone, landmarks fixed.

    Minimizes the robust sum of whitened reprojection residuals over the
    mapped subset of the frame's observations, plus the weighted normal
    residual when a world normal and a frame normal are both available.
    Raises TrackingLost when fewer than the minimum observations match or
    when the post-fit inlier fraction falls below the configured floor.
    """
    K = map_state.intrinsics
    lm_rows = map_state.landmark_rows(frame.landmark_ids)
    mask = lm_rows >= 0
    matched_ids = frame.landmark_ids[mask]
    if matched_ids.size < config.min_track_observations:
        raise TrackingLost(
            frame.frame_id,
            f"{matched_ids.size} mapped observations, "
            f"need {config.min_track_observations}",
        )
    points = map_state.lm_pos[lm_rows[mask]]
    measured = frame.measurements[mask]
    n_w = map_state.world_normal
    use_normal = (
        config.normal_in_tracking
        and config.loss.normal_weight > 0.0
        and n_w is not None
        and frame.frame_normal is not None
    )
    if use_normal:
        basis = frame.tangent_basis
        normal_terms = (basis[None], frame.frame_normal[None])

    def evaluate(R, t) -> _Evaluation:
        normals = (R[None], *normal_terms) if use_normal else None
        return _evaluate(K, config, points @ R.T + t, measured, normals, n_w)

    # the pose is held as one (3, 3), (3,) pair while it is solved
    init = constant_velocity_init(prev_pose, prev_prev_pose)
    R, t = init.R, init.t
    ev = evaluate(R, t)
    if not np.isfinite(ev.cost):
        raise TrackingLost(frame.frame_id, "initial pose puts landmarks behind camera")

    lam = config.initial_damping
    for _ in range(config.max_iterations):
        Jp = reprojection_pose_jacobian(K, ev.pc).reshape(-1, 6) / config.sigma_px
        wJp = np.repeat(ev.w, 3)[:, None] * Jp
        H = Jp.T @ wJp
        g = wJp.T @ ev.r.ravel()
        if use_normal:
            J_phi = math.sqrt(config.loss.normal_weight) * normal_jacobian(
                basis, R, n_w
            )[0]
            H[3:, 3:] += ev.wn[0] * J_phi.T @ J_phi
            g[3:] += ev.wn[0] * J_phi.T @ ev.rn[0]

        accepted = False
        converged = False
        while lam <= config.damping_ceiling:
            damped = H + np.diag(lam * H.diagonal())
            try:
                step = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= config.damping_increase
                continue
            if not np.all(np.isfinite(step)):
                lam *= config.damping_increase
                continue
            if np.linalg.norm(step) < config.step_tolerance:
                converged = True
                break
            new_R, new_t = update_poses(step[None], R[None], t[None])
            new_ev = evaluate(new_R[0], new_t[0])
            if new_ev.cost < ev.cost:
                rel = (ev.cost - new_ev.cost) / max(ev.cost, 1e-300)
                R, t, ev = new_R[0], new_t[0], new_ev
                lam = max(lam / config.damping_decrease, _DAMPING_FLOOR)
                accepted = True
                converged = rel < config.cost_tolerance
                break
            lam *= config.damping_increase
        if converged or not accepted:
            break

    inlier_mask = ev.sq <= config.chi2_threshold
    n_inliers = int(np.count_nonzero(inlier_mask))
    if n_inliers < config.min_track_observations:
        raise TrackingLost(
            frame.frame_id, f"only {n_inliers} inliers after optimization"
        )
    if n_inliers < config.min_inlier_fraction * matched_ids.size:
        raise TrackingLost(
            frame.frame_id,
            f"inlier fraction {n_inliers / matched_ids.size:.2f} below "
            f"{config.min_inlier_fraction:.2f}",
        )
    logger.debug(
        "frame %d: tracked with %d/%d inliers, cost %.6g",
        frame.frame_id,
        n_inliers,
        matched_ids.size,
        ev.cost,
    )
    return TrackResult(
        pose=PoseSE3(R, t),
        inlier_ids=matched_ids[inlier_mask],
        outlier_ids=matched_ids[~inlier_mask],
        matched=int(matched_ids.size),
        cost=ev.cost,
    )


def cull_landmarks(map_state: MapState, track: TrackResult, config: SolverConfig) -> int:
    """Retire landmarks that tracking keeps matching but keeps rejecting.

    A landmark founded on a corrupted stereo measurement is self-consistent
    (its single observation fits it exactly), so bundle adjustment never sees
    a residual against it; the only evidence comes from tracking, where fresh
    measurements of the true feature fail the inlier gate frame after frame.
    Genuine landmarks fail that gate independently per frame, so a run of
    ``cull_misses`` consecutive rejections marks a landmark as poisoned.
    Returns the number of landmarks removed.
    """
    misses = map_state.lm_misses
    rows = map_state.landmark_rows(track.inlier_ids)
    misses[rows[rows >= 0]] = 0
    rows = map_state.landmark_rows(track.outlier_ids)
    rows = rows[rows >= 0]
    misses[rows] += 1
    culled = map_state.landmarks[rows[misses[rows] >= config.cull_misses]]
    if culled.size:
        # "sort" compares element-wise against a short list; numpy's default
        # builds a lookup table over the whole id range, ten times slower here
        live = map_state.obs_kf >= 0
        doomed = np.isin(map_state.obs_lm, culled, kind="sort") & live
        map_state.remove_observations(np.flatnonzero(doomed))
        logger.debug("culled %d landmarks after frame tracking", culled.size)
    return int(culled.size)


def select_keyframe(
    map_state: MapState, frame_id: int, inlier_count: int, config: SolverConfig
) -> bool:
    """Promote when overlap with the last keyframe decays or a gap elapses."""
    last = map_state.keyframes[-1]
    if frame_id - last.frame_id >= config.keyframe_gap:
        return True
    return inlier_count < config.keyframe_overlap * last.reference_inliers


def insert_keyframe(
    map_state: MapState,
    frame: FrameData,
    pose: PoseSE3,
    matched_ids,
    config: SolverConfig,
) -> Keyframe:
    """Add a keyframe: matched inliers become observations, the rest of the
    frame's measurements are triangulated into new landmarks.

    The first keyframe seeds the world normal from its own frame normal; each
    insertion burns one step of the normal-init countdown, freezing the
    world normal once it reaches zero.
    """
    K = map_state.intrinsics
    kf = Keyframe(
        id=len(map_state.keyframes),
        frame_id=frame.frame_id,
        timestamp=frame.timestamp,
        pose=pose,
        normal=frame.frame_normal,
        basis=frame.tangent_basis,
        fixed=len(map_state.keyframes) == 0,
    )
    map_state.keyframes.append(kf)

    ids, meas = frame.landmark_ids, frame.measurements
    mapped = map_state.landmark_rows(ids) >= 0
    new = ~mapped & (meas[:, 0] - meas[:, 2] > config.min_disparity)
    world = transform_point(
        pose.inverse(), triangulate(K, meas[new], d_min=config.min_disparity)
    )
    map_state.add_landmarks(ids[new], world)
    keep = new | (mapped & np.isin(ids, matched_ids))
    map_state.add_observations(kf.id, ids[keep], meas[keep])
    kf.reference_inliers = int(np.count_nonzero(keep))

    if kf.id == 0 and frame.frame_normal is not None:
        map_state.world_normal = pose.R.T @ frame.frame_normal
    map_state.normal_init_remaining = max(map_state.normal_init_remaining - 1, 0)
    logger.debug(
        "keyframe %d (frame %d): %d observations, %d new landmarks",
        kf.id,
        frame.frame_id,
        kf.reference_inliers,
        np.count_nonzero(new),
    )
    return kf


def reject_outliers(map_state: MapState, config: SolverConfig, obs_ids, sq) -> int:
    """Drop the observations ``obs_ids`` whose whitened squared residual norms
    ``sq`` exceed the chi-square threshold (infinite behind the camera);
    landmarks left unobserved are deleted."""
    doomed = np.asarray(obs_ids)[np.asarray(sq) > config.chi2_threshold]
    map_state.remove_observations(doomed)
    return int(doomed.size)


def map_cost(map_state: MapState, config: SolverConfig) -> float:
    """Robust objective over stored observations plus normal factors: the
    cost of a bundle adjustment whose window is every keyframe."""
    return _BAProblem(map_state, range(len(map_state.keyframes)), config).ev.cost


@dataclass(frozen=True)
class BAReport:
    window: tuple
    free_poses: int
    landmarks: int
    observations: int
    iterations: int
    accepted_steps: int
    cost_initial: float
    cost_final: float
    removed_observations: int


class _BAProblem:
    """Linearization workspace for one local bundle adjustment call.

    Holds the window structure (free poses, landmark order, observation
    index arrays), the current state and the objective evaluated there.
    The state is held as arrays: world-to-camera rotations ``R`` (P, 3, 3)
    and translations ``t`` (P, 3) with one row per keyframe of
    ``all_kf_ids``, landmark positions and the world normal; poses become
    PoseSE3 again only in ``write_back``. Rebuilt from the map after a
    mid-run outlier rejection.
    """

    def __init__(self, map_state: MapState, window_ids, config: SolverConfig):
        self.map = map_state
        self.config = config
        self.window_ids = window_ids
        kfs = map_state.keyframes
        obs_kf, obs_lm = map_state.obs_kf, map_state.obs_lm

        # every live observation of a landmark the window sees, grouped by
        # landmark with keyframes ascending
        self.lm_ids = np.unique(obs_lm[np.isin(obs_kf, np.asarray(window_ids))])
        rows = np.flatnonzero(np.isin(obs_lm, self.lm_ids) & (obs_kf >= 0))
        self.obs_ids = rows[np.lexsort((obs_kf[rows], obs_lm[rows]))]
        self.obs_uvu = map_state.obs_uvu[self.obs_ids]
        self.obs_lm = np.searchsorted(self.lm_ids, obs_lm[self.obs_ids])

        self.free_ids = sorted(
            k for k in window_ids if not kfs[k].fixed
        )
        self.all_kf_ids = np.union1d(window_ids, obs_kf[self.obs_ids]).tolist()
        self.obs_pose = np.searchsorted(self.all_kf_ids, obs_kf[self.obs_ids])
        # pose row of each free pose, and free-pose index of each pose row
        # (-1 for poses held fixed)
        self.free_rows = np.searchsorted(self.all_kf_ids, self.free_ids)
        free_of_row = np.full(len(self.all_kf_ids), -1)
        free_of_row[self.free_rows] = np.arange(self.free_rows.size)
        self.obs_free = free_of_row[self.obs_pose]
        # rows are grouped by landmark already; cache segment-sum boundaries
        # (indices are >= 0, so prepending -1 starts the first segment)
        self._lm_starts = np.flatnonzero(np.diff(self.obs_lm, prepend=-1))
        self._lm_segment = self.obs_lm[self._lm_starts]
        free_rows = np.flatnonzero(self.obs_free >= 0)
        order = np.argsort(self.obs_free[free_rows], kind="stable")
        self._free_rows = free_rows[order]
        sorted_free = self.obs_free[self._free_rows]
        self._free_starts = np.flatnonzero(np.diff(sorted_free, prepend=-1))
        self._free_segment = sorted_free[self._free_starts]

        # state
        self.R = np.array([kfs[k].pose.R for k in self.all_kf_ids]).reshape(-1, 3, 3)
        self.t = np.array([kfs[k].pose.t for k in self.all_kf_ids]).reshape(-1, 3)
        # every landmark with a live observation is mapped
        lm_rows = np.searchsorted(map_state.landmarks, self.lm_ids)
        self.points = map_state.lm_pos[lm_rows]
        self.n_w = (
            None if map_state.world_normal is None else map_state.world_normal.copy()
        )

        # normal-factor rows of the window keyframes that measured a normal
        self.normals = None
        normal_kfs = [kfs[k] for k in sorted(window_ids) if kfs[k].basis is not None]
        if normal_kfs and config.loss.normal_weight > 0.0 and self.n_w is not None:
            self.normals = (
                np.searchsorted(self.all_kf_ids, [kf.id for kf in normal_kfs]),
                np.array([kf.basis for kf in normal_kfs]),
                np.array([kf.normal for kf in normal_kfs]),
            )
            self.normal_free = free_of_row[self.normals[0]]
        self.nw_active = self.normals is not None and map_state.normal_active
        self.ev = self.evaluate(self.R, self.t, self.points, self.n_w)

    def evaluate(self, R, t, points, n_w) -> _Evaluation:
        """The objective at stacked poses ``(R, t)``, landmark ``points`` and
        world normal ``n_w``; each observation gathers its own pose."""
        rows = self.obs_pose
        pc = np.einsum("nij,nj->ni", R[rows], points[self.obs_lm]) + t[rows]
        normals = None
        if self.normals is not None:
            normal_rows, basis, frame_normals = self.normals
            normals = (R[normal_rows], basis, frame_normals)
        return _evaluate(
            self.map.intrinsics, self.config, pc, self.obs_uvu, normals, n_w
        )

    def write_back(self):
        for k, row in zip(self.free_ids, self.free_rows.tolist()):
            self.map.keyframes[k].pose = PoseSE3(self.R[row], self.t[row])
        rows = self.map.landmark_rows(self.lm_ids)
        mapped = rows >= 0
        self.map.lm_pos[rows[mapped]] = self.points[mapped]
        if self.nw_active and self.n_w is not None:
            self.map.world_normal = self.n_w / np.linalg.norm(self.n_w)


def _ba_linearize(problem: _BAProblem):
    """Whitened Jacobians at the problem's state, from the camera-frame points
    of ``problem.ev``; the normal ones (None without normal factors) are
    weighted like ``problem.ev.rn``."""
    cfg = problem.config
    inv_sigma = 1.0 / cfg.sigma_px
    R, t = problem.R, problem.t
    rows = problem.obs_pose
    Jp, Jl = reprojection_jacobians(
        problem.map.intrinsics,
        (R[rows], t[rows]),
        problem.points[problem.obs_lm],
        pc=problem.ev.pc,
    )
    J_phi = J_nw = None
    if problem.normals is not None:
        sqrt_lam = math.sqrt(cfg.loss.normal_weight)
        J_phi, J_nw = normal_jacobian(
            problem.normals[1], R[problem.normals[0]], problem.n_w
        )
        J_phi, J_nw = sqrt_lam * J_phi, sqrt_lam * J_nw
    return Jp * inv_sigma, Jl * inv_sigma, J_phi, J_nw


def _ba_assemble(problem: _BAProblem, Jp_all, Jl_all, J_phi, J_nw):
    """Accumulate the Schur-ready normal-equation blocks.

    Per-row block products ``J^T (w J)`` are matmuls over swapped axes,
    several times faster than a batched einsum at window sizes; products
    with vectors stay einsums, which are faster there.
    """
    ev = problem.ev
    P = len(problem.free_ids)
    L = len(problem.lm_ids)
    extra = 1 if problem.nw_active else 0
    Hpp = np.zeros((P, 6, 6))
    gp = np.zeros((P, 6))
    Hll = np.zeros((L + extra, 3, 3))
    gl = np.zeros((L + extra, 3))
    # W[p, :, l, :] is the 6x3 block of free pose p and landmark l
    W = np.zeros((P, 6, L + extra, 3))

    wJl = ev.w[:, None, None] * Jl_all
    Hll[problem._lm_segment] = np.add.reduceat(
        np.swapaxes(wJl, 1, 2) @ Jl_all, problem._lm_starts, axis=0
    )
    gl[problem._lm_segment] = np.add.reduceat(
        np.einsum("nab,na->nb", wJl, ev.r), problem._lm_starts, axis=0
    )

    free = problem._free_rows
    if free.size:
        wJpT = np.swapaxes(ev.w[free, None, None] * Jp_all[free], 1, 2)
        Hpp[problem._free_segment] = np.add.reduceat(
            wJpT @ Jp_all[free], problem._free_starts, axis=0
        )
        gp[problem._free_segment] = np.add.reduceat(
            np.einsum("nba,na->nb", wJpT, ev.r[free]), problem._free_starts, axis=0
        )
        # each (pose, landmark) pair is observed once, so no block repeats
        W[problem.obs_free[free], :, problem.obs_lm[free], :] = wJpT @ Jl_all[free]

    if J_phi is not None:
        # one normal row per keyframe, so the free-pose indices are distinct
        wJ_phiT = np.swapaxes(ev.wn[:, None, None] * J_phi, 1, 2)
        p = problem.normal_free
        on = p >= 0
        Hpp[p[on], 3:, 3:] += wJ_phiT[on] @ J_phi[on]
        gp[p[on], 3:] += np.einsum("nba,na->nb", wJ_phiT[on], ev.rn[on])
        if problem.nw_active:
            wJ_nw = ev.wn[:, None, None] * J_nw
            Hll[L] += np.einsum("nab,nac->bc", wJ_nw, J_nw)
            gl[L] += np.einsum("nab,na->b", wJ_nw, ev.rn)
            W[p[on], 3:, L, :] += wJ_phiT[on] @ J_nw[on]
            # the residual is scale-free in n_w, so its radial direction has
            # exactly zero curvature and gradient; pin it so the block inverts
            n_hat = problem.n_w / np.linalg.norm(problem.n_w)
            Hll[L] += np.trace(Hll[L]) * np.outer(n_hat, n_hat)
    return Hpp, gp, Hll, gl, W.reshape(6 * P, 3 * (L + extra))


def _ba_solve(Hpp, gp, Hll, gl, W, lam):
    """Damped Schur-complement solve; returns (pose steps, landmark steps)."""
    P = Hpp.shape[0]
    Hpp_d = Hpp + lam * (np.eye(6) * Hpp.diagonal(axis1=1, axis2=2)[:, :, None])
    Hll_d = Hll + lam * (np.eye(3) * Hll.diagonal(axis1=1, axis2=2)[:, :, None])
    Hll_inv = np.linalg.inv(Hll_d)
    if P == 0:
        dl = -np.einsum("lab,lb->la", Hll_inv, gl)
        return np.zeros((0, 6)), dl
    Lb = Hll.shape[0]
    # W Hll^-1, block column by block column: (Lb, 6P, 3) @ (Lb, 3, 3)
    W3 = W.reshape(6 * P, Lb, 3).swapaxes(0, 1)
    WHinv = (W3 @ Hll_inv).swapaxes(0, 1).reshape(6 * P, 3 * Lb)
    Hred = -WHinv @ W.T
    diag = np.arange(P)
    Hred.reshape(P, 6, P, 6)[diag, :, diag, :] += Hpp_d
    gred = gp.ravel() - WHinv @ gl.ravel()
    dp = np.linalg.solve(Hred, -gred).reshape(P, 6)
    rhs = gl + (W.T @ dp.ravel()).reshape(Lb, 3)
    dl = -np.einsum("lab,lb->la", Hll_inv, rhs)
    return dp, dl


def local_bundle_adjustment(
    map_state: MapState, current_kf_id: int, config: SolverConfig
) -> BAReport:
    """Optimize the covisible window around one keyframe.

    Window poses float (except gauge-fixed ones), every landmark they observe
    floats, and keyframes outside the window that also see those landmarks
    contribute observations at fixed poses. The world normal joins the
    variables while its init countdown is running.

    Outliers are rejected twice: once at the incoming state before any
    refinement, and once at convergence. The first pass matters most; the
    Huber tail keeps pulling, so refining first lets a corrupted measurement
    drag its landmark to a compromise where the clean partner observation
    sits right at the chi-square boundary and the margin between inliers
    and outliers is gone. At the incoming state (tracked pose, triangulated
    or previously adjusted landmarks) that margin is widest. The reported
    initial cost is taken after the first pass, where optimization starts.
    """
    if len(map_state.keyframes) < 2:
        raise ValueError("local bundle adjustment needs at least 2 keyframes")
    neighbors = map_state.covisible_keyframes(
        current_kf_id, config.covisibility_min_shared
    )
    cap = config.covisibility_max_window
    if cap:
        neighbors = neighbors[: cap - 1]
    window = {current_kf_id} | set(neighbors)
    problem = _BAProblem(map_state, sorted(window), config)
    lam = config.initial_damping
    accepted = 0
    iterations = 0
    removed_total = 0
    any_accept = False

    def run_rejection() -> int:
        nonlocal problem, removed_total
        problem.write_back()
        # ev is the evaluation at exactly the state write_back stored
        removed = reject_outliers(map_state, config, problem.obs_ids, problem.ev.sq)
        removed_total += removed
        logger.debug(
            "ba[%d]: rejection removed %d observations", current_kf_id, removed
        )
        if removed:
            problem = _BAProblem(map_state, problem.window_ids, config)
        return removed

    # behind-camera observations come out with infinite residuals, so this
    # pass also clears any state the solver could not even linearize
    run_rejection()
    cost_initial = problem.ev.cost
    final_pass_done = False

    while iterations < config.max_iterations:
        iterations += 1
        Hpp, gp, Hll, gl, W = _ba_assemble(problem, *_ba_linearize(problem))

        step_accepted = False
        converged = False
        while lam <= config.damping_ceiling:
            try:
                dp, dl = _ba_solve(Hpp, gp, Hll, gl, W, lam)
            except np.linalg.LinAlgError:
                lam *= config.damping_increase
                continue
            if not (np.all(np.isfinite(dp)) and np.all(np.isfinite(dl))):
                lam *= config.damping_increase
                continue
            step_norm = math.sqrt(
                float(np.sum(dp * dp)) + float(np.sum(dl * dl))
            )
            if step_norm < config.step_tolerance:
                converged = True
                break
            # one batched update of every free pose
            new_R, new_t = problem.R.copy(), problem.t.copy()
            rows = problem.free_rows
            new_R[rows], new_t[rows] = update_poses(dp, problem.R[rows], problem.t[rows])
            L = len(problem.lm_ids)
            new_points = problem.points + dl[:L]
            new_nw = problem.n_w
            if problem.nw_active:
                new_nw = problem.n_w + dl[L]
            new_ev = problem.evaluate(new_R, new_t, new_points, new_nw)
            if new_ev.cost < problem.ev.cost:
                rel = (problem.ev.cost - new_ev.cost) / max(problem.ev.cost, 1e-300)
                problem.R, problem.t = new_R, new_t
                problem.points = new_points
                problem.n_w = new_nw
                problem.ev = new_ev
                lam = max(lam / config.damping_decrease, _DAMPING_FLOOR)
                accepted += 1
                any_accept = True
                step_accepted = True
                converged = rel < config.cost_tolerance
                logger.debug(
                    "ba[%d]: iter %d accepted cost %.9g",
                    current_kf_id,
                    accepted,
                    new_ev.cost,
                )
                break
            lam *= config.damping_increase

        if not step_accepted and not converged and not any_accept:
            raise SolverDiverged(
                f"bundle adjustment at keyframe {current_kf_id}: damping ceiling "
                f"{config.damping_ceiling:g} reached without an accepted step"
            )
        if converged or not step_accepted:
            if final_pass_done:
                break
            final_pass_done = True
            if run_rejection() == 0:
                break
            # the refined geometry exposed more outliers; resume on the
            # pruned problem

    problem.write_back()
    logger.debug(
        "ba[%d]: %d iterations, %d accepted, cost %.9g -> %.9g, removed %d",
        current_kf_id,
        iterations,
        accepted,
        cost_initial,
        problem.ev.cost,
        removed_total,
    )
    return BAReport(
        window=tuple(problem.window_ids),
        free_poses=len(problem.free_ids),
        landmarks=len(problem.lm_ids),
        observations=int(problem.obs_ids.size),
        iterations=iterations,
        accepted_steps=accepted,
        cost_initial=cost_initial,
        cost_final=problem.ev.cost,
        removed_observations=removed_total,
    )


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    timestamp: float
    keyframe_id: int | None
    tracked_pose: PoseSE3
    matched: int
    inliers: int


@dataclass(frozen=True)
class RunResult:
    trajectory: Trajectory
    map_state: MapState
    records: list


def run_sequence(frames, intrinsics: Intrinsics, config: SolverConfig) -> RunResult:
    """Track a whole observation stream through the estimator.

    The first frame bootstraps the map at the identity pose (the world frame
    is that camera frame). Keyframe poses in the returned trajectory are the
    final bundle-adjusted values; other frames keep their tracked poses. The
    trajectory is camera-to-world. Fully deterministic: no randomness enters
    the estimator.

    A frame that fails to track is retried from the previous pose (dropping
    the velocity extrapolation, whose compounded noise is the usual culprit);
    if the retry fails too the frame coasts on the motion model without
    touching the map. TrackingLost propagates only after
    ``config.max_track_failures`` consecutive coasted frames, and the raised
    exception carries the id of the first frame of the streak, where tracking
    actually broke.
    """
    map_state = MapState(intrinsics, config)
    records = []
    prev_pose = None
    prev_prev_pose = None
    lost_streak = 0
    streak_start = None
    for frame in frames:
        if not map_state.keyframes:
            pose = PoseSE3.identity()
            kf = insert_keyframe(map_state, frame, pose, (), config)
            records.append(
                FrameRecord(
                    frame_id=frame.frame_id,
                    timestamp=frame.timestamp,
                    keyframe_id=kf.id,
                    tracked_pose=pose,
                    matched=kf.reference_inliers,
                    inliers=kf.reference_inliers,
                )
            )
            prev_pose = pose
            continue
        try:
            result = track_frame(map_state, frame, config, prev_pose, prev_prev_pose)
        except TrackingLost:
            try:
                result = track_frame(map_state, frame, config, prev_pose, None)
                logger.debug("frame %d: recovered from previous pose", frame.frame_id)
            except TrackingLost as err:
                lost_streak += 1
                if streak_start is None:
                    streak_start = frame.frame_id
                if lost_streak > config.max_track_failures:
                    raise TrackingLost(
                        streak_start,
                        f"no recovery within {lost_streak} frames ({err})",
                    ) from err
                coasted = constant_velocity_init(prev_pose, prev_prev_pose)
                logger.debug(
                    "frame %d: coasting (%d/%d)",
                    frame.frame_id,
                    lost_streak,
                    config.max_track_failures,
                )
                records.append(
                    FrameRecord(
                        frame_id=frame.frame_id,
                        timestamp=frame.timestamp,
                        keyframe_id=None,
                        tracked_pose=coasted,
                        matched=0,
                        inliers=0,
                    )
                )
                prev_prev_pose, prev_pose = prev_pose, coasted
                continue
        lost_streak = 0
        streak_start = None
        cull_landmarks(map_state, result, config)
        kf_id = None
        if select_keyframe(
            map_state, frame.frame_id, result.inlier_ids.size, config
        ):
            kf = insert_keyframe(
                map_state, frame, result.pose, result.inlier_ids, config
            )
            kf_id = kf.id
            if len(map_state.keyframes) >= 2:
                local_bundle_adjustment(map_state, kf.id, config)
        records.append(
            FrameRecord(
                frame_id=frame.frame_id,
                timestamp=frame.timestamp,
                keyframe_id=kf_id,
                tracked_pose=result.pose,
                matched=result.matched,
                inliers=int(result.inlier_ids.size),
            )
        )
        prev_prev_pose, prev_pose = prev_pose, result.pose

    poses_out = []
    for rec in records:
        if rec.keyframe_id is not None:
            poses_out.append(map_state.keyframes[rec.keyframe_id].pose.inverse())
        else:
            poses_out.append(rec.tracked_pose.inverse())
    trajectory = Trajectory(
        np.array([rec.timestamp for rec in records]), poses_out
    )
    return RunResult(trajectory=trajectory, map_state=map_state, records=records)
