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
from .factors import (CHI2_95_3DOF, NORMAL_UNIT_TOL, RobustLossConfig, huber,
                      make_tangent_basis, normal_jacobian, reprojection_row_jacobians)
from .geometry import (Intrinsics, NonPositiveDepth, PoseSE3, check_finite,
                       normalized_coordinates, skew, triangulate, update_pose, update_poses)

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
    cost_tolerance: float = 1e-5
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
        check_finite(self)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("initial_damping", "damping_ceiling", "step_tolerance",
                     "cost_tolerance", "chi2_threshold", "sigma_px", "min_disparity"):
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
            raise ValueError("covisibility_min_shared >= 1 and "
                             "min_track_observations >= 3")
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
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
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


class MapState:
    """Keyframes, landmarks and the observations tying them together.

    Keyframes are arrays indexed by keyframe id: frame ids ``keyframes``,
    world-to-camera poses ``kf_R`` (K, 3, 3) and ``kf_t`` (K, 3), normals
    ``kf_normal`` and tangent bases ``kf_basis`` (NaN without a measured
    normal) and gauge flags ``kf_fixed``. ``reference_inliers`` counts the
    observations of the newest keyframe.

    Landmarks are three arrays aligned by row: ids ``landmarks``, ascending,
    positions ``lm_pos`` (N, 3) and ``lm_misses``, the consecutive tracking
    rejections (reset on acceptance). A landmark is deleted with its last
    live observation. :meth:`landmark_rows` maps ids to rows.

    Observations are three parallel arrays: keyframe id ``obs_kf``, landmark
    id ``obs_lm`` and measurement ``obs_uvu``. An observation's id is its
    row; removal sets its ``obs_kf`` to -1. Once such dead rows outnumber
    the live ones, the removal drops them, keeping the live rows in order,
    so an id is only valid until the next removal.

    The keyframe and observation arrays grow in place (:meth:`_append`), and
    so do the row orders that reads go through: by keyframe, and by landmark
    then keyframe as two sorted runs, the second taking each append until
    it outgrows ``_RECENT_ROWS`` and folds into the first. Rows of the newest
    keyframe extend both; other appends and compactions mark them stale.

    Single-writer contract: tracking only reads; insertion, bundle-adjustment
    write-back, and outlier rejection mutate and must not run concurrently.
    """

    # an append moves at most this many entries of the landmark order, and
    # a fold's copy of the whole order spreads over as many appended rows
    _RECENT_ROWS = 4096

    def __init__(self, intrinsics: Intrinsics, config: SolverConfig):
        self.intrinsics = intrinsics
        self.keyframes = np.zeros(0, dtype=int)
        self.kf_R = np.zeros((0, 3, 3))
        self.kf_t = np.zeros((0, 3))
        self.kf_normal = np.zeros((0, 3))
        self.kf_basis = np.zeros((0, 2, 3))
        self.kf_fixed = np.zeros(0, dtype=bool)
        self.reference_inliers = 0
        self.landmarks = np.zeros(0, dtype=int)
        self.lm_pos = np.zeros((0, 3))
        self.lm_misses = np.zeros(0, dtype=int)
        self.obs_kf = np.zeros(0, dtype=int)
        self.obs_lm = np.zeros(0, dtype=int)
        self.obs_uvu = np.zeros((0, 3))
        self._dead = 0  # rows removed since the last compaction
        self._buffers = {}  # name -> the buffer whose first rows it views
        self._stale = True  # the row orders need a rebuild
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

    def _append(self, **rows):
        """Append ``rows`` to the named arrays, each a view of the first rows
        of a buffer. A full buffer, or an array assigned whole (as by a
        compaction), is copied into one of twice the length it needs."""
        for name, new in rows.items():
            old, buf = getattr(self, name), self._buffers.get(name)
            n, end = len(old), len(old) + len(new)
            if buf is None or old.base is not buf or end > len(buf):
                buf = np.empty((2 * end,) + old.shape[1:], old.dtype)
                buf[:n] = old
                self._buffers[name] = buf
            buf[n:end] = new
            setattr(self, name, buf[:end])

    def _index(self):
        """Rebuild the row orders if they are stale: the rows by keyframe,
        where keyframe k's start (the rows dead at the rebuild first), and
        the rows by landmark then keyframe with their landmarks, all in the
        first run."""
        if self._stale:
            self._kf_rows = np.argsort(self.obs_kf, kind="stable")
            counts = np.bincount(self.obs_kf + 1, minlength=self.keyframes.size + 1)
            self._kf_bounds = counts.cumsum()
            self._lm_rows = np.lexsort((self.obs_kf, self.obs_lm))
            self._lm_keys = self.obs_lm[self._lm_rows]
            self._lm_fold = self._lm_keys.size  # every row in the first run
            self._stale = False

    def _merge_runs(self, lo, mid):
        """Merge the sorted run ``mid:`` of the landmark order into ``lo:mid``,
        each row after the earlier rows (keyframes) of its landmark."""
        keys, rows = self._lm_keys, self._lm_rows
        at = np.searchsorted(keys[lo:mid], keys[mid:], side="right")
        rows[lo:] = np.insert(rows[lo:mid], at, rows[mid:])
        keys[lo:] = np.insert(keys[lo:mid], at, keys[mid:])

    def keyframe_rows(self, kf_ids) -> np.ndarray:
        """Ids of the live observations of the few keyframes ``kf_ids``,
        grouped by keyframe in the order given, ascending within each."""
        self._index()
        rows, at = self._kf_rows, self._kf_bounds
        rows = np.concatenate([rows[:0]] + [rows[at[k] : at[k + 1]] for k in kf_ids])
        return rows[self.obs_kf[rows] >= 0]

    def observation_rows(self, ids) -> np.ndarray:
        """Ids of the live observations of landmarks ``ids`` (1-D), grouped by
        landmark in the order given, keyframes ascending within each."""
        self._index()
        keys, fold = self._lm_keys, self._lm_fold
        first, second = keys[:fold], keys[fold:]
        lo = np.array([first.searchsorted(ids), second.searchsorted(ids)])
        hi = np.array([run.searchsorted(ids, "right") for run in (first, second)])
        lo[1] += fold
        hi[1] += fold
        # each landmark's range in the first run, then in the second
        lo, counts = lo.ravel("F"), (hi - lo).ravel("F")
        at = np.arange(counts.sum()) + (lo - counts.cumsum() + counts).repeat(counts)
        rows = self._lm_rows[at]
        return rows[self.obs_kf[rows] >= 0]

    def add_keyframe(self, frame_id: int, pose, normal=None, basis=None) -> int:
        """Append a keyframe at world-to-camera ``pose`` with the frame normal
        it measured, if any, and that normal's tangent basis; the first
        keyframe holds the gauge. Returns its id."""
        kf_id = self.keyframes.size
        if normal is None:
            normal, basis = np.full(3, np.nan), np.full((2, 3), np.nan)
        self._append(
            keyframes=[frame_id], kf_R=[pose.R], kf_t=[pose.t],
            kf_normal=[normal], kf_basis=[basis], kf_fixed=[kf_id == 0],
        )
        if not self._stale:  # its rows start where the order ends
            self._append(_kf_bounds=self._kf_bounds[-1:])
        return kf_id

    def add_landmarks(self, ids, positions):
        """Map new landmarks ``ids`` at world ``positions`` (N, 3), without
        observations yet."""
        ids = np.asarray(ids, dtype=int).reshape(-1)
        if np.shape(positions) != (ids.size, 3):
            raise ValueError("positions must have shape (len(ids), 3)")
        order = np.argsort(ids)
        ids, positions = ids[order], np.asarray(positions)[order]
        if np.any(self.landmark_rows(ids) >= 0) or np.any(ids[1:] == ids[:-1]):
            raise ValueError("landmark id already mapped")
        at = np.searchsorted(self.landmarks, ids)
        self.landmarks = np.insert(self.landmarks, at, ids)
        # rows go in as runs of three floats: a 1-D insert, not a 2-D one
        flat = np.insert(self.lm_pos.ravel(), (3 * at).repeat(3), np.ravel(positions))
        self.lm_pos = flat.reshape(-1, 3)
        self.lm_misses = np.insert(self.lm_misses, at, 0)

    def add_observations(self, kf_id: int, landmark_ids, uvu) -> np.ndarray:
        """Record measurements ``uvu`` (N, 3) of existing landmarks from existing
        keyframe ``kf_id``; returns their ids. A keyframe observes a landmark once."""
        ids = np.asarray(landmark_ids, dtype=int).reshape(-1)
        if np.shape(uvu) != (ids.size, 3):
            raise ValueError("uvu must have shape (len(landmark_ids), 3)")
        if not 0 <= kf_id < self.keyframes.size:
            raise ValueError(f"no keyframe {kf_id}")
        order = np.argsort(ids, kind="stable")
        lms = ids[order]
        seen = self.obs_lm[self.keyframe_rows([kf_id])]
        if np.any(lms[1:] == lms[:-1]) or (seen.size and np.isin(seen, ids).any()):
            raise ValueError(f"keyframe {kf_id} observes a landmark twice")
        rows = self.landmark_rows(ids)
        if np.any(rows < 0):
            raise KeyError(f"no landmark {ids[rows < 0][0]}")
        new = np.arange(self.obs_kf.size, self.obs_kf.size + ids.size)
        self._append(obs_kf=np.full(ids.size, kf_id), obs_lm=ids, obs_uvu=uvu)
        if kf_id < self.keyframes.size - 1:
            self._stale = True  # rebuilt on the next read, as after a compaction
        else:  # no row has a later keyframe: the new rows end the keyframe
            # order, and are merged into the second run of the landmark order
            end = self._lm_keys.size
            self._append(_kf_rows=new, _lm_rows=new[order], _lm_keys=lms)
            self._kf_bounds[-1] = self._kf_rows.size
            self._merge_runs(self._lm_fold, end)
            if self._lm_keys.size - self._lm_fold > self._RECENT_ROWS:
                self._merge_runs(0, self._lm_fold)
                self._lm_fold = self._lm_keys.size
        return new

    def remove_observations(self, obs_ids):
        """Drop observations by id (dead or repeated ids count once) and
        delete the landmarks left unobserved; compacts the arrays once dead
        rows outnumber live ones."""
        obs_ids = np.unique(np.asarray(obs_ids, dtype=int))
        if obs_ids.size and not 0 <= obs_ids[0] <= obs_ids[-1] < self.obs_kf.size:
            raise ValueError("observation id out of range")
        obs_ids = obs_ids[self.obs_kf[obs_ids] >= 0]
        self.obs_kf[obs_ids] = -1
        self._dead += obs_ids.size
        touched = np.unique(self.obs_lm[obs_ids])
        orphans = np.setdiff1d(touched, self.obs_lm[self.observation_rows(touched)])
        self.remove_landmarks(np.searchsorted(self.landmarks, orphans))

    def remove_landmarks(self, rows):
        """Delete the landmarks at ``rows`` with their observations, then compact."""
        if rows.size:
            self._index()  # their rows in each run of the landmark order: id to id + 1
            ids, keys, fold = self.landmarks[rows], self._lm_keys, self._lm_fold
            ends = np.concatenate([keys[:fold].searchsorted((ids, ids + 1)),
                                   fold + keys[fold:].searchsorted((ids, ids + 1))], 1)
            obs_ids = np.concatenate([self._lm_rows[a:b] for a, b in zip(*ends.tolist())])
            self._dead += np.count_nonzero(self.obs_kf[obs_ids] >= 0)
            self.obs_kf[obs_ids] = -1
            keep = np.bincount(rows, minlength=self.landmarks.size) == 0
            self.landmarks = self.landmarks[keep]
            # a 1-D mask over runs of three floats: a row mask costs 3x more
            self.lm_pos = self.lm_pos.reshape(-1)[keep.repeat(3)].reshape(-1, 3)
            self.lm_misses = self.lm_misses[keep]
        if 2 * self._dead > self.obs_kf.size:
            live = self.obs_kf >= 0
            self.obs_kf = self.obs_kf[live]
            self.obs_lm = self.obs_lm[live]
            self.obs_uvu = self.obs_uvu.compress(live, axis=0)
            self._dead, self._stale = 0, True

    def covisibility(self, kf_id: int) -> np.ndarray:
        """Landmarks each keyframe shares with ``kf_id``, indexed by keyframe
        id (0 for ``kf_id`` itself)."""
        mine = self.observation_rows(self.obs_lm[self.keyframe_rows([kf_id])])
        others = self.obs_kf[mine]
        return np.bincount(others[others != kf_id], minlength=len(self.keyframes))

    def covisible_keyframes(self, kf_id: int, min_shared: int) -> list[int]:
        """Keyframes sharing at least ``min_shared`` landmarks with ``kf_id``,
        most shared first, ties by id."""
        shared = self.covisibility(kf_id)
        ids = np.flatnonzero(shared >= min_shared)
        return ids[np.lexsort((ids, -shared[ids]))].tolist()


def constant_velocity_init(prev=None, prev_prev=None):
    """Extrapolated pose ``prev * prev_prev^-1 * prev`` as ``(R, t)`` arrays,
    unvalidated: ``prev`` without ``prev_prev``, identity without either. A
    pose here is anything holding ``R`` and ``t``, such as a PoseSE3, a
    TrackResult or a FrameRecord. Its rotation gets the polar step of
    :func:`update_poses`, so orthonormality error cannot compound."""
    if prev is None:
        return np.eye(3), np.zeros(3)
    if prev_prev is None:
        return prev.R, prev.t
    R_inv = prev_prev.R.T
    R_step = prev.R @ R_inv
    t_step = prev.R @ (-R_inv @ prev_prev.t) + prev.t
    R = R_step @ prev.R
    return 1.5 * R - 0.5 * (R @ (R.T @ R)), R_step @ prev.t + t_step


@dataclass(frozen=True)
class TrackResult:
    R: np.ndarray  # the tracked world-to-camera pose, unvalidated
    t: np.ndarray
    inlier_ids: np.ndarray
    outlier_ids: np.ndarray
    matched: int
    cost: float
    inlier_rows: np.ndarray  # landmark rows of the ids, until the map changes
    outlier_rows: np.ndarray


@dataclass(frozen=True, slots=True)
class _Evaluation:
    """The robust objective at one state, with the per-row terms it sums."""

    pc: np.ndarray  # (M, 3) camera-frame points
    inv_z: np.ndarray  # (M,) 1/z; a row behind the camera holds a stand-in's
    nc: np.ndarray  # (M, 3) normalized coordinates (x/z, y/z, (x - b)/z)
    r: np.ndarray  # (M, 3) whitened reprojection residuals, inf behind camera
    sq: np.ndarray  # (M,) whitened squared norms, inf behind the camera
    w: np.ndarray  # (M,) IRLS weights of the reprojection rows
    rn: np.ndarray  # (N, 2) weighted normal residuals
    wn: np.ndarray  # (N,) IRLS weights of the normal rows
    m: np.ndarray  # (N, 3) rotated world normals R n_hat
    cost: float  # Huber total, inf when any point is behind its camera


def _normal_rows(config, basis, frame_normals, M):
    """Constants of batched normal factors with tangent bases ``basis``
    (N, 2, 3) and frame normals (N, 3), after ``M`` reprojection rows: the
    bases of ``sqrt(normal_weight) B`` with a zero third row ``sB`` (N, 3, 3),
    ``c = sB n_k`` and the Huber delta of each of the M + N rows."""
    sB = np.zeros((len(basis), 3, 3))
    sB[:, :2] = math.sqrt(config.loss.normal_weight) * basis
    delta = np.full(M + len(basis), config.loss.huber_delta_normal)
    delta[:M] = config.loss.huber_delta_repro
    return sB, (sB @ frame_normals[:, :, None])[..., 0], delta


def _reprojection_rows(K, config, pc, measured, out=None):
    """``(inv_z, nc, r)`` of ``pc`` measured as ``measured``, r whitened into ``out``."""
    front = pc[:, 2] > 0.0
    behind = not front.all()
    # rows behind the camera stand in at (1, 1, 1), then read inf
    shown = np.where(front[:, None], pc, 1.0) if behind else pc
    inv_z, nc = normalized_coordinates(K, shown)
    r = np.subtract(nc * K.scale + K.offset, measured, out=out)
    r /= config.sigma_px
    if behind:
        r[~front] = np.inf
    return inv_z, nc, r


def _evaluate(K, config, pc, measured, normals=None, n_hat=None) -> _Evaluation:
    """The robust objective at camera-frame points ``pc`` (M, 3), batched.

    Reprojection row i is ``pc[i]`` measured as ``measured[i]``; a row
    behind its camera gets infinite residuals, so it costs inf and weighs 0.
    ``normals`` adds the weighted tangent-plane factors of keyframes that
    measured a normal against the unit world normal ``n_hat``: their
    world-to-camera rotations with :func:`_normal_rows`, whose rows
    ``sB (R n_hat) - c`` follow the reprojection rows into one Huber pass,
    each keeping its ``m = R n_hat``.
    """
    M = len(pc)
    rows = np.empty((M + (0 if normals is None else len(normals[0])), 3))
    inv_z, nc, r = _reprojection_rows(K, config, pc, measured, rows[:M])
    m, delta = rows[M:], config.loss.huber_delta_repro
    if normals is not None:
        rotations, sB, c, delta = normals
        m = rotations.dot(n_hat)
        np.matmul(sB, m[:, :, None], out=rows[M:, :, None])
        rows[M:] -= c
    sq = np.einsum("ij,ij->i", rows, rows)
    rho, w = huber(np.sqrt(sq), delta)
    cost = float(rho.sum())
    return _Evaluation(pc, inv_z, nc, r, sq[:M], w[:M], rows[M:, :2], w[M:], m, cost)


def _track_evaluate(K, config, points, measured, normal, R, t):
    """Tracking's state at pose ``(R, t)``: what its linearization reads. ``normal``
    (sqrt(w), unit world normal, basis, frame normal) adds a float row (rn, wn, J)."""
    inv_z, nc, r = _reprojection_rows(K, config, points @ R.T + t, measured)
    sq = np.einsum("ij,ij->i", r, r)
    rho, w = huber(np.sqrt(sq), config.loss.huber_delta_repro)
    cost = float(rho.sum())
    if normal is None:
        return cost, R, t, sq, inv_z, nc, r, w, None
    s, n_hat, ((a0, a1, a2), (b0, b1, b2)), (nx, ny, nz) = normal
    mx, my, mz = (R @ n_hat).tolist()
    dx, dy, dz = mx - nx, my - ny, mz - nz
    rn = (s * (a0 * dx + a1 * dy + a2 * dz), s * (b0 * dx + b1 * dy + b2 * dz))
    rho_n, wn = huber(math.hypot(*rn), config.loss.huber_delta_normal)
    # -sqrt(w) B skew(m), whose row i is sqrt(w) m x b_i
    J = ((s * (my * a2 - mz * a1), s * (mz * a0 - mx * a2), s * (mx * a1 - my * a0)),
         (s * (my * b2 - mz * b1), s * (mz * b0 - mx * b2), s * (mx * b1 - my * b0)))
    return cost + rho_n, R, t, sq, inv_z, nc, r, w, (rn, wn, J)


def _predicted_decrease(g, d, h, lam) -> float:
    """Decrease of the robust cost that the Gauss-Newton model predicts for
    a step ``h`` solving ``(H + lam D) h = -g``, where ``d`` is the diagonal
    of ``D = diag(H)``: ``lam h^T D h - g^T h``, which equals the model's
    ``-2 g^T h - h^T H h`` (the cost is a sum of squares, so its gradient
    is ``2 g`` and its Gauss-Newton Hessian ``2 H``)."""
    return float(lam * ((h * d) @ h) - g @ h)


def _damped_step(config, lam, cost, g, d, solve, trial):
    """One Levenberg-Marquardt step (Madsen, Nielsen and Tingleff, "Methods
    for Non-Linear Least Squares Problems", 2004), the only damping loop of
    tracking and bundle adjustment, from gradient ``g`` and Hessian diagonal
    ``d`` at ``cost``.

    The damping rises until ``solve(lam)`` returns a finite step ``h`` (a
    LinAlgError is a failed solve). The solve has converged when ``h`` is
    shorter than ``step_tolerance`` or its :func:`_predicted_decrease` is
    below ``cost_tolerance`` times ``cost``. Otherwise ``trial(h)`` builds
    the stepped state, a tuple whose first item is its cost: a lower cost
    is accepted and relaxes the damping, and any other raises it.
    Returns ``(lam, state, converged)``: ``state`` is the accepted trial,
    None when no step was taken (converged, or damping past its ceiling);
    an accepted step has converged if its relative decrease is below
    ``cost_tolerance``.
    """
    while lam <= config.damping_ceiling:
        try:
            h = solve(lam)
        except np.linalg.LinAlgError:
            h = None
        if h is None or not np.isfinite(h).all():
            lam *= config.damping_increase
            continue
        if (math.sqrt(h @ h) < config.step_tolerance
                or _predicted_decrease(g, d, h, lam) < config.cost_tolerance * cost):
            return lam, None, True
        state = trial(h)
        new_cost = state[0]
        if new_cost < cost:
            rel = (cost - new_cost) / max(cost, 1e-300)
            lam = max(lam / config.damping_decrease, _DAMPING_FLOOR)
            return lam, state, rel < config.cost_tolerance
        lam *= config.damping_increase
    return lam, None, False


def track_frame(map_state: MapState, frame: FrameData, config: SolverConfig,
                prev_pose=None, prev_prev_pose=None) -> TrackResult:
    """Damped Gauss-Newton on the frame pose alone, landmarks fixed.

    Minimizes the robust sum of whitened reprojection residuals over the
    mapped subset of the frame's observations, plus the weighted normal
    residual when a world normal and a frame normal are both available.
    Each step is a :func:`_damped_step`, whose stopping rule bundle
    adjustment shares.
    Raises TrackingLost when fewer than the minimum observations match or
    when the post-fit inlier fraction falls below the configured floor.
    """
    K = map_state.intrinsics
    lm_rows = map_state.landmark_rows(frame.landmark_ids)
    mask = lm_rows >= 0
    matched_ids = frame.landmark_ids[mask]
    if matched_ids.size < config.min_track_observations:
        raise TrackingLost(frame.frame_id, f"{matched_ids.size} mapped observations, "
                           f"need {config.min_track_observations}")
    lm_rows = lm_rows[mask]
    points = map_state.lm_pos.take(lm_rows, axis=0)
    measured = frame.measurements.compress(mask, axis=0)
    n_w, normal = map_state.world_normal, None
    if (config.normal_in_tracking and config.loss.normal_weight > 0.0
            and n_w is not None and frame.frame_normal is not None):
        normal = (math.sqrt(config.loss.normal_weight), n_w / math.sqrt(n_w @ n_w),
                  frame.tangent_basis.tolist(), frame.frame_normal.tolist())

    # the pose is held as one (3, 3), (3,) pair in the state tuple
    R, t = constant_velocity_init(prev_pose, prev_prev_pose)
    cost, R, t, sq, inv_z, nc, r, w, row = _track_evaluate(K, config, points, measured,
                                                           normal, R, t)
    if not math.isfinite(cost):
        raise TrackingLost(frame.frame_id, "initial pose puts landmarks behind camera")

    def solve(lam):
        damped = H.copy()
        damped.ravel()[::7] += lam * d
        return np.linalg.solve(damped, -g)

    def trial(h):
        return _track_evaluate(K, config, points, measured, normal, *update_pose(h, R, t))

    scale = K.scale / config.sigma_px  # joins the weights of the normalized Jacobian
    lam = config.initial_damping
    for _ in range(config.max_iterations):
        J = reprojection_row_jacobians(inv_z, nc)[0].reshape(-1, 6)
        ws = w[:, None] * scale
        H = J.T @ (J * (ws * scale).reshape(-1, 1))
        g = J.T @ (ws * r).ravel()
        if row is not None:  # wn J^T J and wn J^T rn on the rotation block
            (r0, r1), wn, ((a0, a1, a2), (b0, b1, b2)) = row
            cols = (a0, b0), (a1, b1), (a2, b2)
            H[3:, 3:] += [[wn * (a * a0 + b * b0), wn * (a * a1 + b * b1),
                           wn * (a * a2 + b * b2)] for a, b in cols]
            g[3:] += [wn * (a * r0 + b * r1) for a, b in cols]
        d = H.diagonal()
        lam, state, converged = _damped_step(config, lam, cost, g, d, solve, trial)
        if state is not None:
            cost, R, t, sq, inv_z, nc, r, w, row = state
        if converged or state is None:
            break

    inlier_mask = sq <= config.chi2_threshold
    n_inliers = int(np.count_nonzero(inlier_mask))
    if n_inliers < config.min_track_observations:
        raise TrackingLost(frame.frame_id, f"only {n_inliers} inliers after optimization")
    if n_inliers < config.min_inlier_fraction * matched_ids.size:
        fraction = n_inliers / matched_ids.size
        raise TrackingLost(frame.frame_id, f"inlier fraction {fraction:.2f} below "
                           f"{config.min_inlier_fraction:.2f}")
    logger.debug("frame %d: tracked with %d/%d inliers, cost %.6g",
                 frame.frame_id, n_inliers, matched_ids.size, cost)
    return TrackResult(
        R=R, t=t, matched=int(matched_ids.size), cost=cost,
        inlier_ids=matched_ids[inlier_mask], outlier_ids=matched_ids[~inlier_mask],
        inlier_rows=lm_rows[inlier_mask], outlier_rows=lm_rows[~inlier_mask],
    )


def cull_landmarks(map_state: MapState, track: TrackResult, config: SolverConfig) -> int:
    """Retire landmarks that tracking keeps matching but keeps rejecting.

    A landmark founded on a corrupted stereo measurement is self-consistent
    (its single observation fits it exactly), so bundle adjustment never sees
    a residual against it; the only evidence comes from tracking, where fresh
    measurements of the true feature fail the inlier gate frame after frame.
    Genuine landmarks fail that gate independently per frame, so a run of
    ``cull_misses`` consecutive rejections marks a landmark as poisoned.
    Reads the landmark rows that tracking resolved, so the map must not
    change in between. Returns the number of landmarks removed.
    """
    misses = map_state.lm_misses
    misses[track.inlier_rows] = 0
    rows = track.outlier_rows
    misses[rows] += 1
    culled = rows[misses[rows] >= config.cull_misses]
    if culled.size:
        map_state.remove_landmarks(culled)
        logger.debug("culled %d landmarks after frame tracking", culled.size)
    return int(culled.size)


def select_keyframe(map_state: MapState, frame_id: int, inlier_count: int,
                    config: SolverConfig) -> bool:
    """Promote when overlap with the last keyframe decays or a gap elapses."""
    if frame_id - map_state.keyframes[-1] >= config.keyframe_gap:
        return True
    return inlier_count < config.keyframe_overlap * map_state.reference_inliers


def insert_keyframe(map_state: MapState, frame: FrameData, pose, matched_ids,
                    config: SolverConfig) -> int:
    """Add a keyframe at world-to-camera ``pose`` (anything holding ``R`` and
    ``t``) and return its id: matched inliers become observations, the rest
    of the frame's measurements are triangulated into new landmarks.

    The first keyframe seeds the world normal from its own frame normal; each
    insertion burns one step of the normal-init countdown, freezing the
    world normal once it reaches zero.
    """
    K, R, t = map_state.intrinsics, pose.R, pose.t
    kf_id = map_state.add_keyframe(frame.frame_id, pose, frame.frame_normal,
                                   frame.tangent_basis)

    ids, meas = frame.landmark_ids, frame.measurements
    mapped = map_state.landmark_rows(ids) >= 0
    new = ~mapped & (meas[:, 0] - meas[:, 2] > config.min_disparity)
    world = triangulate(K, meas[new], d_min=config.min_disparity) @ R + -R.T @ t
    map_state.add_landmarks(ids[new], world)
    m = np.sort(matched_ids)  # matched: the right insertion point passes the left
    keep = new | (mapped & (np.searchsorted(m, ids, "right") > np.searchsorted(m, ids)))
    map_state.add_observations(kf_id, ids[keep], meas[keep])
    map_state.reference_inliers = int(np.count_nonzero(keep))

    if kf_id == 0 and frame.frame_normal is not None:
        map_state.world_normal = R.T @ frame.frame_normal
    map_state.normal_init_remaining = max(map_state.normal_init_remaining - 1, 0)
    logger.debug("keyframe %d (frame %d): %d observations, %d new landmarks",
                 kf_id, frame.frame_id, map_state.reference_inliers, np.count_nonzero(new))
    return kf_id


def reject_outliers(map_state: MapState, config: SolverConfig, obs_ids, sq) -> int:
    """Drop the observations ``obs_ids`` whose whitened squared residual norms
    ``sq`` exceed the chi-square threshold (infinite behind the camera);
    landmarks left unobserved are deleted."""
    doomed = np.asarray(obs_ids)[np.asarray(sq) > config.chi2_threshold]
    if doomed.size:
        map_state.remove_observations(doomed)
    return int(doomed.size)


def map_cost(map_state: MapState, config: SolverConfig) -> float:
    """Robust objective over stored observations plus normal factors: the
    cost of a bundle adjustment whose window is every keyframe, with each
    observation's camera point formed from its own keyframe's pose."""
    ms, obs, n_w = map_state, map_state.observations, map_state.world_normal
    kf, points = ms.obs_kf[obs], ms.lm_pos[ms.landmark_rows(ms.obs_lm[obs])]
    pc = np.einsum("nij,nj->ni", ms.kf_R[kf], points) + ms.kf_t[kf]
    measured, normals = ~np.isnan(ms.kf_normal[:, 0]), None
    if measured.any() and config.loss.normal_weight > 0.0 and n_w is not None:
        basis, n_k = ms.kf_basis[measured], ms.kf_normal[measured]
        normals = (ms.kf_R[measured],) + _normal_rows(config, basis, n_k, obs.size)
        n_w = n_w / math.sqrt(n_w @ n_w)
    return _evaluate(ms.intrinsics, config, pc, ms.obs_uvu[obs], normals, n_w).cost


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
    ``all_kf_ids``, gathered from the map's keyframe arrays and scattered
    back by ``write_back``, landmark positions and the world normal. Rebuilt
    from the map after a mid-run outlier rejection.
    """

    def __init__(self, map_state: MapState, window_ids, config: SolverConfig):
        self.map, self.config, self.window_ids = map_state, config, window_ids
        window = np.array(sorted(set(window_ids)), dtype=int)
        obs_kf, obs_lm = map_state.obs_kf, map_state.obs_lm

        # every live observation of a landmark the window sees, grouped by
        # landmark with keyframes ascending (np.unique by a sort and a
        # neighbour test: numpy's own costs several times more at this size)
        seen = np.sort(obs_lm[map_state.keyframe_rows(window)])
        first = np.ones(seen.size, dtype=bool)
        np.not_equal(seen[1:], seen[:-1], out=first[1:])
        self.lm_ids = seen[first]
        self.obs_ids = map_state.observation_rows(self.lm_ids)
        self.obs_uvu = map_state.obs_uvu.take(self.obs_ids, axis=0)
        lms, kfs = obs_lm[self.obs_ids], obs_kf[self.obs_ids]
        self.obs_lm = self.lm_ids.searchsorted(lms)

        # the window's keyframes and those of the rows, ascending; the pose
        # row and the free-pose index (-1 for poses held fixed) of each
        # keyframe id, read through tables over the keyframes
        posed = np.zeros(len(map_state.keyframes), dtype=bool)
        posed[window] = posed[kfs] = True
        self.all_kf_ids = np.flatnonzero(posed)
        pose_of = posed.cumsum() - 1
        self.free_ids = window[~map_state.kf_fixed[window]]
        self.free_rows = pose_of[self.free_ids]
        P = self.free_ids.size
        free_of = np.full(len(map_state.keyframes), -1)
        free_of[self.free_ids] = np.arange(P)
        self.obs_pose, self.obs_free = pose_of[kfs], free_of[kfs]
        # rows are grouped by landmark already, each landmark with a row:
        # the segment-sum boundaries are where each landmark's rows begin
        self._lm_starts = lms.searchsorted(self.lm_ids)
        # the rows at free poses, by pose (the stable sort puts the -1 first),
        # and the span of each free pose's stacked residuals
        ends = np.bincount(self.obs_free + 1, minlength=P + 1).cumsum()
        self._free_rows = self.obs_free.argsort(kind="stable")[ends[0] :]
        at = (3 * (ends - ends[0])).tolist()
        spans = zip(range(P), at, at[1:])
        self._free_spans = [(p, a, b) for p, a, b in spans if a < b]

        # state
        self.R = map_state.kf_R[self.all_kf_ids]
        self.t = map_state.kf_t[self.all_kf_ids]
        # every landmark with a live observation is mapped
        lm_rows = map_state.landmarks.searchsorted(self.lm_ids)
        self.points = map_state.lm_pos.take(lm_rows, axis=0)
        n_w = map_state.world_normal
        self.n_w = None if n_w is None else n_w.copy()

        # the normal rows of window keyframes that measured a normal: pose
        # rows and _normal_rows; the unit world normal, read while it is
        # frozen; the rows b_i of sqrt(w) B as cross-product matrices, whose
        # product with m is the rotation Jacobian m x b_i; and 1 where row n
        # sits at free pose p (at most one per pose), to add its terms there
        self.normals = None
        normal_kfs = window[~np.isnan(map_state.kf_normal[window, 0])]
        if normal_kfs.size and config.loss.normal_weight > 0.0 and self.n_w is not None:
            self._basis = map_state.kf_basis[normal_kfs]
            n_k, M = map_state.kf_normal[normal_kfs], self.obs_ids.size
            rows = _normal_rows(config, self._basis, n_k, M)
            self.normals = (pose_of[normal_kfs],) + rows
            self._n_hat = self.n_w / math.sqrt(self.n_w @ self.n_w)
            self._cross = -skew(rows[0][:, :2]).reshape(-1, 6, 3)
            self._normal_sum = (free_of[normal_kfs] == np.arange(P)[:, None]) * 1.0
        self.nw_active = self.normals is not None and map_state.normal_active
        # flat offsets of the free rows' 6x3 blocks in the W of _ba_assemble
        cols = 3 * (len(self.lm_ids) + self.nw_active)
        free = self._free_rows
        at = cols * 6 * self.obs_free[free] + 3 * self.obs_lm[free]
        self._w_at = at[:, None, None] + (cols * np.arange(6)[:, None] + np.arange(3))
        self.ev = self.evaluate(self.R, self.t, self.points, self.n_w)

    def evaluate(self, R, t, points, n_w) -> _Evaluation:
        """The objective at stacked poses ``(R, t)``, landmark ``points`` and
        world normal ``n_w``; each observation's camera point is formed from
        its own pose and landmark."""
        R_o, X = R.take(self.obs_pose, axis=0), points.take(self.obs_lm, axis=0)
        pc = np.einsum("nij,nj->ni", R_o, X) + t.take(self.obs_pose, axis=0)
        normals = n_hat = None
        if self.normals is not None:
            normals = (R.take(self.normals[0], axis=0),) + self.normals[1:]
            # held while the world normal is frozen, else that of this state
            n_hat = n_w / math.sqrt(n_w @ n_w) if self.nw_active else self._n_hat
        return _evaluate(self.map.intrinsics, self.config, pc, self.obs_uvu, normals, n_hat)

    def write_back(self):
        self.map.kf_R[self.free_ids] = self.R[self.free_rows]
        self.map.kf_t[self.free_ids] = self.t[self.free_rows]
        rows = self.map.landmark_rows(self.lm_ids)
        mapped = rows >= 0
        self.map.lm_pos[rows[mapped]] = self.points[mapped]
        if self.nw_active:
            self.map.world_normal = self.n_w / np.linalg.norm(self.n_w)


def _ba_linearize(problem: _BAProblem):
    """Whitened Jacobians at the problem's state, from the normalized
    coordinates of ``problem.ev``: pose ones for ``problem._free_rows``, point ones for
    every row; the normal ones (None without normal factors) are weighted
    like ``problem.ev.rn``."""
    cfg, ev = problem.config, problem.ev
    if (ev.pc[:, 2] <= 0.0).any():
        raise NonPositiveDepth("point behind camera while linearizing")
    R = problem.R.take(problem.obs_pose, axis=0)
    Jp, Jl = reprojection_row_jacobians(ev.inv_z, ev.nc, R, problem._free_rows)
    J_phi = J_nw = None
    if problem.normals is not None:
        # -sqrt(w) B skew(m), whose row i is m x b_i for b_i of sqrt(w) B
        J_phi = (problem._cross @ ev.m[:, :, None]).reshape(-1, 2, 3)
        if problem.nw_active:  # J_nw is read only while the world normal is free
            args = problem._basis, problem.R[problem.normals[0]], problem.n_w
            J_nw = math.sqrt(cfg.loss.normal_weight) * normal_jacobian(*args)[1]
    scale = problem.map.intrinsics.scale[:, None] / cfg.sigma_px
    Jp *= scale
    Jl *= scale
    return Jp, Jl, J_phi, J_nw


def _ba_assemble(problem: _BAProblem, Jp, Jl_all, J_phi, J_nw):
    """Accumulate the Schur-ready normal-equation blocks.

    Every row adds ``(w Jl)^T [Jl | r]`` to its landmark's Hll and gl, and
    a row at a free pose p its block ``(w Jp)^T Jl`` to W[6p:6p+6, 3l:3l+3];
    per-row block products are matmuls over swapped axes, several times
    faster than a batched einsum at window sizes. A free pose's Hpp and gp
    are one product ``(w Jp)^T [Jp | r]`` over its rows stacked, with no
    per-row 6x6 blocks; they are returned as views of that (P, 6, 7) array.
    """
    ev = problem.ev
    P, L = len(problem.free_ids), len(problem.lm_ids)
    Lb = L + problem.nw_active
    Hg = np.zeros((P, 6, 7))
    Hll, gl = np.zeros((Lb, 3, 3)), np.zeros((Lb, 3))
    W = np.zeros((6 * P, 3 * Lb))

    # every landmark has a row, so the segments cover them all
    wJlT = np.swapaxes(ev.w[:, None, None] * Jl_all, 1, 2)
    rows = np.concatenate([Jl_all, ev.r[:, :, None]], axis=2)
    sums = np.add.reduceat(wJlT @ rows, problem._lm_starts, axis=0)
    Hll[:L], gl[:L] = sums[:, :, :3], sums[:, :, 3]

    free = problem._free_rows
    Jl, r, w = (x.take(free, axis=0) for x in (Jl_all, ev.r, ev.w))
    wJp = w[:, None, None] * Jp
    # each (pose, landmark) pair is observed once, so no block repeats
    W.reshape(-1)[problem._w_at] = np.swapaxes(wJp, 1, 2) @ Jl
    A = wJp.reshape(-1, 6)
    Jr = np.concatenate([Jp, r[:, :, None]], axis=2).reshape(-1, 7)
    for p, lo, hi in problem._free_spans:
        Hg[p] = A[lo:hi].T @ Jr[lo:hi]

    if J_phi is not None:
        # each normal row's rotation block J^T [J | rn], weighted and added
        # to its free pose (rows at fixed poses drop out) by one product
        # with the row-to-pose table
        JT = np.swapaxes(J_phi, 1, 2)
        to_pose = problem._normal_sum * ev.wn
        blocks = JT @ np.concatenate([J_phi, ev.rn[:, :, None]], axis=2)
        Hg[:, 3:, 3:] += (to_pose @ blocks.reshape(len(blocks), -1)).reshape(P, 3, 4)
        if problem.nw_active:
            wJ_nw = ev.wn[:, None, None] * J_nw
            Hll[L] += np.einsum("nab,nac->bc", wJ_nw, J_nw)
            gl[L] += np.einsum("nab,na->b", wJ_nw, ev.rn)
            W_nw = (to_pose @ (JT @ J_nw).reshape(len(J_nw), -1)).reshape(P, 3, 3)
            W.reshape(P, 6, Lb, 3)[:, 3:, L, :] += W_nw
            # the residual is scale-free in n_w, so its radial direction has
            # exactly zero curvature and gradient; pin it so the block inverts
            n_hat = problem.n_w / np.linalg.norm(problem.n_w)
            Hll[L] += np.trace(Hll[L]) * np.outer(n_hat, n_hat)
    return Hg[..., :6], Hg[..., 6], Hll, gl, W


def _inverse_3x3(A):
    """Inverses of the 3x3 blocks ``A`` (n, 3, 3), as adjugate over
    determinant; raises LinAlgError when a determinant is zero or not
    finite."""
    a, b, c, d, e, f, g, h, i = A.reshape(-1, 9).T
    adj = np.array([e * i - f * h, c * h - b * i, b * f - c * e,
                    f * g - d * i, a * i - c * g, c * d - a * f,
                    d * h - e * g, b * g - a * h, a * e - b * d])
    det = a * adj[0] + b * adj[3] + c * adj[6]
    if not (np.isfinite(det).all() and det.all()):
        raise np.linalg.LinAlgError("singular landmark block")
    return (adj / det).T.reshape(-1, 3, 3)


def _ba_solve(Hpp, gp, Hll, gl, W, lam):
    """Damped Schur-complement solve; returns (pose steps, landmark steps).
    The damped landmark blocks are inverted by :func:`_inverse_3x3`; the
    reduced pose system is formed densely, one (6P, 3L) x (3L, 6P) product."""
    P = Hpp.shape[0]
    Hpp_d = Hpp + lam * (np.eye(6) * Hpp.diagonal(axis1=1, axis2=2)[:, :, None])
    Hll_d = Hll + lam * (np.eye(3) * Hll.diagonal(axis1=1, axis2=2)[:, :, None])
    Hll_inv = _inverse_3x3(Hll_d)
    Lb = Hll.shape[0]
    # W Hll^-1, block column by block column, (Lb, 6P, 3) @ (Lb, 3, 3),
    # written straight into W's layout
    WHinv = np.empty((6 * P, Lb, 3))
    np.matmul(W.reshape(6 * P, Lb, 3).swapaxes(0, 1), Hll_inv, out=WHinv.swapaxes(0, 1))
    WHinv = WHinv.reshape(6 * P, 3 * Lb)
    Hred = -WHinv @ W.T
    diag = np.arange(P)
    Hred.reshape(P, 6, P, 6)[diag, :, diag, :] += Hpp_d
    gred = gp.ravel() - WHinv @ gl.ravel()
    dp = np.linalg.solve(Hred, -gred).reshape(P, 6)
    rhs = gl + (W.T @ dp.ravel()).reshape(Lb, 3)
    dl = -np.einsum("lab,lb->la", Hll_inv, rhs)
    return dp, dl


def local_bundle_adjustment(map_state: MapState, current_kf_id: int,
                            config: SolverConfig) -> BAReport:
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
    neighbors = map_state.covisible_keyframes(current_kf_id, config.covisibility_min_shared)
    cap = config.covisibility_max_window
    if cap:
        neighbors = neighbors[: cap - 1]
    window = {current_kf_id} | set(neighbors)
    problem = _BAProblem(map_state, sorted(window), config)
    lam = config.initial_damping
    accepted = iterations = removed_total = 0

    def run_rejection() -> int:
        nonlocal problem, removed_total
        removed = reject_outliers(map_state, config, problem.obs_ids, problem.ev.sq)
        removed_total += removed
        logger.debug("ba[%d]: rejection removed %d observations", current_kf_id, removed)
        if removed:
            # the rebuild reads the map: store the state ev was evaluated at
            problem.write_back()
            problem = _BAProblem(map_state, problem.window_ids, config)
        return removed

    def solve(lam):
        return np.concatenate([x.ravel() for x in _ba_solve(Hpp, gp, Hll, gl, W, lam)])

    def trial(h):
        # one batched update of every free pose
        split = 6 * len(problem.free_ids)
        dp, dl = h[:split].reshape(-1, 6), h[split:].reshape(-1, 3)
        new_R, new_t = problem.R.copy(), problem.t.copy()
        rows = problem.free_rows
        new_R[rows], new_t[rows] = update_poses(dp, problem.R[rows], problem.t[rows])
        L = len(problem.lm_ids)
        new_points = problem.points + dl[:L]
        new_nw = problem.n_w + dl[L] if problem.nw_active else problem.n_w
        new_ev = problem.evaluate(new_R, new_t, new_points, new_nw)
        return new_ev.cost, new_R, new_t, new_points, new_nw, new_ev

    # behind-camera observations come out with infinite residuals, so this
    # pass also clears any state the solver could not even linearize
    run_rejection()
    cost_initial = problem.ev.cost
    final_pass_done = False

    while iterations < config.max_iterations:
        iterations += 1
        Hpp, gp, Hll, gl, W = _ba_assemble(problem, *_ba_linearize(problem))
        g = np.concatenate([gp.ravel(), gl.ravel()])
        d = np.concatenate([B.diagonal(axis1=1, axis2=2).ravel() for B in (Hpp, Hll)])
        cost = problem.ev.cost
        lam, state, converged = _damped_step(config, lam, cost, g, d, solve, trial)
        if state is not None:
            _, problem.R, problem.t, problem.points, problem.n_w, problem.ev = state
            accepted += 1
            logger.debug("ba[%d]: iter %d accepted cost %.9g",
                         current_kf_id, accepted, problem.ev.cost)
        elif not converged and not accepted:
            raise SolverDiverged(
                f"bundle adjustment at keyframe {current_kf_id}: damping ceiling "
                f"{config.damping_ceiling:g} reached without an accepted step"
            )
        if converged or state is None:
            if final_pass_done:
                break
            final_pass_done = True
            if run_rejection() == 0:
                break
            # the refined geometry exposed more outliers; resume on the
            # pruned problem

    problem.write_back()
    logger.debug("ba[%d]: %d iterations, %d accepted, cost %.9g -> %.9g, removed %d",
                 current_kf_id, iterations, accepted, cost_initial, problem.ev.cost,
                 removed_total)
    return BAReport(
        window=tuple(problem.window_ids), free_poses=len(problem.free_ids),
        landmarks=len(problem.lm_ids), observations=int(problem.obs_ids.size),
        iterations=iterations, accepted_steps=accepted, cost_initial=cost_initial,
        cost_final=problem.ev.cost, removed_observations=removed_total,
    )


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    timestamp: float
    keyframe_id: int | None
    R: np.ndarray  # the world-to-camera pose as tracked or coasted
    t: np.ndarray
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
    prev = prev_prev = None  # the last two records: the motion history
    lost_streak = 0
    streak_start = None
    for frame in frames:
        kf_id = None
        if not map_state.keyframes.size:
            pose = PoseSE3.identity()
            kf_id = insert_keyframe(map_state, frame, pose, (), config)
            R, t = pose.R, pose.t
            matched = inliers = map_state.reference_inliers
        else:
            try:
                try:
                    result = track_frame(map_state, frame, config, prev, prev_prev)
                except TrackingLost:
                    result = track_frame(map_state, frame, config, prev, None)
                    logger.debug("frame %d: recovered from previous pose", frame.frame_id)
            except TrackingLost as err:
                lost_streak += 1
                streak_start = frame.frame_id if lost_streak == 1 else streak_start
                if lost_streak > config.max_track_failures:
                    raise TrackingLost(
                        streak_start, f"no recovery within {lost_streak} frames ({err})"
                    ) from err
                logger.debug("frame %d: coasting (%d/%d)",
                             frame.frame_id, lost_streak, config.max_track_failures)
                R, t = constant_velocity_init(prev, prev_prev)
                matched = inliers = 0
            else:
                lost_streak = 0
                cull_landmarks(map_state, result, config)
                if select_keyframe(map_state, frame.frame_id, result.inlier_ids.size,
                                   config):
                    kf_id = insert_keyframe(map_state, frame, result, result.inlier_ids,
                                            config)
                    local_bundle_adjustment(map_state, kf_id, config)
                R, t = result.R, result.t
                matched, inliers = result.matched, int(result.inlier_ids.size)
        prev_prev, prev = prev, FrameRecord(
            frame.frame_id, frame.timestamp, kf_id, R, t, matched, inliers
        )
        records.append(prev)

    # keyframes leave with their final bundle-adjusted poses; their ids run
    # 0..K-1 in record order
    R = np.array([rec.R for rec in records]).reshape(-1, 3, 3)
    t = np.array([rec.t for rec in records]).reshape(-1, 3)
    is_kf = np.array([rec.keyframe_id is not None for rec in records], dtype=bool)
    R[is_kf], t[is_kf] = map_state.kf_R, map_state.kf_t
    R_inv = np.swapaxes(R, 1, 2)  # camera-to-world is (R^T, -R^T t)
    stamps = [rec.timestamp for rec in records]
    trajectory = Trajectory(stamps, R=R_inv, t=(-R_inv @ t[..., None])[..., 0])
    return RunResult(trajectory, map_state, records)
