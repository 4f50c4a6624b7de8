"""Synthetic pavement-inspection scenes for exercising the estimator.

A near-planar field of landmarks is observed by a downward-looking rectified
stereo camera flying a lawn-mower (or straight) path at constant speed. The
generated world frame is anchored to the first camera: the first ground-truth
pose is exactly the identity, pose records are camera-to-world.

All randomness is drawn from `numpy.random.default_rng` streams derived from
the config seed, so sequences are bit-identical across runs. Frame ``i``
draws from its own stream ``default_rng([seed, 1, i])``, in this order:

1. the pixel noise of every visible measurement;
2. one outlier flag per measurement;
3. the outliers' offset attempts, three normals each, outlier by outlier in
   landmark-id order: an outlier takes its first attempt that keeps the
   disparity above the floor, and after 32 failed attempts stays an inlier;
4. the frame normal's tangent (three normals, redrawn while degenerate),
   then its tilt angle.

The pinned dataset bytes in the tests and the benchmark's input digests
depend on this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimator import FrameData
from .evaluation import Trajectory
from .geometry import DEFAULT_MIN_DISPARITY, Intrinsics, check_finite, project, so3_exp

#: Spacing between lawn-mower lanes [m]; turns are semicircles of half this.
LANE_PITCH = 7.0

TRAJECTORY_SHAPES = ("lawnmower", "line")


class DegenerateCloud(ValueError):
    """Too few points, or points too collinear, to fit a plane."""


@dataclass(frozen=True)
class SceneConfig:
    """Everything the simulator needs; defaults give the standard test scene."""

    landmark_count: int = 3200
    plane_height: float = 0.0
    roughness: float = 0.01          # sigma of landmark height above the plane [m]
    extent_x: float = 40.0           # field size along the first lane [m]
    extent_y: float = 21.0
    pixel_noise: float = 0.5         # sigma per measurement component [px]
    outlier_rate: float = 0.05
    outlier_magnitude: float = 50.0  # norm of the injected offset [px]
    trajectory_shape: str = "lawnmower"
    trajectory_length: float = 120.0
    altitude: float = 8.0
    speed: float = 2.4
    frame_rate: float = 30.0
    seed: int = 42
    normal_noise_deg: float = 0.1
    intrinsics: Intrinsics = field(
        default_factory=lambda: Intrinsics(fx=1100.0, fy=1100.0, cx=412.0, cy=224.5, b=0.2)
    )
    image_width: int = 824
    image_height: int = 449

    def __post_init__(self):
        check_finite(self)
        if self.landmark_count < 3:
            raise ValueError("landmark_count must be at least 3")
        for name in ("extent_x", "extent_y", "trajectory_length", "altitude",
                     "speed", "frame_rate"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"SceneConfig.{name} must be positive")
        for name in ("roughness", "pixel_noise", "outlier_magnitude",
                     "normal_noise_deg", "seed"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"SceneConfig.{name} must be non-negative")
        if not 0.0 <= self.outlier_rate <= 0.5:
            raise ValueError("outlier_rate must lie in [0, 0.5]")
        if self.trajectory_shape not in TRAJECTORY_SHAPES:
            raise ValueError(
                f"trajectory_shape must be one of {TRAJECTORY_SHAPES}, "
                f"got {self.trajectory_shape!r}"
            )

    @property
    def frame_count(self) -> int:
        return int(math.floor(self.trajectory_length / self.speed * self.frame_rate)) + 1


@dataclass(frozen=True)
class FrameObservations(FrameData):
    """Rendered measurements of one frame, with ground-truth outlier labels:
    ``outlier_mask`` (N,) is True where an offset was injected. The frame
    normal is a unit camera-frame normal with z-component < 0."""

    outlier_mask: np.ndarray = field(kw_only=True)


@dataclass
class SimulatedSequence:
    """A full synthetic run in the first-camera-anchored world frame."""

    config: SceneConfig
    intrinsics: Intrinsics
    ground_truth: Trajectory      # camera-to-world, the first pose is I
    landmark_ids: np.ndarray      # (M,) int
    landmark_positions: np.ndarray  # (M, 3) world frame
    frames: list                  # list[FrameObservations]


def estimate_frame_normal(points: np.ndarray):
    """Least-squares plane normal of camera-frame points, plus planarity score.

    The normal is the eigenvector of the smallest eigenvalue of the centered
    scatter matrix, sign-flipped so its z-component is negative (pointing back
    toward a downward-looking camera). The score is the ratio of smallest to
    middle eigenvalue: 0 for a perfect plane, ~1 for an isotropic cloud.

    Raises DegenerateCloud for fewer than 3 points or a (near-)collinear set.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise DegenerateCloud("plane fit needs at least 3 points of shape (N, 3)")
    centered = pts - pts.mean(axis=0)
    scatter = centered.T @ centered
    evals, evecs = np.linalg.eigh(scatter)
    if evals[1] <= 1e-12 * max(evals[2], 1.0):
        raise DegenerateCloud("points are collinear; plane normal undefined")
    n = evecs[:, 0]
    if n[2] > 0.0 or (n[2] == 0.0 and (n[0] > 0.0 or (n[0] == 0.0 and n[1] > 0.0))):
        n = -n
    return n, float(evals[0] / evals[1])


def generate_scene(cfg: SceneConfig):
    """Uniform landmark field on a rough plane, in field coordinates.

    Returns positions (M,3). Field coordinates: x in [0, extent_x],
    y in [0, extent_y], z up; the noiseless plane is z = plane_height.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    m = cfg.landmark_count
    xy = rng.uniform([0.0, 0.0], [cfg.extent_x, cfg.extent_y], size=(m, 2))
    z = cfg.plane_height + rng.normal(0.0, cfg.roughness, size=m)
    return np.column_stack([xy, z])


def _path_segments(cfg: SceneConfig):
    """Arc-length parameterized path pieces in field coordinates.

    Each piece is ("straight", start(2,), heading_angle, length) or
    ("arc", center(2,), radius, angle0, turn_sign, length).
    """
    margin = LANE_PITCH / 2.0
    if cfg.trajectory_shape == "line" or cfg.extent_y <= LANE_PITCH:
        y = cfg.extent_y / 2.0
        return [("straight", np.array([margin, y]), 0.0, cfg.trajectory_length)]

    usable = cfg.extent_y - 2.0 * margin
    n_lanes = int(math.floor(usable / LANE_PITCH)) + 1
    lane_y = [margin + i * LANE_PITCH for i in range(n_lanes)]
    x_lo, x_hi = margin, max(cfg.extent_x - margin, margin + 1.0)
    row_len = x_hi - x_lo
    radius = LANE_PITCH / 2.0
    turn_len = math.pi * radius

    segments = []
    total = 0.0
    lane = 0
    while total < cfg.trajectory_length and lane < n_lanes:
        forward = lane % 2 == 0
        start = np.array([x_lo if forward else x_hi, lane_y[lane]])
        heading = 0.0 if forward else math.pi
        segments.append(("straight", start, heading, row_len))
        total += row_len
        lane += 1
        if lane >= n_lanes or total >= cfg.trajectory_length:
            break
        # semicircle up to the next lane, continuous heading
        center = np.array([x_hi if forward else x_lo, lane_y[lane - 1] + radius])
        angle0 = -math.pi / 2.0  # lane end sits at the bottom of the turn circle
        sign = 1.0 if forward else -1.0
        segments.append(("arc", center, radius, angle0, sign, turn_len))
        total += turn_len
    return segments


def _pose_at(segments, s: float, altitude: float):
    """Camera-to-world (field-frame) pose ``(R, t)`` at arc length s along
    the path."""
    remaining = s
    for seg in segments:
        length = seg[-1]
        if remaining > length:
            remaining -= length
            continue
        if seg[0] == "straight":
            _, start, heading, _ = seg
            pos2 = start + remaining * np.array([math.cos(heading), math.sin(heading)])
        else:
            _, center, radius, angle0, sign, _ = seg
            swept = sign * remaining / radius
            angle = angle0 + swept
            pos2 = center + radius * np.array([math.cos(angle), math.sin(angle)])
            heading = angle + sign * math.pi / 2.0
        position = np.array([pos2[0], pos2[1], altitude])
        x_cam = np.array([math.cos(heading), math.sin(heading), 0.0])
        z_cam = np.array([0.0, 0.0, -1.0])  # optical axis straight down
        y_cam = _cross(z_cam, x_cam)
        R = np.column_stack([x_cam, y_cam, z_cam])
        return R, position
    raise ValueError(f"arc length {s} beyond path end")


def generate_trajectory(cfg: SceneConfig):
    """Ground-truth camera-to-world poses in field coordinates, one per
    frame, as stacked ``R`` (F, 3, 3) and ``t`` (F, 3)."""
    segments = _path_segments(cfg)
    available = sum(seg[-1] for seg in segments)
    ds = cfg.speed / cfg.frame_rate
    R, t = zip(*(
        _pose_at(segments, min(i * ds, available - 1e-9), cfg.altitude)
        for i in range(cfg.frame_count)
    ))
    return np.array(R), np.array(t)


def render_observations(
    landmarks: np.ndarray,
    R: np.ndarray,
    t: np.ndarray,
    cfg: SceneConfig,
    frame_rng: np.random.Generator,
):
    """Project the landmark field into one stereo frame and corrupt it.

    ``(R, t)`` is the camera-to-world pose, in the same frame as `landmarks`.
    Returns (ids, measurements (N,3), outlier_mask, cam_points (N,3)): only
    landmarks that are in front of the camera, inside both image bounds and
    with disparity above the minimum survive. Outliers replace the clean
    projection with a uniformly-directed offset of configured norm, re-drawn
    if the offset would push the disparity below its floor.

    Only the landmarks in front of the camera and inside both images with a
    pixel to spare, by a test in multiplications, are projected; the slack
    outweighs any rounding, so the exact test keeps the same landmarks as it
    would over the whole field.

    Draws from `frame_rng`, in this order (see the module docstring): the
    pixel noise of every visible measurement, one outlier flag per
    measurement, then the outliers' offset attempts in stream order, at most
    32 per outlier.
    """
    K = cfg.intrinsics
    w, h = cfg.image_width - 1.0, cfg.image_height - 1.0
    # world-to-camera is (R^T, -R^T t); the translation added by column has
    # the bits of the broadcast add, at a fraction of its cost
    rotated = landmarks @ R
    shift = -R.T @ t
    x, y, z = (rotated[:, k] + shift[k] for k in range(3))
    near = np.flatnonzero(
        (z > 1e-6)
        & (x - K.b >= (-(K.cx + 1.0) / K.fx) * z) & (x <= ((w - K.cx + 1.0) / K.fx) * z)
        & (y >= (-(K.cy + 1.0) / K.fy) * z) & (y <= ((h - K.cy + 1.0) / K.fy) * z)
    )
    pc = rotated[near] + shift
    clean = project(K, pc)
    visible = (
        (clean[:, 0] >= 0.0) & (clean[:, 0] <= w)
        & (clean[:, 1] >= 0.0) & (clean[:, 1] <= h)
        & (clean[:, 2] >= 0.0) & (clean[:, 2] <= w)
        & (clean[:, 0] - clean[:, 2] > DEFAULT_MIN_DISPARITY)
    )
    idx = near[visible]
    pc = pc[visible]
    clean = clean[visible]

    measured = clean + frame_rng.normal(0.0, cfg.pixel_noise, size=clean.shape)
    outlier = frame_rng.random(len(idx)) < cfg.outlier_rate
    corrupt = np.flatnonzero(outlier)
    if corrupt.size:
        offset, taken = _outlier_offsets(clean[corrupt], cfg.outlier_magnitude, frame_rng)
        placed = taken >= 0
        measured[corrupt[placed]] = clean[corrupt[placed]] + offset[taken[placed]]
        outlier[corrupt[~placed]] = False
    # guard: pixel noise alone must not create degenerate disparities
    ok = measured[:, 0] - measured[:, 2] > DEFAULT_MIN_DISPARITY
    return idx[ok], measured[ok], outlier[ok], pc[ok]


def _outlier_offsets(clean: np.ndarray, magnitude: float, rng: np.random.Generator):
    """Offsets for the clean triplets `clean` (n, 3) of the outliers, as
    drawn one attempt at a time: each attempt is a normal 3-vector scaled to
    `magnitude`, and an outlier takes the first of its attempts that keeps
    its disparity above the floor, trying at most 32.

    Returns every drawn attempt's offset (A, 3) and, per outlier, the index
    of the attempt it took or -1. Attempts are drawn in blocks and handed out
    in stream order; `rng` is then rewound and the consumed attempts drawn
    again, so that it is left just past them.
    """
    state = rng.bit_generator.state
    c0, c2 = clean[:, 0].tolist(), clean[:, 2].tolist()
    n = len(c0)
    taken = [-1] * n
    blocks, o0, o2 = [], [], []
    a = 0
    for k in range(n):
        for _ in range(32):
            if a == len(o0):
                d = rng.normal(size=(2 * (n - k) + 4, 3))
                # each row's norm as np.linalg.norm takes it, by a 1x3 @ 3x1 dot
                blocks.append(magnitude * (d / np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0]))
                o0 += blocks[-1][:, 0].tolist()
                o2 += blocks[-1][:, 2].tolist()
            a += 1
            if (c0[k] + o0[a - 1]) - (c2[k] + o2[a - 1]) > DEFAULT_MIN_DISPARITY:
                taken[k] = a - 1
                break
    rng.bit_generator.state = state
    rng.normal(size=(a, 3))
    return np.concatenate(blocks), np.array(taken)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, in Python floats (the same bits)."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def generate_sequence(cfg: SceneConfig) -> SimulatedSequence:
    """Full synthetic sequence, anchored so the first camera is the world frame."""
    field_landmarks = generate_scene(cfg)
    field_R, field_t = generate_trajectory(cfg)

    # field -> world(=first camera) is the inverse of the first pose
    anchor_R, anchor_t = field_R[0].T, -field_R[0].T @ field_t[0]
    R = anchor_R @ field_R
    t = (anchor_R @ field_t[..., None])[..., 0] + anchor_t
    landmarks = field_landmarks @ anchor_R.T + anchor_t

    sigma_norm = math.radians(cfg.normal_noise_deg)
    frames = []
    for i in range(len(R)):
        rng = np.random.default_rng([cfg.seed, 1, i])
        ids, measured, outlier_mask, pc = render_observations(
            landmarks, R[i], t[i], cfg, rng
        )
        normal, _ = estimate_frame_normal(pc)
        if sigma_norm > 0.0:
            tangent = _cross(normal, rng.normal(size=3))
            while np.linalg.norm(tangent) < 1e-12:
                tangent = _cross(normal, rng.normal(size=3))
            tangent /= np.linalg.norm(tangent)
            angle = rng.normal(0.0, sigma_norm)
            normal = so3_exp(angle * tangent) @ normal
        frames.append(
            FrameObservations(
                frame_id=i,
                timestamp=i / cfg.frame_rate,
                landmark_ids=ids.astype(np.int64),
                measurements=measured,
                outlier_mask=outlier_mask,
                frame_normal=normal,
            )
        )
    return SimulatedSequence(
        config=cfg,
        intrinsics=cfg.intrinsics,
        ground_truth=Trajectory(np.arange(len(R)) / cfg.frame_rate, R=R, t=t),
        landmark_ids=np.arange(len(landmarks), dtype=np.int64),
        landmark_positions=landmarks,
        frames=frames,
    )
