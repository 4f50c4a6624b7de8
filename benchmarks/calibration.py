"""Calibration of timings against the shared machine's changing speed.

The sizing machine is shared: for seconds to minutes at a time, the same code
runs up to 1.5 times slower, and ``lawnmower`` passes on unchanged code took
anywhere from 15 to 22 s. No run is long enough to average that out. So the
benchmark runs a fixed reference probe between frames, about every 50 ms,
and scales each frame's time by ``PROBE_NOMINAL_NS`` over the probe time
measured next to it. The probe is benchmark code and does not change with
the program. It does the same kind of work as the estimator: small numpy
products, a 6x6 solve, a 3x3 SVD and a frozen dataclass per step. Its
slowdowns therefore track the estimator's. On 8 passes of ``lawnmower``
seed 7, the raw times spanned 48% and the calibrated times 2.2%.

Calibrated times read as the wall time on a machine where the probe takes
``PROBE_NOMINAL_NS``, which is about the sizing machine in its fast state.
Raw wall-clock figures are recorded beside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

PROBE_NOMINAL_NS = 570_000
PROBE_EVERY_NS = 50_000_000
# each frame is calibrated by the median of this many probes nearest in time
PROBE_WINDOW = 5

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(60, 3)) + np.array([0.0, 0.0, 8.0])
_MEASURED = _rng.normal(size=(60, 3))


@dataclass(frozen=True)
class _Pose:
    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", np.array(self.R, dtype=float))


def probe_ns() -> int:
    """Run the reference probe once; returns its duration in nanoseconds."""
    pose = _Pose(np.eye(3), np.zeros(3))
    start = time.perf_counter_ns()
    for _ in range(6):
        pc = _POINTS @ pose.R.T + pose.t
        z = pc[:, 2]
        r = np.stack([pc[:, 0] / z, pc[:, 1] / z, (pc[:, 0] - 0.2) / z], axis=-1) - _MEASURED
        norms = np.linalg.norm(r, axis=1)
        w = np.where(norms <= 2.0, 1.0, 2.0 / norms)
        J = np.zeros((60, 3, 6))
        J[:, 0, 0] = 1.0 / z
        J[:, 1, 1] = 1.0 / z
        J[:, 2, 2] = -pc[:, 0] / (z * z)
        H = np.einsum("n,nab,nac->bc", w, J, J) + np.eye(6)
        g = np.einsum("n,nab,na->b", w, J, r)
        step = np.linalg.solve(H, -g)
        U, _, Vt = np.linalg.svd(pose.R + 1e-9 * np.outer(step[:3], step[3:]))
        pose = _Pose(U @ Vt, pose.t + 1e-9 * step[:3])
    return time.perf_counter_ns() - start


class FrameClock:
    """Stamps every frame pulled from ``frames()`` and runs the probe between
    frames, outside the stamped intervals."""

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.probe_at: list[int] = []
        self.probe_ns: list[int] = []

    def frames(self, frames):
        clock = time.perf_counter_ns
        for frame in frames:
            if not self.probe_at or clock() - self.probe_at[-1] >= PROBE_EVERY_NS:
                self.probe_at.append(clock())
                self.probe_ns.append(probe_ns())
            self.starts.append(clock())
            yield frame
            self.ends.append(clock())

    @property
    def probe_total_s(self) -> float:
        return sum(self.probe_ns) / 1e9

    def gaps_ns(self) -> np.ndarray:
        """Raw time of each finished frame (a run that raised leaves the
        last frame unfinished)."""
        n = len(self.ends)
        return np.array(self.ends, dtype=np.int64) - np.array(self.starts[:n], dtype=np.int64)

    def calibrated_gaps_ns(self) -> np.ndarray:
        """Each frame's time scaled by nominal over the probes next to it."""
        probes = np.array(self.probe_ns, dtype=float)
        half = PROBE_WINDOW // 2
        local = np.array(
            [np.median(probes[max(j - half, 0) : j + half + 1]) for j in range(probes.size)]
        )
        gaps = self.gaps_ns()
        nearest = np.searchsorted(self.probe_at, self.starts[: gaps.size], side="right") - 1
        return gaps * (PROBE_NOMINAL_NS / local[np.clip(nearest, 0, None)])

    def speed_factor(self) -> float:
        """Nominal over the median probe of the whole pass, for the time a
        pass spends outside frames."""
        return PROBE_NOMINAL_NS / float(np.median(self.probe_ns))
