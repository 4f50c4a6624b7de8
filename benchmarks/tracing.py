"""Spans around normalvo's layer boundaries, recorded from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` context,
in every normalvo module that binds it by name: ``estimator`` imports its
kernels with ``from .geometry import project``, so patching
``normalvo.geometry.project`` alone would miss the calls the estimator makes.
Every wrapper records one span (name, start, end, parent span, run id) into
flat integer arrays held in memory; ``save`` writes them out once the traced
pass has ended, and ``layer_times`` sums them per layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, function) pairs whose calls become spans; the span name
# is "<module>.<function>" without the package prefix
TRACED = (
    ("estimator", "run_sequence"),
    ("estimator", "track_frame"),
    ("estimator", "cull_landmarks"),
    ("estimator", "insert_keyframe"),
    ("estimator", "local_bundle_adjustment"),
    ("estimator", "reject_outliers"),
    ("factors", "reprojection_jacobians"),
    ("factors", "huber"),
    ("factors", "normal_residual"),
    ("factors", "normal_jacobian"),
    ("geometry", "project"),
    ("geometry", "apply_update"),
    ("geometry", "nearest_rotation"),
    ("simulator", "generate_sequence"),
    ("evaluation", "ate"),
    ("evaluation", "rde"),
    ("dataset", "save_trajectory"),
    ("dataset", "load_dataset"),
    ("cli", "cmd_experiment"),
)

POSE_SPAN = "geometry.PoseSE3"


def _arg(args, kwargs, index, name):
    """An argument of a wrapped call, passed by position or by keyword, or
    None when the call left it at its default."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if index < len(args) else None


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple] = []
        self._last_track_frame = None

    # --- span recording ---

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, before=None, after=None):
        stack = self._stack
        names = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        runs = self.span_run
        clock = time.perf_counter_ns
        fixed_id = self._name_id(name)

        def traced(*args, **kwargs):
            nid = fixed_id if before is None else before(args, kwargs, fixed_id)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # --- per-layer counters, read from arguments and return values ---

    def _before_run_sequence(self, args, kwargs, fixed_id):
        self.run_id += 1
        mode = "normal" if _arg(args, kwargs, 2, "config").loss.normal_weight > 0.0 else "baseline"
        return self._name_id(f"estimator.run_sequence.{mode}")

    def _after_run_sequence(self, result, args, kwargs):
        m = result.map_state
        self.counts["map.keyframes"] += len(m.keyframes)
        self.counts["map.landmarks"] += len(m.landmarks)
        self.counts["map.observations"] += len(m.observations)

    def _before_track(self, args, kwargs, fixed_id):
        # run_sequence retries a frame that failed to track, from the
        # previous pose; a second call for the same frame is that retry
        key = (self.run_id, _arg(args, kwargs, 1, "frame").frame_id)
        if key == self._last_track_frame:
            self.counts["track.retries"] += 1
        self._last_track_frame = key
        return fixed_id

    def _after_track(self, result, args, kwargs):
        self.counts["track.matched"] += result.matched
        self.counts["track.inliers"] += int(result.inlier_ids.size)

    def _after_cull(self, result, args, kwargs):
        self.counts["cull.culled"] += result

    def _after_ba(self, result, args, kwargs):
        self.counts["ba.iterations"] += result.iterations
        self.counts["ba.accepted"] += result.accepted_steps
        self.counts["ba.window_obs"] += result.observations

    def _before_reject(self, args, kwargs, fixed_id):
        obs_ids = _arg(args, kwargs, 2, "obs_ids")
        if obs_ids is None:
            obs_ids = args[0].observations
        self.counts["reject.examined"] += len(obs_ids)
        return fixed_id

    def _after_reject(self, result, args, kwargs):
        self.counts["reject.removed"] += result

    def _before_jacobians(self, args, kwargs, fixed_id):
        point = np.asarray(_arg(args, kwargs, 2, "point"))
        self.counts["jacobians.points"] += 1 if point.ndim == 1 else point.shape[0]
        return fixed_id

    # --- installation ---

    def __enter__(self):
        hooks = {
            "estimator.run_sequence": (self._before_run_sequence, self._after_run_sequence),
            "estimator.track_frame": (self._before_track, self._after_track),
            "estimator.cull_landmarks": (None, self._after_cull),
            "estimator.local_bundle_adjustment": (None, self._after_ba),
            "estimator.reject_outliers": (self._before_reject, self._after_reject),
            "factors.reprojection_jacobians": (self._before_jacobians, None),
        }
        originals = {
            (short, func): getattr(importlib.import_module(f"normalvo.{short}"), func)
            for short, func in TRACED
        }
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "normalvo" or name.startswith("normalvo.")
        ]
        for (short, func), original in originals.items():
            name = f"{short}.{func}"
            wrapper = self._wrap(original, name, *hooks.get(name, (None, None)))
            for mod in modules:
                if getattr(mod, func, None) is original:
                    self._patches.append((mod, func, original))
                    setattr(mod, func, wrapper)
        pose_cls = importlib.import_module("normalvo.geometry").PoseSE3
        original = pose_cls.__post_init__
        self._patches.append((pose_cls, "__post_init__", original))
        pose_cls.__post_init__ = self._wrap(original, POSE_SPAN)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # --- output ---

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int64),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "run": np.frombuffer(self.span_run, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, as one compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_times(self) -> dict:
        """Per span name: calls, total seconds, self seconds, and durations.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested (one thread), so children never
        overlap each other.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(dur[sel].sum()) / 1e9,
                "self_s": float(self_ns[sel].sum()) / 1e9,
                "durations_ns": dur[sel],
            }
        return out
