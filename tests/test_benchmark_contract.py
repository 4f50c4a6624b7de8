"""The package surface the benchmark's tracer relies on.

``benchmarks/tracing.py`` wraps functions by module and name from outside
the package. A rename there would only show when a traced benchmark pass is
run; these tests make it fail the ordinary suite instead. The tracer module
is loaded from its file and only read, never modified. One more test counts
calls of two of the wrapped kernels, which must stay out of the solver steps.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from normalvo import estimator, geometry
from normalvo.estimator import SolverConfig
from normalvo.geometry import PoseSE3
from normalvo.simulator import SceneConfig, generate_sequence

TRACING_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("normalvo_bench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every (owner, attribute) a Tracer patches, with its current value."""
    names = {func for _, func in tracing.TRACED}
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "normalvo" or mod_name.startswith("normalvo."):
            for func in names:
                if hasattr(mod, func):
                    out[(mod_name, func)] = getattr(mod, func)
    out[("PoseSE3", "__post_init__")] = PoseSE3.__post_init__
    return out


def test_every_traced_function_resolves(tracing):
    for short, func in tracing.TRACED:
        module = importlib.import_module(f"normalvo.{short}")
        assert callable(getattr(module, func, None)), f"normalvo.{short}.{func}"


@pytest.fixture(scope="module")
def strip():
    """A 26-frame strip: a run over it takes a fraction of a second."""
    return generate_sequence(
        SceneConfig(
            landmark_count=300,
            extent_x=12.0,
            extent_y=10.0,
            trajectory_shape="line",
            trajectory_length=2.0,
            altitude=8.0,
            speed=2.4,
            frame_rate=30.0,
            seed=11,
        )
    )


def test_tracer_records_layers_and_restores_originals(tracing, strip):
    before = _bindings(tracing)
    with tracing.Tracer() as tracer:
        result = estimator.run_sequence(strip.frames, strip.intrinsics, SolverConfig())

    assert any(r.keyframe_id is not None for r in result.records[1:])
    calls = {name: t["calls"] for name, t in tracer.layer_times().items()}
    assert calls.get("estimator.run_sequence.normal") == 1
    assert calls.get("estimator.track_frame", 0) >= len(strip.frames) - 1
    assert calls.get("estimator.local_bundle_adjustment", 0) >= 1
    assert _bindings(tracing) == before
    # the map sizes the benchmark records, read through the same surface
    m = result.map_state
    assert tracer.counts["map.keyframes"] == len(m.keyframes) > 0
    assert tracer.counts["map.landmarks"] == len(m.landmarks) > 0
    assert tracer.counts["map.observations"] == len(m.observations) > 0


def test_solvers_update_stacked_poses_without_per_step_projection(strip, monkeypatch):
    # the solvers update (R, t) arrays in one batched kernel per step: no
    # per-pose apply_update, and no SVD at all, the motion model included.
    # Counts only; no timing is asserted.
    calls = {"apply_update": 0, "nearest_rotation": 0}
    for func in calls:
        original = getattr(geometry, func)

        def counting(*args, _func=func, _original=original, **kwargs):
            calls[_func] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("normalvo") and getattr(mod, func, None) is original:
                monkeypatch.setattr(mod, func, counting)

    result = estimator.run_sequence(strip.frames, strip.intrinsics, SolverConfig())

    assert any(r.keyframe_id is not None for r in result.records[1:])
    assert calls["apply_update"] == 0
    assert calls["nearest_rotation"] == 0
