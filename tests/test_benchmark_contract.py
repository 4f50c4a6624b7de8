"""The package surface the benchmark relies on.

``benchmarks/tracing.py`` wraps functions by module and name from outside
the package, and its hooks read some arguments by position.
``benchmarks/run.py`` feeds ``run_sequence`` a generator of frames, reads the
result's records, trajectory and map sizes, and clocks ``experiment`` by
replacing ``normalvo.cli.run_sequence``. A change to any of these would only
show when a benchmark pass is run, as a pass without a result line; these
tests make it fail the ordinary suite instead. The tracer module is loaded
from its file and only read, never modified. One more test counts calls of
two of the wrapped kernels, which must stay out of the solver steps.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

from normalvo import cli, estimator, factors, geometry
from normalvo.estimator import SolverConfig
from normalvo.evaluation import ate, rde
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


# (function, position, name) of each argument a tracer hook reads by position
POSITIONAL_READS = (
    (estimator.run_sequence, 2, "config"),
    (estimator.track_frame, 1, "frame"),
    (estimator.reject_outliers, 2, "obs_ids"),
    (factors.reprojection_jacobians, 2, "point"),
)


@pytest.mark.parametrize(
    "func, index, name",
    POSITIONAL_READS,
    ids=[func.__name__ for func, _, _ in POSITIONAL_READS],
)
def test_tracer_hooks_read_arguments_where_the_signatures_put_them(func, index, name):
    assert list(inspect.signature(func).parameters)[index] == name


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


def assert_result_surface(result, n_frames):
    """What the benchmark reads of a finished run: one pose and one record
    per frame, each record with a keyframe id (or None) and a match count."""
    assert len(result.trajectory) == len(result.records) == n_frames
    for rec in result.records:
        assert rec.keyframe_id is None or isinstance(rec.keyframe_id, int)
        assert isinstance(rec.matched, int) and rec.matched >= 0
    assert sum(r.keyframe_id is not None for r in result.records) == len(
        result.map_state.keyframes
    )


def test_run_takes_frames_from_a_generator(strip):
    # the benchmark clocks each frame by pulling it through a generator
    frames = (f for f in strip.frames)
    result = estimator.run_sequence(frames, strip.intrinsics, SolverConfig())
    assert_result_surface(result, len(strip.frames))


def test_a_run_and_its_metrics_write_nothing_to_stdout(strip, capsys):
    # the benchmark's result is the last line of its standard output, and a
    # NaN metric prints there as null: a run must neither print after it nor
    # end without its metrics
    result = estimator.run_sequence(strip.frames, strip.intrinsics, SolverConfig())
    gt = strip.ground_truth
    metrics = ate(result.trajectory, gt).rmse, rde(result.trajectory, gt, delta=20).mean
    assert capsys.readouterr().out == ""
    assert all(math.isfinite(m) for m in metrics)


EXPERIMENT_CFG = """\
landmark_count = 300
extent_x = 12
extent_y = 10
trajectory_shape = line
trajectory_length = 2
altitude = 8
speed = 2.4
frame_rate = 30
seed = 11
seeds = 11
rde_delta = 5
"""


def test_experiment_runs_the_estimator_through_the_cli_module_global(
    tmp_path, monkeypatch
):
    # the benchmark's experiment pass replaces normalvo.cli.run_sequence to
    # clock each run and read its map; a call that bypasses that global
    # leaves the pass without its counts
    runs = []
    inner = cli.run_sequence

    def recording(frames, intrinsics, config):
        frames = list(frames)
        result = inner(frames, intrinsics, config)
        runs.append((result, len(frames)))
        return result

    monkeypatch.setattr(cli, "run_sequence", recording)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXPERIMENT_CFG)
    out = tmp_path / "exp"
    assert cli.main(["--quiet", "experiment", str(out), "--config", str(cfg)]) == 0
    assert len(runs) == 2  # one seed, both modes
    for result, n_frames in runs:
        assert_result_surface(result, n_frames)


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
