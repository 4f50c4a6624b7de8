"""Flat ``key = value`` configuration covering the whole pipeline.

One text file drives the solver, the robust loss, the synthetic scene, and
the experiment settings together, so a run is reproducible from a single
artifact. Unknown keys are hard errors; a typo must never fall back to a
default silently.

Format: one ``key = value`` per line, ``#`` starts a comment (full-line or
trailing), blank lines are ignored, each key appears at most once. Omitted
keys keep their defaults; ``default_config_text()`` lists every key with its
default and a one-line description. Floats are printed with 17 significant
digits, so ``parse_config(format_config(cfg))`` reproduces every value bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .estimator import SolverConfig
from .factors import RobustLossConfig
from .geometry import Intrinsics
from .simulator import SceneConfig


class ConfigError(ValueError):
    """Malformed config text, an unknown or duplicate key, or a bad value."""


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (parses back bit-exact)."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class RunConfig:
    """Solver, scene, and experiment settings as one immutable bundle."""

    solver: SolverConfig = field(default_factory=SolverConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)
    rde_delta: int = 20
    seeds: tuple = tuple(range(1, 11))

    def __post_init__(self):
        seeds = tuple(int(s) for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        if self.rde_delta < 1:
            raise ConfigError("rde_delta must be at least 1")
        if not seeds:
            raise ConfigError("seeds must name at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")


@dataclass(frozen=True)
class _Entry:
    name: str
    section: str
    kind: str  # int | float | bool | str | seeds
    doc: str


_REGISTRY = (
    # solver
    _Entry("max_iterations", "solver", "int",
           "iteration cap per nonlinear solve"),
    _Entry("initial_damping", "solver", "float",
           "damping at the start of every solve"),
    _Entry("damping_increase", "solver", "float",
           "damping multiplier after a rejected step"),
    _Entry("damping_decrease", "solver", "float",
           "damping divisor after an accepted step"),
    _Entry("damping_ceiling", "solver", "float",
           "stop once damping exceeds this"),
    _Entry("step_tolerance", "solver", "float",
           "converged when the update norm drops below this"),
    _Entry("cost_tolerance", "solver", "float",
           "converged when the model-predicted or the accepted relative "
           "cost drop falls below this"),
    _Entry("chi2_threshold", "solver", "float",
           "squared whitened residual gate (3-dof 95% quantile)"),
    _Entry("sigma_px", "solver", "float",
           "measurement sigma used to whiten residuals [px]"),
    _Entry("min_disparity", "solver", "float",
           "triangulation floor on uL - uR [px]"),
    _Entry("normal_init_window", "solver", "int",
           "keyframes for which the world normal stays a variable"),
    _Entry("keyframe_gap", "solver", "int",
           "frames after which a keyframe is forced"),
    _Entry("keyframe_overlap", "solver", "float",
           "new keyframe when inliers drop under this fraction of the "
           "reference count"),
    _Entry("covisibility_min_shared", "solver", "int",
           "shared landmarks needed for a covisibility edge"),
    _Entry("covisibility_max_window", "solver", "int",
           "bundle-adjustment window cap, 0 = uncapped"),
    _Entry("min_track_observations", "solver", "int",
           "mapped matches below this abort tracking"),
    _Entry("min_inlier_fraction", "solver", "float",
           "tracking inlier-fraction floor"),
    _Entry("cull_misses", "solver", "int",
           "consecutive tracking rejections before a landmark is culled"),
    _Entry("max_track_failures", "solver", "int",
           "coasted frames tolerated before tracking is declared lost"),
    _Entry("normal_in_tracking", "solver", "bool",
           "apply the surface factor during pose tracking too"),
    # loss
    _Entry("huber_delta_repro", "loss", "float",
           "Huber knee for whitened reprojection norms"),
    _Entry("huber_delta_normal", "loss", "float",
           "Huber knee for whitened surface-factor norms"),
    _Entry("normal_weight", "loss", "float",
           "surface-constraint weight, 0 disables the factor"),
    # scene
    _Entry("landmark_count", "scene", "int",
           "features scattered over the field"),
    _Entry("plane_height", "scene", "float",
           "world z of the pavement plane [m]"),
    _Entry("roughness", "scene", "float",
           "sigma of landmark height above the plane [m]"),
    _Entry("extent_x", "scene", "float",
           "field size along the first lane [m]"),
    _Entry("extent_y", "scene", "float",
           "field size across lanes [m]"),
    _Entry("pixel_noise", "scene", "float",
           "sigma per measurement component [px]"),
    _Entry("outlier_rate", "scene", "float",
           "fraction of measurements replaced by gross outliers"),
    _Entry("outlier_magnitude", "scene", "float",
           "norm of the injected pixel offset [px]"),
    _Entry("trajectory_shape", "scene", "str",
           "lawnmower or line"),
    _Entry("trajectory_length", "scene", "float",
           "path length [m]"),
    _Entry("altitude", "scene", "float",
           "camera height above the plane [m]"),
    _Entry("speed", "scene", "float",
           "constant flight speed [m/s]"),
    _Entry("frame_rate", "scene", "float",
           "frames per second"),
    _Entry("seed", "scene", "int",
           "root seed of every random stream in the scene"),
    _Entry("normal_noise_deg", "scene", "float",
           "tilt sigma of the measured per-frame normals [deg]"),
    _Entry("image_width", "scene", "int",
           "sensor width [px], visibility culling only"),
    _Entry("image_height", "scene", "int",
           "sensor height [px], visibility culling only"),
    # camera
    _Entry("fx", "camera", "float", "focal length x [px]"),
    _Entry("fy", "camera", "float", "focal length y [px]"),
    _Entry("cx", "camera", "float", "principal point x [px]"),
    _Entry("cy", "camera", "float", "principal point y [px]"),
    _Entry("b", "camera", "float", "stereo baseline [m]"),
    # evaluation / experiment
    _Entry("rde_delta", "evaluation", "int",
           "frame step of the relative distance error"),
    _Entry("seeds", "evaluation", "seeds",
           "scene seeds the experiment command sweeps, space-separated"),
)

_BY_NAME = {e.name: e for e in _REGISTRY}
_SECTIONS = ("solver", "loss", "scene", "camera", "evaluation")
_SOLVER_NAMES = tuple(e.name for e in _REGISTRY if e.section == "solver")
_LOSS_NAMES = tuple(e.name for e in _REGISTRY if e.section == "loss")
_SCENE_NAMES = tuple(e.name for e in _REGISTRY if e.section == "scene")
_CAMERA_NAMES = tuple(e.name for e in _REGISTRY if e.section == "camera")


def _flatten(cfg: RunConfig) -> dict:
    flat = {}
    for name in _SOLVER_NAMES:
        flat[name] = getattr(cfg.solver, name)
    for name in _LOSS_NAMES:
        flat[name] = getattr(cfg.solver.loss, name)
    for name in _SCENE_NAMES:
        flat[name] = getattr(cfg.scene, name)
    for name in _CAMERA_NAMES:
        flat[name] = getattr(cfg.scene.intrinsics, name)
    flat["rde_delta"] = cfg.rde_delta
    flat["seeds"] = cfg.seeds
    return flat


def _assemble(flat: dict) -> RunConfig:
    loss = RobustLossConfig(**{n: flat[n] for n in _LOSS_NAMES})
    solver = SolverConfig(loss=loss, **{n: flat[n] for n in _SOLVER_NAMES})
    camera = Intrinsics(**{n: flat[n] for n in _CAMERA_NAMES})
    scene = SceneConfig(intrinsics=camera, **{n: flat[n] for n in _SCENE_NAMES})
    return RunConfig(
        solver=solver,
        scene=scene,
        rde_delta=flat["rde_delta"],
        seeds=flat["seeds"],
    )


def _parse_value(entry: _Entry, text: str):
    if entry.kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}") from None
    if entry.kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}") from None
    if entry.kind == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"expected true or false, got {text!r}")
    if entry.kind == "seeds":
        try:
            return tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ConfigError(
                f"expected space-separated integers, got {text!r}"
            ) from None
    return text


def _format_value(entry: _Entry, value) -> str:
    if entry.kind == "float":
        return format_float(value)
    if entry.kind == "bool":
        return "true" if value else "false"
    if entry.kind == "seeds":
        return " ".join(str(int(s)) for s in value)
    return str(value)


def parse_config(text: str, source: str = "config") -> RunConfig:
    """Parse config text; omitted keys keep their defaults.

    Raises ConfigError with ``source:line`` context for anything that is not
    a known ``key = value`` line, and with the offending key named for values
    a constructor rejects.
    """
    flat = _flatten(RunConfig())
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        value = value.strip()
        entry = _BY_NAME.get(key)
        if entry is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        seen.add(key)
        try:
            flat[key] = _parse_value(entry, value)
        except ConfigError as err:
            raise ConfigError(f"{source}:{lineno}: {key}: {err}") from None
    try:
        return _assemble(flat)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def format_config(cfg: RunConfig, annotated: bool = False) -> str:
    """Emit every key grouped by section; parses back to an equal config."""
    flat = _flatten(cfg)
    lines = []
    for section in _SECTIONS:
        lines.append(f"# {section}")
        for entry in _REGISTRY:
            if entry.section != section:
                continue
            if annotated:
                lines.append(f"# {entry.doc}")
            lines.append(f"{entry.name} = {_format_value(entry, flat[entry.name])}")
        lines.append("")
    return "\n".join(lines)


def default_config_text() -> str:
    """The default config with a one-line description above every key."""
    return format_config(RunConfig(), annotated=True)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err.strerror}") from err
    return parse_config(text, source=str(path))


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
