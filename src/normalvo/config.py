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

from dataclasses import dataclass, field, fields

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
        if min(seeds) < 0:
            raise ConfigError("seeds must be non-negative")


# One line per key for ``default_config_text()``. The key itself, its
# section, kind and default come from the settings class that holds it.
_DOCS = {
    "max_iterations": "iteration cap per nonlinear solve",
    "initial_damping": "damping at the start of every solve",
    "damping_increase": "damping multiplier after a rejected step",
    "damping_decrease": "damping divisor after an accepted step",
    "damping_ceiling": "stop once damping exceeds this",
    "step_tolerance": "converged when the update norm drops below this",
    "cost_tolerance": "converged when the model-predicted or the accepted "
                      "relative cost drop falls below this",
    "chi2_threshold": "squared whitened residual gate (3-dof 95% quantile)",
    "sigma_px": "measurement sigma used to whiten residuals [px]",
    "min_disparity": "triangulation floor on uL - uR [px]",
    "normal_init_window": "keyframes for which the world normal stays a variable",
    "keyframe_gap": "frames after which a keyframe is forced",
    "keyframe_overlap": "new keyframe when inliers drop under this fraction "
                        "of the reference count",
    "covisibility_min_shared": "shared landmarks needed for a covisibility edge",
    "covisibility_max_window": "bundle-adjustment window cap, 0 = uncapped",
    "min_track_observations": "mapped matches below this abort tracking",
    "min_inlier_fraction": "tracking inlier-fraction floor",
    "cull_misses": "consecutive tracking rejections before a landmark is culled",
    "max_track_failures": "coasted frames tolerated before tracking is declared lost",
    "normal_in_tracking": "apply the surface factor during pose tracking too",
    "huber_delta_repro": "Huber knee for whitened reprojection norms",
    "huber_delta_normal": "Huber knee for whitened surface-factor norms",
    "normal_weight": "surface-constraint weight, 0 disables the factor",
    "landmark_count": "features scattered over the field",
    "plane_height": "world z of the pavement plane [m]",
    "roughness": "sigma of landmark height above the plane [m]",
    "extent_x": "field size along the first lane [m]",
    "extent_y": "field size across lanes [m]",
    "pixel_noise": "sigma per measurement component [px]",
    "outlier_rate": "fraction of measurements replaced by gross outliers",
    "outlier_magnitude": "norm of the injected pixel offset [px]",
    "trajectory_shape": "lawnmower or line",
    "trajectory_length": "path length [m]",
    "altitude": "camera height above the plane [m]",
    "speed": "constant flight speed [m/s]",
    "frame_rate": "frames per second",
    "seed": "root seed of every random stream in the scene",
    "normal_noise_deg": "tilt sigma of the measured per-frame normals [deg]",
    "image_width": "sensor width [px], visibility culling only",
    "image_height": "sensor height [px], visibility culling only",
    "fx": "focal length x [px]",
    "fy": "focal length y [px]",
    "cx": "principal point x [px]",
    "cy": "principal point y [px]",
    "b": "stereo baseline [m]",
    "rde_delta": "frame step of the relative distance error",
    "seeds": "scene seeds the experiment command sweeps, space-separated",
}

# Every settings class and the name of its section, in file order. A field
# annotated with one of these class names is a nested section; any other
# field is a key whose kind is its annotation string (``int``, ``float``,
# ``bool``, ``str`` or, for the seeds, ``tuple``).
_SECTIONS = {
    SolverConfig: "solver",
    RobustLossConfig: "loss",
    SceneConfig: "scene",
    Intrinsics: "camera",
    RunConfig: "evaluation",
}
_NESTED = {cls.__name__: cls for cls in _SECTIONS}

# key name -> (section, kind), in file order
_KEYS = {
    f.name: (section, f.type)
    for cls, section in _SECTIONS.items()
    for f in fields(cls)
    if f.type not in _NESTED
}


def _flatten(settings) -> dict:
    flat = {}
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type in _NESTED:
            flat.update(_flatten(value))
        else:
            flat[f.name] = value
    return flat


def _assemble(cls, flat: dict):
    # nested classes are built before the class holding them, so validation
    # errors surface in the order loss, solver, camera, scene, run
    kwargs = {}
    for f in fields(cls):
        nested = _NESTED.get(f.type)
        kwargs[f.name] = flat[f.name] if nested is None else _assemble(nested, flat)
    return cls(**kwargs)


def _parse_value(kind: str, text: str):
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}") from None
    if kind == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}") from None
    if kind == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"expected true or false, got {text!r}")
    if kind == "tuple":
        try:
            return tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ConfigError(
                f"expected space-separated integers, got {text!r}"
            ) from None
    return text


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return format_float(value)
    if kind == "bool":
        return "true" if value else "false"
    if kind == "tuple":
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
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        seen.add(key)
        try:
            flat[key] = _parse_value(_KEYS[key][1], value)
        except ConfigError as err:
            raise ConfigError(f"{source}:{lineno}: {key}: {err}") from None
    try:
        return _assemble(RunConfig, flat)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def format_config(cfg: RunConfig, annotated: bool = False) -> str:
    """Emit every key grouped by section; parses back to an equal config."""
    flat = _flatten(cfg)
    lines = []
    for section in _SECTIONS.values():
        lines.append(f"# {section}")
        for name, (key_section, kind) in _KEYS.items():
            if key_section != section:
                continue
            if annotated:
                lines.append(f"# {_DOCS[name]}")
            lines.append(f"{name} = {_format_value(kind, flat[name])}")
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
