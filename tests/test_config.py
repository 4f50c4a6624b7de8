"""Flat config text: round trips, defaults, and rejection of bad input."""

import dataclasses
import math

import numpy as np
import pytest

from normalvo.estimator import SolverConfig
from normalvo.factors import RobustLossConfig
from normalvo.geometry import Intrinsics
from normalvo.simulator import SceneConfig

from normalvo.config import (
    _DOCS,
    _KEYS,
    ConfigError,
    RunConfig,
    default_config_text,
    format_config,
    format_float,
    load_config,
    parse_config,
    save_config,
)


# --- float formatting ---


def test_format_float_is_lossless_over_magnitudes():
    rng = np.random.default_rng(7)
    exponents = rng.uniform(-300.0, 300.0, size=400)
    values = np.sign(rng.standard_normal(400)) * 10.0**exponents
    for v in values:
        assert float(format_float(v)) == v
    for v in (0.0, 1.0, math.pi, math.sqrt(7.815), 5.0 / 3.0, 1e-310):
        assert float(format_float(v)) == v


# --- round trips ---


def test_default_round_trip():
    cfg = RunConfig()
    assert parse_config(format_config(cfg)) == cfg


def test_empty_text_gives_defaults():
    assert parse_config("") == RunConfig()


def test_annotated_default_text_parses_back_to_defaults():
    text = default_config_text()
    assert parse_config(text) == RunConfig()
    # every key line is preceded by a description comment
    assert text.count("# ") > 45


def test_randomized_round_trips():
    """parse(format(cfg)) must reproduce every field bit for bit."""
    rng = np.random.default_rng(21)
    for _ in range(25):
        overrides = {
            "sigma_px": float(rng.uniform(0.1, 3.0)),
            "chi2_threshold": float(rng.uniform(1.0, 20.0)),
            "initial_damping": float(10.0 ** rng.uniform(-8, 0)),
            "step_tolerance": float(10.0 ** rng.uniform(-12, -4)),
            "keyframe_overlap": float(rng.uniform(0.1, 1.0)),
            "max_iterations": int(rng.integers(1, 60)),
            "keyframe_gap": int(rng.integers(1, 12)),
            "normal_weight": float(10.0 ** rng.uniform(-2, 6)),
            "pixel_noise": float(rng.uniform(0.0, 2.0)),
            "outlier_rate": float(rng.uniform(0.0, 0.5)),
            "speed": float(rng.uniform(0.5, 5.0)),
            "fx": float(rng.uniform(200.0, 2000.0)),
            "b": float(rng.uniform(0.05, 1.0)),
            "seed": int(rng.integers(0, 10_000)),
            "rde_delta": int(rng.integers(1, 50)),
        }
        lines = [f"{k} = {format_float(v) if isinstance(v, float) else v}"
                 for k, v in overrides.items()]
        seeds = sorted(int(s) for s in rng.choice(1000, size=4, replace=False))
        lines.append("seeds = " + " ".join(str(s) for s in seeds))
        cfg = parse_config("\n".join(lines))
        assert cfg.solver.sigma_px == overrides["sigma_px"]
        assert cfg.solver.loss.normal_weight == overrides["normal_weight"]
        assert cfg.scene.intrinsics.fx == overrides["fx"]
        assert cfg.seeds == tuple(seeds)
        assert parse_config(format_config(cfg)) == cfg


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config(
        "\n# full-line comment\n\n  sigma_px = 2.0   # trailing comment\n\n"
    )
    assert cfg.solver.sigma_px == 2.0
    assert cfg == dataclasses.replace(
        RunConfig(), solver=dataclasses.replace(RunConfig().solver, sigma_px=2.0)
    )


def test_save_load_files(tmp_path):
    cfg = parse_config("normal_weight = 0\nseeds = 3 1 2\n")
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


# --- typed values ---


def test_bool_values():
    assert parse_config("normal_in_tracking = false").solver.normal_in_tracking is False
    assert parse_config("normal_in_tracking = true").solver.normal_in_tracking is True
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("normal_in_tracking = yes")


def test_seeds_parse_to_int_tuple():
    assert parse_config("seeds = 5").seeds == (5,)
    assert parse_config("seeds = 10 2 7").seeds == (10, 2, 7)


def test_int_keys_reject_fractions():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config("max_iterations = 2.5")


def test_float_keys_reject_words():
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("sigma_px = big")


# --- the key table ---

SECTION_OF = {
    SolverConfig: "solver",
    RobustLossConfig: "loss",
    SceneConfig: "scene",
    Intrinsics: "camera",
    RunConfig: "evaluation",
}


def test_every_settings_field_is_exactly_one_key():
    # a field typed as a settings class is a nested section; every other
    # field is a key of its class's section, and no two sections share a name
    nested = {cls.__name__ for cls in SECTION_OF}
    keys = [
        (f.name, (section, f.type))
        for cls, section in SECTION_OF.items()
        for f in dataclasses.fields(cls)
        if f.type not in nested
    ]
    assert len(dict(keys)) == len(keys) == 47
    assert dict(keys) == _KEYS
    assert set(_DOCS) == set(_KEYS)
    assert len(FLOAT_KEYS) == 31


def test_format_config_lists_sections_in_file_order():
    sections, placed = [], {}
    for line in format_config(RunConfig()).splitlines():
        if line.startswith("# "):
            sections.append(line[2:])
        elif line:
            placed[line.split(" = ")[0]] = sections[-1]
    assert sections == ["solver", "loss", "scene", "camera", "evaluation"]
    assert list(placed.items()) == [(name, sec) for name, (sec, _) in _KEYS.items()]


# --- errors ---


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"config:3: unknown key 'tpyo'"):
        parse_config("# header\nsigma_px = 1.0\ntpyo = 3\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match=r"duplicate key 'seed'"):
        parse_config("seed = 1\nseed = 2\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match=r"config:1: expected 'key = value'"):
        parse_config("sigma_px 1.0")


def test_empty_value():
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("sigma_px =")


def test_source_name_appears_in_errors(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("whatever = 1\n")
    with pytest.raises(ConfigError, match="broken.cfg:1"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_constructor_validation_becomes_config_error():
    # the offending key is named by the underlying constructor message
    with pytest.raises(ConfigError, match="outlier_rate"):
        parse_config("outlier_rate = 0.9")
    with pytest.raises(ConfigError, match="max_iterations"):
        parse_config("max_iterations = 0")
    with pytest.raises(ConfigError, match="trajectory_shape"):
        parse_config("trajectory_shape = zigzag")
    with pytest.raises(ConfigError, match="fx"):
        parse_config("fx = -10")
    with pytest.raises(ConfigError, match="cx must be finite"):
        parse_config("cx = nan")
    with pytest.raises(ConfigError, match=r"SceneConfig\.seed must be non-negative"):
        parse_config("seed = -1")


FLOAT_KEYS = [name for name, (_, kind) in _KEYS.items() if kind == "float"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_settings_are_config_errors(key, value):
    # a NaN slips past every ordered comparison and an infinite damping
    # ceiling lets the damping loop run forever: both are refused by name
    with pytest.raises(ConfigError, match=rf"\b{key} must be finite"):
        parse_config(f"{key} = {value}")


def test_run_level_validation():
    # RunConfig's own errors name the config file like every other
    # constructor error
    with pytest.raises(ConfigError, match=r"^c\.txt: rde_delta must be at least 1$"):
        parse_config("rde_delta = 0", source="c.txt")
    with pytest.raises(ConfigError, match="at least one"):
        RunConfig(seeds=())
    with pytest.raises(ConfigError, match=r"^c\.txt: seeds must be distinct$"):
        parse_config("seeds = 4 4", source="c.txt")
    with pytest.raises(ConfigError, match=r"^c\.txt: seeds must be non-negative$"):
        parse_config("seeds = -2 3", source="c.txt")
    with pytest.raises(ConfigError, match="seeds must be non-negative"):
        RunConfig(seeds=(-1,))


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)
