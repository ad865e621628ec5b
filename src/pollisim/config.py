"""Experiment configuration: the resolved `ExperimentConfig`, its digest, and
parsing from JSON.

Every section (`noise`, `tracker`, `commander`, `camera`, `scene.generate`)
is read by `configfields.fields_from_json`, so one rule, taken from the
dataclass field annotations, decides what a number means in any of them. The
top level follows the same rule: its integers go through the same number
check, and a key that is not a config field is an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .camera import Intrinsics
from .commander import CommanderConfig
from .configfields import fields_from_json, json_number
from .simworld import NoiseModel, SceneGenParams
from .tracker import TrackerParams


class ConfigError(ValueError):
    """Configuration is invalid; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field = field_name


@dataclass(eq=False)
class ExperimentConfig:
    """Fully resolved experiment description; hashable to a config digest."""

    seed: int
    scene_path: str | None = None
    scene_gen: SceneGenParams | None = field(default_factory=SceneGenParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    tracker: TrackerParams | None = None
    commander: CommanderConfig = field(default_factory=CommanderConfig)
    camera: Intrinsics = field(default_factory=Intrinsics.default)
    arm_count: int = 1
    step_budget: int = 1500
    viewpoints_per_flower: int = 20

    def resolved_tracker(self) -> TrackerParams:
        return self.tracker if self.tracker is not None else TrackerParams.for_noise(self.noise)

    def to_json(self) -> dict:
        scene: dict = {}
        if self.scene_path is not None:
            scene["path"] = self.scene_path
        if self.scene_gen is not None:
            scene["generate"] = self.scene_gen.to_json()
        return {
            "schema_version": 1,
            "seed": self.seed,
            "scene": scene,
            "noise": self.noise.to_json(),
            "tracker": self.resolved_tracker().to_json(),
            "commander": self.commander.to_json(),
            "camera": self.camera.to_json(),
            "arm_count": self.arm_count,
            "step_budget": self.step_budget,
            "viewpoints_per_flower": self.viewpoints_per_flower,
        }


def config_digest(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _section(name: str, cls, value):
    try:
        return fields_from_json(cls, value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(name, str(exc)) from exc


_SECTIONS = (
    ("noise", NoiseModel),
    ("tracker", TrackerParams),
    ("commander", CommanderConfig),
    ("camera", Intrinsics),
)
_COUNTS = ("arm_count", "step_budget", "viewpoints_per_flower")
_TOP_LEVEL = ("schema_version", "seed", "scene", *(name for name, _ in _SECTIONS), *_COUNTS)


def _unknown_keys(prefix: str, d: dict, known) -> None:
    for key in d:
        if key not in known:
            raise ConfigError(prefix + key, "not a config field")


def _integer(name: str, value, least: int | None = None) -> int:
    """`value` as an int by the sections' rule (`25.0` reads as 25), at least `least`."""
    try:
        value = json_number(name, "int", value)
        if least is None or value >= least:
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(name, "required integer" if least is None else f"must be an integer >= {least}")


def parse_config(data: dict, config_dir: str = ".") -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = data.get("schema_version")
    if isinstance(version, bool) or version != 1:
        raise ConfigError("schema_version", f"expected 1, got {version!r}")
    _unknown_keys("", data, _TOP_LEVEL)
    seed = _integer("seed", data.get("seed"))
    scene = data.get("scene")
    if not isinstance(scene, dict) or ("path" in scene) == ("generate" in scene):
        raise ConfigError("scene", "must contain exactly one of 'path' or 'generate'")
    _unknown_keys("scene.", scene, ("path", "generate"))
    scene_path = None
    scene_gen = None
    if "path" in scene:
        if not isinstance(scene["path"], str):
            raise ConfigError("scene.path", "must be a string")
        scene_path = os.path.join(config_dir, scene["path"])  # an absolute path stays as it is
    else:
        scene_gen = _section("scene.generate", SceneGenParams, scene["generate"])

    # absent keys take the ExperimentConfig defaults
    given = {name: _section(name, cls, data[name]) for name, cls in _SECTIONS if name in data}
    given.update((name, _integer(name, data[name], 1)) for name in _COUNTS if name in data)
    return ExperimentConfig(seed=seed, scene_path=scene_path, scene_gen=scene_gen, **given)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_config(data, config_dir=os.path.dirname(os.path.abspath(path)))
