"""Experiment configuration: the resolved `ExperimentConfig`, its digest, and
parsing from JSON.

Every section (`noise`, `tracker`, `commander`, `camera`, `scene.generate`)
is read by `so3.fields_from_json`, so one rule, taken from the dataclass
field annotations, decides what a number means in any of them.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .camera import Intrinsics
from .commander import SET_BY_RUN, CommanderConfig
from .simworld import NoiseModel, SceneGenParams
from .so3 import fields_from_json
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


def _section(name: str, cls, value, exclude: tuple[str, ...] = ()):
    try:
        return fields_from_json(cls, value, exclude)
    except (TypeError, ValueError) as exc:
        raise ConfigError(name, str(exc)) from exc


def parse_config(data: dict, config_dir: str = ".") -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = data.get("schema_version")
    if version != 1:
        raise ConfigError("schema_version", f"expected 1, got {version!r}")
    if "seed" not in data or not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
        raise ConfigError("seed", "required integer")
    scene = data.get("scene")
    if not isinstance(scene, dict) or ("path" in scene) == ("generate" in scene):
        raise ConfigError("scene", "must contain exactly one of 'path' or 'generate'")
    scene_path = None
    scene_gen = None
    if "path" in scene:
        scene_path = os.path.join(config_dir, scene["path"]) if not os.path.isabs(scene["path"]) else scene["path"]
    else:
        scene_gen = _section("scene.generate", SceneGenParams, scene["generate"])

    sections = {}
    for name, cls, exclude in (
        ("noise", NoiseModel, ()),
        ("tracker", TrackerParams, ()),
        ("commander", CommanderConfig, SET_BY_RUN),
        ("camera", Intrinsics, ()),
    ):
        if name in data:
            sections[name] = _section(name, cls, data[name], exclude)

    return ExperimentConfig(
        seed=data["seed"],
        scene_path=scene_path,
        scene_gen=scene_gen,
        arm_count=_count(data, "arm_count", 1),
        step_budget=_count(data, "step_budget", 1500),
        viewpoints_per_flower=_count(data, "viewpoints_per_flower", 20),
        **sections,
    )


def _count(data: dict, name: str, default: int) -> int:
    value = data.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(name, "must be an integer >= 1")
    return value


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_config(data, config_dir=os.path.dirname(os.path.abspath(path)))
