"""Experiment runner: configuration, the closed simulation loop (observe ->
ingest -> commander -> arm kinematics), the viewpoint-survey harness used for
filter-convergence studies, single-shot noise calibration, and offline
re-evaluation of written run artifacts.

Everything is deterministic given (config, seed): RNG streams are split per
purpose and per arm from the master seed, scheduling is round-robin, and all
output files are written with round-trippable float formatting.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .camera import Intrinsics, aim_pose
from .commander import (
    ArmState,
    CommanderConfig,
    Command,
    Done,
    Explore,
    Mode,
    MoveDelta,
    MoveTo,
    RoughLocalization,
    Searching,
    TriggerPollinate,
    VisualServo,
    check_pollination,
    step as commander_step,
)
from .metrics import AttemptRecord, RunLogs, RunReport, aggregate, report_csv_row, summary_table, REPORT_CSV_HEADER
from .simworld import (
    SURVEY_ELEVATION_RANGE,
    SURVEY_RADIUS_RANGE,
    FlowerGT,
    NoiseModel,
    generate_scene,
    load_scene,
    observe_with_truth,
    sample_viewpoint,
    save_scene,
    single_shot_stats,
)
from .so3 import (
    Pose,
    axis_angle_of,
    fields_from_json,
    fields_to_json,
    from_axis_angle,
    is_rotation,
    random_rotation,
    require_rotation,
    rotation_angle,
    svd_project,
    zaxis_angle,
)
from .tracker import GlobalState, Track, TrackerParams, ingest

log = logging.getLogger("pollisim")


class ConfigError(ValueError):
    """Configuration is invalid; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field = field_name


class SchemaMismatch(ValueError):
    """A run artifact does not match its expected schema."""


class NoConvergence(RuntimeError):
    """Noise calibration failed to reach its targets within the iteration cap."""


@dataclass(frozen=True)
class SceneGenParams:
    count: int = 20
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spread: float = 0.12
    min_sep: float = 0.10
    max_tilt_deg: float = 45.0

    def to_json(self) -> dict:
        return fields_to_json(self)


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


def _section(d: dict, name: str, builder, default):
    if name not in d:
        return default() if callable(default) else default
    try:
        return builder(d[name])
    except (TypeError, ValueError, KeyError) as exc:
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
        gen = scene["generate"]
        try:
            scene_gen = SceneGenParams(
                count=int(gen.get("count", 20)),
                center=tuple(float(x) for x in gen.get("center", (0.0, 0.0, 0.0))),
                spread=float(gen.get("spread", 0.12)),
                min_sep=float(gen.get("min_sep", 0.10)),
                max_tilt_deg=float(gen.get("max_tilt_deg", 45.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("scene.generate", str(exc)) from exc
        if scene_gen.count <= 0:
            raise ConfigError("scene.generate.count", "must be > 0")

    noise = _section(data, "noise", NoiseModel.from_json, NoiseModel)
    tracker = _section(data, "tracker", TrackerParams.from_json, None)
    camera = _section(data, "camera", Intrinsics.from_json, Intrinsics.default)

    cmdr = _section(data, "commander", lambda d: fields_from_json(CommanderConfig, d), CommanderConfig)

    arm_count = data.get("arm_count", 1)
    step_budget = data.get("step_budget", 1500)
    viewpoints = data.get("viewpoints_per_flower", 20)
    if not isinstance(arm_count, int) or arm_count < 1:
        raise ConfigError("arm_count", "must be an integer >= 1")
    if not isinstance(step_budget, int) or step_budget < 1:
        raise ConfigError("step_budget", "must be an integer >= 1")
    if not isinstance(viewpoints, int) or viewpoints < 1:
        raise ConfigError("viewpoints_per_flower", "must be an integer >= 1")

    return ExperimentConfig(
        seed=data["seed"],
        scene_path=scene_path,
        scene_gen=scene_gen,
        noise=noise,
        tracker=tracker,
        commander=cmdr,
        camera=camera,
        arm_count=arm_count,
        step_budget=step_budget,
        viewpoints_per_flower=viewpoints,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    return parse_config(data, config_dir=os.path.dirname(os.path.abspath(path)))


def reachable_flowers(scene: list[FlowerGT], center: np.ndarray, radius: float) -> list[int]:
    center = np.asarray(center, dtype=float)
    return [f.id for f in scene if float(np.linalg.norm(f.pose.position - center)) <= radius]


def _fmt(x: float) -> str:
    return repr(float(x))


_MODE_NAMES = {
    Searching: "searching",
    RoughLocalization: "rough_localization",
    VisualServo: "visual_servo",
    Done: "done",
}

_COMMAND_NAMES = {
    Explore: "explore",
    MoveTo: "move_to",
    MoveDelta: "move_delta",
    TriggerPollinate: "trigger_pollinate",
}

TRACKS_HEADER = "tick,track_id,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22,cov_trace,rot_cov,hits,pollinated"
COMMANDS_HEADER = "tick,arm_id,mode,command_kind,target_id,tip_x,tip_y,tip_z"
ATTEMPTS_HEADER = "tick,arm_id,track_id,flower_id,success"
SHOTS_HEADER = "tick,camera_id,flower_id,detected,px_err,trans_err_m,rot_err_deg"


def _reflect_into_sphere(pos: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    v = pos - center
    r = float(np.linalg.norm(v))
    if r <= radius or r <= 1e-12:
        return pos
    reflected = max(min(2.0 * radius - r, radius), 0.0)
    return center + v / r * reflected


def _rotate_toward(current: np.ndarray, target: np.ndarray, max_angle: float) -> np.ndarray:
    rel = target @ current.T
    angle = rotation_angle(rel)
    if angle <= 1e-12:
        return target
    if angle <= max_angle:
        return target
    axis, _ = axis_angle_of(rel)
    return from_axis_angle(axis, max_angle) @ current


def _apply_command(
    arm: ArmState,
    cmd: Command,
    cfg: CommanderConfig,
    scene: list[FlowerGT],
    tick: int,
    attempts: list[AttemptRecord],
) -> None:
    center = np.asarray(cfg.workspace_center, dtype=float)
    tip = arm.tip_pose
    if isinstance(cmd, Explore):
        direction = np.asarray(cmd.direction, dtype=float)
        new_pos = _reflect_into_sphere(tip.position + cfg.max_step * direction, center, cfg.workspace_radius)
        # Keep the eye-in-hand camera on the cluster while wandering.
        arm.tip_pose = aim_pose(new_pos, center) if np.linalg.norm(new_pos - center) > 1e-9 else Pose(new_pos, tip.rotation)
    elif isinstance(cmd, MoveTo):
        d = cmd.pose.position - tip.position
        n = float(np.linalg.norm(d))
        new_pos = cmd.pose.position if n <= cfg.max_step else tip.position + d / n * cfg.max_step
        new_rot = _rotate_toward(tip.rotation, cmd.pose.rotation, math.radians(cfg.max_rot_step_deg))
        arm.tip_pose = Pose(new_pos, new_rot)
    elif isinstance(cmd, MoveDelta):
        if float(np.linalg.norm(cmd.dpos)) > cfg.max_step + 1e-9:
            raise AssertionError("commander issued MoveDelta exceeding max_step")
        # Re-orthonormalize: thousands of incremental updates otherwise drift
        # the tip frame off the manifold.
        arm.tip_pose = Pose(tip.position + cmd.dpos, svd_project(cmd.drot @ tip.rotation))
    elif isinstance(cmd, TriggerPollinate):
        flower = min(scene, key=lambda f: float(np.linalg.norm(f.pose.position - tip.position)))
        success = (not flower.pollinated) and check_pollination(tip, flower, cfg.eps_pos, cfg.eps_ang)
        if success:
            flower.pollinated = True
        attempts.append(AttemptRecord(tick, cfg.arm_id, cmd.track_id, flower.id, success))
    else:  # pragma: no cover - exhaustive over Command
        raise TypeError(f"unknown command {cmd!r}")


def _arm_homes(center: np.ndarray, radius: float, n: int) -> list[np.ndarray]:
    homes = []
    r = 0.7 * radius
    elev = math.radians(35.0)
    for i in range(n):
        a = 2.0 * math.pi * i / n
        homes.append(
            center + r * np.array([math.cos(elev) * math.cos(a), math.cos(elev) * math.sin(a), math.sin(elev)])
        )
    return homes


@dataclass(eq=False)
class RunArtifacts:
    """In-memory row buffers; flushed to disk only after a successful run."""

    tracks_rows: list[str] = field(default_factory=list)
    commands_rows: list[str] = field(default_factory=list)
    attempts_rows: list[str] = field(default_factory=list)
    shots_rows: list[str] = field(default_factory=list)


def simulate_run(
    cfg: ExperimentConfig, out_dir: str | None = None, validate_rotations: bool = False
) -> RunReport:
    """Run the full pollination loop and (optionally) write run artifacts.

    One tick processes each arm in round-robin order: observe from its
    eye-in-hand camera, fold the batch into the global state, step the
    commander, apply the resulting command to the idealized arm. Ends early
    once every arm reports Done. With validate_rotations, every track's
    rotation mean is checked against the SO(3) invariants after every ingest
    and a violation raises immediately.
    """
    digest = config_digest(cfg)
    rng_scene = np.random.default_rng([cfg.seed, 0])
    if cfg.scene_path is not None:
        scene = load_scene(cfg.scene_path)
    else:
        g = cfg.scene_gen
        scene = generate_scene(
            rng_scene, g.count, np.asarray(g.center), g.spread, g.min_sep, g.max_tilt_deg
        )
    if not scene:
        raise ConfigError("scene", "scene contains no flowers")
    tparams = cfg.resolved_tracker()
    base_cmdr = replace(cfg.commander, tracker=tparams)
    center = np.asarray(base_cmdr.workspace_center, dtype=float)

    gs = GlobalState()
    homes = _arm_homes(center, base_cmdr.workspace_radius, cfg.arm_count)
    arms = [ArmState(tip_pose=aim_pose(h, center)) for h in homes]
    modes: list[Mode] = [Searching() for _ in range(cfg.arm_count)]
    arm_cfgs = [replace(base_cmdr, arm_id=i) for i in range(cfg.arm_count)]
    cam_rngs = [np.random.default_rng([cfg.seed, 1, i]) for i in range(cfg.arm_count)]
    cmd_rngs = [np.random.default_rng([cfg.seed, 2, i]) for i in range(cfg.arm_count)]

    art = RunArtifacts()
    attempts: list[AttemptRecord] = []
    shot_opportunities = 0
    shot_px: list[float] = []
    shot_trans: list[float] = []
    shot_rot: list[float] = []

    n_ticks = 0
    for tick in range(cfg.step_budget):
        n_ticks = tick + 1
        for i in range(cfg.arm_count):
            ms, recs = observe_with_truth(
                scene, arms[i].camera, cfg.camera, cfg.noise, cam_rngs[i], camera_id=i, tick=tick
            )
            for rec in recs:
                if rec.flower_id >= 0:
                    shot_opportunities += 1
                    if rec.detected:
                        shot_px.append(rec.px_err)
                        shot_trans.append(rec.trans_err)
                        shot_rot.append(rec.rot_err_deg)
                art.shots_rows.append(
                    f"{tick},{i},{rec.flower_id},{int(rec.detected)},"
                    f"{_fmt(rec.px_err)},{_fmt(rec.trans_err)},{_fmt(rec.rot_err_deg)}"
                )
            gs = ingest(gs, ms, tparams)
            if validate_rotations:
                for t in gs.tracks:
                    if not is_rotation(t.rot_mean, tol=1e-9):
                        raise AssertionError(f"track {t.id} rotation left SO(3) at tick {tick}")
            cmd, modes[i] = commander_step(modes[i], gs, arms[i], arm_cfgs[i], cmd_rngs[i])
            n_attempt_before = len(attempts)
            _apply_command(arms[i], cmd, arm_cfgs[i], scene, tick, attempts)
            for a in attempts[n_attempt_before:]:
                art.attempts_rows.append(f"{a.tick},{a.arm_id},{a.track_id},{a.flower_id},{int(a.success)}")
            target_id = getattr(cmd, "track_id", getattr(modes[i], "target_id", -1))
            tip = arms[i].tip_pose
            art.commands_rows.append(
                f"{tick},{i},{_MODE_NAMES[type(modes[i])]},{_COMMAND_NAMES[type(cmd)]},"
                f"{target_id if isinstance(target_id, int) else -1},"
                f"{_fmt(tip.position[0])},{_fmt(tip.position[1])},{_fmt(tip.position[2])}"
            )
        for t in gs.tracks:
            r = t.rot_mean.reshape(9)
            art.tracks_rows.append(
                f"{tick},{t.id},{_fmt(t.pos_mean[0])},{_fmt(t.pos_mean[1])},{_fmt(t.pos_mean[2])},"
                + ",".join(_fmt(v) for v in r)
                + f",{_fmt(np.trace(t.pos_cov))},{_fmt(t.rot_cov)},{t.hits},{int(t.pollinated)}"
            )
        if all(isinstance(m, Done) for m in modes):
            log.info("all arms done at tick %d", tick)
            break

    logs = RunLogs(
        scene=scene,
        final_tracks=list(gs.tracks),
        n_ticks=n_ticks,
        shot_opportunities=shot_opportunities,
        shot_px_errors=shot_px,
        shot_trans_errors=shot_trans,
        shot_rot_errors=shot_rot,
        attempts=attempts,
        reachable_ids=reachable_flowers(scene, center, base_cmdr.workspace_radius),
        seed=cfg.seed,
        config_digest=digest,
    )
    report = aggregate(logs)
    if out_dir is not None:
        _write_artifacts(out_dir, cfg, scene, art, report, n_ticks)
    return report


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_artifacts(
    out_dir: str,
    cfg: ExperimentConfig,
    scene: list[FlowerGT],
    art: RunArtifacts,
    report: RunReport,
    n_ticks: int,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "tracks.csv"), TRACKS_HEADER, art.tracks_rows)
    _write_csv(os.path.join(out_dir, "commands.csv"), COMMANDS_HEADER, art.commands_rows)
    _write_csv(os.path.join(out_dir, "attempts.csv"), ATTEMPTS_HEADER, art.attempts_rows)
    _write_csv(os.path.join(out_dir, "shots.csv"), SHOTS_HEADER, art.shots_rows)
    save_scene(os.path.join(out_dir, "scene.json"), scene)
    meta = {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_digest": report.config_digest,
        "n_ticks": n_ticks,
        "workspace_center": list(cfg.commander.workspace_center),
        "workspace_radius": cfg.commander.workspace_radius,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "config_resolved.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_CSV_HEADER + "\n")
        fh.write(report_csv_row(report) + "\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_table(report))


def _read_csv(path: str, header: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaMismatch(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise SchemaMismatch(f"{path}: header mismatch (expected {header!r})")
    n_cols = len(header.split(","))
    rows = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise SchemaMismatch(f"{path}: row {idx} has {len(parts)} fields, expected {n_cols}")
        rows.append(parts)
    return rows


def _parse_float(path: str, row_idx: int, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise SchemaMismatch(f"{path}: row {row_idx}: bad float {value!r}") from exc


def evaluate_run_dir(out_dir: str, scene_path: str | None = None, tracks_path: str | None = None) -> RunReport:
    """Recompute a RunReport from written artifacts.

    Reads tracks.csv, shots.csv, attempts.csv, scene.json, and meta.json from
    the run directory; the result is byte-identical to the report the
    simulation emitted because the CSV floats round-trip exactly.
    """
    tracks_path = tracks_path or os.path.join(out_dir, "tracks.csv")
    scene_path = scene_path or os.path.join(out_dir, "scene.json")
    meta_path = os.path.join(out_dir, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise SchemaMismatch(f"cannot read {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{meta_path}: invalid JSON ({exc.msg})") from exc

    scene = load_scene(scene_path)

    track_rows = _read_csv(tracks_path, TRACKS_HEADER)
    final_tracks: list[Track] = []
    if track_rows:
        last_tick = max(int(r[0]) for r in track_rows)
        for idx, r in enumerate(track_rows, start=2):
            if int(r[0]) != last_tick:
                continue
            vals = [_parse_float(tracks_path, idx, v) for v in r[2:16]]
            rot = require_rotation(np.array(vals[3:12]).reshape(3, 3), tol=1e-8)
            cov_trace = vals[12]
            final_tracks.append(
                Track(
                    id=int(r[1]),
                    pos_mean=np.array(vals[0:3]),
                    pos_cov=np.eye(3) * cov_trace / 3.0,
                    rot_mean=rot,
                    rot_cov=vals[13],
                    hits=int(r[16]),
                    last_tick=last_tick,
                    pollinated=bool(int(r[17])),
                )
            )

    shots_path = os.path.join(out_dir, "shots.csv")
    shot_rows = _read_csv(shots_path, SHOTS_HEADER)
    opportunities = 0
    px_errors: list[float] = []
    trans_errors: list[float] = []
    rot_errors: list[float] = []
    for idx, r in enumerate(shot_rows, start=2):
        flower_id = int(r[2])
        if flower_id < 0:
            continue
        opportunities += 1
        if int(r[3]):
            px_errors.append(_parse_float(shots_path, idx, r[4]))
            trans_errors.append(_parse_float(shots_path, idx, r[5]))
            rot_errors.append(_parse_float(shots_path, idx, r[6]))

    attempts_path = os.path.join(out_dir, "attempts.csv")
    attempt_rows = _read_csv(attempts_path, ATTEMPTS_HEADER)
    attempts = [
        AttemptRecord(int(r[0]), int(r[1]), int(r[2]), int(r[3]), bool(int(r[4])))
        for r in attempt_rows
    ]

    logs = RunLogs(
        scene=scene,
        final_tracks=final_tracks,
        n_ticks=int(meta["n_ticks"]),
        shot_opportunities=opportunities,
        shot_px_errors=px_errors,
        shot_trans_errors=trans_errors,
        shot_rot_errors=rot_errors,
        attempts=attempts,
        reachable_ids=reachable_flowers(
            scene, np.asarray(meta["workspace_center"], dtype=float), float(meta["workspace_radius"])
        ),
        seed=int(meta["seed"]),
        config_digest=str(meta["config_digest"]),
    )
    return aggregate(logs)


@dataclass(eq=False)
class SurveyTrial:
    """One filter-convergence trial: single-shot stats plus the fused result."""

    single_trans: list[float]
    single_rot: list[float]
    opportunities: int
    detections_within_px: int
    final_trans: float | None
    final_rot: float | None
    rotation_violations: int


def survey_run(
    noise: NoiseModel,
    tparams: TrackerParams,
    k: Intrinsics,
    n_views: int,
    seed: int,
    radius_range: tuple[float, float] = SURVEY_RADIUS_RANGE,
    elevation_range: tuple[float, float] = SURVEY_ELEVATION_RANGE,
    match_threshold: float = 0.08,
) -> SurveyTrial:
    """Observe one randomly oriented flower from n_views sampled viewpoints,
    fusing every batch, and report single-shot vs fused errors.
    """
    rng = np.random.default_rng([seed, 10])
    flower = FlowerGT(id=0, pose=Pose(np.zeros(3), random_rotation(rng)))
    gs = GlobalState()
    single_trans: list[float] = []
    single_rot: list[float] = []
    opportunities = 0
    within_px = 0
    violations = 0
    for tick in range(n_views):
        cam = sample_viewpoint(rng, flower.pose.position, radius_range, elevation_range)
        ms, recs = observe_with_truth([flower], cam, k, noise, rng, camera_id=0, tick=tick)
        for rec in recs:
            if rec.flower_id != 0:
                continue
            opportunities += 1
            if rec.detected:
                single_trans.append(rec.trans_err)
                single_rot.append(rec.rot_err_deg)
                if rec.px_err <= 20.0:
                    within_px += 1
        gs = ingest(gs, ms, tparams)
        for t in gs.tracks:
            if not is_rotation(t.rot_mean, tol=1e-9):
                violations += 1
    best: Track | None = None
    best_d = match_threshold
    for t in gs.tracks:
        d = float(np.linalg.norm(t.pos_mean - flower.pose.position))
        if d <= best_d:
            best, best_d = t, d
    if best is None:
        return SurveyTrial(single_trans, single_rot, opportunities, within_px, None, None, violations)
    return SurveyTrial(
        single_trans,
        single_rot,
        opportunities,
        within_px,
        final_trans=best_d,
        final_rot=zaxis_angle(best.rot_mean, flower.pose.rotation),
        rotation_violations=violations,
    )


# Calibration: bisection per knob with common random numbers so each empirical
# statistic is a smooth monotone function of its parameter.
_CAL_RNG_TAG = 7


def _stat_for(noise: NoiseModel, k: Intrinsics, n_samples: int, seed: int) -> "tuple[float, float, float]":
    rng = np.random.default_rng([seed, _CAL_RNG_TAG])
    s = single_shot_stats(noise, k, n_samples, rng)
    return s.mean_trans, s.mean_rot, s.detection_rate


def _bisect(eval_fn, target: float, lo: float, hi: float, rel_tol: float, max_iter: int, label: str) -> float:
    """Find x with eval_fn(x) ~= target, assuming eval_fn is increasing."""
    val_hi = eval_fn(hi)
    iters = 0
    while val_hi < target and iters < max_iter:
        hi *= 2.0
        val_hi = eval_fn(hi)
        iters += 1
    if val_hi < target:
        raise NoConvergence(f"{label}: upper bound never reaches target {target}")
    x = hi
    for _ in range(max_iter - iters):
        x = 0.5 * (lo + hi)
        v = eval_fn(x)
        if abs(v - target) <= rel_tol * abs(target):
            return x
        if v < target:
            lo = x
        else:
            hi = x
    raise NoConvergence(f"{label}: no convergence within {max_iter} iterations")


DEPTH_FAR_RATIO = 20.0


def calibrate_noise(
    targets: dict,
    seed: int = 0,
    n_samples: int = 10000,
    rel_tol: float = 0.05,
    max_iter: int = 100,
    k: Intrinsics | None = None,
    base: NoiseModel | None = None,
) -> NoiseModel:
    """Tune detect_prob, rot_sigma and the depth sigmas so the empirical
    single-shot means over n_samples viewpoints match the targets within
    rel_tol. targets keys: trans_cm, rot_deg, det_rate.

    The far-band depth sigma is held at DEPTH_FAR_RATIO times the near-band
    sigma, so zero targets yield exactly zero noise. pixel_sigma is taken
    from `base` and not searched: its contribution to translational error is
    dominated by depth noise at survey ranges.
    """
    for key in ("trans_cm", "rot_deg", "det_rate"):
        if key not in targets:
            raise ValueError(f"targets missing '{key}'")
        if targets[key] < 0:
            raise ValueError(f"target '{key}' must be >= 0")
    k = k or Intrinsics.default()
    noise = base or NoiseModel()
    trans_target = float(targets["trans_cm"]) / 100.0
    rot_target = float(targets["rot_deg"])
    det_target = float(targets["det_rate"])
    # Inner searches run tighter than the joint verification so boundary hits
    # survive the re-evaluation with all knobs in place.
    inner_tol = 0.4 * rel_tol

    # detect_prob first: skipped detections change the downstream RNG draw
    # alignment, so the other statistics are bisected against the final one.
    if det_target >= 1.0:
        noise = replace(noise, detect_prob=1.0)
    else:
        def det_stat(x: float) -> float:
            return _stat_for(replace(noise, detect_prob=x), k, n_samples, seed)[2]

        hi_rate = det_stat(1.0)
        if hi_rate < det_target:
            raise NoConvergence("det_rate: unreachable even with detect_prob=1 (pixel tail)")
        noise = replace(noise, detect_prob=_bisect(det_stat, det_target, 0.0, 1.0, inner_tol, max_iter, "detect_prob"))

    if rot_target == 0.0:
        noise = replace(noise, rot_sigma=0.0)
    else:
        def rot_stat(x: float) -> float:
            return _stat_for(replace(noise, rot_sigma=x), k, n_samples, seed)[1]

        noise = replace(noise, rot_sigma=_bisect(rot_stat, rot_target, 0.0, 60.0, inner_tol, max_iter, "rot_sigma"))

    if trans_target == 0.0:
        noise = replace(noise, pixel_sigma=0.0, depth_sigma_near=0.0, depth_sigma_far=0.0)
    else:
        def trans_stat(x: float) -> float:
            trial = replace(noise, depth_sigma_near=x, depth_sigma_far=DEPTH_FAR_RATIO * x)
            return _stat_for(trial, k, n_samples, seed)[0]

        near = _bisect(trans_stat, trans_target, 0.0, 0.01, inner_tol, max_iter, "depth_sigma_near")
        noise = replace(noise, depth_sigma_near=near, depth_sigma_far=DEPTH_FAR_RATIO * near)

    trans, rot, det = _stat_for(noise, k, n_samples, seed)
    checks = []
    if trans_target > 0:
        checks.append(abs(trans - trans_target) <= rel_tol * trans_target)
    if rot_target > 0:
        checks.append(abs(rot - rot_target) <= rel_tol * rot_target)
    if det_target > 0:
        checks.append(abs(det - det_target) <= rel_tol * det_target)
    if not all(checks):
        raise NoConvergence(
            f"final verification failed: got trans={trans:.4f} m, rot={rot:.2f} deg, det={det:.4f}"
        )
    log.info("calibrated noise: %s", noise.to_json())
    return noise
