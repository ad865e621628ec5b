"""Experiment runner: the closed simulation loop (observe -> ingest ->
commander -> arm kinematics), offline re-evaluation of a run directory, the
viewpoint-survey harness used for filter-convergence studies, and single-shot
noise calibration.

Everything is deterministic given (config, seed): RNG streams are split per
purpose and per arm from the master seed, and scheduling is round-robin.
Config parsing lives in `config`, the run directory's format in `artifacts`.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

# perfbench/benchtrace.py times the writer by patching runner._write_artifacts.
from .artifacts import read_run_logs, write_artifacts as _write_artifacts
from .camera import Intrinsics, aim_pose
from .commander import (
    ArmState,
    Command,
    CommanderConfig,
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
from .config import ConfigError, ExperimentConfig, config_digest
from .metrics import (
    AttemptRecord,
    RunLogs,
    RunReport,
    aggregate,
    match_tracks_to_flowers,
    pose_error,
    reachable_flowers,
)
from .simworld import (
    MAX_LENGTH,
    MAX_ROT_SIGMA,
    SURVEY_ELEVATION_RANGE,
    SURVEY_RADIUS_RANGE,
    FlowerGT,
    NoiseModel,
    SampleDraws,
    SceneGenParams,  # re-exported: perfbench and the acceptance tests import it from runner
    ShotRecord,
    SingleShotStats,
    draw_samples,
    generate_scene,
    load_scene,
    observe_with_truth,
    sample_viewpoint,
    single_shot_stats,
)
from .so3 import (
    Pose,
    axis_angle_of,
    from_axis_angle,
    is_rotation,
    random_rotation,
    rotation_angle,
    svd_project,
)
from .tracker import GlobalState, Track, TrackerParams, ingest

log = logging.getLogger("pollisim")

# The layers whose seconds simulate_run logs at INFO once a run ends; the rest
# of its wall time is the residual.
RUN_LAYERS = ("oracle", "ingest", "audit", "commander", "arm", "writer")
_LAYER_LOG = "layer seconds: " + ", ".join(f"{name} %.6f" for name in RUN_LAYERS) + ", residual %.6f, wall %.6f"


class NoConvergence(RuntimeError):
    """Noise calibration failed to reach its targets within the iteration cap."""


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
        attempts.append(AttemptRecord(tick, arm.arm_id, cmd.track_id, flower.id, success))
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


def _failed_rotation_audit(tracks: dict[int, Track], verdicts: dict[int, tuple[bytes, bool]]) -> list[int]:
    """Ids of the tracks whose rotation mean fails the SO(3) audit.

    `verdicts` maps a track id to the bytes of the rot_mean last audited and
    its verdict. A verdict depends only on those bytes, so a track whose mean
    still has them keeps its verdict, however the mean was changed.
    """
    failed = []
    for tid, t in tracks.items():
        key = t.rot_mean.tobytes()
        seen = verdicts.get(tid)
        if seen is None or seen[0] != key:
            seen = verdicts[tid] = (key, is_rotation(t.rot_mean, tol=1e-9))
        if not seen[1]:
            failed.append(tid)
    return failed


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

    Logs one INFO line with the seconds spent in each of RUN_LAYERS, the
    residual and the wall time of the whole call.
    """
    clock = time.perf_counter
    start = clock()
    spent = dict.fromkeys(RUN_LAYERS, 0.0)
    digest = config_digest(cfg)
    rng_scene = np.random.default_rng([cfg.seed, 0])
    if cfg.scene_path is not None:
        scene = load_scene(cfg.scene_path)
    else:
        scene = generate_scene(rng_scene, cfg.scene_gen)
    if not scene:
        raise ConfigError("scene", "scene contains no flowers")
    tparams = cfg.resolved_tracker()
    cmdr = cfg.commander
    center = np.asarray(cmdr.workspace_center, dtype=float)

    gs = GlobalState()
    homes = _arm_homes(center, cmdr.workspace_radius, cfg.arm_count)
    arms = [ArmState(tip_pose=aim_pose(h, center), arm_id=i) for i, h in enumerate(homes)]
    modes: list[Mode] = [Searching() for _ in range(cfg.arm_count)]
    cam_rngs = [np.random.default_rng([cfg.seed, 1, i]) for i in range(cfg.arm_count)]
    cmd_rngs = [np.random.default_rng([cfg.seed, 2, i]) for i in range(cfg.arm_count)]

    attempts: list[AttemptRecord] = []
    shots: list[ShotRecord] = []
    # (tick, arm_id, mode type, command type, target id, tip position)
    commands: list[tuple] = []

    verdicts: dict[int, tuple[bytes, bool]] = {}
    n_ticks = 0
    for tick in range(cfg.step_budget):
        n_ticks = tick + 1
        for i in range(cfg.arm_count):
            t0 = clock()
            ms, recs = observe_with_truth(
                scene, arms[i].camera, cfg.camera, cfg.noise, cam_rngs[i], camera_id=i, tick=tick
            )
            t1 = clock()
            gs = ingest(gs, ms, tparams)
            t2 = clock()
            spent["oracle"] += t1 - t0
            spent["ingest"] += t2 - t1
            shots.extend(recs)
            if validate_rotations:
                failed = _failed_rotation_audit(gs.tracks, verdicts)
                spent["audit"] += clock() - t2
                if failed:
                    raise AssertionError(f"track {failed[0]} rotation left SO(3) at tick {tick}")
            # The other arms' approach targets, as their modes stand now: an
            # arm that stepped earlier this tick has its new target here.
            taken = {
                m.target_id for j, m in enumerate(modes)
                if j != i and isinstance(m, (RoughLocalization, VisualServo))
            }
            t0 = clock()
            cmd, modes[i] = commander_step(modes[i], gs, arms[i], cmdr, tparams, cmd_rngs[i], taken)
            t1 = clock()
            _apply_command(arms[i], cmd, cmdr, scene, tick, attempts)
            t2 = clock()
            spent["commander"] += t1 - t0
            spent["arm"] += t2 - t1
            target_id = getattr(cmd, "track_id", getattr(modes[i], "target_id", -1))
            commands.append((tick, i, type(modes[i]), type(cmd), target_id, arms[i].tip_pose.position))
        if all(isinstance(m, Done) for m in modes):
            log.info("all arms done at tick %d", tick)
            break

    tally = SingleShotStats()
    tally.add(shots)
    logs = RunLogs(
        scene=scene,
        final_tracks=gs.tracks,
        n_ticks=n_ticks,
        shots=tally,
        attempts=attempts,
        reachable_ids=reachable_flowers(scene, center, cmdr.workspace_radius),
        seed=cfg.seed,
        config_digest=digest,
    )
    report = aggregate(logs)
    if out_dir is not None:
        t0 = clock()
        _write_artifacts(out_dir, cfg, logs, shots, commands, report)
        spent["writer"] += clock() - t0
    wall = clock() - start
    log.info(_LAYER_LOG, *spent.values(), wall - sum(spent.values()), wall)
    return report


def evaluate_run_dir(out_dir: str) -> RunReport:
    """Recompute a RunReport from a run directory written by simulate_run;
    the result is byte-identical to the report the simulation emitted."""
    return aggregate(read_run_logs(out_dir))


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


def survey_run(noise: NoiseModel, tparams: TrackerParams, k: Intrinsics, n_views: int, seed: int) -> SurveyTrial:
    """Observe one randomly oriented flower from n_views sampled viewpoints,
    fusing every batch, and report single-shot vs fused errors.
    """
    rng = np.random.default_rng([seed, 10])
    flower = FlowerGT(id=0, pose=Pose(np.zeros(3), random_rotation(rng)))
    gs = GlobalState()
    shots = SingleShotStats()
    violations = 0
    verdicts: dict[int, tuple[bytes, bool]] = {}
    for tick in range(n_views):
        cam = sample_viewpoint(rng, flower.pose.position, SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE)
        ms, recs = observe_with_truth([flower], cam, k, noise, rng, camera_id=0, tick=tick)
        shots.add(recs)
        gs = ingest(gs, ms, tparams)
        violations += len(_failed_rotation_audit(gs.tracks, verdicts))
    final_trans = final_rot = None
    matches = match_tracks_to_flowers(gs.tracks, [flower])
    if matches:
        best = gs.tracks[matches[flower.id]]
        err = pose_error(Pose(best.pos_mean, best.rot_mean), flower.pose)
        final_trans, final_rot = err.trans_err, err.rot_err
    return SurveyTrial(
        shots.trans_errors, shots.rot_errors, shots.opportunities, shots.detections_within_px,
        final_trans, final_rot, violations,
    )


# Calibration: bisection per knob. Every evaluation tallies the samples of one
# stream from the same seed; which draws that stream makes depends on
# detect_prob alone, so they are taken once per detect_prob (draw_samples).
# The statistics are not smooth or monotone in a knob: a sample draws its view
# and its observation from that one stream and a missed detection skips draws,
# so one detection flip shifts every later sample's view and noise.
_CAL_RNG_TAG = 7
# The relative tolerance of calibration's final check. The bisections run
# tighter, so that boundary hits survive the re-evaluation with all knobs in
# place, and each takes at most CAL_MAX_ITER steps.
CAL_REL_TOL = 0.05
CAL_INNER_TOL = 0.4 * CAL_REL_TOL
CAL_MAX_ITER = 100


def _verdict(v: float, target: float, tol: float) -> int:
    """How _bisect reads a value: 0 within tol of target, else -1 below it
    or 1 above it (NaN reads as above)."""
    if abs(v - target) <= tol:
        return 0
    return -1 if v < target else 1


def _bisect(eval_fn, target: float, lo: float, hi: float, top: float, label: str) -> float:
    """Find x in [lo, top] with eval_fn(x) within CAL_INNER_TOL of target,
    assuming eval_fn is increasing. hi doubles until eval_fn reaches the
    target, but never past top, the searched field's bound."""
    tol = CAL_INNER_TOL * abs(target)
    val_hi = eval_fn(hi)
    iters = 0
    while val_hi < target and hi < top and iters < CAL_MAX_ITER:
        hi = min(2.0 * hi, top)
        val_hi = eval_fn(hi)
        iters += 1
    if val_hi < target:
        raise NoConvergence(f"{label}: upper bound never reaches target {target}")
    x = hi
    for _ in range(CAL_MAX_ITER - iters):
        x = 0.5 * (lo + hi)
        verdict = _verdict(eval_fn(x), target, tol)
        if verdict == 0:
            return x
        if verdict < 0:
            lo = x
        else:
            hi = x
    raise NoConvergence(f"{label}: no convergence within {CAL_MAX_ITER} iterations")


DEPTH_FAR_RATIO = 20.0


def calibrate_noise(
    targets: dict,
    seed: int = 0,
    n_samples: int = 10000,
    k: Intrinsics | None = None,
) -> NoiseModel:
    """Tune detect_prob, rot_sigma and the depth sigmas so the empirical
    single-shot means over n_samples viewpoints match the targets within
    CAL_REL_TOL. targets keys: trans_cm, rot_deg, det_rate.

    The far-band depth sigma is held at DEPTH_FAR_RATIO times the near-band
    sigma, so zero targets yield exactly zero noise. pixel_sigma keeps its
    NoiseModel default and is not searched: its contribution to translational
    error is dominated by depth noise at survey ranges.

    Every evaluation is one single_shot_stats call over the samples of one
    stream, restarted from the same seed. Which draws that stream makes
    depends on detect_prob alone, so the samples of a detect_prob are drawn
    once (draw_samples), and every model with it is tallied on those draws
    as arrays, with the oracle's bits. The draws of the last detect_prob are
    held, 256 bytes a sample. A model's statistics depend on the model
    alone, so each model is evaluated once.

    A det_rate of 0 or 1 sets detect_prob to it without a search. A zero
    det_rate with a nonzero trans_cm or rot_deg raises ConfigError: without
    a detection there is no error to fit. So does a rot_deg above 180, the
    largest facing error. Each search stays inside its field's bound, and a
    target that the bound does not reach raises NoConvergence.
    """
    for key in ("trans_cm", "rot_deg", "det_rate"):
        if key not in targets:
            raise ConfigError(f"targets.{key}", "missing")
        if not (math.isfinite(targets[key]) and targets[key] >= 0):
            raise ConfigError(f"targets.{key}", "must be a finite number >= 0")
    if targets["rot_deg"] > 180:
        raise ConfigError("targets.rot_deg", "must be <= 180: a facing error lies in [0, 180] degrees")
    if targets["det_rate"] > 1:
        raise ConfigError("targets.det_rate", "must be <= 1")
    if targets["det_rate"] == 0 and (targets["trans_cm"] > 0 or targets["rot_deg"] > 0):
        raise ConfigError("targets.det_rate", "must be > 0 when trans_cm or rot_deg is: no detection, no error to fit")
    if n_samples < 1:
        raise ConfigError("n_samples", "must be >= 1")
    k = k or Intrinsics.default()
    noise = NoiseModel()
    trans_target = float(targets["trans_cm"]) / 100.0
    rot_target = float(targets["rot_deg"])
    det_target = float(targets["det_rate"])
    draws: dict[float, SampleDraws] = {}  # the last detect_prob's only
    memo: dict[NoiseModel, tuple[float, float, float]] = {}

    def stat(model: NoiseModel) -> tuple[float, float, float]:
        if model not in memo:
            if model.detect_prob not in draws:
                draws.clear()
                rng = np.random.default_rng([seed, _CAL_RNG_TAG])
                draws[model.detect_prob] = draw_samples(model.detect_prob, k, n_samples, rng)
            s = single_shot_stats(model, k, n_samples, draws[model.detect_prob])
            memo[model] = s.mean_trans, s.mean_rot, s.detection_rate
        return memo[model]

    # detect_prob first: skipped detections change the downstream RNG draw
    # alignment, so the other statistics are bisected against the final one.
    if det_target in (0.0, 1.0):
        noise = replace(noise, detect_prob=det_target)
    else:
        def det_stat(x: float) -> float:
            return stat(replace(noise, detect_prob=x))[2]

        hi_rate = det_stat(1.0)
        if hi_rate < det_target:
            raise NoConvergence("det_rate: unreachable even with detect_prob=1 (pixel tail)")
        noise = replace(noise, detect_prob=_bisect(det_stat, det_target, 0.0, 1.0, 1.0, "detect_prob"))

    if rot_target == 0.0:
        noise = replace(noise, rot_sigma=0.0)
    else:
        def rot_stat(x: float) -> float:
            return stat(replace(noise, rot_sigma=x))[1]

        noise = replace(noise, rot_sigma=_bisect(rot_stat, rot_target, 0.0, 60.0, MAX_ROT_SIGMA, "rot_sigma"))

    if trans_target == 0.0:
        noise = replace(noise, pixel_sigma=0.0, depth_sigma_near=0.0, depth_sigma_far=0.0)
    else:
        def trans_stat(x: float) -> float:
            trial = replace(noise, depth_sigma_near=x, depth_sigma_far=DEPTH_FAR_RATIO * x)
            return stat(trial)[0]

        # far = DEPTH_FAR_RATIO * near must stay inside its bound too
        near = _bisect(trans_stat, trans_target, 0.0, 0.01, MAX_LENGTH / DEPTH_FAR_RATIO, "depth_sigma_near")
        noise = replace(noise, depth_sigma_near=near, depth_sigma_far=DEPTH_FAR_RATIO * near)

    trans, rot, det = stat(noise)
    checks = []
    if trans_target > 0:
        checks.append(abs(trans - trans_target) <= CAL_REL_TOL * trans_target)
    if rot_target > 0:
        checks.append(abs(rot - rot_target) <= CAL_REL_TOL * rot_target)
    if det_target > 0:
        checks.append(abs(det - det_target) <= CAL_REL_TOL * det_target)
    if not all(checks):
        raise NoConvergence(
            f"final verification failed: got trans={trans:.4f} m, rot={rot:.2f} deg, det={det:.4f}"
        )
    log.info("calibrated noise: %s", noise.to_json())
    return noise
