"""Mission state machine for one simulated arm: explore the workspace, rough-
localize to a confident flower track, visually servo onto it, and trigger
pollination.

Mode graph: Searching -> RoughLocalization -> VisualServo -> (trigger) ->
Searching -> ... -> Done, plus a lost-target edge from either approach mode
back to Searching. Modes are immutable values; `step` returns the command to
execute and the successor mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraPose
from .configfields import check_fields, fields_to_json
from .so3 import Pose, aligning_rotation, cross3, from_axis_angle, random_unit_vector, vnorm
from .tracker import (
    GlobalState,
    Track,
    TrackerParams,
    claim_target,
    get_track,
    is_confident,
    mark_pollinated,
    release_target,
    remove_track,
)
from .simworld import FlowerGT


@dataclass(frozen=True)
class Searching:
    # Unproductive search steps since the last pollination trigger; carried
    # through approach phases so phantom chases cannot stall Done forever.
    steps: int = 0


@dataclass(frozen=True)
class RoughLocalization:
    target_id: int
    search_steps: int = 0


@dataclass(frozen=True)
class VisualServo:
    target_id: int
    search_steps: int = 0


@dataclass(frozen=True)
class Done:
    pass


Mode = Searching | RoughLocalization | VisualServo | Done


@dataclass(frozen=True)
class Explore:
    direction: tuple[float, float, float]


@dataclass(eq=False, frozen=True)
class MoveTo:
    pose: Pose


@dataclass(eq=False, frozen=True)
class MoveDelta:
    dpos: np.ndarray
    drot: np.ndarray


@dataclass(frozen=True)
class TriggerPollinate:
    track_id: int


Command = Explore | MoveTo | MoveDelta | TriggerPollinate


# Eye-in-hand camera position in the tip frame. The camera sits behind the
# tip along -z, with the tip's orientation, so a flower at contact distance
# stays inside the depth camera's reliable band.
CAM_OFFSET = np.array([0.0, 0.0, -0.10])


@dataclass(eq=False)
class ArmState:
    """Pollinator tip pose; the tip +z axis is the approach/tool direction.

    `arm_id` is the arm's index in the run; claims and attempts carry it.
    """

    tip_pose: Pose
    arm_id: int = 0

    @property
    def camera(self) -> CameraPose:
        rot = self.tip_pose.rotation
        return Pose(self.tip_pose.position + rot @ CAM_OFFSET, rot)


@dataclass(frozen=True)
class CommanderConfig:
    """Control gains, tolerances and mode-transition thresholds."""

    gain: float = 0.5
    max_step: float = 0.02
    max_rot_step_deg: float = 20.0
    standoff: float = 0.04
    eps_pos: float = 0.01
    eps_ang: float = 30.0
    trigger_pos: float = 0.005
    trigger_ang: float = 5.0
    trigger_fresh: int = 3
    arrival_pos: float = 0.005
    arrival_ang: float = 10.0
    servo_patience: int = 25
    search_patience: int = 300
    workspace_center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    workspace_radius: float = 0.5

    def __post_init__(self) -> None:
        check_fields(
            self,
            positive=(
                "max_step", "max_rot_step_deg", "eps_pos", "eps_ang", "trigger_pos", "trigger_ang",
                "arrival_pos", "arrival_ang", "workspace_radius",
            ),
            nonnegative=("standoff",),
            counts=(("trigger_fresh", 0), ("servo_patience", 1), ("search_patience", 1)),
        )
        if not (0.0 < self.gain <= 1.0):
            raise ValueError("gain must be in (0, 1]")
        if len(self.workspace_center) != 3:
            raise ValueError("workspace_center must be three numbers")

    def to_json(self) -> dict:
        return fields_to_json(self)


def standoff_pose(flower_pose: Pose, standoff: float) -> Pose:
    """Approach pose a standoff short of the flower along its facing axis.

    The tip z-axis is anti-parallel to the flower facing direction, so the
    tool points at the pistil; for a flower facing straight up the arc from
    +z to -z is ambiguous and resolves about the world x-axis.
    """
    zf = flower_pose.rotation[:, 2]
    return Pose(flower_pose.position + standoff * zf, aligning_rotation(-zf))


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    c = float(np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    return math.degrees(math.acos(c))


def check_pollination(tip: Pose, flower: FlowerGT, eps_pos: float, eps_ang: float) -> bool:
    """Physical contact predicate: tip at the pistil, anti-aligned approach.

    True iff the tip is within eps_pos meters of the flower center and the
    angle between the tip -z axis and the flower +z axis is at most eps_ang
    degrees.
    """
    if eps_pos <= 0 or eps_ang <= 0:
        raise ValueError("thresholds must be positive")
    if np.linalg.norm(tip.position - flower.pose.position) > eps_pos:
        return False
    return _angle_between(-tip.rotation[:, 2], flower.pose.rotation[:, 2]) <= eps_ang


def servo_delta(tip: Pose, target: Pose, gain: float, max_step: float) -> MoveDelta:
    """Proportional servo step toward a target pose.

    Positional delta is gain times the position error, clamped to max_step;
    the rotational delta steers the tip -z axis toward the target flower +z
    axis along the shortest arc, scaled by gain. Exactly zero at alignment.
    """
    if not (0 < gain <= 1):
        raise ValueError("gain must be in (0, 1]")
    err = target.position - tip.position
    dpos = gain * err
    n = vnorm(dpos)
    if n > max_step:
        dpos = dpos * (max_step / n)
    cur = -tip.rotation[:, 2]
    want = target.rotation[:, 2]
    c = float(np.clip(cur @ want, -1.0, 1.0))
    axis = cross3(cur, want)
    s = vnorm(axis)
    if s <= 1e-9:
        if c > 0:
            drot = np.eye(3)  # aligned
        else:
            axis = cross3(cur, np.array([1.0, 0.0, 0.0]))
            if vnorm(axis) <= 1e-9:
                axis = cross3(cur, np.array([0.0, 1.0, 0.0]))
            drot = from_axis_angle(axis, gain * math.pi)
    else:
        drot = from_axis_angle(axis, gain * math.acos(c))
    return MoveDelta(dpos=dpos, drot=drot)


def _eligible_targets(gs: GlobalState, cfg: CommanderConfig, tparams: TrackerParams, arm_id: int | None) -> list[Track]:
    """Confident, unpollinated tracks in reach; unless arm_id is None, those
    another arm has claimed are left out."""
    out = []
    center = np.asarray(cfg.workspace_center, dtype=float)
    for t in gs.tracks:
        if t.pollinated or not is_confident(t, tparams):
            continue
        if arm_id is not None:
            holder = gs.claims.get(t.id)
            if holder is not None and holder != arm_id:
                continue
        if np.linalg.norm(t.pos_mean - center) > cfg.workspace_radius + cfg.standoff:
            continue
        out.append(t)
    return out


def _lost(
    gs: GlobalState, arm_id: int, target_id: int, rng: np.random.Generator, search_steps: int
) -> tuple[Command, Mode]:
    release_target(gs, target_id, arm_id)
    return Explore(tuple(random_unit_vector(rng))), Searching(search_steps)


def step(
    mode: Mode,
    gs: GlobalState,
    arm: ArmState,
    cfg: CommanderConfig,
    tparams: TrackerParams,
    rng: np.random.Generator,
) -> tuple[Command, Mode]:
    """Advance the state machine one tick against the current global state.

    A track is a target once `tparams` deems it confident. Claims on the
    shared state are taken when an approach starts and released on trigger
    or target loss, so two arms never chase the same track.
    """
    tip = arm.tip_pose

    if isinstance(mode, Done):
        return Explore(tuple(random_unit_vector(rng))), mode

    if isinstance(mode, Searching):
        targets = _eligible_targets(gs, cfg, tparams, arm.arm_id)
        if targets:
            nearest = min(
                targets,
                key=lambda t: (float(np.linalg.norm(t.pos_mean - tip.position)), t.id),
            )
            claim_target(gs, nearest.id, arm.arm_id)
            goal = standoff_pose(Pose(nearest.pos_mean, nearest.rot_mean), cfg.standoff)
            return MoveTo(goal), RoughLocalization(nearest.id, mode.steps)
        if mode.steps >= cfg.search_patience and not _eligible_targets(gs, cfg, tparams, None):
            return Explore(tuple(random_unit_vector(rng))), Done()
        return Explore(tuple(random_unit_vector(rng))), Searching(mode.steps + 1)

    if isinstance(mode, RoughLocalization):
        t = get_track(gs, mode.target_id)
        if t is None or t.pollinated:
            return _lost(gs, arm.arm_id, mode.target_id, rng, mode.search_steps)
        goal = standoff_pose(Pose(t.pos_mean, t.rot_mean), cfg.standoff)
        arrived = (
            float(np.linalg.norm(tip.position - goal.position)) <= cfg.arrival_pos
            and _angle_between(tip.rotation[:, 2], goal.rotation[:, 2]) <= cfg.arrival_ang
        )
        if arrived:
            return MoveTo(goal), VisualServo(mode.target_id, mode.search_steps)
        return MoveTo(goal), RoughLocalization(mode.target_id, mode.search_steps)

    # VisualServo
    t = get_track(gs, mode.target_id)
    if t is None or t.pollinated:
        return _lost(gs, arm.arm_id, mode.target_id, rng, mode.search_steps)
    if t.last_meas is None or gs.tick - t.last_meas.tick > cfg.servo_patience:
        # The camera is pointed straight at this estimate and sees nothing:
        # treat the track as refuted, not merely lost, or a clutter-born
        # phantom would be re-targeted forever.
        remove_track(gs, mode.target_id)
        return _lost(gs, arm.arm_id, mode.target_id, rng, mode.search_steps)
    # Real-time feedback: position from the latest raw measurement of this
    # flower; orientation from the filtered track, whose facing estimate is
    # far more reliable than any single shot.
    target = Pose(t.last_meas.position_world, t.rot_mean)
    # Triggering demands live feedback: a phantom track coasting on an old
    # measurement must never fire the pollinator.
    aligned = (
        gs.tick - t.last_meas.tick <= cfg.trigger_fresh
        and float(np.linalg.norm(tip.position - t.pos_mean)) <= cfg.trigger_pos
        and _angle_between(-tip.rotation[:, 2], t.rot_mean[:, 2]) <= cfg.trigger_ang
    )
    if aligned:
        mark_pollinated(gs, mode.target_id)
        return TriggerPollinate(mode.target_id), Searching()
    return servo_delta(tip, target, cfg.gain, cfg.max_step), VisualServo(mode.target_id, mode.search_steps)
