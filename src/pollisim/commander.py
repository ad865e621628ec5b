"""Mission state machine for one simulated arm: explore the workspace, rough-
localize to a confident flower track, visually servo onto it, and trigger
pollination.

Mode graph: Searching -> RoughLocalization -> VisualServo -> (trigger) ->
Searching -> ... -> Done, plus a lost-target edge from either approach mode
back to Searching. Modes are immutable values; `step` returns the command to
execute and the successor mode. The approach modes name their target, so the
modes of all arms say which tracks are taken: no other record is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraPose
from .configfields import check_fields, fields_to_json
from .so3 import Pose, aligning_rotation, cross3, from_axis_angle, random_unit_vector, vnorm
from .tracker import GlobalState, Track, TrackerParams, is_confident, remove_track
from .simworld import MAX_LENGTH, FlowerGT


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

    `arm_id` is the arm's index in the run; its attempts carry it.
    """

    tip_pose: Pose
    arm_id: int = 0

    @property
    def camera(self) -> CameraPose:
        rot = self.tip_pose.rotation
        return Pose(self.tip_pose.position + rot @ CAM_OFFSET, rot)


@dataclass(frozen=True)
class CommanderConfig:
    """Control gains, tolerances and mode-transition thresholds.

    `gain` lies in (0, 1]. Every length (steps, standoff, tolerances, the
    workspace radius and each coordinate of its center) is at most
    `simworld.MAX_LENGTH` (1 km) in magnitude, the size of a scene. Every
    angle, the per-step turn and the facing tolerances, lies in (0, 180]
    degrees, as the angle between two directions does.
    """

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
        lengths = ("max_step", "eps_pos", "trigger_pos", "arrival_pos", "workspace_radius")
        angles = ("max_rot_step_deg", "eps_ang", "trigger_ang", "arrival_ang")
        check_fields(
            self,
            positive=("gain", *lengths, *angles),
            counts=(("trigger_fresh", 0), ("servo_patience", 1), ("search_patience", 1)),
            ranges=(
                ("gain", 0.0, 1.0),
                ("standoff", 0.0, MAX_LENGTH),
                ("workspace_center", -MAX_LENGTH, MAX_LENGTH),
                *((name, 0.0, MAX_LENGTH) for name in lengths),
                *((name, 0.0, 180.0) for name in angles),
            ),
        )
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
    # a @ b stays a numpy scalar, so a zero norm warns as numpy's division
    # does; max before min passes NaN through as np.clip does.
    c = float(min(max(a @ b / (vnorm(a) * vnorm(b)), -1.0), 1.0))
    return math.degrees(math.acos(c))


def check_pollination(tip: Pose, flower: FlowerGT, eps_pos: float, eps_ang: float) -> bool:
    """Physical contact predicate: tip at the pistil, anti-aligned approach.

    True iff the tip is within eps_pos meters of the flower center and the
    angle between the tip -z axis and the flower +z axis is at most eps_ang
    degrees.
    """
    if eps_pos <= 0 or eps_ang <= 0:
        raise ValueError("thresholds must be positive")
    if vnorm(tip.position - flower.pose.position) > eps_pos:
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
    c = float(min(max(cur @ want, -1.0), 1.0))
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


def _eligible_targets(
    gs: GlobalState, cfg: CommanderConfig, tparams: TrackerParams, taken: set[int]
) -> list[tuple[int, Track]]:
    """(id, track) of the confident, unpollinated tracks in reach whose ids
    are not in `taken`."""
    out = []
    center = np.asarray(cfg.workspace_center, dtype=float)
    for tid, t in gs.tracks.items():
        if t.pollinated or tid in taken or not is_confident(t, tparams):
            continue
        if vnorm(t.pos_mean - center) > cfg.workspace_radius + cfg.standoff:
            continue
        out.append((tid, t))
    return out


def _lost(rng: np.random.Generator, search_steps: int) -> tuple[Command, Mode]:
    return Explore(tuple(random_unit_vector(rng))), Searching(search_steps)


def step(
    mode: Mode,
    gs: GlobalState,
    arm: ArmState,
    cfg: CommanderConfig,
    tparams: TrackerParams,
    rng: np.random.Generator,
    taken: set[int],
) -> tuple[Command, Mode]:
    """Advance the state machine one tick against the current global state.

    A track is a target once `tparams` deems it confident. `taken` holds the
    ids of the tracks the other arms' approach modes target; a searching arm
    skips them, so two arms never chase the same track.
    """
    tip = arm.tip_pose

    if isinstance(mode, Done):
        return Explore(tuple(random_unit_vector(rng))), mode

    if isinstance(mode, Searching):
        targets = _eligible_targets(gs, cfg, tparams, taken)
        if targets:
            nearest_id, nearest = min(
                targets,
                key=lambda target: (vnorm(target[1].pos_mean - tip.position), target[0]),
            )
            goal = standoff_pose(Pose(nearest.pos_mean, nearest.rot_mean), cfg.standoff)
            return MoveTo(goal), RoughLocalization(nearest_id, mode.steps)
        # Done waits for every target, including those other arms approach.
        if mode.steps >= cfg.search_patience and not _eligible_targets(gs, cfg, tparams, set()):
            return Explore(tuple(random_unit_vector(rng))), Done()
        return Explore(tuple(random_unit_vector(rng))), Searching(mode.steps + 1)

    if isinstance(mode, RoughLocalization):
        t = gs.tracks.get(mode.target_id)
        if t is None or t.pollinated:
            return _lost(rng, mode.search_steps)
        goal = standoff_pose(Pose(t.pos_mean, t.rot_mean), cfg.standoff)
        arrived = (
            vnorm(tip.position - goal.position) <= cfg.arrival_pos
            and _angle_between(tip.rotation[:, 2], goal.rotation[:, 2]) <= cfg.arrival_ang
        )
        if arrived:
            return MoveTo(goal), VisualServo(mode.target_id, mode.search_steps)
        return MoveTo(goal), RoughLocalization(mode.target_id, mode.search_steps)

    # VisualServo
    t = gs.tracks.get(mode.target_id)
    if t is None or t.pollinated:
        return _lost(rng, mode.search_steps)
    if t.last_meas is None or gs.tick - t.last_meas.tick > cfg.servo_patience:
        # The camera is pointed straight at this estimate and sees nothing:
        # treat the track as refuted, not merely lost, or a clutter-born
        # phantom would be re-targeted forever.
        remove_track(gs, mode.target_id)
        return _lost(rng, mode.search_steps)
    # Real-time feedback: position from the latest raw measurement of this
    # flower; orientation from the filtered track, whose facing estimate is
    # far more reliable than any single shot.
    target = Pose(t.last_meas.position_world, t.rot_mean)
    # Triggering demands live feedback: a phantom track coasting on an old
    # measurement must never fire the pollinator.
    aligned = (
        gs.tick - t.last_meas.tick <= cfg.trigger_fresh
        and vnorm(tip.position - t.pos_mean) <= cfg.trigger_pos
        and _angle_between(-tip.rotation[:, 2], t.rot_mean[:, 2]) <= cfg.trigger_ang
    )
    if aligned:
        t.pollinated = True
        return TriggerPollinate(mode.target_id), Searching()
    return servo_delta(tip, target, cfg.gain, cfg.max_step), VisualServo(mode.target_id, mode.search_steps)
