"""Synthetic ground-truth world and stochastic measurement oracle.

This stands in for the camera + neural perception stack: it samples viewpoints
around a scene, projects ground-truth flowers, and emits noisy single-shot
pose measurements whose error statistics are calibrated against reference
single-shot accuracy targets (see NoiseModel). No rendering is performed,
only geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .camera import CameraPose, Intrinsics, PixelObs, look_at, project, to_world, uplift
from .configfields import check_fields, fields_to_json
from .so3 import (
    Pose,
    candidate_pairs,
    cross3,
    from_axis_angle,
    random_rotation,
    random_unit_vector,
    rot_z,
    rotation_from_list,
    rotation_to_list,
    vnorm,
    zaxis_angle,
)


class ParseError(ValueError):
    """Scene or model file could not be parsed."""


class InvariantViolation(ValueError):
    """Scene data violates a declared invariant (names the offending flower)."""


@dataclass(eq=False)
class FlowerGT:
    """Ground-truth flower: unique id, world pose, pollination state."""

    id: int
    pose: Pose
    pollinated: bool = False


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic observation model for single-shot flower measurements.

    Defaults reproduce the reference single-shot perception statistics
    (mean translational error 3.03 cm, mean facing-axis error 29.88 deg,
    detection success rate 93.01%) over the standard survey viewpoint
    distribution; they were produced by the `calibrate-noise` CLI command,
    not chosen by hand. Depth noise is range-dependent: `depth_sigma_near`
    applies inside `reliable_range`, `depth_sigma_far` outside it, modelling
    a depth camera that degrades sharply beyond its optimal band.
    """

    detect_prob: float = 0.9375
    pixel_sigma: float = 5.6
    depth_sigma_near: float = 0.0046875
    depth_sigma_far: float = 0.09375
    reliable_range: tuple[float, float] = (0.07, 0.50)
    rot_sigma: float = 48.75
    clutter_rate: float = 0.1
    flip_prob: float = 0.0

    def __post_init__(self) -> None:
        check_fields(
            self, nonnegative=("pixel_sigma", "depth_sigma_near", "depth_sigma_far", "rot_sigma", "clutter_rate")
        )
        if not (0.0 <= self.detect_prob <= 1.0):
            raise ValueError("detect_prob must be in [0, 1]")
        if len(self.reliable_range) != 2 or not self.reliable_range[0] < self.reliable_range[1]:
            raise ValueError("reliable_range must be two numbers [lo, hi] with lo < hi")
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("flip_prob must be in [0, 1]")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(
            detect_prob=1.0,
            pixel_sigma=0.0,
            depth_sigma_near=0.0,
            depth_sigma_far=0.0,
            rot_sigma=0.0,
            clutter_rate=0.0,
            flip_prob=0.0,
        )

    def to_json(self) -> dict:
        return fields_to_json(self)


@dataclass(eq=False)
class Measurement:
    """One single-shot flower observation from one camera at one tick."""

    pixel: PixelObs
    position_world: np.ndarray
    rotation: np.ndarray
    camera_id: int
    tick: int


@dataclass(eq=False)
class ShotRecord:
    """Per-visible-flower oracle bookkeeping (ground-truth linked).

    flower_id is -1 for clutter (false positive) measurements; error fields
    are NaN when not applicable. A record is detected exactly when
    observe_with_truth emitted a measurement for it, and both lists keep the
    same order.
    """

    flower_id: int
    detected: bool
    px_err: float
    trans_err: float
    rot_err_deg: float


def sample_viewpoint(
    rng: np.random.Generator,
    center: np.ndarray,
    radius_range: tuple[float, float],
    elevation_range: tuple[float, float],
) -> CameraPose:
    """Random camera pose on a spherical shell sector, looking at `center`.

    Radius is uniform in [min, max], elevation uniform in degrees, azimuth
    uniform in [0, 360). The camera optical axis passes through `center` and
    the image up direction is regularized to world z.
    """
    rmin, rmax = radius_range
    if not (0 < rmin <= rmax):
        raise ValueError("radius_range must satisfy 0 < min <= max")
    center = np.asarray(center, dtype=float)
    r = rng.uniform(rmin, rmax)
    elev = math.radians(rng.uniform(*elevation_range))
    azim = rng.uniform(0.0, 2.0 * math.pi)
    offset = r * np.array(
        [math.cos(elev) * math.cos(azim), math.cos(elev) * math.sin(azim), math.sin(elev)]
    )
    return look_at(center + offset, center)


def _in_band(depth: float, band: tuple[float, float]) -> bool:
    return band[0] <= depth <= band[1]


def observe_with_truth(
    scene: list[FlowerGT],
    cam: CameraPose,
    k: Intrinsics,
    noise: NoiseModel,
    rng: np.random.Generator,
    camera_id: int = 0,
    tick: int = 0,
) -> tuple[list[Measurement], list[ShotRecord]]:
    """Noisy measurements plus ground-truth-linked shot records.

    For each flower whose projection is visible: detect with probability
    detect_prob; perturb the pixel isotropically, the ray depth with the
    range-dependent sigma, and the rotation by a random axis-angle whose
    angle is folded Gaussian. The world position is recomputed from the noisy
    pixel/depth through uplift + to_world. Clutter measurements (Poisson) are
    appended at uniform image positions. Draw order is fixed, so identical
    (scene, camera, rng state) gives identical streams.
    """
    measurements: list[Measurement] = []
    records: list[ShotRecord] = []
    for flower in scene:
        obs = project(flower.pose.position, cam, k)
        if obs is None:
            continue
        if rng.random() >= noise.detect_prob:
            records.append(
                ShotRecord(flower.id, False, float("nan"), float("nan"), float("nan"))
            )
            continue
        u = obs.u + rng.normal(0.0, noise.pixel_sigma)
        v = obs.v + rng.normal(0.0, noise.pixel_sigma)
        sigma_d = noise.depth_sigma_near if _in_band(obs.ray_depth, noise.reliable_range) else noise.depth_sigma_far
        depth = obs.ray_depth + rng.normal(0.0, sigma_d)
        depth = max(depth, 1e-6)  # keeps the uplift precondition under extreme draws
        axis = random_unit_vector(rng)
        angle = abs(rng.normal(0.0, math.radians(noise.rot_sigma)))
        rot = from_axis_angle(axis, angle) @ flower.pose.rotation
        if noise.flip_prob > 0.0 and rng.random() < noise.flip_prob:
            # Ambiguous-appearance failure mode: facing direction flips about
            # a random axis orthogonal to it.
            z = rot[:, 2]
            perp = cross3(z, random_unit_vector(rng))
            while vnorm(perp) <= 1e-9:
                perp = cross3(z, random_unit_vector(rng))
            rot = from_axis_angle(perp, math.pi) @ rot
        noisy_pixel = PixelObs(u=float(u), v=float(v), ray_depth=float(depth))
        pos_world = to_world(uplift(noisy_pixel, k), cam)
        m = Measurement(noisy_pixel, pos_world, rot, camera_id, tick)
        measurements.append(m)
        records.append(
            ShotRecord(
                flower_id=flower.id,
                detected=True,
                px_err=float(math.hypot(u - obs.u, v - obs.v)),
                trans_err=vnorm(pos_world - flower.pose.position),
                rot_err_deg=zaxis_angle(rot, flower.pose.rotation),
            )
        )
    n_clutter = int(rng.poisson(noise.clutter_rate)) if noise.clutter_rate > 0 else 0
    for _ in range(n_clutter):
        u = rng.uniform(0.0, k.width)
        v = rng.uniform(0.0, k.height)
        depth = rng.uniform(*noise.reliable_range)
        pix = PixelObs(u=float(u), v=float(v), ray_depth=float(depth))
        m = Measurement(pix, to_world(uplift(pix, k), cam), random_rotation(rng), camera_id, tick)
        measurements.append(m)
        records.append(ShotRecord(-1, True, float("nan"), float("nan"), float("nan")))
    return measurements, records


def _flower_from_json(entry: dict, index: int) -> FlowerGT:
    try:
        fid = int(entry["id"])
        position = np.asarray(entry["position"], dtype=float).reshape(3)
        rot_values = entry["rotation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"flowers[{index}]: missing or malformed field ({exc})") from exc
    try:
        rotation = rotation_from_list(rot_values)
    except ValueError as exc:
        raise InvariantViolation(f"flower id {fid}: {exc}") from exc
    if not np.isfinite(position).all():
        raise InvariantViolation(f"flower id {fid}: non-finite position")
    return FlowerGT(id=fid, pose=Pose(position, rotation), pollinated=bool(entry.get("pollinated", False)))


def load_scene(path: str) -> list[FlowerGT]:
    """Load and validate a scene JSON file; flowers returned sorted by id."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scene file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(data, dict) or "flowers" not in data:
        raise ParseError(f"{path}: expected object with a 'flowers' list")
    entries = data["flowers"]
    if not isinstance(entries, list):
        raise ParseError(f"{path}: 'flowers' must be a list")
    flowers = [_flower_from_json(e, i) for i, e in enumerate(entries)]
    seen: set[int] = set()
    for f in flowers:
        if f.id in seen:
            raise InvariantViolation(f"flower id {f.id}: duplicate id")
        seen.add(f.id)
    return sorted(flowers, key=lambda f: f.id)


def save_scene(path: str, flowers: list[FlowerGT]) -> None:
    """Write a scene JSON file (deterministic key order)."""
    data = {
        "flowers": [
            {
                "id": f.id,
                "position": [float(x) for x in f.pose.position],
                "rotation": rotation_to_list(f.pose.rotation),
                "pollinated": f.pollinated,
            }
            for f in sorted(flowers, key=lambda f: f.id)
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class SceneGenParams:
    """Settings of `generate_scene`; these defaults are the only copy."""

    count: int = 20
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spread: float = 0.12
    min_sep: float = 0.10
    max_tilt_deg: float = 45.0

    def __post_init__(self) -> None:
        check_fields(self, positive=("spread",), nonnegative=("min_sep",), counts=(("count", 1),))
        if len(self.center) != 3:
            raise ValueError("center must be three numbers")

    def to_json(self) -> dict:
        return fields_to_json(self)


def generate_scene(rng: np.random.Generator, params: SceneGenParams) -> list[FlowerGT]:
    """Random scene: clustered positions with a minimum separation, facing
    directions within a cone of world-up, random twist about the facing axis.

    A draw is rejected when np.linalg.norm(p - q) < min_sep for an accepted
    q; `so3.candidate_pairs` leaves only the q that could be that close.
    """
    count, spread, min_sep = params.count, params.spread, params.min_sep
    center = np.asarray(params.center, dtype=float)
    positions: list[np.ndarray] = []
    accepted = np.empty((count, 3))
    attempts = 0
    while len(positions) < count:
        p = center + rng.normal(0.0, spread, size=3)
        near, _ = candidate_pairs(accepted[: len(positions)], [p], min_sep)
        if all(np.linalg.norm(p - positions[i]) >= min_sep for i in near):
            accepted[len(positions)] = p
            positions.append(p)
        attempts += 1
        if attempts > 10000 * count:
            raise ValueError("cannot satisfy min_sep; reduce it or increase spread")
    flowers = []
    for i, p in enumerate(positions):
        tilt = math.radians(rng.uniform(0.0, params.max_tilt_deg))
        azim = rng.uniform(0.0, 2.0 * math.pi)
        tilt_axis = np.array([-math.sin(azim), math.cos(azim), 0.0])
        rot = from_axis_angle(tilt_axis, tilt) @ rot_z(rng.uniform(0.0, 2.0 * math.pi))
        flowers.append(FlowerGT(id=i, pose=Pose(p, rot)))
    return flowers


# Viewpoint distribution used for single-shot calibration and the filter
# convergence survey. It deliberately straddles the depth reliable band so the
# reference single-shot error mixes accurate in-band and degraded out-of-band
# depth readings.
SURVEY_RADIUS_RANGE = (0.15, 0.70)
SURVEY_ELEVATION_RANGE = (10.0, 70.0)
# A detection succeeds when its pixel error is at most this (inclusive).
DETECT_SUCCESS_PX = 20.0


@dataclass
class SingleShotStats:
    """Empirical single-shot oracle statistics over independent viewpoints."""

    opportunities: int = 0
    trans_errors: list[float] = field(default_factory=list)
    rot_errors: list[float] = field(default_factory=list)
    detections_within_px: int = 0

    def add(self, records: list[ShotRecord]) -> None:
        """Tally the flower records of one observation; clutter is skipped."""
        for rec in records:
            if rec.flower_id < 0:
                continue
            self.opportunities += 1
            if rec.detected:
                self.trans_errors.append(rec.trans_err)
                self.rot_errors.append(rec.rot_err_deg)
                if rec.px_err <= DETECT_SUCCESS_PX:
                    self.detections_within_px += 1

    @property
    def mean_trans(self) -> float:
        return float(np.mean(self.trans_errors)) if self.trans_errors else float("nan")

    @property
    def mean_rot(self) -> float:
        return float(np.mean(self.rot_errors)) if self.rot_errors else float("nan")

    @property
    def detection_rate(self) -> float:
        return self.detections_within_px / self.opportunities if self.opportunities else float("nan")


def _draw_view(rng: np.random.Generator) -> tuple[Pose, CameraPose]:
    """One calibration sample's geometry: a uniformly random flower rotation
    at the origin, then a survey viewpoint looking at it."""
    flower_pose = Pose(np.zeros(3), random_rotation(rng))
    return flower_pose, sample_viewpoint(rng, flower_pose.position, SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE)


_MASK128 = (1 << 128) - 1


def _pcg64_key(rng: np.random.Generator) -> int:
    """The generator's whole PCG64 state (state, inc, has_uint32, uinteger) packed into one int."""
    st = rng.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise TypeError(f"ViewCache keys on PCG64 states, not {st['bit_generator']}")
    inner = st["state"]
    return (((inner["state"] << 128) | inner["inc"]) << 33) | (st["has_uint32"] << 32) | st["uinteger"]


def _pcg64_state(key: int) -> dict:
    """Inverse of `_pcg64_key`: the state dict that `bit_generator.state` accepts."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": key >> 161, "inc": (key >> 33) & _MASK128},
        "has_uint32": (key >> 32) & 1,
        "uinteger": key & 0xFFFFFFFF,
    }


class ViewCache:
    """The views `single_shot_stats` drew, one slot per sample index, so that
    a later call reaching the same generator state reuses them.

    A slot holds the generator state at the start of the sample, the flower
    rotation and camera pose drawn from it, and the state those two draws
    left behind. The geometry sits in preallocated arrays and each state in
    one packed int: about 300 bytes a slot, where Pose objects and state
    dicts would take several times that.
    """

    def __init__(self, n_slots: int) -> None:
        self.flower_rot = np.empty((n_slots, 3, 3))
        self.cam_pos = np.empty((n_slots, 3))
        self.cam_rot = np.empty((n_slots, 3, 3))
        self.start: list[int | None] = [None] * n_slots
        self.after: list[int] = [0] * n_slots

    def __len__(self) -> int:
        return len(self.start)

    def view(self, i: int, rng: np.random.Generator) -> tuple[Pose, CameraPose]:
        """Slot i's view if rng is in its start state (rng then moves to the
        stored after-state), else a fresh draw that overwrites slot i."""
        start = _pcg64_key(rng)
        if self.start[i] == start:
            rng.bit_generator.state = _pcg64_state(self.after[i])
            return (
                Pose(np.zeros(3), self.flower_rot[i].copy()),
                Pose(self.cam_pos[i].copy(), self.cam_rot[i].copy()),
            )
        flower_pose, cam = _draw_view(rng)
        self.flower_rot[i] = flower_pose.rotation
        self.cam_pos[i] = cam.position
        self.cam_rot[i] = cam.rotation
        self.start[i] = start
        self.after[i] = _pcg64_key(rng)
        return flower_pose, cam


def single_shot_stats(
    noise: NoiseModel, k: Intrinsics, n_samples: int, rng: np.random.Generator, views: ViewCache | None = None
) -> SingleShotStats:
    """Sample one flower from n_samples independent viewpoints and collect
    the oracle's single-shot error statistics (clutter excluded).

    Each sample draws a flower rotation and a viewpoint, then observes. With
    `views`, sample i takes its rotation and viewpoint from slot i of the
    cache whenever rng is in the state that slot was drawn from, and skips
    the draws. Those two draws read nothing but the generator, so the same
    start state gives the same geometry bits and the same end state: the
    result, and rng's state afterwards, equal the uncached call's. This pays
    off under common random numbers, where calibration re-seeds every
    evaluation and only the observation draws differ between them.
    """
    if views is not None and len(views) < n_samples:
        raise ValueError(f"ViewCache has {len(views)} slots for {n_samples} samples")
    stats = SingleShotStats()
    quiet = replace(noise, clutter_rate=0.0)
    flower = FlowerGT(id=0, pose=Pose(np.zeros(3), np.eye(3)))
    for i in range(n_samples):
        flower.pose, cam = _draw_view(rng) if views is None else views.view(i, rng)
        stats.add(observe_with_truth([flower], cam, k, quiet, rng)[1])
    return stats
