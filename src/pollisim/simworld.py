"""Synthetic ground-truth world and stochastic measurement oracle.

This stands in for the camera + neural perception stack: it samples viewpoints
around a scene, projects ground-truth flowers, and emits noisy single-shot
pose measurements whose error statistics are calibrated against reference
single-shot accuracy targets (see NoiseModel). No rendering is performed,
only geometry.

Every oracle call works in two passes: the draw pass, the only code that
touches the generator, projects the scene (one stacked `project` call from
BATCH_MIN flowers on) and takes a tick's draws in stream order, flips
included, holding each rotation axis as its three normals as drawn; the
arithmetic pass then normalizes the axes and turns the draws into
measurements, on arrays (`_detection_errors`) when the tick holds at least
BATCH_MIN detections. Both routes of each pass give the same bits on every
input, so BATCH_MIN chooses by speed alone; the bounds that the config
classes check keep every reading of a valid config finite. Calibration
takes its samples (SampleDraws, once per detect_prob by `draw_samples`)
with the draw pass's own step, `_draw_row`, and tallies them with the same
array kernel: the loop and calibration share one copy of the draws and of
the math.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .camera import CameraPose, Intrinsics, PixelObs, look_at, project, to_world, uplift
from .configfields import check_fields, fields_to_json, json_number, json_numbers, write_json
from .so3 import (
    I3,
    Pose,
    candidate_pairs,
    cross3,
    dots,
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


# Bounds of the physical inputs, in meters, pixels, degrees, readings per
# view and flowers; the docstrings of the classes that check them say why
# each holds.
MAX_LENGTH = 1e3
MIN_DEPTH = 1e-6
MAX_PIXEL_SIGMA = 1e5
MAX_ROT_SIGMA = 3600.0
MAX_CLUTTER_RATE = 100.0
MAX_FLOWERS = 10_000


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

    Every field is bounded:
    - `pixel_sigma` by MAX_PIXEL_SIGMA (1e5 px), the largest image side: a
      wider pixel error leaves no position in a reading;
    - the depth sigmas by MAX_LENGTH (1 km), and `reliable_range` to
      [MIN_DEPTH, MAX_LENGTH]: a depth camera reads no nearer than the
      oracle's 1 um depth clamp and no farther than a kilometre, and a
      clutter reading's depth, drawn inside the band, stays positive;
    - `rot_sigma` by MAX_ROT_SIGMA (3600 deg, ten turns): from one turn on,
      the drawn angle modulo a turn is uniform to within a relative 1e-8 of
      density, so a wider sigma draws the same rotations;
    - `clutter_rate` by MAX_CLUTTER_RATE (100 false readings per view): a
      detector past that reports nothing of the scene;
    - `detect_prob` and `flip_prob` to [0, 1].
    With these bounds and those of `Intrinsics`, no reading the oracle draws
    overflows, and `TrackerParams.for_noise` stays inside the tracker's
    bounds.
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
        check_fields(self, ranges=(
            ("detect_prob", 0.0, 1.0),
            ("pixel_sigma", 0.0, MAX_PIXEL_SIGMA),
            ("depth_sigma_near", 0.0, MAX_LENGTH),
            ("depth_sigma_far", 0.0, MAX_LENGTH),
            ("reliable_range", MIN_DEPTH, MAX_LENGTH),
            ("rot_sigma", 0.0, MAX_ROT_SIGMA),
            ("clutter_rate", 0.0, MAX_CLUTTER_RATE),
            ("flip_prob", 0.0, 1.0),
        ))
        if len(self.reliable_range) != 2 or not self.reliable_range[0] < self.reliable_range[1]:
            raise ValueError("reliable_range must be two numbers [lo, hi] with lo < hi")

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
    tick: int


@dataclass(eq=False)
class ShotRecord:
    """Per-visible-flower oracle bookkeeping (ground-truth linked), one row
    of a run's shots.csv.

    flower_id is -1 for clutter (false positive) measurements; error fields
    are NaN when not applicable. A record is detected exactly when
    observe_with_truth emitted a measurement for it, and both lists keep the
    same order.
    """

    tick: int
    camera_id: int
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

    The three uniforms come from one rng.random(3), each scaled as
    low + (high - low) * u: the arithmetic and the draws of three
    Generator.uniform calls, so the same pose bits and generator state.
    """
    rmin, rmax = radius_range
    elo, ehi = elevation_range
    if not (0 < rmin <= rmax < math.inf):
        raise ValueError("radius_range must satisfy 0 < min <= max < inf")
    if not (-math.inf < elo <= ehi < math.inf):
        raise ValueError("elevation_range must be finite with min <= max")
    center = np.asarray(center, dtype=float)
    ur, ue, ua = rng.random(3).tolist()
    r = rmin + (rmax - rmin) * ur
    elev = math.radians(elo + (ehi - elo) * ue)
    azim = 2.0 * math.pi * ua  # low 0 drops out exactly: u >= 0
    ox, oy, oz = math.cos(elev) * math.cos(azim), math.cos(elev) * math.sin(azim), math.sin(elev)
    cx, cy, cz = center.tolist()
    return look_at(np.array([cx + r * ox, cy + r * oy, cz + r * oz]), center)


def _in_band(depth: float, band: tuple[float, float]) -> bool:
    return band[0] <= depth <= band[1]


def _degenerate(axis: list[float]) -> bool:
    """random_unit_vector's redraw test, vnorm(axis) <= 1e-12. The Python
    sum of squares decides it unless it lies within a relative 1e-12 of
    1e-24, far more than the few ulps by which it and vnorm's dot can differ;
    there vnorm decides."""
    x, y, z = axis
    s = x * x + y * y + z * z
    if abs(s - 1e-24) > 1e-36:
        return s < 1e-24
    return vnorm(np.array(axis)) <= 1e-12


def _pose_draws(rng: np.random.Generator) -> tuple[float, float, float, list[float], float]:
    """A detection's draws in stream order: the standard normals of pixel u,
    pixel v and ray depth, the rotation axis's three normals as drawn, then
    the angle's standard normal. Scaled as 0.0 + sigma * z, each is what
    rng.normal(0.0, sigma) returns for the same draw.

    One standard_normal(7) call draws all seven. The axis divided by its
    vnorm is what random_unit_vector returns for the same stream: 0.0 + z is
    what rng.normal(size=3) returns, and its redraw of a degenerate axis goes
    on down the stream, so the seventh normal opens the redraw and the
    angle's normal comes after it. The axis is not normalized here; the
    arithmetic pass does that (`_noisy_rotation`, `_detection_errors`)."""
    z_u, z_v, z_d, x, y, z, z_a = rng.standard_normal(7).tolist()
    axis = [0.0 + x, 0.0 + y, 0.0 + z]
    if _degenerate(axis):  # astronomically unlikely
        axis = [0.0 + z_a, *(0.0 + w for w in rng.standard_normal(2).tolist())]
        while _degenerate(axis):
            axis = rng.normal(size=3).tolist()
        z_a = rng.standard_normal()
    return z_u, z_v, z_d, axis, z_a


def _noisy_position(
    obs: PixelObs, position: np.ndarray, cam: CameraPose, k: Intrinsics, noise: NoiseModel,
    z_u: float, z_v: float, z_d: float,
) -> tuple[PixelObs, np.ndarray, float, float]:
    """The detected pixel of the flower at `position`, projected at `obs`,
    its world position, and their errors (pixels, meters)."""
    u = obs.u + (0.0 + noise.pixel_sigma * z_u)
    v = obs.v + (0.0 + noise.pixel_sigma * z_v)
    sigma_d = noise.depth_sigma_near if _in_band(obs.ray_depth, noise.reliable_range) else noise.depth_sigma_far
    depth = max(obs.ray_depth + (0.0 + sigma_d * z_d), MIN_DEPTH)  # keeps the uplift precondition under extreme draws
    pixel = PixelObs(float(u), float(v), float(depth))
    pos_world = to_world(uplift(pixel, k), cam)
    return pixel, pos_world, math.hypot(u - obs.u, v - obs.v), vnorm(pos_world - position)


def _noisy_rotation(rotation: np.ndarray, axis: np.ndarray, z_a: float, rot_sigma: float) -> np.ndarray:
    """`rotation` turned by a folded Gaussian angle about `axis`, the drawn
    normals (`_pose_draws`) divided by their vnorm. from_axis_angle divides
    by the norm again; that second division is kept for the bits."""
    return from_axis_angle(axis / vnorm(axis), abs(0.0 + math.radians(rot_sigma) * z_a)) @ rotation


# From this many detections on, a tick does its arithmetic on arrays. Arrays
# and the per-detection helpers give the same bits, so this is a choice of
# speed alone. Below it numpy's per-call cost outweighs the helpers: on a 2-core
# x86-64 host, a whole oracle call with the batch took 1.72x the time of one
# with those helpers at 2 detections, 1.12x at 4, 1.00x at 5, 0.93x at 6
# and 0.69x at 12. From this many flowers on, the draw pass also projects
# the scene as one stack. Its crossover lies higher: on the same host,
# stacking the positions and projecting them took 1.5x the time of the
# per-point calls at 5 flowers, 1.07x at 8, 0.78x at 12 and 0.28x at 60,
# about 15 us more at 5, a small part of such a call.
BATCH_MIN = 5

# A detection whose arithmetic waits for the draw pass to end: its record's
# slot, the flower, its draws row (`_draw_row`) and its flip's half-turn
# axis (`_flip_draw`).
_Held = tuple[int, FlowerGT, list, np.ndarray | None]


def _draw_row(obs: PixelObs, detect_prob: float, rng: np.random.Generator) -> list[float]:
    """A visible flower's draws at projection `obs`, as a row in
    SampleDraws.rows' layout: the detection uniform, then for a detection
    `_pose_draws`. A miss's row stops after the uniform (4 entries)."""
    r = rng.random()
    row = [obs.u, obs.v, obs.ray_depth, r]
    if r < detect_prob:
        z_u, z_v, z_d, axis, z_a = _pose_draws(rng)
        row += [z_u, z_v, z_d, *axis, z_a]
    return row


def _flip_draw(rotation: np.ndarray, row: list, noise: NoiseModel, rng: np.random.Generator) -> np.ndarray | None:
    """The draws that follow a detection's row: with flips on, the flip
    uniform, and for a flip (the ambiguous-appearance failure mode) a random
    axis orthogonal to the noisy facing axis, about which the arithmetic
    pass turns the noisy rotation half a turn. Returns that axis, or None.
    The axis's redraw reads the noisy rotation, so a flip computes it here."""
    if not (noise.flip_prob > 0.0 and rng.random() < noise.flip_prob):
        return None
    z = _noisy_rotation(rotation, np.array(row[7:10]), row[10], noise.rot_sigma)[:, 2]
    perp = cross3(z, random_unit_vector(rng))
    while vnorm(perp) <= 1e-9:
        perp = cross3(z, random_unit_vector(rng))
    return perp


def _detection(
    flower: FlowerGT, row: list, flip: np.ndarray | None, cam: CameraPose, k: Intrinsics, noise: NoiseModel,
    camera_id: int, tick: int,
) -> tuple[Measurement, ShotRecord]:
    """One detection's measurement and record from its draws row and flip."""
    u, v, d, _, z_u, z_v, z_d, x, y, z, z_a = row
    noisy_pixel, pos_world, px_err, trans_err = _noisy_position(
        PixelObs(u, v, d), flower.pose.position, cam, k, noise, z_u, z_v, z_d
    )
    rot = _noisy_rotation(flower.pose.rotation, np.array((x, y, z)), z_a, noise.rot_sigma)
    if flip is not None:
        rot = from_axis_angle(flip, math.pi) @ rot
    return (
        Measurement(noisy_pixel, pos_world, rot, tick),
        ShotRecord(tick, camera_id, flower.id, True, px_err, trans_err, zaxis_angle(rot, flower.pose.rotation)),
    )


def _batched_detections(
    held: list[_Held], cam: CameraPose, k: Intrinsics, noise: NoiseModel, camera_id: int, tick: int
) -> list[tuple[Measurement, ShotRecord]]:
    """What `_detection` gives for each held detection, computed on arrays
    with the same bits. A measurement's position and rotation are rows of
    the batch's arrays."""
    flowers = [f for _, f, _, _ in held]
    pixels, pos_world, rots, errors = _detection_errors(
        np.array([row for _, _, row, _ in held]), cam.position, cam.rotation, k, noise,
        np.array([f.pose.position for f in flowers]), np.array([f.pose.rotation for f in flowers]),
    )
    for i, (_, f, _, flip) in enumerate(held):
        if flip is not None:
            rots[i] = from_axis_angle(flip, math.pi) @ rots[i]
            errors[i, 2] = zaxis_angle(rots[i], f.pose.rotation)
    return [
        (
            Measurement(PixelObs(u, v, d), pos, rot, tick),
            ShotRecord(tick, camera_id, f.id, True, px, trans, facing),
        )
        for f, (u, v, d), pos, rot, (px, trans, facing) in zip(
            flowers, pixels.tolist(), pos_world, rots, errors.tolist()
        )
    ]


def _held_detections(
    held: list[_Held], cam: CameraPose, k: Intrinsics, noise: NoiseModel, camera_id: int, tick: int
) -> list[tuple[Measurement, ShotRecord]]:
    """The arithmetic pass over a tick's held detections: on arrays from
    BATCH_MIN detections on, else by the per-detection helpers. Both give
    the same bits, so the choice is one of speed alone."""
    if len(held) >= BATCH_MIN:
        return _batched_detections(held, cam, k, noise, camera_id, tick)
    return [_detection(f, row, flip, cam, k, noise, camera_id, tick) for _, f, row, flip in held]


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
    angle is folded Gaussian; with flips on, turn the facing axis half a
    turn with probability flip_prob. The world position is recomputed from
    the noisy pixel/depth through uplift + to_world. Clutter measurements
    (Poisson) are appended at uniform image positions. Draw order is fixed,
    so identical (scene, camera, rng state) gives identical streams.

    Two passes give every draw and bit of one flower-by-flower loop. The
    draw pass, the only code that draws, projects the scene (one stacked
    `project` call from BATCH_MIN flowers on, which takes no draw), then
    takes flower by flower the draws row (`_draw_row`) and the flip
    (`_flip_draw`).
    The arithmetic pass (`_held_detections`) then turns each detection's
    draws into its measurement and record, on arrays when the tick holds at
    least BATCH_MIN detections. Clutter is drawn after both passes.
    """
    measurements: list[Measurement] = []
    records: list[ShotRecord | None] = []
    held: list[_Held] = []
    if len(scene) >= BATCH_MIN:
        views = project(np.array([f.pose.position for f in scene]), cam, k)
    else:
        views = [project(f.pose.position, cam, k) for f in scene]
    for flower, obs in zip(scene, views):
        if obs is None:
            continue
        row = _draw_row(obs, noise.detect_prob, rng)
        if len(row) == 4:  # a miss
            records.append(ShotRecord(tick, camera_id, flower.id, False, float("nan"), float("nan"), float("nan")))
            continue
        held.append((len(records), flower, row, _flip_draw(flower.pose.rotation, row, noise, rng)))
        records.append(None)  # filled by the arithmetic pass
    for (slot, _, _, _), (m, rec) in zip(held, _held_detections(held, cam, k, noise, camera_id, tick)):
        measurements.append(m)
        records[slot] = rec
    n_clutter = int(rng.poisson(noise.clutter_rate)) if noise.clutter_rate > 0 else 0
    for _ in range(n_clutter):
        u = rng.uniform(0.0, k.width)
        v = rng.uniform(0.0, k.height)
        depth = rng.uniform(*noise.reliable_range)
        pix = PixelObs(u=float(u), v=float(v), ray_depth=float(depth))
        m = Measurement(pix, to_world(uplift(pix, k), cam), random_rotation(rng), tick)
        measurements.append(m)
        records.append(ShotRecord(tick, camera_id, -1, True, float("nan"), float("nan"), float("nan")))
    return measurements, records


def _flower_from_json(entry: dict, index: int, path: str) -> FlowerGT:
    """One `flowers` entry of scene file `path`: `id` a whole number >= 0,
    `position` three numbers, `rotation` nine, `pollinated` (optional) a JSON
    bool. A bad entry raises ParseError naming `path` and
    `flowers[index].<field>`."""
    where = f"{path}: flowers[{index}]"
    if not isinstance(entry, dict):
        raise ParseError(f"{where} must be a JSON object")
    try:
        # negative ids mark clutter in ShotRecord.flower_id
        fid = json_number(f"{where}.id", "int", entry["id"], 0)
        position = np.array(json_numbers(f"{where}.position", entry["position"]))
        if position.shape != (3,):
            raise ValueError(f"{where}.position must be three numbers")
        rot_values = json_numbers(f"{where}.rotation", entry["rotation"])
        pollinated = entry.get("pollinated", False)
        if not isinstance(pollinated, bool):
            raise TypeError(f"{where}.pollinated must be true or false")
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    try:
        rotation = rotation_from_list(rot_values)
    except ValueError as exc:
        raise InvariantViolation(f"{path}: flower id {fid}: {exc}") from exc
    if not (np.abs(position) <= MAX_LENGTH).all():  # NaN fails too
        raise InvariantViolation(f"{path}: flower id {fid}: position must be finite and within ±{MAX_LENGTH:g} m")
    return FlowerGT(id=fid, pose=Pose(position, rotation), pollinated=pollinated)


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
    flowers = [_flower_from_json(e, i, path) for i, e in enumerate(entries)]
    seen: set[int] = set()
    for f in flowers:
        if f.id in seen:
            raise InvariantViolation(f"{path}: flower id {f.id}: duplicate id")
        seen.add(f.id)
    return sorted(flowers, key=lambda f: f.id)


def save_scene(path: str, flowers: list[FlowerGT]) -> None:
    """Write a scene JSON file (deterministic key order)."""
    write_json(path, {
        "flowers": [
            {
                "id": f.id,
                "position": [float(x) for x in f.pose.position],
                "rotation": rotation_to_list(f.pose.rotation),
                "pollinated": f.pollinated,
            }
            for f in sorted(flowers, key=lambda f: f.id)
        ]
    })


@dataclass(frozen=True)
class SceneGenParams:
    """Settings of `generate_scene`; these defaults are the only copy.

    The coordinates of `center`, `spread` and `min_sep` are at most
    MAX_LENGTH (1 km) in magnitude, the size of a field of plants, and a
    tilt from world up lies in [0, 180] degrees. `count` is at most
    MAX_FLOWERS (10,000), 50 times the largest scene an experiment draws
    (200 flowers), because the oracle projects every flower on every tick.
    On one core of a shared 2-core x86-64 host, 10,000 flowers at `spread`
    1.0 and the stock `min_sep` take 0.8 s to draw. At the stock `spread`,
    200 flowers take 0.07 s, but 10,000 cannot fit, so the draw runs to its
    cap of 10000 * `count` draws: 1,000 flowers give up after their 10^7
    draws in 66 s.
    """

    count: int = 20
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spread: float = 0.12
    min_sep: float = 0.10
    max_tilt_deg: float = 45.0

    def __post_init__(self) -> None:
        check_fields(
            self,
            positive=("spread",),
            counts=(("count", 1),),
            ranges=(
                ("center", -MAX_LENGTH, MAX_LENGTH), ("spread", 0.0, MAX_LENGTH), ("min_sep", 0.0, MAX_LENGTH),
                ("max_tilt_deg", 0.0, 180.0), ("count", 1, MAX_FLOWERS),
            ),
        )
        if len(self.center) != 3:
            raise ValueError("center must be three numbers")

    def to_json(self) -> dict:
        return fields_to_json(self)


# generate_scene screens a block of candidate positions against the accepted
# ones in one candidate_pairs call of at most this many pairs, and the block's
# survivors of that screen against each other in one call of at most as many.
_SCENE_BLOCK_PAIRS = 1 << 16
_SCENE_SURVIVORS_MAX = math.isqrt(_SCENE_BLOCK_PAIRS)


def _accept_block(
    block: np.ndarray, accepted: np.ndarray, min_sep: float, missing: int
) -> tuple[int, list[int]]:
    """(rows used, rows kept) of a block of candidate positions, as the
    one-draw loop takes them: row r is kept when vnorm(block[r] - q) >=
    min_sep for every q in `accepted` and every kept row before it, and the
    block is used up to the row that keeps the `missing`-th point.

    `candidate_pairs` screens the block against `accepted`, then the
    survivors of that screen against each other, and vnorm decides each pair
    it passes. At most _SCENE_SURVIVORS_MAX survivors are taken: the block
    is used up to the first survivor past them.
    """
    rows = len(block)
    clash = set()
    for r, i in zip(*candidate_pairs(block, accepted, min_sep)):
        if r not in clash and vnorm(block[r] - accepted[i]) < min_sep:
            clash.add(r)
    survivors = [r for r in range(rows) if r not in clash]
    if len(survivors) > _SCENE_SURVIVORS_MAX:
        rows = survivors[_SCENE_SURVIVORS_MAX]
        del survivors[_SCENE_SURVIVORS_MAX:]
    sub = block[survivors]
    earlier: dict[int, list[int]] = {}
    for x, y in zip(*candidate_pairs(sub, sub, min_sep)):
        if x < y:
            earlier.setdefault(y, []).append(x)
    kept: list[int] = []
    kept_at: set[int] = set()
    for y, r in enumerate(survivors):
        if any(x in kept_at and vnorm(sub[y] - sub[x]) < min_sep for x in earlier.get(y, ())):
            continue
        kept_at.add(y)
        kept.append(r)
        if len(kept) == missing:
            return r + 1, kept
    return rows, kept


def generate_scene(rng: np.random.Generator, params: SceneGenParams) -> list[FlowerGT]:
    """Random scene: clustered positions with a minimum separation, facing
    directions within a cone of world-up, random twist about the facing axis.

    Positions are drawn one at a time, p = center + rng.normal(0.0, spread,
    size=3), and a draw is rejected when vnorm(p - q) < min_sep for an
    accepted q; the 10000 * count + 1-th draw gives up. The draws are taken
    in blocks of rows and screened by `_accept_block`, which keeps exactly
    the points that loop keeps; the generator is then moved back and
    forward by the rows used, so it ends where that loop leaves it. A block
    holds as many rows as the last block's acceptance rate says the missing
    points need, twice the last block's rows when it accepted none, and at
    most _SCENE_BLOCK_PAIRS / (accepted points) rows.
    """
    count, spread, min_sep = params.count, params.spread, params.min_sep
    center = np.asarray(params.center, dtype=float)
    max_attempts = 10000 * count
    accepted = np.empty((count, 3))
    n = attempts = 0
    rows = count
    while n < count:
        rows = min(rows, max_attempts + 1 - attempts, max(1, _SCENE_BLOCK_PAIRS // max(n, 1)))
        state = rng.bit_generator.state
        block = center + rng.normal(0.0, spread, size=(rows, 3))
        used, keep = _accept_block(block, accepted[:n], min_sep, count - n)
        accepted[n : n + len(keep)] = block[keep]
        n += len(keep)
        attempts += used
        if used < rows:
            rng.bit_generator.state = state
            rng.normal(0.0, spread, size=(used, 3))
        if attempts > max_attempts:
            raise ValueError("cannot satisfy min_sep; reduce it or increase spread")
        rows = -(-(count - n) * used // len(keep)) if keep else 2 * rows
    flowers = []
    for i, p in enumerate(accepted):
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
    """Single-shot oracle statistics: the tally of a run's shots, of a
    survey trial's and of a calibration sample set.

    Every visible flower is one opportunity, clutter none; a detection
    succeeds when its pixel error is within DETECT_SUCCESS_PX.
    """

    opportunities: int = 0
    px_errors: list[float] = field(default_factory=list)
    trans_errors: list[float] = field(default_factory=list)
    rot_errors: list[float] = field(default_factory=list)

    def add(self, records: list[ShotRecord]) -> None:
        """Tally flower records; clutter is skipped."""
        for rec in records:
            if rec.flower_id < 0:
                continue
            self.opportunities += 1
            if rec.detected:
                self.px_errors.append(rec.px_err)
                self.trans_errors.append(rec.trans_err)
                self.rot_errors.append(rec.rot_err_deg)

    @property
    def detections_within_px(self) -> int:
        return sum(1 for e in self.px_errors if e <= DETECT_SUCCESS_PX)

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


def _detection_errors(
    rows: np.ndarray, cam_pos: np.ndarray, cam_rot: np.ndarray, k: Intrinsics, noise: NoiseModel,
    flower_pos: np.ndarray, flower_rot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What `_noisy_position` and `_noisy_rotation` give for n detections,
    each from its draws row (SampleDraws.rows): the noisy pixels and depths
    (n, 3), the world positions (n, 3), the rotations (n, 3, 3), and the
    pixel, position and facing (zaxis_angle) errors (n, 3).

    The camera is one pose broadcast over the rows or one pose per row, and
    `flower_pos` one position per row or the origin, where x - 0.0 is x.
    The same operations in the same order on stacked arrays give the same
    bits, from_axis_angle's Rodrigues form included; the pixel error stays
    math.hypot, which numpy's hypot need not match. The oracle's batched
    ticks and calibration's tally both run here."""
    n = len(rows)
    u0, v0, d0, _, z_u, z_v, z_d = rows[:, :7].T
    pixels, ray, errors = np.empty((n, 3)), np.ones((n, 3)), np.empty((n, 3))
    pixels[:, 0] = u = u0 + (0.0 + noise.pixel_sigma * z_u)
    pixels[:, 1] = v = v0 + (0.0 + noise.pixel_sigma * z_v)
    lo, hi = noise.reliable_range
    sigma_d = np.where((lo <= d0) & (d0 <= hi), noise.depth_sigma_near, noise.depth_sigma_far)
    pixels[:, 2] = depth = np.maximum(d0 + (0.0 + sigma_d * z_d), MIN_DEPTH)
    ray[:, 0] = (u - k.cx) / k.fx
    ray[:, 1] = (v - k.cy) / k.fy
    x_cam = depth[:, None] * ray / np.sqrt(dots(ray, ray))[:, None]
    pos_world = (cam_rot @ x_cam[:, :, None])[:, :, 0] + cam_pos
    errors[:, 0] = [math.hypot(du, dv) for du, dv in zip((u - u0).tolist(), (v - v0).tolist())]
    off = pos_world - flower_pos
    errors[:, 1] = np.sqrt(dots(off, off))
    axis = rows[:, 7:10]
    axis = axis / np.sqrt(dots(axis, axis))[:, None]  # the drawn normals to a unit axis, as `_noisy_rotation`
    angle = np.abs(0.0 + math.radians(noise.rot_sigma) * rows[:, 10])
    x, y, z = (axis / np.sqrt(dots(axis, axis))[:, None]).T  # from_axis_angle's own division
    hat = np.zeros((n, 3, 3))
    hat[:, 0, 1], hat[:, 0, 2] = -z, y
    hat[:, 1, 0], hat[:, 1, 2] = z, -x
    hat[:, 2, 0], hat[:, 2, 1] = -y, x
    turn = I3 + np.sin(angle)[:, None, None] * hat + (1.0 - np.cos(angle))[:, None, None] * (hat @ hat)
    rots = turn @ flower_rot
    c = np.minimum(np.maximum(dots(rots[:, :, 2], flower_rot[:, :, 2]), -1.0), 1.0)
    errors[:, 2] = np.degrees(np.arccos(c))
    return pixels, pos_world, rots, errors


@dataclass(frozen=True, eq=False)
class SampleDraws:
    """The draws of one single_shot_stats oracle call, taken once by
    `draw_samples` under one detect_prob and intrinsics, so that every model
    with that detect_prob and without flips is tallied on them.

    Per sample: the flower rotation, the camera pose, and a row of 11
    numbers, the layout that the oracle's draw pass holds a detection in
    too: the projected u, v and ray depth, the detection uniform, the pixel
    and depth normals, the axis's three normals as drawn (not normalized;
    `_detection_errors` divides them by their norm) and the angle normal.
    A row is NaN out of view, and from its pixel normal on for a miss.
    """

    detect_prob: float
    k: Intrinsics
    flower_rot: np.ndarray  # (n, 3, 3)
    cam_pos: np.ndarray  # (n, 3)
    cam_rot: np.ndarray  # (n, 3, 3)
    rows: np.ndarray  # (n, 11)

    def tally(self, noise: NoiseModel, k: Intrinsics, n_samples: int) -> SingleShotStats:
        """The oracle call's tally under `noise`: its detections' errors as
        arrays, in sample order. A setting the draws were not taken under, or
        a model with flips, which draws more, raises ValueError."""
        if noise.flip_prob > 0.0:
            raise ValueError(f"held draws tally models without flips, not flip_prob={noise.flip_prob}")
        for name, got, held in (
            ("detect_prob", noise.detect_prob, self.detect_prob), ("k", k, self.k),
            ("n_samples", n_samples, len(self.rows)),
        ):
            if got != held:
                raise ValueError(f"draws taken at {name}={held!r} cannot tally {name}={got!r}")
        hit = np.flatnonzero(self.rows[:, 3] < self.detect_prob)  # NaN out of view
        errors = _detection_errors(
            self.rows[hit], self.cam_pos[hit], self.cam_rot[hit], k, noise, np.zeros(3), self.flower_rot[hit]
        )[3]
        opportunities = int(np.count_nonzero(~np.isnan(self.rows[:, 2])))
        return SingleShotStats(opportunities, *errors.T.tolist())


def draw_samples(detect_prob: float, k: Intrinsics, n_samples: int, rng: np.random.Generator) -> SampleDraws:
    """The draws that single_shot_stats' oracle call takes from `rng` under
    any model with this detect_prob and without flips: per sample
    `_draw_view`, then for a visible flower the oracle's own draw step,
    `_draw_row`. rng ends where that call leaves it.

    The first visible sample is also observed by observe_with_truth, on a
    copy of rng. If its detection or the copy's end state differs from these
    draws', the two have drifted apart, and this raises AssertionError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, not {n_samples}")
    n = n_samples
    flower_rot, cam_pos, cam_rot = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3, 3))
    rows = np.full((n, 11), np.nan)
    probe = None
    for i in range(n):
        pose, cam = _draw_view(rng)
        flower_rot[i], cam_pos[i], cam_rot[i] = pose.rotation, cam.position, cam.rotation
        obs = project(pose.position, cam, k)
        if obs is None:
            continue
        first = probe is None
        if first:
            probe = copy.deepcopy(rng)
            quiet = NoiseModel(detect_prob=detect_prob, clutter_rate=0.0)
            detected = observe_with_truth([FlowerGT(0, pose)], cam, k, quiet, probe)[1][0].detected
        row = _draw_row(obs, detect_prob, rng)
        rows[i, : len(row)] = row
        if first and (detected != (len(row) > 4) or probe.bit_generator.state != rng.bit_generator.state):
            raise AssertionError(f"sample {i}: observe_with_truth draws differently from draw_samples")
    return SampleDraws(detect_prob, k, flower_rot, cam_pos, cam_rot, rows)


def single_shot_stats(
    noise: NoiseModel, k: Intrinsics, n_samples: int, source: np.random.Generator | SampleDraws
) -> SingleShotStats:
    """Sample one flower from n_samples (>= 1) independent viewpoints and
    collect the oracle's single-shot error statistics (clutter excluded).

    From a generator, each sample draws a flower rotation and a viewpoint,
    then observes. From the SampleDraws of those settings, it tallies them
    instead (SampleDraws.tally): the same bits, without an oracle call.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, not {n_samples}")
    if isinstance(source, SampleDraws):
        return source.tally(noise, k, n_samples)
    stats = SingleShotStats()
    quiet = replace(noise, clutter_rate=0.0)
    flower = FlowerGT(id=0, pose=Pose(np.zeros(3), np.eye(3)))
    for _ in range(n_samples):
        flower.pose, cam = _draw_view(source)
        stats.add(observe_with_truth([flower], cam, k, quiet, source)[1])
    return stats
