"""Global flower state: per-flower Kalman filtering of position (R3) and
rotation (R9 with SVD re-projection), plus greedy nearest-neighbor association
of incoming measurements to tracks.

Flowers are quasi-static, so the filter uses a static process model (means
unchanged under prediction, covariance inflated by per-tick process noise)
and direct observations of position and of the flattened rotation matrix.
The update is therefore linear even though the surrounding pipeline calls it
a Kalman filter in the extended tradition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .configfields import check_fields, fields_to_json
from .simworld import Measurement, NoiseModel
from .so3 import I3, candidate_pairs, flatten, svd_project

# for_noise expresses the pixel sigma in meters at a reference range (m),
# through the default camera's focal length (pixels).
FOR_NOISE_FOCAL = 640.0
FOR_NOISE_RANGE = 0.30


@dataclass(frozen=True)
class TrackerParams:
    """Association, initialization, process and measurement noise settings.

    Position measurement variance is per-axis and band-dependent: `r_pos_near`
    applies to measurements whose ray depth fell inside `reliable_range`,
    `r_pos_far` outside it, mirroring the oracle's range-dependent depth
    noise so degraded readings are down-weighted rather than poisoning the
    fused estimate.
    """

    assoc_threshold: float = 0.05
    init_pos_cov: float = 0.03**2
    init_rot_cov: float = 0.16
    q_pos: float = 1e-6
    q_rot: float = 1e-4
    r_pos_near: float = 1.2e-5
    r_pos_far: float = 2.9e-3
    r_rot: float = 0.16
    reliable_range: tuple[float, float] = (0.07, 0.50)
    stale_ticks: int = 500
    stale_min_hits: int = 3
    confident_trace: float = 1e-4
    confident_hits: int = 3

    @classmethod
    def for_noise(cls, noise: NoiseModel) -> "TrackerParams":
        """Derive measurement variances from a (calibrated) noise model.

        Per-axis position variance mixes the depth sigma with the lateral
        pixel sigma expressed in meters at FOR_NOISE_RANGE; the rotation
        variance is the expected per-component R9 residual for an axis-angle
        perturbation of scale rot_sigma.
        """
        lat = noise.pixel_sigma / FOR_NOISE_FOCAL * FOR_NOISE_RANGE
        r_near = (noise.depth_sigma_near**2 + 2.0 * lat**2) / 3.0
        r_far = (noise.depth_sigma_far**2 + 2.0 * lat**2) / 3.0
        psi = np.radians(noise.rot_sigma)
        # E||R_meas - R_true||_F^2 = E[8 sin^2(psi/2)] ~= 2 E[psi^2]; spread over 9 components.
        r_rot = max(2.0 * psi**2 / 9.0, 1e-6)
        return cls(
            r_pos_near=max(float(r_near), 1e-12),
            r_pos_far=max(float(r_far), 1e-12),
            r_rot=float(r_rot),
            init_rot_cov=float(r_rot),
            reliable_range=noise.reliable_range,
        )

    def __post_init__(self) -> None:
        check_fields(
            self,
            positive=(
                "assoc_threshold", "init_pos_cov", "init_rot_cov", "r_pos_near", "r_pos_far", "r_rot",
                "confident_trace",
            ),
            nonnegative=("q_pos", "q_rot"),
            counts=(("stale_ticks", 0), ("stale_min_hits", 1), ("confident_hits", 1)),
        )
        if len(self.reliable_range) != 2 or not self.reliable_range[0] < self.reliable_range[1]:
            raise ValueError("reliable_range must be two numbers [lo, hi] with lo < hi")

    def to_json(self) -> dict:
        return fields_to_json(self)


@dataclass(eq=False)
class Track:
    """Filtered belief about one flower.

    pos_cov is a full 3x3 SPD matrix; rot_cov is a single isotropic variance
    over the flattened-rotation coordinates. rot_mean is re-projected onto
    SO(3) after every update, so it always satisfies rotation invariants.
    last_meas is the most recent fused raw measurement (used by visual
    servoing, which deliberately bypasses the filtered estimate).
    """

    id: int
    pos_mean: np.ndarray
    pos_cov: np.ndarray
    rot_mean: np.ndarray
    rot_cov: float
    hits: int
    last_tick: int
    pollinated: bool = False
    last_meas: Measurement | None = None


def _evolve(t: Track, **changes) -> Track:
    """A fresh Track with `changes` applied: dataclasses.replace without the
    per-field __init__ round trip."""
    new = object.__new__(Track)
    new.__dict__ = {**t.__dict__, **changes}
    return new


@dataclass(eq=False)
class GlobalState:
    """All tracks plus id allocation, current tick, and arm target claims."""

    tracks: list[Track] = field(default_factory=list)
    next_id: int = 0
    tick: int = 0
    claims: dict[int, int] = field(default_factory=dict)


@dataclass(eq=False)
class Assignment:
    """Result of associating one measurement batch against the tracks.

    Each measurement index appears exactly once across pairs + spawns; each
    track id at most once.
    """

    pairs: list[tuple[int, int]]
    spawns: list[int]


def greedy_pairs(
    a: list[tuple[int, np.ndarray]], b: list[tuple[int, np.ndarray]], threshold: float
) -> list[tuple[int, int]]:
    """Greedy closest-pair matching of keyed points, in commit order.

    Repeatedly commits the smallest Euclidean distance within `threshold`
    (inclusive) among pairs whose keys are both still free. Ties break on
    the lower key of `a`, then the lower key of `b`. Returns (key_a, key_b).

    One broadcast over all pairs (`so3.candidate_pairs`) drops the pairs
    that are certainly out of range; each remaining pair's distance is then
    recomputed exactly as float(np.linalg.norm(pb - pa)) and gated with
    `<=`, so the distances, and hence the commit order, are those of a
    per-pair loop.
    """
    ia, ib = candidate_pairs([p for _, p in a], [p for _, p in b], threshold)
    candidates: list[tuple[float, int, int]] = []
    for i, j in zip(ia, ib):
        ka, pa = a[i]
        kb, pb = b[j]
        d = float(np.linalg.norm(pb - pa))
        if d <= threshold:
            candidates.append((d, ka, kb))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, ka, kb in candidates:
        if ka in used_a or kb in used_b:
            continue
        used_a.add(ka)
        used_b.add(kb)
        pairs.append((ka, kb))
    return pairs


def associate(ms: list[Measurement], gs: GlobalState, threshold: float) -> Assignment:
    """Greedy global-nearest-neighbor association.

    Repeatedly commits the smallest Euclidean (measurement, track) distance
    below `threshold` among still-unassigned pairs; leftover measurements
    spawn. Ties break on lower track id, then lower measurement index, which
    makes the result deterministic and permutation-stable.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    tracks = [(t.id, t.pos_mean) for t in gs.tracks]
    pairs = greedy_pairs(tracks, list(enumerate(m.position_world for m in ms)), threshold)
    used_m = {mi for _, mi in pairs}
    spawns = [mi for mi in range(len(ms)) if mi not in used_m]
    return Assignment(pairs=[(mi, tid) for tid, mi in pairs], spawns=spawns)


def predict(t: Track, ticks: int, q_pos: float, q_rot: float) -> Track:
    """Static-state prediction: means unchanged, covariance inflated."""
    if ticks < 0:
        raise ValueError("ticks must be >= 0")
    if ticks == 0:
        return t
    return _evolve(t, pos_cov=t.pos_cov + ticks * q_pos * I3, rot_cov=t.rot_cov + ticks * q_rot)


def update_position(t: Track, z: np.ndarray, r_meas: float) -> Track:
    """Linear Kalman update with identity observation model on position."""
    if r_meas <= 0:
        raise ValueError("r_meas must be > 0")
    p = t.pos_cov
    kgain = p @ np.linalg.inv(p + r_meas * I3)
    mean = t.pos_mean + kgain @ (np.asarray(z, dtype=float) - t.pos_mean)
    cov = (I3 - kgain) @ p
    cov = 0.5 * (cov + cov.T)  # symmetrize against round-off
    return _evolve(t, pos_mean=mean, pos_cov=cov)


def update_rotation(t: Track, z: np.ndarray, r_meas: float) -> Track:
    """Scalar-gain Kalman update on the flattened rotation, SVD re-projected.

    The state is the 9-vector flatten(rot_mean); the posterior mean is
    projected back to the nearest rotation so the track always stays on the
    manifold.
    """
    if r_meas <= 0:
        raise ValueError("r_meas must be > 0")
    kgain = t.rot_cov / (t.rot_cov + r_meas)
    s = flatten(t.rot_mean)
    s_post = s + kgain * (flatten(z) - s)
    return _evolve(t, rot_mean=svd_project(s_post), rot_cov=(1.0 - kgain) * t.rot_cov)


def is_confident(t: Track, params: TrackerParams) -> bool:
    """Low-variance, well-supported track: trace(pos_cov) and hits gates."""
    return float(np.trace(t.pos_cov)) < params.confident_trace and t.hits >= params.confident_hits


def get_track(gs: GlobalState, track_id: int) -> Track | None:
    for t in gs.tracks:
        if t.id == track_id:
            return t
    return None


def mark_pollinated(gs: GlobalState, track_id: int) -> None:
    """Record a pollination attempt against a track (at most once per track)."""
    t = get_track(gs, track_id)
    if t is not None:
        t.pollinated = True
    gs.claims.pop(track_id, None)


def claim_target(gs: GlobalState, track_id: int, arm_id: int) -> bool:
    """Try to claim a track for one arm; False if another arm holds it."""
    holder = gs.claims.get(track_id)
    if holder is not None and holder != arm_id:
        return False
    gs.claims[track_id] = arm_id
    return True


def release_target(gs: GlobalState, track_id: int, arm_id: int) -> None:
    if gs.claims.get(track_id) == arm_id:
        gs.claims.pop(track_id, None)


def remove_track(gs: GlobalState, track_id: int) -> None:
    """Drop a track outright (used when direct observation refutes it).

    A real flower re-seeds a fresh track within a few ticks; a clutter-born
    phantom stays gone instead of being re-targeted forever.
    """
    gs.tracks = [t for t in gs.tracks if t.id != track_id]
    gs.claims.pop(track_id, None)


def _spawn(gs: GlobalState, m: Measurement, params: TrackerParams) -> Track:
    t = Track(
        id=gs.next_id,
        pos_mean=np.asarray(m.position_world, dtype=float).copy(),
        pos_cov=params.init_pos_cov * I3,
        rot_mean=np.asarray(m.rotation, dtype=float).copy(),
        rot_cov=params.init_rot_cov,
        hits=1,
        last_tick=m.tick,
        last_meas=m,
    )
    gs.next_id += 1
    return t


def ingest(gs: GlobalState, ms: list[Measurement], params: TrackerParams) -> GlobalState:
    """Apply one measurement batch from a single camera tick.

    Predicts all tracks to the batch tick, associates, runs the position and
    rotation updates per matched pair, spawns tracks for the rest, and prunes
    stale low-support tracks. Mutates and returns gs; tracks themselves are
    value-like (updates produce fresh Track objects, and only those fresh
    objects get their hits, last_tick and last_meas set), so snapshots taken
    before ingest stay coherent.

    An unassigned measurement spawns only if no track (as updated by this
    batch, spawns excluded) lies within the association gate. That test uses
    the same broadcast prefilter and exact per-pair recheck as association.
    """
    if not ms:
        return gs
    batch_tick = ms[0].tick
    if any(m.tick != batch_tick for m in ms):
        raise ValueError("measurement batch must come from a single tick")
    dt = max(0, batch_tick - gs.tick)
    gs.tracks = [predict(t, dt, params.q_pos, params.q_rot) for t in gs.tracks]
    gs.tick = max(gs.tick, batch_tick)

    asg = associate(ms, gs, params.assoc_threshold)
    by_id = {t.id: i for i, t in enumerate(gs.tracks)}
    for mi, tid in asg.pairs:
        m = ms[mi]
        lo, hi = params.reliable_range
        r_pos = params.r_pos_near if lo <= m.pixel.ray_depth <= hi else params.r_pos_far
        t = gs.tracks[by_id[tid]]
        t = update_position(t, m.position_world, r_pos)
        t = update_rotation(t, m.rotation, params.r_rot)
        t.hits += 1
        t.last_tick = batch_tick
        t.last_meas = m
        gs.tracks[by_id[tid]] = t
    spawn_ms = [ms[mi] for mi in asg.spawns]
    suppressed: set[int] = set()
    if spawn_ms and gs.tracks:
        # Duplicate suppression: an unassigned measurement still inside the
        # association gate of some (already taken) track must not seed a
        # twin next to it. Measurements farther than the threshold from
        # every track always spawn.
        means = [t.pos_mean for t in gs.tracks]
        positions = [m.position_world for m in spawn_ms]
        ti, si = candidate_pairs(means, positions, params.assoc_threshold)
        suppressed = {
            j for i, j in zip(ti, si)
            if float(np.linalg.norm(positions[j] - means[i])) <= params.assoc_threshold
        }
    for j, m in enumerate(spawn_ms):
        if j not in suppressed:
            gs.tracks.append(_spawn(gs, m, params))

    survivors = []
    for t in gs.tracks:
        stale = gs.tick - t.last_tick > params.stale_ticks and t.hits < params.stale_min_hits
        if stale:
            gs.claims.pop(t.id, None)
        else:
            survivors.append(t)
    gs.tracks = survivors
    return gs
