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
from .simworld import MAX_LENGTH, MIN_DEPTH, Measurement, NoiseModel
from .so3 import I3, inv3, pairs_within, svd_project

# for_noise expresses the pixel sigma in meters at a reference range (m),
# through the default camera's focal length (pixels).
FOR_NOISE_FOCAL = 640.0
FOR_NOISE_RANGE = 0.30

# Bounds of the variances, in m^2 for position and per rotation-matrix entry
# for rotation; TrackerParams' docstring says why each holds.
MIN_POS_VAR = 1e-20
MAX_POS_VAR = MAX_LENGTH**2
MAX_ROT_VAR = 1e4


@dataclass(frozen=True)
class TrackerParams:
    """Association, initialization, process and measurement noise settings.

    Position measurement variance is per-axis and band-dependent: `r_pos_near`
    applies to measurements whose ray depth fell inside `reliable_range`,
    `r_pos_far` outside it, mirroring the oracle's range-dependent depth
    noise so degraded readings are down-weighted rather than poisoning the
    fused estimate.

    Every float field is bounded:
    - the position variances (`init_pos_cov`, `r_pos_near`, `r_pos_far`) lie
      in [MIN_POS_VAR, MAX_POS_VAR] = [(0.1 nm)^2, (1 km)^2], and `q_pos` and
      `confident_trace` are at most MAX_POS_VAR: no camera places a flower
      finer than an atom, no belief is wider than the scene
      (`simworld.MAX_LENGTH`), and the floor keeps the inverse in a
      position update finite;
    - the rotation variances (`init_rot_cov`, `q_rot`, `r_rot`) are at most
      MAX_ROT_VAR (1e4): a rotation matrix's entries lie in [-1, 1], so
      such a variance already weighs a reading at 1e-4 of a unit-variance
      one;
    - `assoc_threshold` is at most MAX_LENGTH, and `reliable_range` lies in
      [MIN_DEPTH, MAX_LENGTH], as in `NoiseModel`.
    `for_noise` of any valid NoiseModel lies inside these bounds: at most
    3.4e5 m^2 for a position variance and 878 for a rotation variance.
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
            positive=("assoc_threshold", "init_rot_cov", "r_rot", "confident_trace"),
            counts=(("stale_ticks", 0), ("stale_min_hits", 1), ("confident_hits", 1)),
            ranges=(
                ("assoc_threshold", 0.0, MAX_LENGTH),
                ("init_pos_cov", MIN_POS_VAR, MAX_POS_VAR),
                ("init_rot_cov", 0.0, MAX_ROT_VAR),
                ("q_pos", 0.0, MAX_POS_VAR),
                ("q_rot", 0.0, MAX_ROT_VAR),
                ("r_pos_near", MIN_POS_VAR, MAX_POS_VAR),
                ("r_pos_far", MIN_POS_VAR, MAX_POS_VAR),
                ("r_rot", 0.0, MAX_ROT_VAR),
                ("reliable_range", MIN_DEPTH, MAX_LENGTH),
                ("confident_trace", 0.0, MAX_POS_VAR),
            ),
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
    servoing, which deliberately bypasses the filtered estimate); its tick is
    the track's last hit. A track's id is its key in `GlobalState.tracks`.
    """

    pos_mean: np.ndarray
    pos_cov: np.ndarray
    rot_mean: np.ndarray
    rot_cov: float
    hits: int
    pollinated: bool = False
    last_meas: Measurement | None = None


@dataclass(eq=False)
class GlobalState:
    """All tracks, keyed by id, plus id allocation and the current tick.

    Ids are never reused, so an id names one track for the whole run. Ids
    are allocated in increasing order and a track is inserted when it
    spawns, so `tracks` iterates in increasing id order.
    """

    tracks: dict[int, Track] = field(default_factory=dict)
    next_id: int = 0
    tick: int = 0


@dataclass(eq=False)
class Assignment:
    """Result of associating one measurement batch against the tracks.

    Each measurement index appears exactly once across pairs + spawns; each
    track id at most once.
    """

    pairs: list[tuple[int, int]]
    spawns: list[int]


def greedy_pairs(
    a: list[np.ndarray], b: list[np.ndarray], threshold: float,
    a_keys: list[int] | None = None, b_keys: list[int] | None = None,
) -> list[tuple[int, int]]:
    """Greedy closest-pair matching of points a[i] and b[j], in commit order.

    Repeatedly commits the smallest Euclidean distance within `threshold`
    (inclusive) among pairs whose keys are both still free. A point's key is
    its entry in `a_keys` (`b_keys`), or its index when those are None. Ties
    break on the lower key of `a`, then the lower key of `b`. Returns
    (key_a, key_b).

    The distances are `so3.pairs_within`'s, the bits of np.linalg.norm, so
    the commit order is that of a per-pair loop.
    """
    a_keys = range(len(a)) if a_keys is None else a_keys
    b_keys = range(len(b)) if b_keys is None else b_keys
    candidates = sorted((d, a_keys[i], b_keys[j]) for i, j, d in pairs_within(a, b, threshold))
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
    pairs = greedy_pairs(
        [t.pos_mean for t in gs.tracks.values()], [m.position_world for m in ms], threshold, list(gs.tracks)
    )
    used_m = {mi for _, mi in pairs}
    spawns = [mi for mi in range(len(ms)) if mi not in used_m]
    return Assignment(pairs=[(mi, tid) for tid, mi in pairs], spawns=spawns)


def predict(gs: GlobalState, tick: int, q_pos: float, q_rot: float) -> None:
    """Static-state prediction of the whole table to `tick`: means unchanged,
    every track's covariance inflated by the process noise of the ticks since
    `gs.tick`, and the clock moved to `tick`.

    Each track gets a new pos_cov array. A tick at or before `gs.tick`
    changes nothing.
    """
    ticks = tick - gs.tick
    if ticks <= 0:
        return
    pos_inc = ticks * q_pos * I3
    rot_inc = ticks * q_rot
    for t in gs.tracks.values():
        t.pos_cov = t.pos_cov + pos_inc
        t.rot_cov = t.rot_cov + rot_inc
    gs.tick = tick


def update_position(ts: list[Track], zs: list[np.ndarray], r_meas: list[float]) -> None:
    """Linear Kalman update with identity observation model on position:
    track ts[i] fuses reading zs[i], of per-axis variance r_meas[i].

    Every variance must be at least MIN_POS_VAR, the floor `TrackerParams`
    holds to; below about 1e-308 the gain's inverse is infinite and the
    update silently NaN. The whole batch is checked, and computed, before any
    track changes. Two or more tracks run as (k, 3, 3) stacks, which keep
    each track's bits (see `so3`); one track runs as 3x3 arrays, which cost
    less at that size.
    """
    if len(ts) == 1:
        t, z, r = ts[0], zs[0], r_meas[0]
        if not r >= MIN_POS_VAR:  # NaN too
            raise ValueError(f"r_meas must be >= {MIN_POS_VAR:g}")
        # p + r I, mean + K (z - mean) and 0.5 (cov + cov^T), each summed
        # in place on its first new array: IEEE addition and multiplication
        # commute, so the same bits with fewer temporaries.
        p = t.pos_cov
        s = r * I3
        s += p
        kgain = p @ inv3(s)
        mean = kgain @ (z - t.pos_mean)
        mean += t.pos_mean
        t.pos_mean = mean
        cov = (I3 - kgain) @ p
        sym = cov + cov.T  # symmetrize against round-off
        sym *= 0.5
        t.pos_cov = sym
        return
    r = np.array(r_meas, dtype=float)
    if not (r >= MIN_POS_VAR).all():
        raise ValueError(f"r_meas must be >= {MIN_POS_VAR:g}")
    p = np.array([t.pos_cov for t in ts])
    s = r[:, None, None] * I3
    s += p
    kgain = p @ inv3(s)
    mean = np.array([t.pos_mean for t in ts])
    # (k, 3, 3) @ (k, 3, 1) runs the matrix-vector product of each 3x3 form
    mean += (kgain @ (np.array(zs, dtype=float) - mean)[:, :, None])[:, :, 0]
    cov = (I3 - kgain) @ p
    sym = cov + cov.transpose(0, 2, 1)
    sym *= 0.5
    for t, a, c in zip(ts, mean, sym):
        t.pos_mean = a.copy()  # a view would keep the whole batch alive
        t.pos_cov = c


def update_rotation(ts: list[Track], zs: list[np.ndarray], r_meas: float) -> None:
    """Scalar-gain Kalman update on the flattened rotation, SVD re-projected:
    track ts[i] fuses rotation reading zs[i], of variance r_meas.

    The state is the 9-vector flatten(rot_mean); the posterior mean is
    projected back to the nearest rotation so the track always stays on the
    manifold. Two or more tracks are blended and projected as one (k, 3, 3)
    stack, with each track's bits, and no track changes unless all project.
    """
    if not r_meas > 0:  # NaN too
        raise ValueError("r_meas must be > 0")
    if len(ts) == 1:
        t = ts[0]
        kgain = t.rot_cov / (t.rot_cov + r_meas)
        # s + kgain * (z - s), blended as 3x3 and in place on the difference:
        # IEEE addition and multiplication commute, so the same bits.
        d = zs[0] - t.rot_mean
        d *= kgain
        d += t.rot_mean
        t.rot_mean = svd_project(d)
        t.rot_cov = (1.0 - kgain) * t.rot_cov
        return
    kgains = [t.rot_cov / (t.rot_cov + r_meas) for t in ts]
    s = np.array([t.rot_mean for t in ts])
    d = np.array(zs, dtype=float) - s
    d *= np.array(kgains)[:, None, None]
    d += s
    for t, r, kgain in zip(ts, svd_project(d), kgains):
        t.rot_mean = r.copy()
        t.rot_cov = (1.0 - kgain) * t.rot_cov


def is_confident(t: Track, params: TrackerParams) -> bool:
    """Well-supported, low-variance track: hits and trace(pos_cov) gates."""
    return t.hits >= params.confident_hits and bool(t.pos_cov.trace() < params.confident_trace)


def remove_track(gs: GlobalState, track_id: int) -> None:
    """Drop a track outright (used when direct observation refutes it).

    A real flower re-seeds a fresh track within a few ticks; a clutter-born
    phantom stays gone instead of being re-targeted forever.
    """
    gs.tracks.pop(track_id, None)


def _spawn(m: Measurement, params: TrackerParams) -> Track:
    return Track(
        pos_mean=np.asarray(m.position_world, dtype=float).copy(),
        pos_cov=params.init_pos_cov * I3,
        rot_mean=np.asarray(m.rotation, dtype=float).copy(),
        rot_cov=params.init_rot_cov,
        hits=1,
        last_meas=m,
    )


def ingest(gs: GlobalState, ms: list[Measurement], params: TrackerParams) -> GlobalState:
    """Apply one measurement batch from a single camera tick.

    Predicts the table to the batch tick with one `predict` call, which also
    moves gs.tick, associates, runs one position and one rotation update over
    all matched pairs, spawns tracks for the rest, and prunes stale
    low-support tracks. Updates gs and its tracks in place and returns gs.
    An empty batch changes nothing, the clock included.

    An unassigned measurement spawns only if no track (as updated by this
    batch, spawns excluded) lies within the association gate, by the same
    `so3.pairs_within` distances as association. A spawn takes the next id.
    """
    if not ms:
        return gs
    batch_tick = ms[0].tick
    if any(m.tick != batch_tick for m in ms):
        raise ValueError("measurement batch must come from a single tick")
    predict(gs, batch_tick, params.q_pos, params.q_rot)

    asg = associate(ms, gs, params.assoc_threshold)
    if asg.pairs:
        lo, hi = params.reliable_range
        ts, positions, rotations, r_pos = [], [], [], []
        for mi, tid in asg.pairs:
            m = ms[mi]
            t = gs.tracks[tid]
            t.hits += 1
            t.last_meas = m
            ts.append(t)
            positions.append(m.position_world)
            rotations.append(m.rotation)
            r_pos.append(params.r_pos_near if lo <= m.pixel.ray_depth <= hi else params.r_pos_far)
        update_position(ts, positions, r_pos)
        update_rotation(ts, rotations, params.r_rot)
    spawn_ms = [ms[mi] for mi in asg.spawns]
    suppressed: set[int] = set()
    if spawn_ms and asg.pairs:
        # Duplicate suppression: an unassigned measurement still inside the
        # association gate of some (already taken) track must not seed a
        # twin next to it. Measurements farther than the threshold from
        # every track always spawn. Without a pair, association found no
        # track within the gate and no track has moved since, so there is
        # nothing to suppress.
        means = [t.pos_mean for t in gs.tracks.values()]
        positions = [m.position_world for m in spawn_ms]
        suppressed = {j for _, j, _ in pairs_within(means, positions, params.assoc_threshold)}
    for j, m in enumerate(spawn_ms):
        if j not in suppressed:
            gs.tracks[gs.next_id] = _spawn(m, params)
            gs.next_id += 1

    for tid in [
        tid for tid, t in gs.tracks.items()
        if gs.tick - t.last_meas.tick > params.stale_ticks and t.hits < params.stale_min_hits
    ]:
        del gs.tracks[tid]
    return gs
