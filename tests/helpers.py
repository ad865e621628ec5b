"""Shared test oracles, independent of the implementation paths they check."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import warnings

import numpy as np

from pollisim.camera import PixelObs
from pollisim.configfields import fields_from_json
from pollisim.simworld import Measurement
from pollisim.so3 import Pose, axis_angle_of, from_axis_angle

# The benchmark's recorded output digests, per workload and benchmark seed.
BENCH_DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "digests.json")


def assert_json_form(obj) -> None:
    """A config dataclass maps 1:1 to its JSON form: one key per field, in
    declaration order, and the serialized form reads back as an equal object."""
    form = obj.to_json()
    assert list(form) == [f.name for f in dataclasses.fields(obj)]
    assert fields_from_json(type(obj), json.loads(json.dumps(form))) == obj


def geodesic_midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Midpoint of the geodesic from a to b via axis-angle interpolation."""
    axis, angle = axis_angle_of(a.T @ b)
    return a @ from_axis_angle(axis, 0.5 * angle)


def brute_force_assignment(
    m_pos: np.ndarray, t_pos: np.ndarray, threshold: float
) -> tuple[int, float, set[tuple[int, int]]]:
    """Optimal assignment by exhaustive enumeration.

    Maximizes pair count, then minimizes total Euclidean distance; per-pair
    distances above the threshold are infeasible. Returns (count, total
    distance, pair set of (measurement index, track index)).
    """
    nm, nt = len(m_pos), len(t_pos)
    if nm == 0 or nt == 0:
        return 0, 0.0, set()
    dist = np.linalg.norm(m_pos[:, None, :] - t_pos[None, :, :], axis=-1)
    for k in range(min(nm, nt), -1, -1):
        best_cost = None
        best_pairs: set[tuple[int, int]] = set()
        for m_sub in itertools.combinations(range(nm), k):
            for t_perm in itertools.permutations(range(nt), k):
                if any(dist[mi, ti] > threshold for mi, ti in zip(m_sub, t_perm)):
                    continue
                cost = float(sum(dist[mi, ti] for mi, ti in zip(m_sub, t_perm)))
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_pairs = set(zip(m_sub, t_perm))
        if best_cost is not None:
            return k, best_cost, best_pairs
    return 0, 0.0, set()


def outcome_with_warnings(fn, *args):
    """(the float64 bytes of what fn returns, of a Pose's position and
    rotation for a Pose, or the ValueError it raises; the warnings it emits)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
            if isinstance(out, Pose):
                out = np.concatenate([out.position, out.rotation.ravel()])
            out = np.asarray(out, dtype=float).tobytes()
        except ValueError as exc:  # np.linalg.LinAlgError too
            out = repr(exc)
    return out, [(w.category, str(w.message)) for w in caught]


def ks_uniform_pvalue(samples: np.ndarray, lo: float, hi: float) -> float:
    """Asymptotic Kolmogorov-Smirnov p-value against Uniform(lo, hi)."""
    x = np.sort((np.asarray(samples, dtype=float) - lo) / (hi - lo))
    n = len(x)
    cdf_hi = np.arange(1, n + 1) / n
    cdf_lo = np.arange(0, n) / n
    d = max(float(np.max(cdf_hi - x)), float(np.max(x - cdf_lo)))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    p = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2) for k in range(1, 101))
    return min(max(p, 0.0), 1.0)


def make_measurement(
    position,
    rotation: np.ndarray | None = None,
    tick: int = 0,
    depth: float = 0.30,
) -> Measurement:
    """Measurement literal for tracker tests; defaults land in the depth band."""
    return Measurement(
        pixel=PixelObs(u=640.0, v=360.0, ray_depth=depth),
        position_world=np.asarray(position, dtype=float),
        rotation=np.eye(3) if rotation is None else rotation,
        tick=tick,
    )
