"""Rotation-manifold geometry: nearest-rotation projection, shortest-arc and
axis-angle rotations, facing-axis distance for radially symmetric targets, the
JSON form of rotations, and the broadcast distance prefilter that association
and scene generation share.

The 3-vector helpers `cross3`, `vnorm` and the identity `I3` return the same
bits as `np.cross`, `np.linalg.norm` and `np.eye(3)` without their per-call
overhead, which dominated the oracle and camera geometry.

Rotations are plain 3x3 float64 numpy arrays (row-major direction cosines),
orthonormal with det = +1 within ORTHO_TOL. Angles are radians internally;
functions that report angles to callers return degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute degeneracy / orthonormality tolerance used throughout.
ORTHO_TOL = 1e-9

# Shared, so read-only: every use builds a new array from them.
EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
I3 = np.eye(3)
for _shared in (EX, EZ, I3):
    _shared.flags.writeable = False


class DegenerateInput(ValueError):
    """Projection input is rank-deficient: the nearest rotation is not unique."""


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, written out: the same products and
    differences in the same order, so the same bits."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def vnorm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float64 array: the same sqrt(v.dot(v)) that
    it computes, without its wrapper."""
    return math.sqrt(v.dot(v))


def is_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True if m is orthonormal with det +1 within tol."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    return (
        np.abs(m.T @ m - I3).max() <= tol
        and abs(np.linalg.det(m) - 1.0) <= tol
    )


def require_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> np.ndarray:
    """Validate rotation invariants and return a float64 copy."""
    out = np.array(m, dtype=float)
    if not is_rotation(out, tol):
        raise ValueError("matrix is not a rotation: R^T R != I or det != +1")
    return out


def flatten(r: np.ndarray) -> np.ndarray:
    """Row-major 9-vector of a 3x3 matrix."""
    return np.asarray(r, dtype=float).reshape(9).copy()


def svd_project(x: np.ndarray) -> np.ndarray:
    """Nearest rotation (Frobenius) to a 9-vector or 3x3 matrix, via SVD.

    Returns R = U diag(1, 1, det(UV^T)) V^T for M = U S V^T, which maximizes
    trace(R^T M) over SO(3). Raises DegenerateInput when rank(M) < 2, where
    the maximizer is not unique.
    """
    m = np.asarray(x, dtype=float).reshape(3, 3)
    u, s, vt = np.linalg.svd(m)
    if s[1] <= ORTHO_TOL:
        raise DegenerateInput("second singular value ~0: nearest rotation not unique")
    d = np.linalg.det(u @ vt)
    return u @ np.diag([1.0, 1.0, d]) @ vt


def zaxis_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in degrees between the z-columns of two rotations, in [0, 180].

    This is the orientation error for targets with radial symmetry about
    their z-axis: rotation about that axis does not change the result.
    """
    # max before min, each with the dot first, passes NaN through as np.clip does
    c = float(min(max(np.asarray(a)[:, 2] @ np.asarray(b)[:, 2], -1.0), 1.0))
    return float(np.degrees(np.arccos(c)))


def aligning_rotation(b: np.ndarray) -> np.ndarray:
    """Shortest-arc rotation mapping +z onto unit vector b.

    For b = -z the arc is ambiguous: the half turn about the x-axis.
    """
    b = np.asarray(b, dtype=float)
    c = float(np.clip(EZ @ b, -1.0, 1.0))
    if c < -1.0 + ORTHO_TOL:
        return from_axis_angle(EX, np.pi)
    k = _hat(cross3(EZ, b))
    # Rodrigues with (1 - cos)/sin^2 = 1/(1 + cos); stable away from c = -1.
    return I3 + k + (k @ k) / (1.0 + c)


def _hat(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation of `angle` radians about `axis` (normalized internally)."""
    axis = np.asarray(axis, dtype=float)
    n = vnorm(axis)
    if n <= ORTHO_TOL:
        raise ValueError("axis is ~0")
    k = _hat((axis / n).tolist())
    return I3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rot_x(angle: float) -> np.ndarray:
    return from_axis_angle(EX, angle)


def rot_z(angle: float) -> np.ndarray:
    return from_axis_angle(EZ, angle)


def rotation_angle(r: np.ndarray) -> float:
    """Total rotation angle of r in radians, in [0, pi]."""
    c = (float(np.trace(np.asarray(r, dtype=float))) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def axis_angle_of(r: np.ndarray) -> tuple[np.ndarray, float]:
    """(unit axis, angle in radians) of a rotation; axis is e_x at angle 0.

    Near angle pi the skew part vanishes, so the axis is recovered from the
    dominant column of (R + I)/2 instead.
    """
    r = np.asarray(r, dtype=float)
    angle = rotation_angle(r)
    if angle < 1e-12:
        return EX.copy(), 0.0
    if angle < np.pi - 1e-6:
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        return v / (2.0 * np.sin(angle)), angle
    b = 0.5 * (r + np.eye(3))
    col = int(np.argmax(np.diag(b)))
    axis = b[:, col]
    return axis / np.linalg.norm(axis), angle


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform (Haar) random rotation via a normalized 4D Gaussian quaternion."""
    q = rng.normal(size=4)
    q /= vnorm(q)
    w, x, y, z = q.tolist()
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere."""
    v = rng.normal(size=3)
    n = vnorm(v)
    while n <= 1e-12:  # astronomically unlikely; keeps the contract total
        v = rng.normal(size=3)
        n = vnorm(v)
    return v / n


def random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3, 3) stack of uniform random rotations (vectorized quaternions)."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def candidate_pairs(a, b, radius: float) -> tuple[list[int], list[int]]:
    """Prefilter for "distance within radius" tests between two sets of 3-D points.

    Returns the index pairs (i, j) of points a[i], b[j] whose squared distance,
    computed in one broadcast, is within radius * (1 + 1e-9); pairs with a
    NaN distance stay too. The broadcast sum can differ from a per-pair
    np.linalg.norm in the last bit, so callers recompute each candidate's
    distance exactly and apply their own <= or < test; the slack only makes
    sure that no pair dropped here could have passed that test.
    """
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    sq = b[None, :, :] - a[:, None, :]
    np.multiply(sq, sq, out=sq)  # in place: scoring 60 flowers x 200 tracks needs no second copy
    limit = radius * (1.0 + 1e-9)
    # limit * |limit| is negative for a negative radius, which no distance is within.
    ia, ib = np.nonzero(~(sq.sum(axis=2) > limit * abs(limit)))
    return ia.tolist(), ib.tolist()


def rotation_to_list(r: np.ndarray) -> list[float]:
    """Row-major 9-element JSON form of a rotation."""
    return [float(v) for v in flatten(r)]


def rotation_from_list(values: list[float]) -> np.ndarray:
    """Parse and validate a row-major 9-element rotation; rejects violations."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (9,):
        raise ValueError(f"rotation JSON must have 9 elements, got {arr.shape}")
    return require_rotation(arr.reshape(3, 3))


@dataclass(eq=False)
class Pose:
    """Rigid pose: world position in meters plus a rotation."""

    position: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.eye(3))

    def copy(self) -> "Pose":
        return Pose(self.position.copy(), self.rotation.copy())
