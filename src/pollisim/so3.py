"""Rotation-manifold geometry: nearest-rotation projection, shortest-arc and
axis-angle rotations, facing-axis distance for radially symmetric targets, the
JSON forms of rotations and of flat config dataclasses, and the broadcast
distance prefilter that association and scene generation share.

Rotations are plain 3x3 float64 numpy arrays (row-major direction cosines),
orthonormal with det = +1 within ORTHO_TOL. Angles are radians internally;
functions that report angles to callers return degrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

# Absolute degeneracy / orthonormality tolerance used throughout.
ORTHO_TOL = 1e-9

EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


class DegenerateInput(ValueError):
    """Projection input is rank-deficient: the nearest rotation is not unique."""


class Antipodal(ValueError):
    """Shortest-arc rotation is undefined for exactly opposed directions."""


def is_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True if m is orthonormal with det +1 within tol."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    return (
        np.abs(m.T @ m - np.eye(3)).max() <= tol
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
    c = float(np.clip(np.asarray(a)[:, 2] @ np.asarray(b)[:, 2], -1.0, 1.0))
    return float(np.degrees(np.arccos(c)))


def aligning_rotation(a: np.ndarray, b: np.ndarray, fallback_axis: np.ndarray | None = None) -> np.ndarray:
    """Shortest-arc rotation mapping unit vector a onto unit vector b.

    For antipodal inputs the arc is ambiguous: rotates 180 deg about
    fallback_axis when given, else raises Antipodal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = float(np.clip(a @ b, -1.0, 1.0))
    if c < -1.0 + ORTHO_TOL:
        if fallback_axis is None:
            raise Antipodal("vectors are antipodal: shortest arc undefined")
        return from_axis_angle(fallback_axis, np.pi)
    v = np.cross(a, b)
    k = _hat(v)
    # Rodrigues with (1 - cos)/sin^2 = 1/(1 + cos); stable away from c = -1.
    return np.eye(3) + k + (k @ k) / (1.0 + c)


def _hat(v: np.ndarray) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation of `angle` radians about `axis` (normalized internally)."""
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n <= ORTHO_TOL:
        raise ValueError("axis is ~0")
    k = _hat(axis / n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


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
    q /= np.linalg.norm(q)
    w, x, y, z = q
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
    n = np.linalg.norm(v)
    while n <= 1e-12:  # astronomically unlikely; keeps the contract total
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
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


def fields_to_json(obj, exclude: tuple[str, ...] = ()) -> dict:
    """JSON form of a flat dataclass: its fields in declaration order, tuples as lists."""
    out = {}
    for f in fields(obj):
        if f.name not in exclude:
            value = getattr(obj, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def _number(name: str, kind: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number")
    if kind == "float":
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"{name} must be finite") from None
    if kind == "int" and (isinstance(value, int) or value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number")


def fields_from_json(cls, d: dict, exclude: tuple[str, ...] = ()):
    """Build dataclass `cls` from its JSON form, by one rule read from the
    field annotations (strings, as every module uses postponed annotations):
    a `float` field takes any number and stores float(x), an `int` field
    takes a whole number and stores int(x), a `tuple[float, ...]` field takes
    a list of numbers; bools are refused everywhere. Keys that are not
    fields, or are in `exclude`, raise TypeError."""
    if not isinstance(d, dict):
        raise TypeError("must be a JSON object")
    types = {f.name: f.type for f in fields(cls) if f.name not in exclude}
    kwargs = {}
    for name, value in d.items():
        kind = types.get(name)
        if kind is None:
            raise TypeError(f"{name} is not a field of this section")
        if kind.startswith("tuple["):
            if not isinstance(value, list):
                raise TypeError(f"{name} must be a list of numbers")
            kwargs[name] = tuple(_number(name, "float", x) for x in value)
        else:
            kwargs[name] = _number(name, kind, value)
    return cls(**kwargs)


def check_fields(obj, positive=(), nonnegative=(), counts=(), exclude=()) -> None:
    """Validate dataclass `obj`, raising ValueError that names the field.

    `counts` pairs an integer field (bools refused) with its least value;
    every other field outside `exclude` must hold finite numbers; `positive`
    fields must be > 0 and `nonnegative` ones >= 0.
    """
    for name, least in counts:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}")
    for f in fields(obj):
        if f.name in exclude:
            continue
        try:
            finite = bool(np.isfinite(getattr(obj, f.name)).all())
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"{f.name} must be finite")
    for name in positive:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be > 0")
    for name in nonnegative:
        if getattr(obj, name) < 0:
            raise ValueError(f"{name} must be >= 0")


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
