"""Rotation-manifold geometry: nearest-rotation projection, shortest-arc and
axis-angle rotations, facing-axis distance for radially symmetric targets, the
JSON form of rotations, and the within-radius pair query that association
and spawn suppression share, with its prefilter, which scene generation uses
too.

The helpers `cross3`, `vnorm`, `det3`, `inv3` and the identity `I3` return
the same bits as `np.cross`, `np.linalg.norm`, `np.linalg.det`,
`np.linalg.inv` and `np.eye(3)` without their per-call overhead, which
dominated the oracle, camera and filter geometry at the few points per call
that they see. `svd_project` calls the LAPACK SVD gufunc behind
`np.linalg.svd` directly, for the same reason.

One rule keeps these shortcuts, and the geometry of the survey's view path,
bit-identical to the numpy forms they replace: elementwise arithmetic (+, -,
*, / and sqrt) may run on Python floats, in the same order, because IEEE 754
rounds each of those operations correctly wherever it runs; every reduction
(dot, @, det3, inv3, svd_project) stays one numpy call, because OpenBLAS
picks its summation order and fuses multiply-adds, and those decide the bits
of a reduction. A reduction on a stack, made as one gufunc or matmul call,
keeps each matrix's bits: the call runs the same LAPACK or BLAS routine on
each matrix in turn. On numpy 2.4.6 that held for inv, svd_f, det, @ and
(k, 3, 3) @ (k, 3, 1) (the matrix-vector product of each 3x3 form), with no
mismatch over 3,000 random stacks of k = 1-39; np.einsum does not keep the
bits.

Two cases keep the output bits without that rule. A dot with a basis vector
may be read off the other vector: its other products are exact zeros, so
every summation order returns that entry, up to the sign of a zero result.
And a verdict may be decided by a floating-point filter (Shewchuk, Adaptive
Precision Floating-Point Arithmetic and Fast Robust Geometric Predicates,
1997): a float form whose error bound, with the numpy form's, puts it clear
of the threshold returns the verdict, and the numpy form decides the rest,
as in `is_rotation`.

Rotations are plain 3x3 float64 numpy arrays (row-major direction cosines),
orthonormal with det = +1 within ORTHO_TOL. Angles are radians internally;
functions that report angles to callers return degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar
from numpy._core.umath import _make_extobj
from numpy.linalg import _umath_linalg

# Absolute degeneracy / orthonormality tolerance used throughout.
ORTHO_TOL = 1e-9

# Shared, so read-only: every use builds a new array from them.
EX = np.array([1.0, 0.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
I3 = np.eye(3)
for _shared in (EX, EZ, I3):
    _shared.flags.writeable = False

# is_rotation's filter leaves a verdict to numpy when a residual lies within
# this distance of tol; its docstring derives the bound the margin covers.
_FILTER_MARGIN = 1e-10

# candidate_pairs returns every pair when there are at most this many: below
# it, one exact distance per pair costs less than the prefilter.
ALL_PAIRS_MAX = 8


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


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, 3) arrays, each with the bits of
    a[i].dot(b[i]) (a (1,3) @ (3,1) matmul; (a * b).sum(axis=1) rounds
    differently), so np.sqrt(dots(a, a)) is vnorm of each row."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def det3(m: np.ndarray) -> np.floating:
    """np.linalg.det of a 3x3 float64 array: the LAPACK gufunc that it calls,
    without its wrapper, so the same bits and the same RuntimeWarning on
    NaN input."""
    return _umath_linalg.det(m, signature="d->d")


def _raise_svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _linalg_state(handler):
    """The error state np.linalg runs a LAPACK gufunc under, built once:
    `np.errstate` rebuilds it on every call, a fifth of inv3's cost."""
    return _make_extobj(call=handler, invalid="call", over="ignore", divide="ignore", under="ignore")


_SINGULAR_STATE = _linalg_state(_raise_singular)
_SVD_STATE = _linalg_state(_raise_svd_nonconvergence)


def inv3(m: np.ndarray) -> np.ndarray:
    """np.linalg.inv of a 3x3 float64 array, or of each matrix of a stack:
    the LAPACK gufunc that it calls, under the same error state, so the same
    bits and the same LinAlgError ("Singular matrix") on singular or
    non-finite input."""
    token = _extobj_contextvar.set(_SINGULAR_STATE)
    try:
        return _umath_linalg.inv(m, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vt) of a 3x3 float64 array, or of each matrix of a stack: the
    LAPACK gufunc that np.linalg.svd calls, under the same error state, so
    the same bits and the same LinAlgError ("SVD did not converge")."""
    token = _extobj_contextvar.set(_SVD_STATE)
    try:
        return _umath_linalg.svd_f(m, signature="d->ddd")
    finally:
        _extobj_contextvar.reset(token)


def is_rotation(m: np.ndarray, tol: float = ORTHO_TOL) -> bool:
    """True if m is orthonormal with det +1 within tol: every entry of
    m.T @ m - I3, and det3(m) - 1, within tol in absolute value, as numpy
    computes them.

    A floating-point filter decides most calls without numpy. It computes the
    same residuals, |g_ii - 1|, |g_ij| and |det - 1|, from the six distinct
    Gram entries and the cofactor determinant on Python floats, and returns
    a verdict when their largest, q, is at most tol - _FILTER_MARGIN (True)
    or above tol + _FILTER_MARGIN (False). That is numpy's verdict whenever
    the two forms' residuals differ by less than the margin, which this
    bound (u = 2**-53, gamma_k = k u / (1 - k u)) shows for a float64 tol
    in [0, 1] and computed diagonal residuals of at most 1. Those keep
    every entry finite and |m_ij| <= 1.5, and under numpy's default error
    state numpy's form then warns of nothing.

    - A Gram entry, a sum of three products in any order with or without
      FMA, as in BLAS gemm, syrk or a plain loop, is within
      gamma_3 * sum_k |m_ki m_kj| <= 2.0001 gamma_3 < 7e-16 of its exact
      value, on either path.
    - The cofactor expansion, five roundings deep, is within
      gamma_5 * per(|m|) <= gamma_5 * 6 * 1.5**3 < 1.2e-14 of det(m).
    - numpy's det is sign * exp(sum log|u_ii|) of LAPACK's LU with partial
      pivoting. With |l_ij| <= 1 and |u_ij| <= 4 * 1.5, LU is exact for
      m + E with |E_ij| <= gamma_3 * 18 < 6.1e-15 (Higham, Accuracy and
      Stability of Numerical Algorithms, Thm 9.3), so
      |det(m + E) - det(m)| <= 6 ((1.5 + 6.1e-15)**3 - 1.5**3) < 2.5e-13.
      Each |log|u_ii|| is at most 745, so with log and exp within 1 ulp the
      log sum is off by less than 8e-13 and the result, of magnitude at
      most 20.3, by less than 1.7e-11.
    - Subtracting 1.0 rounds a residual by less than 2e-15 on either path,
      and rounding tol -/+ _FILTER_MARGIN moves each limit by at most 2u.

    The sum, under 2e-11, leaves the margin of 1e-10 a factor of 5 to cover
    log and exp errors of a few ulp. Any other input, and any q within the
    margin of tol, is decided by numpy's form.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
    q0, q1, q2 = abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0), abs(c * c + f * f + i * i - 1.0)
    # A float32 tol would round both limits and compare in float32; NaN fails
    # a comparison, and an infinite entry the bound.
    if isinstance(tol, float) and 0.0 <= tol <= 1.0 and q0 <= 1.0 and q1 <= 1.0 and q2 <= 1.0:
        q = max(
            q0, q1, q2, abs(a * b + d * e + g * h), abs(a * c + d * f + g * i), abs(b * c + e * f + h * i),
            abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0),
        )
        if q <= tol - _FILTER_MARGIN:
            return True
        if q > tol + _FILTER_MARGIN:
            return False
    # The entries of m.T @ m - I3, row by row; g - 0.0 is g exactly, so it is
    # left out. A NaN entry fails its comparison, as it must.
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = (m.T @ m).tolist()
    return (
        abs(g00 - 1.0) <= tol and abs(g01) <= tol and abs(g02) <= tol
        and abs(g10) <= tol and abs(g11 - 1.0) <= tol and abs(g12) <= tol
        and abs(g20) <= tol and abs(g21) <= tol and abs(g22 - 1.0) <= tol
        and abs(det3(m) - 1.0) <= tol
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
    """Nearest rotation (Frobenius) to a 9-vector or 3x3 matrix, via SVD, or
    to each matrix of an (n, 3, 3) stack.

    Returns R = U diag(1, 1, det(UV^T)) V^T for M = U S V^T, which maximizes
    trace(R^T M) over SO(3). Raises DegenerateInput when rank(M) < 2, where
    the maximizer is not unique, and ValueError on a non-finite entry, on
    which LAPACK can return NaN singular values or never return.

    The SVD is the gufunc np.linalg.svd runs for a float64 3x3, under the same
    error state, so the same bits and the same LinAlgError. A stack runs each
    reduction once over all its matrices, which keeps each matrix's bits;
    when some matrix fails, the stack raises what its first failing matrix,
    in stack order, raises alone.
    """
    m = np.asarray(x, dtype=float)
    if m.ndim == 3:
        return _svd_project_stack(m)
    m = m.reshape(3, 3)
    if not all(map(math.isfinite, m.ravel().tolist())):
        raise ValueError("cannot project a matrix with a non-finite entry")
    u, s, vt = _svd(m)
    if s[1] <= ORTHO_TOL:
        raise DegenerateInput("second singular value ~0: nearest rotation not unique")
    flip = I3.copy()
    flip[2, 2] = det3(u @ vt)
    return u @ flip @ vt


def _svd_project_stack(m: np.ndarray) -> np.ndarray:
    """svd_project of each matrix of an (n, 3, 3) stack, as one stack.

    A non-finite entry is found before the SVD, which could hang on it. On
    any failure the matrices are projected one by one, in order, so the
    first failing one raises its own exception.
    """
    if np.isfinite(m).all():
        try:
            u, s, vt = _svd(m)
        except np.linalg.LinAlgError:
            pass
        else:
            if not (s[:, 1] <= ORTHO_TOL).any():
                flip = np.broadcast_to(I3, m.shape).copy()
                flip[:, 2, 2] = det3(u @ vt)
                return u @ flip @ vt
    return np.stack([svd_project(a) for a in m])


def zaxis_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in degrees between the z-columns of two rotations, in [0, 180].

    This is the orientation error for targets with radial symmetry about
    their z-axis: rotation about that axis does not change the result.
    """
    # max before min, each with the dot first, passes NaN through as np.clip does
    c = float(min(max(np.asarray(a)[:, 2] @ np.asarray(b)[:, 2], -1.0), 1.0))
    return math.degrees(np.arccos(c))  # the x * (180 / pi) of np.degrees


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
    x, y, z = axis.tolist()
    k = _hat((x / n, y / n, z / n))
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
    """Prefilter of `pairs_within`: a superset of its pairs, as index lists.

    Returns the index pairs (i, j) of points a[i], b[j] whose squared distance
    is within radius * (1 + 1e-9); pairs with a NaN distance stay too. The
    squared distance is (dx² + dy²) + dz², summed over three contiguous
    (na, nb) planes of squared coordinate differences: the sum, in the same
    order, that a reduction over the length-3 axis of one (na, nb, 3)
    broadcast makes. It can differ from a per-pair np.linalg.norm in the
    last bit; the slack only makes sure that no pair dropped here could pass
    the exact test.

    With at most ALL_PAIRS_MAX pairs in all, every pair is returned without
    the planes. Pairs come in row-major order either way.
    """
    na, nb = len(a), len(b)
    if na * nb <= ALL_PAIRS_MAX:
        return [i for i in range(na) for _ in range(nb)], list(range(nb)) * na
    at = np.asarray(a, dtype=float).reshape(-1, 3).T.copy()
    bt = np.asarray(b, dtype=float).reshape(-1, 3).T.copy()
    d = bt[:, None, :] - at[:, :, None]  # the planes dx, dy and dz, each (na, nb)
    d *= d
    sq = np.add(d[0], d[1], out=d[0])
    sq += d[2]
    limit = radius * (1.0 + 1e-9)
    # limit * |limit| is negative for a negative radius, which no distance is within.
    ia, ib = np.nonzero(~(sq > limit * abs(limit)))
    return ia.tolist(), ib.tolist()


def pairs_within(a, b, radius: float) -> list[tuple[int, int, float]]:
    """The pairs of 3-D points a[i], b[j] (float64 arrays) with
    vnorm(b[j] - a[i]) <= radius, as (i, j, that distance) in row-major order.

    The distance has the bits of np.linalg.norm(b[j] - a[i]), so a caller
    that sorts or compares these distances sees what a per-pair loop would.
    A pair with a NaN distance is not within any radius. `candidate_pairs`
    drops the pairs that are certainly out of range first.
    """
    ia, ib = candidate_pairs(a, b, radius)
    return [(i, j, d) for i, j in zip(ia, ib) if (d := vnorm(b[j] - a[i])) <= radius]


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
