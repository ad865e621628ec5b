import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pollisim.so3 import (
    ORTHO_TOL,
    DegenerateInput,
    EZ,
    aligning_rotation,
    axis_angle_of,
    cross3,
    flatten,
    from_axis_angle,
    is_rotation,
    random_rotation,
    random_rotations,
    rot_x,
    rot_z,
    rotation_from_list,
    rotation_to_list,
    svd_project,
    vnorm,
    zaxis_angle,
)


def test_svd_project_identity():
    assert_allclose(svd_project(flatten(np.eye(3))), np.eye(3), atol=1e-12)


def test_svd_project_scale_invariance():
    r = rot_z(np.radians(30))
    assert_allclose(svd_project(flatten(2.0 * r)), r, atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.uniform(-1, 1, size=9)
        s = rng.uniform(0.1, 10.0)
        assert_allclose(svd_project(s * m), svd_project(m), atol=1e-9)


def test_svd_project_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r = random_rotation(rng)
        assert_allclose(svd_project(flatten(r)), r, atol=1e-9)


def test_svd_project_trace_maximization_oracle():
    # The projection must beat every sampled rotation on trace(R^T M).
    rng = np.random.default_rng(42)
    samples = random_rotations(rng, 20000)
    for _ in range(200):
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        r = svd_project(m)
        assert is_rotation(r, tol=1e-9)
        best_sampled = float(np.einsum("sij,ij->s", samples, m).max())
        assert float(np.trace(r.T @ m)) >= best_sampled - 1e-12


def test_svd_project_degenerate():
    with pytest.raises(DegenerateInput):
        svd_project(np.zeros(9))
    a = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        svd_project(np.outer(a, a))  # rank 1
    # rank 2 is fine
    r = svd_project(np.diag([1.0, 1.0, 0.0]))
    assert is_rotation(r, tol=1e-9)


def test_zaxis_angle_basics():
    assert zaxis_angle(np.eye(3), np.eye(3)) == 0.0
    assert_allclose(zaxis_angle(np.eye(3), rot_x(np.pi / 2)), 90.0, atol=1e-9)
    assert_allclose(zaxis_angle(np.eye(3), rot_x(np.pi)), 180.0, atol=1e-9)
    for theta in np.linspace(0, 2 * np.pi, 17):
        assert zaxis_angle(np.eye(3), rot_z(theta)) < 1e-5


def test_zaxis_angle_yaw_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r = random_rotation(rng)
        theta = rng.uniform(0, 2 * np.pi)
        assert zaxis_angle(r, r @ rot_z(theta)) < 1e-5


# Yaw nullification of a rotation r is aligning_rotation(r[:, 2]): the
# shortest arc taking e_z onto the facing axis, with no twist about it.


def test_nullify_yaw_basics():
    assert_allclose(aligning_rotation(rot_z(np.radians(45))[:, 2]), np.eye(3), atol=1e-12)
    assert_allclose(aligning_rotation(EZ), np.eye(3), atol=1e-12)


def test_nullify_yaw_hand_derived():
    # Yaw about the facing axis is removed; the tilt survives untouched.
    r = rot_x(np.radians(30)) @ rot_z(np.radians(50))
    out = aligning_rotation(r[:, 2])
    assert_allclose(out, rot_x(np.radians(30)), atol=1e-12)
    axis, angle = axis_angle_of(out)
    assert_allclose(axis, [1, 0, 0], atol=1e-12)
    assert_allclose(np.degrees(angle), 30.0, atol=1e-9)


def test_nullify_yaw_properties():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = random_rotation(rng)
        if r[2, 2] < -1 + 1e-6:
            continue
        out = aligning_rotation(r[:, 2])
        assert is_rotation(out, tol=1e-9)
        assert_allclose(out @ EZ, r[:, 2], atol=1e-9)  # maps e_z onto the facing axis
        assert_allclose(aligning_rotation(out[:, 2]), out, atol=1e-9)  # idempotent
        theta = rng.uniform(0, 2 * np.pi)
        assert_allclose(aligning_rotation((r @ rot_z(theta))[:, 2]), out, atol=1e-9)


def test_nullify_yaw_antipodal():
    # facing exactly backwards: the half turn about the x-axis
    assert_allclose(aligning_rotation(-EZ), rot_x(np.pi), atol=1e-12)


def test_axis_angle_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = random_rotation(rng)
        axis, angle = axis_angle_of(r)
        assert_allclose(from_axis_angle(axis, angle), r, atol=1e-8)
    # near pi
    r = from_axis_angle([0.0, 1.0, 0.0], np.pi - 1e-9)
    axis, angle = axis_angle_of(r)
    assert_allclose(from_axis_angle(axis, angle), r, atol=1e-7)


def test_random_rotations_batch():
    rng = np.random.default_rng(8)
    rs = random_rotations(rng, 500)
    assert rs.shape == (500, 3, 3)
    for r in rs[::50]:
        assert is_rotation(r, tol=1e-12)


def test_rotation_json_roundtrip_and_validation():
    rng = np.random.default_rng(9)
    r = random_rotation(rng)
    assert_allclose(rotation_from_list(rotation_to_list(r)), r, atol=1e-15)
    with pytest.raises(ValueError):
        rotation_from_list([1.0] * 9)
    with pytest.raises(ValueError):
        rotation_from_list([1.0] * 8)
    scaled = rotation_to_list(1.001 * r)
    with pytest.raises(ValueError):
        rotation_from_list(scaled)


def test_outputs_satisfy_rotation_invariants():
    rng = np.random.default_rng(10)
    for _ in range(100):
        assert is_rotation(svd_project(rng.uniform(-1, 1, 9)), tol=1e-9)


def test_aligning_is_shortest_arc():
    # the arc from e_z to the facing direction has no twist about either
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = random_rotation(rng)
        if r[2, 2] < -0.99:
            continue
        out = aligning_rotation(r[:, 2])
        axis, angle = axis_angle_of(out)
        if angle > 1e-9:
            # rotation axis orthogonal to both e_z and the facing direction
            assert abs(axis @ EZ) < 1e-9
            assert abs(axis @ r[:, 2]) < 1e-9


# Exactness of the 3-vector rewrites: each reference below is a verbatim copy
# of the expression it replaced, and the rewrite must return the same bits.

# ±0, ±inf, NaN, subnormals, the smallest normal and values whose products
# overflow or underflow
SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
     1e-160, -1e-170, 1.0, -1.5, 1e308, -3e200]
)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _outcome(fn, *args):
    """The bits fn returns, or the error it raises."""
    try:
        return _bits(fn(*args))
    except ValueError as exc:
        return repr(exc)


def _random_vectors(rng, n):
    """Rows of Gaussians scaled by log-uniform magnitudes over most of the float range."""
    return rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))


def test_cross3_matches_np_cross_bitwise():
    rng = np.random.default_rng(70)
    a = np.concatenate([rng.normal(size=(100_000, 3)), _random_vectors(rng, 100_000)])
    b = np.concatenate([rng.normal(size=(100_000, 3)), _random_vectors(rng, 100_000)])
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (rng.choice(SPECIALS, size=(20_000, 3)), rng.choice(SPECIALS, size=(20_000, 3)))):
            got = np.array([cross3(p, q) for p, q in zip(x, y)])
            assert _bits(got) == _bits(np.cross(x, y))
        # the batch call above does the same ufunc arithmetic as one call per pair
        for p, q in zip(x[:500], y[:500]):
            assert _bits(cross3(p, q)) == _bits(np.cross(p, q))


def test_vnorm_matches_np_linalg_norm_bitwise():
    rng = np.random.default_rng(71)
    vectors = np.concatenate([rng.normal(size=(20_000, 3)), _random_vectors(rng, 20_000),
                              rng.choice(SPECIALS, size=(20_000, 3))])
    with np.errstate(all="ignore"):
        for v in vectors:
            assert _bits(vnorm(v)) == _bits(np.linalg.norm(v))
        # a strided column, as rot[:, 2] passes
        for m in rng.normal(size=(2_000, 3, 3)):
            assert _bits(vnorm(m[:, 2])) == _bits(np.linalg.norm(m[:, 2]))


def _reference_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n <= ORTHO_TOL:
        raise ValueError("axis is ~0")
    x, y, z = axis / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_from_axis_angle_matches_reference_bitwise():
    rng = np.random.default_rng(72)
    axes = np.concatenate([rng.normal(size=(20_000, 3)), _random_vectors(rng, 2_000),
                           np.eye(3), -np.eye(3)])
    raised = 0
    for axis in axes:
        angle = abs(rng.normal(0.0, 1.0)) if rng.random() < 0.5 else float(rng.uniform(-7.0, 7.0))
        got = _outcome(from_axis_angle, axis, angle)
        assert got == _outcome(_reference_from_axis_angle, axis, angle)
        raised += isinstance(got, str)
    assert 0 < raised < 2_000  # the tiny axes of _random_vectors raise "axis is ~0" in both
    assert _bits(from_axis_angle(axes[0], np.pi)) == _bits(_reference_from_axis_angle(axes[0], np.pi))


def _reference_is_rotation(m, tol=ORTHO_TOL):
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    return (
        np.abs(m.T @ m - np.eye(3)).max() <= tol
        and abs(np.linalg.det(m) - 1.0) <= tol
    )


def _edge_pair(r, direction, tol):
    """Matrices r + s*direction on either side of is_rotation's verdict
    flip, found by bisection on s down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while _reference_is_rotation(r + hi * direction, tol):
        hi *= 2.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _reference_is_rotation(r + mid * direction, tol):
            lo = mid
        else:
            hi = mid
    return r + lo * direction, r + hi * direction


def test_is_rotation_verdicts_at_the_tolerance_edge():
    rng = np.random.default_rng(73)
    flips = 0
    for i in range(60):
        r = random_rotation(rng)
        tol = (ORTHO_TOL, 1e-8)[i % 2]
        # a general perturbation meets the R^T R term first, a uniform
        # scaling (det error 3s against 2s) meets the det term first
        direction = rng.normal(size=(3, 3)) * 1e-9 if i % 3 else r * 1e-9
        inside, outside = _edge_pair(r, direction, tol)
        for m in (inside, outside):
            assert is_rotation(m, tol) == _reference_is_rotation(m, tol)
        flips += is_rotation(inside, tol) and not is_rotation(outside, tol)
    assert flips == 60


def _reference_zaxis_angle(a, b):
    c = float(np.clip(np.asarray(a)[:, 2] @ np.asarray(b)[:, 2], -1.0, 1.0))
    return float(np.degrees(np.arccos(c)))


def test_zaxis_angle_matches_reference_bitwise():
    rng = np.random.default_rng(74)
    pairs = [(random_rotation(rng), random_rotation(rng)) for _ in range(5_000)]
    r = random_rotation(rng)
    pairs += [(r, r), (r, -r), (r, 1.0000001 * r), (r, -1.0000001 * r), (np.eye(3), np.eye(3))]
    pairs += [(r, np.full((3, 3), v)) for v in (np.nan, np.inf, -np.inf, 0.0, -0.0)]
    with np.errstate(invalid="ignore"):
        for a, b in pairs:
            assert struct.pack("<d", zaxis_angle(a, b)) == struct.pack("<d", _reference_zaxis_angle(a, b))


def _reference_random_rotation(rng):
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


def test_random_rotation_matches_reference_bitwise():
    a, b = np.random.default_rng(75), np.random.default_rng(75)
    for _ in range(20_000):
        assert _bits(random_rotation(a)) == _bits(_reference_random_rotation(b))
