import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import outcome_with_warnings
from pollisim import runner, simworld, so3, tracker
from pollisim.camera import Intrinsics, look_at
from pollisim.simworld import MAX_LENGTH, NoiseModel, SceneGenParams, generate_scene
from pollisim.so3 import (
    ALL_PAIRS_MAX,
    ORTHO_TOL,
    DegenerateInput,
    EZ,
    aligning_rotation,
    axis_angle_of,
    candidate_pairs,
    cross3,
    det3,
    flatten,
    from_axis_angle,
    from_axis_angles,
    inv3,
    is_rotation,
    pairs_within,
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
    # non-finite norms: an infinite entry, an overflowing dot and a NaN, with
    # the same bits, warnings ignored (numpy's inf / inf warns, Python's not)
    for axis in ([np.inf, 1.0, 0.0], [1e200, 1e200, 0.0], [np.nan, 1.0, 0.0]):
        got = outcome_with_warnings(from_axis_angle, np.array(axis), 0.5)
        assert got[0] == outcome_with_warnings(_reference_from_axis_angle, np.array(axis), 0.5)[0]


def test_from_axis_angles_gives_each_from_axis_angle_bitwise():
    # scene drawing and the oracle's batched detections build their
    # rotations as one stack
    rng = np.random.default_rng(73)
    axes = np.concatenate([
        rng.normal(size=(3_000, 3)), rng.normal(size=(3_000, 3)) * 10.0 ** rng.uniform(-5, 5, (3_000, 1)),
        np.eye(3), -np.eye(3),
    ])
    angles = np.concatenate([rng.uniform(-7.0, 7.0, size=3_000), np.abs(rng.normal(size=3_000)),
                             [0.0, -0.0, np.pi, 2.0 * np.pi, 1e-300, 100.0]])
    got = from_axis_angles(axes, angles)
    assert got.shape == (len(axes), 3, 3)
    assert _bits(got) == _bits(np.array([from_axis_angle(a, t) for a, t in zip(axes, angles)]))
    assert from_axis_angles(np.empty((0, 3)), np.empty(0)).shape == (0, 3, 3)


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
    # is_rotation compares the Gram entries one by one: directions that move
    # one diagonal entry, (r (I + s e_k e_k^T))^T (...) = I + (2s + s^2) e_k e_k^T,
    # or, to first order, one off-diagonal pair, r (I + s e_i e_j^T) with det 1
    for k, (i, j) in enumerate([(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (1, 0)]):
        r = random_rotation(rng)
        unit = np.zeros((3, 3))
        unit[i, j] = 1.0
        for tol in (ORTHO_TOL, 1e-8):
            inside, outside = _edge_pair(r, r @ unit, tol)
            for m in (inside, outside):
                assert is_rotation(m, tol) == _reference_is_rotation(m, tol)
            assert is_rotation(inside, tol) and not is_rotation(outside, tol)
    # signed zeros: -0.0 entries, whose Gram residuals and det residual are
    # all exactly zero, at a tolerance of 0.0 and of -0.0
    m = np.array([[0.0, -1.0, -0.0], [1.0, -0.0, 0.0], [-0.0, 0.0, 1.0]])
    assert not np.any(m.T @ m - np.eye(3)) and np.linalg.det(m) == 1.0
    for tol in (ORTHO_TOL, 0.0, -0.0):
        assert is_rotation(m, tol) and _reference_is_rotation(m, tol)
        assert not is_rotation(-m, tol) and not _reference_is_rotation(-m, tol)


def test_is_rotation_filter_matches_reference_on_near_rotations():
    rng = np.random.default_rng(79)
    verdicts = set()
    for i in range(20_000):
        r = random_rotation(rng)
        scale = 10.0 ** rng.uniform(-17.0, -6.0)
        m = r + rng.normal(size=(3, 3)) * scale if i % 2 else r * (1.0 + rng.normal() * scale)
        for tol in (ORTHO_TOL, 1e-8):
            got = is_rotation(m, tol)
            assert got == _reference_is_rotation(m, tol)
            verdicts.add(got)
    assert verdicts == {True, False}
    # tolerances the filter's bound does not cover take numpy's form
    m = random_rotation(rng)
    for tol in (2.0, -1e-9, np.nan, np.inf, 0.0, -0.0, 0, np.float32(1e-8), np.float64(1e-8)):
        for x in (m, m * (1.0 + 1e-6), 2.0 * m):
            assert is_rotation(x, tol) == _reference_is_rotation(x, tol)


def _counting_det3(monkeypatch):
    calls, det3 = [], so3.det3
    monkeypatch.setattr(so3, "det3", lambda m: calls.append(m) or det3(m))
    return calls


def test_is_rotation_leaves_residuals_within_the_margin_to_numpy(monkeypatch):
    """A residual within the filter's margin of tol takes numpy's form, which
    calls det3 once its Gram entries pass."""
    calls = _counting_det3(monkeypatch)
    rng = np.random.default_rng(81)
    for i in range(40):
        r = random_rotation(rng)
        tol = (ORTHO_TOL, 1e-8)[i % 2]
        direction = rng.normal(size=(3, 3)) * 1e-9 if i % 3 else r * 1e-9
        inside, outside = _edge_pair(r, direction, tol)
        del calls[:]
        assert is_rotation(inside, tol)
        assert len(calls) == 1
        if i % 3 == 0:
            # a uniform scaling fails on its det residual alone
            del calls[:]
            assert not is_rotation(outside, tol)
            assert len(calls) == 1
    del calls[:]
    assert is_rotation(np.eye(3), 0.0) and len(calls) == 1


def test_look_at_frames_never_call_det3(monkeypatch):
    """The filter decides every view frame, so the survey's look_at pays for
    no LAPACK determinant."""
    calls = _counting_det3(monkeypatch)
    rng = np.random.default_rng(82)
    for _ in range(10_000):
        target = rng.normal(0.0, 0.2, size=3)
        look_at(target + rng.normal(size=3) * rng.uniform(0.05, 1.0), target)
    assert calls == []


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


def test_det3_matches_np_linalg_det_bitwise():
    """det3 calls numpy's private `numpy.linalg._umath_linalg.det`; this is
    the test that catches a numpy release moving or changing it."""
    rng = np.random.default_rng(76)
    mats = list(rng.normal(size=(5_000, 3, 3)))
    mats += list(rng.normal(size=(2_000, 3, 3)) * 10.0 ** rng.uniform(-100, 100, size=(2_000, 1, 1)))
    mats += [random_rotation(rng) for _ in range(2_000)]
    for _ in range(500):  # singular: one row a combination of the others
        m = rng.normal(size=(3, 3))
        m[2] = m[0] * rng.normal() + m[1] * rng.normal()
        mats.append(m)
    mats += [np.zeros((3, 3)), np.ones((3, 3)), np.eye(3)[[0, 0, 1]]]
    mats += list(rng.choice(SPECIALS, size=(3_000, 3, 3)))  # inf, -inf and NaN entries among them
    warned = 0
    for m in mats:
        got = outcome_with_warnings(det3, m)
        assert got == outcome_with_warnings(np.linalg.det, m)
        warned += bool(got[1])
    assert warned > 100  # NaN input gives "invalid value encountered in det" in both
    with np.errstate(invalid="ignore"):
        assert type(det3(mats[0])) is type(np.linalg.det(mats[0])) is np.float64


def test_stacked_numpy_calls_match_per_item_calls_bitwise():
    """The batched oracle and calibration's tally (simworld._detection_errors)
    give the scalar oracle's bits only while these numpy rules hold; a numpy
    release that breaks one fails here by name."""
    rng = np.random.default_rng(78)
    n = 20_000
    a, b = rng.normal(size=(n, 3, 3)), rng.normal(size=(n, 3, 3))
    x, y = rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))

    def same(stacked, per_item):
        return np.asarray(stacked).tobytes() == np.array(per_item).tobytes()

    assert same(a @ b, [a[i] @ b[i] for i in range(n)])
    assert same((a @ x[..., None])[..., 0], [a[i] @ x[i] for i in range(n)])
    # one 3x3 broadcast over the stack, as the oracle's batched tick applies its camera
    assert same((a[0] @ y[..., None])[..., 0], [a[0] @ y[i] for i in range(n)])
    # A 3-vector dot as a (1,3) @ (3,1) matmul, on rows and on strided columns
    assert same((x[:, None, :] @ x[:, :, None]).ravel(), [x[i].dot(x[i]) for i in range(n)])
    assert same((x[:, None, :] @ y[:, :, None]).ravel(), [x[i].dot(y[i]) for i in range(n)])
    assert same((a[:, :, 2][:, None, :] @ b[:, :, 2][:, :, None]).ravel(), [a[i][:, 2] @ b[i][:, 2] for i in range(n)])
    angles = np.concatenate([rng.uniform(-4.0, 4.0, n), np.abs(rng.normal(0.0, 0.85, n)), [0.0, np.pi]])
    cosines = np.concatenate([rng.uniform(-1.0, 1.0, n), [-1.0, 0.0, 1.0]])
    for f, values in ((np.sin, angles), (np.cos, angles), (np.degrees, angles), (np.arccos, cosines)):
        assert same(f(values), [f(float(v)) for v in values]), f.__name__


def test_is_rotation_matches_reference_on_non_finite_entries():
    rng = np.random.default_rng(77)
    cases = [np.full((3, 3), v) for v in (np.nan, np.inf, -np.inf)]
    for _ in range(300):
        m = random_rotation(rng)
        m[tuple(rng.integers(0, 3, size=2))] = rng.choice([np.nan, np.inf, -np.inf])
        cases.append(m)
    cases += list(rng.choice(SPECIALS, size=(300, 3, 3)))
    for m in cases:
        got = outcome_with_warnings(is_rotation, m)
        assert got == outcome_with_warnings(_reference_is_rotation, m)
        assert got[0] == _bits(False)


def _reference_svd_project(x):
    m = np.asarray(x, dtype=float).reshape(3, 3)
    if not np.isfinite(m).all():  # before the SVD, which can hang on inf
        raise ValueError("cannot project a matrix with a non-finite entry")
    u, s, vt = np.linalg.svd(m)
    if s[1] <= ORTHO_TOL:
        raise DegenerateInput("second singular value ~0: nearest rotation not unique")
    d = np.linalg.det(u @ vt)
    return u @ np.diag([1.0, 1.0, d]) @ vt


def test_svd_project_matches_reference_bitwise():
    rng = np.random.default_rng(78)
    inputs = list(rng.normal(size=(5_000, 3, 3)))
    inputs += [random_rotation(rng) + rng.normal(0.0, 0.3, size=(3, 3)) for _ in range(5_000)]
    inputs += [-random_rotation(rng) for _ in range(500)]  # det(U V^T) = -1
    inputs += [np.diag([1.0, 1.0, 0.0]), np.zeros((3, 3)), np.ones((3, 3))]
    inputs += [np.full((3, 3), np.nan), np.full((3, 3), np.inf)]
    inf_22 = rng.normal(size=(3, 3))
    inf_22[2, 2] = np.inf  # np.linalg.svd gives NaN singular values here
    inputs += [np.diag([np.inf, 1.0, 1.0]), inf_22]  # np.linalg.svd never returns on the diagonal one
    for x in inputs:
        assert outcome_with_warnings(svd_project, x) == outcome_with_warnings(_reference_svd_project, x)
    for x in inputs[-4:]:  # non-finite input is refused before the SVD
        with pytest.raises(ValueError, match="non-finite"):
            svd_project(x)
    # A stack keeps each matrix's bits, and raises what its first failing
    # matrix, in stack order, raises alone.
    inputs = [np.asarray(x, dtype=float).reshape(3, 3) for x in inputs]
    alone = [outcome_with_warnings(svd_project, x)[0] for x in inputs]
    failing = [x for x, out in zip(inputs, alone) if isinstance(out, str)]
    passing = [x for x, out in zip(inputs, alone) if not isinstance(out, str)]
    assert len(failing) == 6  # the two rank-deficient inputs and the four non-finite ones
    start = 0
    while start < len(passing):
        k = int(rng.integers(1, 41))
        stack = np.stack(passing[start:start + k])
        start += k
        got = svd_project(stack)
        assert got.shape == stack.shape
        assert [a.tobytes() for a in got] == [svd_project(x).tobytes() for x in stack]
    for _ in range(300):
        k = int(rng.integers(2, 41))
        picks = rng.integers(0, len(passing), size=k)
        stack = np.stack([passing[i] for i in picks])
        n_bad = int(rng.integers(1, 4))
        bad_at = np.sort(rng.choice(k, size=min(n_bad, k), replace=False))
        for i in bad_at:
            stack[i] = failing[rng.integers(0, len(failing))]
        first = stack[bad_at[0]]
        assert outcome_with_warnings(svd_project, stack) == outcome_with_warnings(svd_project, first)


def test_inv3_matches_np_linalg_inv_bitwise():
    """inv3 calls numpy's private `numpy.linalg._umath_linalg.inv`; this is
    the test that catches a numpy release moving or changing it."""
    rng = np.random.default_rng(79)
    mats = list(rng.normal(size=(5_000, 3, 3)))
    mats += list(rng.normal(size=(2_000, 3, 3)) * 10.0 ** rng.uniform(-100, 100, size=(2_000, 1, 1)))
    mats += [random_rotation(rng) for _ in range(2_000)]
    spd = rng.normal(size=(2_000, 3, 3))
    mats += list(spd @ spd.transpose(0, 2, 1) + rng.uniform(1e-8, 1.0, size=(2_000, 1, 1)) * np.eye(3))
    for _ in range(500):  # singular: one row a combination of the others
        m = rng.normal(size=(3, 3))
        m[2] = m[0] * rng.normal() + m[1] * rng.normal()
        mats.append(m)
    mats += [np.zeros((3, 3)), np.ones((3, 3)), np.eye(3)[[0, 0, 1]]]
    mats += list(rng.choice(SPECIALS, size=(3_000, 3, 3)))  # inf, -inf and NaN entries among them
    failed = 0
    for m in mats:
        got = outcome_with_warnings(inv3, m)
        assert got == outcome_with_warnings(np.linalg.inv, m)
        failed += isinstance(got[0], str)
    assert failed > 100  # singular and non-finite input give "Singular matrix" in both
    assert outcome_with_warnings(inv3, np.zeros((3, 3)))[0] == repr(np.linalg.LinAlgError("Singular matrix"))
    assert type(inv3(mats[0])) is type(np.linalg.inv(mats[0])) is np.ndarray


def _reference_candidate_pairs(a, b, radius):
    """candidate_pairs as one broadcast at every size."""
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    sq = b[None, :, :] - a[:, None, :]
    np.multiply(sq, sq, out=sq)
    limit = radius * (1.0 + 1e-9)
    ia, ib = np.nonzero(~(sq.sum(axis=2) > limit * abs(limit)))
    return ia.tolist(), ib.tolist()


def _check_candidate_pairs(a, b, radius):
    na, nb = len(a), len(b)
    ia, ib = candidate_pairs(a, b, radius)
    got = list(zip(ia, ib))
    assert got == sorted(set(got))  # row-major, no repeats
    within = {
        (i, j) for i in range(na) for j in range(nb)
        if not vnorm(b[j] - a[i]) > radius  # NaN distances stay
    }
    assert within <= set(got)
    if na * nb <= ALL_PAIRS_MAX:
        assert len(got) == na * nb
    else:
        assert (ia, ib) == _reference_candidate_pairs(a, b, radius)
    # the exact query: the brute-force pairs and distances, bit for bit
    assert pairs_within(a, b, radius) == [
        (i, j, d) for i in range(na) for j in range(nb) if (d := vnorm(b[j] - a[i])) <= radius
    ]
    return len(within)


def test_candidate_pairs_keeps_every_pair_within_the_radius():
    rng = np.random.default_rng(79)
    # (174, 60): the most tracks and readings one loop_60 ingest scores
    sizes = [(na, nb) for na in range(7) for nb in range(7)] + [(3, 4), (9, 1), (1, 9), (20, 6), (113, 20), (174, 60)]
    assert any(na * nb <= ALL_PAIRS_MAX for na, nb in sizes)
    assert any(na * nb > ALL_PAIRS_MAX for na, nb in sizes)
    for na, nb in sizes:
        for radius in (0.02, 0.05, 0.1):
            a = list(rng.uniform(-0.1, 0.1, (na, 3)))
            b = list(rng.uniform(-0.1, 0.1, (nb, 3)))
            if na and nb:  # one pair exactly at the radius, as vnorm computes it
                radius = vnorm(b[-1] - a[-1])
                if rng.random() < 0.5:
                    a[int(rng.integers(na))] = np.array([np.nan, 0.0, 0.0])
            _check_candidate_pairs(a, b, radius)
    # at the edge of the field, where a coordinate's last bit is 1e-13 m
    # and a distance loses the low bits of its coordinates
    found = 0
    for na, nb in [(2, 5), (20, 6), (174, 60)]:
        for corner in ((1, 1, 1), (-1, 1, -1), (-1, -1, -1)):
            edge = MAX_LENGTH * np.array(corner, dtype=float)
            for radius in (1e-9, 1e-6, 1e-3):
                a = list(edge - np.abs(rng.uniform(0.0, 3 * radius, (na, 3))) * corner)
                b = list(edge - np.abs(rng.uniform(0.0, 3 * radius, (nb, 3))) * corner)
                b[-1] = a[-1].copy()
                found += _check_candidate_pairs(a, b, radius)
                found += _check_candidate_pairs(a, b, vnorm(b[0] - a[0]))
    assert found > 100


def test_small_inputs_leave_association_and_scenes_unchanged(monkeypatch):
    """The survey (1-14 tracks per ingest, so both sides of ALL_PAIRS_MAX) and
    generated scenes come out the same as with the broadcast at every size."""
    def trials():
        return repr([
            runner.survey_run(NoiseModel(clutter_rate=0.5), tracker.TrackerParams(), Intrinsics.default(), 20, seed)
            for seed in range(8)
        ])

    def scenes():
        return [
            [(f.id, _bits(f.pose.position), _bits(f.pose.rotation)) for f in generate_scene(
                np.random.default_rng(seed), SceneGenParams(count=12, spread=0.08, min_sep=0.06))]
            for seed in range(8)
        ]

    small_pairs = []
    real = candidate_pairs

    def counted(a, b, radius):
        small_pairs.append(len(a) * len(b) <= ALL_PAIRS_MAX)
        return real(a, b, radius)

    for module in (so3, simworld):  # association calls it through so3, scene drawing directly
        monkeypatch.setattr(module, "candidate_pairs", counted)
    got = [trials()]
    assert 0 < sum(small_pairs) < len(small_pairs)
    small_pairs.clear()
    got.append(scenes())
    assert 0 < sum(small_pairs) < len(small_pairs)
    for module in (so3, simworld):
        monkeypatch.setattr(module, "candidate_pairs", _reference_candidate_pairs)
    assert got == [trials(), scenes()]
