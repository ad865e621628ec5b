import numpy as np
import pytest
from numpy.testing import assert_allclose

from pollisim.so3 import (
    Antipodal,
    DegenerateInput,
    EZ,
    aligning_rotation,
    axis_angle_of,
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


# Yaw nullification of a rotation r is aligning_rotation(EZ, r[:, 2]): the
# shortest arc taking e_z onto the facing axis, with no twist about it.


def test_nullify_yaw_basics():
    assert_allclose(aligning_rotation(EZ, rot_z(np.radians(45))[:, 2]), np.eye(3), atol=1e-12)
    assert_allclose(aligning_rotation(EZ, EZ), np.eye(3), atol=1e-12)


def test_nullify_yaw_hand_derived():
    # Yaw about the facing axis is removed; the tilt survives untouched.
    r = rot_x(np.radians(30)) @ rot_z(np.radians(50))
    out = aligning_rotation(EZ, r[:, 2])
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
        out = aligning_rotation(EZ, r[:, 2])
        assert is_rotation(out, tol=1e-9)
        assert_allclose(out @ EZ, r[:, 2], atol=1e-9)  # maps e_z onto the facing axis
        assert_allclose(aligning_rotation(EZ, out[:, 2]), out, atol=1e-9)  # idempotent
        theta = rng.uniform(0, 2 * np.pi)
        assert_allclose(aligning_rotation(EZ, (r @ rot_z(theta))[:, 2]), out, atol=1e-9)


def test_nullify_yaw_antipodal():
    with pytest.raises(Antipodal):
        aligning_rotation(EZ, -EZ)  # facing exactly backwards
    # with a fallback axis the half turn about it is returned instead
    assert_allclose(aligning_rotation(EZ, -EZ, fallback_axis=np.array([1.0, 0.0, 0.0])), rot_x(np.pi), atol=1e-12)


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
        out = aligning_rotation(EZ, r[:, 2])
        axis, angle = axis_angle_of(out)
        if angle > 1e-9:
            # rotation axis orthogonal to both e_z and the facing direction
            assert abs(axis @ EZ) < 1e-9
            assert abs(axis @ r[:, 2]) < 1e-9
