import numpy as np
import pytest
from numpy.testing import assert_allclose

from pollisim.camera import (
    Intrinsics,
    NonPositiveDepth,
    PixelObs,
    aim_pose,
    look_at,
    project,
    to_world,
    uplift,
)
from pollisim.so3 import Pose, fields_from_json, is_rotation, rot_z


UNIT_K = Intrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1000, height=1000)


def test_uplift_optical_axis():
    assert_allclose(uplift(PixelObs(0.0, 0.0, 5.0), UNIT_K), [0, 0, 5], atol=1e-12)


def test_uplift_hand_derived():
    # Kinv(3,4,1) = (3,4,1); norm sqrt(26); depth along the ray gives (3,4,1)
    x = uplift(PixelObs(3.0, 4.0, np.sqrt(26.0)), UNIT_K)
    assert_allclose(x, [3, 4, 1], atol=1e-12)


def test_uplift_principal_point():
    k = Intrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    assert_allclose(uplift(PixelObs(320.0, 240.0, 0.30), k), [0, 0, 0.30], atol=1e-12)


def test_uplift_norm_is_ray_depth():
    rng = np.random.default_rng(0)
    k = Intrinsics.default()
    for _ in range(500):
        obs = PixelObs(rng.uniform(0, k.width), rng.uniform(0, k.height), rng.uniform(0.01, 5.0))
        assert abs(np.linalg.norm(uplift(obs, k)) - obs.ray_depth) < 1e-12


def test_uplift_nonpositive_depth():
    with pytest.raises(NonPositiveDepth):
        uplift(PixelObs(0.0, 0.0, 0.0), UNIT_K)
    with pytest.raises(NonPositiveDepth):
        uplift(PixelObs(0.0, 0.0, -0.1), UNIT_K)


def test_to_world():
    assert_allclose(to_world([1, 2, 3], Pose.identity()), [1, 2, 3], atol=1e-15)
    assert_allclose(to_world([0, 0, 0.5], Pose([0, 0, 1.0])), [0, 0, 1.5], atol=1e-15)
    cam = Pose([1.0, 0.0, 0.0], rot_z(np.pi / 2))
    assert_allclose(to_world([1, 0, 0], cam), [1, 1, 0], atol=1e-12)


def test_project_basics():
    obs = project([0, 0, 5.0], Pose.identity(), UNIT_K)
    assert obs is not None
    assert_allclose([obs.u, obs.v], [0, 0], atol=1e-12)
    assert_allclose(obs.ray_depth, 5.0, atol=1e-12)
    assert project([0, 0, -1.0], Pose.identity(), UNIT_K) is None


def test_project_bounds_half_open():
    k = Intrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    # u = fx * x/z + cx = 100 exactly -> outside [0, 100)
    assert project([0.5, 0.0, 1.0], Pose.identity(), k) is None
    obs = project([-0.5, 0.0, 1.0], Pose.identity(), k)
    assert obs is not None and obs.u == 0.0


def test_project_scale_consistency():
    rng = np.random.default_rng(1)
    k = Intrinsics.default()
    for _ in range(100):
        x_cam = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0)])
        o1 = project(x_cam, Pose.identity(), k)
        o2 = project(2.0 * x_cam, Pose.identity(), k)
        assert o1 is not None and o2 is not None
        assert_allclose([o1.u, o1.v], [o2.u, o2.v], atol=1e-9)


def test_roundtrip_project_uplift():
    rng = np.random.default_rng(2)
    k = Intrinsics.default()
    cam = look_at(np.array([0.4, -0.2, 0.5]), np.zeros(3))
    for _ in range(1000):
        obs = PixelObs(rng.uniform(0, k.width), rng.uniform(0, k.height), rng.uniform(0.05, 3.0))
        x_world = to_world(uplift(obs, k), cam)
        back = project(x_world, cam, k)
        assert back is not None
        x_again = to_world(uplift(back, k), cam)
        assert np.linalg.norm(x_again - x_world) < 1e-9


def test_intrinsics_validation_and_json():
    with pytest.raises(ValueError):
        Intrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    with pytest.raises(ValueError):
        Intrinsics(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=10, height=10)
    k = Intrinsics.default()
    assert k.to_json() == {"fx": 640.0, "fy": 640.0, "cx": 640.0, "cy": 360.0, "width": 1280, "height": 720}
    assert fields_from_json(Intrinsics, k.to_json()) == k


def test_look_at_geometry():
    cam = look_at(np.array([1.0, 1.0, 1.0]), np.zeros(3))
    assert is_rotation(cam.rotation, tol=1e-9)
    # optical axis through the target
    fwd = cam.rotation[:, 2]
    assert_allclose(fwd, -cam.position / np.linalg.norm(cam.position), atol=1e-12)
    # image up (-y axis) has a positive world-z component
    assert cam.rotation[2, 1] < 0
    # degenerate up direction falls back without blowing up
    top = look_at(np.array([0.0, 0.0, 2.0]), np.zeros(3))
    assert is_rotation(top.rotation, tol=1e-9)


def test_aim_pose_points_z_at_target():
    pose = aim_pose(np.array([0.3, 0.0, 0.0]), np.zeros(3))
    assert is_rotation(pose.rotation, tol=1e-9)
    assert_allclose(pose.rotation[:, 2], [-1, 0, 0], atol=1e-12)
