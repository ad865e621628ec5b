import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import assert_json_form
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
from pollisim.so3 import Pose, is_rotation, random_rotation, require_rotation, rot_z


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
    assert_json_form(k)
    assert_json_form(Intrinsics(fx=500.0, fy=520.0, cx=320.0, cy=240.0, width=640, height=480))


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


# Exactness of the rewritten camera geometry: each reference is a verbatim
# copy of the function before np.cross, np.linalg.norm and np.column_stack
# were replaced, and the rewrite must return the same bits.


def _reference_uplift(obs, k):
    if not (obs.ray_depth > 0):
        raise NonPositiveDepth(f"ray_depth must be > 0, got {obs.ray_depth}")
    ray = np.array([(obs.u - k.cx) / k.fx, (obs.v - k.cy) / k.fy, 1.0])
    return obs.ray_depth * ray / np.linalg.norm(ray)


def _reference_project(x_world, cam, k):
    x_cam = cam.rotation.T @ (np.asarray(x_world, dtype=float) - cam.position)
    if x_cam[2] <= 0:
        return None
    u = k.fx * x_cam[0] / x_cam[2] + k.cx
    v = k.fy * x_cam[1] / x_cam[2] + k.cy
    if not (0 <= u < k.width and 0 <= v < k.height):
        return None
    return PixelObs(u=float(u), v=float(v), ray_depth=float(np.linalg.norm(x_cam)))


def _reference_look_at(position, target, up=(0.0, 0.0, 1.0)):
    position = np.asarray(position, dtype=float)
    fwd = np.asarray(target, dtype=float) - position
    n = np.linalg.norm(fwd)
    if n <= 1e-12:
        raise ValueError("camera position coincides with the look-at target")
    z = fwd / n
    upv = np.asarray(up, dtype=float)
    down = -(upv - (upv @ z) * z)
    dn = np.linalg.norm(down)
    if dn <= 1e-9:
        down = -(np.array([1.0, 0.0, 0.0]) - z[0] * z)
        dn = np.linalg.norm(down)
    y = down / dn
    x = np.cross(y, z)
    return Pose(position, require_rotation(np.column_stack([x, y, z]), tol=1e-8))


def _pose_outcome(fn, *args):
    try:
        pose = fn(*args)
    except ValueError as exc:
        return repr(exc)
    assert pose.rotation.flags.c_contiguous
    return pose.position.tobytes() + pose.rotation.tobytes()


def _reference_down_norm(position, target):
    z = (np.asarray(target, dtype=float) - position) / np.linalg.norm(np.asarray(target, dtype=float) - position)
    upv = np.array([0.0, 0.0, 1.0])
    return np.linalg.norm(-(upv - (upv @ z) * z))


def test_look_at_matches_reference_bitwise():
    rng = np.random.default_rng(80)
    cases = []
    for i in range(4_000):
        target = rng.normal(0.0, 0.2, size=3)
        offset = rng.normal(size=3) * rng.uniform(0.05, 1.0)
        if i % 4 == 0:
            # straight down or up the up axis, or a hair off it: the fallback
            # branch and both sides of its switch
            offset = np.array([0.0, 0.0, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)])
            offset[:2] = rng.normal(size=2) * 10.0 ** rng.uniform(-18, -6)
        cases.append((target + offset, target))
    cases += [(np.zeros(3), np.zeros(3)), (np.full(3, np.nan), np.zeros(3))]
    outcomes = [_pose_outcome(look_at, *c) for c in cases]
    # The coincident and the NaN camera raise; every other view gives a pose.
    assert [i for i, o in enumerate(outcomes) if isinstance(o, str)] == [len(cases) - 2, len(cases) - 1]
    assert outcomes[-2:] == [_pose_outcome(_reference_look_at, *c) for c in cases[-2:]]
    # The reference switched to the fallback at |down| <= 1e-9, where views a
    # few 1e-9 off the up axis lose the digits require_rotation checks; look_at
    # switches at 1e-6. Inside that band: a valid pose aimed at the target.
    # Outside it: the reference's bits.
    in_band = 0
    for (position, target), got in zip(cases[:-2], outcomes[:-2]):
        if 1e-9 < _reference_down_norm(position, target) <= 1e-6:
            in_band += 1
            pose = look_at(position, target)
            assert pose.position.tobytes() == position.tobytes()
            assert is_rotation(pose.rotation, tol=1e-8)
            fwd = target - position
            assert_allclose(pose.rotation[:, 2], fwd / np.linalg.norm(fwd), rtol=0, atol=1e-12)
        else:
            assert got == _pose_outcome(_reference_look_at, position, target)
    assert in_band > 100


def test_uplift_matches_reference_bitwise():
    rng = np.random.default_rng(81)
    for k in (Intrinsics.default(), UNIT_K, Intrinsics(fx=500, fy=520, cx=320, cy=240, width=640, height=480)):
        for _ in range(5_000):
            obs = PixelObs(float(rng.uniform(-200.0, 1500.0)), float(rng.uniform(-200.0, 900.0)),
                           float(rng.uniform(1e-6, 2.0)))
            assert uplift(obs, k).tobytes() == _reference_uplift(obs, k).tobytes()


def test_project_matches_reference_bitwise():
    rng = np.random.default_rng(82)
    visible = 0
    for k in (Intrinsics.default(), Intrinsics(fx=500, fy=520, cx=320, cy=240, width=640, height=480)):
        for _ in range(300):
            cam = Pose(rng.normal(0.0, 0.5, size=3), random_rotation(rng))
            for x in rng.normal(0.0, 0.5, size=(20, 3)):
                got, want = project(x, cam, k), _reference_project(x, cam, k)
                assert (got is None) == (want is None)
                if got is not None:
                    visible += 1
                    assert np.array([got.u, got.v, got.ray_depth]).tobytes() == \
                        np.array([want.u, want.v, want.ray_depth]).tobytes()
    assert 1_000 < visible < 11_000  # both the None and the pixel branches ran
