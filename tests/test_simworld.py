import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import ks_uniform_pvalue
from pollisim.camera import Intrinsics, project, to_world, uplift
from pollisim.simworld import (
    FlowerGT,
    InvariantViolation,
    NoiseModel,
    ParseError,
    generate_scene,
    load_scene,
    observe_with_truth,
    sample_viewpoint,
    save_scene,
    single_shot_stats,
)
from pollisim.so3 import Pose, is_rotation, random_rotation, rotation_to_list

K = Intrinsics.default()


def _flower(position=(0, 0, 0), rotation=None, fid=0):
    return FlowerGT(id=fid, pose=Pose(np.asarray(position, float), rotation if rotation is not None else np.eye(3)))


def test_sample_viewpoint_shell_collapse():
    rng = np.random.default_rng(0)
    center = np.array([0.1, -0.2, 0.3])
    cam = sample_viewpoint(rng, center, (0.4, 0.4), (0.0, 0.0))
    assert_allclose(np.linalg.norm(cam.position - center), 0.4, atol=1e-12)
    obs = project(center, cam, K)
    assert obs is not None
    assert_allclose([obs.u, obs.v], [K.cx, K.cy], atol=1e-6)


def test_sample_viewpoint_center_at_principal_point():
    rng = np.random.default_rng(1)
    for _ in range(50):
        center = rng.normal(size=3)
        cam = sample_viewpoint(rng, center, (0.2, 0.6), (5.0, 80.0))
        obs = project(center, cam, K)
        assert obs is not None
        assert abs(obs.u - K.cx) < 1e-6 and abs(obs.v - K.cy) < 1e-6


def test_sample_viewpoint_radius_uniform():
    rng = np.random.default_rng(2)
    radii = []
    for _ in range(10000):
        cam = sample_viewpoint(rng, np.zeros(3), (0.2, 0.7), (0.0, 60.0))
        radii.append(float(np.linalg.norm(cam.position)))
    assert ks_uniform_pvalue(np.array(radii), 0.2, 0.7) > 0.01


def test_sample_viewpoint_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        sample_viewpoint(rng, np.zeros(3), (0.0, 0.5), (0, 10))
    with pytest.raises(ValueError):
        sample_viewpoint(rng, np.zeros(3), (0.6, 0.5), (0, 10))


def test_observe_noiseless_exact():
    rng = np.random.default_rng(4)
    scene = generate_scene(np.random.default_rng(7), 6)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.5), (10, 60))
    ms, recs = observe_with_truth(scene, cam, K, NoiseModel.noiseless(), rng)
    assert len(ms) == len([f for f in scene if project(f.pose.position, cam, K) is not None])
    for rec in recs:
        assert rec.detected
        assert rec.px_err < 1e-12
        assert rec.trans_err < 1e-9
        assert rec.rot_err_deg < 1e-5
        m = rec.measurement
        assert_allclose(
            to_world(uplift(m.pixel, K), cam), m.position_world, atol=1e-12
        )


def test_observe_behind_camera_never_measured():
    rng = np.random.default_rng(5)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.3), (0, 0))
    behind = _flower(position=cam.position + cam.rotation[:, 2] * -0.5)
    ms = observe_with_truth([behind], cam, K, NoiseModel.noiseless(), rng)[0]
    assert ms == []


def test_observe_detect_prob_zero_only_clutter():
    rng = np.random.default_rng(6)
    noise = NoiseModel(detect_prob=0.0, clutter_rate=0.0)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.3), (10, 10))
    assert observe_with_truth([_flower()], cam, K, noise, rng)[0] == []


def test_observe_deterministic_stream():
    scene = generate_scene(np.random.default_rng(8), 5)
    cam = sample_viewpoint(np.random.default_rng(9), np.zeros(3), (0.3, 0.5), (10, 60))
    a = observe_with_truth(scene, cam, K, NoiseModel(), np.random.default_rng(123), camera_id=1, tick=5)[0]
    b = observe_with_truth(scene, cam, K, NoiseModel(), np.random.default_rng(123), camera_id=1, tick=5)[0]
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert_allclose(ma.position_world, mb.position_world, atol=0)
        assert_allclose(ma.rotation, mb.rotation, atol=0)
        assert (ma.pixel.u, ma.pixel.v, ma.pixel.ray_depth) == (mb.pixel.u, mb.pixel.v, mb.pixel.ray_depth)


def test_observe_clutter_rate():
    rng = np.random.default_rng(10)
    noise = NoiseModel(detect_prob=0.0, clutter_rate=0.5)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.3), (10, 10))
    total = sum(len(observe_with_truth([], cam, K, noise, rng)[0]) for _ in range(2000))
    assert 800 < total < 1200  # Poisson(0.5) * 2000


def test_observe_measured_rotations_valid():
    rng = np.random.default_rng(11)
    scene = generate_scene(np.random.default_rng(12), 4)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.5), (10, 60))
    for m in observe_with_truth(scene, cam, K, NoiseModel(), rng)[0]:
        assert is_rotation(m.rotation, tol=1e-9)


def test_observe_bimodal_flip():
    rng = np.random.default_rng(13)
    noise = NoiseModel(rot_sigma=0.0, flip_prob=1.0, clutter_rate=0.0, detect_prob=1.0,
                       pixel_sigma=0.0, depth_sigma_near=0.0, depth_sigma_far=0.0)
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.3), (20, 20))
    _, recs = observe_with_truth([_flower()], cam, K, noise, rng)
    assert recs[0].detected
    assert recs[0].rot_err_deg > 179.9  # facing direction flipped


def test_scene_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    scene = generate_scene(rng, 20)
    path = tmp_path / "scene.json"
    save_scene(str(path), scene)
    loaded = load_scene(str(path))
    assert [f.id for f in loaded] == list(range(20))
    for a, b in zip(scene, loaded):
        assert_allclose(a.pose.position, b.pose.position, atol=1e-15)
        assert_allclose(a.pose.rotation, b.pose.rotation, atol=1e-15)


def test_load_scene_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"flowers": []}')
    assert load_scene(str(path)) == []


def test_load_scene_duplicate_ids(tmp_path):
    rot = rotation_to_list(np.eye(3))
    data = {"flowers": [
        {"id": 3, "position": [0, 0, 0], "rotation": rot},
        {"id": 3, "position": [1, 0, 0], "rotation": rot},
    ]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match="3"):
        load_scene(str(path))


def test_load_scene_bad_rotation(tmp_path):
    data = {"flowers": [{"id": 7, "position": [0, 0, 0], "rotation": [1.0] * 9}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvariantViolation, match="7"):
        load_scene(str(path))


def test_load_scene_parse_errors(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scene(str(path))
    path2 = tmp_path / "missing.json"
    path2.write_text('{"not_flowers": 1}')
    with pytest.raises(ParseError):
        load_scene(str(path2))
    path3 = tmp_path / "field.json"
    path3.write_text('{"flowers": [{"id": 0}]}')
    with pytest.raises(ParseError, match="flowers\\[0\\]"):
        load_scene(str(path3))
    with pytest.raises(ParseError):
        load_scene(str(tmp_path / "nonexistent.json"))


def test_generate_scene_separation_and_tilt():
    rng = np.random.default_rng(15)
    scene = generate_scene(rng, 15, spread=0.15, min_sep=0.08, max_tilt_deg=30.0)
    assert len(scene) == 15
    for i, f in enumerate(scene):
        assert f.id == i
        assert is_rotation(f.pose.rotation, tol=1e-9)
        tilt = np.degrees(np.arccos(np.clip(f.pose.rotation[2, 2], -1, 1)))
        assert tilt <= 30.0 + 1e-9
        for g in scene[i + 1:]:
            assert np.linalg.norm(f.pose.position - g.pose.position) >= 0.08


def test_noise_model_validation_and_json():
    with pytest.raises(ValueError):
        NoiseModel(detect_prob=1.5)
    with pytest.raises(ValueError):
        NoiseModel(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(reliable_range=(0.5, 0.5))
    n = NoiseModel()
    assert NoiseModel.from_json(n.to_json()) == n


def test_single_shot_stats_noiseless():
    stats = single_shot_stats(NoiseModel.noiseless(), K, 200, np.random.default_rng(16))
    assert stats.opportunities == 200
    assert stats.detection_rate == 1.0
    assert stats.mean_trans < 1e-9
    assert stats.mean_rot < 1e-5
