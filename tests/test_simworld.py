import hashlib
import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import assert_json_form, ks_uniform_pvalue
from pollisim import simworld
from pollisim.camera import Intrinsics, look_at, project, to_world, uplift
from pollisim.simworld import (
    SURVEY_ELEVATION_RANGE,
    SURVEY_RADIUS_RANGE,
    FlowerGT,
    InvariantViolation,
    NoiseModel,
    ParseError,
    SceneGenParams,
    ViewCache,
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
    scene = generate_scene(np.random.default_rng(7), SceneGenParams(count=6))
    cam = sample_viewpoint(rng, np.zeros(3), (0.3, 0.5), (10, 60))
    ms, recs = observe_with_truth(scene, cam, K, NoiseModel.noiseless(), rng)
    assert len(ms) == len([f for f in scene if project(f.pose.position, cam, K) is not None])
    assert len(recs) == len(ms)  # every visible flower detected, no clutter: one record per measurement
    for rec, m in zip(recs, ms):
        assert rec.detected
        assert rec.px_err < 1e-12
        assert rec.trans_err < 1e-9
        assert rec.rot_err_deg < 1e-5
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
    scene = generate_scene(np.random.default_rng(8), SceneGenParams(count=5))
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
    scene = generate_scene(np.random.default_rng(12), SceneGenParams(count=4))
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
    scene = generate_scene(rng, SceneGenParams(count=20))
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
    scene = generate_scene(rng, SceneGenParams(count=15, spread=0.15, min_sep=0.08, max_tilt_deg=30.0))
    assert len(scene) == 15
    for i, f in enumerate(scene):
        assert f.id == i
        assert is_rotation(f.pose.rotation, tol=1e-9)
        tilt = np.degrees(np.arccos(np.clip(f.pose.rotation[2, 2], -1, 1)))
        assert tilt <= 30.0 + 1e-9
        for g in scene[i + 1:]:
            assert np.linalg.norm(f.pose.position - g.pose.position) >= 0.08


def _reference_scene_positions(rng, count, center, spread, min_sep):
    """The scalar rejection loop generate_scene replaced: one norm per accepted point."""
    positions = []
    while len(positions) < count:
        p = center + rng.normal(0.0, spread, size=3)
        if all(np.linalg.norm(p - q) >= min_sep for q in positions):
            positions.append(p)
    return positions


def test_generate_scene_matches_scalar_rejection_loop():
    # dense: about 6 of 7 draws are rejected, so the prefilter decides often
    params = SceneGenParams(count=25, center=(0.1, -0.2, 0.3), spread=0.04, min_sep=0.05)
    for seed in range(10):
        scene = generate_scene(np.random.default_rng(seed), params)
        ref = _reference_scene_positions(np.random.default_rng(seed), 25, np.array(params.center), 0.04, 0.05)
        assert np.array_equal(np.array([f.pose.position for f in scene]), np.array(ref))


def test_noise_model_validation_and_json():
    with pytest.raises(ValueError):
        NoiseModel(detect_prob=1.5)
    with pytest.raises(ValueError):
        NoiseModel(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(reliable_range=(0.5, 0.5))
    assert_json_form(NoiseModel())
    assert_json_form(NoiseModel(pixel_sigma=2.0, reliable_range=(0.1, 0.4), flip_prob=0.25))


def test_scene_gen_params_json():
    assert_json_form(SceneGenParams())
    assert_json_form(SceneGenParams(count=7, center=(0.1, -0.2, 0.3), spread=0.05, min_sep=0.02))


def test_single_shot_stats_noiseless():
    stats = single_shot_stats(NoiseModel.noiseless(), K, 200, np.random.default_rng(16))
    assert stats.opportunities == 200
    assert stats.detection_rate == 1.0
    assert stats.mean_trans < 1e-9
    assert stats.mean_rot < 1e-5


def _stats_bits(stats):
    return (stats.opportunities, stats.detections_within_px, stats.trans_errors, stats.rot_errors)


def test_view_cache_gives_the_uncached_stats_across_seeds(monkeypatch):
    # Two streams fed through one cache in alternation: a call finds the
    # slots holding the other seed's views, or its own where they are still
    # there. Each call must equal the uncached one, rng state afterwards too.
    n = 150
    views = ViewCache(n)
    draws = []
    real = simworld.sample_viewpoint
    monkeypatch.setattr(simworld, "sample_viewpoint", lambda *args: draws.append(1) or real(*args))
    drawn = []
    for model in (NoiseModel(), NoiseModel(detect_prob=0.6, rot_sigma=10.0), NoiseModel(flip_prob=0.5)):
        for seed in (3, 4, 3, 3, 4):
            want_rng, got_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
            with monkeypatch.context() as m:
                m.setattr(simworld, "sample_viewpoint", real)
                want = single_shot_stats(model, K, n, want_rng)
            before = len(draws)
            got = single_shot_stats(model, K, n, got_rng, views)
            drawn.append(len(draws) - before)
            assert _stats_bits(got) == _stats_bits(want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert len(views) == n
    # A seed after the other one redraws every view; a seed repeated with
    # the same model redraws none.
    assert drawn == [n, n, n, 0, n] * 3
    with pytest.raises(ValueError, match="slots"):
        single_shot_stats(NoiseModel(), K, n + 1, np.random.default_rng(0), views)


def test_view_cache_reuses_only_an_identical_state(monkeypatch):
    draws = []
    real = simworld.sample_viewpoint
    monkeypatch.setattr(simworld, "sample_viewpoint", lambda *args: draws.append(1) or real(*args))
    views = ViewCache(1)
    rng = np.random.default_rng(5)
    first = views.view(0, rng)
    after = rng.bit_generator.state
    rng = np.random.default_rng(5)
    again = views.view(0, rng)
    assert len(draws) == 1
    assert rng.bit_generator.state == after
    for a, b in zip(first, again):
        assert a.position.tobytes() == b.position.tobytes() and a.rotation.tobytes() == b.rotation.tobytes()
    # The same 128-bit state and increment with a buffered 32-bit half is
    # another state: the slot is redrawn, and then the first state misses.
    rng = np.random.default_rng(5)
    rng.bit_generator.state = dict(rng.bit_generator.state, has_uint32=1, uinteger=12345)
    views.view(0, rng)
    assert rng.bit_generator.state["has_uint32"] == 1
    views.view(0, np.random.default_rng(5))
    assert len(draws) == 3
    with pytest.raises(TypeError, match="PCG64"):
        views.view(0, np.random.Generator(np.random.MT19937(0)))


def _pack_floats(h, *values):
    h.update(struct.pack(f"<{len(values)}d", *values))


def _oracle_stream_digest(seed: int) -> str:
    """sha256 of everything the oracle returns over a camera sweep, with
    the flip branch and clutter both frequent, then of single_shot_stats."""
    rng = np.random.default_rng(seed)
    scene = generate_scene(rng, SceneGenParams(count=12))
    noise = NoiseModel(flip_prob=0.5, clutter_rate=2.0)
    center = np.zeros(3)
    # views straight down and straight up the up axis take look_at's fallback branch
    cams = [look_at(center + [0.0, 0.0, 0.35], center), look_at(center - [0.0, 0.0, 0.35], center)]
    cams.append(sample_viewpoint(rng, center, (0.25, 0.35), (90.0, 90.0)))
    cams += [sample_viewpoint(rng, center, SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE) for _ in range(60)]
    h = hashlib.sha256()
    for tick, cam in enumerate(cams):
        h.update(cam.position.tobytes())
        h.update(cam.rotation.tobytes())
        ms, records = observe_with_truth(scene, cam, K, noise, rng, camera_id=tick % 3, tick=tick)
        for m in ms:
            _pack_floats(h, m.pixel.u, m.pixel.v, m.pixel.ray_depth)
            h.update(m.position_world.tobytes())
            h.update(m.rotation.tobytes())
            h.update(struct.pack("<qq", m.camera_id, m.tick))
        # A record is detected exactly when it has a measurement, and both
        # lists keep the same order: the k-th detected record is ms[k].
        detected = 0
        for r in records:
            h.update(struct.pack("<q?", r.flower_id, r.detected))
            _pack_floats(h, r.px_err, r.trans_err, r.rot_err_deg)
            h.update(struct.pack("<q", detected if r.detected else -1))
            detected += r.detected
        assert detected == len(ms)
    for model in (NoiseModel(), noise):
        stats = single_shot_stats(model, K, 500, rng)
        h.update(struct.pack("<qq", stats.opportunities, stats.detections_within_px))
        _pack_floats(h, *stats.trans_errors, *stats.rot_errors)
    return h.hexdigest()


# Recorded before the oracle and camera geometry were rewritten for speed:
# every output bit of the oracle must stay the same.
ORACLE_STREAM_DIGESTS = {
    0: "2bec69ee4f9d726152c8c9aefc75bff1e2575a2fcfb34fe6de908ed7ef1aeb51",
    1: "10d9c95c8d9542e3365dd5f03a2ec91092eb8fbdecea8df8e20ac645ad1685a4",
    2: "f78ca716f24658a9c10e41b27dece25393827b5722e6317434840e8887811acf",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_STREAM_DIGESTS))
def test_oracle_stream_matches_recorded_digest(seed):
    assert _oracle_stream_digest(seed) == ORACLE_STREAM_DIGESTS[seed]
