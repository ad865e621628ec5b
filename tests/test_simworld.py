import hashlib
import json
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import assert_json_form, ks_uniform_pvalue, outcome_with_warnings
from pollisim import simworld
from pollisim.camera import Intrinsics, PixelObs, look_at, project, to_world, uplift
from pollisim.simworld import (
    MAX_LENGTH,
    MAX_ROT_SIGMA,
    MIN_DEPTH,
    SURVEY_ELEVATION_RANGE,
    SURVEY_RADIUS_RANGE,
    FlowerGT,
    InvariantViolation,
    NoiseModel,
    ParseError,
    SampleDraws,
    SceneGenParams,
    ShotRecord,
    SingleShotStats,
    draw_samples,
    generate_scene,
    load_scene,
    observe_with_truth,
    sample_viewpoint,
    save_scene,
    single_shot_stats,
)
from pollisim.so3 import (
    Pose,
    from_axis_angle,
    is_rotation,
    pairs_within,
    random_rotation,
    random_rotations,
    random_unit_vector,
    rot_z,
    rotation_to_list,
    vnorm,
    zaxis_angle,
)

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
    # ranges Generator.uniform refused: reversed or not finite
    for radii, elevations in [((0.2, np.inf), (0, 10)), ((0.2, 0.5), (10, 0)),
                              ((0.2, 0.5), (0, np.inf)), ((0.2, 0.5), (np.nan, 10))]:
        with pytest.raises(ValueError):
            sample_viewpoint(rng, np.zeros(3), radii, elevations)


def _reference_sample_viewpoint(rng, center, radius_range, elevation_range):
    """sample_viewpoint as three Generator.uniform calls."""
    center = np.asarray(center, dtype=float)
    r = rng.uniform(*radius_range)
    elev = math.radians(rng.uniform(*elevation_range))
    azim = rng.uniform(0.0, 2.0 * math.pi)
    offset = r * np.array([math.cos(elev) * math.cos(azim), math.cos(elev) * math.sin(azim), math.sin(elev)])
    return look_at(center + offset, center)


def test_sample_viewpoint_matches_three_uniform_draws_bitwise():
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    centers = np.random.default_rng(5).normal(size=(30_000, 3))
    ranges = [(SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE), ((0.3, 0.3), (10, 10)), ((0.2, 0.7), (-30.0, 89.5))]
    for i, center in enumerate(centers):
        radii, elevations = ranges[i % len(ranges)]
        got = sample_viewpoint(a, center, radii, elevations)
        want = _reference_sample_viewpoint(b, center, radii, elevations)
        assert got.position.tobytes() == want.position.tobytes()
        assert got.rotation.tobytes() == want.rotation.tobytes()
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()
    # a camera position that overflows: the same error (warnings ignored)
    center = np.full(3, 1.7e308)
    got = outcome_with_warnings(sample_viewpoint, np.random.default_rng(6), center, (1e308, 1e308), (80, 80))
    assert got[0] == outcome_with_warnings(
        _reference_sample_viewpoint, np.random.default_rng(6), center, (1e308, 1e308), (80, 80)
    )[0]
    assert got[0].startswith("ValueError")


def _reference_pose_draws(rng):
    z_u, z_v, z_d = rng.standard_normal(3).tolist()
    axis = random_unit_vector(rng)
    return z_u, z_v, z_d, axis, rng.standard_normal()


def _draw_bits(draws):
    z_u, z_v, z_d, axis, z_a = draws
    return struct.pack("<4d", z_u, z_v, z_d, z_a) + axis.tobytes()


def _unit_draws(draws):
    """`_pose_draws`' draws with the axis divided by its vnorm, as the
    arithmetic pass divides it."""
    z_u, z_v, z_d, axis, z_a = draws
    axis = np.array(axis)
    return z_u, z_v, z_d, axis / vnorm(axis), z_a


def test_pose_draws_match_the_three_call_form_bitwise():
    """One standard_normal(7) gives the values and the generator state of
    standard_normal(3), random_unit_vector and standard_normal(): the axis
    as drawn, once normalized, is random_unit_vector's."""
    for seed in range(2_000):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = simworld._pose_draws(a)
            assert all(type(w) is float for w in got[3])
            assert _draw_bits(_unit_draws(got)) == _draw_bits(_reference_pose_draws(b))
        assert a.bit_generator.state == b.bit_generator.state


class _ScriptedNormals:
    """A generator stand-in that hands out scripted standard normals in order
    and counts them; normal(size=3) is 0.0 + z, as Generator.normal."""

    def __init__(self, values):
        self.values, self.used = list(values), 0

    def standard_normal(self, size=None):
        n = 1 if size is None else size
        out = self.values[self.used:self.used + n]
        self.used += n
        return out[0] if size is None else np.array(out)

    def normal(self, size):
        return 0.0 + self.standard_normal(size)


# An axis of norm 1e-12 * (1 + eps): inside the prefilter's relative 1e-12
# margin on the sum of squares, vnorm decides; outside it, the sum does.
_EDGE = [1e-12 * (1.0 + eps) for eps in (1e-14, 0.0, -1e-14, 1e-11, -1e-11)]


@pytest.mark.parametrize("script, vnorm_calls", [
    # the axis, then a first redraw that opens with the seventh normal
    ([0.1, -0.2, 0.3, 0.0, -0.0, 1e-13, 0.6, -0.8, 0.0, 0.7, 9.0], 0),
    # two redraws, the second one whole; -0.0 entries become 0.0
    ([0.1, -0.2, 0.3, 0.0, 0.0, 0.0, -0.0, 1e-14, 0.0, 0.5, -0.5, 0.25, -1.2, 9.0], 0),
    # no redraw, an axis just past the threshold
    ([0.1, -0.2, 0.3, 0.0, -2e-12, 0.0, 0.7, 9.0], 0),
    # inside the margin: vnorm keeps an axis a hair over 1e-12
    ([0.1, -0.2, 0.3, _EDGE[0], 0.0, 0.0, 0.7, 9.0], 1),
    # ... and redraws one of norm 1e-12 and one a hair under it
    ([0.1, -0.2, 0.3, 0.0, _EDGE[1], 0.0, 0.6, -0.8, 0.0, 0.7, 9.0], 1),
    ([0.1, -0.2, 0.3, 0.0, 0.0, -_EDGE[2], 0.6, -0.8, 0.0, 0.7, 9.0], 1),
    # outside it: the sum of squares keeps one and redraws the other
    ([0.1, -0.2, 0.3, _EDGE[3], 0.0, 0.0, 0.7, 9.0], 0),
    ([0.1, -0.2, 0.3, 0.0, _EDGE[4], 0.0, 0.6, -0.8, 0.0, 0.7, 9.0], 0),
], ids=[f"script{i}" for i in range(8)])
def test_pose_draws_redraw_a_degenerate_axis_down_the_stream(monkeypatch, script, vnorm_calls):
    calls = _counted(monkeypatch, "vnorm")
    new, old = _ScriptedNormals(script), _ScriptedNormals(script)
    assert _draw_bits(_unit_draws(simworld._pose_draws(new))) == _draw_bits(_reference_pose_draws(old))
    assert new.used == old.used == len(script) - 1
    assert calls["vnorm"] == vnorm_calls


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


def _observed_bits(scene, cams, noise, seed):
    """Every bit and type that observe_with_truth returns over `cams`, or
    the error it raises; the warnings it emits; the generator's end state;
    and the depths read."""
    rng = np.random.default_rng(seed)
    out, depths = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for tick, cam in enumerate(cams):
            try:
                ms, recs = observe_with_truth(scene, cam, K, noise, rng, camera_id=tick % 2, tick=tick)
            except ValueError as exc:
                out.append(repr(exc))
                continue
            for m in ms:
                pixel = (m.pixel.u, m.pixel.v, m.pixel.ray_depth)
                depths.append(m.pixel.ray_depth)
                out.append((m.tick, *map(type, pixel), struct.pack("<3d", *pixel)))
                out += [(type(a), a.dtype, a.shape, a.tobytes()) for a in (m.position_world, m.rotation)]
            for r in recs:
                errors = (r.px_err, r.trans_err, r.rot_err_deg)
                out.append((r.tick, r.camera_id, r.flower_id, r.detected, *map(type, errors), struct.pack("<3d", *errors)))
    return out, [(w.category, str(w.message)) for w in caught], rng.bit_generator.state, depths


# Depth sigmas wide enough that some readings clamp at MIN_DEPTH; then the
# rotation sigma at its bound, which makes the angles huge, and a subnormal
# pixel sigma, whose products underflow.
WIDE = NoiseModel(depth_sigma_near=0.05, depth_sigma_far=0.3, clutter_rate=2.0)


@pytest.mark.parametrize("noise", [
    WIDE,
    replace(WIDE, rot_sigma=MAX_ROT_SIGMA),
    replace(WIDE, pixel_sigma=1e-310),
    replace(WIDE, flip_prob=0.5),
], ids=["wide", "rot", "tiny", "flip"])
def test_batched_oracle_matches_the_per_detection_path_bitwise(monkeypatch, noise):
    scene = generate_scene(np.random.default_rng(21), SceneGenParams(count=60))
    rng = np.random.default_rng(22)
    cams = [sample_viewpoint(rng, np.zeros(3), SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE) for _ in range(30)]
    routes = []  # each project call's input: a point (1) or the scene's stack (2)

    def projected(points, *args, _real=simworld.project):
        routes.append(np.ndim(points))
        return _real(points, *args)

    monkeypatch.setattr(simworld, "project", projected)
    monkeypatch.setattr(simworld, "BATCH_MIN", 10**9)
    want = _observed_bits(scene, cams, noise, 23)
    assert routes == [1] * len(scene) * len(cams)
    routes.clear()
    batches = []  # the ticks that the arrays gave, by their detection counts

    def counted(*args, _real=simworld._batched_detections):
        done = _real(*args)
        batches.append(len(done))
        return done

    monkeypatch.setattr(simworld, "BATCH_MIN", 1)
    monkeypatch.setattr(simworld, "_batched_detections", counted)
    got = _observed_bits(scene, cams, noise, 23)
    assert routes == [2] * len(cams)
    assert got == want
    _, caught, _, depths = want
    assert caught == []
    assert len(batches) == len(cams)  # every tick took the arrays
    if noise is WIDE:
        lo, hi = noise.reliable_range
        assert MIN_DEPTH in depths and any(lo <= d <= hi for d in depths) and any(d > hi for d in depths)


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


_GOOD_ENTRY = {"id": 0, "position": [0, 0, 0], "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}


@pytest.mark.parametrize("field, value", [
    ("id", 2.7),
    ("id", True),
    ("id", -1),  # negative ids mark clutter in the shot records
    ("pollinated", "no"),
    ("position", ["0.1", True, 0]),
    ("rotation", ["1", 0, 0, 0, 1, 0, 0, 0, 1]),
])
def test_load_scene_refuses_a_malformed_entry(tmp_path, field, value):
    bad = {**_GOOD_ENTRY, "id": 1, field: value}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"flowers": [_GOOD_ENTRY, bad]}))
    with pytest.raises(ParseError, match=f"flowers\\[1\\]\\.{field}"):
        load_scene(str(path))


@pytest.mark.parametrize("entries, error", [
    ([{**_GOOD_ENTRY, "id": -1}], ParseError),
    ([{**_GOOD_ENTRY, "id": 1}, {**_GOOD_ENTRY, "id": 1}], InvariantViolation),
    # each coordinate within ±MAX_LENGTH, as SceneGenParams' center; a NaN fails the same test
    ([{**_GOOD_ENTRY, "position": [0.0, 0.0, float(np.nextafter(MAX_LENGTH, np.inf))]}], InvariantViolation),
    ([{**_GOOD_ENTRY, "position": [float("nan"), 0.0, 0.0]}], InvariantViolation),
])
def test_load_scene_entry_errors_name_the_file(tmp_path, entries, error):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"flowers": entries}))
    with pytest.raises(error) as exc:
        load_scene(str(path))
    assert str(exc.value).startswith(f"{path}: flower")


def test_load_scene_reads_pollinated_as_given(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"flowers": [{**_GOOD_ENTRY, "pollinated": True}, {**_GOOD_ENTRY, "id": 4}]}))
    assert [(f.id, f.pollinated) for f in load_scene(str(path))] == [(0, True), (4, False)]


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


def _one_draw_scene(rng, params):
    """generate_scene as it was written before it drew in blocks: one draw
    and one pairs_within query per candidate."""
    count, spread, min_sep = params.count, params.spread, params.min_sep
    center = np.asarray(params.center, dtype=float)
    positions: list[np.ndarray] = []
    accepted = np.empty((count, 3))
    attempts = 0
    while len(positions) < count:
        p = center + rng.normal(0.0, spread, size=3)
        if not any(d < min_sep for _, _, d in pairs_within(accepted[: len(positions)], [p], min_sep)):
            accepted[len(positions)] = p
            positions.append(p)
        attempts += 1
        if attempts > 10000 * count:
            raise ValueError("cannot satisfy min_sep; reduce it or increase spread")
    flowers = []
    for i, p in enumerate(positions):
        tilt = math.radians(rng.uniform(0.0, params.max_tilt_deg))
        azim = rng.uniform(0.0, 2.0 * math.pi)
        tilt_axis = np.array([-math.sin(azim), math.cos(azim), 0.0])
        rot = from_axis_angle(tilt_axis, tilt) @ rot_z(rng.uniform(0.0, 2.0 * math.pi))
        flowers.append(FlowerGT(id=i, pose=Pose(p, rot)))
    return flowers


def _scene_outcome(draw, seed, params):
    """Every bit of a drawn scene, or the error it raised, and where the
    generator stands afterwards."""
    rng = np.random.default_rng([seed, 0])
    try:
        out = [(f.id, f.pose.position.tobytes(), f.pose.rotation.tobytes()) for f in draw(rng, params)]
    except ValueError as e:
        out = repr(e)
    return out, rng.bit_generator.state


@pytest.mark.parametrize(
    "params, seeds",
    [
        (SceneGenParams(count=20), 20),
        (SceneGenParams(count=60), 20),
        (SceneGenParams(count=25, center=(0.1, -0.2, 0.3), spread=0.04, min_sep=0.05), 20),  # dense
        (SceneGenParams(count=60, spread=0.06, min_sep=0.02), 20),  # clusters
        (SceneGenParams(count=1), 5),
        (SceneGenParams(count=40, min_sep=0.0), 5),
        (SceneGenParams(count=300, spread=1.0, min_sep=0.05), 2),  # more survivors than a block screens
        (SceneGenParams(count=200), 2),  # near the most the stock spread holds
        (SceneGenParams(count=2, spread=0.01, min_sep=0.5), 2),  # unsatisfiable
    ],
    ids=["stock-20", "stock-60", "dense", "clusters", "one", "no-min-sep", "many-survivors", "stock-200", "unsatisfiable"],
)
def test_generate_scene_matches_the_one_draw_loop(params, seeds):
    for seed in range(seeds):
        got = _scene_outcome(generate_scene, seed, params)
        assert got == _scene_outcome(_one_draw_scene, seed, params)
    if params.min_sep == 0.5:
        assert got[0] == repr(ValueError("cannot satisfy min_sep; reduce it or increase spread"))


def test_noise_model_validation_and_json():
    with pytest.raises(ValueError):
        NoiseModel(detect_prob=1.5)
    with pytest.raises(ValueError):
        NoiseModel(pixel_sigma=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(reliable_range=(0.5, 0.5))
    assert_json_form(NoiseModel())
    assert_json_form(NoiseModel(pixel_sigma=2.0, reliable_range=(0.1, 0.4), flip_prob=0.25))


@pytest.mark.parametrize("field", ["pixel_sigma", "depth_sigma_near", "depth_sigma_far", "rot_sigma"])
def test_noise_model_refuses_a_sigma_of_1e300(field):
    # Such sigmas once overflowed inside the oracle, or in TrackerParams.for_noise;
    # the model now refuses them and names the field.
    with pytest.raises(ValueError, match=f"^{field} must be <= "):
        replace(WIDE, **{field: 1e300})


def test_scene_gen_params_json():
    assert_json_form(SceneGenParams())
    assert_json_form(SceneGenParams(count=7, center=(0.1, -0.2, 0.3), spread=0.05, min_sep=0.02))


def test_single_shot_stats_noiseless():
    stats = single_shot_stats(NoiseModel.noiseless(), K, 200, np.random.default_rng(16))
    assert stats.opportunities == 200
    assert stats.detection_rate == 1.0
    assert stats.mean_trans < 1e-9
    assert stats.mean_rot < 1e-5


def test_single_shot_stats_tally():
    nan = float("nan")
    stats = SingleShotStats()
    stats.add([
        ShotRecord(0, 0, 0, True, 8.97, 0.01, 5.0),
        ShotRecord(0, 0, 1, True, 20.0, 0.02, 6.0),  # the pixel gate is inclusive
        ShotRecord(0, 0, 2, True, 25.0, 0.03, 7.0),
        ShotRecord(0, 0, 3, False, nan, nan, nan),
        ShotRecord(0, 0, -1, True, nan, nan, nan),  # clutter is no opportunity
    ])
    assert stats.opportunities == 4
    assert stats.px_errors == [8.97, 20.0, 25.0]
    assert stats.trans_errors == [0.01, 0.02, 0.03] and stats.rot_errors == [5.0, 6.0, 7.0]
    assert stats.detections_within_px == 2
    assert stats.detection_rate == 0.5
    assert np.isnan(SingleShotStats().detection_rate)


def _stats_bits(stats):
    return (stats.opportunities, stats.detections_within_px, stats.trans_errors, stats.rot_errors)


def _counted(monkeypatch, *names):
    """Count the calls of simworld's functions `names` from here on."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(simworld, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(simworld, name, counted)
    return calls


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("cached", [False, True])
def test_single_shot_stats_refuses_a_sample_count_below_one(samples, cached):
    # The oracle call, and the draw pass that held draws are taken by,
    # refuse the count before drawing anything.
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="n_samples"):
        if cached:
            single_shot_stats(NoiseModel(), K, samples, draw_samples(NoiseModel().detect_prob, K, samples, rng))
        else:
            single_shot_stats(NoiseModel(), K, samples, rng)
    assert rng.bit_generator.state == state  # nothing drawn


NARROW = Intrinsics(fx=600.0, fy=600.0, cx=640.0, cy=360.0, width=1280, height=720)


@pytest.mark.parametrize("model, samples, seed, k", [
    (NoiseModel(), 150, 3, K),
    (NoiseModel(detect_prob=0.6, rot_sigma=10.0), 150, 4, K),
    (NoiseModel(detect_prob=0.0), 40, 5, K),
    (NoiseModel.noiseless(), 1, 5, K),
], ids=["stock", "detect_prob", "no-detection", "one-sample"])
def test_held_draws_give_the_oracle_call_and_its_end_state(model, samples, seed, k):
    # draw_samples takes from its generator what the oracle call takes, and
    # the tally of its draws has the oracle call's bits.
    want_rng, got_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
    want = single_shot_stats(model, k, samples, want_rng)
    draws = draw_samples(model.detect_prob, k, samples, got_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert _stats_bits(single_shot_stats(model, k, samples, draws)) == _stats_bits(want)
    assert want.opportunities > 0


@pytest.mark.parametrize("model, samples, seed, k, refused", [
    (NoiseModel(detect_prob=0.8), 100, 6, K, None),
    (NoiseModel(detect_prob=0.7), 100, 5, K, "at detect_prob=0.8 cannot tally detect_prob=0.7"),
    (NoiseModel(detect_prob=0.8), 99, 5, K, "at n_samples=100 cannot tally n_samples=99"),
    (NoiseModel(detect_prob=0.8), 100, 5, NARROW, "at k="),
], ids=["start-state", "detect_prob", "n_samples", "intrinsics"])
def test_a_held_call_replays_only_under_its_whole_key(model, samples, seed, k, refused):
    # Draws held for 100 samples at seed 5, detect_prob 0.8 and intrinsics K
    # refuse a call that differs from them in one setting alone. They hold no
    # generator state: a call from another start state gets the draws taken
    # from that state. Draws taken under the call's whole key give the
    # oracle call's bits and leave its generator where the oracle leaves it.
    held = draw_samples(0.8, K, 100, np.random.default_rng([5, 7]))
    if refused:
        with pytest.raises(ValueError, match=refused):
            single_shot_stats(model, k, samples, held)
    want_rng, got_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
    want = single_shot_stats(model, k, samples, want_rng)
    draws = draw_samples(model.detect_prob, k, samples, got_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert _stats_bits(single_shot_stats(model, k, samples, draws)) == _stats_bits(want)
    if not refused:
        assert _stats_bits(single_shot_stats(model, k, samples, held)) != _stats_bits(want)


@pytest.mark.parametrize("setting, value", [
    ("pixel_sigma", 9.0), ("depth_sigma_near", 0.02), ("depth_sigma_far", 0.01), ("reliable_range", (0.2, 0.4)),
    ("rot_sigma", 5.0),
])
def test_a_replay_follows_each_error_setting_alone(monkeypatch, setting, value):
    # One draw pass serves every model with its detect_prob: a model that
    # changes one error setting alone is tallied on the same draws, without
    # another view or oracle call, and gets the oracle call's bits.
    n, seed = 100, 8
    models = (NoiseModel(), replace(NoiseModel(), **{setting: value}))
    want = [single_shot_stats(model, K, n, np.random.default_rng([seed, 7])) for model in models]
    calls = _counted(monkeypatch, "sample_viewpoint", "observe_with_truth")
    draws = draw_samples(NoiseModel().detect_prob, K, n, np.random.default_rng([seed, 7]))
    got = [single_shot_stats(model, K, n, draws) for model in models]
    assert calls == {"sample_viewpoint": n, "observe_with_truth": 1}
    assert [_stats_bits(g) for g in got] == [_stats_bits(w) for w in want]


def test_held_draws_refuse_a_model_with_flips():
    # A flip draws more numbers after a detection than the held draws hold.
    draws = draw_samples(0.8, K, 30, np.random.default_rng(2))
    with pytest.raises(ValueError, match="without flips, not flip_prob=0.1"):
        single_shot_stats(NoiseModel(detect_prob=0.8, flip_prob=0.1), K, 30, draws)


@pytest.mark.parametrize("drift", ["extra-draw", "detected-flag"])
def test_draw_samples_raises_when_the_oracle_draws_differently(monkeypatch, drift):
    # The first visible sample is observed by the oracle on a copy of the
    # generator; an oracle that draws one number more, or reports another
    # detection, no longer matches the draws.
    real = simworld.observe_with_truth
    calls = _counted(monkeypatch, "observe_with_truth")
    draw_samples(0.9, K, 50, np.random.default_rng(3))
    assert calls["observe_with_truth"] == 1

    def drifted(scene, cam, k, noise, rng):
        ms, records = real(scene, cam, k, noise, rng)
        if drift == "extra-draw":
            rng.random()
        else:
            records = [replace(r, detected=not r.detected) for r in records]
        return ms, records

    monkeypatch.setattr(simworld, "observe_with_truth", drifted)
    with pytest.raises(AssertionError, match="observe_with_truth"):
        draw_samples(0.9, K, 50, np.random.default_rng(3))


def _tally_bytes(stats):
    return stats.opportunities, np.array([stats.px_errors, stats.trans_errors, stats.rot_errors]).tobytes()


def test_batched_replay_matches_the_scalar_oracle_bitwise():
    # 12,000 made-up samples held as one draw pass. Each detection's errors
    # must have the bits that the scalar _noisy_position, _noisy_rotation and
    # zaxis_angle give on the same draws, and misses and out-of-view samples
    # must count as the oracle counts them. Among the samples: depths on both
    # reliable_range edges, depth draws under the 1e-6 clamp, and the stock
    # sigmas as well as zero pixel, depth and rotation sigmas.
    n = 12_000
    rng = np.random.default_rng(31)
    stock = NoiseModel()
    zero = replace(stock, pixel_sigma=0.0, depth_sigma_near=0.0, depth_sigma_far=0.0, rot_sigma=0.0)
    depth = rng.uniform(0.05, 0.9, n)
    depth[::7], depth[1::7] = stock.reliable_range
    z = rng.standard_normal((n, 3))
    z[2::11, 2] = -1e3
    axis = rng.standard_normal((n, 3))  # the normals as drawn; the kernel normalizes them
    rows = np.column_stack([
        rng.uniform(0.0, K.width, n), rng.uniform(0.0, K.height, n), depth, rng.random(n), z, axis,
        rng.standard_normal(n),
    ])
    rows[3::13] = np.nan  # out of view
    # Held as one pass of n samples under K and the stock detect_prob, which
    # zero shares; made-up rows in place of drawn ones.
    flower_rot, cam_rot = random_rotations(rng, n), random_rotations(rng, n)
    draws = SampleDraws(stock.detect_prob, K, flower_rot, rng.normal(0.0, 0.4, (n, 3)), cam_rot, rows)
    clamped = 0
    for noise in (stock, zero, stock):
        got = single_shot_stats(noise, K, n, draws)
        want = SingleShotStats()
        for i, (u, v, d, r, z_u, z_v, z_d, *ax, z_a) in enumerate(draws.rows.tolist()):
            if math.isnan(d):
                continue
            if r >= noise.detect_prob:
                want.add([ShotRecord(0, 0, 0, False, math.nan, math.nan, math.nan)])
                continue
            cam = Pose(draws.cam_pos[i], draws.cam_rot[i])
            pixel, _, px, trans = simworld._noisy_position(
                PixelObs(u, v, d), np.zeros(3), cam, K, noise, z_u, z_v, z_d
            )
            clamped += pixel.ray_depth == 1e-6
            flower_rot = draws.flower_rot[i]
            rot = zaxis_angle(simworld._noisy_rotation(flower_rot, np.array(ax), z_a, noise.rot_sigma), flower_rot)
            want.add([ShotRecord(0, 0, 0, True, px, trans, rot)])
        assert _tally_bytes(got) == _tally_bytes(want)
        assert len(want.px_errors) < want.opportunities < n  # misses and out-of-view samples among them
    assert clamped > 1000


def _pack_floats(h, *values):
    h.update(struct.pack(f"<{len(values)}d", *values))


FLIPPING = NoiseModel(flip_prob=0.5, clutter_rate=2.0)


def _oracle_stream_digest(seed: int, count: int = 12, noise: NoiseModel = FLIPPING) -> str:
    """sha256 of everything the oracle returns over a camera sweep of a
    `count`-flower scene under `noise`, then of single_shot_stats."""
    rng = np.random.default_rng(seed)
    scene = generate_scene(rng, SceneGenParams(count=count))
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
            h.update(struct.pack("<qq", tick % 3, m.tick))  # the camera id passed in, hashed as recorded
        # A record is detected exactly when it has a measurement, and both
        # lists keep the same order: the k-th detected record is ms[k].
        detected = 0
        for r in records:
            assert (r.tick, r.camera_id) == (tick, tick % 3)
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


# A 40-flower sweep without flips, recorded before the oracle did a tick's
# arithmetic on arrays: each of its 63 views holds 13 or more detections,
# so every one of them takes the batched path.
BATCHED_STREAM_DIGESTS = {
    0: "c33512c2a3c5b0ec740861175302178855a8515c406aa4fa6590f9ba9aa9d633",
    1: "db4779568606c195e98235d0977ee294eede10eb098e34cdcd095e295667aa95",
}


@pytest.mark.parametrize("seed", sorted(BATCHED_STREAM_DIGESTS))
def test_batched_oracle_stream_matches_recorded_digest(monkeypatch, seed):
    calls = _counted(monkeypatch, "_batched_detections")
    assert _oracle_stream_digest(seed, 40, NoiseModel(clutter_rate=2.0)) == BATCHED_STREAM_DIGESTS[seed]
    assert calls["_batched_detections"] == 63


# The same 40-flower sweep with flips, recorded while a model with flips
# still did each detection's arithmetic inside the draw pass: each of its
# 63 views holds 12 or more detections and takes the batched path, which
# applies the flips that the draw pass held.
FLIP_STREAM_DIGESTS = {
    0: "5c9565f770577c409dc7fa9a7fa2b4ae7c6a1c23d4c162e68ddfa3b644547348",
    1: "b7838b577afb4c139c537845d5a3f1bfcb3d7a07493544f3f27cc6027f9aee54",
}


@pytest.mark.parametrize("seed", sorted(FLIP_STREAM_DIGESTS))
def test_batched_flip_stream_matches_recorded_digest(monkeypatch, seed):
    calls = _counted(monkeypatch, "_batched_detections")
    assert _oracle_stream_digest(seed, 40, FLIPPING) == FLIP_STREAM_DIGESTS[seed]
    assert calls["_batched_detections"] == 63
