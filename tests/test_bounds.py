"""The bounds of the physical inputs: every config inside them runs the
oracle and the tracker without a floating-point flag, so no computation needs
a second route for inputs that overflow."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pollisim.camera import FOCAL_RANGE, MAX_IMAGE_SIDE, Intrinsics
from pollisim.cli import main
from pollisim.config import MAX_ARMS, MAX_STEP_BUDGET, parse_config
from pollisim.simworld import (
    BATCH_MIN,
    MAX_CLUTTER_RATE,
    MAX_FLOWERS,
    MAX_LENGTH,
    MAX_PIXEL_SIGMA,
    MAX_ROT_SIGMA,
    MIN_DEPTH,
    SURVEY_ELEVATION_RANGE,
    SURVEY_RADIUS_RANGE,
    NoiseModel,
    SceneGenParams,
    generate_scene,
    observe_with_truth,
    sample_viewpoint,
)
from pollisim.so3 import I3
from pollisim.tracker import (
    MAX_POS_VAR,
    MAX_ROT_VAR,
    MIN_POS_VAR,
    GlobalState,
    Track,
    TrackerParams,
    ingest,
    update_position,
)


def _within(lo, hi, open_lo=False):
    return st.floats(lo, hi, exclude_min=open_lo)


def _often(typical, lo, hi, open_lo=False):
    """A value in the bounds, half the time from `typical`: a stock-like
    camera, scene and detection rate put enough flowers in view to take the
    oracle's array routes."""
    return st.one_of(typical, _within(lo, hi, open_lo))


def _band():
    return st.lists(_within(MIN_DEPTH, MAX_LENGTH), min_size=2, max_size=2, unique=True).map(sorted).map(tuple)


@st.composite
def _noise(draw):
    return NoiseModel(
        detect_prob=draw(_often(st.floats(0.8, 1.0), 0.0, 1.0)),
        pixel_sigma=draw(_within(0.0, MAX_PIXEL_SIGMA)),
        depth_sigma_near=draw(_within(0.0, MAX_LENGTH)),
        depth_sigma_far=draw(_within(0.0, MAX_LENGTH)),
        reliable_range=draw(_band()),
        rot_sigma=draw(_within(0.0, MAX_ROT_SIGMA)),
        clutter_rate=draw(_within(0.0, MAX_CLUTTER_RATE)),
        flip_prob=draw(_within(0.0, 1.0)),
    )


@st.composite
def _tracker(draw, noise):
    if draw(st.booleans()):
        return TrackerParams.for_noise(noise)
    pos_var, rot_var = _within(MIN_POS_VAR, MAX_POS_VAR), _within(0.0, MAX_ROT_VAR, open_lo=True)
    return TrackerParams(
        assoc_threshold=draw(_within(0.0, MAX_LENGTH, open_lo=True)),
        init_pos_cov=draw(pos_var),
        init_rot_cov=draw(rot_var),
        q_pos=draw(_within(0.0, MAX_POS_VAR)),
        q_rot=draw(_within(0.0, MAX_ROT_VAR)),
        r_pos_near=draw(pos_var),
        r_pos_far=draw(pos_var),
        r_rot=draw(rot_var),
        reliable_range=draw(_band()),
        stale_ticks=draw(st.integers(0, 3)),
        stale_min_hits=draw(st.integers(1, 3)),
    )


@st.composite
def _any_camera(draw):
    width, height = draw(st.integers(1, MAX_IMAGE_SIDE)), draw(st.integers(1, MAX_IMAGE_SIDE))
    return Intrinsics(
        fx=draw(_within(*FOCAL_RANGE)),
        fy=draw(_within(*FOCAL_RANGE)),
        cx=draw(st.floats(0.0, width, exclude_max=True)),
        cy=draw(st.floats(0.0, height, exclude_max=True)),
        width=width,
        height=height,
    )


def _camera():
    return st.one_of(st.just(Intrinsics.default()), _any_camera())


@st.composite
def _scene_params(draw):
    return SceneGenParams(
        count=draw(st.integers(BATCH_MIN, 3 * BATCH_MIN)),
        center=tuple(draw(st.lists(_within(-MAX_LENGTH, MAX_LENGTH), min_size=3, max_size=3))),
        spread=draw(_often(st.floats(0.01, 0.2), 0.0, MAX_LENGTH, open_lo=True)),
        min_sep=0.0,  # any separation is met on the first draw: a tiny spread's distances underflow to 0
        max_tilt_deg=draw(_within(0.0, 180.0)),
    )


@st.composite
def _configs(draw):
    noise = draw(_noise())
    return noise, draw(_tracker(noise)), draw(_camera()), draw(_scene_params())


@settings(max_examples=60, deadline=None)
@given(config=_configs(), seed=st.integers(0, 2**32 - 1))
def test_bounded_configs_raise_no_floating_point_flag(config, seed):
    """Any config inside the bounds, on a scene of at least BATCH_MIN flowers
    (projected as one stack), runs the oracle and the tracker for a few ticks
    without an overflow, an invalid operation or a division by zero.

    Underflow stays at numpy's default: a subnormal sigma's products round
    to subnormals or zero, and gradual underflow rounds the same on every
    route, Python floats and numpy arrays alike, so it cannot make two
    routes disagree."""
    noise, tparams, k, gen = config
    rng = np.random.default_rng(seed)
    scene = generate_scene(rng, gen)
    gs = GlobalState()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for tick in range(4):
            cam = sample_viewpoint(rng, np.array(gen.center), SURVEY_RADIUS_RANGE, SURVEY_ELEVATION_RANGE)
            ms, _ = observe_with_truth(scene, cam, k, noise, rng, tick=tick)
            ingest(gs, ms, tparams)
    # BLAS products set no flag that numpy reads, so the results are checked too
    assert all(m.pixel.ray_depth > 0 and np.isfinite(m.position_world).all() for m in ms)
    assert all(np.isfinite(t.pos_mean).all() and np.isfinite(t.pos_cov).all() for t in gs.tracks.values())


def test_position_updates_at_the_variance_floor_stay_finite():
    # A reading at the floor fuses into a track at either end of the range,
    # a thousand times over; below about 1e-308 the gain's inverse is
    # infinite and the product silently NaN.
    for p in (MIN_POS_VAR, MAX_POS_VAR):
        t = Track(np.zeros(3), p * I3, np.eye(3), 1.0, 1)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(1000):
                update_position([t], [np.ones(3)], [MIN_POS_VAR])
        assert np.isfinite(t.pos_mean).all() and np.isfinite(t.pos_cov).all()


def test_for_noise_of_every_valid_model_fits_the_tracker_bounds():
    # TrackerParams.for_noise maps the widest and the narrowest NoiseModel
    # inside TrackerParams' bounds, so a config that leaves the tracker
    # unset is never refused for a field it did not set.
    widest = NoiseModel(
        pixel_sigma=MAX_PIXEL_SIGMA, depth_sigma_near=MAX_LENGTH, depth_sigma_far=MAX_LENGTH,
        reliable_range=(MIN_DEPTH, MAX_LENGTH), rot_sigma=MAX_ROT_SIGMA, clutter_rate=MAX_CLUTTER_RATE,
    )
    for noise in (widest, NoiseModel.noiseless()):
        params = TrackerParams.for_noise(noise)
        assert MIN_POS_VAR < params.r_pos_near <= params.r_pos_far < MAX_POS_VAR / 2
        assert 0 < params.r_rot == params.init_rot_cov < MAX_ROT_VAR / 10


def test_every_bound_is_inclusive():
    # A config with each physical input at its bound parses.
    at_bound = parse_config({
        "schema_version": 1,
        "seed": 0,
        "scene": {"generate": {"count": MAX_FLOWERS, "center": [-MAX_LENGTH, MAX_LENGTH, 0.0],
                               "spread": MAX_LENGTH, "min_sep": MAX_LENGTH, "max_tilt_deg": 180.0}},
        "step_budget": MAX_STEP_BUDGET,
        "arm_count": MAX_ARMS,
        "noise": {"pixel_sigma": MAX_PIXEL_SIGMA, "depth_sigma_near": MAX_LENGTH, "depth_sigma_far": MAX_LENGTH,
                  "reliable_range": [MIN_DEPTH, MAX_LENGTH], "rot_sigma": MAX_ROT_SIGMA,
                  "clutter_rate": MAX_CLUTTER_RATE},
        "tracker": {"assoc_threshold": MAX_LENGTH, "init_pos_cov": MIN_POS_VAR, "init_rot_cov": MAX_ROT_VAR,
                    "q_pos": MAX_POS_VAR, "q_rot": MAX_ROT_VAR, "r_pos_near": MIN_POS_VAR,
                    "r_pos_far": MAX_POS_VAR, "r_rot": MAX_ROT_VAR, "reliable_range": [MIN_DEPTH, MAX_LENGTH],
                    "confident_trace": MAX_POS_VAR},
        "commander": {**{name: MAX_LENGTH for name in (
                          "max_step", "standoff", "eps_pos", "trigger_pos", "arrival_pos", "workspace_radius")},
                      **{name: 180.0 for name in ("max_rot_step_deg", "eps_ang", "trigger_ang", "arrival_ang")},
                      "gain": 1.0, "workspace_center": [MAX_LENGTH, -MAX_LENGTH, 0.0]},
        "camera": {"fx": FOCAL_RANGE[0], "fy": FOCAL_RANGE[1], "cx": 0.0, "cy": 0.0,
                   "width": MAX_IMAGE_SIDE, "height": MAX_IMAGE_SIDE},
    })
    assert at_bound.noise.rot_sigma == MAX_ROT_SIGMA
    assert at_bound.resolved_tracker().r_rot == MAX_ROT_VAR
    assert at_bound.commander.workspace_center == (MAX_LENGTH, -MAX_LENGTH, 0.0)
    assert at_bound.camera.width == MAX_IMAGE_SIDE
    assert (at_bound.scene_gen.count, at_bound.step_budget, at_bound.arm_count) == (
        MAX_FLOWERS, MAX_STEP_BUDGET, MAX_ARMS)


@pytest.mark.parametrize(
    "argv, config, field",
    [
        (["gen-scene", "--count", "1000000000000"], None, "count"),
        (["gen-scene", "--count", str(MAX_FLOWERS + 1)], None, "count"),
        (["simulate"], {"scene": {"generate": {"count": MAX_FLOWERS + 1}}}, "count"),
        (["simulate"], {"step_budget": MAX_STEP_BUDGET + 1}, "step_budget"),
        (["simulate"], {"arm_count": MAX_ARMS + 1}, "arm_count"),
        (["simulate", "--arms", str(MAX_ARMS + 1)], {}, "arm_count"),
    ],
)
def test_integer_sizes_over_their_bound_exit_2_naming_the_field(tmp_path, capsys, argv, config, field):
    # A size past its bound is refused before anything is allocated: a
    # trillion flowers once died in generate_scene with a MemoryError.
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "seed": 0, "scene": {"generate": {}}, **config}))
        argv = [*argv, "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert field in err and "<=" in err
    assert not (tmp_path / "out").exists()
