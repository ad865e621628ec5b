import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import assert_json_form, make_measurement
from pollisim.commander import (
    ArmState,
    CommanderConfig,
    Done,
    Explore,
    MoveDelta,
    MoveTo,
    RoughLocalization,
    Searching,
    TriggerPollinate,
    VisualServo,
    _eligible_targets,
    check_pollination,
    servo_delta,
    standoff_pose,
    step,
)
from pollisim.simworld import FlowerGT, NoiseModel
from pollisim.so3 import Pose, aligning_rotation, from_axis_angle, is_rotation, random_rotation, rot_x, vnorm
from pollisim.tracker import GlobalState, Track, TrackerParams
from pollisim.runner import ExperimentConfig, SceneGenParams, simulate_run


CFG = CommanderConfig()
TP = TrackerParams()


def _confident_track(pos=(0.1, 0.0, 0.2), rot=None, tick=0, with_meas=True):
    t = Track(
        pos_mean=np.asarray(pos, float),
        pos_cov=1e-5 * np.eye(3),
        rot_mean=np.eye(3) if rot is None else rot,
        rot_cov=0.01,
        hits=5,
    )
    if with_meas:
        t.last_meas = make_measurement(pos, rotation=t.rot_mean, tick=tick)
    return t


def _arm(tip=(0.3, 0.0, 0.3)):
    target = np.array([0.1, 0.0, 0.2])
    rot = aligning_rotation((target - np.asarray(tip)) / np.linalg.norm(target - np.asarray(tip)))
    return ArmState(tip_pose=Pose(np.asarray(tip, float), rot))


def test_searching_without_targets_explores():
    rng = np.random.default_rng(0)
    cmd, mode = step(Searching(), GlobalState(), _arm(), CFG, TP, rng, set())
    assert isinstance(cmd, Explore)
    assert_allclose(np.linalg.norm(cmd.direction), 1.0, atol=1e-12)
    assert mode == Searching(1)


def test_searching_transitions_to_rough_localization():
    rng = np.random.default_rng(1)
    zf = rot_x(np.radians(25.0))
    track = _confident_track(rot=zf)
    gs = GlobalState(tracks={3: track}, next_id=4)
    cmd, mode = step(Searching(), gs, _arm(), CFG, TP, rng, set())
    assert isinstance(cmd, MoveTo)
    assert mode == RoughLocalization(3, 0)
    # standoff geometry: position offset along the flower facing axis,
    # tool axis anti-parallel to it
    facing = zf[:, 2]
    assert_allclose(cmd.pose.position, track.pos_mean + CFG.standoff * facing, atol=1e-12)
    assert_allclose(cmd.pose.rotation[:, 2], -facing, atol=1e-12)


def _reference_eligible_targets(gs, cfg, tparams, taken):
    """_eligible_targets as it was written before it used vnorm and took
    hits before the covariance trace."""
    out = []
    center = np.asarray(cfg.workspace_center, dtype=float)
    for tid, t in gs.tracks.items():
        confident = float(np.trace(t.pos_cov)) < tparams.confident_trace and t.hits >= tparams.confident_hits
        if t.pollinated or tid in taken or not confident:
            continue
        if np.linalg.norm(t.pos_mean - center) > cfg.workspace_radius + cfg.standoff:
            continue
        out.append((tid, t))
    return out


def test_eligible_targets_match_the_norm_and_trace_predicate():
    rng = np.random.default_rng(33)
    cfg = CommanderConfig(workspace_center=(0.1, -0.2, 0.3))
    reach = cfg.workspace_radius + cfg.standoff
    at_reach = np.array(cfg.workspace_center) + np.array([reach, 0.0, 0.0])
    seen = set()
    for _ in range(40):
        tracks = {}
        for tid in rng.permutation(60).tolist():
            diag = rng.choice([0.5, 1.0, 2.0], size=3) * TP.confident_trace / 3.0
            if rng.random() < 0.2:
                diag = np.array([TP.confident_trace, 0.0, 0.0])  # trace exactly at the gate
            pos = np.array(cfg.workspace_center) + rng.normal(0.0, reach / 1.5, size=3)
            if rng.random() < 0.1:
                pos = at_reach.copy()
            cov = np.diag(diag)
            cov[0, 1] = cov[1, 0] = rng.normal(0.0, 1e-6)  # off the diagonal: no part of the trace
            tracks[tid] = Track(
                pos_mean=pos, pos_cov=cov, rot_mean=np.eye(3), rot_cov=0.01,
                hits=int(rng.integers(TP.confident_hits - 2, TP.confident_hits + 3)),
                pollinated=bool(rng.random() < 0.1),
            )
        gs = GlobalState(tracks=tracks, next_id=60)
        taken = set(rng.choice(60, size=int(rng.integers(0, 5)), replace=False).tolist())
        got = _eligible_targets(gs, cfg, TP, taken)
        assert got == _reference_eligible_targets(gs, cfg, TP, taken)
        seen.add(bool(got))
        for t in tracks.values():
            seen.add(("hits at the gate", t.hits == TP.confident_hits))
            seen.add(("trace at the gate", float(np.trace(t.pos_cov)) == TP.confident_trace))
            seen.add(("at reach", vnorm(t.pos_mean - np.array(cfg.workspace_center)) == reach))
    assert {("hits at the gate", True), ("trace at the gate", True), ("at reach", True), True} <= seen


def test_standoff_pose_hand_case():
    flower = Pose(np.array([0.0, 0.0, 0.5]), np.eye(3))
    sp = standoff_pose(flower, 0.04)
    assert_allclose(sp.position, [0, 0, 0.54], atol=1e-12)
    assert_allclose(sp.rotation[:, 2], [0, 0, -1], atol=1e-12)
    assert is_rotation(sp.rotation, tol=1e-9)


def test_rough_localization_approaches_then_servos():
    rng = np.random.default_rng(2)
    track = _confident_track()
    gs = GlobalState(tracks={1: track}, next_id=2)
    far_arm = _arm(tip=(0.4, 0.2, 0.4))
    cmd, mode = step(RoughLocalization(1, 7), gs, far_arm, CFG, TP, rng, set())
    assert isinstance(cmd, MoveTo)
    assert mode == RoughLocalization(1, 7)
    # at the standoff pose: transition to servo
    goal = standoff_pose(Pose(track.pos_mean, track.rot_mean), CFG.standoff)
    arm = ArmState(tip_pose=goal.copy())
    cmd, mode = step(RoughLocalization(1, 7), gs, arm, CFG, TP, rng, set())
    assert mode == VisualServo(1, 7)


def test_target_lost_returns_to_searching():
    rng = np.random.default_rng(3)
    cmd, mode = step(RoughLocalization(99, 11), GlobalState(), _arm(), CFG, TP, rng, set())
    assert isinstance(cmd, Explore)
    assert mode == Searching(11)


def test_servo_stale_measurement_refutes_track():
    rng = np.random.default_rng(4)
    track = _confident_track(tick=0)
    gs = GlobalState(tracks={2: track}, next_id=3, tick=100)  # long since last seen
    cmd, mode = step(VisualServo(2, 5), gs, _arm(), CFG, TP, rng, set())
    assert mode == Searching(5)
    assert gs.tracks == {}  # refuted, not merely released


def test_servo_aligned_triggers_and_marks():
    rng = np.random.default_rng(5)
    zf = np.eye(3)
    track = _confident_track(pos=(0.1, 0.0, 0.2), rot=zf, tick=0)
    gs = GlobalState(tracks={8: track}, next_id=9, tick=1)
    tip = Pose(track.pos_mean.copy(), rot_x(np.pi))  # tip -z == flower +z
    cmd, mode = step(VisualServo(8, 4), gs, ArmState(tip_pose=tip), CFG, TP, rng, set())
    assert cmd == TriggerPollinate(8)
    assert mode == Searching(0)  # trigger resets the search budget
    assert track.pollinated


def test_servo_misaligned_issues_clamped_delta():
    rng = np.random.default_rng(6)
    track = _confident_track(pos=(0.1, 0.0, 0.2))
    gs = GlobalState(tracks={1: track}, next_id=2, tick=0)
    arm = _arm(tip=(0.4, 0.0, 0.2))
    cmd, mode = step(VisualServo(1, 2), gs, arm, CFG, TP, rng, set())
    assert isinstance(cmd, MoveDelta)
    assert mode == VisualServo(1, 2)
    assert np.linalg.norm(cmd.dpos) <= CFG.max_step + 1e-12


def test_done_when_search_budget_exhausted():
    rng = np.random.default_rng(7)
    cmd, mode = step(Searching(CFG.search_patience), GlobalState(), _arm(), CFG, TP, rng, set())
    assert isinstance(mode, Done)
    cmd, mode = step(mode, GlobalState(), _arm(), CFG, TP, rng, set())
    assert isinstance(mode, Done)


def test_claimed_track_not_targeted_by_other_arm():
    rng = np.random.default_rng(8)
    track = _confident_track()
    gs = GlobalState(tracks={0: track}, next_id=1)
    # arm 1 approaches track 0, so arm 0 finds it taken
    cmd, mode = step(Searching(), gs, _arm(), CFG, TP, rng, taken={0})
    assert isinstance(cmd, Explore)
    assert isinstance(mode, Searching)
    # arm 1 itself, whose own target is not among the others' targets, may target it
    cmd, mode = step(Searching(), gs, ArmState(_arm().tip_pose, arm_id=1), CFG, TP, rng, taken=set())
    assert isinstance(cmd, MoveTo)
    assert mode == RoughLocalization(0, 0)


def test_not_done_while_another_arm_approaches_the_last_target():
    # The search budget is spent and the only confident track is taken: the
    # arm keeps exploring, because that approach may still lose its target.
    rng = np.random.default_rng(9)
    gs = GlobalState(tracks={0: _confident_track()}, next_id=1)
    cmd, mode = step(Searching(CFG.search_patience), gs, _arm(), CFG, TP, rng, taken={0})
    assert isinstance(cmd, Explore)
    assert mode == Searching(CFG.search_patience + 1)


def test_commander_config_json():
    assert_json_form(CFG)
    assert_json_form(CommanderConfig(gain=1.0, trigger_fresh=0, workspace_center=(0.1, -0.2, 0.3)))


def test_servo_delta_fixed_point():
    tip = standoff_pose(Pose(np.zeros(3), np.eye(3)), 0.0)
    cmd = servo_delta(tip, Pose(np.zeros(3), np.eye(3)), gain=0.5, max_step=0.02)
    assert_allclose(cmd.dpos, np.zeros(3), atol=1e-12)
    assert_allclose(cmd.drot, np.eye(3), atol=1e-12)


def test_servo_delta_gain_one_closes_small_error():
    target = Pose(np.array([0.02, 0.0, 0.0]), np.eye(3))
    tip = Pose(np.zeros(3), rot_x(np.pi))
    cmd = servo_delta(tip, target, gain=1.0, max_step=0.05)
    assert_allclose(cmd.dpos, [0.02, 0, 0], atol=1e-12)


def test_servo_delta_clamps_to_max_step():
    target = Pose(np.array([1.0, 0.0, 0.0]), np.eye(3))
    tip = Pose(np.zeros(3), rot_x(np.pi))
    cmd = servo_delta(tip, target, gain=1.0, max_step=0.02)
    assert_allclose(np.linalg.norm(cmd.dpos), 0.02, atol=1e-12)
    with pytest.raises(ValueError):
        servo_delta(tip, target, gain=0.0, max_step=0.02)


def test_servo_delta_converges_from_random_starts():
    rng = np.random.default_rng(9)
    for _ in range(100):
        flower = Pose(rng.uniform(-0.1, 0.1, 3), random_rotation(rng))
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.05, 0.20) / np.linalg.norm(offset)
        tip = Pose(flower.position + offset, random_rotation(rng))
        target = Pose(flower.position, flower.rotation)
        prev_dist = None
        for i in range(200):
            cmd = servo_delta(tip, target, gain=0.5, max_step=0.02)
            tip = Pose(tip.position + cmd.dpos, cmd.drot @ tip.rotation)
            dist = float(np.linalg.norm(tip.position - target.position))
            if prev_dist is not None:
                assert dist <= prev_dist + 1e-12  # monotone approach
            prev_dist = dist
            ang = np.degrees(
                np.arccos(np.clip(-tip.rotation[:, 2] @ target.rotation[:, 2], -1, 1))
            )
            if dist < 1e-4 and ang < 0.5:
                break
        assert dist < 1e-4 and ang < 0.5


def test_check_pollination_cases():
    flower = FlowerGT(id=0, pose=Pose(np.zeros(3), np.eye(3)))
    perfect = Pose(np.zeros(3), rot_x(np.pi))
    assert check_pollination(perfect, flower, 0.01, 30.0)
    away = Pose(np.array([0.05, 0, 0]), rot_x(np.pi))
    assert not check_pollination(away, flower, 0.01, 30.0)
    tilted = from_axis_angle([0, 1, 0], np.radians(20.0)) @ rot_x(np.pi)
    near = Pose(np.array([0.008, 0, 0]), tilted)
    assert check_pollination(near, flower, 0.01, 30.0)
    assert not check_pollination(near, flower, 0.01, 15.0)
    with pytest.raises(ValueError):
        check_pollination(perfect, flower, 0.0, 30.0)


def test_transition_graph_is_legal_noiseless():
    # record every mode transition over a full noiseless run
    from pollisim import commander, tracker
    from pollisim.camera import aim_pose
    from pollisim.runner import _apply_command, _arm_homes
    from pollisim.simworld import generate_scene, observe_with_truth
    from pollisim.camera import Intrinsics

    cfg = ExperimentConfig(seed=11, scene_gen=SceneGenParams(count=4), noise=NoiseModel.noiseless(), step_budget=900)
    scene = generate_scene(np.random.default_rng([11, 0]), cfg.scene_gen)
    tparams = cfg.resolved_tracker()
    ccfg = cfg.commander
    center = np.asarray(ccfg.workspace_center)
    gs = tracker.GlobalState()
    arm = ArmState(tip_pose=aim_pose(_arm_homes(center, ccfg.workspace_radius, 1)[0], center))
    mode = Searching()
    cam_rng = np.random.default_rng([11, 1, 0])
    cmd_rng = np.random.default_rng([11, 2, 0])
    legal = {
        ("Searching", "Searching"),
        ("Searching", "RoughLocalization"),
        ("Searching", "Done"),
        ("RoughLocalization", "RoughLocalization"),
        ("RoughLocalization", "VisualServo"),
        ("RoughLocalization", "Searching"),
        ("VisualServo", "VisualServo"),
        ("VisualServo", "Searching"),
        ("Done", "Done"),
    }
    attempts = []
    seen = set()
    for tick in range(900):
        ms, _ = observe_with_truth(scene, arm.camera, Intrinsics.default(), cfg.noise, cam_rng, 0, tick)
        gs = tracker.ingest(gs, ms, tparams)
        prev = type(mode).__name__
        cmd, mode = commander.step(mode, gs, arm, ccfg, tparams, cmd_rng, set())
        seen.add((prev, type(mode).__name__))
        _apply_command(arm, cmd, ccfg, scene, tick, attempts)
        if isinstance(mode, Done):
            break
    assert seen <= legal
    assert ("Searching", "RoughLocalization") in seen
    assert ("RoughLocalization", "VisualServo") in seen
    assert isinstance(mode, Done)
    assert all(f.pollinated for f in scene)


def test_noiseless_run_pollinates_everything():
    cfg = ExperimentConfig(
        seed=21, scene_gen=SceneGenParams(count=5), noise=NoiseModel.noiseless(), step_budget=900
    )
    report = simulate_run(cfg)
    assert report.attempt_rate == 1.0
    assert report.pollination_success_rate == 1.0
    assert report.pose_success_rate == 1.0
    assert report.n_views < 900  # reached Done early


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_attempt_names_the_arm_that_triggered_it(tmp_path, seed):
    cfg = ExperimentConfig(
        seed=seed, scene_gen=SceneGenParams(count=6), noise=NoiseModel.noiseless(), arm_count=2, step_budget=600
    )
    simulate_run(cfg, out_dir=str(tmp_path))
    with open(tmp_path / "commands.csv") as fh:
        commands = [row.split(",") for row in fh.read().splitlines()[1:]]
    with open(tmp_path / "attempts.csv") as fh:
        attempts = [row.split(",")[:3] for row in fh.read().splitlines()[1:]]
    # (tick, arm_id, track id) of every trigger, in the order both files keep
    triggers = [[tick, arm, target] for tick, arm, _, kind, target, *_ in commands if kind == "trigger_pollinate"]
    assert attempts == triggers
    assert {arm for _, arm, _ in attempts} == {"0", "1"}
