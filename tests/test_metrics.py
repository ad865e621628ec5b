import numpy as np
import pytest
from numpy.testing import assert_allclose

from pollisim.metrics import (
    AttemptRecord,
    BinaryMask,
    DimensionMismatch,
    EmptyRun,
    InvalidCounts,
    PoseError,
    RunLogs,
    aggregate,
    dice,
    match_tracks_to_flowers,
    pollination_rates,
    pose_error,
    pose_success,
    report_csv_row,
    summary_table,
)
from pollisim.simworld import FlowerGT, NoiseModel, SingleShotStats
from pollisim.so3 import Pose, rot_x, rot_z
from pollisim.tracker import Track
from pollisim.runner import ExperimentConfig, SceneGenParams, simulate_run


def _mask(bits):
    arr = np.asarray(bits, dtype=bool)
    return BinaryMask(width=arr.shape[1], height=arr.shape[0], bits=arr)


def test_pose_error_identity():
    e = pose_error(Pose.identity(), Pose.identity())
    assert e == PoseError(0.0, 0.0)


def test_pose_error_reference_fixture():
    gt = Pose(np.zeros(3), np.eye(3))
    est = Pose(np.array([0.006, 0.0, 0.0]), rot_x(np.radians(19.14)))
    e = pose_error(est, gt)
    assert_allclose(e.trans_err, 0.006, atol=1e-12)
    assert_allclose(e.rot_err, 19.14, atol=1e-9)
    assert pose_success(e)


def test_pose_error_yaw_invariant():
    gt = Pose(np.zeros(3), rot_x(0.4))
    est = Pose(np.zeros(3), rot_x(0.4))
    for theta in np.linspace(0, 2 * np.pi, 9):
        twisted = Pose(est.position, est.rotation @ rot_z(theta))
        assert pose_error(twisted, gt).rot_err < 1e-5


def test_pose_success_thresholds():
    assert pose_success(PoseError(0.006, 19.14))
    assert not pose_success(PoseError(0.09, 10.0))
    assert pose_success(PoseError(0.08, 60.0))  # boundary inclusive
    assert not pose_success(PoseError(0.080001, 60.0))


def test_dice_identical_and_disjoint():
    a = _mask([[1, 1], [0, 0]])
    assert dice(a, a) == 1.0
    b = _mask([[0, 0], [1, 1]])
    assert dice(a, b) == 0.0


def test_dice_hand_counted():
    a = _mask([[1, 1], [0, 0]])
    b = _mask([[1, 0], [1, 0]])
    assert dice(a, b) == 0.5  # 2*1 / (2+2)


def test_dice_empty_masks():
    empty = _mask(np.zeros((3, 3)))
    assert dice(empty, empty) == 1.0


def test_dice_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = _mask(rng.random((6, 8)) > 0.5)
        b = _mask(rng.random((6, 8)) > 0.5)
        assert dice(a, b) == dice(b, a)
        assert 0.0 <= dice(a, b) <= 1.0


def test_dice_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dice(_mask(np.zeros((2, 2))), _mask(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        BinaryMask(width=2, height=2, bits=np.zeros((3, 3), dtype=bool))


def test_pollination_rates_reference_pattern():
    attempt, success = pollination_rates(18, 14, 20)
    assert_allclose(attempt, 0.90, atol=1e-12)
    assert_allclose(success, 14.0 / 18.0, atol=1e-12)
    assert pollination_rates(0, 0, 20) == (0.0, 0.0)
    assert pollination_rates(20, 20, 20) == (1.0, 1.0)


def test_pollination_rates_validation():
    with pytest.raises(InvalidCounts):
        pollination_rates(5, 6, 20)
    with pytest.raises(InvalidCounts):
        pollination_rates(21, 0, 20)
    with pytest.raises(InvalidCounts):
        pollination_rates(0, 0, 0)


def _track_at(tid, pos, rot=None, hits=5):
    """A track table entry: (id, track)."""
    return tid, Track(
        pos_mean=np.asarray(pos, float),
        pos_cov=1e-5 * np.eye(3),
        rot_mean=np.eye(3) if rot is None else rot,
        rot_cov=0.01,
        hits=hits,
    )


def _flower_at(fid, pos, rot=None):
    return FlowerGT(id=fid, pose=Pose(np.asarray(pos, float), np.eye(3) if rot is None else rot))


def test_match_tracks_to_flowers_greedy():
    flowers = [_flower_at(0, [0, 0, 0]), _flower_at(1, [0.2, 0, 0])]
    tracks = dict([_track_at(10, [0.01, 0, 0]), _track_at(11, [0.21, 0, 0]), _track_at(12, [5, 5, 5])])
    m = match_tracks_to_flowers(tracks, flowers)
    assert m == {0: 10, 1: 11}
    # Equal distances commit the lower flower id first, then the lower track id.
    one_track = match_tracks_to_flowers(
        dict([_track_at(5, [0, 0, 0])]), [_flower_at(1, [0.02, 0, 0]), _flower_at(0, [-0.02, 0, 0])]
    )
    assert one_track == {0: 5}
    one_flower = match_tracks_to_flowers(
        dict([_track_at(7, [0.02, 0, 0]), _track_at(3, [-0.02, 0, 0])]), [_flower_at(0, [0, 0, 0])]
    )
    assert one_flower == {0: 3}
    all_tied = match_tracks_to_flowers(
        dict([_track_at(7, [0, 0, 0]), _track_at(3, [0, 0, 0])]),
        [_flower_at(1, [0.02, 0, 0]), _flower_at(0, [-0.02, 0, 0])],
    )
    assert list(all_tied.items()) == [(0, 3), (1, 7)]


def test_aggregate_simple_run():
    flowers = [_flower_at(0, [0, 0, 0])]
    tracks = [_track_at(3, [0.004, 0, 0])]
    logs = RunLogs(
        scene=flowers,
        final_tracks=dict(tracks),
        n_ticks=10,
        shots=SingleShotStats(opportunities=10, px_errors=[5.0] * 9),
        attempts=[AttemptRecord(5, 0, 3, 0, True)],
        reachable_ids=[0],
        seed=1,
        config_digest="d",
    )
    rep = aggregate(logs)
    assert rep.n_flowers == 1 and rep.n_matched == 1
    assert_allclose(rep.mean_trans_err_m, 0.004, atol=1e-12)
    assert rep.pose_success_rate == 1.0
    assert rep.detection_success_rate == 0.9
    assert rep.attempt_rate == 1.0 and rep.pollination_success_rate == 1.0


def test_aggregate_unmatched_flower_counts_against_success():
    flowers = [_flower_at(0, [0, 0, 0]), _flower_at(1, [1, 1, 1])]
    tracks = [_track_at(3, [0.004, 0, 0])]
    logs = RunLogs(scene=flowers, final_tracks=dict(tracks), n_ticks=5, reachable_ids=[0, 1])
    rep = aggregate(logs)
    assert rep.pose_success_rate == 0.5
    assert rep.n_matched == 1
    # the unmatched flower does not pollute the error means
    assert_allclose(rep.mean_trans_err_m, 0.004, atol=1e-12)


def test_aggregate_mean_over_successes_only_option():
    flowers = [_flower_at(0, [0, 0, 0]), _flower_at(1, [0.2, 0, 0])]
    # second track matched in position but fails the 60 degree gate
    tracks = [_track_at(3, [0.004, 0, 0]), _track_at(4, [0.22, 0, 0], rot=rot_x(np.radians(170)))]
    logs = RunLogs(scene=flowers, final_tracks=dict(tracks), n_ticks=5, reachable_ids=[0, 1])
    rep = aggregate(logs)
    assert rep.n_matched == 2
    assert rep.pose_success_rate == 0.5
    # the means cover every matched flower, the one that fails the gate too
    assert_allclose(rep.mean_trans_err_m, 0.012, atol=1e-12)


def test_aggregate_empty_run_errors():
    with pytest.raises(EmptyRun):
        aggregate(RunLogs(scene=[], final_tracks={}, n_ticks=5))
    with pytest.raises(EmptyRun):
        aggregate(RunLogs(scene=[_flower_at(0, [0, 0, 0])], final_tracks={}, n_ticks=0))


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(1)
    flowers = [_flower_at(i, rng.uniform(0, 0.3, 3)) for i in range(5)]
    tracks = [_track_at(10 + i, f.pose.position + rng.normal(0, 0.002, 3)) for i, f in enumerate(flowers)]
    attempts = [AttemptRecord(t, 0, 10 + i, i, i % 2 == 0) for i, t in enumerate(range(5))]
    logs_a = RunLogs(scene=list(flowers), final_tracks=dict(tracks), n_ticks=9,
                     shots=SingleShotStats(opportunities=4, px_errors=[1.0, 2.0, 3.0, 4.0]),
                     attempts=list(attempts), reachable_ids=[0, 1, 2, 3, 4])
    logs_b = RunLogs(scene=flowers[::-1], final_tracks=dict(tracks[::-1]), n_ticks=9,
                     shots=SingleShotStats(opportunities=4, px_errors=[4.0, 3.0, 2.0, 1.0]),
                     attempts=attempts[::-1], reachable_ids=[4, 3, 2, 1, 0])
    assert aggregate(logs_a).to_json() == aggregate(logs_b).to_json()


def test_report_formatting():
    flowers = [_flower_at(0, [0, 0, 0])]
    tracks = [_track_at(3, [0.004, 0, 0])]
    logs = RunLogs(scene=flowers, final_tracks=dict(tracks), n_ticks=10,
                   shots=SingleShotStats(opportunities=10, px_errors=[5.0] * 9),
                   attempts=[AttemptRecord(5, 0, 3, 0, True)], reachable_ids=[0],
                   seed=1, config_digest="d")
    rep = aggregate(logs)
    row = report_csv_row(rep)
    assert row.startswith("1,1,10,")
    assert "90.00" in row  # detection rate at two decimals
    table = summary_table(rep)
    assert "Attempt Rate" in table and "100.00" in table


def test_single_flower_noiseless_run_report():
    cfg = ExperimentConfig(
        seed=5, scene_gen=SceneGenParams(count=1), noise=NoiseModel.noiseless(), step_budget=700
    )
    rep = simulate_run(cfg)
    assert rep.pose_success_rate == 1.0
    assert rep.attempt_rate == 1.0
    assert rep.pollination_success_rate == 1.0
    assert rep.detection_success_rate == 1.0
    assert rep.mean_trans_err_m < 1e-6
    assert rep.mean_rot_err_deg < 1e-4
    assert rep.detection_err_px < 1e-9
