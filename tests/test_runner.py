"""The runner's outputs, pinned: every byte of one run directory, and the
work the runner skips because its result is already known (calibration's
samples, drawn once per detect_prob, and the rotation audit's reused
verdicts), which must leave every result exactly as the full computation
gives it."""

import csv
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import BENCH_DIGESTS, make_measurement
from pollisim import runner, simworld
from pollisim.artifacts import read_run_logs
from pollisim.camera import Intrinsics
from pollisim.simworld import NoiseModel, SceneGenParams
from pollisim.tracker import GlobalState, TrackerParams, ingest

K = Intrinsics.default()
CLI_TARGETS = {"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301}
NOISELESS_TARGETS = {"trans_cm": 0.0, "rot_deg": 0.0, "det_rate": 1.0}
# No detect bisection, but both sigma searches.
PERFECT_DETECTION_TARGETS = {"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 1.0}

# Clutter, flips and two arms, so every file and every row kind is exercised:
# 2132 shot rows (clutter among them) and 18 attempts. The digests were
# recorded before the filter steps updated tracks in place and before the
# loop kept its shots as ShotRecords: every run byte must stay the same.
PINNED_RUN = runner.ExperimentConfig(
    seed=3, scene_gen=SceneGenParams(count=12), arm_count=2, step_budget=300,
    noise=NoiseModel(flip_prob=0.2, clutter_rate=0.5),
)
PINNED_RUN_SHA256 = {
    "attempts.csv": "bbcbe942a9b0d722862f3e318ed4a355825e2f21860851752f4e9488a63faf4a",
    "commands.csv": "30699ddc5fe6b13c3cc7c136c466e2a28a4753f3e2be9309606942b1256bc480",
    "config_resolved.json": "0788358dc35225dfbaa08df1d246da8141d7829c3509f1bf668b614dac3c3dc6",
    "meta.json": "ec0a3b236fd1c15e86beeca96fde16bd59bddfd4dee08278c7bb51900b23a92b",
    "report.csv": "2ef0be8d364769787d0492ded6e2bf1bc286ac2e6c4555eff2a6bd7891235b26",
    "report.json": "32885c0134d4ef51545e8474192dad9212309531f983b1614fef7c19122af3f5",
    "scene.json": "e8844d2d1295704d92268e5dc7258bdc0be080225eeb97150ada500bba602446",
    "shots.csv": "ac319fd05a4ffe3b12561127fd70fcfd7f34c33e95c0a7db78d0c7e3c15a9920",
    "summary.txt": "768c99368d2a5d2422af10482060dd0605213811d5a5c4f3c3f368e8fa92fbe4",
    "tracks.csv": "cfc93e1651bd5b4752b7e40cea64a4893c9846021fe3adcb7617018701ce2cda",
}


# Three arms on twelve flowers with the stock noise: arms contend for the
# same confident tracks, so the rule that keeps them on distinct targets
# decides most of the 900 command rows. The digests were recorded while
# that rule was a claims table in the tracker's state.
PINNED_3ARM_RUN = runner.ExperimentConfig(
    seed=0, scene_gen=SceneGenParams(count=12), arm_count=3, step_budget=300,
)
PINNED_3ARM_RUN_SHA256 = {
    "attempts.csv": "a12b5e63f556864d6e01ca8a001ac9818764dd7ae30416580cd3e54fa28a5588",
    "commands.csv": "654bf6d6bfb4ea15009e03937dda7c97b0597454ca701eefe380a652b81ce500",
    "config_resolved.json": "ea1fedfe8f6a199ff8770386e101aac3f1672e14a850486dc88b5e08fcbd33fe",
    "meta.json": "c84d54093dd6af1999a1eabd88327bda17a254b485d8a3b1c4109a2e736c3754",
    "report.csv": "461627c6a5bdb68cba419f5fd9c19c3fae9f4db2a7dbbb1e122511a48cda1690",
    "report.json": "53ad1e4a19616abca1d8c5fd06426550f78bcc0a402ee6a71ae376fd52b0afbf",
    "scene.json": "b0f3564c4ccb40d881c5116976498816a80dfc4c9419cb185dd0a6340f28c7ac",
    "shots.csv": "5f812e3abd728550264e04a0f9c7776743fff432f0f7605b061c415fa67f0474",
    "summary.txt": "1f3d5d96ce52b33355c8bf3da2d7cce4f81524e3d0d965a04e535301ccd7e2bb",
    "tracks.csv": "7abf3a9084da108cb03ea955ae2e899cdae138b48009c2d73dfe672b2d7f88e3",
}


def _run_digests(cfg, out_dir) -> dict[str, str]:
    runner.simulate_run(cfg, out_dir=str(out_dir))
    got = {}
    for name in os.listdir(out_dir):
        with open(out_dir / name, "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    return got


def test_run_directory_bytes_are_pinned(tmp_path):
    assert _run_digests(PINNED_RUN, tmp_path) == PINNED_RUN_SHA256
    # the track table iterates in increasing id order, and tracks.csv with it
    with open(tmp_path / "tracks.csv", encoding="utf-8") as fh:
        ids = [int(row["track_id"]) for row in csv.DictReader(fh)]
    assert len(ids) > 1 and all(a < b for a, b in zip(ids, ids[1:]))


def test_three_arm_run_is_pinned_and_targets_are_exclusive(tmp_path):
    assert _run_digests(PINNED_3ARM_RUN, tmp_path) == PINNED_3ARM_RUN_SHA256
    # Replay commands.csv row by row (each row is one arm's mode right after
    # its step) and check that no two arms approach one track at once.
    approaching: dict[str, str] = {}
    clashes, shared = [], 0
    with open(tmp_path / "commands.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["mode"] in ("rough_localization", "visual_servo"):
                approaching[row["arm_id"]] = row["target_id"]
            else:
                approaching.pop(row["arm_id"], None)
            if len(set(approaching.values())) < len(approaching):
                clashes.append(row)
            shared += len(approaching) >= 2
    assert clashes == []
    assert shared > 0  # arms do approach side by side, so the check has teeth


def test_read_run_logs_rebuilds_the_loops_shot_tally(monkeypatch, tmp_path):
    passed = []
    real = runner.aggregate
    monkeypatch.setattr(runner, "aggregate", lambda logs: passed.append(logs) or real(logs))
    runner.simulate_run(PINNED_RUN, out_dir=str(tmp_path))
    loop, read = passed[0].shots, read_run_logs(str(tmp_path)).shots
    assert read.opportunities == loop.opportunities == 1844
    for name in ("px_errors", "trans_errors", "rot_errors"):
        assert np.array(getattr(read, name)).tobytes() == np.array(getattr(loop, name)).tobytes()


def _calibration_record(monkeypatch, targets, seed, oracle):
    """Every evaluation's (trans, rot, det), then the model or the failure.
    With `oracle`, each evaluation is what the oracle's single_shot_stats
    gives for its model on a fresh generator of calibration's stream."""
    evals = []
    inner = runner.single_shot_stats

    def recorded(noise, k, n_samples, draws):
        if oracle:
            draws = np.random.default_rng([seed, 7])
        s = inner(noise, k, n_samples, draws)
        evals.append((s.mean_trans, s.mean_rot, s.detection_rate))
        return s

    with monkeypatch.context() as m:
        m.setattr(runner, "single_shot_stats", recorded)
        try:
            outcome = runner.calibrate_noise(targets, seed=seed, n_samples=250).to_json()
        except runner.NoConvergence as exc:
            outcome = str(exc)
    return evals, outcome


@pytest.mark.parametrize("targets", [CLI_TARGETS, NOISELESS_TARGETS, PERFECT_DETECTION_TARGETS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calibration_with_reused_views_equals_the_uncached_one(monkeypatch, targets, seed):
    held = _calibration_record(monkeypatch, targets, seed, oracle=False)
    uncached = _calibration_record(monkeypatch, targets, seed, oracle=True)
    # NaN statistics (no detection at all) compare equal through repr
    assert repr(held) == repr(uncached)
    assert len(held[0]) >= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_calibration_replays_every_evaluation_without_stop(monkeypatch, seed):
    # One draw pass per detect_prob evaluated: n views each, and one oracle
    # call, the draw pass's parity check. No evaluation calls the oracle.
    n = 250
    calls = dict.fromkeys(("sample_viewpoint", "observe_with_truth"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(simworld, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(simworld, name, counted)
    models = []
    inner = runner.single_shot_stats
    monkeypatch.setattr(runner, "single_shot_stats", lambda noise, *rest: models.append(noise) or inner(noise, *rest))
    runner.calibrate_noise(CLI_TARGETS, seed=seed, n_samples=n)
    passes = len({model.detect_prob for model in models})
    assert passes >= 2 and len(models) > passes
    assert calls == {"sample_viewpoint": n * passes, "observe_with_truth": passes}


def test_benchmark_calibration_gives_its_recorded_models():
    # The calibrate workload at benchmark seed 0: the CLI targets, 1000
    # samples, seeds 0-2. Its models were recorded before SampleCache
    # replayed samples, so every bit of the fitted models must stay.
    with open(BENCH_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)["calibrate"]["0"]
    got = []
    for seed in range(3):
        model = runner.calibrate_noise(CLI_TARGETS, seed=seed, n_samples=1000).to_json()
        got.append(hashlib.sha256(json.dumps(model, sort_keys=True, separators=(",", ":")).encode()).hexdigest())
    assert got == want


def test_calibration_evaluates_each_noise_model_once(monkeypatch):
    # the uncached search at these settings makes 19 evaluations of 16 models
    models = []
    inner = runner.single_shot_stats
    monkeypatch.setattr(
        runner, "single_shot_stats", lambda noise, *rest, **kw: models.append(noise) or inner(noise, *rest, **kw)
    )
    runner.calibrate_noise(CLI_TARGETS, seed=0, n_samples=250)
    assert len(models) > 1
    assert len(models) == len(set(models))


def _bad_rotation_ingest(monkeypatch, views):
    """Make runner.ingest return, at the given views (0-based ingest count),
    the first track holding one fixed non-rotation mean. The filter itself
    keeps running on the true state."""
    real_ingest = runner.ingest
    bad = 2.0 * np.eye(3)
    state = {"gs": None, "view": -1}

    def ingest(gs, ms, tparams):
        state["view"] += 1
        state["gs"] = real_ingest(gs if state["gs"] is None else state["gs"], ms, tparams)
        tracks = state["gs"].tracks
        if state["view"] in views and tracks:
            first = next(iter(tracks))
            return replace(state["gs"], tracks={**tracks, first: replace(tracks[first], rot_mean=bad)})
        return state["gs"]

    monkeypatch.setattr(runner, "ingest", ingest)


def _counted_is_rotation(monkeypatch):
    audited = []
    real = runner.is_rotation
    monkeypatch.setattr(runner, "is_rotation", lambda m, tol: audited.append(len(audited)) or real(m, tol=tol))
    return audited


def _count_tracks_per_ingest(monkeypatch):
    counts = []
    real_ingest = runner.ingest

    def counting(gs, ms, tparams):
        out = real_ingest(gs, ms, tparams)
        counts.append(len(out.tracks))
        return out

    monkeypatch.setattr(runner, "ingest", counting)
    return counts


def test_survey_audit_counts_every_failing_view_and_reuses_verdicts(monkeypatch):
    n_views, bad_views = 20, range(6, 11)
    clean = runner.survey_run(NoiseModel(), TrackerParams(), K, n_views, 3)
    assert clean.rotation_violations == 0

    tracks_per_view = _count_tracks_per_ingest(monkeypatch)
    _bad_rotation_ingest(monkeypatch, set(bad_views))
    audited = _counted_is_rotation(monkeypatch)
    trial = runner.survey_run(NoiseModel(), TrackerParams(), K, n_views, 3)
    assert all(tracks_per_view[v] >= 1 for v in bad_views)
    assert trial.rotation_violations == len(bad_views)
    assert 0 < len(audited) < sum(tracks_per_view)
    # the fused result is untouched: the filter never saw the bad mean
    assert (trial.final_trans, trial.final_rot) == (clean.final_trans, clean.final_rot)


def test_validated_run_raises_on_a_bad_rotation_and_reuses_verdicts(monkeypatch):
    cfg = runner.ExperimentConfig(seed=1, scene_gen=SceneGenParams(count=3), step_budget=60)
    plain = runner.simulate_run(cfg).to_json()
    with monkeypatch.context() as m:
        tracks_per_tick = _count_tracks_per_ingest(m)
        audited = _counted_is_rotation(m)
        assert runner.simulate_run(cfg, validate_rotations=True).to_json() == plain
    assert 0 < len(audited) < sum(tracks_per_tick)
    assert tracks_per_tick[40] >= 1
    _bad_rotation_ingest(monkeypatch, {40})
    with pytest.raises(AssertionError, match="rotation left SO\\(3\\) at tick 40"):
        runner.simulate_run(cfg, validate_rotations=True)


def test_rotation_audit_sees_a_mean_written_in_place():
    gs = ingest(GlobalState(), [make_measurement([0.0, 0.0, 0.3]), make_measurement([0.2, 0.0, 0.3])], TrackerParams())
    verdicts = {}
    assert runner._failed_rotation_audit(gs.tracks, verdicts) == []
    t = gs.tracks[1]
    t.rot_mean[0, 0] = 2.0  # the same array, no longer a rotation
    assert runner._failed_rotation_audit(gs.tracks, verdicts) == [1]
    t.rot_mean[0, 0] = 1.0  # written back: the verdict follows the value
    assert runner._failed_rotation_audit(gs.tracks, verdicts) == []


def test_a_run_logs_the_seconds_of_each_layer(tmp_path, caplog):
    cfg = runner.ExperimentConfig(seed=2, scene_gen=SceneGenParams(count=3), arm_count=2, step_budget=40)
    with caplog.at_level("INFO", logger="pollisim"):
        report = runner.simulate_run(cfg, out_dir=str(tmp_path), validate_rotations=True)
    assert report.to_json() == runner.simulate_run(cfg).to_json()
    lines = [r for r in caplog.records if r.getMessage().startswith("layer seconds:")]
    assert len(lines) == 1
    text, values = lines[0].getMessage(), lines[0].args
    for name in (*runner.RUN_LAYERS, "residual", "wall"):
        assert f" {name} " in text
    *layers, residual, wall = values
    assert len(layers) == len(runner.RUN_LAYERS)
    assert all(v > 0.0 for v in layers)  # every layer ran, the writer and the audit included
    assert sum(layers) <= wall and residual == wall - sum(layers)
    # nothing of it reaches the run directory
    for name in os.listdir(tmp_path):
        with open(tmp_path / name, encoding="utf-8") as fh:
            assert "layer seconds" not in fh.read()
