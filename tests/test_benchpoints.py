"""The benchmark's tracer (perfbench/benchtrace.py) times each layer by
patching names in the `pollisim.runner`, `pollisim.tracker` and
`pollisim.simworld` namespaces. A call that stops going through one of those
names reads as zero calls there and fails nothing else, so this pins that a
run, its eval, a survey, the single-shot statistics and a calibration still
reach every one of them, and that the survey alone reaches each filter step
and the camera's look_at. A tick's matched pairs are filtered as one batch,
so each filter step fires once per ingest that has pairs, one-pair batches
(the survey's) and stacked ones (a dense loop's) alike.
"""

import os
import sys

import numpy as np

from pollisim import runner, simworld, tracker
from pollisim.camera import Intrinsics
from pollisim.simworld import NoiseModel, SceneGenParams
from pollisim.tracker import TrackerParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import benchtrace  # noqa: E402

# The oracle and camera calls the calibrate and survey_1000 workloads require.
ORACLE_POINTS = [
    "pollisim.simworld.sample_viewpoint",
    "pollisim.simworld.look_at",
    "pollisim.simworld.project",
    "pollisim.simworld.observe_with_truth",
]
# The filter and camera calls the survey reaches through tracker and simworld.
SURVEY_POINTS = [
    "pollisim.tracker.associate",
    "pollisim.tracker.predict",
    "pollisim.tracker.update_position",
    "pollisim.tracker.update_rotation",
    "pollisim.tracker.svd_project",
    "pollisim.simworld.look_at",
]
# The filter steps, each called once per batch of matched pairs.
FILTER_POINTS = [
    "pollisim.tracker.update_position",
    "pollisim.tracker.update_rotation",
    "pollisim.tracker.svd_project",
]
CAL_TARGETS = {"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301}
CAL_SAMPLES = 150


def test_runner_patch_points_fire(tmp_path, monkeypatch):
    # The size of every batch of matched pairs, one entry per ingest that has pairs.
    pair_batches = []

    def counted(*args, _real=tracker.associate):
        asg = _real(*args)
        if asg.pairs:
            pair_batches.append(len(asg.pairs))
        return asg

    monkeypatch.setattr(tracker, "associate", counted)
    cfg = runner.ExperimentConfig(
        seed=42, scene_gen=SceneGenParams(count=1), noise=NoiseModel.noiseless(), step_budget=200
    )
    tracer = benchtrace.Tracer()
    with tracer.installed():
        report = runner.simulate_run(cfg, out_dir=str(tmp_path / "run"))
        assert runner.evaluate_run_dir(str(tmp_path / "run")).to_json() == report.to_json()
        fired_before = {p: tracer.fired[p] for p in SURVEY_POINTS}
        batches_before = len(pair_batches)
        runner.survey_run(NoiseModel(), TrackerParams(), Intrinsics.default(), 5, 0)
        survey_fired = {p: tracer.fired[p] - fired_before[p] for p in SURVEY_POINTS}
        survey_batches = pair_batches[batches_before:]
        runner.single_shot_stats(NoiseModel(), Intrinsics.default(), 20, np.random.default_rng(0))
        views_before = tracer.stats["simworld.sample_viewpoint"][0]
        evals_before = tracer.stats["simworld.single_shot_stats"][0]
        runner.calibrate_noise(CAL_TARGETS, seed=0, n_samples=CAL_SAMPLES)
    assert report.n_succeeded == 1  # the run reached the servo, so svd_project ran
    points = {f"{mod}.{attr}" for mod, attr, _ in benchtrace.PATCHES if mod == "pollisim.runner"}
    silent = sorted(p for p in points | set(ORACLE_POINTS) if tracer.fired[p] == 0)
    assert silent == []
    assert [p for p in SURVEY_POINTS if survey_fired[p] == 0] == []
    # predict advances the whole table once per non-empty batch, as associate runs
    assert survey_fired["pollisim.tracker.predict"] == survey_fired["pollisim.tracker.associate"]
    # one survey flower makes one-pair batches, each filtered by one call of each step
    assert survey_batches and set(survey_batches) == {1}
    assert [survey_fired[p] for p in FILTER_POINTS] == [len(survey_batches)] * 3
    assert tracer.fired["pollisim.runner.aggregate"] == 2
    # every viewpoint is built by one look_at call through simworld's own name
    assert views_before == 5 + 20
    assert tracer.stats["camera.look_at"][0] == tracer.stats["simworld.sample_viewpoint"][0]
    # calibration draws fewer viewpoints than it uses: its evaluations share views
    cal_evals = tracer.stats["simworld.single_shot_stats"][0] - evals_before
    cal_views = tracer.stats["simworld.sample_viewpoint"][0] - views_before
    assert cal_evals > 1
    assert CAL_SAMPLES <= cal_views < cal_evals * CAL_SAMPLES
    # A dense loop, whose ticks hold enough detections for the oracle's
    # batched arithmetic, still projects through simworld's own name: its
    # 20-flower scene as one stack, one call per tick.
    batches = []

    def batched(*args, _real=simworld._batched_detections):
        batches.append(len(args[0]))
        return _real(*args)

    monkeypatch.setattr(simworld, "_batched_detections", batched)
    # Its matched pairs come in stacked batches, which still reach every
    # filter step through the tracker's own names, once per batch.
    dense = runner.ExperimentConfig(seed=42, scene_gen=SceneGenParams(count=20), step_budget=10)
    tracer = benchtrace.Tracer()
    pair_batches.clear()
    with tracer.installed():
        runner.simulate_run(dense, out_dir=str(tmp_path / "dense"))
    assert tracer.fired["pollisim.simworld.project"] == 10
    assert batches and min(batches) >= simworld.BATCH_MIN
    assert pair_batches and min(pair_batches) >= 2
    assert [tracer.fired[p] for p in FILTER_POINTS] == [len(pair_batches)] * 3


def test_calibration_keeps_its_evaluation_count():
    # The calibrate workload's items are evaluations x samples: an evaluation
    # on held draws still counts as one call, and the search makes as many as
    # when every evaluation called the oracle.
    tracer = benchtrace.Tracer()
    with tracer.installed():
        runner.calibrate_noise(CAL_TARGETS, seed=0, n_samples=CAL_SAMPLES)
    assert tracer.stats["simworld.single_shot_stats"][0] == 17
    assert tracer.fired["pollisim.simworld.observe_with_truth"] > 0
