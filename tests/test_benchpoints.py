"""The benchmark's tracer (perfbench/benchtrace.py) times each layer by
patching names in the `pollisim.runner` and `pollisim.simworld` namespaces. A
call that stops going through one of those names reads as zero calls there
and fails nothing else, so this pins that a run, its eval, a survey and the
single-shot statistics still reach every one of them.
"""

import os
import sys

import numpy as np

from pollisim import runner
from pollisim.camera import Intrinsics
from pollisim.simworld import NoiseModel, SceneGenParams
from pollisim.tracker import TrackerParams

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import benchtrace  # noqa: E402

# Calibration is the one runner job these calls do not exercise.
NOT_REACHED = {"pollisim.runner.calibrate_noise"}
# The oracle and camera calls the calibrate and survey_1000 workloads require.
ORACLE_POINTS = [
    "pollisim.simworld.sample_viewpoint",
    "pollisim.simworld.look_at",
    "pollisim.simworld.project",
    "pollisim.simworld.observe_with_truth",
]


def test_runner_patch_points_fire(tmp_path):
    cfg = runner.ExperimentConfig(
        seed=42, scene_gen=SceneGenParams(count=1), noise=NoiseModel.noiseless(), step_budget=200
    )
    tracer = benchtrace.Tracer()
    with tracer.installed():
        report = runner.simulate_run(cfg, out_dir=str(tmp_path / "run"))
        assert runner.evaluate_run_dir(str(tmp_path / "run")).to_json() == report.to_json()
        runner.survey_run(NoiseModel(), TrackerParams(), Intrinsics.default(), 5, 0)
        runner.single_shot_stats(NoiseModel(), Intrinsics.default(), 20, np.random.default_rng(0))
    assert report.n_succeeded == 1  # the run reached the servo, so svd_project ran
    points = {f"{mod}.{attr}" for mod, attr, _ in benchtrace.PATCHES if mod == "pollisim.runner"}
    silent = sorted(p for p in (points - NOT_REACHED) | set(ORACLE_POINTS) if tracer.fired[p] == 0)
    assert silent == []
    assert tracer.fired["pollisim.runner.aggregate"] == 2
    # every viewpoint is built by one look_at call through simworld's own name
    assert tracer.stats["camera.look_at"][0] == tracer.stats["simworld.sample_viewpoint"][0] == 5 + 20
