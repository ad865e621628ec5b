"""Smoke tests of the benchmark at the smallest sizes that pass its output
checks. They need `src/` on the path, as the repository's test command sets.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import benchtrace
import pollibench

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The end-to-end metrics each workload prints in its table, by name.
PRINTED = {
    "loop_60": ["setup_s", "wall_s", "peak_rss_mb", "failure_rate", "sim_ticks_per_s", "detections_per_s", "eval_s",
                "artifact_mb", "ticks_to_done", "wasted_triggers", "unmatched_tracks",
                "pollinated_rate", "pose_success_rate"],
    "survey_1000": ["setup_s", "wall_s", "peak_rss_mb", "failure_rate", "pose_success_rate",
                    "fused_trans_cm", "fused_rot_deg"],
    "calibrate": ["setup_s", "wall_s", "peak_rss_mb", "failure_rate", "oracle_shots_per_s"],
}

SMOKE = {
    "loop_60": lambda: pollibench.Loop60(ticks=25, runs=1),
    "survey_1000": lambda: pollibench.Survey1000(trials=20),
    "calibrate": lambda: pollibench.Calibrate(samples=100, runs=1),
}


def printed_units(text: str) -> dict[str, str]:
    units = {}
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("name", sorted(SMOKE))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(name, trace, tmp_path):
    before = benchtrace.patched_attributes()
    out = io.StringIO()
    result = pollibench.run(name, 0, 0.0, trace, str(tmp_path), workload=SMOKE[name](), stored={}, out=out)
    text = out.getvalue()
    assert result["correct"], text
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = pollibench.PER_LAYER if trace else pollibench.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    units = printed_units(text)
    for metric in expected if trace else PRINTED[name]:
        assert units.get(metric), f"{metric} not printed with a unit"
    after = benchtrace.patched_attributes()
    assert all(after[k] is before[k] for k in before)
    assert os.listdir(tmp_path) == []


def test_traced_self_times_add_up_to_wall(tmp_path):
    result = pollibench.run("survey_1000", 3, 0.0, True, str(tmp_path),
                            workload=SMOKE["survey_1000"](), stored={}, out=io.StringIO())
    m = {n: v["value"] for n, v in result["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in benchtrace.LAYERS) + m["trace.residual_s"]
    # With two traced passes each median is a mean, so the sums agree.
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-6)
    assert m["runner.survey_run.calls"] == 20
    assert m["tracker.associate.calls"] > 0 and m["runner.loop.calls"] == 0


def test_patches_are_restored_when_the_block_raises():
    before = benchtrace.patched_attributes()
    tracer = benchtrace.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert benchtrace.patched_attributes()["pollisim.tracker.predict"] is not before["pollisim.tracker.predict"]
            raise RuntimeError("boom")
    after = benchtrace.patched_attributes()
    assert all(after[k] is before[k] for k in before)


def test_stored_digest_mismatch_fails_the_pass(tmp_path):
    stored = {"calibrate": {"0": ["0" * 64]}}
    out = io.StringIO()
    result = pollibench.run("calibrate", 0, 0.0, False, str(tmp_path),
                            workload=SMOKE["calibrate"](), stored=stored, out=out)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "differs from the stored" in out.getvalue()


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == pollibench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == pollibench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(pollibench.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
