"""pollisim benchmark: three workloads, output checks, end-to-end metrics and
an optional traced pass for per-layer metrics.

Run through `perfbench/run.py`, which puts the checkout's `src/` on the path:

    python3 perfbench/run.py --workload loop_60 --seed 0 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it list
every metric of the workload by name and unit, the digests of the outputs
and the check results. See README.md in this directory for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from pollisim import runner, simworld
from pollisim.camera import Intrinsics
from pollisim.simworld import NoiseModel
from pollisim.tracker import TrackerParams

import benchtrace

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
MIN_PASSES = 2
SETUP_REPEATS = 7

# Metrics printed in the final JSON line: every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Time of one speed probe on this 2-core host in its fast state; norm_* metrics
# are scaled to a host on which the probe takes exactly this long.
PROBE_NOMINAL_S = 150e-6


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units: dict[str, str] = {}
    for layer in benchtrace.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "tracker.associate.distance_evals": "count",
        "tracker.associate.pairs": "count",
        "tracker.associate.match_ratio": "ratio",
        "tracker.tracks.peak": "count",
        "tracker.tracks.mean_at_ingest": "count",
        "tracker.spawned": "count",
        "tracker.pruned": "count",
        "commander.triggers": "count",
        "commander.refuted": "count",
        "simworld.observe_with_truth.measurements": "count",
        "simworld.observe_with_truth.clutter": "count",
        "runner.artifact_bytes": "B",
        "trace.wall_s": "s",
        "trace.residual_s": "s",
        "trace.overhead": "x",
    })
    return units


PER_LAYER = per_layer_units()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(obj) -> str:
    return _sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8"))


class Loop60:
    """Closed loop, 60 flowers, one arm, stock noise, artifacts written and
    read back by `evaluate_run_dir`. A pass simulates `runs` independent
    configs derived from the seed."""

    name = "loop_60"
    # Items are flower detections fused: the arm's path changes both a
    # config's run time and its detections, so their ratio is steadier across
    # seeds than time per tick.
    items_name = "detections_per_s"
    # Timeline segments: one per tick of simulate_run, one per evaluate_run_dir.
    marks = {
        "pollisim.runner.simulate_run": "main",
        "pollisim.runner.observe_with_truth": "main",
        "pollisim.runner.evaluate_run_dir": "eval",
    }
    required = {
        "pollisim.runner.simulate_run", "pollisim.runner.evaluate_run_dir",
        "pollisim.runner.ingest", "pollisim.runner.observe_with_truth",
        "pollisim.runner.commander_step", "pollisim.runner._apply_command",
        "pollisim.runner._write_artifacts", "pollisim.runner.aggregate",
        "pollisim.runner.svd_project", "pollisim.tracker.associate",
        "pollisim.tracker.predict", "pollisim.tracker.update_position",
        "pollisim.tracker.update_rotation", "pollisim.tracker.svd_project",
        "pollisim.simworld.project",
    }

    def __init__(self, flowers: int = 60, ticks: int = 40, runs: int = 16):
        self.flowers, self.ticks, self.runs = flowers, ticks, runs

    def build(self, seed: int):
        cfgs = []
        for sub in range(self.runs * seed, self.runs * seed + self.runs):
            cfg = runner.ExperimentConfig(
                seed=sub, scene_gen=runner.SceneGenParams(count=self.flowers), step_budget=self.ticks
            )
            cfg.resolved_tracker()  # so that setup_s covers deriving the tracker params
            cfgs.append(cfg)
        return cfgs

    def call(self, cfgs, workdir: str) -> dict:
        runs = []
        for i, cfg in enumerate(cfgs):
            out = os.path.join(workdir, f"run{i}")
            runner.simulate_run(cfg, out_dir=out)
            runs.append((out, runner.evaluate_run_dir(out)))
        return {"runs": runs}

    def inspect(self, cfgs, res: dict) -> dict:
        """Check and summarise the artifacts, then delete them."""
        digests, problems = [], []
        total = {"bytes": 0, "ticks": 0, "detections": 0, "wasted": 0, "unmatched": 0,
                 "succeeded": 0, "reachable": 0, "pose_success": 0.0}
        for out, evaluated in res["runs"]:
            with open(os.path.join(out, "report.json"), "rb") as fh:
                written = fh.read()
            replayed = (json.dumps(evaluated.to_json(), indent=2, sort_keys=True) + "\n").encode("utf-8")
            if replayed != written:
                problems.append(f"{os.path.basename(out)}: eval does not reproduce report.json")
            digests.append(_sha256(written))
            report = json.loads(written)
            with open(os.path.join(out, "meta.json"), encoding="utf-8") as fh:
                total["ticks"] += json.load(fh)["n_ticks"]
            with open(os.path.join(out, "attempts.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            total["wasted"] += sum(1 for r in rows if r.rsplit(",", 1)[1] == "0")
            total["detections"] += report["n_detections"]
            total["unmatched"] += report["n_tracks"] - report["n_matched"]
            total["succeeded"] += report["n_succeeded"]
            total["reachable"] += report["n_reachable"]
            total["pose_success"] += report["pose_success_rate"]
            total["bytes"] += sum(e.stat().st_size for e in os.scandir(out))
            shutil.rmtree(out)
        n = len(res["runs"])
        return {
            "digest": digests,
            "problems": problems,
            "per_wall": {"detections_per_s": total["detections"], "sim_ticks_per_s": total["ticks"]},
            "artifact_bytes": total["bytes"],
            "report": {
                "artifact_mb": (total["bytes"] / 1e6, "MB"),
                "ticks_to_done": (total["ticks"] / n, "ticks"),
                "wasted_triggers": (total["wasted"], "count"),
                "unmatched_tracks": (total["unmatched"], "count"),
                "pollinated_rate": (total["succeeded"] / total["reachable"], "ratio"),
                "pose_success_rate": (total["pose_success"] / n, "ratio"),
            },
        }


SINGLE_SHOT_TARGETS = {"trans_m": 0.0303, "rot_deg": 29.88, "det_rate": 0.9301}


class Survey1000:
    """The A3/A4 fixture: seeded single-flower survey trials at 20 views."""

    name = "survey_1000"
    items_name = "views_per_s"
    marks = {"pollisim.runner.survey_run": "main"}
    required = {
        "pollisim.runner.survey_run", "pollisim.runner.ingest",
        "pollisim.runner.observe_with_truth", "pollisim.runner.is_rotation",
        "pollisim.tracker.associate", "pollisim.tracker.predict",
        "pollisim.tracker.update_position", "pollisim.tracker.update_rotation",
        "pollisim.tracker.svd_project", "pollisim.runner.sample_viewpoint",
        "pollisim.simworld.look_at", "pollisim.simworld.project",
    }

    def __init__(self, trials: int = 1000, views: int = 20):
        self.trials, self.views = trials, views

    def build(self, seed: int):
        seeds = list(range(self.trials * seed, self.trials * seed + self.trials))
        return NoiseModel(), TrackerParams(), Intrinsics.default(), seeds

    def call(self, inputs, workdir: str) -> dict:
        noise, tparams, k, seeds = inputs
        return {"trials": [runner.survey_run(noise, tparams, k, self.views, s) for s in seeds]}

    def inspect(self, inputs, res: dict) -> dict:
        trials = res["trials"]
        problems = []
        violations = sum(t.rotation_violations for t in trials)
        if violations:
            problems.append(f"{violations} SO(3) violations")
        single = {
            "trans_m": float(np.mean(np.concatenate([t.single_trans for t in trials]))),
            "rot_deg": float(np.mean(np.concatenate([t.single_rot for t in trials]))),
            "det_rate": sum(t.detections_within_px for t in trials) / sum(t.opportunities for t in trials),
        }
        for key, target in SINGLE_SHOT_TARGETS.items():
            if abs(single[key] - target) > 0.10 * target:
                problems.append(f"single-shot {key} {single[key]:.4f} outside 10% of {target}")
        finals = [(t.final_trans, t.final_rot) for t in trials if t.final_trans is not None]
        success = sum(1 for tr, rot in finals if tr <= 0.08 and rot <= 60.0)
        digest = _json_digest([
            [t.single_trans, t.single_rot, t.opportunities, t.detections_within_px,
             t.final_trans, t.final_rot, t.rotation_violations]
            for t in trials
        ])
        return {
            "digest": [digest],
            "problems": problems,
            "per_wall": {"views_per_s": len(trials) * self.views},
            "artifact_bytes": 0,
            "report": {
                "pose_success_rate": (success / len(trials), "ratio"),
                "fused_trans_cm": (100.0 * float(np.mean([f[0] for f in finals])), "cm"),
                "fused_rot_deg": (float(np.mean([f[1] for f in finals])), "deg"),
            },
        }


CAL_TARGETS = {"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301}
CAL_REL_TOL = 0.05
CAL_RNG_TAG = 7  # runner's common-random-numbers stream for calibration


class Calibrate:
    """`calibrate_noise` at the CLI targets and tolerance. A pass calibrates
    `runs` independent seeds derived from the benchmark seed."""

    name = "calibrate"
    items_name = "oracle_shots_per_s"
    # Timeline segments: one per solver evaluation.
    marks = {
        "pollisim.runner.calibrate_noise": "main",
        "pollisim.runner.single_shot_stats": "main",
    }
    required = {
        "pollisim.runner.calibrate_noise", "pollisim.runner.single_shot_stats",
        "pollisim.simworld.observe_with_truth", "pollisim.simworld.sample_viewpoint",
        "pollisim.simworld.look_at", "pollisim.simworld.project",
    }

    # One detection flip realigns the common random numbers and shifts the
    # detection rate by a fresh sampling error. At 300 samples that can step
    # over the bisection's whole window (about 1 seed in 500 never
    # converges); at 1000 it is about a third of the window.
    def __init__(self, samples: int = 1000, runs: int = 3):
        self.samples, self.runs = samples, runs

    def build(self, seed: int):
        return Intrinsics.default(), list(range(self.runs * seed, self.runs * seed + self.runs))

    def call(self, inputs, workdir: str) -> dict:
        k, seeds = inputs
        # A bare call counter (no clock) gives the solver's evaluation count
        # for oracle_shots_per_s; a traced pass also reports it as
        # simworld.single_shot_stats.calls.
        evals = [0]
        inner = runner.single_shot_stats

        def counted(*args, **kwargs):
            evals[0] += 1
            return inner(*args, **kwargs)

        runner.single_shot_stats = counted
        try:
            models = [runner.calibrate_noise(CAL_TARGETS, seed=s, n_samples=self.samples, k=k) for s in seeds]
        finally:
            runner.single_shot_stats = inner
        return {"models": models, "evals": evals[0]}

    def inspect(self, inputs, res: dict) -> dict:
        k, seeds = inputs
        problems, digests = [], []
        for s, model in zip(seeds, res["models"]):
            digests.append(_json_digest(model.to_json()))
            stats = simworld.single_shot_stats(model, k, self.samples, np.random.default_rng([s, CAL_RNG_TAG]))
            got = {"trans_cm": 100.0 * stats.mean_trans, "rot_deg": stats.mean_rot, "det_rate": stats.detection_rate}
            for key, target in CAL_TARGETS.items():
                if not abs(got[key] - target) <= CAL_REL_TOL * target:
                    problems.append(f"seed {s}: final {key} {got[key]:.4f} outside rel_tol of {target}")
        return {
            "digest": digests,
            "problems": problems,
            "per_wall": {"oracle_shots_per_s": res["evals"] * self.samples},
            "artifact_bytes": 0,
            "report": {"single_shot_stats_calls": (res["evals"], "count")},
        }


WORKLOADS = {w.name: w for w in (Loop60(), Survey1000(), Calibrate())}


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, inputs, workdir: str, tracer: benchtrace.Tracer | None = None,
             timeline: benchtrace.Timeline | None = None) -> dict:
    """One pass of the workload, plain, traced or split into a timeline,
    followed by its output checks."""
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.installed():
            res = workload.call(inputs, workdir)
    elif timeline is not None:
        with timeline.installed():
            res = workload.call(inputs, workdir)
    else:
        res = workload.call(inputs, workdir)
    pass_s = time.perf_counter() - t0
    info = workload.inspect(inputs, res)
    info["pass_s"] = tracer.wall_s if tracer is not None else pass_s
    info["timeline"] = timeline
    return info


def fastest(timelines: list[benchtrace.Timeline]) -> tuple[dict[str, float], float]:
    """Per label, the sum over segments of each segment's fastest pass, and
    the mean over boundaries of the fastest probe.

    Passes repeat identical inputs, so they split into the same segments and
    a segment's spread across passes is host noise; the minimum drops the
    passes that ran slow."""
    labels = timelines[0].labels
    if any(t.labels != labels for t in timelines):
        raise RuntimeError("passes over identical inputs split into different segments")
    totals: dict[str, float] = {}
    for label, seg in zip(labels, zip(*(t.seg_s for t in timelines))):
        totals[label] = totals.get(label, 0.0) + min(seg)
    probes = [min(p) for p in zip(*(t.probe_s for t in timelines))]
    return totals, statistics.fmean(probes)


def check_digest(workload, seed: int, digest: list[str], reference: list[str] | None, stored: dict) -> list[str]:
    problems = []
    if reference is not None and digest != reference:
        problems.append("outputs differ from the first pass of this run")
    expected = stored.get(workload.name, {}).get(str(seed))
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} differs from the stored {expected}")
    return problems


SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import pollibench
pollibench.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def measure_setup(workload, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of import plus building the inputs."""
    src = os.path.dirname(os.path.dirname(runner.__file__))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, src, HERE, workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def layer_metrics(tracers: list[benchtrace.Tracer], infos: list[dict], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times as the
    median over the traced passes."""
    first = tracers[0]
    out: dict[str, float] = {}
    for layer in benchtrace.LAYERS:
        out[f"{layer}.calls"] = first.stats[layer][0]
        out[f"{layer}.s"] = statistics.median(t.stats[layer][1] for t in tracers)
        out[f"{layer}.self_s"] = statistics.median(t.stats[layer][2] for t in tracers)
    c = first.counts
    ingests = first.stats["tracker.ingest"][0]
    out.update({
        "tracker.associate.distance_evals": c["tracker.associate.distance_evals"],
        "tracker.associate.pairs": c["tracker.associate.pairs"],
        "tracker.associate.match_ratio": (
            c["tracker.associate.pairs"] / c["tracker.associate.measurements"]
            if c["tracker.associate.measurements"] else 0.0
        ),
        "tracker.tracks.peak": c["tracker.tracks.peak"],
        "tracker.tracks.mean_at_ingest": c["tracker.tracks.sum_at_ingest"] / ingests if ingests else 0.0,
        "tracker.spawned": c["tracker.spawned"],
        "tracker.pruned": c["tracker.pruned"],
        "commander.triggers": c["commander.triggers"],
        "commander.refuted": first.stats["commander.remove_track"][0],
        "simworld.observe_with_truth.measurements": c["simworld.observe_with_truth.measurements"],
        "simworld.observe_with_truth.clutter": c["simworld.observe_with_truth.clutter"],
        "runner.artifact_bytes": infos[0]["artifact_bytes"],
        "trace.wall_s": statistics.median(t.wall_s for t in tracers),
        "trace.residual_s": statistics.median(t.residual_s for t in tracers),
    })
    out["trace.overhead"] = out["trace.wall_s"] / untraced_s
    return out


def exact_counts(tracer: benchtrace.Tracer) -> dict[str, int]:
    counts = {f"{layer}.calls": tracer.stats[layer][0] for layer in benchtrace.LAYERS}
    counts.update(tracer.counts)
    return counts


def trace_problems(workload, tracers: list[benchtrace.Tracer]) -> list[str]:
    problems = []
    for i, tracer in enumerate(tracers, start=1):
        silent = sorted(p for p in workload.required if not tracer.fired.get(p))
        if silent:
            problems.append(f"traced pass {i}: wrappers never fired: {', '.join(silent)}")
        gap = tracer.wall_s - (tracer.self_total_s() + tracer.residual_s)
        if abs(gap) > 1e-6 * tracer.wall_s + 1e-9:
            problems.append(f"traced pass {i}: self times plus residual miss the wall by {gap:.3g} s")
    first, *rest = [exact_counts(t) for t in tracers]
    for other in rest:
        for name in sorted(first):
            if first[name] != other[name]:
                problems.append(f"count {name} did not repeat: {first[name]} then {other[name]}")
    return problems


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: str,
        workload=None, stored: dict | None = None, out=sys.stdout) -> dict:
    """Run one benchmark invocation and return the result object.

    Untraced: set-up is measured, then passes over the same inputs repeat
    until `seconds` have passed (at least MIN_PASSES times).
    Traced: one untraced pass, then two traced passes whose outputs must match
    it and whose counts must match each other.
    """
    workload = workload or WORKLOADS[workload_name]
    stored = load_digests() if stored is None else stored
    setup_s = None if trace else measure_setup(workload, seed)
    inputs = workload.build(seed)

    infos: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    tracers = [benchtrace.Tracer(), benchtrace.Tracer()] if trace else []
    while True:
        n = len(infos)
        if trace and n == 1 + len(tracers):
            break
        if not trace and attempted >= MIN_PASSES and time.perf_counter() - start >= seconds:
            break
        tracer = tracers[n - 1] if trace and n >= 1 else None
        timeline = None if trace else benchtrace.Timeline(workload.marks)
        attempted += 1
        try:
            info = run_pass(workload, inputs, workdir, tracer, timeline)
        except Exception:
            # A pass that raises counts as failed; a traced run cannot report
            # per-layer numbers without all of its passes.
            failed += 1
            traceback.print_exc()
            if trace:
                raise
            continue
        problems = info["problems"] + check_digest(
            workload, seed, info["digest"], infos[0]["digest"] if infos else None, stored
        )
        if trace and tracer is tracers[-1]:
            problems += trace_problems(workload, tracers)
        for p in problems:
            print(f"check failed (pass {n + 1}): {p}", file=out)
        failed += bool(problems)
        infos.append(info)

    if not infos:
        raise RuntimeError(f"all {attempted} passes raised")
    if trace:
        untraced = infos[0]
        metrics = layer_metrics(tracers, infos[1:], untraced["pass_s"])
        table, units = metrics, PER_LAYER
    else:
        totals, probe_s = fastest([i["timeline"] for i in infos])
        speed = PROBE_NOMINAL_S / probe_s
        wall_s = totals["main"]
        items = infos[0]["per_wall"][workload.items_name]
        metrics = {
            "setup_s": setup_s,
            "norm_wall_s": wall_s * speed,
            "norm_items_per_s": items / (wall_s * speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        passes = ", ".join(f"{i['pass_s']:.3f}" for i in infos)
        print(f"{workload.name} seed {seed}: {len(infos)} passes ({passes} s), "
              f"{len(infos[0]['timeline'].seg_s)} segments each", file=out)
        table = dict(metrics, failure_rate=failed / attempted, wall_s=wall_s, probe_ms=1e3 * probe_s)
        units = dict(END_TO_END, failure_rate="ratio", wall_s="s", probe_ms="ms")
        for name, count in infos[0]["per_wall"].items():
            table[name] = count / wall_s
            units[name] = "1/s"
        if "eval" in totals:
            table["eval_s"] = totals["eval"]
            units["eval_s"] = "s"
        for name, (value, unit) in infos[0]["report"].items():
            table[name] = value
            units[name] = unit

    for name in table:
        print(f"  {name:44s} {_fmt(table[name]):>14s} {units[name]}", file=out)
    print(f"digest {workload.name} seed {seed}: {json.dumps(infos[0]['digest'])}", file=out)
    if str(seed) not in stored.get(workload.name, {}):
        print(f"no stored digest for seed {seed}; passes were checked against each other", file=out)
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
    }


def main(argv: list[str], root: str) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0
