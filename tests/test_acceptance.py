"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured numbers (run with -s or read the captured output).
"""

import csv
import hashlib
import json
import os
import time

import numpy as np
import pytest

from helpers import BENCH_DIGESTS, brute_force_assignment, make_measurement
from pollisim.camera import Intrinsics, PixelObs, look_at, project, to_world, uplift
from pollisim.cli import main
from pollisim.metrics import BinaryMask, dice
from pollisim.runner import ExperimentConfig, SceneGenParams, simulate_run, survey_run
from pollisim.simworld import NoiseModel
from pollisim.so3 import is_rotation, random_rotations, svd_project
from pollisim.tracker import GlobalState, Track, TrackerParams, associate

K = Intrinsics.default()

SINGLE_SHOT_TARGETS = {"trans_m": 0.0303, "rot_deg": 29.88, "det_rate": 0.9301}

# The paper's operating point: the model that `calibrate-noise --trans-cm
# 0.6 --rot-deg 19.14 --det-rate 0.9301` fits to its reported pose error.
PAPER_NOISE = NoiseModel(
    detect_prob=0.9375, depth_sigma_near=0.0004296875, depth_sigma_far=0.00859375, rot_sigma=30.9375
)


@pytest.fixture(scope="module")
def survey_results():
    """1000 seeded filter-convergence trials at 20 viewpoints each."""
    t0 = time.time()
    noise = NoiseModel()
    tparams = TrackerParams()
    trials = [survey_run(noise, tparams, K, 20, seed) for seed in range(1000)]
    elapsed = time.time() - t0
    return trials, elapsed


@pytest.fixture(scope="module")
def endtoend_results():
    """Noiseless run plus 5 calibrated-noise runs, rotation invariants audited."""
    noiseless_cfg = ExperimentConfig(
        seed=7, scene_gen=SceneGenParams(count=20), noise=NoiseModel.noiseless(), step_budget=1500
    )
    noiseless = simulate_run(noiseless_cfg, validate_rotations=True)
    noisy = []
    timings = []
    for seed in range(5):
        cfg = ExperimentConfig(seed=seed, scene_gen=SceneGenParams(count=20), step_budget=1500)
        t0 = time.time()
        noisy.append(simulate_run(cfg, validate_rotations=True))
        timings.append(time.time() - t0)
    return noiseless, noisy, timings


def test_a1_procrustes_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    samples = random_rotations(rng, 100_000)
    ms = rng.uniform(-1.0, 1.0, size=(1000, 3, 3))
    projections = np.stack([svd_project(m) for m in ms])
    for p in projections:
        assert is_rotation(p, tol=1e-9)
    proj_trace = np.einsum("mij,mij->m", projections, ms)
    best_sampled = np.full(1000, -np.inf)
    for chunk in np.array_split(samples, 10):
        best_sampled = np.maximum(best_sampled, np.einsum("sij,mij->ms", chunk, ms).max(axis=1))
    margin = float((proj_trace - best_sampled).min())
    assert (proj_trace >= best_sampled - 1e-12).all()
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"A1 PASS: 1000 projections beat 1e5 sampled rotations "
          f"(min margin {margin:.4f}, {elapsed:.1f}s < 30s)")


def test_a2_camera_roundtrip():
    t0 = time.time()
    rng = np.random.default_rng(22)
    worst = 0.0
    for i in range(10_000):
        if i % 1000 == 0:
            cam = look_at(rng.normal(0, 0.5, 3) + np.array([0, 0, 1.0]), rng.normal(0, 0.1, 3))
        obs = PixelObs(rng.uniform(0, K.width), rng.uniform(0, K.height), rng.uniform(0.05, 3.0))
        x_world = to_world(uplift(obs, K), cam)
        back = project(x_world, cam, K)
        assert back is not None
        err = float(np.linalg.norm(to_world(uplift(back, K), cam) - x_world))
        worst = max(worst, err)
    assert worst < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"A2 PASS: 1e4 round trips, worst error {worst:.2e} m < 1e-9 ({elapsed:.1f}s < 5s)")


def test_a3_filter_convergence_targets(survey_results):
    trials, elapsed = survey_results
    assert elapsed < 120.0
    single_trans = np.concatenate([t.single_trans for t in trials])
    single_rot = np.concatenate([t.single_rot for t in trials])
    opportunities = sum(t.opportunities for t in trials)
    within_px = sum(t.detections_within_px for t in trials)
    det_rate = within_px / opportunities

    mean_single_trans = float(np.mean(single_trans))
    mean_single_rot = float(np.mean(single_rot))
    assert abs(mean_single_trans - SINGLE_SHOT_TARGETS["trans_m"]) <= 0.10 * SINGLE_SHOT_TARGETS["trans_m"]
    assert abs(mean_single_rot - SINGLE_SHOT_TARGETS["rot_deg"]) <= 0.10 * SINGLE_SHOT_TARGETS["rot_deg"]
    assert abs(det_rate - SINGLE_SHOT_TARGETS["det_rate"]) <= 0.10 * SINGLE_SHOT_TARGETS["det_rate"]

    finals_trans = [t.final_trans for t in trials if t.final_trans is not None]
    finals_rot = [t.final_rot for t in trials if t.final_rot is not None]
    mean_trans = float(np.mean(finals_trans))
    mean_rot = float(np.mean(finals_rot))
    successes = sum(
        1 for t in trials
        if t.final_trans is not None and t.final_trans <= 0.08 and t.final_rot <= 60.0
    )
    success_rate = successes / len(trials)
    assert mean_trans <= 0.010
    assert mean_rot <= 20.0
    assert success_rate >= 0.72
    print(
        f"A3 PASS: single-shot {100*mean_single_trans:.2f}cm/{mean_single_rot:.2f}deg/"
        f"{100*det_rate:.2f}% vs targets 3.03/29.88/93.01 (10% tol); "
        f"filtered {100*mean_trans:.2f}cm<=1.0, {mean_rot:.2f}deg<=20.0, "
        f"success {100*success_rate:.2f}%>=72% ({elapsed:.0f}s < 120s)"
    )


@pytest.mark.parametrize("bench_seed", [0, 7])
def test_survey_gives_its_recorded_benchmark_digest(bench_seed, request):
    # The survey_1000 workload at benchmark seed s runs trials 1000 s to
    # 1000 s + 999 (stock noise, tracker and intrinsics, 20 views), so every
    # byte of its trials must match the digest the benchmark recorded. Seed
    # 0 is the survey_results fixture; seed 7 costs one more pass.
    if bench_seed == 0:
        trials, _ = request.getfixturevalue("survey_results")
    else:
        seeds = range(1000 * bench_seed, 1000 * bench_seed + 1000)
        trials = [survey_run(NoiseModel(), TrackerParams(), K, 20, seed) for seed in seeds]
    with open(BENCH_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)["survey_1000"][str(bench_seed)]
    rows = [
        [t.single_trans, t.single_rot, t.opportunities, t.detections_within_px,
         t.final_trans, t.final_rot, t.rotation_violations]
        for t in trials
    ]
    got = hashlib.sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
    assert [got] == want


def test_a4_filtered_beats_single_shot(survey_results):
    trials, _ = survey_results
    beats = 0
    for t in trials:
        if t.final_trans is None or not t.single_trans:
            continue
        if t.final_trans < float(np.mean(t.single_trans)) and t.final_rot < float(np.mean(t.single_rot)):
            beats += 1
    frac = beats / len(trials)
    assert frac >= 0.99
    print(f"A4 PASS: filtered beats single-shot in {100*frac:.2f}% of seeds (>= 99%)")


def test_a5_end_to_end_pollination(endtoend_results):
    noiseless, noisy, timings = endtoend_results
    assert noiseless.attempt_rate == 1.0
    assert noiseless.pollination_success_rate == 1.0
    mean_attempt = float(np.mean([r.attempt_rate for r in noisy]))
    mean_success = float(np.mean([r.pollination_success_rate for r in noisy]))
    assert mean_attempt >= 0.85
    assert mean_success >= 0.70
    assert max(timings) < 120.0
    per_seed = ", ".join(
        f"{r.attempt_rate:.2f}/{r.pollination_success_rate:.2f}" for r in noisy
    )
    print(
        f"A5 PASS: noiseless 100%/100%; calibrated mean attempt {100*mean_attempt:.1f}%>=85%, "
        f"success {100*mean_success:.1f}%>=70% (per seed {per_seed}; "
        f"max {max(timings):.0f}s/seed < 120s)"
    )


def test_a6_association_oracle():
    rng = np.random.default_rng(606)
    total = 20_000
    combos = [(nm, nt) for nm in range(5) for nt in range(5)]
    divergences = []
    for i in range(total):
        nm, nt = combos[i % len(combos)]
        m_pos = rng.integers(0, 11, size=(nm, 3)) * 0.01
        t_pos = rng.integers(0, 11, size=(nt, 3)) * 0.01
        gs = GlobalState(
            tracks={
                j: Track(
                    pos_mean=t_pos[j], pos_cov=np.eye(3) * 1e-4,
                    rot_mean=np.eye(3), rot_cov=0.1, hits=1,
                )
                for j in range(nt)
            },
            next_id=nt,
        )
        ms = [make_measurement(p) for p in m_pos]
        asg = associate(ms, gs, 0.05)
        greedy_cost = sum(float(np.linalg.norm(m_pos[mi] - t_pos[ti])) for mi, ti in asg.pairs)
        opt_count, opt_cost, opt_pairs = brute_force_assignment(m_pos, t_pos, 0.05)
        if len(asg.pairs) < opt_count or greedy_cost > opt_cost + 1e-9:
            divergences.append((i, nm, nt, len(asg.pairs), opt_count, greedy_cost, opt_cost))
    rate = len(divergences) / total
    for case in divergences[:10]:
        print(
            f"A6 divergence: instance {case[0]} ({case[1]} meas x {case[2]} tracks): "
            f"greedy {case[3]} pairs / {case[5]:.4f} m vs optimal {case[4]} pairs / {case[6]:.4f} m"
        )
    assert rate < 0.02
    print(f"A6 PASS: greedy = optimal on {total - len(divergences)}/{total} grid instances, "
          f"divergence {100*rate:.2f}% < 2% ({len(divergences)} cases logged above)")


def test_a7_rotation_filter_invariant(survey_results, endtoend_results):
    trials, _ = survey_results
    violations = sum(t.rotation_violations for t in trials)
    assert violations == 0
    # endtoend_results ran with validate_rotations=True: a violation would
    # have raised inside the fixture
    noiseless, noisy, _ = endtoend_results
    assert noiseless is not None and len(noisy) == 5
    n_ingests = sum(t.opportunities for t in trials)
    print(f"A7 PASS: 0 SO(3) violations across {len(trials)} survey runs "
          f"(~{n_ingests} updates) and 6 audited end-to-end runs")


def test_a8_dice_fixtures():
    a = BinaryMask(2, 2, np.array([[True, True], [False, False]]))
    b = BinaryMask(2, 2, np.array([[True, False], [True, False]]))
    assert dice(a, a) == 1.0
    assert dice(a, BinaryMask(2, 2, ~a.bits)) == 0.0
    assert dice(a, b) == 0.5
    rng = np.random.default_rng(8)
    for _ in range(100):
        m1 = BinaryMask(8, 6, rng.random((6, 8)) > 0.5)
        m2 = BinaryMask(8, 6, rng.random((6, 8)) > 0.5)
        assert dice(m1, m2) == dice(m2, m1)
    print("A8 PASS: DICE identical=1.0, disjoint=0.0, hand-counted=0.5, symmetric on 100 pairs")


def test_a9_simulate_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "seed": 1234,
        "scene": {"generate": {"count": 20}},
        "step_budget": 300,
    }
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["simulate", "--config", str(cfg_path), "--out", str(d), "--quiet"]) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        b1 = (dirs[0] / name).read_bytes()
        b2 = (dirs[1] / name).read_bytes()
        assert b1 == b2, f"output file {name} differs between identical runs"
    print(f"A9 PASS: two identical runs produced byte-identical artifacts ({', '.join(names)})")


@pytest.mark.parametrize("seed", range(5))
def test_paper_operating_point_pollinates_every_reachable_flower(tmp_path, seed):
    # At the paper's perception accuracy the stock 20-flower, 1-arm loop
    # loses nothing: the run ends Done within its budget, every reachable
    # flower is pollinated, and no trigger misses.
    report = simulate_run(
        ExperimentConfig(seed=seed, scene_gen=SceneGenParams(count=20), noise=PAPER_NOISE), out_dir=str(tmp_path)
    )
    with open(tmp_path / "commands.csv", encoding="utf-8") as fh:
        assert list(csv.DictReader(fh))[-1]["mode"] == "done"
    with open(tmp_path / "attempts.csv", encoding="utf-8") as fh:
        assert [row for row in csv.DictReader(fh) if row["success"] != "1"] == []
    assert report.n_succeeded == report.n_reachable > 0
