import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import assert_json_form, brute_force_assignment, geodesic_midpoint, make_measurement
from pollisim.simworld import NoiseModel
from pollisim.so3 import is_rotation, random_rotation, rot_x, zaxis_angle
from pollisim.tracker import (
    Assignment,
    GlobalState,
    Track,
    TrackerParams,
    associate,
    claim_target,
    get_track,
    greedy_pairs,
    ingest,
    is_confident,
    mark_pollinated,
    predict,
    release_target,
    remove_track,
    update_position,
    update_rotation,
)


def _track(tid=0, pos=(0, 0, 0), pos_cov=1e-4, rot=None, rot_cov=0.1, hits=1, last_tick=0):
    return Track(
        id=tid,
        pos_mean=np.asarray(pos, float),
        pos_cov=pos_cov * np.eye(3),
        rot_mean=np.eye(3) if rot is None else rot,
        rot_cov=rot_cov,
        hits=hits,
        last_tick=last_tick,
    )


def _state(tracks):
    return GlobalState(tracks=tracks, next_id=max((t.id for t in tracks), default=-1) + 1)


def test_associate_all_spawn_when_no_tracks():
    ms = [make_measurement([i, 0, 0]) for i in range(3)]
    asg = associate(ms, GlobalState(), 0.05)
    assert asg.pairs == []
    assert asg.spawns == [0, 1, 2]


def test_associate_simple_match():
    gs = _state([_track(tid=5, pos=(0, 0, 0))])
    asg = associate([make_measurement([0.02, 0, 0])], gs, 0.05)
    assert asg.pairs == [(0, 5)]
    assert asg.spawns == []


def test_associate_closest_wins():
    gs = _state([_track(tid=0, pos=(0, 0, 0))])
    ms = [make_measurement([0.01, 0, 0]), make_measurement([0.02, 0, 0])]
    asg = associate(ms, gs, 0.05)
    assert asg.pairs == [(0, 0)]
    assert asg.spawns == [1]


def test_associate_threshold_validation():
    with pytest.raises(ValueError):
        associate([], GlobalState(), 0.0)


def test_associate_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(0)
    divergent = 0
    total = 400
    for i in range(total):
        nm, nt = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        m_pos = rng.integers(0, 11, size=(nm, 3)) * 0.01
        t_pos = rng.integers(0, 11, size=(nt, 3)) * 0.01
        gs = _state([_track(tid=j, pos=t_pos[j]) for j in range(nt)])
        ms = [make_measurement(p) for p in m_pos]
        asg = associate(ms, gs, 0.05)
        greedy_cost = sum(
            float(np.linalg.norm(m_pos[mi] - t_pos[ti])) for mi, ti in asg.pairs
        )
        opt_count, opt_cost, _ = brute_force_assignment(m_pos, t_pos, 0.05)
        assert len(asg.pairs) <= opt_count
        if len(asg.pairs) < opt_count or greedy_cost > opt_cost + 1e-9:
            divergent += 1
    # greedy is near-optimal on random instances; hard bound checked in acceptance
    assert divergent / total < 0.05


def test_associate_permutation_stable():
    rng = np.random.default_rng(1)
    t_pos = rng.uniform(0, 0.1, size=(4, 3))
    m_pos = rng.uniform(0, 0.1, size=(4, 3))
    gs = _state([_track(tid=j, pos=t_pos[j]) for j in range(4)])
    ms = [make_measurement(p) for p in m_pos]
    base = associate(ms, gs, 0.05)
    base_set = {(tuple(np.round(m_pos[mi], 9)), ti) for mi, ti in base.pairs}
    perm = [2, 0, 3, 1]
    ms_perm = [ms[i] for i in perm]
    out = associate(ms_perm, gs, 0.05)
    out_set = {(tuple(np.round(m_pos[perm[mi]], 9)), ti) for mi, ti in out.pairs}
    assert base_set == out_set


def test_associate_tie_breaks_deterministic():
    gs = _state([_track(tid=0, pos=(0.02, 0, 0)), _track(tid=1, pos=(-0.02, 0, 0))])
    asg = associate([make_measurement([0, 0, 0])], gs, 0.05)
    assert asg.pairs == [(0, 0)]  # equal distance, lower track id wins


def _reference_greedy_pairs(a, b, threshold):
    """The per-pair loop greedy_pairs replaced: one np.linalg.norm per pair."""
    candidates = []
    for kb, pb in b:
        for ka, pa in a:
            d = float(np.linalg.norm(pb - pa))
            if d <= threshold:
                candidates.append((d, ka, kb))
    candidates.sort()
    used_a, used_b, pairs = set(), set(), []
    for _, ka, kb in candidates:
        if ka not in used_a and kb not in used_b:
            used_a.add(ka)
            used_b.add(kb)
            pairs.append((ka, kb))
    return pairs


def test_greedy_pairs_matches_per_pair_loop_on_grid():
    # A6-style instances: multiples of 0.01 give exact distance ties and
    # distances of exactly 0.05, where a last-bit difference would flip `<=`
    rng = np.random.default_rng(606)
    at_threshold = 0
    for i in range(20_000):
        na, nb = i % 5, (i // 5) % 5
        a = list(enumerate(rng.integers(0, 11, size=(na, 3)) * 0.01))
        b = list(enumerate(rng.integers(0, 11, size=(nb, 3)) * 0.01))
        assert greedy_pairs(a, b, 0.05) == _reference_greedy_pairs(a, b, 0.05)
        at_threshold += sum(float(np.linalg.norm(pb - pa)) == 0.05 for _, pb in b for _, pa in a)
    assert at_threshold > 100


def test_greedy_pairs_matches_per_pair_loop_on_random_floats():
    rng = np.random.default_rng(11)
    for i in range(3000):
        na, nb = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        if i % 100 == 0:
            na, nb = 150, 4  # the large-N shape of a 60-flower run
        # keys permuted and out of order, so ties cannot follow list position
        ka, kb = rng.permutation(1000)[:na], rng.permutation(1000)[:nb]
        a = [(int(k), rng.uniform(-0.1, 0.1, 3)) for k in ka]
        b = [(int(k), rng.uniform(-0.1, 0.1, 3)) for k in kb]
        threshold = float(rng.choice([0.02, 0.05, 0.1]))
        if na and nb and i % 2:
            # a pair exactly at the threshold, as the per-pair norm computes it
            (_, pa), (_, pb) = a[int(rng.integers(na))], b[int(rng.integers(nb))]
            threshold = float(np.linalg.norm(pb - pa))
        assert greedy_pairs(a, b, threshold) == _reference_greedy_pairs(a, b, threshold)
    assert greedy_pairs([(0, np.zeros(3))], [(0, np.zeros(3))], -1.0) == []


_coords = st.tuples(*[st.floats(-0.1, 0.1, allow_nan=False)] * 3)


@settings(max_examples=200, deadline=None)
@given(
    t_pos=st.lists(_coords, max_size=6),
    m_pos=st.lists(_coords, max_size=6),
    data=st.data(),
)
def test_associate_pairs_invariant_under_measurement_permutation(t_pos, m_pos, data):
    # an exact distance tie between two measurements is broken by index, so
    # only inputs without one are permutation-invariant
    dists = [float(np.linalg.norm(np.subtract(m, t))) for m in m_pos for t in t_pos]
    assume(len(set(dists)) == len(dists))
    gs = _state([_track(tid=j, pos=p) for j, p in enumerate(t_pos)])
    ms = [make_measurement(p) for p in m_pos]
    perm = data.draw(st.permutations(range(len(ms))))
    base = associate(ms, gs, 0.05)
    out = associate([ms[i] for i in perm], gs, 0.05)
    assert sorted((perm[mi], tid) for mi, tid in out.pairs) == sorted(base.pairs)
    assert sorted(perm[mi] for mi in out.spawns) == base.spawns


def test_predict_identity_and_additive():
    t = _track(pos_cov=1e-4, rot_cov=0.2)
    assert predict(t, 0, 1e-6, 1e-4) is t
    out = predict(t, 5, 1e-6, 1e-4)
    assert_allclose(out.pos_cov, 1e-4 * np.eye(3) + 5e-6 * np.eye(3), atol=1e-15)
    assert_allclose(out.rot_cov, 0.2 + 5e-4, atol=1e-15)
    assert_allclose(out.pos_mean, t.pos_mean, atol=0)
    assert_allclose(out.rot_mean, t.rot_mean, atol=0)
    with pytest.raises(ValueError):
        predict(t, -1, 1e-6, 1e-4)


def test_update_position_uninformative_prior():
    t = _track(pos_cov=1e9)
    z = np.array([0.3, -0.2, 0.5])
    out = update_position(t, z, 1e-2)
    assert np.linalg.norm(out.pos_mean - z) < 1e-6


def test_update_position_equal_variance_midpoint():
    t = _track(pos=(1.0, 0.0, 0.0), pos_cov=4e-4)
    out = update_position(t, np.array([0.0, 1.0, 0.0]), 4e-4)
    assert_allclose(out.pos_mean, [0.5, 0.5, 0.0], atol=1e-12)


def test_update_position_posterior_dominated():
    rng = np.random.default_rng(2)
    t = _track(pos_cov=2.5e-3)
    for _ in range(50):
        z = rng.normal(0, 0.03, size=3)
        out = update_position(t, z, 1e-4)
        diff_eigs = np.linalg.eigvalsh(t.pos_cov - out.pos_cov)
        assert diff_eigs.min() > -1e-12  # posterior <= prior in Loewner order
        t = out


def test_update_position_monte_carlo_convergence():
    # 100 sequential updates with noise sigma: posterior error std ~ sigma/sqrt(101)
    sigma = 0.03
    rng = np.random.default_rng(3)
    finals = []
    for _ in range(500):
        t = _track(pos=rng.normal(0, sigma, 3), pos_cov=sigma**2)
        for _ in range(100):
            t = update_position(t, rng.normal(0, sigma, 3), sigma**2)
        finals.append(t.pos_mean)
    emp_std = float(np.std(np.asarray(finals)))
    expected = sigma / np.sqrt(101)
    # 3x the Monte-Carlo CI of a std estimate over 1500 samples
    ci = 3.0 * expected / np.sqrt(2 * 1500)
    assert abs(emp_std - expected) < ci


def test_update_rotation_gain_extremes():
    z = rot_x(np.pi / 2)
    t = _track(rot_cov=1e9)
    out = update_rotation(t, z, 1e-6)
    assert np.abs(out.rot_mean - z).max() < 1e-6
    # fixed point: measuring the prior leaves the mean, shrinks the variance
    t2 = _track(rot=rot_x(0.3), rot_cov=0.2)
    out2 = update_rotation(t2, rot_x(0.3), 0.1)
    assert_allclose(out2.rot_mean, rot_x(0.3), atol=1e-12)
    assert out2.rot_cov < t2.rot_cov


def test_update_rotation_equal_variance_midpoint():
    t = _track(rot=np.eye(3), rot_cov=0.1)
    out = update_rotation(t, rot_x(np.pi / 2), 0.1)
    assert_allclose(out.rot_mean, rot_x(np.pi / 4), atol=1e-9)
    assert_allclose(out.rot_mean, geodesic_midpoint(np.eye(3), rot_x(np.pi / 2)), atol=1e-9)


def test_update_rotation_stays_on_manifold():
    rng = np.random.default_rng(4)
    t = _track(rot=random_rotation(rng), rot_cov=0.3)
    for _ in range(100):
        t = update_rotation(t, random_rotation(rng), 0.2)
        assert is_rotation(t.rot_mean, tol=1e-9)
    with pytest.raises(ValueError):
        update_rotation(t, np.eye(3), 0.0)


def test_ingest_spawn_from_empty():
    gs = GlobalState()
    m = make_measurement([0.1, 0.2, 0.3], rotation=rot_x(0.5), tick=3)
    gs = ingest(gs, [m], TrackerParams())
    assert len(gs.tracks) == 1
    t = gs.tracks[0]
    assert t.hits == 1 and t.last_tick == 3 and gs.tick == 3
    assert_allclose(t.pos_mean, [0.1, 0.2, 0.3], atol=0)
    assert_allclose(t.rot_mean, rot_x(0.5), atol=0)
    assert t.last_meas is m


def test_ingest_far_measurements_always_spawn():
    params = TrackerParams()
    gs = ingest(GlobalState(), [make_measurement([0, 0, 0])], params)
    m_far = make_measurement([1.0, 1.0, 1.0], tick=1)
    gs = ingest(gs, [m_far], params)
    assert len(gs.tracks) == 2
    assert_allclose(gs.tracks[0].pos_mean, [0, 0, 0], atol=0)  # untouched


def test_ingest_updates_and_hits():
    params = TrackerParams()
    gs = ingest(GlobalState(), [make_measurement([0, 0, 0])], params)
    gs = ingest(gs, [make_measurement([0.01, 0, 0], tick=1)], params)
    assert len(gs.tracks) == 1
    t = gs.tracks[0]
    assert t.hits == 2 and t.last_tick == 1
    assert 0 < t.pos_mean[0] < 0.01


def test_ingest_twin_suppression_inside_gate():
    # two measurements near one track: one fuses, the in-gate leftover must
    # not seed a duplicate
    params = TrackerParams()
    gs = ingest(GlobalState(), [make_measurement([0, 0, 0])], params)
    ms = [make_measurement([0.005, 0, 0], tick=1), make_measurement([0.02, 0, 0], tick=1)]
    gs = ingest(gs, ms, params)
    assert len(gs.tracks) == 1


def test_ingest_no_spawn_exactly_at_gate():
    # the leftover measurement is exactly assoc_threshold from the taken
    # track: inside the inclusive gate, so it must not seed a twin
    gs = _state([_track(tid=0, pos=(0, 0, 0))])
    ms = [make_measurement([0, 0, 0], tick=1), make_measurement([0.05, 0, 0], tick=1)]
    assert float(np.linalg.norm(ms[1].position_world - gs.tracks[0].pos_mean)) == 0.05
    gs = ingest(gs, ms, TrackerParams(assoc_threshold=0.05))
    assert len(gs.tracks) == 1 and gs.tracks[0].hits == 2
    # one ulp tighter, the same leftover spawns
    gs = _state([_track(tid=0, pos=(0, 0, 0))])
    gs = ingest(gs, ms, TrackerParams(assoc_threshold=float(np.nextafter(0.05, 0.0))))
    assert len(gs.tracks) == 2


def test_ingest_batch_tick_validation():
    with pytest.raises(ValueError):
        ingest(GlobalState(), [make_measurement([0, 0, 0], tick=0), make_measurement([0, 0, 0], tick=1)], TrackerParams())


def test_ingest_empty_batch_noop():
    gs = GlobalState()
    assert ingest(gs, [], TrackerParams()) is gs


def test_ingest_deterministic():
    rng = np.random.default_rng(5)
    ms = [make_measurement(rng.uniform(0, 0.2, 3), rotation=random_rotation(rng), tick=0) for _ in range(6)]
    a = ingest(GlobalState(), list(ms), TrackerParams())
    b = ingest(GlobalState(), list(ms), TrackerParams())
    assert [t.id for t in a.tracks] == [t.id for t in b.tracks]
    for ta, tb in zip(a.tracks, b.tracks):
        assert_allclose(ta.pos_mean, tb.pos_mean, atol=0)
        assert_allclose(ta.rot_mean, tb.rot_mean, atol=0)


def test_ingest_variance_monotone_and_convergence():
    # repeated views of a static flower shrink both covariances and the error
    rng = np.random.default_rng(6)
    params = TrackerParams()
    true_pos = np.array([0.05, -0.02, 0.3])
    true_rot = random_rotation(rng)
    final_trans, final_rot = [], []
    for seed in range(50):
        srng = np.random.default_rng(seed)
        gs = GlobalState()
        prev_trace, prev_rcov = None, None
        for tick in range(20):
            z = true_pos + srng.normal(0, 0.005, 3)
            zr = geodesic_midpoint(true_rot, random_rotation(srng))  # crude rotational noise
            gs = ingest(gs, [make_measurement(z, rotation=zr, tick=tick)], params)
            t = gs.tracks[0]
            assert is_rotation(t.rot_mean, tol=1e-9)
            if prev_trace is not None:
                assert float(np.trace(t.pos_cov)) <= prev_trace + 20 * params.q_pos
                assert t.rot_cov <= prev_rcov + 20 * params.q_rot
            prev_trace, prev_rcov = float(np.trace(t.pos_cov)), t.rot_cov
        assert len(gs.tracks) == 1
        final_trans.append(float(np.linalg.norm(gs.tracks[0].pos_mean - true_pos)))
        final_rot.append(zaxis_angle(gs.tracks[0].rot_mean, true_rot))
    assert np.mean(final_trans) < 0.01
    assert np.mean(final_rot) < 20.0


def test_ingest_prunes_stale_low_support_tracks():
    params = TrackerParams(stale_ticks=10, stale_min_hits=3)
    gs = ingest(GlobalState(), [make_measurement([0, 0, 0], tick=0)], params)
    gs = ingest(gs, [make_measurement([1.0, 0, 0], tick=11)], params)
    # first track: 1 hit, unseen for 11 > 10 ticks -> pruned
    assert [t.hits for t in gs.tracks] == [1]
    assert_allclose(gs.tracks[0].pos_mean, [1.0, 0, 0], atol=0)


def test_confidence_gate():
    params = TrackerParams()
    t = _track(pos_cov=1e-5, hits=3)
    assert is_confident(t, params)
    assert not is_confident(_track(pos_cov=1e-5, hits=2), params)
    assert not is_confident(_track(pos_cov=1e-3, hits=9), params)


def test_claims_and_pollination_marking():
    gs = _state([_track(tid=4)])
    assert claim_target(gs, 4, arm_id=0)
    assert not claim_target(gs, 4, arm_id=1)
    assert claim_target(gs, 4, arm_id=0)  # re-claim by holder is fine
    release_target(gs, 4, arm_id=1)  # non-holder release is a no-op
    assert gs.claims == {4: 0}
    mark_pollinated(gs, 4)
    assert get_track(gs, 4).pollinated
    assert gs.claims == {}
    remove_track(gs, 4)
    assert gs.tracks == [] and get_track(gs, 4) is None


def test_tracker_params_json_roundtrip():
    assert_json_form(TrackerParams())
    assert_json_form(TrackerParams.for_noise(NoiseModel(reliable_range=(0.1, 0.4))))


def test_survey_trials_converge_jointly():
    # repeated-viewpoint fusion of the calibrated oracle lands inside
    # (1 cm, 20 deg) in well over 72% of seeded trials
    from pollisim.camera import Intrinsics
    from pollisim.runner import survey_run

    ok = 0
    n = 300
    for seed in range(n):
        t = survey_run(NoiseModel(), TrackerParams(), Intrinsics.default(), 20, seed)
        if t.final_trans is not None and t.final_trans < 0.01 and t.final_rot < 20.0:
            ok += 1
    assert ok / n >= 0.72


def test_assignment_partition_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nm, nt = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        gs = _state([_track(tid=j, pos=rng.uniform(0, 0.1, 3)) for j in range(nt)])
        ms = [make_measurement(rng.uniform(0, 0.1, 3)) for _ in range(nm)]
        asg: Assignment = associate(ms, gs, 0.05)
        seen = sorted([mi for mi, _ in asg.pairs] + asg.spawns)
        assert seen == list(range(nm))
        tids = [ti for _, ti in asg.pairs]
        assert len(tids) == len(set(tids))
