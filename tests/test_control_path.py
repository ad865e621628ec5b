"""The control path's scalar geometry against the numpy-wrapper forms it
replaced: np.linalg.norm of a 3-vector became so3.vnorm, a scalar np.clip
became min(max(x, -1.0), 1.0), and np.trace(r) became r.trace(). Each
function must return the same bits and raise the same warnings and errors
on random inputs, on a dot exactly at +-1 and one ulp past it, on NaN
entries and on zero vectors."""

import math

import numpy as np
import pytest

from helpers import outcome_with_warnings
from pollisim.commander import MoveDelta, _angle_between, check_pollination, servo_delta
from pollisim.metrics import reachable_flowers
from pollisim.runner import _rotate_toward
from pollisim.simworld import FlowerGT
from pollisim.so3 import (
    EX,
    EZ,
    ORTHO_TOL,
    Pose,
    aligning_rotation,
    axis_angle_of,
    cross3,
    from_axis_angle,
    random_rotation,
    random_unit_vector,
    rotation_angle,
    vnorm,
)

ULP = 2.0**-52


def _ref_angle_between(a, b):
    c = float(np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))
    return math.degrees(math.acos(c))


def _ref_check_pollination(tip, flower, eps_pos, eps_ang):
    if eps_pos <= 0 or eps_ang <= 0:
        raise ValueError("thresholds must be positive")
    if np.linalg.norm(tip.position - flower.pose.position) > eps_pos:
        return False
    return _ref_angle_between(-tip.rotation[:, 2], flower.pose.rotation[:, 2]) <= eps_ang


def _ref_servo_delta(tip, target, gain, max_step):
    if not (0 < gain <= 1):
        raise ValueError("gain must be in (0, 1]")
    err = target.position - tip.position
    dpos = gain * err
    n = vnorm(dpos)
    if n > max_step:
        dpos = dpos * (max_step / n)
    cur = -tip.rotation[:, 2]
    want = target.rotation[:, 2]
    c = float(np.clip(cur @ want, -1.0, 1.0))
    axis = cross3(cur, want)
    s = vnorm(axis)
    if s <= 1e-9:
        if c > 0:
            drot = np.eye(3)
        else:
            axis = cross3(cur, np.array([1.0, 0.0, 0.0]))
            if vnorm(axis) <= 1e-9:
                axis = cross3(cur, np.array([0.0, 1.0, 0.0]))
            drot = from_axis_angle(axis, gain * math.pi)
    else:
        drot = from_axis_angle(axis, gain * math.acos(c))
    return MoveDelta(dpos=dpos, drot=drot)


def _ref_rotation_angle(r):
    c = (float(np.trace(np.asarray(r, dtype=float))) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _ref_axis_angle_of(r):
    r = np.asarray(r, dtype=float)
    angle = _ref_rotation_angle(r)
    if angle < 1e-12:
        return EX.copy(), 0.0
    if angle < np.pi - 1e-6:
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        return v / (2.0 * np.sin(angle)), angle
    b = 0.5 * (r + np.eye(3))
    col = int(np.argmax(np.diag(b)))
    axis = b[:, col]
    return axis / np.linalg.norm(axis), angle


def _ref_rotate_toward(current, target, max_angle):
    rel = target @ current.T
    angle = _ref_rotation_angle(rel)
    if angle <= 1e-12:
        return target
    if angle <= max_angle:
        return target
    axis, _ = _ref_axis_angle_of(rel)
    return from_axis_angle(axis, max_angle) @ current


def _ref_aligning_rotation(b):
    b = np.asarray(b, dtype=float)
    c = float(np.clip(EZ @ b, -1.0, 1.0))
    if c < -1.0 + ORTHO_TOL:
        return from_axis_angle(EX, np.pi)
    x, y, z = cross3(EZ, b)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + k + (k @ k) / (1.0 + c)


def _ref_reachable_flowers(scene, center, radius):
    center = np.asarray(center, dtype=float)
    return [f.id for f in scene if float(np.linalg.norm(f.pose.position - center)) <= radius]


def _vectors(rng) -> list[np.ndarray]:
    """Random 3-vectors of many magnitudes, then the edge cases."""
    out = list(rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-100, 100, size=(300, 1)))
    out += [EZ.copy(), -EZ, EZ * (1.0 + ULP), -EZ * (1.0 + ULP), np.zeros(3), np.array([np.nan, 0.0, 1.0]),
            np.array([0.0, np.nan, np.nan]), np.array([-0.0, 0.0, -0.0]), np.array([1e-160, 0.0, 0.0])]
    return out


def _rotations(rng) -> list[np.ndarray]:
    """Random rotations, then rotations at 0, about 1e-13, near pi and at pi,
    a matrix whose trace is one ulp past 3, one whose cosine is one ulp past
    -1, a NaN matrix and a zero matrix."""
    out = [random_rotation(rng) for _ in range(100)]
    for angle in (0.0, 1e-13, 1e-12, np.pi - 1e-7, np.pi - 1e-6, np.pi):
        out.append(from_axis_angle(random_unit_vector(rng), angle))
    past = np.eye(3)
    past[0, 0] = 1.0 + 2 * ULP  # trace 3 + 4 ulp of 1, so (trace - 1) / 2 is past 1
    under = np.diag([-1.0 - 2 * ULP, -1.0, 1.0])  # (trace - 1) / 2 is past -1
    out += [past, under, np.full((3, 3), np.nan), np.zeros((3, 3))]
    return out


def _same(fn, ref, *args):
    got = outcome_with_warnings(fn, *args)
    assert got == outcome_with_warnings(ref, *args), args


def test_angle_between_matches_the_norm_and_clip_form():
    rng = np.random.default_rng(350)
    vs = _vectors(rng)
    pairs = [(a, b) for a, b in zip(vs, reversed(vs))] + [(v, v) for v in vs] + [(v, -v) for v in vs]
    pairs += [(v, v * (1.0 + ULP)) for v in vs]
    ratios = []
    with np.errstate(all="ignore"):
        for a, b in pairs:
            ratios.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            _same(_angle_between, _ref_angle_between, a, b)
    # both clip bounds are exercised, and a zero vector divides by zero
    assert max(ratios) > 1.0 and min(ratios) < -1.0 and any(np.isnan(ratios))
    assert outcome_with_warnings(_angle_between, np.zeros(3), EZ)[1] != []


def test_check_pollination_matches_the_norm_form():
    rng = np.random.default_rng(351)
    cases = []
    for i, rot in enumerate(_rotations(rng)):
        at = rng.normal(0.0, 0.1, size=3) if i % 2 else np.zeros(3)
        flower = FlowerGT(0, Pose(at, random_rotation(rng)))
        # a tip eps_pos from the flower (exactly, for a flower at the
        # origin), one inside it and one outside it
        for offset in (0.005 * EX, 0.004 * EX, 0.006 * EX, np.array([np.nan, 0.0, 0.0])):
            cases.append((Pose(flower.pose.position + offset, rot), flower, 0.005, 30.0))
        # a tip whose -z axis is the flower's +z axis
        cases.append((Pose(flower.pose.position, -flower.pose.rotation), flower, 0.005, 5.0))
    for tip, flower, eps_pos, eps_ang in cases:
        _same(check_pollination, _ref_check_pollination, tip, flower, eps_pos, eps_ang)
    assert vnorm(cases[0][0].position - cases[0][1].pose.position) == 0.005


def _move(fn):
    """fn returning the bits of its MoveDelta's dpos and drot, in one array."""
    def bits(*args):
        d = fn(*args)
        return np.concatenate([d.dpos, d.drot.ravel()])
    return bits


def test_servo_delta_matches_the_clip_form():
    rng = np.random.default_rng(352)
    rots = _rotations(rng)
    cases = []
    for i, rot in enumerate(rots):
        tip = Pose(rng.normal(0.0, 0.1, size=3), rot)
        other = rots[(i * 7 + 3) % len(rots)]
        anti = rot.copy()
        anti[:, 2] = -anti[:, 2]  # the target's z is the tip's -z: aligned
        scaled = anti.copy()
        scaled[:, 2] *= 1.0 + ULP  # and one ulp past it
        for target_rot in (other, anti, scaled, rot, -rot):
            target = Pose(tip.position + rng.normal(0.0, 0.05, size=3), target_rot)
            cases.append((tip, target, 0.5, 0.02))
        cases.append((tip, Pose(tip.position, other), 1.0, 0.02))
    with np.errstate(all="ignore"):
        dots = [float(-t.rotation[:, 2] @ g.rotation[:, 2]) for t, g, _, _ in cases]
    assert max(dots) > 1.0 and min(dots) < -1.0 and any(math.isnan(d) for d in dots)
    for args in cases:
        _same(_move(servo_delta), _move(_ref_servo_delta), *args)


def test_rotate_toward_and_axis_angle_match_the_trace_and_clip_forms():
    rng = np.random.default_rng(353)
    rots = _rotations(rng)
    for i, current in enumerate(rots):
        for target in (rots[(i * 5 + 1) % len(rots)], current, from_axis_angle(EZ, 1e-13) @ current):
            for max_angle in (math.radians(20.0), 1e-300, math.pi):
                _same(_rotate_toward, _ref_rotate_toward, current, target, max_angle)
        _same(lambda r: np.append(*axis_angle_of(r)), lambda r: np.append(*_ref_axis_angle_of(r)), current)
        _same(rotation_angle, _ref_rotation_angle, current)
    with np.errstate(invalid="ignore"):
        cosines = [(np.trace(r) - 1.0) / 2.0 for r in rots]
    assert max(cosines) > 1.0 and min(cosines) < -1.0


def test_aligning_rotation_matches_the_clip_form():
    rng = np.random.default_rng(354)
    vs = _vectors(rng) + [v / vnorm(v) for v in rng.normal(size=(200, 3))]
    for b in vs:
        _same(aligning_rotation, _ref_aligning_rotation, b)


@pytest.mark.parametrize("seed", range(3))
def test_reachable_flowers_matches_the_norm_form(seed):
    rng = np.random.default_rng(355 + seed)
    positions = list(rng.normal(0.0, 0.3, size=(60, 3))) + [0.5 * EX, np.array([np.nan, 0.0, 0.0]), np.zeros(3)]
    scene = [FlowerGT(i, Pose(p, np.eye(3))) for i, p in enumerate(positions)]
    for center, radius in (((0.0, 0.0, 0.0), 0.5), ((0.1, -0.2, 0.05), 0.3), ((0.0, 0.0, 0.0), 0.0)):
        got = reachable_flowers(scene, np.array(center), radius)
        assert got == _ref_reachable_flowers(scene, np.array(center), radius)
    assert 60 in reachable_flowers(scene, np.zeros(3), 0.5)  # exactly at the radius
