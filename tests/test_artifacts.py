"""The run directory's writer and scene.json against the forms they
replaced, byte for byte, and the one newline of every text file the
package writes."""

import builtins
import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from pollisim import runner
from pollisim.artifacts import (
    _COMMAND_NAMES,
    _MODE_NAMES,
    ARTIFACT_SCHEMA_VERSION,
    ATTEMPTS_HEADER,
    COMMANDS_HEADER,
    SHOTS_HEADER,
    TRACKS_HEADER,
    write_artifacts,
)
from pollisim.cli import main
from pollisim.commander import Explore, MoveTo, RoughLocalization, Searching, TriggerPollinate, VisualServo
from pollisim.configfields import json_text
from pollisim.metrics import REPORT_CSV_HEADER, AttemptRecord, report_csv_row, summary_table
from pollisim.simworld import FlowerGT, SceneGenParams, ShotRecord, save_scene
from pollisim.so3 import Pose, random_rotation, rotation_to_list
from pollisim.tracker import Track

EDGE_VALUES = (float("nan"), -0.0, 5e-324, 1e300)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _scene_json(flowers) -> str:
    """scene.json as json_text lays out the scene's dict form."""
    return json_text({
        "flowers": [
            {
                "id": f.id,
                "position": [float(x) for x in f.pose.position],
                "rotation": rotation_to_list(f.pose.rotation),
                "pollinated": f.pollinated,
            }
            for f in sorted(flowers, key=lambda f: f.id)
        ]
    })


def _reference_write_artifacts(out_dir, cfg, logs, shots, commands, report) -> None:
    """write_artifacts as it was written before it built each file as one
    string: _fmt per float, one write per row, json_text for every JSON file."""
    last_tick = logs.n_ticks - 1
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "tracks.csv"), TRACKS_HEADER, (
        f"{last_tick},{tid},{_fmt(t.pos_mean[0])},{_fmt(t.pos_mean[1])},{_fmt(t.pos_mean[2])},"
        + ",".join(_fmt(v) for v in t.rot_mean.reshape(9))
        + f",{_fmt(np.trace(t.pos_cov))},{_fmt(t.rot_cov)},{t.hits},{int(t.pollinated)}"
        for tid, t in logs.final_tracks.items()
    ))
    _write_csv(os.path.join(out_dir, "commands.csv"), COMMANDS_HEADER, (
        f"{tick},{arm_id},{_MODE_NAMES[mode]},{_COMMAND_NAMES[kind]},"
        f"{target_id},{_fmt(tip[0])},{_fmt(tip[1])},{_fmt(tip[2])}"
        for tick, arm_id, mode, kind, target_id, tip in commands
    ))
    _write_csv(os.path.join(out_dir, "attempts.csv"), ATTEMPTS_HEADER, (
        f"{a.tick},{a.arm_id},{a.track_id},{a.flower_id},{int(a.success)}" for a in logs.attempts
    ))
    _write_csv(os.path.join(out_dir, "shots.csv"), SHOTS_HEADER, (
        f"{s.tick},{s.camera_id},{s.flower_id},{int(s.detected)},"
        f"{_fmt(s.px_err)},{_fmt(s.trans_err)},{_fmt(s.rot_err_deg)}"
        for s in shots
    ))
    json_files = {
        "scene.json": _scene_json(logs.scene),
        "meta.json": json_text({
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "seed": cfg.seed,
            "config_digest": report.config_digest,
            "n_ticks": logs.n_ticks,
            "workspace_center": list(cfg.commander.workspace_center),
            "workspace_radius": cfg.commander.workspace_radius,
        }),
        "config_resolved.json": json_text(cfg.to_json()),
        "report.json": json_text(report.to_json()),
    }
    for name, text in json_files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_CSV_HEADER, [report_csv_row(report)])
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_table(report))


def _writer_inputs(monkeypatch, cfg) -> tuple:
    """The arguments simulate_run passes its writer for `cfg`."""
    passed = []
    monkeypatch.setattr(runner, "_write_artifacts", lambda *args: passed.append(args))
    runner.simulate_run(cfg, out_dir="unused")
    return passed[0]


def _assert_same_files(tmp_path, args) -> dict[str, bytes]:
    """Write `args` with both writers; every file must match byte for byte."""
    new, ref = tmp_path / "new", tmp_path / "ref"
    write_artifacts(str(new), *args[1:])
    _reference_write_artifacts(str(ref), *args[1:])
    names = sorted(os.listdir(ref))
    assert sorted(os.listdir(new)) == names and len(names) == 10
    got = {name: (new / name).read_bytes() for name in names}
    for name in names:
        assert got[name] == (ref / name).read_bytes(), name
    return got


@pytest.mark.parametrize("cfg", [
    runner.ExperimentConfig(seed=0, scene_gen=SceneGenParams(count=20)),
    runner.ExperimentConfig(seed=1, scene_gen=SceneGenParams(count=20), arm_count=2, step_budget=600),
    runner.ExperimentConfig(seed=3, scene_gen=SceneGenParams(count=3), step_budget=25),
], ids=["stock-20-1", "20-2", "3-flowers-no-attempts"])
def test_writer_matches_the_row_by_row_writer(monkeypatch, tmp_path, cfg):
    args = _writer_inputs(monkeypatch, cfg)
    logs, shots = args[2], args[3]
    assert cfg.noise.clutter_rate > 0 and any(s.flower_id < 0 for s in shots)
    assert len(logs.final_tracks) > 0
    assert (len(logs.attempts) == 0) == (cfg.scene_gen.count == 3)
    _assert_same_files(tmp_path, args)


def _edge_track(i: int, floats) -> Track:
    """A track whose every float is one of `floats`, in turn from offset i."""
    vals = [floats[(i + k) % len(floats)] for k in range(15)]
    return Track(
        pos_mean=np.array(vals[0:3]),
        pos_cov=np.diag(vals[3:6]),
        rot_mean=np.array(vals[6:15]).reshape(3, 3),
        rot_cov=np.float64(vals[i % len(vals)]) if i % 2 else 2,  # an np.float64 and an int
        hits=i,
        pollinated=bool(i % 2),
    )


def test_writer_matches_on_hand_built_logs(monkeypatch, tmp_path):
    cfg = runner.ExperimentConfig(seed=2, scene_gen=SceneGenParams(count=3), step_budget=5)
    args = _writer_inputs(monkeypatch, cfg)
    out, _, logs, _, _, report = args

    # no tracks, no shots, no commands and no attempts
    empty = replace(logs, final_tracks={}, attempts=[])
    got = _assert_same_files(tmp_path / "empty", (out, cfg, empty, [], [], report))
    assert got["tracks.csv"] == (TRACKS_HEADER + "\n").encode()

    # NaN, -0.0, a subnormal and 1e300 in every float column, with np.float64
    # in the shot records and in rot_cov
    edges = EDGE_VALUES
    tracks = {3 * i + 1: _edge_track(i, edges) for i in range(4)}
    edge_shots = [
        ShotRecord(
            7, 0, i - 1, bool(i % 2), np.float64(edges[i % 4]), edges[(i + 1) % 4], np.float64(edges[(i + 2) % 4])
        )
        for i in range(8)
    ]
    edge_commands = [
        (t, 0, mode, kind, t - 1, np.array([edges[t % 4], edges[(t + 1) % 4], edges[(t + 2) % 4]]))
        for t, (mode, kind) in enumerate([
            (Searching, Explore), (RoughLocalization, MoveTo), (VisualServo, TriggerPollinate), (Searching, MoveTo),
        ])
    ]
    attempts = [AttemptRecord(4, 1, 7, 0, True), AttemptRecord(6, 0, 1, 2, False)]
    edge_logs = replace(logs, final_tracks=tracks, attempts=attempts)
    got = _assert_same_files(tmp_path / "edges", (out, cfg, edge_logs, edge_shots, edge_commands, report))
    text = got["shots.csv"].decode() + got["tracks.csv"].decode() + got["commands.csv"].decode()
    for token in ("nan", "-0.0", "5e-324", "1e+300"):
        assert token in text
    assert "np.float64" not in text


def _scene(n: int, seed: int) -> list[FlowerGT]:
    """n flowers in shuffled id order, pollinated mixed, with -0.0 and
    subnormal entries in positions and rotations."""
    rng = np.random.default_rng(seed)
    flowers = []
    for i in rng.permutation(n).tolist():
        position = rng.normal(0.0, 0.1, size=3)
        rotation = random_rotation(rng)
        if i % 3 == 0:
            position[i % 3] = -0.0
            rotation[1, 2] = 5e-324
        if i % 3 == 1:
            position[2] = -5e-324
            rotation[0, 1] = -0.0
        flowers.append(FlowerGT(id=i, pose=Pose(position, rotation), pollinated=bool(i % 2)))
    return flowers


@pytest.mark.parametrize("n", [0, 1, 60])
def test_save_scene_is_json_text_of_the_dict_form(tmp_path, n):
    flowers = _scene(n, n)
    path = tmp_path / "scene.json"
    save_scene(str(path), flowers)
    assert path.read_bytes() == _scene_json(flowers).encode()
    if n == 60:
        text = path.read_text()
        assert "-0.0," in text and "5e-324" in text and '"pollinated": true' in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_scene_writes_a_non_finite_value_as_json_does(tmp_path, bad):
    flowers = _scene(5, 1)
    flowers[2].pose.position[1] = bad
    flowers[4].pose.rotation[2, 2] = -bad
    path = tmp_path / "scene.json"
    save_scene(str(path), flowers)
    assert path.read_bytes() == _scene_json(flowers).encode()
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()


# sha256 of the scene files `pollisim gen-scene` wrote before scene.json was
# laid out by one format string per flower and the rotations were drawn as
# one stack.
GEN_SCENE_SHA256 = {
    ("--count", "60", "--seed", "3"): "9ae2c5344d5a0da29069a050ae02ff072f03b82bb1ad4be88832310a424f8ecb",
    ("--count", "200", "--seed", "1"): "2927a36144e411187dc79c165fa63205c35ac2d571f7c71437ed4fbee531855d",
    ("--count", "40", "--spread", "0.06", "--min-sep", "0.02", "--center", "0.1,-0.2,0.3", "--max-tilt-deg", "180",
     "--seed", "5"): "45d0914d54978559902cbc3d3d43540c899e272a352bea37097a4ce3da618185",
}


@pytest.mark.parametrize("options", list(GEN_SCENE_SHA256))
def test_gen_scene_writes_its_recorded_bytes(tmp_path, options):
    out = tmp_path / "scene.json"
    assert main(["gen-scene", *options, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SCENE_SHA256[options]


def test_every_text_file_is_written_with_one_newline(monkeypatch, tmp_path):
    # Each write names newline="\n", so no platform turns a line end into
    # "\r\n" and changes a file's digest.
    opened = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((os.path.basename(file), kwargs.get("newline")))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"schema_version": 1, "seed": 2, "scene": {"generate": {"count": 3}}, "step_budget": 20}')
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(run), "--quiet"]) == 0
    assert main(["eval", "--out-dir", str(run), "--report", str(tmp_path / "eval.json"), "--quiet"]) == 0
    assert main(["gen-scene", "--count", "3", "--out", str(tmp_path / "scene.json"), "--quiet"]) == 0
    assert main([
        "calibrate-noise", "--trans-cm", "0", "--rot-deg", "0", "--det-rate", "1", "--samples", "20",
        "--out", str(tmp_path / "noise.json"), "--quiet",
    ]) == 0
    names = sorted(name for name, _ in opened)
    assert names == sorted([*os.listdir(run), "eval.json", "scene.json", "noise.json"])
    assert {newline for _, newline in opened} == {"\n"}
