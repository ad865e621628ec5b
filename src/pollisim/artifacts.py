"""Run directory: the writer of a simulation's artifacts and the reader that
`eval` rebuilds the run logs from, side by side, so the two halves of one
schema change together.

Floats are written with repr, so they read back to the same bits and a
recomputed report is byte-identical to the one the run emitted.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .commander import (
    CommanderConfig, Done, Explore, MoveDelta, MoveTo, RoughLocalization, Searching, TriggerPollinate, VisualServo,
)
from .config import ExperimentConfig
from .configfields import fields_from_json, json_number, write_json
from .metrics import (
    REPORT_CSV_HEADER,
    AttemptRecord,
    RunLogs,
    RunReport,
    reachable_flowers,
    report_csv_row,
    summary_table,
)
from .simworld import ShotRecord, SingleShotStats, load_scene, save_scene
from .so3 import is_rotation
from .tracker import Track

TRACKS_HEADER = "tick,track_id,x,y,z,r00,r01,r02,r10,r11,r12,r20,r21,r22,cov_trace,rot_cov,hits,pollinated"
COMMANDS_HEADER = "tick,arm_id,mode,command_kind,target_id,tip_x,tip_y,tip_z"
ATTEMPTS_HEADER = "tick,arm_id,track_id,flower_id,success"
SHOTS_HEADER = "tick,camera_id,flower_id,detected,px_err,trans_err_m,rot_err_deg"
_TRACK_FLOATS = TRACKS_HEADER.split(",")[2:16]
_SHOT_ERRORS = SHOTS_HEADER.split(",")[4:]
# Version 2: tracks.csv holds the final track table, not a row per track per tick.
ARTIFACT_SCHEMA_VERSION = 2

_MODE_NAMES = {
    Searching: "searching",
    RoughLocalization: "rough_localization",
    VisualServo: "visual_servo",
    Done: "done",
}

_COMMAND_NAMES = {
    Explore: "explore",
    MoveTo: "move_to",
    MoveDelta: "move_delta",
    TriggerPollinate: "trigger_pollinate",
}


class SchemaMismatch(ValueError):
    """A run artifact does not match its expected schema."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_artifacts(
    out_dir: str,
    cfg: ExperimentConfig,
    logs: RunLogs,
    shots: list[ShotRecord],
    commands: list[tuple],
    report: RunReport,
) -> None:
    """Write the run directory from the loop's records.

    `commands` holds (tick, arm_id, mode type, command type, target id, tip
    position).
    """
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
    save_scene(os.path.join(out_dir, "scene.json"), logs.scene)
    write_json(os.path.join(out_dir, "meta.json"), {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "seed": cfg.seed,
        "config_digest": report.config_digest,
        "n_ticks": logs.n_ticks,
        "workspace_center": list(cfg.commander.workspace_center),
        "workspace_radius": cfg.commander.workspace_radius,
    })
    write_json(os.path.join(out_dir, "config_resolved.json"), cfg.to_json())
    write_json(os.path.join(out_dir, "report.json"), report.to_json())
    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_CSV_HEADER, [report_csv_row(report)])
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summary_table(report))


# How _read_csv reads a cell of each column kind, and what it calls a bad one.
_CELL_READERS = {
    "i": ("integer", int),
    "f": ("float", float),
    "b": ("flag", {"0": False, "1": True}.__getitem__),
}


def _read_csv(path: str, header: str, kinds: str, fault=lambda row: None) -> list[list]:
    """The rows of a CSV file with this header, each cell read by its
    column's letter in `kinds`: i an integer, f a float, b a 0/1 flag.
    `fault(row)` says what is wrong with a row whose cells read, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise SchemaMismatch(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != header:
        raise SchemaMismatch(f"{path}: header mismatch (expected {header!r})")
    readers = [_CELL_READERS[k] for k in kinds]
    rows = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(readers):
            raise SchemaMismatch(f"{path}: row {idx} has {len(parts)} fields, expected {len(readers)}")
        row = []
        for (name, read), value in zip(readers, parts):
            try:
                row.append(read(value))
            except (KeyError, ValueError):
                raise SchemaMismatch(f"{path}: row {idx}: bad {name} {value!r}") from None
        if (msg := fault(row)) is not None:
            raise SchemaMismatch(f"{path}: row {idx}: {msg}")
        rows.append(row)
    return rows


def _nonfinite(names: list[str], values: list[float]) -> str | None:
    """What is wrong with the first non-finite value of a row's float
    cells `values`, named in order by `names`, or None."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
            return f"non-finite {name} {value!r}"
    return None


def _track_fault(row: list, last_tick: int) -> str | None:
    """What is wrong with a tracks.csv row whose cells read, or None: it must
    hold the last tick, finite floats and a rotation."""
    if row[0] != last_tick:
        return f"tick {row[0]}, expected the last tick {last_tick}"
    if (msg := _nonfinite(_TRACK_FLOATS, row[2:16])) is not None:
        return msg
    return None if is_rotation(np.array(row[5:14]).reshape(3, 3), tol=1e-8) else "r00..r22 is not a rotation"


def _shot_fault(row: list) -> str | None:
    """What is wrong with a shots.csv row whose cells read, or None: a
    px_err is never negative, and a detected flower has finite errors."""
    if row[4] < 0:
        return f"negative px_err {row[4]!r}"
    if row[2] >= 0 and row[3]:
        return _nonfinite(_SHOT_ERRORS, row[4:])
    return None


def _commander_field(key: str):
    """Reader of a meta.json key copied from the commander config: the
    config's own rule, which checks it as `simulate` did."""
    return lambda value: getattr(fields_from_json(CommanderConfig, {key: value}), key)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("value must be a string")
    return value


def _meta_value(path: str, meta: dict, key: str, read):
    try:
        return read(meta[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{path}: key {key!r} missing or malformed") from exc


def read_run_logs(out_dir: str) -> RunLogs:
    """Rebuild the run logs from a run directory.

    Reads tracks.csv (the final track table), shots.csv, attempts.csv,
    meta.json and scene.json. A track row must hold the last tick, finite
    floats and a rotation, and a track id may appear once. A detected
    flower's shot must have finite errors, and an attempt must name a
    flower of the scene. These are the rows `simulate` writes.
    """
    meta_path = os.path.join(out_dir, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise SchemaMismatch(f"cannot read {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{meta_path}: invalid JSON ({exc.msg})") from exc
    version = meta.get("schema_version") if isinstance(meta, dict) else None
    if version != ARTIFACT_SCHEMA_VERSION:
        raise SchemaMismatch(f"{meta_path}: schema_version {version!r}, expected {ARTIFACT_SCHEMA_VERSION}")

    scene = load_scene(os.path.join(out_dir, "scene.json"))
    n_ticks = _meta_value(meta_path, meta, "n_ticks", lambda v: json_number("n_ticks", "int", v, 1))

    tracks_path = os.path.join(out_dir, "tracks.csv")
    final_tracks: dict[int, Track] = {}
    for idx, (_, track_id, *vals, hits, pollinated) in enumerate(_read_csv(
        tracks_path, TRACKS_HEADER, "ii" + "f" * 14 + "ib", lambda r: _track_fault(r, n_ticks - 1),
    ), start=2):
        if track_id in final_tracks:
            raise SchemaMismatch(f"{tracks_path}: row {idx}: repeated track_id {track_id}")
        final_tracks[track_id] = Track(
            pos_mean=np.array(vals[0:3]),
            pos_cov=np.eye(3) * vals[12] / 3.0,
            rot_mean=np.array(vals[3:12]).reshape(3, 3),
            rot_cov=vals[13],
            hits=hits,
            pollinated=pollinated,
        )

    shots = SingleShotStats()
    shots.add([ShotRecord(*r) for r in _read_csv(
        os.path.join(out_dir, "shots.csv"), SHOTS_HEADER, "iiibfff", _shot_fault,
    )])
    flower_ids = {f.id for f in scene}

    return RunLogs(
        scene=scene,
        final_tracks=final_tracks,
        n_ticks=n_ticks,
        shots=shots,
        attempts=[AttemptRecord(*r) for r in _read_csv(
            os.path.join(out_dir, "attempts.csv"), ATTEMPTS_HEADER, "iiiib",
            lambda r: None if r[3] in flower_ids else f"flower_id {r[3]} is not in scene.json",
        )],
        reachable_ids=reachable_flowers(
            scene,
            _meta_value(meta_path, meta, "workspace_center", _commander_field("workspace_center")),
            _meta_value(meta_path, meta, "workspace_radius", _commander_field("workspace_radius")),
        ),
        seed=_meta_value(meta_path, meta, "seed", lambda v: json_number("seed", "int", v, 0)),
        config_digest=_meta_value(meta_path, meta, "config_digest", _text),
    )
