import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pollisim
from pollisim.artifacts import SchemaMismatch
from pollisim.camera import FOCAL_RANGE, MAX_IMAGE_SIDE, Intrinsics
from pollisim.cli import main
from pollisim.config import ConfigError, ExperimentConfig, config_digest, load_config, parse_config
from pollisim.runner import evaluate_run_dir
from pollisim.simworld import (
    MAX_CLUTTER_RATE, MAX_LENGTH, MAX_PIXEL_SIGMA, MAX_ROT_SIGMA, MIN_DEPTH, NoiseModel, load_scene,
)
from pollisim.tracker import MAX_POS_VAR, MAX_ROT_VAR, MIN_POS_VAR


def _write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 42,
        "scene": {"generate": {"count": 3, "spread": 0.10, "min_sep": 0.08}},
        "noise": NoiseModel.noiseless().to_json(),
        "step_budget": 500,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return cfg


def _read_all_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_gen_scene_and_load(tmp_path):
    out = tmp_path / "scene.json"
    assert main(["gen-scene", "--count", "7", "--seed", "3", "--out", str(out), "--quiet"]) == 0
    scene = load_scene(str(out))
    assert [f.id for f in scene] == list(range(7))


@pytest.mark.parametrize("option, value, field_name", [
    ("--count", "0", "count"),
    ("--spread", "-1", "spread"),
    ("--min-sep", "nan", "min_sep"),
    ("--max-tilt-deg", "nan", "max_tilt_deg"),
    ("--max-tilt-deg", "-30", "max_tilt_deg"),
])
def test_gen_scene_bad_count(tmp_path, capsys, option, value, field_name):
    # the options build a SceneGenParams, so they are refused as the config section is
    assert main(["gen-scene", option, value, "--out", str(tmp_path / "s.json")]) == 2
    assert field_name in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_negative_max_tilt_in_a_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"generate": {"count": 2, "max_tilt_deg": -30}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
    assert "'scene.generate': max_tilt_deg must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_simulate_minimal_noiseless(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    with open(out_dir / "report.json") as fh:
        rep = json.load(fh)
    assert rep["pose_success_rate"] == 1.0
    assert rep["attempt_rate"] == 1.0
    assert rep["pollination_success_rate"] == 1.0
    assert rep["mean_trans_err_m"] < 1e-6
    for name in ("tracks.csv", "commands.csv", "attempts.csv", "shots.csv",
                 "scene.json", "meta.json", "config_resolved.json",
                 "report.json", "report.csv", "summary.txt"):
        assert (out_dir / name).exists()


def test_simulate_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, noise=NoiseModel().to_json(), step_budget=120)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d2), "--quiet"]) == 0
    assert _read_all_bytes(d1) == _read_all_bytes(d2)


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=60)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--seed", "43", "--out", str(d2), "--quiet"]) == 0
    assert _read_all_bytes(d1) != _read_all_bytes(d2)


def test_eval_reproduces_simulate_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, noise=NoiseModel().to_json(), step_budget=100)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    report_path = tmp_path / "eval_report.json"
    assert main(["eval", "--out-dir", str(out_dir), "--report", str(report_path), "--quiet"]) == 0
    assert (out_dir / "report.json").read_bytes() == report_path.read_bytes()
    # library path too
    rep = evaluate_run_dir(str(out_dir))
    with open(out_dir / "report.json") as fh:
        assert rep.to_json() == json.load(fh)
    # tracks.csv is the final track table: one row per track, all at the last tick
    with open(out_dir / "meta.json") as fh:
        meta = json.load(fh)
    rows = (out_dir / "tracks.csv").read_text().splitlines()[1:]
    assert len(rows) == rep.n_tracks > 0
    assert {r.split(",")[0] for r in rows} == {str(meta["n_ticks"] - 1)}
    # a run directory of another artifact schema is refused, not misread
    meta["schema_version"] = 1
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert main(["eval", "--out-dir", str(out_dir), "--quiet"]) == 3
    assert "schema_version" in capsys.readouterr().err


def test_eval_truncated_csv_schema_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=80, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    tracks = (out_dir / "tracks.csv").read_text().splitlines()
    (out_dir / "tracks.csv").write_text("\n".join(tracks[:-1] + [tracks[-1][: len(tracks[-1]) // 2]]) + "\n")
    assert main(["eval", "--out-dir", str(out_dir), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "row" in err
    with pytest.raises(SchemaMismatch):
        evaluate_run_dir(str(out_dir))


def test_eval_refuses_negative_pixel_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=20, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    shots = (out_dir / "shots.csv").read_text().splitlines()
    (out_dir / "shots.csv").write_text("\n".join(shots + ["19,0,0,1,-1.0,0.01,5.0"]) + "\n")
    assert main(["eval", "--out-dir", str(out_dir), "--quiet"]) == 3
    assert f"shots.csv: row {len(shots) + 1}: negative px_err" in capsys.readouterr().err


def _simulated_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=20, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    return out_dir


@pytest.mark.parametrize("name, row, message", [
    ("tracks.csv", "19,x," + "0.0," * 14 + "1,0", "bad integer 'x'"),
    ("shots.csv", "19,0,0,2,1.0,0.01,5.0", "bad flag '2'"),
    ("attempts.csv", "19,0,1,0,yes", "bad flag 'yes'"),
    ("shots.csv", "19,0,0,1,one,0.01,5.0", "bad float 'one'"),
    # a well-formed row for track 0, which the run already holds
    ("tracks.csv", "19,0," + "0.0," * 3 + "1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0," + "0.0,0.1,1,0", "repeated track_id 0"),
    ("attempts.csv", "19,0,0,7,0", "flower_id 7 is not in scene.json"),
    # a well-formed row for a new track, at a tick before the run's last one
    ("tracks.csv", "5,99," + "0.0," * 3 + "1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0," + "0.0,0.1,1,0",
     "tick 5, expected the last tick 19"),
    # values simulate never writes: a non-finite position, a detected
    # flower with an infinite error, a track whose 3x3 is not a rotation
    ("tracks.csv", "19,99,nan,0.0,0.0," + "1.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0," + "0.0,0.1,1,0", "non-finite x nan"),
    ("shots.csv", "19,0,0,1,inf,0.01,5.0", "non-finite px_err inf"),
    ("tracks.csv", "19,99," + "0.0," * 3 + "2.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0,1.0," + "0.0,0.1,1,0",
     "r00..r22 is not a rotation"),
], ids=["tracks-integer", "shots-flag", "attempts-flag", "shots-float", "tracks-repeated-id", "attempts-unknown-flower",
        "tracks-early-tick", "tracks-nonfinite", "shots-nonfinite-error", "tracks-not-a-rotation"])
def test_eval_refuses_a_damaged_cell_naming_file_and_row(tmp_path, capsys, name, row, message):
    out_dir = _simulated_run(tmp_path)
    lines = (out_dir / name).read_text().splitlines()
    (out_dir / name).write_text("\n".join(lines + [row]) + "\n")
    assert main(["eval", "--out-dir", str(out_dir), "--quiet"]) == 3
    assert f"{name}: row {len(lines) + 1}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n_ticks", None), ("n_ticks", 3.7), ("seed", [1]), ("workspace_center", [0.0, 0.0]),
    ("workspace_radius", "0.5"), ("workspace_radius", 0.0), ("workspace_radius", float("nan")),
    ("workspace_center", [True, "0", 0]), ("workspace_center", [0.0, 0.0, float("inf")]), ("config_digest", 12),
    ("seed", -4), ("n_ticks", 0),
])
def test_eval_refuses_a_missing_or_malformed_meta_key(tmp_path, capsys, key, value):
    out_dir = _simulated_run(tmp_path)
    meta = json.loads((out_dir / "meta.json").read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (out_dir / "meta.json").write_text(json.dumps(meta))
    assert main(["eval", "--out-dir", str(out_dir), "--quiet"]) == 3
    assert f"meta.json: key '{key}' missing or malformed" in capsys.readouterr().err


NOISELESS_CALIBRATION = ["calibrate-noise", "--trans-cm", "0", "--rot-deg", "0", "--det-rate", "1", "--samples", "50"]


def _unwritable_calibration(tmp_path):
    return [*NOISELESS_CALIBRATION, "--out", str(tmp_path / "missing" / "noise.json")], 3, "noise.json"


def _unwritable_eval_report(tmp_path):
    out_dir = _simulated_run(tmp_path)
    return ["eval", "--out-dir", str(out_dir), "--report", str(tmp_path / "missing" / "r.json")], 3, "r.json"


def _scene_without_flowers(tmp_path):
    scene_path = tmp_path / "empty_scene.json"
    scene_path.write_text('{"flowers": []}')
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"path": str(scene_path)})
    return ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")], 2, "'scene'"


@pytest.mark.parametrize("case", [_unwritable_calibration, _unwritable_eval_report, _scene_without_flowers])
def test_every_failure_leaves_through_the_exit_code_gate(tmp_path, capsys, case):
    argv, code, named = case(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err
    assert "Traceback" not in err


def test_module_entry_point_exits_3_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(pollisim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [*NOISELESS_CALIBRATION, "--out", str(tmp_path / "missing" / "noise.json")]
    proc = subprocess.run([sys.executable, "-m", "pollisim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_eval_empty_tracks_nonempty_scene(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=60)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    header = (out_dir / "tracks.csv").read_text().splitlines()[0]
    (out_dir / "tracks.csv").write_text(header + "\n")
    rep = evaluate_run_dir(str(out_dir))
    assert rep.pose_success_rate == 0.0
    assert rep.n_matched == 0


def test_config_error_names_field(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump({"schema_version": 1, "scene": {"generate": {"count": 3}}}, fh)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out_dir.exists()  # no partial outputs
    # an out-of-range value is refused before the run starts, not mid-run
    _write_config(cfg_path, commander={"max_step": -1.0})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
    assert "max_step" in capsys.readouterr().err
    assert not out_dir.exists()
    # a misspelled key is refused, not run with the default it meant to replace
    _write_config(cfg_path, step_budjet=10)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
    assert "'step_budjet'" in capsys.readouterr().err
    assert not out_dir.exists()
    # an infinite focal length (JSON 1e400 reads as one) would leave every flower out of view
    _write_config(cfg_path, camera={**Intrinsics.default().to_json(), "fx": float("inf")})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
    assert "'camera': fx" in capsys.readouterr().err
    assert not out_dir.exists()
    # sigmas past their bounds: 1e160 once overflowed in the tracker with a
    # traceback, 1e100 ran, and rot_sigma 1e300 exited 3 naming init_rot_cov
    for noise, named in [
        ({"pixel_sigma": 1e160}, "'noise': pixel_sigma"),
        ({"pixel_sigma": 1e100}, "'noise': pixel_sigma"),
        ({"rot_sigma": 1e300}, "'noise': rot_sigma"),
    ]:
        _write_config(cfg_path, noise={**NoiseModel().to_json(), **noise})
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out_dir.exists()


def _past(bound, toward=np.inf):
    return float(np.nextafter(bound, toward))


_CAMERA = Intrinsics.default().to_json()
# One value just past each bound of a physical input.
_JUST_PAST_A_BOUND = [
    ({"noise": {"pixel_sigma": _past(MAX_PIXEL_SIGMA)}}, "'noise': pixel_sigma must be <="),
    ({"noise": {"depth_sigma_near": _past(MAX_LENGTH)}}, "'noise': depth_sigma_near must be <="),
    ({"noise": {"depth_sigma_far": _past(MAX_LENGTH)}}, "'noise': depth_sigma_far must be <="),
    ({"noise": {"reliable_range": [0.07, _past(MAX_LENGTH)]}}, "'noise': reliable_range must be <="),
    ({"noise": {"reliable_range": [_past(MIN_DEPTH, 0.0), 0.5]}}, "'noise': reliable_range must be >="),
    ({"noise": {"rot_sigma": _past(MAX_ROT_SIGMA)}}, "'noise': rot_sigma must be <="),
    ({"noise": {"clutter_rate": _past(MAX_CLUTTER_RATE)}}, "'noise': clutter_rate must be <="),
    ({"tracker": {"assoc_threshold": _past(MAX_LENGTH)}}, "'tracker': assoc_threshold must be <="),
    ({"tracker": {"init_pos_cov": _past(MAX_POS_VAR)}}, "'tracker': init_pos_cov must be <="),
    ({"tracker": {"init_pos_cov": _past(MIN_POS_VAR, 0.0)}}, "'tracker': init_pos_cov must be >="),
    ({"tracker": {"init_rot_cov": _past(MAX_ROT_VAR)}}, "'tracker': init_rot_cov must be <="),
    ({"tracker": {"q_pos": _past(MAX_POS_VAR)}}, "'tracker': q_pos must be <="),
    ({"tracker": {"q_rot": _past(MAX_ROT_VAR)}}, "'tracker': q_rot must be <="),
    ({"tracker": {"r_pos_near": _past(MIN_POS_VAR, 0.0)}}, "'tracker': r_pos_near must be >="),
    ({"tracker": {"r_pos_far": _past(MAX_POS_VAR)}}, "'tracker': r_pos_far must be <="),
    ({"tracker": {"r_rot": _past(MAX_ROT_VAR)}}, "'tracker': r_rot must be <="),
    ({"tracker": {"reliable_range": [0.07, _past(MAX_LENGTH)]}}, "'tracker': reliable_range must be <="),
    ({"tracker": {"confident_trace": _past(MAX_POS_VAR)}}, "'tracker': confident_trace must be <="),
    ({"commander": {"gain": _past(1.0)}}, "'commander': gain must be <="),
    ({"commander": {"max_step": _past(MAX_LENGTH)}}, "'commander': max_step must be <="),
    ({"commander": {"max_rot_step_deg": _past(180.0)}}, "'commander': max_rot_step_deg must be <="),
    ({"commander": {"standoff": _past(MAX_LENGTH)}}, "'commander': standoff must be <="),
    ({"commander": {"eps_pos": _past(MAX_LENGTH)}}, "'commander': eps_pos must be <="),
    ({"commander": {"eps_ang": _past(180.0)}}, "'commander': eps_ang must be <="),
    ({"commander": {"trigger_pos": _past(MAX_LENGTH)}}, "'commander': trigger_pos must be <="),
    ({"commander": {"trigger_ang": _past(180.0)}}, "'commander': trigger_ang must be <="),
    ({"commander": {"arrival_pos": _past(MAX_LENGTH)}}, "'commander': arrival_pos must be <="),
    ({"commander": {"arrival_ang": _past(180.0)}}, "'commander': arrival_ang must be <="),
    ({"commander": {"workspace_center": [0.0, _past(-MAX_LENGTH, -np.inf), 0.0]}},
     "'commander': workspace_center must be >="),
    ({"commander": {"workspace_radius": _past(MAX_LENGTH)}}, "'commander': workspace_radius must be <="),
    ({"camera": {**_CAMERA, "fx": _past(FOCAL_RANGE[1])}}, "'camera': fx must be <="),
    ({"camera": {**_CAMERA, "fy": _past(FOCAL_RANGE[0], 0.0)}}, "'camera': fy must be >="),
    ({"camera": {**_CAMERA, "width": MAX_IMAGE_SIDE + 1}}, "'camera': width must be <="),
    ({"camera": {**_CAMERA, "height": MAX_IMAGE_SIDE + 1}}, "'camera': height must be <="),
    ({"scene": {"generate": {"center": [_past(MAX_LENGTH), 0.0, 0.0]}}}, "'scene.generate': center must be <="),
    ({"scene": {"generate": {"spread": _past(MAX_LENGTH)}}}, "'scene.generate': spread must be <="),
    ({"scene": {"generate": {"min_sep": _past(MAX_LENGTH)}}}, "'scene.generate': min_sep must be <="),
    ({"scene": {"generate": {"max_tilt_deg": _past(180.0)}}}, "'scene.generate': max_tilt_deg must be <="),
]


def test_config_error_variants(tmp_path):
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config({"schema_version": 2, "seed": 1, "scene": {"generate": {}}})
    with pytest.raises(ConfigError, match="scene"):
        parse_config({"schema_version": 1, "seed": 1, "scene": {}})
    with pytest.raises(ConfigError, match="scene"):
        parse_config({"schema_version": 1, "seed": 1,
                      "scene": {"path": "x", "generate": {}}})
    with pytest.raises(ConfigError, match="noise"):
        parse_config({"schema_version": 1, "seed": 1, "scene": {"generate": {"count": 2}},
                      "noise": {"detect_prob": 2.0}})
    with pytest.raises(ConfigError, match="arm_count"):
        parse_config({"schema_version": 1, "seed": 1, "scene": {"generate": {"count": 2}},
                      "arm_count": 0})
    camera = _CAMERA
    for overrides, field_name in [*_JUST_PAST_A_BOUND,
        ({"noise": {"depth_sigma_near": float("nan")}}, "'noise': depth_sigma_near"),
        ({"noise": {"rot_sigma": float("inf")}}, "'noise': rot_sigma"),
        ({"commander": {"gain": 0.0}}, "'commander': gain"),
        ({"commander": {"max_step": -1.0}}, "'commander': max_step"),
        ({"commander": {"eps_pos": 0.0}}, "'commander': eps_pos"),
        ({"commander": {"servo_patience": 0}}, "'commander': servo_patience"),
        ({"commander": {"workspace_radius": -1.0}}, "'commander': workspace_radius"),
        ({"tracker": {"assoc_threshold": float("nan")}}, "'tracker': assoc_threshold"),
        ({"tracker": {"r_pos_near": -1.0}}, "'tracker': r_pos_near"),
        ({"tracker": {"r_rot": 0.0}}, "'tracker': r_rot"),
        ({"tracker": {"init_pos_cov": float("nan")}}, "'tracker': init_pos_cov"),
        ({"tracker": {"reliable_range": [0.5, 0.1]}}, "'tracker': reliable_range"),
        ({"scene": {"generate": {"center": [0, 0]}}}, "'scene.generate': center"),
        ({"scene": {"generate": {"spread": float("nan")}}}, "'scene.generate': spread"),
        ({"scene": {"generate": {"min_sep": -1.0}}}, "'scene.generate': min_sep"),
        ({"scene": {"generate": [3]}}, "'scene.generate': must be a JSON object"),
        ({"scene": {"generate": {"count": 2.5}}}, "'scene.generate': count"),
        ({"commander": {"tracker": 5}}, "'commander': tracker"),
        ({"commander": {"arm_id": 1}}, "'commander': arm_id"),
        ({"step_budget": True}, "'step_budget'"),
        ({"camera": {**camera, "width": 1280.5}}, "'camera': width"),
        ({"camera": {**camera, "fx": float("inf")}}, "'camera': fx"),
        ({"camera": {**camera, "cy": float("inf")}}, "'camera': cy"),
        # one parse rule for every section: bools are not numbers, unknown keys are refused
        ({"commander": {"gain": True}}, "'commander': gain"),
        ({"noise": {"detect_prob": True}}, "'noise': detect_prob"),
        ({"scene": {"generate": {"spread": True}}}, "'scene.generate': spread"),
        ({"camera": {**camera, "fx": True}}, "'camera': fx"),
        ({"scene": {"generate": {"sprea": 0.1}}}, "'scene.generate': sprea"),
        # the top level follows the same rule
        ({"nosie": {"clutter_rate": 0.0}}, "'nosie'"),
        ({"step_budjet": 10}, "'step_budjet'"),
        ({"scene": {"generate": {"count": 2}, "pth": "s.json"}}, "'scene.pth'"),
        ({"seed": 1.5}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"seed": "1"}, "'seed'"),
        ({"seed": -1}, "'seed': must be an integer >= 0"),
        ({"arm_count": 2.5}, "'arm_count'"),
        ({"step_budget": 0.0}, "'step_budget'"),
        ({"viewpoints_per_flower": float("inf")}, "'viewpoints_per_flower'"),
        ({"schema_version": True}, "'schema_version'"),
        ({"scene": {"path": 5}}, "'scene.path'"),
    ]:
        with pytest.raises(ConfigError, match=field_name):
            parse_config({"schema_version": 1, "seed": 1, "scene": {"generate": {"count": 2}}, **overrides})
    with pytest.raises(ConfigError, match="<file>"):
        load_config(str(tmp_path / "missing.json"))


def test_runtime_error_exit_3(tmp_path, capsys):
    # scene file with duplicate ids: parses as config, dies at run time
    scene_path = tmp_path / "scene.json"
    rot = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    with open(scene_path, "w") as fh:
        json.dump({"flowers": [
            {"id": 1, "position": [0, 0, 0], "rotation": rot},
            {"id": 1, "position": [0.2, 0, 0], "rotation": rot},
        ]}, fh)
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"path": str(scene_path)})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 3
    assert "duplicate" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("ids", [[-1], [1, 1]])
def test_scene_entry_error_exits_3_naming_the_scene_file(tmp_path, capsys, ids):
    scene_path = tmp_path / "scene.json"
    rot = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    with open(scene_path, "w") as fh:
        json.dump({"flowers": [{"id": i, "position": [0.2 * n, 0, 0], "rotation": rot} for n, i in enumerate(ids)]}, fh)
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"path": str(scene_path)})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {scene_path}: flower")


def test_scene_path_relative_to_config(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    assert main(["gen-scene", "--count", "2", "--seed", "1", "--out", str(sub / "s.json"), "--quiet"]) == 0
    cfg_path = sub / "cfg.json"
    _write_config(cfg_path, scene={"path": "s.json"}, step_budget=50)
    cfg = load_config(str(cfg_path))
    assert cfg.scene_path == str(sub / "s.json")


def test_calibrate_noiseless_targets(tmp_path, capsys):
    out = tmp_path / "noise.json"
    assert main([
        "calibrate-noise", "--trans-cm", "0", "--rot-deg", "0", "--det-rate", "1",
        "--samples", "300", "--out", str(out), "--quiet",
    ]) == 0
    with open(out) as fh:
        model = json.load(fh)
    assert model["pixel_sigma"] == 0.0
    assert model["depth_sigma_near"] == 0.0
    assert model["depth_sigma_far"] == 0.0
    assert model["rot_sigma"] == 0.0
    assert model["detect_prob"] == 1.0


def test_calibrate_all_zero_targets_fit(capsys):
    # a zero det_rate is refused only beside a nonzero error target
    assert main(["calibrate-noise", "--trans-cm", "0", "--rot-deg", "0", "--det-rate", "0", "--samples", "300"]) == 0
    model = json.loads(capsys.readouterr().out)
    assert (model["depth_sigma_near"], model["rot_sigma"]) == (0.0, 0.0)
    assert model["detect_prob"] == 0.0


@pytest.mark.parametrize("option, value", [
    ("--trans-cm", "-1"),
    ("--trans-cm", "nan"),
    ("--rot-deg", "nan"),
    ("--rot-deg", "inf"),
    ("--rot-deg", "180.00000000000003"),  # a facing error lies in [0, 180]
    ("--det-rate", "nan"),
    ("--det-rate", "1.5"),
    ("--det-rate", "0"),  # no detection leaves no error to fit
])
def test_calibrate_negative_target_rejected(capsys, option, value):
    # refused before any bisection runs, naming the target
    from pollisim.runner import calibrate_noise

    key = option[2:].replace("-", "_")
    assert main(["calibrate-noise", option, value]) == 2
    assert f"'targets.{key}'" in capsys.readouterr().err
    targets = {"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301, key: float(value)}
    with pytest.raises(ValueError, match=key):
        calibrate_noise(targets, n_samples=1)


@pytest.mark.parametrize("command", [
    ["simulate", "--config", "cfg.json", "--out", "run"],
    ["calibrate-noise"],
    ["gen-scene", "--out", "s.json"],
])
def test_negative_seed_rejected(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_calibrate_nonpositive_samples_rejected(capsys, samples):
    from pollisim.runner import calibrate_noise

    assert main(["calibrate-noise", "--samples", samples]) == 2
    assert "samples" in capsys.readouterr().err
    with pytest.raises(ValueError, match="n_samples"):
        calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301}, n_samples=int(samples))


def test_calibrate_reproducible_under_fixed_seed():
    from pollisim.runner import calibrate_noise

    a = calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301},
                        seed=5, n_samples=800)
    b = calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301},
                        seed=5, n_samples=800)
    assert a.to_json() == b.to_json()


def test_calibrate_reference_targets_resimulate_within_10pct():
    from pollisim.camera import Intrinsics
    from pollisim.runner import calibrate_noise
    from pollisim.simworld import single_shot_stats

    noise = calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301},
                            seed=2, n_samples=2500)
    stats = single_shot_stats(noise, Intrinsics.default(), 8000, np.random.default_rng([77, 7]))
    trans, rot, det = stats.mean_trans, stats.mean_rot, stats.detection_rate
    assert abs(trans - 0.0303) <= 0.10 * 0.0303
    assert abs(rot - 29.88) <= 0.10 * 29.88
    assert abs(det - 0.9301) <= 0.10 * 0.9301


def test_calibrate_unreachable_target_no_convergence():
    from pollisim.runner import NoConvergence, calibrate_noise

    # 0.1 cm mean translational error sits below the fixed pixel-noise floor
    with pytest.raises(NoConvergence):
        calibrate_noise({"trans_cm": 0.1, "rot_deg": 29.88, "det_rate": 0.9301},
                        seed=0, n_samples=300)


def test_calibrate_stops_doubling_at_the_searched_fields_bound(monkeypatch):
    from pollisim import runner

    tried = []

    def counted(noise, *args, _real=runner.single_shot_stats):
        tried.append(noise.rot_sigma)
        return _real(noise, *args)

    monkeypatch.setattr(runner, "single_shot_stats", counted)
    # no rot_sigma gives a 179-degree mean facing error: the doubling from 60
    # ends at the field's bound, not a hundred doublings later
    with pytest.raises(runner.NoConvergence, match="rot_sigma: upper bound never reaches target 179.0"):
        runner.calibrate_noise({"trans_cm": 3.03, "rot_deg": 179.0, "det_rate": 0.9301}, n_samples=300)
    doubled = [x for x in tried if x > NoiseModel().rot_sigma]
    assert doubled == [60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, MAX_ROT_SIGMA]


def test_simulate_multi_arm_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, scene={"generate": {"count": 4}}, step_budget=400)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d1), "--arms", "2", "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d2), "--arms", "2", "--quiet"]) == 0
    assert _read_all_bytes(d1) == _read_all_bytes(d2)
    with open(d1 / "report.json") as fh:
        rep = json.load(fh)
    assert rep["pollination_success_rate"] == 1.0


def test_flope_log_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLOPE_LOG", "DEBUG")
    out = tmp_path / "scene.json"
    assert main(["gen-scene", "--count", "2", "--seed", "0", "--out", str(out), "--quiet"]) == 0


def test_config_digest_stable():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    assert config_digest(a) == config_digest(b)
    c = ExperimentConfig(seed=2)
    assert config_digest(a) != config_digest(c)
    # a number means the same config however it is spelled
    for section, one, other in [
        ("commander", {"gain": 1}, {"gain": 1.0}),
        ("noise", {"clutter_rate": 0}, {"clutter_rate": 0.0}),
        ("commander", {"servo_patience": 25.0}, {"servo_patience": 25}),
        ("step_budget", 1500.0, 1500),
        ("seed", 1.0, 1),
        ("arm_count", 2, 2.0),
        ("viewpoints_per_flower", 20.0, 20),
    ]:
        x, y = (parse_config({"schema_version": 1, "seed": 1, "scene": {"generate": {}}, section: s})
                for s in (one, other))
        assert config_digest(x) == config_digest(y)
    # the resolved form reads back as the same config: the parser knows every key it writes
    z = parse_config(x.to_json())
    assert config_digest(z) == config_digest(x)
