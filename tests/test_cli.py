import json
import os

import numpy as np
import pytest

from pollisim.artifacts import SchemaMismatch
from pollisim.camera import Intrinsics
from pollisim.cli import main
from pollisim.config import ConfigError, ExperimentConfig, config_digest, load_config, parse_config
from pollisim.runner import evaluate_run_dir
from pollisim.simworld import NoiseModel, load_scene


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
])
def test_gen_scene_bad_count(tmp_path, capsys, option, value, field_name):
    # the options build a SceneGenParams, so they are refused as the config section is
    assert main(["gen-scene", option, value, "--out", str(tmp_path / "s.json")]) == 2
    assert field_name in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


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
    camera = Intrinsics.default().to_json()
    for overrides, field_name in [
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


def test_calibrate_negative_target_rejected(capsys):
    assert main(["calibrate-noise", "--trans-cm", "-1", "--rot-deg", "0", "--det-rate", "1"]) == 2


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
                        seed=5, n_samples=800, rel_tol=0.10)
    b = calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301},
                        seed=5, n_samples=800, rel_tol=0.10)
    assert a.to_json() == b.to_json()


def test_calibrate_reference_targets_resimulate_within_10pct():
    from pollisim.camera import Intrinsics
    from pollisim.runner import _stat_for, calibrate_noise

    noise = calibrate_noise({"trans_cm": 3.03, "rot_deg": 29.88, "det_rate": 0.9301},
                            seed=2, n_samples=2500)
    trans, rot, det = _stat_for(noise, Intrinsics.default(), 8000, seed=77)
    assert abs(trans - 0.0303) <= 0.10 * 0.0303
    assert abs(rot - 29.88) <= 0.10 * 29.88
    assert abs(det - 0.9301) <= 0.10 * 0.9301


def test_calibrate_unreachable_target_no_convergence():
    from pollisim.runner import NoConvergence, calibrate_noise

    # 0.1 cm mean translational error sits below the fixed pixel-noise floor
    with pytest.raises(NoConvergence):
        calibrate_noise({"trans_cm": 0.1, "rot_deg": 29.88, "det_rate": 0.9301},
                        seed=0, n_samples=300, max_iter=30)


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
