import json
import os

import numpy as np
import pytest

from pollisim.cli import main
from pollisim.runner import (
    ConfigError,
    ExperimentConfig,
    SchemaMismatch,
    config_digest,
    evaluate_run_dir,
    load_config,
    parse_config,
)
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


def test_gen_scene_bad_count(tmp_path, capsys):
    assert main(["gen-scene", "--count", "0", "--out", str(tmp_path / "s.json")]) == 2
    assert "count" in capsys.readouterr().err


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


def test_eval_reproduces_simulate_report(tmp_path):
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


def test_eval_via_tracks_flag(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=80, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    assert main(["eval", "--tracks", str(out_dir / "tracks.csv"), "--quiet"]) == 0


def test_eval_truncated_csv_schema_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    _write_config(cfg_path, step_budget=80, scene={"generate": {"count": 1}})
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    tracks = (out_dir / "tracks.csv").read_text().splitlines()
    (out_dir / "tracks.csv").write_text("\n".join(tracks[:3] + [tracks[3][: len(tracks[3]) // 2]]) + "\n")
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
    for section, key, value in [
        ("noise", "depth_sigma_near", float("nan")),
        ("noise", "rot_sigma", float("inf")),
        ("commander", "gain", 0.0),
        ("commander", "max_step", -1.0),
        ("tracker", "assoc_threshold", float("nan")),
    ]:
        with pytest.raises(ConfigError, match=f"'{section}': {key}"):
            parse_config({"schema_version": 1, "seed": 1, "scene": {"generate": {"count": 2}},
                          section: {key: value}})
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
