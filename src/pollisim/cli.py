"""Command-line experiment runner.

Subcommands: simulate, calibrate-noise, eval, gen-scene. Exit codes: 0 ok,
2 config error (message names the offending field), 3 runtime error. The
FLOPE_LOG environment variable sets the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .config import ConfigError, config_digest, load_config
from .metrics import REPORT_CSV_HEADER, report_csv_row, summary_table
from .runner import NoConvergence, calibrate_noise, evaluate_run_dir, simulate_run
from .simworld import SceneGenParams, generate_scene, save_scene

log = logging.getLogger("pollisim")

# Every error type the package raises is one of these three.
_RUNTIME_ERRORS = (ValueError, NoConvergence, OSError)


def _setup_logging() -> None:
    level_name = os.environ.get("FLOPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.arms is not None:
            if args.arms < 1:
                raise ConfigError("arm_count", "must be >= 1")
            cfg.arm_count = args.arms
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = simulate_run(cfg, out_dir=args.out)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(summary_table(report), end="")
        print(f"config digest: {config_digest(cfg)}")
        print(f"artifacts written to {args.out}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    targets = {"trans_cm": args.trans_cm, "rot_deg": args.rot_deg, "det_rate": args.det_rate}
    if any(v < 0 for v in targets.values()):
        print("error: config field 'targets': values must be >= 0", file=sys.stderr)
        return 2
    if args.samples < 1:
        print("error: config field 'samples': must be >= 1", file=sys.stderr)
        return 2
    try:
        noise = calibrate_noise(targets, seed=args.seed, n_samples=args.samples)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = json.dumps(noise.to_json(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if not args.quiet:
        print(payload, end="")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    try:
        report = evaluate_run_dir(args.out_dir, scene_path=args.scene)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(REPORT_CSV_HEADER)
        print(report_csv_row(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_gen_scene(args: argparse.Namespace) -> int:
    try:
        params = SceneGenParams(args.count, args.center, args.spread, args.min_sep, args.max_tilt_deg)
    except ValueError as exc:
        print(f"error: {ConfigError('scene.generate', str(exc))}", file=sys.stderr)
        return 2
    try:
        scene = generate_scene(np.random.default_rng([args.seed, 0]), params)
        save_scene(args.out, scene)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(f"wrote {len(scene)} flowers to {args.out}")
    return 0


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pollisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the full pollination loop")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--out", required=True, help="output directory for run artifacts")
    p_sim.add_argument("--arms", type=int, default=None, help="override the config arm count")
    p_sim.add_argument("--quiet", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cal = sub.add_parser("calibrate-noise", help="fit the noise model to single-shot targets")
    p_cal.add_argument("--trans-cm", type=float, default=3.03, help="target mean translational error (cm)")
    p_cal.add_argument("--rot-deg", type=float, default=29.88, help="target mean facing-axis error (deg)")
    p_cal.add_argument("--det-rate", type=float, default=0.9301, help="target detection success rate")
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--samples", type=int, default=10000)
    p_cal.add_argument("--out", default=None, help="write the NoiseModel JSON here")
    p_cal.add_argument("--quiet", action="store_true")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_eval = sub.add_parser("eval", help="recompute a report from run artifacts")
    p_eval.add_argument("--out-dir", required=True, help="run directory written by simulate")
    p_eval.add_argument("--scene", default=None, help="scene JSON (defaults to the run's scene.json)")
    p_eval.add_argument("--report", default=None, help="write the recomputed report JSON here")
    p_eval.add_argument("--quiet", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    gen = SceneGenParams()
    p_gen = sub.add_parser("gen-scene", help="emit a random scene JSON")
    p_gen.add_argument("--count", type=int, default=gen.count)
    p_gen.add_argument("--center", type=_floats, default=gen.center, help="x,y,z")
    p_gen.add_argument("--spread", type=float, default=gen.spread)
    p_gen.add_argument("--min-sep", type=float, default=gen.min_sep)
    p_gen.add_argument("--max-tilt-deg", type=float, default=gen.max_tilt_deg)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--quiet", action="store_true")
    p_gen.set_defaults(func=_cmd_gen_scene)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
