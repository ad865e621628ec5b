"""Rules about the package source that no behaviour test shows: no module
keeps state between calls through `global` or `nonlocal`, none turns a
floating-point flag into a second route, the tracker's clock moves in one
place, only the oracle's draw pass draws, and the control path calls no
numpy wrapper that so3 replaces."""

import ast
import os

import pollisim

PACKAGE = os.path.dirname(os.path.abspath(pollisim.__file__))


def _modules() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    return trees


def test_no_module_rebinds_a_name_outside_its_scope():
    trees = _modules()
    assert "tracker.py" in trees and "runner.py" in trees
    found = [
        f"{name}:{node.lineno}: {type(node).__name__.lower()} {', '.join(node.names)}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []


def test_no_module_reroutes_on_a_floating_point_flag():
    # Bounded inputs keep every computation on one route: nothing raises a
    # flag as FloatingPointError to catch it and compute another way.
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ExceptHandler) and node.type is not None
                and "FloatingPointError" in ast.unparse(node.type)
            ):
                found.append(f"{name}:{node.lineno}: except {ast.unparse(node.type)}")
            if (
                isinstance(node, ast.Call) and ast.unparse(node.func).endswith("errstate")
                and any(isinstance(kw.value, ast.Constant) and kw.value.value == "raise" for kw in node.keywords)
            ):
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_only_predict_moves_the_tracker_clock():
    writers = sorted(
        f"{name}:{fn.name}"
        for name, tree in _modules().items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute) and target.attr == "tick"
    )
    assert writers == ["tracker.py:predict"]


def test_the_oracle_arithmetic_pass_takes_no_generator():
    # Its draws are taken before it runs, so it has no generator to draw from.
    arithmetic = {"_detection", "_held_detections", "_batched_detections", "_detection_errors"}
    found = {
        fn.name: [ast.unparse(a) for a in fn.args.args + fn.args.kwonlyargs]
        for fn in ast.walk(_modules()["simworld.py"])
        if isinstance(fn, ast.FunctionDef) and fn.name in arithmetic
    }
    assert set(found) == arithmetic
    drawing = [f"{name}({a})" for name, args in sorted(found.items()) for a in args if "rng" in a or "Generator" in a]
    assert drawing == []


def test_the_control_path_calls_no_norm_or_clip_wrapper():
    # so3.vnorm and min(max(x, -1.0), 1.0) give the same bits as
    # np.linalg.norm of a 3-vector and a scalar np.clip, without the
    # wrappers' per-call cost (tests/test_control_path.py holds them to it).
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node.func)}"
        for name, tree in _modules().items()
        if name in ("commander.py", "runner.py", "metrics.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.linalg.norm", "np.clip")
    ]
    assert found == []
