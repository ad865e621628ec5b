"""Timing of pollisim from outside the package.

`Tracer` replaces module attributes of `pollisim` with wrappers that count
calls and accumulate inclusive and self time, then puts the originals back.
`Timeline` wraps a few attributes only to split an untraced call into short
segments and to run a fixed speed probe at each boundary. Nothing inside
`src/pollisim` knows about either. A name is patched where it is
looked up: `runner` imports with `from ... import`, so `pollisim.runner.ingest`
and `pollisim.tracker.ingest` are different bindings of one function.

Every call only bumps aggregated counters (no per-call span list), so hot leaf
calls such as `tracker.predict` stay cheap. Self time is inclusive time minus
the inclusive time of timed calls made inside it; the part of a traced region
covered by no timed call is the residual.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, layer metric name). Two patch points may feed one
# metric when the same function is reached through two modules.
PATCHES = [
    ("pollisim.runner", "simulate_run", "runner.loop"),
    ("pollisim.runner", "evaluate_run_dir", "runner.evaluate_run_dir"),
    ("pollisim.runner", "survey_run", "runner.survey_run"),
    ("pollisim.runner", "calibrate_noise", "runner.calibrate_noise"),
    ("pollisim.runner", "ingest", "tracker.ingest"),
    ("pollisim.runner", "observe_with_truth", "simworld.observe_with_truth"),
    ("pollisim.runner", "commander_step", "commander.step"),
    ("pollisim.runner", "_apply_command", "runner.apply_command"),
    ("pollisim.runner", "_write_artifacts", "runner.write_artifacts"),
    ("pollisim.runner", "aggregate", "metrics.aggregate"),
    ("pollisim.runner", "is_rotation", "so3.is_rotation"),
    ("pollisim.runner", "single_shot_stats", "simworld.single_shot_stats"),
    ("pollisim.runner", "svd_project", "so3.svd_project"),
    ("pollisim.runner", "sample_viewpoint", "simworld.sample_viewpoint"),
    ("pollisim.tracker", "associate", "tracker.associate"),
    ("pollisim.tracker", "predict", "tracker.predict"),
    ("pollisim.tracker", "update_position", "tracker.update_position"),
    ("pollisim.tracker", "update_rotation", "tracker.update_rotation"),
    ("pollisim.tracker", "svd_project", "so3.svd_project"),
    ("pollisim.simworld", "observe_with_truth", "simworld.observe_with_truth"),
    ("pollisim.simworld", "sample_viewpoint", "simworld.sample_viewpoint"),
    ("pollisim.simworld", "look_at", "camera.look_at"),
    ("pollisim.simworld", "project", "camera.project"),
    ("pollisim.commander", "remove_track", "commander.remove_track"),
]

LAYERS = sorted({name for _, _, name in PATCHES})

# Counters filled by the hooks below, besides calls and times.
COUNTERS = [
    "tracker.associate.distance_evals",
    "tracker.associate.pairs",
    "tracker.associate.measurements",
    "tracker.tracks.peak",
    "tracker.tracks.sum_at_ingest",
    "tracker.spawned",
    "tracker.pruned",
    "commander.triggers",
    "simworld.observe_with_truth.measurements",
    "simworld.observe_with_truth.clutter",
]


def _ingest_pre(args):
    gs = args[0]
    return len(gs.tracks), gs.next_id


def _ingest_post(counts, pre, args, gs):
    n_before, next_before = pre
    spawned = gs.next_id - next_before
    counts["tracker.tracks.sum_at_ingest"] += n_before
    counts["tracker.spawned"] += spawned
    counts["tracker.pruned"] += n_before + spawned - len(gs.tracks)
    counts["tracker.tracks.peak"] = max(counts["tracker.tracks.peak"], len(gs.tracks))


def _associate_post(counts, pre, args, asg):
    ms, gs = args[0], args[1]
    counts["tracker.associate.distance_evals"] += len(ms) * len(gs.tracks)
    counts["tracker.associate.measurements"] += len(ms)
    counts["tracker.associate.pairs"] += len(asg.pairs)


def _observe_post(counts, pre, args, result):
    ms, records = result
    counts["simworld.observe_with_truth.measurements"] += len(ms)
    counts["simworld.observe_with_truth.clutter"] += sum(1 for r in records if r.flower_id < 0)


def _step_post(counts, pre, args, result):
    if type(result[0]).__name__ == "TriggerPollinate":
        counts["commander.triggers"] += 1


# attribute -> (pre(args) -> token, post(counts, token, args, result)).
# Hooks run outside the timed interval of the call they inspect.
HOOKS = {
    "ingest": (_ingest_pre, _ingest_post),
    "associate": (None, _associate_post),
    "observe_with_truth": (None, _observe_post),
    "commander_step": (None, _step_post),
}


@contextmanager
def patched(wrappers: dict[str, object]):
    """Bind each "module.attr" to wrap(original) for the block; always restore."""
    saved = []
    try:
        for point, wrap in wrappers.items():
            mod_name, attr = point.rsplit(".", 1)
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, wrap(orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


_PROBE_R = np.eye(3)
_PROBE_V = np.ones(3)


def probe() -> float:
    """Fixed reference work in the style of pollisim's hot paths (small
    NumPy products and norms driven from Python), about 0.15 ms here. It
    never changes with the program, so its timing measures the host."""
    m = _PROBE_R
    acc = 0.0
    for _ in range(40):
        m = m @ _PROBE_R
        acc += float(np.linalg.norm(_PROBE_V - m[0]))
    return acc


class Timeline:
    """Splits an untraced call into segments at calls of the marked
    attributes and times the speed probe at every boundary.

    `marks` maps "module.attr" to the label of the segment that the call
    opens. Each segment runs from one boundary to the next, probe excluded;
    the first one ("start") runs from the block start to the first mark.
    """

    def __init__(self, marks: dict[str, str]) -> None:
        self.marks = marks
        self.seg_s: list[float] = []
        self.labels: list[str] = []
        self.probe_s: list[float] = []

    @contextmanager
    def installed(self):
        clock = time.perf_counter
        current = {"label": "start", "t": 0.0}

        def boundary(label: str) -> None:
            now = clock()
            self.seg_s.append(now - current["t"])
            self.labels.append(current["label"])
            probe()
            after = clock()
            self.probe_s.append(after - now)
            current["label"] = label
            current["t"] = after

        def marker(label):
            def wrap(fn):
                def marked(*args, **kwargs):
                    boundary(label)
                    return fn(*args, **kwargs)

                marked.__wrapped__ = fn
                return marked

            return wrap

        with patched({point: marker(label) for point, label in self.marks.items()}):
            current["t"] = clock()
            try:
                yield self
            finally:
                boundary("end")


class Tracer:
    """Aggregated call counts, inclusive and self seconds per layer name."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.fired: dict[str, int] = {}
        self.residual_s = 0.0
        self.wall_s = 0.0
        # One child-time accumulator per open timed call; [0] is the region.
        self._stack = [0.0]

    def _wrap(self, fn, name: str, point: str, attr: str):
        st = self.stats[name]
        fired = self.fired
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        pre, post = HOOKS.get(attr, (None, None))

        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                fired[point] += 1
            if post is not None:
                post(counts, token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block and time
        the block itself as the traced region."""
        wrappers = {}
        for mod_name, attr, name in PATCHES:
            point = f"{mod_name}.{attr}"
            self.fired.setdefault(point, 0)
            wrappers[point] = functools.partial(self._wrap, name=name, point=point, attr=attr)
        with patched(wrappers):
            self._stack[:] = [0.0]
            t0 = time.perf_counter()
            try:
                yield self
            finally:
                wall = time.perf_counter() - t0
                self.wall_s += wall
                self.residual_s += wall - self._stack[0]

    def self_total_s(self) -> float:
        return sum(st[2] for st in self.stats.values())


def patched_attributes() -> dict[str, object]:
    """Current binding of every patch point, for checking restoration."""
    return {
        f"{mod_name}.{attr}": getattr(importlib.import_module(mod_name), attr)
        for mod_name, attr, _ in PATCHES
    }
