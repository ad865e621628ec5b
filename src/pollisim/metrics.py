"""Evaluation: pose and detection error computation, success thresholds, DICE
overlap, pollination rates, and aggregation of run logs into a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configfields import fields_to_json
from .simworld import DETECT_SUCCESS_PX, FlowerGT
from .so3 import Pose, zaxis_angle
from .tracker import Track, greedy_pairs

# Pose success thresholds (boundaries inclusive); DETECT_SUCCESS_PX is the
# detection one.
TRANS_SUCCESS_M = 0.08
ROT_SUCCESS_DEG = 60.0


class DimensionMismatch(ValueError):
    """Mask dimensions differ."""


class InvalidCounts(ValueError):
    """Pollination counts violate succeeded <= attempted <= reachable."""


class EmptyRun(ValueError):
    """Run logs contain nothing to aggregate."""


@dataclass(frozen=True)
class PoseError:
    """Translational error in meters and facing-axis error in degrees."""

    trans_err: float
    rot_err: float


def pose_error(est: Pose, gt: Pose) -> PoseError:
    """Euclidean position error plus the angle between facing directions.

    The rotational part uses only the z-columns, so it is invariant to twist
    about the flower axis.
    """
    return PoseError(
        trans_err=float(np.linalg.norm(est.position - gt.position)),
        rot_err=zaxis_angle(est.rotation, gt.rotation),
    )


def pose_success(e: PoseError) -> bool:
    """True iff both errors are within their thresholds (boundaries inclusive)."""
    return e.trans_err <= TRANS_SUCCESS_M and e.rot_err <= ROT_SUCCESS_DEG


def detection_success(err_px: float) -> bool:
    """True iff the detection pixel error is within DETECT_SUCCESS_PX (inclusive)."""
    if err_px < 0:
        raise ValueError("pixel error must be >= 0")
    return err_px <= DETECT_SUCCESS_PX


@dataclass(eq=False)
class BinaryMask:
    """Boolean segmentation mask with explicit dimensions."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.height, self.width):
            raise ValueError(
                f"bits shape {self.bits.shape} does not match (height, width)=({self.height}, {self.width})"
            )


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """DICE overlap 2|A&B| / (|A|+|B|); 1.0 when both masks are empty."""
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatch(
            f"mask dimensions differ: {(a.width, a.height)} vs {(b.width, b.height)}"
        )
    inter = int(np.logical_and(a.bits, b.bits).sum())
    total = int(a.bits.sum()) + int(b.bits.sum())
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def pollination_rates(attempted: int, succeeded: int, reachable: int) -> tuple[float, float]:
    """(attempt_rate, success_rate) = (attempted/reachable, succeeded/attempted).

    success_rate is 0 when nothing was attempted.
    """
    if reachable <= 0:
        raise InvalidCounts("reachable must be > 0")
    if not (0 <= succeeded <= attempted <= reachable):
        raise InvalidCounts(
            f"counts must satisfy 0 <= succeeded({succeeded}) <= attempted({attempted}) <= reachable({reachable})"
        )
    attempt_rate = attempted / reachable
    success_rate = succeeded / attempted if attempted else 0.0
    return attempt_rate, success_rate


@dataclass(eq=False)
class AttemptRecord:
    """One pollination trigger: which track fired at which flower, and outcome."""

    tick: int
    arm_id: int
    track_id: int
    flower_id: int
    success: bool


@dataclass(eq=False)
class RunLogs:
    """Everything aggregate() needs from one completed run."""

    scene: list[FlowerGT]
    final_tracks: list[Track]
    n_ticks: int
    shot_opportunities: int = 0
    shot_px_errors: list[float] = field(default_factory=list)
    attempts: list[AttemptRecord] = field(default_factory=list)
    reachable_ids: list[int] = field(default_factory=list)
    seed: int = 0
    config_digest: str = ""


def reachable_flowers(scene: list[FlowerGT], center: np.ndarray, radius: float) -> list[int]:
    center = np.asarray(center, dtype=float)
    return [f.id for f in scene if float(np.linalg.norm(f.pose.position - center)) <= radius]


def shot_detections(triples) -> tuple[int, list[float]]:
    """Shot opportunities (clutter excluded) and the pixel errors of the
    detected shots, from (flower_id, detected, px_err) triples."""
    opportunities = 0
    px_errors: list[float] = []
    for flower_id, detected, px_err in triples:
        if flower_id >= 0:
            opportunities += 1
            if detected:
                px_errors.append(px_err)
    return opportunities, px_errors


@dataclass(eq=False)
class RunReport:
    """Aggregated run metrics for one simulation or evaluation pass."""

    seed: int
    config_digest: str
    n_flowers: int
    n_reachable: int
    n_views: int
    n_tracks: int
    n_matched: int
    n_detections: int
    n_attempted: int
    n_succeeded: int
    mean_trans_err_m: float
    median_trans_err_m: float
    mean_rot_err_deg: float
    median_rot_err_deg: float
    detection_err_px: float
    detection_success_rate: float
    pose_success_rate: float
    attempt_rate: float
    pollination_success_rate: float

    def to_json(self) -> dict:
        return fields_to_json(self)


def match_tracks_to_flowers(tracks: list[Track], flowers: list[FlowerGT]) -> dict[int, int]:
    """Greedy nearest matching flower_id -> track_id within TRANS_SUCCESS_M.

    Same greedy pass as the online association, applied between filtered
    tracks and ground truth for scoring; ties break on lower flower id, then
    lower track id.
    """
    return dict(greedy_pairs(
        [(f.id, f.pose.position) for f in flowers], [(t.id, t.pos_mean) for t in tracks], TRANS_SUCCESS_M
    ))


def aggregate(logs: RunLogs) -> RunReport:
    """Deterministic aggregation of run logs into a RunReport.

    Pose error means are computed over all matched flowers; unmatched
    ground-truth flowers count against the success rate but not against the
    means. Attempt accounting is per distinct reachable flower.
    """
    if not logs.scene:
        raise EmptyRun("run has no ground-truth flowers")
    if logs.n_ticks <= 0:
        raise EmptyRun("run executed no ticks")

    by_id = {t.id: t for t in logs.final_tracks}
    flowers = sorted(logs.scene, key=lambda f: f.id)
    matches = match_tracks_to_flowers(logs.final_tracks, flowers)
    errors: list[PoseError] = []
    n_success = 0
    for f in flowers:
        tid = matches.get(f.id)
        if tid is None:
            continue
        t = by_id[tid]
        e = pose_error(Pose(t.pos_mean, t.rot_mean), f.pose)
        errors.append(e)
        if pose_success(e):
            n_success += 1

    trans = [e.trans_err for e in errors]
    rots = [e.rot_err for e in errors]
    reachable = set(logs.reachable_ids)
    attempted_ids = {a.flower_id for a in logs.attempts if a.flower_id in reachable}
    succeeded_ids = {a.flower_id for a in logs.attempts if a.success and a.flower_id in reachable}
    if reachable:
        attempt_rate, success_rate = pollination_rates(
            len(attempted_ids), len(succeeded_ids), len(reachable)
        )
    else:
        attempt_rate, success_rate = 0.0, 0.0

    det_errs = logs.shot_px_errors
    n_det_ok = sum(1 for e in det_errs if detection_success(e))
    return RunReport(
        seed=logs.seed,
        config_digest=logs.config_digest,
        n_flowers=len(flowers),
        n_reachable=len(reachable),
        n_views=logs.n_ticks,
        n_tracks=len(logs.final_tracks),
        n_matched=len(matches),
        n_detections=len(det_errs),
        n_attempted=len(attempted_ids),
        n_succeeded=len(succeeded_ids),
        mean_trans_err_m=float(np.mean(trans)) if trans else float("nan"),
        median_trans_err_m=float(np.median(trans)) if trans else float("nan"),
        mean_rot_err_deg=float(np.mean(rots)) if rots else float("nan"),
        median_rot_err_deg=float(np.median(rots)) if rots else float("nan"),
        detection_err_px=float(np.mean(det_errs)) if det_errs else float("nan"),
        detection_success_rate=(n_det_ok / logs.shot_opportunities) if logs.shot_opportunities else float("nan"),
        pose_success_rate=n_success / len(flowers),
        attempt_rate=attempt_rate,
        pollination_success_rate=success_rate,
    )


REPORT_CSV_HEADER = (
    "seed,n_flowers,n_views,mean_trans_cm,mean_rot_deg,det_err_px,det_rate,"
    "pose_rate,attempt_rate,success_rate"
)


def _pct(x: float) -> str:
    return "nan" if math.isnan(x) else f"{100.0 * x:.2f}"


def report_csv_row(r: RunReport) -> str:
    """One CSV row matching REPORT_CSV_HEADER; percentages at 2 decimals."""
    mean_cm = r.mean_trans_err_m * 100.0
    fields = [
        str(r.seed),
        str(r.n_flowers),
        str(r.n_views),
        "nan" if math.isnan(mean_cm) else f"{mean_cm:.4f}",
        "nan" if math.isnan(r.mean_rot_err_deg) else f"{r.mean_rot_err_deg:.4f}",
        "nan" if math.isnan(r.detection_err_px) else f"{r.detection_err_px:.4f}",
        _pct(r.detection_success_rate),
        _pct(r.pose_success_rate),
        _pct(r.attempt_rate),
        _pct(r.pollination_success_rate),
    ]
    return ",".join(fields)


def summary_table(r: RunReport) -> str:
    """Human-readable detection / pose / pollination metric table."""
    def fmt(x: float, unit: str = "") -> str:
        return "n/a" if math.isnan(x) else f"{x:.2f}{unit}"

    lines = [
        f"Run summary (seed {r.seed}, {r.n_flowers} flowers, {r.n_views} ticks)",
        "-" * 56,
        f"{'Detection Error (pixels)':38s} {fmt(r.detection_err_px)}",
        f"{'Detection Success Rate (%)':38s} {fmt(100 * r.detection_success_rate)}",
        f"{'Translational Error (cm)':38s} {fmt(100 * r.mean_trans_err_m)}",
        f"{'Rotational Error (degrees)':38s} {fmt(r.mean_rot_err_deg)}",
        f"{'Pose Success Rate (%)':38s} {fmt(100 * r.pose_success_rate)}",
        f"{'Attempt Rate (%)':38s} {fmt(100 * r.attempt_rate)}",
        f"{'Pollination Success Rate (%)':38s} {fmt(100 * r.pollination_success_rate)}",
        "-" * 56,
        f"attempted {r.n_attempted} / reachable {r.n_reachable}; succeeded {r.n_succeeded}",
    ]
    return "\n".join(lines) + "\n"
