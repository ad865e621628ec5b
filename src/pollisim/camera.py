"""Pinhole camera model: intrinsics, projection of world points to pixels plus
ray depth, and the inverse uplift of pixel + ray depth back to 3D.

Depth is measured along the viewing ray, not along the camera z-axis, so the
uplift normalizes the back-projected ray direction before scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfields import check_fields, fields_to_json
from .so3 import Pose, aligning_rotation, dots, is_rotation, vnorm

# A camera pose is a rigid pose of the camera in the world frame: columns of
# rotation are the camera axes (x right, y down, z forward / viewing).
CameraPose = Pose


class NonPositiveDepth(ValueError):
    """Ray depth must be strictly positive."""


# The largest image side, in pixels, and the range of a focal length.
MAX_IMAGE_SIDE = 100_000
FOCAL_RANGE = (1e-3, 1e8)


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels.

    `width` and `height` are at most MAX_IMAGE_SIDE (1e5), several times the
    side of the largest camera sensors. `fx` and `fy` lie in FOCAL_RANGE,
    [1e-3, 1e8]: at 1e8 the widest image spans 0.06 degrees, and at 1e-3 it
    spans the pinhole's 180-degree limit to within 3e-6 degrees. With these
    bounds and those of `NoiseModel`, a pixel offset divided by the focal
    length stays below 1e10, so the uplift's squares cannot overflow.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        check_fields(
            self,
            counts=(("width", 1), ("height", 1)),
            ranges=(
                ("fx", *FOCAL_RANGE), ("fy", *FOCAL_RANGE),
                ("width", 1, MAX_IMAGE_SIDE), ("height", 1, MAX_IMAGE_SIDE),
            ),
        )
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @classmethod
    def default(cls) -> "Intrinsics":
        # Declared test camera for a 1280x720 image; not measured hardware data.
        return cls(fx=640.0, fy=640.0, cx=640.0, cy=360.0, width=1280, height=720)

    def to_json(self) -> dict:
        return fields_to_json(self)


@dataclass(eq=False)
class PixelObs:
    """One pixel observation: real-valued image coordinates and ray depth (m)."""

    u: float
    v: float
    ray_depth: float


def uplift(obs: PixelObs, k: Intrinsics) -> np.ndarray:
    """Camera-frame 3D point for a pixel observation: depth * Kinv(u) / |Kinv(u)|.

    The output norm equals obs.ray_depth exactly.
    """
    if not (obs.ray_depth > 0):
        raise NonPositiveDepth(f"ray_depth must be > 0, got {obs.ray_depth}")
    d, rx, ry = obs.ray_depth, (obs.u - k.cx) / k.fx, (obs.v - k.cy) / k.fy
    ray = np.array([rx, ry, 1.0])
    n = vnorm(ray)
    return np.array([d * rx / n, d * ry / n, d * 1.0 / n])


def to_world(x_cam: np.ndarray, cam: CameraPose) -> np.ndarray:
    """Transform a camera-frame point into the world frame."""
    return cam.rotation @ np.asarray(x_cam, dtype=float) + cam.position


def project(x_world: np.ndarray, cam: CameraPose, k: Intrinsics) -> PixelObs | None | list[PixelObs | None]:
    """Project a world point; None when not visible. An (n, 3) stack of
    points gives a list of n such results, one per row.

    Not visible means behind the camera (z <= 0) or outside the image bounds
    [0, width) x [0, height). Visibility is a normal outcome, not an error.

    Each row of a stack gets the bits of projecting it alone: the camera
    frame by one stacked matmul (the same matrix-vector product per row), u
    and v elementwise, the ray depth by `dots`. A stack's fixed cost is
    about that of five single points, so it pays from about eight points on.
    """
    x_world = np.asarray(x_world, dtype=float)
    if x_world.ndim == 2:
        x_cam = (cam.rotation.T @ (x_world - cam.position)[:, :, None])[:, :, 0]
        x, y, z = x_cam.T
        front = z > 0
        z = np.where(front, z, 1.0)  # a single point divides only by z > 0
        u = k.fx * x / z + k.cx
        v = k.fy * y / z + k.cy
        seen = np.flatnonzero(front & (0 <= u) & (u < k.width) & (0 <= v) & (v < k.height))
        out: list[PixelObs | None] = [None] * len(x_cam)
        ray = x_cam[seen]
        for i, ui, vi, di in zip(seen.tolist(), u[seen].tolist(), v[seen].tolist(), np.sqrt(dots(ray, ray)).tolist()):
            out[i] = PixelObs(ui, vi, di)
        return out
    x_cam = cam.rotation.T @ (x_world - cam.position)
    x, y, z = x_cam.tolist()
    if z <= 0:
        return None
    u = k.fx * x / z + k.cx
    v = k.fy * y / z + k.cy
    if not (0 <= u < k.width and 0 <= v < k.height):
        return None
    return PixelObs(u=float(u), v=float(v), ray_depth=vnorm(x_cam))


def look_at(position: np.ndarray, target: np.ndarray) -> CameraPose:
    """Camera pose at `position` viewing `target`, image up regularized to world z.

    Falls back to the world x-axis as the up reference when the viewing
    direction is within about 1e-6 rad of world z. Closer than that, `down`
    keeps too few correct digits after cancellation to give a `y` orthogonal
    to `z` within the 1e-8 rotation check.
    """
    position = np.asarray(position, dtype=float)
    fwd = np.asarray(target, dtype=float) - position
    n = vnorm(fwd)
    if n <= 1e-12:
        raise ValueError("camera position coincides with the look-at target")
    z = fwd / n
    z0, z1, z2 = z.tolist()
    # -(EZ - (EZ @ z) * z) and -(EX - z0 * z), entry by entry. For a finite z,
    # EZ @ z adds two exact zeros to z2, so it is z2 up to the sign of a zero,
    # which down drops; a z with a NaN entry fails the rotation check either
    # way. z is a unit vector, zero (n inf) or holds a NaN, so none of this
    # overflows and dn is never 0.
    down = [-(0.0 - z2 * z0), -(0.0 - z2 * z1), -(1.0 - z2 * z2)]
    dn = vnorm(np.array(down))
    if dn <= 1e-6:
        down = [-(1.0 - z0 * z0), -(0.0 - z0 * z1), -(0.0 - z0 * z2)]
        dn = vnorm(np.array(down))
    y0, y1, y2 = down[0] / dn, down[1] / dn, down[2] / dn
    # columns x = cross3(y, z), y, z
    axes = np.array([
        [y1 * z2 - y2 * z1, y0, z0],
        [y2 * z0 - y0 * z2, y1, z1],
        [y0 * z1 - y1 * z0, y2, z2],
    ])
    if not is_rotation(axes, 1e-8):
        raise ValueError("matrix is not a rotation: R^T R != I or det != +1")
    return Pose(position, axes)


def aim_pose(position: np.ndarray, target: np.ndarray) -> Pose:
    """Pose at `position` with its z-axis along position->target (shortest arc).

    Convenience for pointing a tool or eye-in-hand camera; unlike look_at it
    does not constrain the image roll.
    """
    position = np.asarray(position, dtype=float)
    d = np.asarray(target, dtype=float) - position
    n = vnorm(d)
    if n <= 1e-12:
        raise ValueError("aim target coincides with position")
    return Pose(position, aligning_rotation(d / n))
