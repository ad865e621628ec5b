"""Pinhole camera model: intrinsics, projection of world points to pixels plus
ray depth, and the inverse uplift of pixel + ray depth back to 3D.

Depth is measured along the viewing ray, not along the camera z-axis, so the
uplift normalizes the back-projected ray direction before scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configfields import fields_to_json
from .so3 import EX, EZ, Pose, aligning_rotation, cross3, require_rotation, vnorm

# A camera pose is a rigid pose of the camera in the world frame: columns of
# rotation are the camera axes (x right, y down, z forward / viewing).
CameraPose = Pose


class NonPositiveDepth(ValueError):
    """Ray depth must be strictly positive."""


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
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
    ray = np.array([(obs.u - k.cx) / k.fx, (obs.v - k.cy) / k.fy, 1.0])
    return obs.ray_depth * ray / vnorm(ray)


def to_world(x_cam: np.ndarray, cam: CameraPose) -> np.ndarray:
    """Transform a camera-frame point into the world frame."""
    return cam.rotation @ np.asarray(x_cam, dtype=float) + cam.position


def project(x_world: np.ndarray, cam: CameraPose, k: Intrinsics) -> PixelObs | None:
    """Project a world point; None when not visible.

    Not visible means behind the camera (z <= 0) or outside the image bounds
    [0, width) x [0, height). Visibility is a normal outcome, not an error.
    """
    x_cam = cam.rotation.T @ (np.asarray(x_world, dtype=float) - cam.position)
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
    to `z` within require_rotation's 1e-8.
    """
    position = np.asarray(position, dtype=float)
    fwd = np.asarray(target, dtype=float) - position
    n = vnorm(fwd)
    if n <= 1e-12:
        raise ValueError("camera position coincides with the look-at target")
    z = fwd / n
    down = -(EZ - (EZ @ z) * z)
    dn = vnorm(down)
    if dn <= 1e-6:
        down = -(EX - z[0] * z)
        dn = vnorm(down)
    y = down / dn
    # columns x, y, z, in C order like np.column_stack
    axes = np.array([cross3(y, z), y, z]).T.copy()
    return Pose(position, require_rotation(axes, tol=1e-8))


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
