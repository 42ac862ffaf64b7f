"""Rigid-body math: quaternions, SE(3) poses, pinhole projection, point-set alignment.

Conventions used throughout the package:

- Quaternions use the Hamilton convention and are stored scalar-first
  (w, x, y, z). The canonical representative of a rotation has w >= 0.
- Poses are camera-to-world unless a function documents otherwise;
  ``compose(a, b)`` is the transform that maps ``x`` to ``a(b(x))``.
- Translations are in millimeters, angles in radians, axes right-handed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# |norm^2 - 1| below this is treated as already unit and left untouched,
# which keeps text round trips bit-exact while staying well inside the
# 1e-9 unit-norm invariant.
_RENORM_EPS = 1e-12
# |dot| above 1 - this falls back to normalized lerp (tiny-angle regime).
_SLERP_PARALLEL_EPS = 1e-10
# Largest image width or height, px. CameraIntrinsics and the depth
# evaluation size enforce it, so a size from a calibration file or the
# command line is rejected before any array of that size is allocated.
MAX_IMAGE_SIDE = 2**15


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        w = float(self.w)
        x = float(self.x)
        y = float(self.y)
        z = float(self.z)
        n2 = w * w + x * x + y * y + z * z
        if not math.isfinite(n2) or n2 == 0.0:
            raise ValidationError(f"quaternion not normalizable: ({w}, {x}, {y}, {z})")
        if abs(n2 - 1.0) >= _RENORM_EPS:
            inv = 1.0 / math.sqrt(n2)
            w *= inv
            x *= inv
            y *= inv
            z *= inv
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Quaternion":
        a = np.asarray(axis, dtype=np.float64)
        n = float(np.linalg.norm(a))
        if n == 0.0:
            raise ValidationError("rotation axis must be nonzero")
        half = 0.5 * float(angle)
        s = math.sin(half) / n
        return Quaternion(math.cos(half), a[0] * s, a[1] * s, a[2] * s)

    @staticmethod
    def from_rotation_vector(vec) -> "Quaternion":
        """Exponential map: ``vec`` is axis * angle."""
        v = np.asarray(vec, dtype=np.float64)
        angle = float(np.linalg.norm(v))
        if angle == 0.0:
            return Quaternion.identity()
        return Quaternion.from_axis_angle(v, angle)

    @staticmethod
    def from_rotation_matrix(matrix) -> "Quaternion":
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValidationError(f"rotation matrix must be 3x3, got {m.shape}")
        t = m[0, 0] + m[1, 1] + m[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            return Quaternion(
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            )
        if m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            return Quaternion(
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            )
        if m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            return Quaternion(
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            )
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        return Quaternion(
            (m[1, 0] - m[0, 1]) / s,
            (m[0, 2] + m[2, 0]) / s,
            (m[1, 2] + m[2, 1]) / s,
            0.25 * s,
        )

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def dot(self, other: "Quaternion") -> float:
        return (
            self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z
        )

    def multiply(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def rotate(self, vectors):
        """Rotate one 3-vector or an (..., 3) stack of vectors."""
        v = np.asarray(vectors, dtype=np.float64)
        u = np.array([self.x, self.y, self.z])
        t = 2.0 * np.cross(u, v)
        return v + self.w * t + np.cross(u, t)

    def to_rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
                [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
                [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
            ]
        )

    def angle(self) -> float:
        """Rotation angle in [0, pi]."""
        s = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        return 2.0 * math.atan2(s, abs(self.w))

    def angle_to(self, other: "Quaternion") -> float:
        return self.conjugate().multiply(other).angle()


def slerp(q0: Quaternion, q1: Quaternion, t: float) -> Quaternion:
    """Shortest-arc spherical interpolation at constant angular velocity."""
    d = q0.dot(q1)
    w1, x1, y1, z1 = q1.w, q1.x, q1.y, q1.z
    if d < 0.0:
        d = -d
        w1, x1, y1, z1 = -w1, -x1, -y1, -z1
    if d > 1.0 - _SLERP_PARALLEL_EPS:
        # near-parallel: nlerp, renormalized by the constructor
        a = 1.0 - t
        b = t
    else:
        theta = math.acos(min(d, 1.0))
        s = math.sin(theta)
        a = math.sin((1.0 - t) * theta) / s
        b = math.sin(t * theta) / s
    return Quaternion(
        a * q0.w + b * w1,
        a * q0.x + b * x1,
        a * q0.y + b * y1,
        a * q0.z + b * z1,
    )


def vec3(value, what: str) -> np.ndarray:
    """``value`` as a read-only, finite float64 3-vector; ``what`` names it
    in the error message."""
    t = np.array(value, dtype=np.float64)
    if t.shape != (3,):
        raise ValidationError(f"{what} must be a 3-vector, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValidationError(f"{what} must be finite")
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class Pose:
    rotation: Quaternion
    translation: np.ndarray = field(default=None)

    def __post_init__(self):
        t = self.translation if self.translation is not None else (0.0, 0.0, 0.0)
        object.__setattr__(self, "translation", vec3(t, "translation"))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Quaternion.identity(), np.zeros(3))

    def transform(self, points):
        return self.rotation.rotate(points) + self.translation

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return self.rotation == other.rotation and bool(
            np.all(self.translation == other.translation)
        )


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation.multiply(b.rotation), a.rotation.rotate(b.translation) + a.translation)


def inverse(p: Pose) -> Pose:
    qi = p.rotation.conjugate()
    return Pose(qi, -qi.rotate(p.translation))


def pose_interp(error: Pose, t: float) -> Pose:
    """Fraction ``t`` of the transform ``error``: slerp on rotation, linear on translation."""
    return Pose(slerp(Quaternion.identity(), error.rotation, t), t * error.translation)


def pose_distance(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation angle rad, translation norm mm) between two poses."""
    return (
        a.rotation.angle_to(b.rotation),
        float(np.linalg.norm(a.translation - b.translation)),
    )


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValidationError(
                f"focal lengths must be positive and finite: fx={self.fx} fy={self.fy}"
            )
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (self.width, self.height)):
            raise ValidationError("width/height must be integers")
        if not (0 < self.width <= MAX_IMAGE_SIDE and 0 < self.height <= MAX_IMAGE_SIDE):
            raise ValidationError(
                f"image size must be 1..{MAX_IMAGE_SIDE} px per side: {self.width}x{self.height}"
            )
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValidationError(
                f"principal point ({self.cx}, {self.cy}) outside {self.width}x{self.height}"
            )


def project(points, intrinsics: CameraIntrinsics):
    """Pinhole projection of (..., 3) camera-frame points to (..., 2) pixels.

    Raises when any point has z <= 0; use :func:`project_with_mask` for
    per-pixel handling.
    """
    uv, valid = project_with_mask(points, intrinsics)
    if not np.all(valid):
        raise ValidationError("cannot project points with non-positive depth")
    return uv


def project_with_mask(points, intrinsics: CameraIntrinsics):
    p = np.asarray(points, dtype=np.float64)
    z = p[..., 2]
    valid = z > 0
    z_safe = np.where(valid, z, 1.0)
    u = intrinsics.fx * p[..., 0] / z_safe + intrinsics.cx
    v = intrinsics.fy * p[..., 1] / z_safe + intrinsics.cy
    uv = np.stack([np.where(valid, u, 0.0), np.where(valid, v, 0.0)], axis=-1)
    return uv, valid


def pixel_grid(width: int, height: int) -> np.ndarray:
    """(height, width, 2) array holding each pixel's own (u, v) coordinates.

    u and v are stored as two planes, so ``grid[..., 0]`` and ``grid[..., 1]``
    are contiguous (H, W) arrays.
    """
    return np.moveaxis(np.indices((height, width), dtype=np.float64)[::-1], 0, -1)


def pixel_rays(pixels, intrinsics: CameraIntrinsics) -> np.ndarray:
    """(..., 2) pixels -> (..., 3) camera-frame rays ((u - cx)/fx, (v - cy)/fy, 1).

    The third component is 1, so a ray times a depth is the 3-D point.
    """
    px = np.asarray(pixels, dtype=np.float64)
    rays = np.ones(px.shape[:-1] + (3,))
    rays[..., 0] = (px[..., 0] - intrinsics.cx) / intrinsics.fx
    rays[..., 1] = (px[..., 1] - intrinsics.cy) / intrinsics.fy
    return rays


def unproject(pixels, depth, intrinsics: CameraIntrinsics):
    """Back-project (..., 2) pixels at (...) depths into (..., 3) camera-frame points."""
    z = np.asarray(depth, dtype=np.float64)
    if np.any(z <= 0):
        raise ValidationError("cannot unproject non-positive depth")
    return pixel_rays(pixels, intrinsics) * z[..., None]


@dataclass(frozen=True)
class SimilarityTransform:
    scale: float
    rotation: Quaternion
    translation: np.ndarray

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValidationError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "translation", vec3(self.translation, "translation"))

    def apply(self, points):
        return self.scale * self.rotation.rotate(points) + self.translation

    def inverse(self) -> "SimilarityTransform":
        qi = self.rotation.conjugate()
        inv_scale = 1.0 / self.scale
        return SimilarityTransform(inv_scale, qi, -inv_scale * qi.rotate(self.translation))


def umeyama_align(source, target, with_scale: bool = True) -> SimilarityTransform:
    """Least-squares similarity (or rigid) transform mapping source onto target.

    Minimizes sum ||s R x_i + t - y_i||^2 via the SVD of the cross-covariance,
    with the reflection guard that keeps det(R) = +1.
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    if src.shape != tgt.shape:
        raise ValidationError(f"point counts differ: {src.shape[0]} vs {tgt.shape[0]}")
    n = src.shape[0]
    if n < 2:
        raise ValidationError(f"alignment needs at least 2 point pairs, got {n}")
    if not (np.all(np.isfinite(src)) and np.all(np.isfinite(tgt))):
        raise ValidationError("alignment inputs must be finite")
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    xs = src - mu_s
    ys = tgt - mu_t
    cov = ys.T @ xs / n
    u, d, vt = np.linalg.svd(cov)
    sign = 1.0 if np.linalg.det(u) * np.linalg.det(vt) >= 0 else -1.0
    rot = u @ np.diag([1.0, 1.0, sign]) @ vt
    if with_scale:
        var_s = float((xs**2).sum()) / n
        if var_s <= 0:
            raise ValidationError("scale is undefined: source points coincide")
        scale = float(d[0] + d[1] + sign * d[2]) / var_s
        if scale <= 0:
            raise ValidationError("alignment produced a non-positive scale")
    else:
        scale = 1.0
    q = Quaternion.from_rotation_matrix(rot)
    t = mu_t - scale * (rot @ mu_s)
    return SimilarityTransform(scale, q, t)
