"""Stereo calibration geometry: distortion, Bouguet-style rectification map
generation, bilinear remapping, and metric depth from disparity.

Extrinsics convention: (rotation, translation) place the right camera in the
left camera frame, i.e. X_left = R * X_right + T. For an ideal horizontal rig
T = (baseline, 0, 0), which makes disparity = f * baseline / z positive.

Distortion model: 5-coefficient radial-tangential (k1, k2, p1, p2, k3) on
normalized coordinates; the inverse runs at most 20 fixed-point iterations to
a 1e-8 px step tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import is_json_number, read_json, write_json
from .geometry import CameraIntrinsics, Quaternion, pixel_grid, pixel_rays, project, slerp, vec3
from .rasters import DISPARITY_EPSILON, DepthMap, DisparityMap, bilinear_sample

_UNDISTORT_MAX_ITER = 20
_UNDISTORT_TOL_PX = 1e-8


@dataclass(frozen=True)
class MonoCalibration:
    intrinsics: CameraIntrinsics
    dist: tuple  # (k1, k2, p1, p2, k3)

    def __post_init__(self):
        d = tuple(float(v) for v in self.dist)
        if len(d) != 5:
            raise ValidationError(f"expected 5 distortion coefficients, got {len(d)}")
        if not all(math.isfinite(v) for v in d):
            raise ValidationError("distortion coefficients must be finite")
        object.__setattr__(self, "dist", d)


@dataclass(frozen=True)
class StereoCalibration:
    left: MonoCalibration
    right: MonoCalibration
    rotation: Quaternion  # right camera orientation in the left frame
    translation: np.ndarray  # right camera position in the left frame, mm

    def __post_init__(self):
        rot = self.rotation
        if not isinstance(rot, Quaternion):
            object.__setattr__(
                self, "rotation", Quaternion.from_rotation_matrix(np.asarray(rot, dtype=np.float64))
            )
        t = vec3(self.translation, "extrinsic translation")
        with np.errstate(over="ignore"):  # an overflowing baseline is rejected below
            baseline = float(np.linalg.norm(t))
        if baseline <= 0:
            raise ValidationError("degenerate rig: zero baseline")
        if not math.isfinite(baseline):
            raise ValidationError("rig baseline (the norm of the extrinsic translation) must be finite")
        object.__setattr__(self, "translation", t)

    @property
    def baseline(self) -> float:
        return float(np.linalg.norm(self.translation))


@dataclass(frozen=True)
class RectifyMaps:
    """Dest-to-source lookup rasters (feed to :func:`remap`) plus the shared
    rectified intrinsics and the rectifying rotations for forward mapping."""

    left_x: np.ndarray
    left_y: np.ndarray
    right_x: np.ndarray
    right_y: np.ndarray
    intrinsics: CameraIntrinsics
    rotation_left: Quaternion  # rectified axes expressed in the left camera frame
    rotation_right: Quaternion  # rectified axes expressed in the right camera frame
    baseline: float


def distort_normalized(xn, yn, dist):
    """Forward 5-coefficient model on normalized image coordinates."""
    k1, k2, p1, p2, k3 = dist
    x = np.asarray(xn, dtype=np.float64)
    y = np.asarray(yn, dtype=np.float64)
    r2 = x * x + y * y
    radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
    xd = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
    yd = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
    return xd, yd


def undistort_normalized(xd, yd, dist, fx: float, fy: float):
    """Invert :func:`distort_normalized` by fixed-point iteration.

    fx/fy convert the step size to pixels for the stopping test.
    """
    xd = np.asarray(xd, dtype=np.float64)
    yd = np.asarray(yd, dtype=np.float64)
    k1, k2, p1, p2, k3 = dist
    x = xd.copy()
    y = yd.copy()
    for _ in range(_UNDISTORT_MAX_ITER):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x_new = (xd - dx) / radial
        y_new = (yd - dy) / radial
        step = np.maximum(np.abs(x_new - x) * fx, np.abs(y_new - y) * fy)
        x, y = x_new, y_new
        if float(step.max()) < _UNDISTORT_TOL_PX:
            break
    return x, y


def undistort_pixels(cam: MonoCalibration, pixels):
    """Distorted pixel coordinates -> undistorted normalized coordinates (..., 2)."""
    k = cam.intrinsics
    px = np.asarray(pixels, dtype=np.float64)
    x, y = undistort_normalized(*pixel_rays(px[..., 0], px[..., 1], k), cam.dist, k.fx, k.fy)
    return np.stack([x, y], axis=-1)


def _distorted_pixel_planes(cam: MonoCalibration, xn, yn):
    """Undistorted normalized x/y planes -> distorted pixel u/v planes."""
    xd, yd = distort_normalized(xn, yn, cam.dist)
    k = cam.intrinsics
    return k.fx * xd + k.cx, k.fy * yd + k.cy


def distort_pixels(cam: MonoCalibration, normalized):
    """Undistorted normalized coordinates -> distorted pixel coordinates (..., 2)."""
    n = np.asarray(normalized, dtype=np.float64)
    return np.stack(_distorted_pixel_planes(cam, n[..., 0], n[..., 1]), axis=-1)


def _rectifying_rotation(calib: StereoCalibration) -> np.ndarray:
    """Common rectified orientation, expressed in the left camera frame.

    Columns: e1 along the baseline, e3 near the average optical axis."""
    e1 = calib.translation / calib.baseline
    half = slerp(Quaternion.identity(), calib.rotation, 0.5)
    z_avg = half.rotate(np.array([0.0, 0.0, 1.0]))
    e2 = np.cross(z_avg, e1)
    n2 = float(np.linalg.norm(e2))
    if n2 <= 1e-12:
        raise ValidationError("degenerate rig: baseline parallel to the optical axis")
    e2 = e2 / n2
    e3 = np.cross(e1, e2)
    return np.column_stack([e1, e2, e3])


def _rotated_rays(x, y, basis: np.ndarray):
    """The x, y and z planes of the rays (x, y, 1) taken through the 3x3
    ``basis``: component i is x * basis[i, 0] + y * basis[i, 1] + basis[i, 2]."""
    return tuple(x * b0 + y * b1 + b2 for b0, b1, b2 in basis.tolist())


def compute_rectify_maps(calib: StereoCalibration) -> RectifyMaps:
    """Bouguet rectification: both virtual cameras share one orientation with
    x along the baseline; rectified intrinsics are the left camera's."""
    r_rect = _rectifying_rotation(calib)
    r_rel = calib.rotation.to_rotation_matrix()
    rect_k = calib.left.intrinsics
    x, y = pixel_rays(*pixel_grid(rect_k.width, rect_k.height), rect_k)

    def maps_for(cam: MonoCalibration, basis: np.ndarray):
        cx, cy, z = _rotated_rays(x, y, basis)
        ok = z > 0
        z_safe = np.where(ok, z, 1.0)
        u, v = _distorted_pixel_planes(cam, cx / z_safe, cy / z_safe)
        return np.where(ok, u, -1e9), np.where(ok, v, -1e9)

    left_x, left_y = maps_for(calib.left, r_rect)
    basis_right = r_rel.T @ r_rect
    right_x, right_y = maps_for(calib.right, basis_right)
    return RectifyMaps(
        left_x,
        left_y,
        right_x,
        right_y,
        rect_k,
        Quaternion.from_rotation_matrix(r_rect),
        Quaternion.from_rotation_matrix(basis_right),
        calib.baseline,
    )


def rectify_pixels(calib: StereoCalibration, maps: RectifyMaps, side: str, pixels):
    """Forward mapping: observed (distorted) pixels -> rectified pixel coordinates."""
    if side == "left":
        cam, rot = calib.left, maps.rotation_left
    elif side == "right":
        cam, rot = calib.right, maps.rotation_right
    else:
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    x, y = np.moveaxis(undistort_pixels(cam, pixels), -1, 0)
    return project(np.stack(_rotated_rays(x, y, rot.to_rotation_matrix().T), axis=-1), maps.intrinsics)


def remap(image, map_x, map_y, *, fill: float = 0.0):
    """Bilinearly sample ``image`` at (map_x, map_y); out-of-bounds -> fill.

    Accepts (H, W) or (H, W, C) images; maps may have any common 2D shape.
    """
    img = np.asarray(image, dtype=np.float64)
    mx = np.asarray(map_x, dtype=np.float64)
    my = np.asarray(map_y, dtype=np.float64)
    if mx.shape != my.shape:
        raise ValidationError(f"map shapes differ: {mx.shape} vs {my.shape}")
    if img.ndim not in (2, 3):
        raise ValidationError(f"image must be (H, W) or (H, W, C), got {img.shape}")
    sample, ok = bilinear_sample(img, mx, my)
    return np.where(ok[..., None] if img.ndim == 3 else ok, sample, fill)


def _bf_over(raster, baseline: float, focal: float) -> np.ndarray:
    """baseline * focal / value on valid pixels, 0 elsewhere: the one formula
    behind both directions of the depth <-> disparity conversion."""
    if not baseline > 0:
        raise ValidationError(f"baseline must be positive, got {baseline}")
    if not focal > 0:
        raise ValidationError(f"focal length must be positive, got {focal}")
    safe = np.where(raster.valid, raster.values, 1.0)
    return np.where(raster.valid, baseline * focal / safe, 0.0)


def disparity_to_depth(disparity: DisparityMap, baseline: float, focal: float) -> DepthMap:
    """Depth = baseline * focal / disparity on valid pixels; invalid pixels
    (including d <= DISPARITY_EPSILON, already masked by DisparityMap) stay
    invalid and serialize as 0."""
    return DepthMap(_bf_over(disparity, baseline, focal), disparity.valid)


def depth_to_disparity(depth: DepthMap, baseline: float, focal: float) -> DisparityMap:
    return DisparityMap(_bf_over(depth, baseline, focal), depth.valid)


def _all_numbers(value) -> bool:
    """``value`` is a JSON number or a (nested) list of them."""
    if isinstance(value, list):
        return all(_all_numbers(v) for v in value)
    return is_json_number(value)


def _camera_from_dict(obj: dict, path, side: str) -> MonoCalibration:
    required = {"fx", "fy", "cx", "cy", "width", "height", "dist"}
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"calibration {side} camera missing keys {sorted(missing)}", path=path)
    dist = obj["dist"]
    if not isinstance(dist, list) or len(dist) != 5:
        raise FormatError(
            f"calibration {side} camera dist must be a 5-element list [k1, k2, p1, p2, k3]",
            path=path,
        )
    width, height = obj["width"], obj["height"]
    if not all(is_json_number(v, int) for v in (width, height)):
        raise FormatError(
            f"calibration {side} camera width/height must be integers, got {width!r}x{height!r}",
            path=path,
        )
    for key in ("fx", "fy", "cx", "cy"):
        if not is_json_number(obj[key]):
            raise FormatError(
                f"calibration {side} camera {key} must be a number, got {obj[key]!r}", path=path
            )
    if not _all_numbers(dist):
        raise FormatError(
            f"calibration {side} camera dist entries must be numbers, got {dist!r}", path=path
        )
    intr = CameraIntrinsics(
        float(obj["fx"]), float(obj["fy"]), float(obj["cx"]), float(obj["cy"]), width, height
    )
    return MonoCalibration(intr, tuple(float(v) for v in dist))


def load_calibration(path) -> StereoCalibration:
    """JSON schema: {"left": {fx, fy, cx, cy, width, height, dist},
    "right": {...}, "extrinsics": {"R": 3x3 row-major, "T": [tx, ty, tz]}}.
    Every numeric field is a JSON number; booleans and strings are rejected."""
    obj = read_json(path)
    for key in ("left", "right", "extrinsics"):
        if not (isinstance(obj, dict) and isinstance(obj.get(key), dict)):
            raise FormatError(f"calibration key {key!r} missing or not a JSON object", path=path)
    ext = obj["extrinsics"]
    if "R" not in ext or "T" not in ext:
        raise FormatError("calibration extrinsics must contain 'R' and 'T'", path=path)
    if not (_all_numbers(ext["R"]) and _all_numbers(ext["T"])):
        raise FormatError("extrinsics R and T must hold JSON numbers only", path=path)
    try:
        r = np.array(ext["R"], dtype=np.float64)
        t = np.array(ext["T"], dtype=np.float64)
    except ValueError as exc:  # ragged nested lists
        raise FormatError(f"extrinsics R and T must be numeric arrays: {exc}", path=path) from None
    if r.shape != (3, 3):
        raise FormatError(f"extrinsics R must be 3x3, got shape {r.shape}", path=path)
    if t.shape != (3,):
        raise FormatError(f"extrinsics T must be a 3-vector, got shape {t.shape}", path=path)
    ortho = float(np.abs(r @ r.T - np.eye(3)).max())
    if ortho > 1e-6:
        raise FormatError(f"extrinsics R is not a rotation (orthogonality error {ortho:.3g})", path=path)
    return StereoCalibration(
        _camera_from_dict(obj["left"], path, "left"),
        _camera_from_dict(obj["right"], path, "right"),
        Quaternion.from_rotation_matrix(r),
        t,
    )


def calibration_to_dict(calib: StereoCalibration) -> dict:
    def cam(mono: MonoCalibration) -> dict:
        return {**asdict(mono.intrinsics), "dist": list(mono.dist)}

    return {
        "left": cam(calib.left),
        "right": cam(calib.right),
        "extrinsics": {
            "R": calib.rotation.to_rotation_matrix().tolist(),
            "T": calib.translation.tolist(),
        },
    }


def save_calibration(path, calib: StereoCalibration) -> None:
    write_json(path, calibration_to_dict(calib))
