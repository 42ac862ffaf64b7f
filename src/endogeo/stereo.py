"""Stereo calibration geometry: distortion, Bouguet-style rectification map
generation, bilinear remapping, and metric depth from disparity.

Extrinsics convention: (rotation, translation) place the right camera in the
left camera frame, i.e. X_left = R * X_right + T. For an ideal horizontal rig
T = (baseline, 0, 0), which makes disparity = f * baseline / z positive.
:class:`StereoCalibration` takes R as a :class:`~endogeo.geometry.Quaternion`;
:func:`load_calibration` reads it from the file's 3x3 matrix.

Distortion model: 5-coefficient radial-tangential (k1, k2, p1, p2, k3) on
normalized coordinates; the inverse runs at most 20 fixed-point iterations to
a 1e-8 px step tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FormatError, ValidationError, real
from .fileio import is_json_number, read_json, write_json
from .geometry import CameraIntrinsics, Quaternion, finite_rows, floats, pixel_grid, pixel_rays, project, rotated_rays, slerp, vec3
from .rasters import DepthMap, DisparityMap, bilinear_sample

_UNDISTORT_MAX_ITER = 20
_UNDISTORT_TOL_PX = 1e-8


@dataclass(frozen=True)
class MonoCalibration:
    intrinsics: CameraIntrinsics
    dist: tuple  # (k1, k2, p1, p2, k3)

    def __post_init__(self):
        if not isinstance(self.intrinsics, CameraIntrinsics):
            raise ValidationError(f"camera intrinsics must be CameraIntrinsics, got {self.intrinsics!r}")
        d = floats(self.dist, "distortion coefficient")
        if d.shape != (5,) or not np.all(np.isfinite(d)):
            raise ValidationError(f"expected 5 finite distortion coefficients, got {self.dist!r}")
        d = tuple(d.tolist())
        # the distorted pixel of the widest ray, with each coefficient's
        # magnitude, bounds every term of the model at every pixel; on Python
        # floats it overflows to inf without a warning
        k = self.intrinsics
        u, v = _distorted_pixel_planes(k, tuple(map(abs, d)), *k.widest_ray())
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ValidationError(f"distortion {d} overflows on the widest pixel ray: fx={k.fx} fy={k.fy}")
        object.__setattr__(self, "dist", d)


@dataclass(frozen=True)
class StereoCalibration:
    left: MonoCalibration
    right: MonoCalibration
    rotation: Quaternion  # right camera orientation in the left frame
    translation: np.ndarray  # right camera position in the left frame, mm

    def __post_init__(self):
        if not isinstance(self.rotation, Quaternion):
            raise ValidationError(f"rig rotation must be a Quaternion, got {self.rotation!r}")
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


def distort_normalized(x, y, dist):
    """Forward 5-coefficient model on normalized image coordinates: floats,
    or float64 arrays of one shape."""
    k1, k2, p1, p2, k3 = dist
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
        if float(step.max(initial=0.0)) < _UNDISTORT_TOL_PX:  # no pixels: nothing to solve
            break
    return x, y


def undistort_pixels(cam: MonoCalibration, pixels):
    """Finite (..., 2) distorted pixel coordinates -> undistorted normalized
    coordinates (..., 2)."""
    k = cam.intrinsics
    px = finite_rows(pixels, 2, "pixels to undistort")
    x, y = undistort_normalized(*pixel_rays(px[..., 0], px[..., 1], k), cam.dist, k.fx, k.fy)
    return np.stack([x, y], axis=-1)


def _distorted_pixel_planes(k: CameraIntrinsics, dist, xn, yn):
    """Undistorted normalized x/y planes -> distorted pixel u/v planes."""
    xd, yd = distort_normalized(xn, yn, dist)
    return k.fx * xd + k.cx, k.fy * yd + k.cy


def distort_pixels(cam: MonoCalibration, normalized):
    """Finite (..., 2) undistorted normalized coordinates -> distorted pixel
    coordinates (..., 2)."""
    n = finite_rows(normalized, 2, "normalized coordinates to distort")
    return np.stack(_distorted_pixel_planes(cam.intrinsics, cam.dist, n[..., 0], n[..., 1]), axis=-1)


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


def compute_rectify_maps(calib: StereoCalibration) -> RectifyMaps:
    """Bouguet rectification: both virtual cameras share one orientation with
    x along the baseline; rectified intrinsics are the left camera's."""
    r_rect = _rectifying_rotation(calib)
    r_rel = calib.rotation.to_rotation_matrix()
    rect_k = calib.left.intrinsics
    x, y = pixel_rays(*pixel_grid(rect_k.width, rect_k.height), rect_k)

    def maps_for(cam: MonoCalibration, basis: np.ndarray):
        cx, cy, z = rotated_rays(basis, x, y)
        ok = z > 0
        z_safe = np.where(ok, z, 1.0)
        u, v = _distorted_pixel_planes(cam.intrinsics, cam.dist, cx / z_safe, cy / z_safe)
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
    return project(np.stack(rotated_rays(rot.to_rotation_matrix().T, x, y), axis=-1), maps.intrinsics)


def remap(image, map_x, map_y):
    """Bilinearly sample ``image`` at (map_x, map_y); out-of-bounds -> 0.

    Accepts finite (H, W) or (H, W, C) images; maps may have any common
    shape, and a NaN or ±inf map entry is out of bounds.
    """
    img = floats(image, "remap image")
    mx, my = floats(map_x, "remap map_x"), floats(map_y, "remap map_y")
    if mx.shape != my.shape:
        raise ValidationError(f"map shapes differ: {mx.shape} vs {my.shape}")
    if img.ndim not in (2, 3) or 0 in img.shape[:2]:
        raise ValidationError(f"image must be a non-empty (H, W) or (H, W, C) array, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValidationError("remap image must be finite")
    return bilinear_sample(img, mx, my)[0]


def _bf_over(raster, baseline: float, focal: float) -> np.ndarray:
    """baseline * focal / value on valid pixels, 0 elsewhere: the one formula
    behind both directions of the depth <-> disparity conversion."""
    baseline, focal = real(baseline, "baseline", 0), real(focal, "focal length", 0)
    safe = np.where(raster.valid, raster.values, 1.0)
    return np.where(raster.valid, baseline * focal / safe, 0.0)


def disparity_to_depth(disparity: DisparityMap, baseline: float, focal: float) -> DepthMap:
    """Depth = baseline * focal / disparity on valid pixels; invalid pixels
    (including d <= DISPARITY_EPSILON, already masked by DisparityMap) stay
    invalid and serialize as 0."""
    return DepthMap(_bf_over(disparity, baseline, focal), disparity.valid)


def depth_to_disparity(depth: DepthMap, baseline: float, focal: float) -> DisparityMap:
    return DisparityMap(_bf_over(depth, baseline, focal), depth.valid)


# The numeric fields of each calibration section: JSON key -> (shape, JSON
# number kinds); shape () is one number, any other nested lists of them.
_NUM, _INT = (int, float), (int,)
_CAMERA_FIELDS = {"fx": ((), _NUM), "fy": ((), _NUM), "cx": ((), _NUM), "cy": ((), _NUM),
                  "width": ((), _INT), "height": ((), _INT), "dist": ((5,), _NUM)}
_SECTIONS = {"extrinsics": {"R": ((3, 3), _NUM), "T": ((3,), _NUM)},
             "left": _CAMERA_FIELDS, "right": _CAMERA_FIELDS}


def _has_shape(value, shape: tuple, kinds: tuple) -> bool:
    """``value`` is a JSON number of ``kinds``, or nested lists of them of exactly ``shape``."""
    if not shape:
        return is_json_number(value, kinds)
    rest = shape[1:]
    return isinstance(value, list) and len(value) == shape[0] and all(_has_shape(v, rest, kinds) for v in value)


def _read_section(obj, section: str, path) -> dict:
    """``obj[section]``, once the fields that ``_SECTIONS`` declares for it
    are checked; a :class:`FormatError` names the section and the key."""
    values = obj.get(section) if isinstance(obj, dict) else None
    if not isinstance(values, dict):
        raise FormatError(f"calibration key {section!r} missing or not a JSON object", path=path)
    missing = _SECTIONS[section].keys() - values.keys()
    if missing:
        raise FormatError(f"calibration {section} missing keys {sorted(missing)}", path=path)
    for key, (shape, kinds) in _SECTIONS[section].items():
        if not _has_shape(values[key], shape, kinds):
            kind = "integer" if kinds is _INT else "number"
            what = f"nested lists of JSON numbers with shape {shape}" if shape else f"a JSON {kind}"
            raise FormatError(f"calibration {section} {key} must be {what}", path=path)
    return values


def _camera(values: dict) -> MonoCalibration:
    return MonoCalibration(CameraIntrinsics(*map(values.get, ("fx", "fy", "cx", "cy", "width", "height"))), values["dist"])


def load_calibration(path) -> StereoCalibration:
    """JSON schema: {"left": {fx, fy, cx, cy, width, height, dist},
    "right": {...}, "extrinsics": {"R": 3x3 row-major, "T": [tx, ty, tz]}}.
    A field not of the shape and JSON number kind in ``_SECTIONS``, or an
    ``R`` that :meth:`Quaternion.from_rotation_matrix` rejects, raises
    :class:`FormatError`; an impossible camera or rig :class:`ValidationError`."""
    obj = read_json(path)
    ext, left, right = (_read_section(obj, section, path) for section in _SECTIONS)
    try:
        rotation = Quaternion.from_rotation_matrix(ext["R"])
    except ValidationError as exc:
        raise FormatError(f"calibration extrinsics R: {exc}", path=path) from None
    return StereoCalibration(_camera(left), _camera(right), rotation, ext["T"])


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
