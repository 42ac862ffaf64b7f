"""Synthetic oracle: scenes with analytically known geometry, smooth camera
paths, exact rendered depth, exact induced flow, and controllable drift.

Scene geometry lives in the world frame:
- plane: the surface z = extent;
- sphere: center (0, 0, 1.5 * extent), radius 0.5 * extent (it fills the view
  of the default narrow-FOV camera, so no grazing limb pixels appear);
- heightfield: z = extent * (1 + sum of seeded low-frequency cosines), total
  relief a few percent of extent.

Rays are parameterized as X_cam = lambda * ((u - cx)/fx, (v - cy)/fy, 1), so
the ray parameter IS the depth. Plane and sphere intersections are closed
form; the heightfield uses a coarse march plus bisection and is accurate to
~1e-12 of the ray parameter.

All randomness comes from the package splitmix64 generator (see rng module);
nothing here touches the platform RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import CameraIntrinsics, Pose, Quaternion, compose, inverse, pixel_grid, pixel_rays
from .losses import induced_reprojection
from .rasters import DepthMap, FlowField
from .rng import SplitMix64
from .trajectory import Trajectory

_SCENE_KINDS = ("plane", "sphere", "heightfield")
_PATH_KINDS = ("orbit", "spline", "linear")

# heightfield ray march: bracket the first crossing on [0.2, 3] * extent,
# then bisect the bracket down to ~1e-12 relative
_MARCH_STEPS = 200
_BISECT_ITERS = 48


@dataclass(frozen=True)
class SceneSpec:
    kind: str = "plane"
    extent: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _SCENE_KINDS:
            raise ValidationError(f"scene kind must be one of {_SCENE_KINDS}, got {self.kind!r}")
        if not self.extent > 0:
            raise ValidationError(f"scene extent must be positive, got {self.extent}")


@dataclass(frozen=True)
class DriftSpec:
    sigma_rot: float = 0.0    # rad per frame
    sigma_trans: float = 0.0  # mm per frame
    seed: int = 0

    def __post_init__(self):
        if self.sigma_rot < 0 or self.sigma_trans < 0:
            raise ValidationError("drift sigmas must be non-negative")


def default_intrinsics(width: int = 64, height: int = 48, focal: float = 700.0) -> CameraIntrinsics:
    """Narrow-FOV camera used by the simulator unless told otherwise. The
    narrow field keeps rendered depth gently curved across the image, which
    the temporal-consistency zero tests rely on."""
    return CameraIntrinsics(focal, focal, width / 2.0, height / 2.0, width, height)


def _heightfield_components(spec: SceneSpec):
    stream = SplitMix64(spec.seed).derive("heightfield")
    components = []
    for m in range(3):
        amplitude = spec.extent * stream.uniform_in(0.015, 0.03) / (m + 1)
        freq_x = stream.uniform_in(0.3, 0.9) * (m + 1) / spec.extent
        freq_y = stream.uniform_in(0.3, 0.9) * (m + 1) / spec.extent
        phase = stream.uniform_in(0.0, 2.0 * math.pi)
        components.append((amplitude, freq_x, freq_y, phase))
    return components


def surface_height(scene: SceneSpec, x, y):
    """z of the scene surface above world (x, y); plane and heightfield only."""
    if scene.kind == "plane":
        return np.full_like(np.asarray(x, dtype=np.float64), scene.extent)
    if scene.kind == "heightfield":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = np.full(np.broadcast(x, y).shape, scene.extent)
        for amplitude, fx, fy, phase in _heightfield_components(scene):
            z = z + amplitude * np.cos(2.0 * math.pi * (fx * x + fy * y) + phase)
        return z
    raise ValidationError(f"{scene.kind!r} has no height function")


def render_depth(scene: SceneSpec, pose: Pose, intrinsics: CameraIntrinsics) -> DepthMap:
    """Exact per-pixel depth of the scene seen from ``pose`` (camera-to-world)."""
    d = pose.rotation.rotate(pixel_rays(pixel_grid(intrinsics.width, intrinsics.height), intrinsics))
    o = pose.translation

    if scene.kind == "plane":
        dz = d[..., 2]
        ok = dz > 0 if o[2] < scene.extent else dz < 0
        lam = np.where(ok, (scene.extent - o[2]) / np.where(ok, dz, 1.0), 0.0)
        ok &= lam > 0
        return DepthMap(np.where(ok, lam, 0.0), ok)

    if scene.kind == "sphere":
        center = np.array([0.0, 0.0, 1.5 * scene.extent])
        radius = 0.5 * scene.extent
        oc = o - center
        a = (d**2).sum(axis=-1)
        b = 2.0 * (d * oc).sum(axis=-1)
        c = float((oc**2).sum()) - radius**2
        disc = b * b - 4.0 * a * c
        ok = disc >= 0
        sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
        lam_near = (-b - sqrt_disc) / (2.0 * a)
        lam_far = (-b + sqrt_disc) / (2.0 * a)
        lam = np.where(lam_near > 0, lam_near, lam_far)
        ok &= lam > 0
        return DepthMap(np.where(ok, lam, 0.0), ok)

    # heightfield: f(lam) = ray_z(lam) - surface(ray_xy(lam)) changes sign at the hit
    def residual(lam):
        x = o[0] + lam * d[..., 0]
        y = o[1] + lam * d[..., 1]
        z = o[2] + lam * d[..., 2]
        return z - surface_height(scene, x, y)

    shape = d.shape[:-1]
    lam_lo = np.full(shape, 0.2 * scene.extent)
    lam_hi = np.full(shape, 3.0 * scene.extent)
    steps = np.linspace(0.2 * scene.extent, 3.0 * scene.extent, _MARCH_STEPS)
    found = np.zeros(shape, dtype=bool)
    prev = steps[0]
    res_prev = residual(np.full(shape, prev))
    for lam in steps[1:]:
        cur = np.full(shape, lam)
        res_cur = residual(cur)
        crossing = ~found & (np.sign(res_prev) != np.sign(res_cur))
        lam_lo = np.where(crossing, prev, lam_lo)
        lam_hi = np.where(crossing, lam, lam_hi)
        found |= crossing
        prev = lam
        res_prev = res_cur
    lo, hi = lam_lo, lam_hi
    res_lo = residual(lo)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        res_mid = residual(mid)
        same_side = np.sign(res_mid) == np.sign(res_lo)
        lo = np.where(same_side, mid, lo)
        res_lo = np.where(same_side, res_mid, res_lo)
        hi = np.where(same_side, hi, mid)
    lam = 0.5 * (lo + hi)
    ok = found & (lam > 0)
    return DepthMap(np.where(ok, lam, 0.0), ok)


def look_at(position, target, up=(0.0, 1.0, 0.0)) -> Pose:
    """Camera-to-world pose at ``position`` with +z toward ``target``."""
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - position
    n = float(np.linalg.norm(forward))
    if n <= 0:
        raise ValidationError("look_at target coincides with the camera position")
    z = forward / n
    x = np.cross(np.asarray(up, dtype=np.float64), z)
    nx = float(np.linalg.norm(x))
    if nx <= 1e-12:
        raise ValidationError("look_at up vector is parallel to the view direction")
    x = x / nx
    y = np.cross(z, x)
    return Pose(Quaternion.from_rotation_matrix(np.column_stack([x, y, z])), position)


def gen_trajectory(
    n_frames: int,
    path: str = "orbit",
    seed: int = 0,
    *,
    radius: float = 8.0,
    target=(0.0, 0.0, 100.0),
    step=(1.0, 0.0, 0.0),
) -> Trajectory:
    """Smooth deterministic camera path, always facing the scene.

    orbit: constant-radius arc in the z = 0 plane around the origin, look-at
    target; spline: Catmull-Rom through seeded control points, look-at target;
    linear: constant step with identity rotation.
    """
    if path not in _PATH_KINDS:
        raise ValidationError(f"path must be one of {_PATH_KINDS}, got {path!r}")
    if n_frames <= 0:
        raise ValidationError(f"n_frames must be positive, got {n_frames}")
    stream = SplitMix64(seed).derive(f"trajectory-{path}")
    entries = []

    if path == "linear":
        step = np.asarray(step, dtype=np.float64)
        for k in range(n_frames):
            entries.append((k, Pose(Quaternion.identity(), k * step)))
        return Trajectory(tuple(entries))

    if path == "orbit":
        if radius <= 0:
            raise ValidationError(f"orbit radius must be positive, got {radius}")
        theta0 = stream.uniform_in(0.0, 2.0 * math.pi)
        arc = math.radians(stream.uniform_in(25.0, 45.0))
        for k in range(n_frames):
            t = k / (n_frames - 1) if n_frames > 1 else 0.0
            theta = theta0 + arc * t
            position = np.array(
                [radius * math.cos(theta), radius * math.sin(theta), 0.0]
            )
            entries.append((k, look_at(position, target)))
        return Trajectory(tuple(entries))

    # spline: Catmull-Rom through seeded control points near the origin
    n_ctrl = 5
    ctrl = np.array(
        [
            [
                stream.uniform_in(-radius, radius),
                stream.uniform_in(-radius, radius),
                stream.uniform_in(-0.25 * radius, 0.25 * radius),
            ]
            for _ in range(n_ctrl)
        ]
    )
    padded = np.vstack([ctrl[0], ctrl, ctrl[-1]])
    for k in range(n_frames):
        t = k / (n_frames - 1) if n_frames > 1 else 0.0
        s = t * (n_ctrl - 1)
        i = min(int(math.floor(s)), n_ctrl - 2)
        f = s - i
        p0, p1, p2, p3 = padded[i], padded[i + 1], padded[i + 2], padded[i + 3]
        position = 0.5 * (
            2.0 * p1
            + (-p0 + p2) * f
            + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * f * f
            + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * f * f * f
        )
        entries.append((k, look_at(position, target)))
    return Trajectory(tuple(entries))


def induced_flow(
    scene: SceneSpec, pose_i: Pose, pose_j: Pose, intrinsics: CameraIntrinsics
) -> FlowField:
    """Exact optical flow i -> j from rendered depth and the true relative
    pose. Feeding (depth_i, relative pose, this flow) back into the flow
    consistency loss yields zero by construction."""
    depth_i = render_depth(scene, pose_i, intrinsics)
    motion = compose(inverse(pose_j), pose_i)
    targets = induced_reprojection(depth_i, intrinsics, intrinsics, motion)
    vectors = targets.vectors - pixel_grid(intrinsics.width, intrinsics.height)
    return FlowField(np.where(targets.valid[..., None], vectors, 0.0), targets.valid)


def relative_motion(pose_i: Pose, pose_j: Pose) -> Pose:
    """Transform taking camera-i coordinates to camera-j coordinates."""
    return compose(inverse(pose_j), pose_i)


def simulate_dataset(
    out_dir,
    *,
    seed: int = 0,
    n_frames: int = 200,
    stride: int = 16,
    path: str = "orbit",
    scene: str = "plane",
    extent: float = 100.0,
    sigma_rot: float = 0.002,
    sigma_trans: float = 0.05,
    width: int = 64,
    height: int = 48,
    focal: float = 700.0,
    orbit_radius: float = 8.0,
    depth_count: int = 4,
    config_echo: dict | None = None,
) -> dict:
    """Emit a complete synthetic dataset directory and return its manifest.

    Contents: gt.tum, drifted.tum, anchors.tum, one segment_%04d.tum per
    anchor gap (cut from the drifted trajectory), depth_%04d.pfm rendered at
    the first ``depth_count`` ground-truth poses, flow_%04d_%04d.flo for each
    consecutive depth pair, calib.json for an ideal 5 mm rig with the render
    camera's intrinsics, and manifest.json listing every artifact with its
    sha256. Nothing in the directory depends on wall-clock time, so a rerun
    with the same arguments is byte-identical.
    """
    import hashlib
    import os

    from . import fileio
    from .stereo import MonoCalibration, StereoCalibration, save_calibration
    from .trajectory import AnchorSet, save_tum, split_into_segments

    if n_frames < 2:
        raise ValidationError(f"simulate needs at least 2 frames, got {n_frames}")
    if depth_count < 1:
        raise ValidationError(f"depth_count must be positive, got {depth_count}")
    depth_count = min(depth_count, n_frames)

    scene_spec = SceneSpec(scene, extent, seed)
    intrinsics = default_intrinsics(width, height, focal)
    gt = gen_trajectory(
        n_frames, path, seed, radius=orbit_radius, target=(0.0, 0.0, extent)
    )
    drifted = inject_drift(gt, DriftSpec(sigma_rot, sigma_trans, seed))
    anchor_frames = list(range(0, n_frames, stride))
    if anchor_frames[-1] != n_frames - 1:
        anchor_frames.append(n_frames - 1)
    anchors = AnchorSet(gt.restricted_to(anchor_frames), stride)
    segments = split_into_segments(drifted, anchors)

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name, writer):
        target = os.path.join(out_dir, name)
        writer(target)
        written.append(name)

    emit("gt.tum", lambda p: save_tum(p, gt))
    emit("drifted.tum", lambda p: save_tum(p, drifted))
    emit("anchors.tum", lambda p: save_tum(p, anchors.trajectory))
    for i, seg in enumerate(segments):
        emit(f"segment_{i:04d}.tum", lambda p, s=seg: save_tum(p, s.trajectory))
    depths = {}
    for frame in range(depth_count):
        depths[frame] = render_depth(scene_spec, gt.pose_at(frame), intrinsics)
        emit(
            f"depth_{frame:04d}.pfm",
            lambda p, d=depths[frame]: fileio.write_depth_pfm(p, d),
        )
    for frame in range(depth_count - 1):
        flow = induced_flow(
            scene_spec, gt.pose_at(frame), gt.pose_at(frame + 1), intrinsics
        )
        emit(
            f"flow_{frame:04d}_{frame + 1:04d}.flo",
            lambda p, f=flow: fileio.write_flo(p, f),
        )
    camera = MonoCalibration(intrinsics, (0.0, 0.0, 0.0, 0.0, 0.0))
    calib = StereoCalibration(
        camera, camera, Quaternion.identity(), np.array([5.0, 0.0, 0.0])
    )
    emit("calib.json", lambda p: save_calibration(p, calib))

    artifacts = []
    for name in sorted(written):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        artifacts.append(
            {"path": name, "bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
        )
    manifest = {"artifacts": artifacts}
    if config_echo is not None:
        manifest["config_echo"] = config_echo
    fileio.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def inject_drift(gt: Trajectory, spec: DriftSpec) -> Trajectory:
    """Perturb each ground-truth relative pose with seeded noise and
    re-accumulate from the true first pose. Zero sigmas return the input
    object unchanged (bit-exact identity)."""
    if spec.sigma_rot == 0.0 and spec.sigma_trans == 0.0:
        return gt
    entries = gt.entries
    if len(entries) == 0:
        raise ValidationError("cannot inject drift into an empty trajectory")
    stream = SplitMix64(spec.seed).derive("drift")
    out = [entries[0]]
    current = entries[0][1]
    for (f_prev, p_prev), (f_cur, p_cur) in zip(entries, entries[1:]):
        rel = compose(inverse(p_prev), p_cur)
        t_noise = np.array(stream.normals(3)) * spec.sigma_trans
        omega = np.array(stream.normals(3)) * spec.sigma_rot
        noise = Pose(Quaternion.from_rotation_vector(omega), t_noise)
        current = compose(current, compose(rel, noise))
        out.append((f_cur, current))
    return Trajectory(tuple(out))
