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
form. The heightfield lies inside the slab extent +- (sum of amplitudes), so
each ray marches a fixed grid on [0, 3] * extent, from the camera out, only
where it borders the ray's stretch inside that slab; the first sign change of
the residual brackets the hit, and Newton steps on the analytic slope,
falling back to bisection whenever a step leaves the bracket, refine the
hit until a step moves it by at most 1e-15 of itself. The residual rounds at
about 1e-16 of extent, so a hit near the camera can be further off relative
to its depth: a depth of 0.0021 at extent 68 is 1.8e-13 off the exact root,
and one 1e-6 * extent from the camera up to about 1e-11. A camera on the
surface (a zero residual at the camera) sees nothing.

All randomness comes from the package splitmix64 generator (see rng module);
nothing here touches the platform RNG.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer, real
from .geometry import (
    CameraIntrinsics,
    Pose,
    PoseBatch,
    Quaternion,
    check_image_size,
    compose,
    compose_cumulative,
    floats,
    inverse,
    norms3,
    pixel_grid,
    pixel_rays,
    quats_from_rotation_matrices,
    quats_from_rotation_vectors,
    rotated_rays,
    vec3,
)
from .losses import induced_reprojection
from .rasters import DepthMap, FlowField, cell_coords, scatter_chunks
from .rng import SplitMix64
from .trajectory import Trajectory

SCENE_KINDS = ("plane", "sphere", "heightfield")
PATH_KINDS = ("orbit", "spline", "linear")

# heightfield ray march: the first crossing is bracketed between two
# neighbours of a fixed _MARCH_STEPS-point grid on [0, 3] * extent, which
# starts at the camera so a camera near the surface still sees it, but a
# ray evaluates only the grid points inside the relief slab and the one on
# each side of it (outside the slab the residual's sign is known). Newton
# then refines the bracket, bisecting whenever a step would leave it. 215
# points keep the step, 3 * extent / 214, within the 2.8 * extent / 199 the
# oracle tests were first run at.
_MARCH_STEPS = 215
# Newton stops on each ray once its own update is at most _NEWTON_RTOL of its
# depth, so a depth does not depend on which rays share its chunk
_NEWTON_ITERS = 8
_NEWTON_RTOL = 1e-15
# the slab is widened by this fraction of extent, far above the rounding
# error of a residual, so no rounding flips the sign of one outside it
_SLAB_MARGIN = 1e-6


@dataclass(frozen=True)
class SceneSpec:
    kind: str = "plane"
    extent: float = 100.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.kind not in SCENE_KINDS:
            raise ValidationError(f"scene kind must be one of {SCENE_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "extent", real(self.extent, "scene extent", 0))


@dataclass(frozen=True)
class DriftSpec:
    sigma_rot: float = 0.0    # rad per frame
    sigma_trans: float = 0.0  # mm per frame
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        for name in ("sigma_rot", "sigma_trans"):
            sigma = real(getattr(self, name), f"drift {name}")
            if sigma < 0:
                raise ValidationError(f"drift {name} must be non-negative, got {sigma}")
            object.__setattr__(self, name, sigma)


def default_intrinsics(width: int = 64, height: int = 48, focal: float = 700.0) -> CameraIntrinsics:
    """Narrow-FOV camera used by the simulator unless told otherwise. The
    narrow field keeps rendered depth gently curved across the image, which
    the temporal-consistency zero tests rely on."""
    width, height = check_image_size(width, height, "image")
    return CameraIntrinsics(focal, focal, width / 2.0, height / 2.0, width, height)


@functools.lru_cache(maxsize=16)
def _heightfield_components(spec: SceneSpec) -> np.ndarray:
    """Read-only (4, 3) array: per cosine component m, the rows hold the
    amplitude, the angular wavenumbers along x and y, and the phase, so the
    surface is z = extent + sum_m a_m cos(kx_m x + ky_m y + phase_m)."""
    stream = SplitMix64(spec.seed).derive("heightfield")
    components = []
    for m in range(3):
        amplitude = spec.extent * stream.uniform_in(0.015, 0.03) / (m + 1)
        freq_x = stream.uniform_in(0.3, 0.9) * (m + 1) / spec.extent
        freq_y = stream.uniform_in(0.3, 0.9) * (m + 1) / spec.extent
        phase = stream.uniform_in(0.0, 2.0 * math.pi)
        components.append((amplitude, 2.0 * math.pi * freq_x, 2.0 * math.pi * freq_y, phase))
    table = np.array(components).T
    table.setflags(write=False)
    return table


def _plane_hits(scene: SceneSpec, o, d):
    """Ray parameter (0 on a miss) and hit mask of rays o + lambda * d, d the x, y, z arrays."""
    dz = d[2]
    ok = dz > 0 if o[2] < scene.extent else dz < 0
    lam = np.where(ok, (scene.extent - o[2]) / np.where(ok, dz, 1.0), 0.0)
    ok &= lam > 0
    return np.where(ok, lam, 0.0), ok


def _sphere_hits(scene: SceneSpec, o, d):
    """As :func:`_plane_hits`: the nearer root in front of the camera of the quadratic in lambda."""
    oc = o - np.array([0.0, 0.0, 1.5 * scene.extent])
    a = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    b = 2.0 * (d[0] * oc[0] + d[1] * oc[1] + d[2] * oc[2])
    c = float((oc**2).sum()) - (0.5 * scene.extent) ** 2
    disc = b * b - 4.0 * a * c
    ok = disc >= 0
    sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))
    lam_near = (-b - sqrt_disc) / (2.0 * a)
    lam_far = (-b + sqrt_disc) / (2.0 * a)
    lam = np.where(lam_near > 0, lam_near, lam_far)
    ok &= lam > 0
    return np.where(ok, lam, 0.0), ok


def _heightfield_hits(scene: SceneSpec, o, d):
    """As :func:`_plane_hits`, for the heightfield.

    Along a ray the cosine arguments are c_m + lambda * s_m, so the residual
    f(lambda) = ray z - surface z and its slope are closed form.
    """
    dx, dy, dz = d
    amplitude, kx, ky, phase = (row[:, None] for row in _heightfield_components(scene))
    c = kx * o[0] + ky * o[1] + phase
    s = kx * dx + ky * dy
    base = o[2] - scene.extent

    def residual(lam, s, dz):
        # on the rays whose phase rates and direction z are s and dz
        angle = c + lam * s
        return base + lam * dz - (amplitude * np.cos(angle)).sum(axis=0), angle

    # the lambda-interval where the ray is inside the widened slab
    relief = float(np.abs(amplitude).sum()) + _SLAB_MARGIN * scene.extent
    moving = dz != 0
    safe_dz = np.where(moving, dz, 1.0)
    with np.errstate(over="ignore"):
        t_a = (-relief - base) / safe_dz
        t_b = (relief - base) / safe_dz
    inside = abs(base) <= relief
    enter = np.where(moving, np.minimum(t_a, t_b), -np.inf if inside else np.inf)
    leave = np.where(moving, np.maximum(t_a, t_b), np.inf if inside else -np.inf)
    # march from the last grid point before the slab to the first one after it
    steps = np.linspace(0.0, 3.0 * scene.extent, _MARCH_STEPS)
    first = np.maximum(np.searchsorted(steps, enter, "left") - 1, 0)
    last = np.minimum(np.searchsorted(steps, leave, "right"), _MARCH_STEPS - 1)

    n = dz.size
    lo, hi, f_lo, f_hi = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    found = np.zeros(n, dtype=bool)
    ray = np.flatnonzero(last > first)
    k, ray_s, ray_dz = first[ray], s[:, ray], dz[ray]
    f_prev, _ = residual(steps[k], ray_s, ray_dz)
    # a zero residual at lambda = 0 puts the camera on the surface: no hit
    off = (k > 0) | (f_prev != 0)
    ray, k, f_prev, ray_s, ray_dz = ray[off], k[off], f_prev[off], ray_s[:, off], ray_dz[off]
    while ray.size:
        k = k + 1
        f, _ = residual(steps[k], ray_s, ray_dz)
        hit = np.sign(f) != np.sign(f_prev)
        hits = ray[hit]
        found[hits] = True
        lo[hits], hi[hits] = steps[k[hit] - 1], steps[k[hit]]
        f_lo[hits], f_hi[hits] = f_prev[hit], f[hit]
        more = ~hit & (k < last[ray])
        ray, k, f_prev, ray_s, ray_dz = ray[more], k[more], f[more], ray_s[:, more], ray_dz[more]

    ray = np.flatnonzero(found)
    lo, hi, f_lo, f_hi, ray_s, ray_dz = lo[ray], hi[ray], f_lo[ray], f_hi[ray], s[:, ray], dz[ray]
    lam = lo - f_lo * (hi - lo) / (f_hi - f_lo)  # the secant, inside the bracket
    depth = np.zeros(n)
    for _ in range(_NEWTON_ITERS):
        f, angle = residual(lam, ray_s, ray_dz)
        slope = ray_dz + (amplitude * ray_s * np.sin(angle)).sum(axis=0)
        same_side = np.sign(f) == np.sign(f_lo)
        lo, f_lo = np.where(same_side, lam, lo), np.where(same_side, f, f_lo)
        hi = np.where(same_side, hi, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_next = lam - f / slope
        lam_next = np.where((lo <= lam_next) & (lam_next <= hi), lam_next, 0.5 * (lo + hi))
        settled = np.abs(lam_next - lam) <= _NEWTON_RTOL * lam
        lam = lam_next
        if settled.any():
            depth[ray[settled]] = lam[settled]
            more = ~settled
            ray, lam, lo, hi, f_lo = ray[more], lam[more], lo[more], hi[more], f_lo[more]
            ray_s, ray_dz = ray_s[:, more], ray_dz[more]
            if not ray.size:
                break

    depth[ray] = lam
    return depth, found


def render_depth(scene: SceneSpec, pose: Pose, intrinsics: CameraIntrinsics) -> DepthMap:
    """Exact per-pixel depth of the scene seen from ``pose`` (camera-to-world),
    a chunk of pixels at a time (:func:`~endogeo.rasters.scatter_chunks`)."""
    hits = {"plane": _plane_hits, "sphere": _sphere_hits, "heightfield": _heightfield_hits}[scene.kind]
    matrix = pose.rotation.to_rotation_matrix()

    def depth(index):
        rays = pixel_rays(*cell_coords(index, intrinsics.width), intrinsics)
        return hits(scene, pose.translation, rotated_rays(matrix, *rays))

    return DepthMap(*scatter_chunks(np.ones((intrinsics.height, intrinsics.width), dtype=bool), depth))


def look_at(position, target, up=(0.0, 1.0, 0.0)):
    """Camera-to-world pose at ``position`` with +z toward ``target``.

    ``position`` is one 3-vector, giving a Pose, or an (N, 3) array, giving a
    PoseBatch with one pose per row; ``target`` is one 3-vector or one per
    position, and ``up`` one 3-vector, all finite.
    """
    position, target = floats(position, "look_at camera position"), floats(target, "look_at target")
    if position.ndim not in (1, 2) or position.shape[-1] != 3 or target.shape not in ((3,), position.shape):
        raise ValidationError(f"look_at needs (3,) or (N, 3) positions and one target or one per position, "
                              f"got {position.shape} and {target.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite distance is rejected below
        forward = target - position
        n = norms3(forward)
    if np.any(n <= 0):
        raise ValidationError("look_at target coincides with the camera position")
    if not np.all(np.isfinite(n)):
        raise ValidationError("look_at camera-to-target distance is not finite")
    z = forward / n[..., None]
    x = np.cross(vec3(up, "look_at up vector"), z)
    nx = norms3(x)
    if np.any(nx <= 1e-12):
        raise ValidationError("look_at up vector is parallel to the view direction")
    x = x / nx[..., None]
    y = np.cross(z, x)
    quat = quats_from_rotation_matrices(np.stack([x, y, z], axis=-1))
    if position.ndim == 1:
        return Pose(Quaternion(*quat), position)
    return PoseBatch(quat, position)


def gen_trajectory(
    n_frames: int,
    path: str = "orbit",
    seed: int = 0,
    *,
    radius: float = 8.0,
    target=(0.0, 0.0, 100.0),
) -> Trajectory:
    """Smooth deterministic camera path, always facing the scene.

    orbit: constant-radius arc in the z = 0 plane around the origin, look-at
    target; spline: Catmull-Rom through seeded control points, look-at target;
    linear: frame k at (k, 0, 0) with identity rotation.
    """
    if path not in PATH_KINDS:
        raise ValidationError(f"path must be one of {PATH_KINDS}, got {path!r}")
    n_frames = integer(n_frames, "n_frames", 1)
    stream = SplitMix64(seed).derive(f"trajectory-{path}")
    frames = np.arange(n_frames)
    # the path parameter, 0 at the first frame and 1 at the last
    t = frames / (n_frames - 1) if n_frames > 1 else np.zeros(1)

    if path == "linear":
        quat = np.tile(Quaternion.identity().wxyz, (n_frames, 1))
        return Trajectory(frames, PoseBatch(quat, frames[:, None] * (1.0, 0.0, 0.0)))

    if path == "orbit":
        radius = real(radius, "orbit radius", 0)
        theta0 = stream.uniform_in(0.0, 2.0 * math.pi)
        arc = math.radians(stream.uniform_in(25.0, 45.0))
        theta = (theta0 + arc * t).tolist()
        position = np.array(
            [[radius * math.cos(th), radius * math.sin(th), 0.0] for th in theta]
        )
        return Trajectory(frames, look_at(position, target))

    # spline: Catmull-Rom through seeded control points near the origin
    radius = real(radius, "spline radius")
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
    s = t * (n_ctrl - 1)
    i = np.minimum(np.floor(s).astype(np.int64), n_ctrl - 2)
    f = (s - i)[:, None]
    p0, p1, p2, p3 = padded[i], padded[i + 1], padded[i + 2], padded[i + 3]
    with np.errstate(over="ignore", invalid="ignore"):  # look_at rejects a non-finite position
        position = 0.5 * (
            2.0 * p1
            + (-p0 + p2) * f
            + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * f * f
            + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * f * f * f
        )
    return Trajectory(frames, look_at(position, target))


def induced_flow(
    depth_i: DepthMap, pose_i: Pose, pose_j: Pose, intrinsics: CameraIntrinsics
) -> FlowField:
    """Exact optical flow i -> j of a frame with depth ``depth_i`` (as rendered
    by :func:`render_depth` at ``pose_i``) under the true relative pose.
    Feeding (depth_i, relative pose, this flow) back into the flow
    consistency loss yields zero by construction."""
    targets = induced_reprojection(
        depth_i, intrinsics, intrinsics, relative_motion(pose_i, pose_j)
    )
    u, v = pixel_grid(intrinsics.width, intrinsics.height)
    du = np.where(targets.valid, targets.vectors[..., 0] - u, 0.0)
    dv = np.where(targets.valid, targets.vectors[..., 1] - v, 0.0)
    return FlowField(np.stack([du, dv], axis=-1), targets.valid)


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
    from .trajectory import save_tum, split_into_segments

    n_frames = integer(n_frames, "n_frames", 2)
    stride = integer(stride, "stride", 1)
    depth_count = min(integer(depth_count, "depth_count", 1), n_frames)

    intrinsics = default_intrinsics(width, height, focal)
    scene_spec = SceneSpec(scene, extent, seed)
    gt = gen_trajectory(
        n_frames, path, seed, radius=orbit_radius, target=(0.0, 0.0, scene_spec.extent)
    )
    drifted = inject_drift(gt, DriftSpec(sigma_rot, sigma_trans, seed))
    anchor_frames = list(range(0, n_frames, stride))
    if anchor_frames[-1] != n_frames - 1:
        anchor_frames.append(n_frames - 1)
    anchors = gt.restricted_to(anchor_frames)
    segments = split_into_segments(drifted, anchors)

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def out_path(name):
        written.append(name)
        return os.path.join(out_dir, name)

    save_tum(out_path("gt.tum"), gt)
    save_tum(out_path("drifted.tum"), drifted)
    save_tum(out_path("anchors.tum"), anchors)
    for i, seg in enumerate(segments):
        save_tum(out_path(f"segment_{i:04d}.tum"), seg)
    # one depth map at a time: the flow out of frame k needs only its own map
    for frame in range(depth_count):
        depth = render_depth(scene_spec, gt.pose_at(frame), intrinsics)
        fileio.write_depth_pfm(out_path(fileio.frame_file_name(frame)), depth)
        if frame + 1 < depth_count:
            flow = induced_flow(depth, gt.pose_at(frame), gt.pose_at(frame + 1), intrinsics)
            fileio.write_flo(out_path(fileio.frame_file_name(frame, frame + 1)), flow)
    camera = MonoCalibration(intrinsics, (0.0, 0.0, 0.0, 0.0, 0.0))
    calib = StereoCalibration(
        camera, camera, Quaternion.identity(), np.array([5.0, 0.0, 0.0])
    )
    save_calibration(out_path("calib.json"), calib)

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
    object unchanged (bit-exact identity).

    Per frame step the stream gives three translation normals, then three
    rotation normals. The relative poses and their noise are computed as one
    batch; only the running product is a sequential scan.
    """
    if spec.sigma_rot == 0.0 and spec.sigma_trans == 0.0:
        return gt
    if len(gt) == 0:
        raise ValidationError("cannot inject drift into an empty trajectory")
    stream = SplitMix64(spec.seed).derive("drift")
    normals = np.array(stream.normals(6 * (len(gt) - 1))).reshape(-1, 6)
    with np.errstate(over="ignore"):  # an overflowing draw is rejected as non-finite below
        rotations, translations = normals[:, 3:] * spec.sigma_rot, normals[:, :3] * spec.sigma_trans
    noise = PoseBatch(quats_from_rotation_vectors(rotations), translations)
    poses = gt.poses
    rel = compose(inverse(poses[:-1]), poses[1:])
    return Trajectory(gt.frames, compose_cumulative(poses[0], compose(rel, noise)))
