"""Evaluators for the hybrid supervision objective.

Supervised terms (confidence-weighted pointmap loss, pose loss) reduce by
SUM over their elements; the self-supervised consistency terms (flow,
temporal, prior) reduce by MEAN over valid pixels so values are comparable
across validity counts. All functions are pure evaluators over immutable
rasters; none of this is differentiable machinery.

Loss functions that reduce over pixels return ``(value, raster, mask)``:
the per-pixel contribution raster (zero outside the mask) and the mask of
pixels that entered the reduction.

The frames come from one monocular camera, so :func:`induced_reprojection`,
:func:`c_flow` and :func:`c_temp` take one ``intrinsics``, in the place that
:func:`c_prior` takes it, and each map must have that camera's size.

Every per-pixel kernel (:func:`induced_reprojection`, :func:`c_flow`,
:func:`c_temp`, and :func:`c_prior`'s log residual, gradient and normal terms)
computes only on its candidates, the pixels that can count, in the chunks of
flat indices of :func:`~endogeo.rasters.candidate_chunks`.
:func:`~endogeo.rasters.scatter_chunks` writes the chunks into zero-filled
full-size rasters and masks; :func:`_kept_mean` only keeps the values that
enter a mean. Either way a mean runs over the values of ``raster[mask]`` in
its row-major order, so no result depends on the chunk size. The kernels read depth only at their candidates'
valid cells, and work in closed form: a point at depth z on the ray (x, y, 1)
moves to z * (R @ (x, y, 1)) + t (:meth:`~endogeo.geometry.Pose.move_rays`),
and a surface normal is a formula of four neighbour depths (:func:`_normals`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, real
from .geometry import CameraIntrinsics, Pose, PoseBatch, pixel_rays, project_planes
from .rasters import ConfidenceMap, DepthMap, FlowField, Pointmap, bilinear_sample, candidate_chunks, cell_coords, check_same_size, in_bounds, scatter_chunks


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.2               # confidence regularizer weight
    lambda_consist: float = 0.1      # weight of the consistency composite in the total
    w_flow: float = 1.0
    w_temp: float = 1.0
    w_prior: float = 1.0
    w_si: float = 1.0
    w_grad: float = 1.0
    w_normal: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # alpha positive, every weight after it non-negative
            value = real(getattr(self, f.name), f.name, 0 if f.name == "alpha" else None)
            if value < 0:
                raise ValidationError(f"{f.name} must be non-negative, got {value}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class NormalizationSpec:
    s_hat: float  # scale of the predicted set
    s: float      # scale of the reference set

    def __post_init__(self):
        for name in ("s_hat", "s"):
            object.__setattr__(self, name, real(getattr(self, name), f"normalization scale {name}", 0))


def point_set_scale(pointmap: Pointmap) -> float:
    """Mean Euclidean norm of the valid points."""
    if not pointmap.valid.any():
        raise ValidationError("pointmap has no valid points")
    norms = np.sqrt((pointmap.points**2).sum(axis=2))
    return float(norms[pointmap.valid].mean())


def conf_loss(pred: Pointmap, ref: Pointmap, conf: ConfidenceMap, cfg: LossConfig):
    """Sum over jointly valid pixels of c * ||x/s_hat - y/s||_2 - alpha * log c.

    s_hat and s are the per-map point-set scales, so a uniform scaling of
    either map cancels out.
    """
    check_same_size(pred, ref, "pointmap")
    check_same_size(pred, conf, "confidence")
    mask = pred.valid & ref.valid
    if not mask.any():
        raise ValidationError("no jointly valid pixels")
    s_hat = point_set_scale(pred)
    s = point_set_scale(ref)
    diff = pred.points / s_hat - ref.points / s
    residual = np.sqrt((diff**2).sum(axis=2))
    per_pixel = conf.values * residual - cfg.alpha * np.log(conf.values)
    raster = np.where(mask, per_pixel, 0.0)
    return float(raster[mask].sum()), raster, mask


def pose_loss(pred: PoseBatch, ref: PoseBatch, norms: NormalizationSpec) -> float:
    """Sum over frames of ||q_hat - q||_2 + ||t_hat/s_hat - t/s||_2, with the
    quaternion sign chosen per frame to minimize the first term."""
    if not (isinstance(pred, PoseBatch) and isinstance(ref, PoseBatch)):
        raise ValidationError(f"poses must be PoseBatches, got {type(pred).__name__} and {type(ref).__name__}")
    if len(pred) != len(ref):
        raise ValidationError(f"pose batch lengths differ: {len(pred)} vs {len(ref)}")
    if not len(pred):
        raise ValidationError("pose batches are empty")
    q_term = np.minimum(
        np.sqrt(((pred.quat - ref.quat) ** 2).sum(axis=1)), np.sqrt(((pred.quat + ref.quat) ** 2).sum(axis=1))
    )
    t_diff = pred.trans / norms.s_hat - ref.trans / norms.s
    # a running total in frame order, as numpy's pairwise sum would round differently
    return float(np.cumsum(q_term + np.sqrt((t_diff**2).sum(axis=1)))[-1])


def induced_reprojection(depth: DepthMap, intrinsics: CameraIntrinsics, motion: Pose) -> FlowField:
    """Per-pixel target coordinates u(p) = project(motion(unproject(p, D(p)))),
    both through ``intrinsics``.

    ``motion`` maps source-camera coordinates to target-camera coordinates.
    Returns absolute target coordinates (not deltas); pixels whose transformed
    z is non-positive, or whose depth is invalid, are masked out.
    """
    check_same_size(depth, intrinsics, "camera")

    def targets(index):
        rays = pixel_rays(*cell_coords(index, depth.width), intrinsics)
        tu, tv, in_front = project_planes(*motion.move_rays(*rays, depth.values.take(index)), intrinsics)
        return np.stack([tu, tv], axis=-1), in_front

    return FlowField(*scatter_chunks(depth.valid, targets, 2))


def _kept_mean(candidates: np.ndarray, kernel) -> float:
    """Mean of the values that ``kernel(index)`` keeps at each chunk
    ``index`` of the True cells of ``candidates`` (0 if none): the bits of
    ``raster[mask].mean()`` for those of
    :func:`~endogeo.rasters.scatter_chunks`, in the same order."""
    values = np.concatenate([np.empty(0)] + [kernel(index) for index in candidate_chunks(candidates)])
    return float(values.mean()) if values.size else 0.0


def c_flow(depth: DepthMap, intrinsics: CameraIntrinsics, motion: Pose, flow: FlowField):
    """Mean L1 distance between the depth/pose-induced reprojection of
    :func:`induced_reprojection` and the flow target p' = p + flow. A pixel
    counts where the moved point is in front of the camera, its reprojection
    is finite, its flow is valid and p' is in bounds."""
    check_same_size(depth, flow, "flow")
    check_same_size(depth, intrinsics, "camera")
    height, width = depth.values.shape
    vectors = flow.vectors.reshape(-1, 2)

    def distance(index):
        u, v = cell_coords(index, width)
        rays = pixel_rays(u, v, intrinsics)
        tu, tv, in_front = project_planes(*motion.move_rays(*rays, depth.values.take(index)), intrinsics)
        du, dv = vectors.take(index, axis=0).T
        px, py = u + du, v + dv
        ok = in_front & np.isfinite(tu) & np.isfinite(tv) & in_bounds(px, py, width, height)
        return np.where(ok, np.abs(tu - px) + np.abs(tv - py), 0.0), ok

    raster, mask = scatter_chunks(depth.valid & flow.valid, distance)
    if not mask.any():
        raise ValidationError("no valid pixels for the flow-consistency loss")
    return float(raster[mask].mean()), raster, mask


def c_temp(depth_i: DepthMap, depth_j: DepthMap, intrinsics: CameraIntrinsics, motion: Pose, flow: FlowField):
    """Mean of |max(P_z / D_j(p'), D_j(p') / P_z) - 1| over usable pixels.

    P_z is the z of the source pixel, unprojected through ``intrinsics`` and
    moved into the target frame; D_j is sampled bilinearly at p' = p + flow
    and the sample is rejected if any of the four neighbors is invalid or the
    location is out of bounds.
    """
    check_same_size(depth_i, flow, "flow")
    check_same_size(depth_i, depth_j, "depth")
    check_same_size(depth_i, intrinsics, "camera")
    vectors = flow.vectors.reshape(-1, 2)

    def ratio_error(index):
        u, v = cell_coords(index, depth_i.width)
        (p_z,) = motion.move_rays(*pixel_rays(u, v, intrinsics), depth_i.values.take(index), rows=(2,))
        du, dv = vectors.take(index, axis=0).T
        sample, ok = bilinear_sample(depth_j.values, u + du, v + dv, depth_j.valid)
        ok &= (p_z > 0) & (sample > 0)
        pz_safe = np.where(ok, p_z, 1.0)
        s_safe = np.where(ok, sample, 1.0)
        ratio = np.maximum(pz_safe / s_safe, s_safe / pz_safe)
        return np.where(ok, np.abs(ratio - 1.0), 0.0), ok

    raster, mask = scatter_chunks(depth_i.valid & flow.valid, ratio_error)
    if not mask.any():
        raise ValidationError("no valid pixels for the temporal-consistency loss")
    return float(raster[mask].mean()), raster, mask


def _pool2x2(grid: np.ndarray, valid: np.ndarray):
    height, width = grid.shape
    out_h, out_w = height // 2, width // 2
    g = np.where(valid, grid, 0.0)[: 2 * out_h, : 2 * out_w]
    v = valid[: 2 * out_h, : 2 * out_w]
    sums = (
        g[0::2, 0::2] + g[0::2, 1::2] + g[1::2, 0::2] + g[1::2, 1::2]
    )
    counts = (
        v[0::2, 0::2].astype(np.float64)
        + v[0::2, 1::2]
        + v[1::2, 0::2]
        + v[1::2, 1::2]
    )
    pooled_valid = counts > 0
    pooled = np.where(pooled_valid, sums / np.where(pooled_valid, counts, 1.0), 0.0)
    return pooled, pooled_valid


def _grad_term(grid: np.ndarray, valid: np.ndarray) -> float:
    """Mean |forward x-diff| + |forward y-diff| of ``grid`` over the pixels
    whose right and lower neighbours are valid with them; 0 when there are
    none."""
    width = grid.shape[1]
    corner = np.zeros_like(valid)
    corner[:-1, :-1] = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1]
    flat = grid.reshape(-1)

    def diffs(index):
        g = flat.take(index)
        return np.abs(flat.take(index + 1) - g) + np.abs(flat.take(index + width) - g)

    return _kept_mean(corner, diffs)


def _sq_norm(v):
    """Squared Euclidean norm of the 3-plane vector ``v``, summed left to right."""
    return v[0] ** 2 + v[1] ** 2 + v[2] ** 2


def _normals(values: np.ndarray, index, rays, intrinsics: CameraIntrinsics):
    """Surface normals of the depth ``values`` at the interior cells ``index``
    with valid 5-point crosses and rays (x, y) ``rays``: the cross product of
    the central differences of P = z * (x, y, 1), which is
    (-a t, -s b, a t x + s b y + s t) with a = z_r - z_l, b = z_d - z_u,
    s = (z_r + z_l) / fx and t = (z_d + z_u) / fy. The neighbour depths are
    divided by the centre one, which keeps the direction and keeps the
    products from under- or overflowing at extreme depth scales."""
    x, y = rays
    width = values.shape[1]
    flat = values.reshape(-1)
    z = flat.take(index)
    right, left = flat.take(index + 1) / z, flat.take(index - 1) / z
    down, up = flat.take(index + width) / z, flat.take(index - width) / z
    a, s = right - left, (right + left) / intrinsics.fx
    b, t = down - up, (down + up) / intrinsics.fy
    at, sb = a * t, s * b
    return -at, -sb, at * x + sb * y + s * t


def _normal_term(depth: DepthMap, ref: DepthMap, mask, intrinsics: CameraIntrinsics) -> float:
    """Mean (1 - cos angle) between the surface normals of ``depth`` and
    ``ref`` (see :func:`_normals`) over the interior pixels whose 5-point
    cross lies in ``mask`` and whose normals are both nonzero; 0 when there
    are none."""
    width = mask.shape[1]
    cross = np.zeros_like(mask)
    cross[1:-1, 1:-1] = mask[1:-1, 1:-1] & mask[1:-1, 2:] & mask[1:-1, :-2] & mask[2:, 1:-1] & mask[:-2, 1:-1]

    def cosine_gap(index):
        rays = pixel_rays(*cell_coords(index, width), intrinsics)
        n_d, n_r = (_normals(m.values, index, rays, intrinsics) for m in (depth, ref))
        norm_d, norm_r = np.sqrt(_sq_norm(n_d)), np.sqrt(_sq_norm(n_r))
        ok = (norm_d > 0) & (norm_r > 0)
        # 1 - cos(angle) computed as 0.5 * ||u_d - u_r||^2 on the unit
        # normals: algebraically identical, but exactly 0 for identical
        # maps and never negative under rounding.
        safe_d, safe_r = np.where(ok, norm_d, 1.0), np.where(ok, norm_r, 1.0)
        return (0.5 * _sq_norm([a / safe_d - b / safe_r for a, b in zip(n_d, n_r)]))[ok]

    return _kept_mean(cross, cosine_gap)


def c_prior(depth: DepthMap, ref: DepthMap, intrinsics: CameraIntrinsics, cfg: LossConfig):
    """Depth-prior composite against a reference depth map.

    Returns (total, breakdown) with breakdown keys c_si, c_grad, c_normal:
    - c_si: variance of the log-depth residual (scale invariant),
    - c_grad: multi-scale (4 dyadic levels) mean |forward-diff| of the
      log residual,
    - c_normal: mean (1 - cos angle) between surface normals of the two maps
      (needs intrinsics to unproject).
    Total = w_si * c_si + w_grad * c_grad + w_normal * c_normal.
    """
    check_same_size(depth, ref, "depth")
    check_same_size(depth, intrinsics, "camera")
    mask = depth.valid & ref.valid
    if not mask.any():
        raise ValidationError("no jointly valid pixels for the prior loss")

    def log_residual(index):
        return np.log(depth.values.take(index)) - np.log(ref.values.take(index)), True

    g, _ = scatter_chunks(mask, log_residual)
    gv = g[mask]
    c_si = float((gv**2).mean() - gv.mean() ** 2)

    c_grad = 0.0
    grid, valid = g, mask
    for scale in range(4):
        if scale > 0:
            grid, valid = _pool2x2(grid, valid)
        c_grad += _grad_term(grid, valid)

    c_normal = _normal_term(depth, ref, mask, intrinsics)

    total = cfg.w_si * c_si + cfg.w_grad * c_grad + cfg.w_normal * c_normal
    return total, {"c_si": c_si, "c_grad": c_grad, "c_normal": c_normal}


def consistency_total(flow_term: float, temp_term: float, prior_term: float, cfg: LossConfig):
    """Weighted composite of the three consistency terms: each term times its
    weight (``w_flow``, ``w_temp``, ``w_prior``), and their sum. Returns
    (total, weighted terms by name)."""
    weighted = {
        "flow": cfg.w_flow * flow_term,
        "temp": cfg.w_temp * temp_term,
        "prior": cfg.w_prior * prior_term,
    }
    return weighted["flow"] + weighted["temp"] + weighted["prior"], weighted


def total_loss(conf_value: float, pose_value: float, consistency_value: float, cfg: LossConfig) -> float:
    """(supervised conf + pose) + lambda_consist * consistency."""
    return (conf_value + pose_value) + cfg.lambda_consist * consistency_value
