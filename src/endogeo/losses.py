"""Evaluators for the hybrid supervision objective.

Supervised terms (confidence-weighted pointmap loss, pose loss) reduce by
SUM over their elements; the self-supervised consistency terms (flow,
temporal, prior) reduce by MEAN over valid pixels so values are comparable
across validity counts. All functions are pure evaluators over immutable
rasters; none of this is differentiable machinery.

Loss functions that reduce over pixels return ``(value, raster, mask)``:
the per-pixel contribution raster (zero outside the mask) and the mask of
pixels that entered the reduction.

:func:`c_flow`, :func:`c_temp` and the normal term of :func:`c_prior` run in
the row bands of :func:`~endogeo.rasters.row_blocks`: each band builds its own
pixel grid and rays and writes its rows of a full-size raster and mask. Every
scalar is still one mean over the full raster and mask, so the values, rasters
and masks do not depend on the band size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .geometry import CameraIntrinsics, Pose, _cross, pixel_grid, pixel_rays, project_planes
from .rasters import ConfidenceMap, DepthMap, FlowField, Pointmap, bilinear_sample, in_bounds, row_blocks


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
    uncertainty_constant: float = 1.0  # scalar stand-in for per-pixel uncertainty maps

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        for f in fields(self)[1:]:  # every weight after alpha
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{f.name} must be non-negative, got {value}")


@dataclass(frozen=True)
class NormalizationSpec:
    s_hat: float  # scale of the predicted set
    s: float      # scale of the reference set

    def __post_init__(self):
        if not (self.s_hat > 0 and self.s > 0):
            raise ValidationError(
                f"normalization scales must be positive: s_hat={self.s_hat} s={self.s}"
            )


def point_set_scale(pointmap: Pointmap) -> float:
    """Mean Euclidean norm of the valid points."""
    if not pointmap.valid.any():
        raise ValidationError("pointmap has no valid points")
    norms = np.sqrt((pointmap.points**2).sum(axis=2))
    return float(norms[pointmap.valid].mean())


def _require_same_shape(a, b, what: str):
    if (a.height, a.width) != (b.height, b.width):
        raise ValidationError(
            f"{what} dimensions differ: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def conf_loss(pred: Pointmap, ref: Pointmap, conf: ConfidenceMap, cfg: LossConfig):
    """Sum over jointly valid pixels of c * ||x/s_hat - y/s||_2 - alpha * log c.

    s_hat and s are the per-map point-set scales, so a uniform scaling of
    either map cancels out.
    """
    _require_same_shape(pred, ref, "pointmap")
    _require_same_shape(pred, conf, "confidence")
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


def pose_loss(pred, ref, norms: NormalizationSpec) -> float:
    """Sum over frames of ||q_hat - q||_2 + ||t_hat/s_hat - t/s||_2, with the
    quaternion sign chosen per frame to minimize the first term."""
    pred = list(pred)
    ref = list(ref)
    if len(pred) != len(ref):
        raise ValidationError(f"pose list lengths differ: {len(pred)} vs {len(ref)}")
    if not pred:
        raise ValidationError("pose lists are empty")
    total = 0.0
    for p, r in zip(pred, ref):
        qp = np.array([p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z])
        qr = np.array([r.rotation.w, r.rotation.x, r.rotation.y, r.rotation.z])
        q_term = min(
            float(np.sqrt(((qp - qr) ** 2).sum())), float(np.sqrt(((qp + qr) ** 2).sum()))
        )
        t_diff = p.translation / norms.s_hat - r.translation / norms.s
        total += q_term + float(np.sqrt((t_diff**2).sum()))
    return total


def induced_reprojection(
    depth: DepthMap,
    k_from: CameraIntrinsics,
    k_to: CameraIntrinsics,
    motion: Pose,
) -> FlowField:
    """Per-pixel target coordinates u(p) = project(motion(unproject(p, D(p)))).

    ``motion`` maps source-camera coordinates to target-camera coordinates.
    Returns absolute target coordinates (not deltas); pixels whose transformed
    z is non-positive, or whose depth is invalid, are masked out.
    """
    _, _, (u, v, in_front) = _reproject(depth, k_from, k_to, motion)
    return FlowField(np.stack([u, v], axis=-1), in_front)


def _reproject(
    depth: DepthMap, k_from: CameraIntrinsics, k_to: CameraIntrinsics, motion: Pose, rows: slice = slice(None)
):
    """The pixel planes (u, v) of ``rows`` and their reprojection
    ``(u', v', in_front)`` by :func:`induced_reprojection`."""
    u, v = pixel_grid(depth.width, depth.height, rows)
    # NaN at invalid depth keeps those pixels out of project_planes' z > 0 mask
    z = np.where(depth.valid[rows], depth.values[rows], np.nan)
    return u, v, project_planes(*_moved_points(u, v, z, k_from, motion), k_to)


def _moved_points(u, v, z, intrinsics: CameraIntrinsics, motion: Pose):
    """The x, y and z planes of the points at depth ``z`` on the rays through
    pixels (u, v), moved by ``motion``."""
    x, y = pixel_rays(u, v, intrinsics)
    return motion.transform_planes(x * z, y * z, z)


def c_flow(
    depth: DepthMap,
    k_from: CameraIntrinsics,
    k_to: CameraIntrinsics,
    motion: Pose,
    flow: FlowField,
):
    """Mean L1 distance between the depth/pose-induced reprojection of
    :func:`induced_reprojection` and the flow target p' = p + flow. A pixel
    counts where the moved point is in front of the camera, its reprojection
    is finite, its flow is valid and p' is in bounds."""
    _require_same_shape(depth, flow, "flow")
    height, width = depth.values.shape
    raster = np.empty((height, width))
    mask = np.empty((height, width), dtype=bool)
    for rows in row_blocks(height, width):
        u, v, (tu, tv, in_front) = _reproject(depth, k_from, k_to, motion, rows)
        px = u + flow.vectors[rows, :, 0]
        py = v + flow.vectors[rows, :, 1]
        ok = in_front & np.isfinite(tu) & np.isfinite(tv) & flow.valid[rows]
        ok &= in_bounds(px, py, width, height)
        mask[rows] = ok
        raster[rows] = np.where(ok, np.abs(tu - px) + np.abs(tv - py), 0.0)
    if not mask.any():
        raise ValidationError("no valid pixels for the flow-consistency loss")
    return float(raster[mask].mean()), raster, mask


def c_temp(
    depth_i: DepthMap,
    depth_j: DepthMap,
    k_i: CameraIntrinsics,
    k_j: CameraIntrinsics,
    motion: Pose,
    flow: FlowField,
):
    """Mean of |max(P_z / D_j(p'), D_j(p') / P_z) - 1| over usable pixels.

    P_z is the z of the unprojected source pixel moved into the target frame;
    D_j is sampled bilinearly at p' = p + flow and the sample is rejected if
    any of the four neighbors is invalid or the location is out of bounds.
    """
    _require_same_shape(depth_i, flow, "flow")
    height, width = depth_i.values.shape
    raster = np.empty((height, width))
    mask = np.empty((height, width), dtype=bool)
    for rows in row_blocks(height, width):
        u, v = pixel_grid(width, height, rows)
        p_z = _moved_points(u, v, depth_i.values[rows], k_i, motion)[2]
        px = u + flow.vectors[rows, :, 0]
        py = v + flow.vectors[rows, :, 1]
        sample, ok = bilinear_sample(depth_j.values, px, py, depth_j.valid)
        ok &= depth_i.valid[rows] & flow.valid[rows] & (p_z > 0) & (sample > 0)
        pz_safe = np.where(ok, p_z, 1.0)
        s_safe = np.where(ok, sample, 1.0)
        ratio = np.maximum(pz_safe / s_safe, s_safe / pz_safe)
        mask[rows] = ok
        raster[rows] = np.where(ok, np.abs(ratio - 1.0), 0.0)
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
    height, width = grid.shape
    if height < 2 or width < 2:
        return 0.0
    ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1]
    if not ok.any():
        return 0.0
    gx = np.abs(grid[:-1, 1:] - grid[:-1, :-1])
    gy = np.abs(grid[1:, :-1] - grid[:-1, :-1])
    return float((gx + gy)[ok].mean())


def _normals(points):
    """Unnormalized surface normals at interior pixels via central differences
    of the x, y, z planes of an (H, W) pointmap; three (H-2, W-2) planes."""
    tx = tuple(c[1:-1, 2:] - c[1:-1, :-2] for c in points)
    ty = tuple(c[2:, 1:-1] - c[:-2, 1:-1] for c in points)
    return _cross(tx, ty)


def _sq_norm(v):
    """Squared Euclidean norm of the 3-plane vector ``v``, summed left to right."""
    return v[0] ** 2 + v[1] ** 2 + v[2] ** 2


def _normal_term(depth: DepthMap, ref: DepthMap, mask, intrinsics: CameraIntrinsics) -> float:
    """Mean (1 - cos angle) between the surface normals of ``depth`` and
    ``ref`` over the interior pixels whose 5-point cross lies in ``mask`` and
    whose normals are both nonzero; 0 when there are none. Needs H, W >= 3."""
    height, width = mask.shape
    half_sq = np.empty((height - 2, width - 2))
    usable = np.empty((height - 2, width - 2), dtype=bool)
    for rows in row_blocks(height - 2, width):
        # interior row i is image row i + 1: its normals read image rows i..i+2
        halo = slice(rows.start, rows.stop + 2)
        m = mask[halo]
        x, y = pixel_rays(*pixel_grid(width, height, halo), intrinsics)
        d, r = depth.values[halo], ref.values[halo]
        n_d = _normals((x * d, y * d, d))
        n_r = _normals((x * r, y * r, r))
        norm_d = np.sqrt(_sq_norm(n_d))
        norm_r = np.sqrt(_sq_norm(n_r))
        ok = m[1:-1, 1:-1] & m[1:-1, 2:] & m[1:-1, :-2] & m[2:, 1:-1] & m[:-2, 1:-1]
        ok &= (norm_d > 0) & (norm_r > 0)
        # 1 - cos(angle) computed as 0.5 * ||u_d - u_r||^2 on the unit
        # normals: algebraically identical, but exactly 0 for identical
        # maps and never negative under rounding.
        safe_d, safe_r = np.where(ok, norm_d, 1.0), np.where(ok, norm_r, 1.0)
        half_sq[rows] = 0.5 * _sq_norm([a / safe_d - b / safe_r for a, b in zip(n_d, n_r)])
        usable[rows] = ok
    return float(half_sq[usable].mean()) if usable.any() else 0.0


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
    _require_same_shape(depth, ref, "depth")
    mask = depth.valid & ref.valid
    if not mask.any():
        raise ValidationError("no jointly valid pixels for the prior loss")
    safe_d = np.where(mask, depth.values, 1.0)
    safe_r = np.where(mask, ref.values, 1.0)
    g = np.where(mask, np.log(safe_d) - np.log(safe_r), 0.0)
    gv = g[mask]
    c_si = float((gv**2).mean() - gv.mean() ** 2)

    c_grad = 0.0
    grid, valid = g, mask
    for scale in range(4):
        if scale > 0:
            if grid.shape[0] < 2 or grid.shape[1] < 2:
                break
            grid, valid = _pool2x2(grid, valid)
        c_grad += _grad_term(grid, valid)

    height, width = mask.shape
    c_normal = _normal_term(depth, ref, mask, intrinsics) if height >= 3 and width >= 3 else 0.0

    total = cfg.w_si * c_si + cfg.w_grad * c_grad + cfg.w_normal * c_normal
    return total, {"c_si": c_si, "c_grad": c_grad, "c_normal": c_normal}


def consistency_total(flow_term: float, temp_term: float, prior_term: float, cfg: LossConfig):
    """Weighted composite of the three consistency terms. The scalar
    uncertainty constant multiplies the flow and temporal terms (the terms
    that carried per-pixel uncertainty in the method this evaluator mirrors)."""
    weighted = {
        "flow": cfg.uncertainty_constant * cfg.w_flow * flow_term,
        "temp": cfg.uncertainty_constant * cfg.w_temp * temp_term,
        "prior": cfg.w_prior * prior_term,
    }
    return weighted["flow"] + weighted["temp"] + weighted["prior"], weighted


def total_loss(conf_value: float, pose_value: float, consistency_value: float, cfg: LossConfig) -> float:
    """(supervised conf + pose) + lambda_consist * consistency."""
    return (conf_value + pose_value) + cfg.lambda_consist * consistency_value
