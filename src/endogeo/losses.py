"""Evaluators for the hybrid supervision objective.

Supervised terms (confidence-weighted pointmap loss, pose loss) reduce by
SUM over their elements; the self-supervised consistency terms (flow,
temporal, prior) reduce by MEAN over valid pixels so values are comparable
across validity counts. All functions are pure evaluators over immutable
rasters; none of this is differentiable machinery.

Loss functions that reduce over pixels return ``(value, raster, mask)``:
the per-pixel contribution raster (zero outside the mask) and the mask of
pixels that entered the reduction.

Every per-pixel kernel (:func:`induced_reprojection`, :func:`c_flow`,
:func:`c_temp`, and :func:`c_prior`'s log residual, gradient and normal terms)
computes only on its candidates, the pixels that can count, in the chunks of
flat indices of :func:`~endogeo.rasters.candidate_chunks`. :func:`_scatter`
writes the chunks into zero-filled full-size rasters and masks;
:func:`_kept_mean` only keeps the values that enter a mean. Either way a mean
runs over the values of ``raster[mask]`` in its row-major order, so no result
depends on the chunk size. The kernels read depth only at their candidates'
valid cells, and work in closed form: a point at depth z on the ray (x, y, 1)
moves to z * (R @ (x, y, 1)) + t (:func:`_mover`), and a surface normal is a
formula of four neighbour depths (:func:`_normals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .geometry import CameraIntrinsics, Pose, pixel_rays, project_planes
from .rasters import ConfidenceMap, DepthMap, FlowField, Pointmap, bilinear_sample, candidate_chunks, cell_coords, in_bounds


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
        if not 0 < self.alpha < math.inf:
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        for f in fields(self)[1:]:  # every weight after alpha
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{f.name} must be non-negative, got {value}")


@dataclass(frozen=True)
class NormalizationSpec:
    s_hat: float  # scale of the predicted set
    s: float      # scale of the reference set

    def __post_init__(self):
        if not (0 < self.s_hat < math.inf and 0 < self.s < math.inf):
            raise ValidationError(
                f"normalization scales must be positive and finite: s_hat={self.s_hat} s={self.s}"
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
    _require_same_shape(depth, k_from, "camera")
    move = _mover(motion)

    def targets(index):
        rays = pixel_rays(*cell_coords(index, depth.width), k_from)
        tu, tv, in_front = project_planes(*move(*rays, depth.values.take(index)), k_to)
        return np.stack([tu, tv], axis=-1), in_front

    return FlowField(*_scatter(depth.valid, targets, 2))


def _scatter(candidates: np.ndarray, kernel, *channels: int):
    """A zero-filled raster of the (H, W) shape of ``candidates`` (plus
    ``channels``) and a False-filled mask, with ``kernel(index) -> (values,
    ok)`` written at each chunk ``index`` of the True cells of ``candidates``."""
    raster = np.zeros(candidates.shape + channels)
    mask = np.zeros(candidates.shape, dtype=bool)
    flat_raster, flat_mask = raster.reshape((-1,) + channels), mask.reshape(-1)
    for index in candidate_chunks(candidates):
        flat_raster[index], flat_mask[index] = kernel(index)
    return raster, mask


def _kept_mean(candidates: np.ndarray, kernel) -> float:
    """Mean of the values that ``kernel(index)`` keeps at each chunk
    ``index`` of the True cells of ``candidates`` (0 if none): the bits of
    ``raster[mask].mean()`` for those of :func:`_scatter`, in the same order."""
    values = np.concatenate([np.empty(0)] + [kernel(index) for index in candidate_chunks(candidates)])
    return float(values.mean()) if values.size else 0.0


def _mover(motion: Pose, rows=(0, 1, 2)):
    """``(x, y, z) ->`` the ``rows`` of z * (R @ (x, y, 1)) + t, the points at
    depths z on the rays (x, y, 1) moved by ``motion``, with its rotation
    matrix R formed once here: 6 operations a row per point."""
    rotation, translation = motion.rotation.to_rotation_matrix().tolist(), motion.translation.tolist()
    moves = [(rotation[k], translation[k]) for k in rows]

    def move(x, y, z):
        return tuple(z * (r0 * x + r1 * y + r2) + t for (r0, r1, r2), t in moves)

    return move


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
    _require_same_shape(depth, k_from, "camera")
    _require_same_shape(depth, k_to, "camera")
    height, width = depth.values.shape
    vectors = flow.vectors.reshape(-1, 2)
    move = _mover(motion)

    def distance(index):
        u, v = cell_coords(index, width)
        tu, tv, in_front = project_planes(*move(*pixel_rays(u, v, k_from), depth.values.take(index)), k_to)
        du, dv = vectors.take(index, axis=0).T
        px, py = u + du, v + dv
        ok = in_front & np.isfinite(tu) & np.isfinite(tv) & in_bounds(px, py, width, height)
        return np.where(ok, np.abs(tu - px) + np.abs(tv - py), 0.0), ok

    raster, mask = _scatter(depth.valid & flow.valid, distance)
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
    ``k_j`` only fixes the size that ``depth_j`` must have: P_z comes from
    ``motion`` and D_j is sampled at p', so no target ray is formed.
    """
    _require_same_shape(depth_i, flow, "flow")
    _require_same_shape(depth_i, depth_j, "depth")
    _require_same_shape(depth_i, k_i, "camera")
    _require_same_shape(depth_j, k_j, "camera")
    vectors = flow.vectors.reshape(-1, 2)
    move_z = _mover(motion, rows=(2,))

    def ratio_error(index):
        u, v = cell_coords(index, depth_i.width)
        (p_z,) = move_z(*pixel_rays(u, v, k_i), depth_i.values.take(index))
        du, dv = vectors.take(index, axis=0).T
        sample, ok = bilinear_sample(depth_j.values, u + du, v + dv, depth_j.valid)
        ok &= (p_z > 0) & (sample > 0)
        pz_safe = np.where(ok, p_z, 1.0)
        s_safe = np.where(ok, sample, 1.0)
        ratio = np.maximum(pz_safe / s_safe, s_safe / pz_safe)
        return np.where(ok, np.abs(ratio - 1.0), 0.0), ok

    raster, mask = _scatter(depth_i.valid & flow.valid, ratio_error)
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
    _require_same_shape(depth, ref, "depth")
    _require_same_shape(depth, intrinsics, "camera")
    mask = depth.valid & ref.valid
    if not mask.any():
        raise ValidationError("no jointly valid pixels for the prior loss")

    def log_residual(index):
        return np.log(depth.values.take(index)) - np.log(ref.values.take(index)), True

    g, _ = _scatter(mask, log_residual)
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
