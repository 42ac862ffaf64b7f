"""Evaluation protocol: ATE, windowed RTE, and the five standard depth metrics.

ATE aligns predicted positions to ground truth (similarity by default, to
absorb monocular scale; rigid available) and reports the position RMSE in mm.
RTE compares relative poses of the entries a fixed number of frames apart
(default 16) and reports the RMSE of the translational error norm; the
rotational component is available as a secondary diagnostic. Depth
evaluation runs at a fixed resolution (default 256x192) with optional
per-map median scaling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .geometry import MAX_IMAGE_SIDE, compose, inverse, quat_angles, umeyama_align
from .rasters import DepthMap, _bilinear_taps
from .trajectory import Trajectory

ALIGN_MODES = ("sim3", "se3")  # ATE alignment: similarity or rigid
RTE_DEFAULT_WINDOW = 16


@dataclass(frozen=True)
class DepthEvalConfig:
    eval_width: int = 256
    eval_height: int = 192
    depth_min: float = 0.1
    depth_max: float = 150.0
    median_scaling: bool = True

    def __post_init__(self):
        if not (0 < self.eval_width <= MAX_IMAGE_SIDE and 0 < self.eval_height <= MAX_IMAGE_SIDE):
            raise ValidationError(
                f"eval resolution must be 1..{MAX_IMAGE_SIDE} px per side, "
                f"got {self.eval_width}x{self.eval_height}"
            )
        if not (0 < self.depth_min < self.depth_max):
            raise ValidationError(
                f"need 0 < depth_min < depth_max, got [{self.depth_min}, {self.depth_max}]"
            )


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta_1_25: float
    n_pixels: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_same_frames(pred: Trajectory, gt: Trajectory) -> None:
    if not np.array_equal(pred.frames, gt.frames):
        raise ValidationError(
            "trajectories cover different frame sets "
            f"({len(pred)} vs {len(gt)} entries)"
        )


def ate(pred: Trajectory, gt: Trajectory, align: str = "sim3") -> float:
    """Position RMSE (mm) after global alignment of pred onto gt."""
    if align not in ALIGN_MODES:
        raise ValidationError(f"align must be {' or '.join(map(repr, ALIGN_MODES))}, got {align!r}")
    _check_same_frames(pred, gt)
    if len(pred) < 2:
        raise ValidationError(f"ATE needs at least 2 common frames, got {len(pred)}")
    p = pred.positions()
    g = gt.positions()
    transform = umeyama_align(p, g, with_scale=(align == "sim3"))
    residual = transform.apply(p) - g
    return float(np.sqrt((residual**2).sum(axis=1).mean()))


def rte(pred: Trajectory, gt: Trajectory, window: int = RTE_DEFAULT_WINDOW) -> float:
    """RMSE (mm) of the translational relative-pose error over the window."""
    return rpe(pred, gt, window)[0]


def _rpe_pairs(traj: Trajectory, window: int):
    """(i, j) index arrays of the entries whose frames are ``window`` apart,
    frames[j] = frames[i] + window, as the TUM benchmark pairs them."""
    frames = traj.frames
    if not len(frames) or window > int(frames[-1] - frames[0]):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    j = traj._rows(frames + window)
    return np.flatnonzero(j >= 0), j[j >= 0]


def rpe(pred: Trajectory, gt: Trajectory, window: int = RTE_DEFAULT_WINDOW) -> tuple:
    """(translation RMSE mm, rotation RMSE rad) of windowed relative-pose errors.

    ``window`` is a frame delta: each entry i is paired with the entry j whose
    frame is frame_i + window, if there is one. Then E = inverse(rel_gt) o
    rel_pred with rel = inverse(pose_i) o pose_j.
    """
    if window <= 0:
        raise ValidationError(f"window must be positive, got {window}")
    _check_same_frames(pred, gt)
    i, j = _rpe_pairs(pred, window)
    if not len(i):
        raise ValidationError(
            f"trajectory too short for window {window}: no two of its {len(pred)} "
            f"entries are {window} frames apart"
        )
    rel_pred = compose(inverse(pred.poses[i]), pred.poses[j])
    rel_gt = compose(inverse(gt.poses[i]), gt.poses[j])
    err = compose(inverse(rel_gt), rel_pred)
    tx, ty, tz = err.trans.T
    trans_sq = tx * tx + ty * ty + tz * tz
    rot_sq = [a**2 for a in quat_angles(err.quat).tolist()]
    return (
        float(np.sqrt(np.mean(trans_sq))),
        float(np.sqrt(np.mean(rot_sq))),
    )


def resize_depth(depth: DepthMap, out_width: int, out_height: int) -> DepthMap:
    """Validity-aware bilinear resize; identity (bit-exact) when sizes match.

    Output pixel centres map to input coordinates clamped into the image.
    Each output pixel averages its valid bilinear neighbors with renormalized
    weights (normalized convolution); it is invalid only when all contributing
    neighbors are invalid. Values under invalid pixels never enter the sum.
    """
    if (depth.width, depth.height) == (out_width, out_height):
        return depth
    in_h, in_w = depth.values.shape
    sx = in_w / out_width
    sy = in_h / out_height
    u = np.clip((np.arange(out_width, dtype=np.float64) + 0.5) * sx - 0.5, 0.0, in_w - 1)
    v = np.clip((np.arange(out_height, dtype=np.float64) + 0.5) * sy - 0.5, 0.0, in_h - 1)
    _, taps = _bilinear_taps(u[None, :], v[:, None], in_w, in_h)
    valid = depth.valid.reshape(-1)
    values = np.where(valid, depth.values.reshape(-1), 0.0)
    total = np.zeros((out_height, out_width))
    wsum = np.zeros((out_height, out_width))
    for w, index in taps:
        contrib = np.where(valid.take(index), w, 0.0)
        total += contrib * values.take(index)
        wsum += contrib
    ok = wsum > 1e-12
    values = np.where(ok, total / np.where(ok, wsum, 1.0), 0.0)
    return DepthMap(values, ok)


def depth_metrics(pred: DepthMap, gt: DepthMap, cfg: DepthEvalConfig) -> DepthMetrics:
    """abs_rel, sq_rel, rmse, rmse_log, and delta < 1.25 (strict) over pixels
    where gt lies in [depth_min, depth_max] and pred is valid, after resizing
    both maps to the eval resolution and optional median scaling."""
    pred = resize_depth(pred, cfg.eval_width, cfg.eval_height)
    gt = resize_depth(gt, cfg.eval_width, cfg.eval_height)
    mask = (
        gt.valid
        & pred.valid
        & (gt.values >= cfg.depth_min)
        & (gt.values <= cfg.depth_max)
    )
    n = int(mask.sum())
    if n == 0:
        raise ValidationError("no valid pixels for depth evaluation")
    p = pred.values[mask]
    g = gt.values[mask]
    if cfg.median_scaling:
        ratio = float(np.median(g)) / float(np.median(p))
        p = p * ratio
    diff = p - g
    abs_rel = float((np.abs(diff) / g).mean())
    sq_rel = float((diff**2 / g).mean())
    rmse = float(np.sqrt((diff**2).mean()))
    log_diff = np.log(p) - np.log(g)
    rmse_log = float(np.sqrt((log_diff**2).mean()))
    thresh = np.maximum(p / g, g / p)
    delta = float((thresh < 1.25).sum() / n)
    return DepthMetrics(abs_rel, sq_rel, rmse, rmse_log, delta, n)
