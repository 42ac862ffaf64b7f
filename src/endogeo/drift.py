"""Hierarchical drift correction: align each locally accurate segment to its
starting anchor, measure the residual transform at the next anchor, and spread
that residual over the segment's frames by interpolation, then stitch.

Error convention: each segment is corrected about its start anchor's
position c. Its two anchors and its aligned poses are taken in the frame of
the world shifted by -c, where the drift error is the LEFT multiplicative
transform E = next_anchor o inverse(aligned_end), so applying the full error
to the segment end lands exactly on the anchor. The interpolation parameter
is linear in frame index, and c is added back to every corrected pose. A
world-frame error would carry a lever arm (I - R_E) c that a linear spread
does not follow, so the result would depend on where the world origin is;
here it does not. The drift and residuals are reported in the shifted frame.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .geometry import PoseBatch, compose, inverse, pose_distance, pose_interp, quat_angles
from .trajectory import Trajectory, _check_anchors

# stitched output must sit on every anchor to within this
_ANCHOR_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SegmentCorrection:
    start_frame: int
    end_frame: int
    drift_rot_rad: float
    drift_trans_mm: float
    residual_rot_rad: float
    residual_trans_mm: float


@dataclass(frozen=True)
class CorrectionReport:
    segments: tuple
    max_anchor_residual_rot_rad: float
    max_anchor_residual_trans_mm: float

    def __post_init__(self):
        if (
            self.max_anchor_residual_rot_rad > _ANCHOR_RESIDUAL_TOL
            or self.max_anchor_residual_trans_mm > _ANCHOR_RESIDUAL_TOL
        ):
            raise NumericError(
                "post-correction anchor residual exceeds tolerance: "
                f"rot {self.max_anchor_residual_rot_rad:.3e} rad, "
                f"trans {self.max_anchor_residual_trans_mm:.3e} mm"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "n_segments": len(self.segments)}


def _segment_of(starts, n: int) -> np.ndarray:
    """The segment of each of ``n`` rows, for segments beginning at ``starts``."""
    return np.searchsorted(starts, np.arange(n), side="right") - 1


def _align(poses: PoseBatch, starts, anchors: PoseBatch) -> PoseBatch:
    """Left-multiply the rows of each segment so its first row, at ``starts``,
    becomes the segment's anchor. The first rows are replaced by the anchors
    themselves, so the pass-through is bit-exact."""
    moved = compose(compose(anchors, inverse(poses[starts]))[_segment_of(starts, len(poses))], poses)
    return moved.with_rows(starts, anchors)


def _distribute(frames, poses: PoseBatch, starts, ends, errors: PoseBatch) -> PoseBatch:
    """Apply pose_interp(error, t) to each row of a segment, t linear in frame
    index from 0 at its first row to 1 at its last; first rows stay as they are."""
    segment_of = _segment_of(starts, len(poses))
    f0 = frames[starts]
    t = (frames - f0[segment_of]) / (frames[ends] - f0)[segment_of]
    moved = compose(pose_interp(errors[segment_of], t), poses)
    return moved.with_rows(starts, poses[starts])


def compute_drift_error(aligned_end, next_anchor):
    """E = next_anchor o inverse(aligned_end); composing E with the end pose
    recovers the anchor. Poses or PoseBatches."""
    return compose(next_anchor, inverse(aligned_end))


def correct_long_trajectory(anchors: Trajectory, segments) -> tuple:
    """Run align -> drift error -> distribute on every segment, about its start
    anchor's position (see the module docstring), and stitch.

    ``anchors`` are at least 2 poses, at frames with gaps of any size;
    ``segments`` are Trajectories, one per consecutive anchor gap in order,
    each running from the gap's first frame to its last. Duplicate boundary
    frames are resolved in favor of the exact anchor pose. Returns
    (corrected Trajectory, CorrectionReport). All segments are corrected in
    one batch: each step is a handful of array operations over every frame.
    """
    anchor_frames = _check_anchors(anchors)
    segments = list(segments)
    if len(segments) != len(anchor_frames) - 1:
        raise ValidationError(
            f"expected {len(anchor_frames) - 1} segments for {len(anchor_frames)} "
            f"anchors, got {len(segments)}"
        )
    gaps = list(zip(anchor_frames[:-1].tolist(), anchor_frames[1:].tolist()))
    for seg, gap in zip(segments, gaps):
        span = (int(seg.frames[0]), int(seg.frames[-1])) if len(seg) else None
        if span != gap:
            got = "an empty segment" if span is None else "segment %d..%d" % span
            raise ValidationError(f"no segment covering anchor gap {gap[0]}..{gap[1]} (got {got})")

    lengths = np.array([len(seg) for seg in segments])
    ends = np.cumsum(lengths) - 1
    starts = ends - lengths + 1
    frames = np.concatenate([seg.frames for seg in segments])
    poses = PoseBatch.stack(seg.poses for seg in segments)
    # each segment about its start anchor's position c: moved by -c, its
    # start anchor sits at the origin, wherever the world's origin is
    origin = anchors.poses.trans[:-1]
    identity = np.tile([1.0, 0.0, 0.0, 0.0], (len(origin), 1))
    to_start = PoseBatch(identity, -origin)
    a_end = compose(to_start, anchors.poses[1:])

    aligned = _align(poses, starts, compose(to_start, anchors.poses[:-1]))
    errors = compute_drift_error(aligned[ends], a_end)
    corrected = _distribute(frames, aligned, starts, ends, errors)
    res_rot, res_trans = pose_distance(corrected[ends], a_end)
    drift_rot = quat_angles(errors.quat)
    tx, ty, tz = errors.trans.T
    # ** 0.5 on a float is libm's pow, which these reports have always used;
    # np.sqrt differs from it in the last bit on some inputs
    drift_trans = [sq**0.5 for sq in (tx * tx + ty * ty + tz * tz).tolist()]

    reports = []
    max_res_rot = 0.0
    max_res_trans = 0.0
    for (start, end), d_rot, d_trans, r_rot, r_trans in zip(
        gaps, drift_rot.tolist(), drift_trans, res_rot.tolist(), res_trans.tolist()
    ):
        reports.append(SegmentCorrection(start, end, d_rot, d_trans, r_rot, r_trans))
        max_res_rot = max(max_res_rot, r_rot)
        max_res_trans = max(max_res_trans, r_trans)

    # moved back by c, with exact anchor pass-through at both boundaries;
    # each inner boundary frame is emitted once, by the segment that ends there
    corrected = compose(PoseBatch(identity, origin)[_segment_of(starts, len(frames))], corrected)
    corrected = corrected.with_rows(starts, anchors.poses[:-1]).with_rows(ends, anchors.poses[1:])
    keep = np.ones(len(frames), dtype=bool)
    keep[starts[1:]] = False
    report = CorrectionReport(tuple(reports), max_res_rot, max_res_trans)
    return Trajectory(frames[keep], corrected[keep]), report
