"""Hierarchical drift correction: align each locally accurate segment to its
starting anchor, measure the residual transform at the next anchor, and spread
that residual over the segment's frames by interpolation, then stitch.

Error convention: the drift error is the LEFT multiplicative transform in the
world frame, E = next_anchor o inverse(aligned_end), so applying the full
error to the segment end lands exactly on the anchor. The interpolation
parameter is linear in frame index.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import NumericError, ValidationError
from .geometry import Pose, compose, inverse, pose_distance, pose_interp
from .trajectory import AnchorSet, LocalSegment, Trajectory

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


def align_segment_start(segment: LocalSegment, anchor_pose: Pose) -> LocalSegment:
    """Left-multiply every pose so the first one equals ``anchor_pose`` exactly.

    Relative poses inside the segment are untouched; the first entry is
    replaced by ``anchor_pose`` itself so the pass-through is bit-exact.
    """
    t = compose(anchor_pose, inverse(segment.first_pose()))
    aligned = [(segment.trajectory.entries[0][0], anchor_pose)]
    for frame, pose in segment.trajectory.entries[1:]:
        aligned.append((frame, compose(t, pose)))
    return LocalSegment(
        Trajectory(tuple(aligned)), segment.start_anchor_frame, segment.end_anchor_frame
    )


def compute_drift_error(aligned_end: Pose, next_anchor: Pose) -> Pose:
    """E = next_anchor o inverse(aligned_end); composing E with the end pose
    recovers the anchor."""
    return compose(next_anchor, inverse(aligned_end))


def distribute_drift(segment: LocalSegment, error: Pose) -> LocalSegment:
    """Apply pose_interp(error, t_i) to each pose, t_i linear in frame index.

    The first pose receives t = 0 and is left untouched (same object); the
    last receives the full error.
    """
    entries = segment.trajectory.entries
    if len(entries) < 2:
        raise ValidationError(
            f"cannot distribute drift over a segment of length {len(entries)}"
        )
    f0 = entries[0][0]
    f1 = entries[-1][0]
    span = f1 - f0
    corrected = [entries[0]]
    for frame, pose in entries[1:]:
        t = (frame - f0) / span
        corrected.append((frame, compose(pose_interp(error, t), pose)))
    return LocalSegment(
        Trajectory(tuple(corrected)), segment.start_anchor_frame, segment.end_anchor_frame
    )


def correct_long_trajectory(anchors: AnchorSet, segments) -> tuple:
    """Run align -> drift error -> distribute per segment and stitch.

    Segments must cover every consecutive anchor gap in order. Duplicate
    boundary frames are resolved in favor of the exact anchor pose. Returns
    (corrected Trajectory, CorrectionReport).
    """
    anchor_frames = anchors.frames
    if len(anchor_frames) < 2:
        raise ValidationError("need at least 2 anchors to correct a trajectory")
    segments = list(segments)
    if len(segments) != len(anchor_frames) - 1:
        raise ValidationError(
            f"expected {len(anchor_frames) - 1} segments for {len(anchor_frames)} "
            f"anchors, got {len(segments)}"
        )
    for seg, (fa, fb) in zip(segments, zip(anchor_frames, anchor_frames[1:])):
        if seg.start_anchor_frame != fa or seg.end_anchor_frame != fb:
            raise ValidationError(
                f"no segment covering anchor gap {fa}..{fb} "
                f"(got segment {seg.start_anchor_frame}..{seg.end_anchor_frame})"
            )

    out_entries = []
    reports = []
    max_res_rot = 0.0
    max_res_trans = 0.0
    for i, seg in enumerate(segments):
        a_start = anchors.trajectory.pose_at(seg.start_anchor_frame)
        a_end = anchors.trajectory.pose_at(seg.end_anchor_frame)
        aligned = align_segment_start(seg, a_start)
        error = compute_drift_error(aligned.last_pose(), a_end)
        corrected = distribute_drift(aligned, error)
        res_rot, res_trans = pose_distance(corrected.last_pose(), a_end)
        drift_rot = error.rotation.angle()
        drift_trans = float((error.translation**2).sum() ** 0.5)
        reports.append(
            SegmentCorrection(
                seg.start_anchor_frame,
                seg.end_anchor_frame,
                drift_rot,
                drift_trans,
                res_rot,
                res_trans,
            )
        )
        max_res_rot = max(max_res_rot, res_rot)
        max_res_trans = max(max_res_trans, res_trans)

        entries = list(corrected.trajectory.entries)
        # exact anchor pass-through at both boundaries
        entries[0] = (entries[0][0], a_start)
        entries[-1] = (entries[-1][0], a_end)
        if i > 0:
            entries = entries[1:]  # boundary frame already emitted by previous segment
        out_entries.extend(entries)

    report = CorrectionReport(tuple(reports), max_res_rot, max_res_trans)
    return Trajectory(tuple(out_entries)), report
