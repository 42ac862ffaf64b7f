"""Trajectory container, anchor segmentation, and TUM-style text serialization.

Frame indices double as timestamps: the data is fixed-rate video, so the
integer frame index is the only time axis. Files use the TUM line layout
``t tx ty tz qx qy qz qw`` with '#' comments; floats are written with 17
significant digits so that ``parse_tum(serialize_tum(T))`` reproduces ``T``
bit for bit.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import FormatError, ValidationError, integer
from .fileio import read_text, write_text
from .geometry import Pose, PoseBatch

log = logging.getLogger(__name__)

# warn when a parsed quaternion deviates from unit norm by more than this
_NORM_WARN_TOL = 1e-3
_TUM_LINE = "%d" + " %.17g" * 7  # the same digits as format(value, ".17g")


def _frame(value) -> int:
    """``value`` as a frame index: :func:`~endogeo.errors.integer`, in [0, 2**63)."""
    frame = integer(value, "frame index", low=0)
    if frame >= 2**63:
        raise ValidationError(f"frame index must be below 2**63, got {value!r}")
    return frame


def _frames(value) -> np.ndarray:
    """``value`` as a new (N,) int64 array of frame indices: a 1-D numpy int or
    uint array taken as it is, anything else read entry by entry through
    :func:`_frame`."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.ndim == 1:
        frames = value.astype(np.int64)  # a uint64 from 2**63 on wraps negative
        if np.any(frames < 0):
            _frame(value[np.argmax(frames < 0)].item())  # raises, naming the first bad entry
        return frames
    try:
        entries = list(value)
    except TypeError:
        raise ValidationError(f"frames must be an iterable of frame indices, got {value!r}") from None
    return np.array([_frame(v) for v in entries], dtype=np.int64)


class Trajectory:
    """Poses at strictly increasing, non-negative frame indices, held as
    read-only arrays: ``frames`` (N,) int64 and ``poses``, a
    :class:`~endogeo.geometry.PoseBatch` whose ``quat`` (N, 4) and ``trans``
    (N, 3) hold the rotations and positions.

    ``Trajectory(frames, poses)`` puts ``poses[i]`` at ``frames[i]``; each
    frame is an integral number in [0, 2**63), numpy's included but no bool,
    float or string. ``poses[i]`` gives one pose as a :class:`Pose`.
    """

    __slots__ = ("frames", "poses")
    __hash__ = None

    def __init__(self, frames, poses: PoseBatch):
        if not isinstance(poses, PoseBatch):
            raise ValidationError(f"poses must be a PoseBatch, got {type(poses).__name__}")
        frames = _frames(frames)
        steps = np.flatnonzero(frames[1:] <= frames[:-1])
        if steps.size:
            i = steps[0] + 1
            raise ValidationError(
                f"frame indices must be strictly increasing: {frames[i]} after {frames[i - 1]}"
            )
        if len(frames) != len(poses):
            raise ValidationError(f"{len(frames)} frames for {len(poses)} poses")
        frames.flags.writeable = False
        self.frames, self.poses = frames, poses

    @classmethod
    def _of(cls, frames: np.ndarray, poses: PoseBatch) -> "Trajectory":
        traj = object.__new__(cls)
        frames.flags.writeable = False
        traj.frames, traj.poses = frames, poses
        return traj

    def __len__(self):
        return len(self.frames)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self.frames, other.frames)
            and np.array_equal(self.poses.quat, other.poses.quat)
            and np.array_equal(self.poses.trans, other.poses.trans)
        )

    def __repr__(self):
        if not len(self):
            return "Trajectory(empty)"
        return f"Trajectory({len(self)} poses, frames {self.frames[0]}..{self.frames[-1]})"

    def subset(self, index) -> "Trajectory":
        """The entries at ``index``: a slice, a boolean mask or sorted positions."""
        return Trajectory._of(self.frames[index], self.poses[index])

    def _rows(self, frames) -> np.ndarray:
        """Positions of ``frames`` in the trajectory, -1 where absent."""
        frames = np.asarray(frames)
        rows = np.searchsorted(self.frames, frames)
        found = (rows < len(self)) & (np.append(self.frames, 0)[rows] == frames)
        return np.where(found, rows, -1)

    def pose_at(self, frame: int) -> Pose:
        i = int(self._rows(_frame(frame)))
        if i < 0:
            raise ValidationError(f"frame {frame} not present in trajectory")
        return self.poses[i]

    def has_frame(self, frame: int) -> bool:
        return int(self._rows(_frame(frame))) >= 0

    def restricted_to(self, frames) -> "Trajectory":
        wanted = np.unique(_frames(frames))
        rows = self._rows(wanted)
        if np.any(rows < 0):
            missing = wanted[rows < 0].tolist()
            raise ValidationError(f"frames not in trajectory: {missing}")
        return self.subset(rows)


def serialize_tum(trajectory: Trajectory) -> str:
    """One line per pose: ``frame tx ty tz qx qy qz qw`` (17-digit floats)."""
    lines = ["# frame tx ty tz qx qy qz qw"]
    for frame, (tx, ty, tz), (qw, qx, qy, qz) in zip(
        trajectory.frames.tolist(), trajectory.poses.trans.tolist(), trajectory.poses.quat.tolist()
    ):
        lines.append(_TUM_LINE % (frame, tx, ty, tz, qx, qy, qz, qw))
    return "\n".join(lines) + "\n"


def parse_tum(text: str, *, path=None) -> Trajectory:
    frames = []
    rows = []
    prev_frame = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise FormatError(
                f"expected 8 fields, got {len(parts)}", path=path, line=line_no
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"non-numeric field: {exc}", path=path, line=line_no) from None
        if not all(map(math.isfinite, values)):
            raise FormatError("non-finite field", path=path, line=line_no)
        try:
            frame = int(parts[0])  # exact, however many digits
        except ValueError:  # 5.0 or 1e3: a float, so exact only below 2**53
            frame = int(values[0]) if values[0].is_integer() and abs(values[0]) < 2**53 else -1
        if not 0 <= frame < 2**63:
            raise FormatError(
                f"frame index must be an integer in [0, 2**63), written as an integer "
                f"literal from 2**53 on, got {parts[0]}",
                path=path,
                line=line_no,
            )
        if frame <= prev_frame:
            raise FormatError(
                f"frame indices must be strictly increasing, got {frame} after {prev_frame}",
                path=path,
                line=line_no,
            )
        prev_frame = frame
        _, tx, ty, tz, qx, qy, qz, qw = values
        norm = (qw * qw + qx * qx + qy * qy + qz * qz) ** 0.5
        if abs(norm - 1.0) > _NORM_WARN_TOL:
            log.warning(
                "quaternion at %sline %d has norm %.6g; normalizing",
                f"{path} " if path else "",
                line_no,
                norm,
            )
        if norm == 0.0:
            raise FormatError("zero quaternion", path=path, line=line_no)
        if norm == math.inf:
            raise FormatError("quaternion norm overflows", path=path, line=line_no)
        frames.append(frame)
        rows.append((qw, qx, qy, qz, tx, ty, tz))
    table = np.array(rows, dtype=np.float64).reshape(-1, 7)
    poses = PoseBatch(table[:, :4], table[:, 4:])
    return Trajectory._of(np.array(frames, dtype=np.int64), poses)


def load_tum(path) -> Trajectory:
    return parse_tum(read_text(path), path=str(path))


def save_tum(path, trajectory: Trajectory) -> None:
    write_text(path, serialize_tum(trajectory))


def _check_anchors(anchors: Trajectory) -> np.ndarray:
    """The frames of ``anchors``, at least 2; gaps of any size."""
    if len(anchors) < 2:
        raise ValidationError(f"need at least 2 anchors, got {len(anchors)}")
    return anchors.frames


def split_into_segments(local: Trajectory, anchors: Trajectory) -> list:
    """The Trajectory of ``local`` over each consecutive pair of anchor
    frames, both ends included, so neighbouring segments share a frame."""
    anchor_frames = _check_anchors(anchors)
    rows = local._rows(anchor_frames)
    if np.any(rows < 0):
        missing = anchor_frames[np.argmax(rows < 0)]
        raise ValidationError(f"anchor frame {missing} missing from local trajectory")
    return [local.subset(slice(a, b + 1)) for a, b in zip(rows.tolist(), rows[1:].tolist())]
