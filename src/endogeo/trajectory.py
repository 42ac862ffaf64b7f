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
import numbers

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import read_text
from .geometry import Pose, PoseBatch

log = logging.getLogger(__name__)

# warn when a parsed quaternion deviates from unit norm by more than this
_NORM_WARN_TOL = 1e-3
_TUM_LINE = "%d" + " %.17g" * 7  # the same digits as format(value, ".17g")


def _exact_frame(entry):
    """A frame-list entry as an exact int, or None if it is no integral
    number within int64 (a bool or a string is no number here)."""
    if isinstance(entry, (bool, np.bool_)) or not isinstance(entry, numbers.Real):
        return None
    if not isinstance(entry, numbers.Integral):
        entry = float(entry)
        if not entry.is_integer():  # nor is NaN or inf
            return None
    value = int(entry)
    return value if -(2**63) <= value < 2**63 else None


def _not_a_frame(entry) -> ValidationError:
    return ValidationError(f"frame index must be a finite integral number, got {entry!r}")


def _check_frames(frames) -> np.ndarray:
    """``frames`` as a new (N,) int64 array: integral numbers within int64, not
    bools or strings, each above the one before and the first non-negative."""
    if not isinstance(frames, np.ndarray) or frames.dtype == object:
        # one by one, as numpy would read a bool among numbers as a number
        # and round a large integer among floats
        entries = np.array(frames, dtype=object).reshape(-1).tolist()
        exact = [_exact_frame(f) for f in entries]
        if None in exact:
            raise _not_a_frame(entries[exact.index(None)])
        frames = np.array(exact, dtype=np.int64)
    else:
        values = frames.reshape(-1) if frames.dtype.kind in "iuf" else np.full(frames.size, math.nan)
        # NaN fails every comparison, and inf the last one
        ok = (np.floor(values) == values) & (values >= -(2**63)) & (values < 2**63)
        if not ok.all():
            raise _not_a_frame(frames.reshape(-1)[int(np.argmin(ok))].item())
        frames = values.astype(np.int64)
    if len(frames) and frames[0] < 0:
        raise ValidationError(f"negative frame index {frames[0]}")
    steps = np.flatnonzero(frames[1:] <= frames[:-1])
    if steps.size:
        i = steps[0] + 1
        raise ValidationError(
            f"frame indices must be strictly increasing: {frames[i]} after {frames[i - 1]}"
        )
    return frames


class Trajectory:
    """Poses at strictly increasing, non-negative frame indices, held as
    read-only arrays: ``frames`` (N,) int64 and ``poses``, a
    :class:`~endogeo.geometry.PoseBatch` whose ``quat`` (N, 4) and ``trans``
    (N, 3) are also reachable as ``Trajectory.quat`` and ``Trajectory.trans``.

    ``Trajectory(entries)`` takes ``(frame, Pose)`` pairs;
    :meth:`from_poses` takes the arrays. Iteration and ``entries`` give the
    pairs back, with each Pose a scalar view of one row.
    """

    __slots__ = ("frames", "poses")
    __hash__ = None

    def __init__(self, entries=()):
        entries = tuple(entries)
        for i, entry in enumerate(entries):
            try:
                frame, pose = entry
            except (TypeError, ValueError):
                raise ValidationError(f"entry {i} is not a (frame, Pose) pair") from None
            if not isinstance(pose, Pose):
                raise ValidationError(f"entry at frame {frame} is not a Pose")
        self.frames = _check_frames([f for f, _ in entries])
        self.frames.flags.writeable = False
        self.poses = PoseBatch.stack(p for _, p in entries)

    @classmethod
    def from_poses(cls, frames, poses: PoseBatch) -> "Trajectory":
        """The trajectory with ``poses[i]`` at ``frames[i]``."""
        frames = _check_frames(frames)
        if len(frames) != len(poses):
            raise ValidationError(f"{len(frames)} frames for {len(poses)} poses")
        return cls._of(frames, poses)

    @classmethod
    def _of(cls, frames: np.ndarray, poses: PoseBatch) -> "Trajectory":
        traj = object.__new__(cls)
        frames.flags.writeable = False
        traj.frames, traj.poses = frames, poses
        return traj

    @property
    def quat(self) -> np.ndarray:
        return self.poses.quat

    @property
    def trans(self) -> np.ndarray:
        return self.poses.trans

    @property
    def entries(self) -> tuple:
        return tuple((frame, self.poses[i]) for i, frame in enumerate(self.frames.tolist()))

    def __len__(self):
        return len(self.frames)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self.frames, other.frames)
            and np.array_equal(self.quat, other.quat)
            and np.array_equal(self.trans, other.trans)
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
        i = int(self._rows(frame))
        if i < 0:
            raise ValidationError(f"frame {frame} not present in trajectory")
        return self.poses[i]

    def has_frame(self, frame: int) -> bool:
        return int(self._rows(frame)) >= 0

    def positions(self) -> np.ndarray:
        """The (N, 3) read-only translations."""
        if not len(self):
            raise ValidationError("trajectory is empty")
        return self.trans

    def restricted_to(self, frames) -> "Trajectory":
        wanted = sorted(set(int(f) for f in frames))
        rows = self._rows(wanted)
        if np.any(rows < 0):
            missing = [f for f, r in zip(wanted, rows.tolist()) if r < 0]
            raise ValidationError(f"frames not in trajectory: {missing}")
        return self.subset(rows)


def serialize_tum(trajectory: Trajectory) -> str:
    """One line per pose: ``frame tx ty tz qx qy qz qw`` (17-digit floats)."""
    lines = ["# frame tx ty tz qx qy qz qw"]
    for frame, (tx, ty, tz), (qw, qx, qy, qz) in zip(
        trajectory.frames.tolist(), trajectory.trans.tolist(), trajectory.quat.tolist()
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_tum(trajectory))


def _check_anchors(anchors: Trajectory) -> np.ndarray:
    """The frames of ``anchors``: at least 2, and every gap the size of the
    first, except the last gap, which may be shorter."""
    frames = anchors.frames
    if len(frames) < 2:
        raise ValidationError(f"need at least 2 anchors, got {len(frames)}")
    gaps = np.diff(frames)
    stride = gaps[0]
    uneven = np.flatnonzero(gaps[:-1] != stride)
    i = uneven[0] if uneven.size else len(gaps) - 1
    if uneven.size or gaps[i] > stride:
        raise ValidationError(
            f"anchor gap {frames[i]}..{frames[i + 1]} is {gaps[i]}, expected the first "
            f"gap {stride} (only the last gap may be shorter)"
        )
    return frames


def split_into_segments(local: Trajectory, anchors: Trajectory) -> list:
    """The Trajectory of ``local`` over each consecutive pair of anchor
    frames, both ends included, so neighbouring segments share a frame."""
    anchor_frames = _check_anchors(anchors)
    rows = local._rows(anchor_frames)
    if np.any(rows < 0):
        missing = anchor_frames[np.argmax(rows < 0)]
        raise ValidationError(f"anchor frame {missing} missing from local trajectory")
    return [local.subset(slice(a, b + 1)) for a, b in zip(rows.tolist(), rows[1:].tolist())]
