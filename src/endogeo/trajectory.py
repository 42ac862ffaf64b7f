"""Trajectory containers, anchor segmentation, and TUM-style text serialization.

Frame indices double as timestamps: the data is fixed-rate video, so the
integer frame index is the only time axis. Files use the TUM line layout
``t tx ty tz qx qy qz qw`` with '#' comments; floats are written with 17
significant digits so that ``parse_tum(serialize_tum(T))`` reproduces ``T``
bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import read_text
from .geometry import Pose, Quaternion

log = logging.getLogger(__name__)

# warn when a parsed quaternion deviates from unit norm by more than this
_NORM_WARN_TOL = 1e-3


@dataclass(frozen=True)
class Trajectory:
    entries: tuple

    # frame -> position in entries, built once; excluded from equality/repr
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple((int(f), p) for f, p in self.entries)
        index = {}
        prev = -1
        for frame, pose in entries:
            if frame < 0:
                raise ValidationError(f"negative frame index {frame}")
            if frame <= prev:
                raise ValidationError(
                    f"frame indices must be strictly increasing: {frame} after {prev}"
                )
            if not isinstance(pose, Pose):
                raise ValidationError(f"entry at frame {frame} is not a Pose")
            index[frame] = pose
            prev = frame
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def frames(self) -> tuple:
        return tuple(f for f, _ in self.entries)

    @property
    def poses(self) -> tuple:
        return tuple(p for _, p in self.entries)

    def pose_at(self, frame: int) -> Pose:
        try:
            return self._index[frame]
        except KeyError:
            raise ValidationError(f"frame {frame} not present in trajectory") from None

    def has_frame(self, frame: int) -> bool:
        return frame in self._index

    def first(self):
        self._require_nonempty()
        return self.entries[0]

    def last(self):
        self._require_nonempty()
        return self.entries[-1]

    def positions(self) -> np.ndarray:
        self._require_nonempty()
        return np.stack([p.translation for _, p in self.entries])

    def restricted_to(self, frames) -> "Trajectory":
        wanted = set(int(f) for f in frames)
        missing = wanted - set(self._index)
        if missing:
            raise ValidationError(f"frames not in trajectory: {sorted(missing)}")
        return Trajectory(tuple(e for e in self.entries if e[0] in wanted))

    def _require_nonempty(self):
        if not self.entries:
            raise ValidationError("trajectory is empty")


@dataclass(frozen=True)
class AnchorSet:
    trajectory: Trajectory
    stride: int

    def __post_init__(self):
        if self.stride <= 0:
            raise ValidationError(f"anchor stride must be positive, got {self.stride}")
        frames = self.trajectory.frames
        if not frames:
            raise ValidationError("anchor trajectory is empty")
        gaps = [b - a for a, b in zip(frames, frames[1:])]
        for i, gap in enumerate(gaps):
            is_tail = i == len(gaps) - 1
            if gap != self.stride and not (is_tail and gap < self.stride):
                raise ValidationError(
                    f"anchor gap {frames[i]}..{frames[i + 1]} is {gap}, "
                    f"expected stride {self.stride}"
                    + (" (only the final gap may be shorter)" if is_tail else "")
                )

    @property
    def frames(self) -> tuple:
        return self.trajectory.frames


@dataclass(frozen=True)
class LocalSegment:
    trajectory: Trajectory
    start_anchor_frame: int
    end_anchor_frame: int

    def __post_init__(self):
        frames = self.trajectory.frames
        if not frames:
            raise ValidationError("segment trajectory is empty")
        if frames[0] != self.start_anchor_frame or frames[-1] != self.end_anchor_frame:
            raise ValidationError(
                f"segment frames {frames[0]}..{frames[-1]} do not match anchor "
                f"frames {self.start_anchor_frame}..{self.end_anchor_frame}"
            )

    def first_pose(self) -> Pose:
        return self.trajectory.entries[0][1]

    def last_pose(self) -> Pose:
        return self.trajectory.entries[-1][1]


def _format_float(value: float) -> str:
    return format(float(value), ".17g")


def serialize_tum(trajectory: Trajectory) -> str:
    """One line per pose: ``frame tx ty tz qx qy qz qw`` (17-digit floats)."""
    lines = ["# frame tx ty tz qx qy qz qw"]
    for frame, pose in trajectory:
        t = pose.translation
        q = pose.rotation
        fields = [str(frame)] + [
            _format_float(v) for v in (t[0], t[1], t[2], q.x, q.y, q.z, q.w)
        ]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_tum(text: str, *, path=None) -> Trajectory:
    entries = []
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
        t_field = values[0]
        frame = int(round(t_field))
        if frame != t_field or frame < 0:
            raise FormatError(
                f"frame index must be a non-negative integer, got {parts[0]}",
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
        tx, ty, tz, qx, qy, qz, qw = values[1:]
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
        pose = Pose(Quaternion(qw, qx, qy, qz), np.array([tx, ty, tz]))
        entries.append((frame, pose))
    return Trajectory(tuple(entries))


def load_tum(path) -> Trajectory:
    return parse_tum(read_text(path), path=str(path))


def save_tum(path, trajectory: Trajectory) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_tum(trajectory))


def split_into_segments(local: Trajectory, anchors: AnchorSet) -> list:
    """One LocalSegment per consecutive anchor pair; boundary frames shared."""
    anchor_frames = anchors.frames
    if len(anchor_frames) < 2:
        raise ValidationError(
            f"need at least 2 anchors to form segments, got {len(anchor_frames)}"
        )
    for frame in anchor_frames:
        if not local.has_frame(frame):
            raise ValidationError(f"anchor frame {frame} missing from local trajectory")
    segments = []
    for start, end in zip(anchor_frames, anchor_frames[1:]):
        part = tuple(e for e in local.entries if start <= e[0] <= end)
        segments.append(LocalSegment(Trajectory(part), start, end))
    return segments
