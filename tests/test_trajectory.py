import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from builders import pairs, still, trajectory
from endogeo.errors import FormatError, ValidationError
from endogeo.geometry import Pose, Quaternion
from endogeo.rng import SplitMix64
from endogeo.trajectory import (
    Trajectory,
    load_tum,
    parse_tum,
    save_tum,
    serialize_tum,
    split_into_segments,
)


def rand_traj(seed, n):
    stream = SplitMix64(seed).derive("traj")
    poses = []
    for _ in range(n):
        axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
        q = Quaternion.from_axis_angle(axis, stream.uniform_in(-3, 3))
        t = (stream.uniform_in(-50, 50), stream.uniform_in(-50, 50), stream.uniform_in(-50, 50))
        poses.append(Pose(q, t))
    return trajectory(range(n), poses)


def two_poses():
    return still([0, 1]).poses


class TestTrajectory:
    def test_a_pose_or_trajectory_equals_no_other_type(self):
        # __eq__ defers to the other operand, so Python falls back to identity
        traj = still([0, 1])
        for item in (traj, traj.pose_at(1)):
            assert item == item
            assert not (item == 1) and item != 1

    def test_repr_names_the_size_and_frames(self):
        assert repr(still([3, 4, 9])) == "Trajectory(3 poses, frames 3..9)"
        assert repr(still([3]).restricted_to([])) == "Trajectory(empty)"

    def test_frames_strictly_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing: 0 after 0"):
            Trajectory([0, 0], two_poses())
        with pytest.raises(ValidationError, match="strictly increasing: 1 after 3"):
            Trajectory([3, 1], two_poses())

    def test_rejects_negative_frames(self):
        with pytest.raises(ValidationError, match="frame index must be an integer >= 0, got -1"):
            Trajectory([-1], still([0]).poses)
        with pytest.raises(ValidationError, match="frame index must be an integer >= 0, got -1"):
            Trajectory(np.array([0, -1]), two_poses())

    @pytest.mark.parametrize(
        "frame",
        [1.5, -0.5, math.nan, math.inf, -math.inf, 1e30, 2**63, 2**70, "3", True, np.bool_(False), None],
    )
    def test_rejects_frames_that_are_not_integral_numbers(self, frame):
        with pytest.raises(ValidationError, match="frame index must be"):
            Trajectory([0, frame], two_poses())

    @pytest.mark.parametrize(
        "frames", [np.array([0.0, 2.5]), np.array([0.0, np.nan]), np.array([False, True]), np.array(["0", "1"])]
    )
    def test_rejects_frame_arrays_that_are_not_integral(self, frames):
        with pytest.raises(ValidationError, match="frame index must be"):
            Trajectory(frames, two_poses())

    def test_rejects_entries_that_are_not_iterable(self):
        # raised TypeError: 'int' object is not iterable
        with pytest.raises(ValidationError, match="iterable"):
            Trajectory(5, still([0]).poses)

    @pytest.mark.parametrize("poses", [[Pose(Quaternion.identity())], (Pose(Quaternion.identity()),), Pose(Quaternion.identity()), None])
    def test_rejects_poses_that_are_not_a_pose_batch(self, poses):
        # a sequence of poses is a PoseBatch, not a list of Poses
        with pytest.raises(ValidationError, match="poses must be a PoseBatch"):
            Trajectory([0], poses)

    def test_rejects_a_frame_count_that_is_not_the_pose_count(self):
        with pytest.raises(ValidationError, match="1 frames for 2 poses"):
            Trajectory([0], two_poses())

    def test_floats_are_not_frames(self):
        # a frame index is an integer, as a window is, so no float is one
        for frames in ([0.0, 3.0], [0, 3.0], np.array([0.0, 1.0]), np.array([0, 1], dtype=np.float32)):
            with pytest.raises(ValidationError, match="frame index must be an integer"):
                Trajectory(frames, two_poses())
        # numpy integers of every width are frames, up to 2**63 - 1
        assert Trajectory(np.arange(2, dtype=np.uint8), two_poses()).frames.tolist() == [0, 1]
        assert Trajectory([np.uint64(0), np.int8(1)], two_poses()).frames.tolist() == [0, 1]
        for big in (2**53 + 1, 2**63 - 1, np.int64(2**63 - 1), np.uint64(2**63 - 1)):
            assert Trajectory([1, big], two_poses()).frames.tolist() == [1, big]
            assert Trajectory(np.array([1, big], dtype=np.uint64), two_poses()).frames.tolist() == [1, big]
        # from 2**63 on, a uint64 is no frame, in a list or an array
        for frames in ([1, np.uint64(2**63)], np.array([1, 2**63], dtype=np.uint64)):
            with pytest.raises(ValidationError, match=r"frame index must be below 2\*\*63, got .*9223372036854775808"):
                Trajectory(frames, two_poses())

    def test_frames_are_a_frozen_copy(self):
        frames = np.array([0, 1])
        traj = Trajectory(frames, two_poses())
        frames[0] = 7
        assert traj.frames.tolist() == [0, 1] and not traj.frames.flags.writeable

    def test_lookup(self):
        traj = still([0, 2, 5])
        assert traj.has_frame(2) and not traj.has_frame(3)
        assert traj.has_frame(np.uint8(5)) and not traj.has_frame(2**63 - 1)
        assert traj.pose_at(5) == Pose(Quaternion.identity())
        with pytest.raises(ValidationError, match="frame 3 not present"):
            traj.pose_at(3)

    @pytest.mark.parametrize("frame", [None, 1.5, 2.0, "1", True, -1, 2**63, [2]])
    def test_lookup_takes_a_frame_index(self, frame):
        traj = still([0, 1, 2])
        for lookup in (traj.pose_at, traj.has_frame):
            with pytest.raises(ValidationError, match="frame index must be"):
                lookup(frame)

    def test_restricted_to(self):
        traj = rand_traj(1, 10)
        sub = traj.restricted_to([2, 5, 7])
        assert sub.frames.tolist() == [2, 5, 7]
        assert sub.pose_at(5) == traj.pose_at(5)
        with pytest.raises(ValidationError, match=r"frames not in trajectory: \[99\]"):
            traj.restricted_to([2, 99])
        assert traj.restricted_to(np.array([5, 2, 5])).frames.tolist() == [2, 5]
        assert traj.restricted_to(range(0, 10, 3)).frames.tolist() == [0, 3, 6, 9]
        assert len(traj.restricted_to([])) == 0
        # no float is a frame, integral or not
        for frames in ([2, 1.5], [2, True], [2, "2"], [2, math.nan], [2.0], np.array([5.0, 2.0])):
            with pytest.raises(ValidationError, match="frame index"):
                traj.restricted_to(frames)


class TestTumFormat:
    def test_single_identity_line(self):
        traj = parse_tum("0 0 0 0 0 0 0 1\n")
        assert traj.frames.tolist() == [0]
        assert traj.pose_at(0) == Pose(Quaternion.identity())

    def test_empty_text_gives_empty_trajectory(self):
        traj = parse_tum("")
        assert len(traj) == 0
        with pytest.raises(ValidationError):
            traj.pose_at(0)

    def test_comments_and_blank_lines_skipped(self):
        traj = parse_tum("# a comment\n\n0 1 2 3 0 0 0 1\n")
        assert len(traj) == 1
        assert (traj.pose_at(0).translation == [1.0, 2.0, 3.0]).all()

    def test_round_trip_exact(self):
        traj = rand_traj(3, 100)
        text = serialize_tum(traj)
        back = parse_tum(text)
        for (fa, pa), (fb, pb) in zip(pairs(traj), pairs(back)):
            assert fa == fb
            assert (pa.rotation.w, pa.rotation.x, pa.rotation.y, pa.rotation.z) == (
                pb.rotation.w, pb.rotation.x, pb.rotation.y, pb.rotation.z
            )
            assert (pa.translation == pb.translation).all()
        assert serialize_tum(back) == text

    def test_file_round_trip(self, tmp_path):
        traj = rand_traj(4, 20)
        path = str(tmp_path / "t.tum")
        save_tum(path, traj)
        assert serialize_tum(load_tum(path)) == serialize_tum(traj)

    def test_field_count_error_names_line(self):
        with pytest.raises(FormatError, match="3"):
            parse_tum("0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 1\n2 0 0\n")

    def test_non_numeric_error(self):
        with pytest.raises(FormatError, match="non-numeric"):
            parse_tum("0 a b c 0 0 0 1\n")

    def test_non_integer_frame_error(self):
        with pytest.raises(FormatError, match="frame"):
            parse_tum("0.5 0 0 0 0 0 0 1\n")

    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True))
    def test_round_trip_frames_exactly(self, frames):
        traj = still(sorted(frames))
        assert parse_tum(serialize_tum(traj)).frames.tolist() == sorted(frames)

    def test_integer_literal_frame_read_exactly(self):
        # a float reads 2**53 + 1 as 2**53
        assert parse_tum("9007199254740993 0 0 0 0 0 0 1\n").frames.tolist() == [2**53 + 1]

    def test_float_literal_frame_below_2_53(self):
        traj = parse_tum("5.0 0 0 0 0 0 0 1\n1e3 0 0 0 0 0 0 1\n9007199254740991.0 0 0 0 0 0 0 1\n")
        assert traj.frames.tolist() == [5, 1000, 2**53 - 1]

    @pytest.mark.parametrize("literal", ["9007199254740992.0", "9007199254740993.0", "1e16"])
    def test_inexact_float_literal_frame_error(self, literal):
        with pytest.raises(FormatError, match=r":2: frame index .* integer literal from 2\*\*53 on, got"):
            parse_tum(f"0 0 0 0 0 0 0 1\n{literal} 0 0 0 0 0 0 1\n", path="t.tum")

    def test_frame_beyond_int64_error(self):
        with pytest.raises(FormatError, match=":2: frame index"):
            parse_tum("0 0 0 0 0 0 0 1\n1e30 0 0 0 0 0 0 1\n", path="t.tum")

    def test_non_monotone_frames_error(self):
        with pytest.raises(FormatError, match="increas"):
            parse_tum("1 0 0 0 0 0 0 1\n0 0 0 0 0 0 0 1\n")

    def test_zero_quaternion_error(self):
        with pytest.raises(FormatError, match="quaternion"):
            parse_tum("0 0 0 0 0 0 0 0\n")

    def test_overflowing_quaternion_error(self):
        # the squared norm overflows to inf, so the quaternion cannot be normalized
        with pytest.raises(FormatError, match=":2: quaternion norm overflows"):
            parse_tum("0 0 0 0 0 0 0 1\n1 0 0 0 1e200 0 0 1\n", path="t.tum")

    @pytest.mark.parametrize(
        "line",
        ["inf 0 0 0 0 0 0 1", "nan 0 0 0 0 0 0 1", "0 nan 0 0 0 0 0 1", "0 0 -inf 0 0 0 0 1",
         "0 0 0 0 0 0 1e999 1", "0 0 0 0 0 0 0 nan"],
    )
    def test_non_finite_field_error(self, line):
        with pytest.raises(FormatError, match=":2: non-finite"):
            parse_tum("0 0 0 0 0 0 0 1\n" + line + "\n", path="t.tum")

    def test_non_utf8_file_error(self, tmp_path):
        path = tmp_path / "t.tum"
        path.write_bytes(b"0 0 0 0 0 0 0 1\n# caf\xe9\n")
        with pytest.raises(FormatError, match="UTF-8"):
            load_tum(path)

    def test_norm_deviation_warns_but_parses(self, caplog):
        with caplog.at_level(logging.WARNING):
            traj = parse_tum("0 0 0 0 0 0 0 1.01\n")
        assert len(traj) == 1
        assert any("norm" in rec.message for rec in caplog.records)
        assert abs(np.linalg.norm(traj.pose_at(0).rotation.wxyz) - 1.0) < 1e-12

    def test_qw_last_on_disk(self):
        # quaternion serialized qx qy qz qw; a 90 degree turn about z
        q = Quaternion.from_axis_angle((0, 0, 1), np.pi / 2)
        line = serialize_tum(trajectory([0], [Pose(q, (0, 0, 0))])).splitlines()[-1]
        fields = line.split()
        assert float(fields[6]) == pytest.approx(q.z)
        assert float(fields[7]) == pytest.approx(q.w)


class TestSplitIntoSegments:
    def test_two_even_segments(self):
        local = still(range(9))
        segments = split_into_segments(local, still([0, 4, 8]))
        assert [type(s) for s in segments] == [Trajectory, Trajectory]
        assert segments[0].frames.tolist() == [0, 1, 2, 3, 4]
        assert segments[1].frames.tolist() == [4, 5, 6, 7, 8]

    def test_single_anchor_rejected(self):
        local = still(range(5))
        with pytest.raises(ValidationError, match="at least 2"):
            split_into_segments(local, still([0]))

    def test_short_tail_segment(self):
        local = still(range(8))
        segments = split_into_segments(local, still([0, 3, 6, 7]))
        assert len(segments) == 3
        assert segments[-1].frames.tolist() == [6, 7]

    def test_short_tail_allowed(self):
        segments = split_into_segments(still(range(11)), still([0, 4, 8, 10]))
        assert [(s.frames[0], s.frames[-1]) for s in segments] == [(0, 4), (4, 8), (8, 10)]

    def test_uniform_stride_ok(self):
        segments = split_into_segments(still(range(13)), still([0, 4, 8, 12]))
        assert [s.frames.tolist()[::4] for s in segments] == [[0, 4], [4, 8], [8, 12]]

    @pytest.mark.parametrize(
        "anchor_frames",
        [[0, 4, 6, 10], [0, 4, 9], [0, 2, 6, 8]],
        ids=["mid-sequence-mismatch", "oversized-last-gap", "longer-mid-gap"],
    )
    def test_uneven_anchor_gaps_accepted(self, anchor_frames):
        segments = split_into_segments(still(range(11)), still(anchor_frames))
        assert [s.frames.tolist() for s in segments] == [
            list(range(a, b + 1)) for a, b in zip(anchor_frames, anchor_frames[1:])
        ]

    def test_missing_coverage_rejected(self):
        local = still([0, 1, 2, 3, 5, 6, 7, 8])  # frame 4 missing
        with pytest.raises(ValidationError):
            split_into_segments(local, still([0, 4, 8]))

    def test_boundary_frames_shared(self):
        local = rand_traj(9, 9)
        segments = split_into_segments(local, local.restricted_to([0, 4, 8]))
        assert segments[0].pose_at(4) == segments[1].pose_at(4)
