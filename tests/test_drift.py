import math

import numpy as np
import pytest

from endogeo.drift import (
    align_segment_start,
    compute_drift_error,
    correct_long_trajectory,
    distribute_drift,
)
from endogeo.errors import ValidationError
from endogeo.geometry import Pose, Quaternion, compose, pose_distance
from endogeo.rng import SplitMix64
from endogeo.trajectory import AnchorSet, LocalSegment, Trajectory, split_into_segments


def rand_pose(stream):
    axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
    q = Quaternion.from_axis_angle(axis, stream.uniform_in(-2, 2))
    return Pose(q, (stream.uniform_in(-9, 9), stream.uniform_in(-9, 9), stream.uniform_in(-9, 9)))


def rand_segment(seed, frames):
    stream = SplitMix64(seed).derive("seg")
    traj = Trajectory([(f, rand_pose(stream)) for f in frames])
    return LocalSegment(traj, frames[0], frames[-1])


class TestAlignSegmentStart:
    def test_already_at_anchor_unchanged(self):
        seg = rand_segment(1, range(5))
        anchor = seg.first_pose()
        aligned = align_segment_start(seg, anchor)
        for frame in seg.trajectory.frames:
            rot, trans = pose_distance(
                aligned.trajectory.pose_at(frame), seg.trajectory.pose_at(frame)
            )
            assert rot < 1e-12 and trans < 1e-12
        assert aligned.first_pose() == anchor  # exact substitution at the start

    def test_identity_start_translated_anchor_shifts_all(self):
        traj = Trajectory(
            [(k, Pose(Quaternion.identity(), (float(k), 0.0, 0.0))) for k in range(4)]
        )
        seg = LocalSegment(traj, 0, 3)
        anchor = Pose(Quaternion.identity(), (5.0, 0.0, 0.0))
        aligned = align_segment_start(seg, anchor)
        for k in range(4):
            assert np.abs(
                aligned.trajectory.pose_at(k).translation - [k + 5.0, 0.0, 0.0]
            ).max() < 1e-12

    def test_preserves_relative_poses(self):
        stream = SplitMix64(7).derive("a")
        for trial in range(10):
            seg = rand_segment(100 + trial, range(6))
            anchor = rand_pose(stream)
            aligned = align_segment_start(seg, anchor)
            for i, j in ((0, 3), (2, 5), (1, 4)):
                def rel(s, a, b):
                    from endogeo.geometry import inverse
                    return compose(inverse(s.trajectory.pose_at(a)), s.trajectory.pose_at(b))
                rot, trans = pose_distance(rel(seg, i, j), rel(aligned, i, j))
                assert rot < 1e-9 and trans < 1e-9


class TestComputeDriftError:
    def test_equal_poses_give_identity(self):
        p = rand_pose(SplitMix64(3).derive("p"))
        err = compute_drift_error(p, p)
        rot, trans = pose_distance(err, Pose.identity())
        assert rot < 1e-12 and trans < 1e-12

    def test_identity_end_translation_anchor(self):
        anchor = Pose(Quaternion.identity(), (0.0, 0.0, 3.0))
        err = compute_drift_error(Pose.identity(), anchor)
        assert (err.translation == [0.0, 0.0, 3.0]).all()
        assert err.rotation.angle() == 0.0

    def test_left_composition_recovers_anchor(self):
        stream = SplitMix64(4).derive("p")
        for _ in range(20):
            end, anchor = rand_pose(stream), rand_pose(stream)
            err = compute_drift_error(end, anchor)
            rot, trans = pose_distance(compose(err, end), anchor)
            assert rot < 1e-12 and trans < 1e-12


class TestDistributeDrift:
    def test_identity_error_is_noop(self):
        seg = rand_segment(5, range(5))
        out = distribute_drift(seg, Pose.identity())
        for frame in seg.trajectory.frames:
            rot, trans = pose_distance(
                out.trajectory.pose_at(frame), seg.trajectory.pose_at(frame)
            )
            assert rot < 1e-12 and trans < 1e-12

    def test_linear_translation_ramp(self):
        traj = Trajectory([(k, Pose.identity()) for k in range(5)])
        seg = LocalSegment(traj, 0, 4)
        out = distribute_drift(seg, Pose(Quaternion.identity(), (4.0, 0.0, 0.0)))
        for k in range(5):
            assert np.abs(
                out.trajectory.pose_at(k).translation - [float(k), 0.0, 0.0]
            ).max() < 1e-12

    def test_rotation_midpoint_gets_half(self):
        traj = Trajectory([(0, Pose.identity()), (5, Pose.identity()), (10, Pose.identity())])
        seg = LocalSegment(traj, 0, 10)
        sixty = Pose(Quaternion.from_axis_angle((0, 0, 1), math.pi / 3), (0, 0, 0))
        out = distribute_drift(seg, sixty)
        assert out.trajectory.pose_at(5).rotation.angle() == pytest.approx(
            math.pi / 6, abs=1e-12
        )
        assert out.trajectory.pose_at(10).rotation.angle() == pytest.approx(
            math.pi / 3, abs=1e-12
        )

    def test_fraction_is_linear_in_frame_index_not_position(self):
        # unevenly spaced frames: the ramp follows frame indices
        traj = Trajectory([(0, Pose.identity()), (1, Pose.identity()), (10, Pose.identity())])
        seg = LocalSegment(traj, 0, 10)
        out = distribute_drift(seg, Pose(Quaternion.identity(), (10.0, 0.0, 0.0)))
        assert out.trajectory.pose_at(1).translation[0] == pytest.approx(1.0, abs=1e-12)

    def test_first_frame_untouched(self):
        seg = rand_segment(6, range(4))
        out = distribute_drift(seg, rand_pose(SplitMix64(8).derive("e")))
        assert out.trajectory.pose_at(0) == seg.trajectory.pose_at(0)

    def test_rejects_single_entry(self):
        traj = Trajectory([(0, Pose.identity())])
        seg = LocalSegment(traj, 0, 0)
        with pytest.raises(ValidationError):
            distribute_drift(seg, Pose.identity())


class TestCorrectLongTrajectory:
    def test_exact_segments_reproduce_ground_truth(self):
        stream = SplitMix64(9).derive("gt")
        gt = Trajectory([(k, rand_pose(stream)) for k in range(17)])
        anchors = AnchorSet(gt.restricted_to([0, 4, 8, 12, 16]), 4)
        segments = split_into_segments(gt, anchors)
        corrected, report = correct_long_trajectory(anchors, segments)
        assert corrected.frames.tolist() == gt.frames.tolist()
        for frame in gt.frames:
            rot, trans = pose_distance(corrected.pose_at(frame), gt.pose_at(frame))
            assert rot < 1e-9 and trans < 1e-9
        for seg_report in report.segments:
            assert seg_report.drift_rot_rad < 1e-12
            assert seg_report.drift_trans_mm < 1e-12

    def test_single_segment_matches_distribute_example(self):
        traj = Trajectory([(k, Pose(Quaternion.identity(), (float(k), 0.0, 0.0))) for k in range(5)])
        anchors_traj = Trajectory(
            [
                (0, Pose.identity()),
                (4, Pose(Quaternion.identity(), (8.0, 0.0, 0.0))),
            ]
        )
        anchors = AnchorSet(anchors_traj, 4)
        segments = [LocalSegment(traj, 0, 4)]
        corrected, _ = correct_long_trajectory(anchors, segments)
        # start pinned at origin; end pinned at (8,0,0); drift (4,0,0) ramps linearly
        for k in range(5):
            assert np.abs(
                corrected.pose_at(k).translation - [k * 2.0, 0.0, 0.0]
            ).max() < 1e-12

    def test_anchor_poses_substituted_exactly(self):
        stream = SplitMix64(10).derive("gt")
        gt = Trajectory([(k, rand_pose(stream)) for k in range(9)])
        noisy = Trajectory(
            [(k, compose(p, Pose(Quaternion.from_axis_angle((0, 0, 1), 0.01 * k), (0.1 * k, 0, 0))))
             for k, p in gt.entries]
        )
        anchors = AnchorSet(gt.restricted_to([0, 4, 8]), 4)
        segments = split_into_segments(noisy, anchors)
        corrected, _ = correct_long_trajectory(anchors, segments)
        for frame in (0, 4, 8):
            assert corrected.pose_at(frame) == gt.pose_at(frame)

    def test_segment_count_mismatch_rejected(self):
        gt = Trajectory([(k, Pose.identity()) for k in range(9)])
        anchors = AnchorSet(gt.restricted_to([0, 4, 8]), 4)
        segments = split_into_segments(gt, anchors)
        with pytest.raises(ValidationError, match="segment"):
            correct_long_trajectory(anchors, segments[:1])

    def test_gap_mismatch_names_the_gap(self):
        gt = Trajectory([(k, Pose.identity()) for k in range(9)])
        anchors = AnchorSet(gt.restricted_to([0, 4, 8]), 4)
        segments = split_into_segments(gt, anchors)
        swapped = [segments[1], segments[0]]
        with pytest.raises(ValidationError, match="4"):
            correct_long_trajectory(anchors, swapped)

    def test_report_serializable(self):
        gt = Trajectory([(k, Pose.identity()) for k in range(5)])
        anchors = AnchorSet(gt.restricted_to([0, 4]), 4)
        corrected, report = correct_long_trajectory(anchors, split_into_segments(gt, anchors))
        payload = report.to_dict()
        assert payload["n_segments"] == 1
        assert payload["segments"][0]["start_frame"] == 0
        assert payload["max_anchor_residual_trans_mm"] <= 1e-9
