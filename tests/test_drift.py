import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import line, pairs, still, trajectory
from endogeo.drift import CorrectionReport, compute_drift_error, correct_long_trajectory
from endogeo.errors import NumericError, ValidationError
from endogeo.geometry import Pose, PoseBatch, Quaternion, compose, inverse, pose_distance
from endogeo.metrics import ate, rpe
from endogeo.rng import SplitMix64
from endogeo.sim import DriftSpec, gen_trajectory, inject_drift
from endogeo.trajectory import Trajectory, split_into_segments


def rand_pose(stream):
    axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
    q = Quaternion.from_axis_angle(axis, stream.uniform_in(-2, 2))
    return Pose(q, (stream.uniform_in(-9, 9), stream.uniform_in(-9, 9), stream.uniform_in(-9, 9)))


def rand_segment(seed, frames):
    stream = SplitMix64(seed).derive("seg")
    frames = list(frames)
    return trajectory(frames, [rand_pose(stream) for _ in frames])


_SPLINE_FRAMES = 300


@functools.cache
def _drifted_spline(seed):
    """A ground-truth spline of ``_SPLINE_FRAMES`` frames and its drifted copy."""
    gt = gen_trajectory(_SPLINE_FRAMES, "spline", seed)
    return gt, inject_drift(gt, DriftSpec(0.002, 0.05, seed))


def correct_one(segment, start, end):
    """``segment`` corrected as the one segment between the anchors ``start``
    and ``end`` on its first and last frames."""
    anchors = trajectory(segment.frames[[0, -1]], [start, end])
    return correct_long_trajectory(anchors, [segment])[0]


def align(segment, anchor):
    """``segment`` moved rigidly so it starts at ``anchor``: its end anchor is
    the moved end pose, so no drift is left to spread."""
    return correct_one(segment, anchor, compose(compose(anchor, inverse(segment.poses[0])), segment.poses[-1]))


def distribute(segment, error):
    """``error`` spread over ``segment``: its start anchor is its own first
    pose, and its end anchor ``error`` applied to its last."""
    return correct_one(segment, segment.poses[0], compose(error, segment.poses[-1]))


class TestAlignSegmentStart:
    """Alignment of a segment to its start anchor, through one-segment
    correct_long_trajectory calls."""

    def test_already_at_anchor_unchanged(self):
        seg = rand_segment(1, range(5))
        anchor = seg.poses[0]
        aligned = align(seg, anchor)
        for frame in seg.frames:
            rot, trans = pose_distance(aligned.pose_at(frame), seg.pose_at(frame))
            assert rot < 1e-12 and trans < 1e-12
        assert aligned.poses[0] == anchor  # exact substitution at the start

    def test_identity_start_translated_anchor_shifts_all(self):
        traj = line(4)
        anchor = Pose(Quaternion.identity(), (5.0, 0.0, 0.0))
        aligned = align(traj, anchor)
        for k in range(4):
            assert np.abs(aligned.pose_at(k).translation - [k + 5.0, 0.0, 0.0]).max() < 1e-12

    def test_preserves_relative_poses(self):
        stream = SplitMix64(7).derive("a")
        for trial in range(10):
            seg = rand_segment(100 + trial, range(6))
            anchor = rand_pose(stream)
            aligned = align(seg, anchor)
            for i, j in ((0, 3), (2, 5), (1, 4)):
                def rel(s, a, b):
                    return compose(inverse(s.pose_at(a)), s.pose_at(b))
                rot, trans = pose_distance(rel(seg, i, j), rel(aligned, i, j))
                assert rot < 1e-9 and trans < 1e-9


class TestComputeDriftError:
    def test_equal_poses_give_identity(self):
        p = rand_pose(SplitMix64(3).derive("p"))
        err = compute_drift_error(p, p)
        rot, trans = pose_distance(err, Pose(Quaternion.identity()))
        assert rot < 1e-12 and trans < 1e-12

    def test_identity_end_translation_anchor(self):
        anchor = Pose(Quaternion.identity(), (0.0, 0.0, 3.0))
        err = compute_drift_error(Pose(Quaternion.identity()), anchor)
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
    """Spreading the drift error over a segment whose start is exact, through
    one-segment correct_long_trajectory calls."""

    def test_identity_error_is_noop(self):
        seg = rand_segment(5, range(5))
        out = distribute(seg, Pose(Quaternion.identity()))
        for frame in seg.frames:
            rot, trans = pose_distance(out.pose_at(frame), seg.pose_at(frame))
            assert rot < 1e-12 and trans < 1e-12

    def test_linear_translation_ramp(self):
        traj = still(range(5))
        out = distribute(traj, Pose(Quaternion.identity(), (4.0, 0.0, 0.0)))
        for k in range(5):
            assert np.abs(out.pose_at(k).translation - [float(k), 0.0, 0.0]).max() < 1e-12

    def test_rotation_midpoint_gets_half(self):
        traj = still([0, 5, 10])
        sixty = Pose(Quaternion.from_axis_angle((0, 0, 1), math.pi / 3), (0, 0, 0))
        out = distribute(traj, sixty)
        assert out.pose_at(5).rotation.angle() == pytest.approx(math.pi / 6, abs=1e-12)
        assert out.pose_at(10).rotation.angle() == pytest.approx(math.pi / 3, abs=1e-12)

    def test_fraction_is_linear_in_frame_index_not_position(self):
        # unevenly spaced frames: the ramp follows frame indices
        traj = still([0, 1, 10])
        out = distribute(traj, Pose(Quaternion.identity(), (10.0, 0.0, 0.0)))
        assert out.pose_at(1).translation[0] == pytest.approx(1.0, abs=1e-12)

    def test_first_frame_untouched(self):
        seg = rand_segment(6, range(4))
        out = distribute(seg, rand_pose(SplitMix64(8).derive("e")))
        assert out.pose_at(0) == seg.pose_at(0)


class TestCorrectLongTrajectory:
    def test_exact_segments_reproduce_ground_truth(self):
        stream = SplitMix64(9).derive("gt")
        gt = trajectory(range(17), [rand_pose(stream) for _ in range(17)])
        anchors = gt.restricted_to([0, 4, 8, 12, 16])
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
        traj = line(5)
        anchors_traj = trajectory([0, 4], [Pose(Quaternion.identity()), Pose(Quaternion.identity(), (8.0, 0.0, 0.0))])
        corrected, _ = correct_long_trajectory(anchors_traj, [traj])
        # start pinned at origin; end pinned at (8,0,0); drift (4,0,0) ramps linearly
        for k in range(5):
            assert np.abs(
                corrected.pose_at(k).translation - [k * 2.0, 0.0, 0.0]
            ).max() < 1e-12

    def test_anchor_poses_substituted_exactly(self):
        stream = SplitMix64(10).derive("gt")
        gt = trajectory(range(9), [rand_pose(stream) for _ in range(9)])
        noisy = trajectory(
            range(9),
            [compose(p, Pose(Quaternion.from_axis_angle((0, 0, 1), 0.01 * k), (0.1 * k, 0, 0))) for k, p in pairs(gt)],
        )
        anchors = gt.restricted_to([0, 4, 8])
        segments = split_into_segments(noisy, anchors)
        corrected, _ = correct_long_trajectory(anchors, segments)
        for frame in (0, 4, 8):
            assert corrected.pose_at(frame) == gt.pose_at(frame)

    def test_segment_count_mismatch_rejected(self):
        gt = still(range(9))
        anchors = gt.restricted_to([0, 4, 8])
        segments = split_into_segments(gt, anchors)
        with pytest.raises(ValidationError, match="segment"):
            correct_long_trajectory(anchors, segments[:1])

    def test_gap_mismatch_names_the_gap(self):
        gt = still(range(9))
        anchors = gt.restricted_to([0, 4, 8])
        segments = split_into_segments(gt, anchors)
        swapped = [segments[1], segments[0]]
        with pytest.raises(ValidationError, match="4"):
            correct_long_trajectory(anchors, swapped)

    @pytest.mark.parametrize(
        "first",
        [[], [0], [1, 2, 3, 4], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5]],
        ids=["empty", "single-pose", "late-start", "early-end", "late-end"],
    )
    def test_segment_endpoints_must_match_gap(self, first):
        gt = still(range(9))
        segments = [gt.restricted_to(first), gt.restricted_to(range(4, 9))]
        with pytest.raises(ValidationError, match=r"anchor gap 0\.\.4 "):
            correct_long_trajectory(gt.restricted_to([0, 4, 8]), segments)

    @pytest.mark.parametrize(
        ("anchor_frames", "message"),
        [([], "at least 2"), ([4], "at least 2")],
        ids=["no-anchors", "single-anchor"],
    )
    def test_anchors_checked(self, anchor_frames, message):
        gt = still(range(9))
        with pytest.raises(ValidationError, match=message):
            correct_long_trajectory(gt.restricted_to(anchor_frames), [gt])

    def test_uneven_anchor_gap_accepted(self):
        gt = line(9)
        anchors = gt.restricted_to([0, 2, 6])
        corrected, report = correct_long_trajectory(anchors, split_into_segments(gt, anchors))
        assert corrected == gt.restricted_to(range(7))
        assert [(s.start_frame, s.end_frame) for s in report.segments] == [(0, 2), (2, 6)]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 3),
        anchor_frames=st.lists(st.integers(0, _SPLINE_FRAMES - 1), min_size=2, max_size=12, unique=True).map(sorted),
    )
    def test_anchors_at_any_increasing_frames(self, seed, anchor_frames):
        # criterion 2 on uneven anchors, and each gap corrected as if alone
        gt, local = _drifted_spline(seed)
        anchors = gt.restricted_to(anchor_frames)
        segments = split_into_segments(local, anchors)
        corrected, _ = correct_long_trajectory(anchors, segments)
        for frame in anchor_frames:
            rot, trans = pose_distance(corrected.pose_at(frame), anchors.pose_at(frame))
            assert rot <= 1e-9 and trans <= 1e-9
        alone = [
            correct_long_trajectory(anchors.subset(slice(k, k + 2)), [seg])[0].subset(slice(1 if k else 0, None))
            for k, seg in enumerate(segments)
        ]
        assert corrected.frames.tolist() == list(range(anchor_frames[0], anchor_frames[-1] + 1))
        assert np.array_equal(corrected.frames, np.concatenate([a.frames for a in alone]))
        for name in ("quat", "trans"):
            stitched = np.concatenate([getattr(a.poses, name) for a in alone])
            assert getattr(corrected.poses, name).tobytes() == stitched.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        anchor_frames=st.lists(st.integers(0, _SPLINE_FRAMES - 1), min_size=2, max_size=12, unique=True).map(sorted),
        shift=st.tuples(*[st.floats(-1e9, 1e9)] * 3),
    )
    @example(seed=1, anchor_frames=list(range(0, _SPLINE_FRAMES, 64)), shift=(1e3, -1e3, 5e2))
    @example(seed=2, anchor_frames=list(range(0, _SPLINE_FRAMES, 64)), shift=(1e9, -1e9, 5e8))
    def test_no_result_depends_on_the_world_origin(self, seed, anchor_frames, shift):
        # shifting the anchors and the segments by d shifts the corrected
        # poses by d and leaves their rotations and errors alone, up to the
        # rounding of positions of magnitude |d| + 100 mm (the spline's own
        # are below 100 mm); the bounds were fixed before the first run
        d = np.array(shift)
        bound = 64 * np.finfo(float).eps * (np.abs(d).max() + 100.0)

        def moved(traj):
            return Trajectory(traj.frames, PoseBatch(traj.poses.quat, traj.poses.trans + d))

        gt, local = _drifted_spline(seed)
        runs = []
        for g, drifted in ((gt, local), (moved(gt), moved(local))):
            anchors = g.restricted_to(anchor_frames)
            corrected, report = correct_long_trajectory(anchors, split_into_segments(drifted, anchors))
            truth = g.restricted_to(corrected.frames)
            runs.append((corrected, report, ate(corrected, truth, "se3"), rpe(corrected, truth, 1)[0]))
        (base, base_report, *base_errors), (shifted, shifted_report, *shifted_errors) = runs
        assert np.array_equal(shifted.poses.quat, base.poses.quat)
        assert np.abs(shifted.poses.trans - d - base.poses.trans).max() <= bound
        for got, want in zip(shifted_errors, base_errors):
            assert abs(got - want) <= 1e-9 * want + 8 * bound
        for got, want in zip(shifted_report.segments, base_report.segments):
            assert got.drift_rot_rad == want.drift_rot_rad
            assert abs(got.drift_trans_mm - want.drift_trans_mm) <= 8 * bound

    def test_a_report_beyond_the_anchor_tolerance_is_a_numeric_error(self):
        with pytest.raises(NumericError, match=r"anchor residual exceeds tolerance: rot 1\.000e\+00 rad"):
            CorrectionReport((), 1.0, 0.0)

    def test_report_serializable(self):
        gt = still(range(5))
        anchors = gt.restricted_to([0, 4])
        corrected, report = correct_long_trajectory(anchors, split_into_segments(gt, anchors))
        payload = report.to_dict()
        assert payload["n_segments"] == 1
        assert payload["segments"][0]["start_frame"] == 0
        assert payload["max_anchor_residual_trans_mm"] <= 1e-9


class TestBrownianBridge:
    """Translation-only drift is a Gaussian random walk of the position with
    per-frame covariance sigma^2 I (the rotations stay the ground truth's, so
    the walk is isotropic in the world frame). Aligning each segment to its
    start anchor and spreading the end residual linearly turns it into a
    Brownian bridge: at offset t of a stride-S segment each coordinate of the
    corrected position residual is N(0, sigma^2 t (S - t) / S), independent
    across segments and seeds. The sum of squared residuals over all samples,
    scaled by that variance, is chi-square with 3 degrees of freedom a sample.
    The seeds, offsets and bound below were fixed before the test first ran."""

    SIGMA = 0.05
    STRIDE = 16
    SEGMENTS = 64
    SEEDS = range(40)
    OFFSETS = (1, 4, 8, 12, 15)
    BOUND_SIGMAS = 5.0  # |chi2 - dof| <= 5 sqrt(2 dof), the normal approximation

    def test_corrected_residual_is_a_brownian_bridge(self):
        n_frames = self.SEGMENTS * self.STRIDE + 1
        chi2 = dict.fromkeys(self.OFFSETS, 0.0)
        for seed in self.SEEDS:
            gt = gen_trajectory(n_frames, "orbit", seed)
            drifted = inject_drift(gt, DriftSpec(0.0, self.SIGMA, seed))
            anchors = gt.restricted_to(range(0, n_frames, self.STRIDE))
            corrected, _ = correct_long_trajectory(anchors, split_into_segments(drifted, anchors))
            assert np.array_equal(corrected.frames, gt.frames)
            residual = corrected.poses.trans - gt.poses.trans
            for t in self.OFFSETS:
                rows = np.arange(self.SEGMENTS) * self.STRIDE + t
                variance = self.SIGMA**2 * t * (self.STRIDE - t) / self.STRIDE
                chi2[t] += float((residual[rows] ** 2).sum()) / variance
        dof = 3 * self.SEGMENTS * len(self.SEEDS)
        for t, value in chi2.items():
            assert abs(value - dof) <= self.BOUND_SIGMAS * math.sqrt(2 * dof), (t, value, dof)
