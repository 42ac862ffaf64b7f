"""The array-backed trajectory code against the per-pose loops it replaced.

Every comparison is exact (``==`` on the arrays), never a tolerance: the
batched kernels must give each pose the bits the scalar loops gave it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from builders import pairs, trajectory
from endogeo.drift import correct_long_trajectory
from endogeo.errors import ValidationError
from endogeo.geometry import (
    Pose,
    PoseBatch,
    Quaternion,
    compose,
    inverse,
    pose_distance,
    pose_interp,
    quat_angles,
    umeyama_align,
)
from endogeo.metrics import ate, rpe
from endogeo.rng import SplitMix64
from endogeo.sim import DriftSpec, gen_trajectory, inject_drift
from endogeo.trajectory import Trajectory, parse_tum, serialize_tum, split_into_segments

# warnings are errors; deprecations stay warnings, because hypothesis's own
# failure report imports modules that emit them
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
]

_EXAMPLES = settings(max_examples=60, deadline=None)

unit = st.floats(-1.0, 1.0)
coord = st.floats(-100.0, 100.0)


@st.composite
def raw_quats(draw):
    """(w, x, y, z) tuples: arbitrary, with w < 0, within 1e-12 of unit norm,
    or the identity."""
    kind = draw(st.sampled_from(["any", "near-unit", "identity"]))
    if kind == "identity":
        return (draw(st.sampled_from([1.0, -1.0])), 0.0, 0.0, 0.0)
    q = [draw(unit) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    if n < 1e-3:
        q, n = [1.0, 0.0, 0.0, 0.0], 1.0
    if kind == "near-unit":
        scale = (1.0 + draw(st.floats(-1e-12, 1e-12))) / n
        q = [c * scale for c in q]
    return tuple(q)


@st.composite
def poses(draw):
    return oracles.oracle_quat(*draw(raw_quats())), np.array([draw(coord) for _ in range(3)])


def to_pose(p):
    return Pose(Quaternion(*p[0]), p[1])


def rows(items):
    """(quat, trans) arrays of oracle poses."""
    return np.array([p[0] for p in items]).reshape(-1, 4), np.array([p[1] for p in items]).reshape(-1, 3)


def to_batch(items):
    return PoseBatch(*rows(items))


def assert_batch_equals(batch, items):
    quat, trans = rows(items)
    assert np.array_equal(batch.quat, quat)
    assert np.array_equal(batch.trans, trans)


def assert_pose_equals(pose, item):
    assert pose.rotation.wxyz == tuple(item[0])
    assert np.array_equal(pose.translation, item[1])


def trajectory_of(entries):
    return trajectory([f for f, _ in entries], [to_pose(p) for _, p in entries])


class TestKernels:
    @_EXAMPLES
    @given(st.lists(raw_quats(), min_size=1, max_size=8))
    def test_canonical(self, raws):
        batch = PoseBatch(np.array(raws), np.zeros((len(raws), 3)))
        assert np.array_equal(batch.quat, np.array([oracles.oracle_quat(*q) for q in raws]))
        for q in raws:
            assert Quaternion(*q).wxyz == oracles.oracle_quat(*q)

    @_EXAMPLES
    @given(st.lists(st.tuples(poses(), poses()), min_size=1, max_size=8))
    def test_compose(self, pairs):
        a, b = zip(*pairs)
        want = [oracles.oracle_compose(x, y) for x, y in pairs]
        assert_batch_equals(compose(to_batch(a), to_batch(b)), want)
        assert_batch_equals(compose(to_pose(a[0]), to_batch(b)), [oracles.oracle_compose(a[0], y) for y in b])
        assert_pose_equals(compose(to_pose(a[0]), to_pose(b[0])), want[0])

    @_EXAMPLES
    @given(st.lists(poses(), min_size=1, max_size=8))
    def test_inverse(self, items):
        want = [oracles.oracle_inverse(p) for p in items]
        assert_batch_equals(inverse(to_batch(items)), want)
        assert_pose_equals(inverse(to_pose(items[0])), want[0])

    @_EXAMPLES
    @given(raw_quats(), st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=8))
    def test_rotate(self, raw, vectors):
        q = oracles.oracle_quat(*raw)
        got = Quaternion(*q).rotate(np.array(vectors))
        want = np.array([oracles.oracle_rotate(q, v) for v in vectors])
        assert np.array_equal(got, want)
        assert np.array_equal(Quaternion(*q).rotate(vectors[0]), want[0])

    @_EXAMPLES
    @given(
        st.lists(poses(), min_size=1, max_size=8),
        st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
        st.sampled_from([None, 1e-13, 1e-11, 1e-6]),
    )
    def test_pose_interp(self, errors, ts, tiny_angle):
        if tiny_angle is not None:
            # the near-parallel branch, where slerp falls back to nlerp
            q = oracles.oracle_from_axis_angle((0.3, -0.5, 0.8), tiny_angle)
            errors = [(q, p[1]) for p in errors]
        t = np.array(ts[: len(errors)])
        want = [oracles.oracle_pose_interp(e, tt) for e, tt in zip(errors, t.tolist())]
        assert_batch_equals(pose_interp(to_batch(errors), t), want)
        one = to_pose(errors[0])
        assert_batch_equals(pose_interp(one, t), [oracles.oracle_pose_interp(errors[0], tt) for tt in t.tolist()])
        assert_pose_equals(pose_interp(one, ts[0]), oracles.oracle_pose_interp(errors[0], ts[0]))

    @_EXAMPLES
    @given(st.lists(st.tuples(poses(), poses()), min_size=1, max_size=8))
    def test_pose_distance(self, pairs):
        a, b = zip(*pairs)
        want = np.array([oracles.oracle_pose_distance(x, y) for x, y in pairs])
        rot, trans = pose_distance(to_batch(a), to_batch(b))
        assert np.array_equal(rot, want[:, 0]) and np.array_equal(trans, want[:, 1])
        assert pose_distance(to_pose(a[0]), to_pose(b[0])) == tuple(want[0])

    def test_angles(self):
        # the first three are rotations whose angle changes when x**2 (libm
        # pow) is computed as x * x; about 1 in 4000 random rotations is one
        stream = SplitMix64(5).derive("angles")
        quats = [
            oracles.oracle_quat(*q)
            for q in [
                (-0.9345637164961631, -0.07787768501771261, 0.277358404885418, -0.2088014397090639),
                (-0.7723928657863068, 0.3708050348656657, 0.24321453232550572, -0.45470823421879447),
                (0.7298359154075901, -0.262196961655252, 0.62129815042268, 0.11216460297828394),
            ]
            + [tuple(stream.uniform_in(-1, 1) for _ in range(4)) for _ in range(5000)]
        ]
        want = [oracles.oracle_angle(q) for q in quats]
        assert np.array_equal(quat_angles(np.array(quats)), want)
        assert [Quaternion(*q).angle() for q in quats] == want

    @_EXAMPLES
    @given(st.tuples(coord, coord, coord), st.floats(-4.0, 4.0))
    def test_axis_angle(self, axis, angle):
        assume(math.hypot(*axis) > 1e-150)  # a norm that underflows is a zero axis
        assert Quaternion.from_axis_angle(axis, angle).wxyz == oracles.oracle_from_axis_angle(axis, angle)
        vec = np.array(axis) * angle
        assert Quaternion.from_rotation_vector(vec).wxyz == oracles.oracle_from_rotation_vector(vec)


def random_entries(stream, frames):
    entries = []
    for f in frames:
        axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
        q = oracles.oracle_from_axis_angle(axis, stream.uniform_in(-3, 3))
        t = np.array([stream.uniform_in(-50, 50) for _ in range(3)])
        entries.append((f, (q, t)))
    return entries


def subsampled_frames(seed, n, max_step):
    stream = SplitMix64(seed).derive("frames")
    frames, f = [], int(stream.uniform_in(0, 5))
    for _ in range(n):
        frames.append(f)
        f += 1 + int(stream.uniform_in(0, max_step))
    return frames


class TestTrajectoryOps:
    @_EXAMPLES
    @given(st.integers(0, 2**32), st.integers(1, 40), st.integers(0, 3))
    def test_tum_round_trip(self, seed, n, max_step):
        entries = random_entries(SplitMix64(seed).derive("tum"), subsampled_frames(seed, n, max_step))
        text = oracles.oracle_serialize_tum(entries)
        traj = trajectory_of(entries)
        assert serialize_tum(traj) == text
        assert serialize_tum(parse_tum(text)) == text
        assert parse_tum(text) == traj

    @_EXAMPLES
    @given(
        st.integers(0, 2**32), st.integers(2, 60), st.sampled_from(["orbit", "spline", "linear"]),
        st.floats(0.5, 20.0),
    )
    def test_gen_trajectory(self, seed, n, path, radius):
        target, step = (0.0, 0.0, 100.0), (0.5, -0.25, 1.0)
        traj = gen_trajectory(n, path, seed, radius=radius, target=target, step=step)
        stream = SplitMix64(seed).derive(f"trajectory-{path}")
        want = oracles.oracle_gen_trajectory(n, path, stream, radius, target, step)
        assert traj.frames.tolist() == list(range(n))
        assert_batch_equals(traj.poses, [p for _, p in want])

    @_EXAMPLES
    @given(
        st.integers(0, 2**32), st.integers(1, 50), st.sampled_from([(0.002, 0.05), (0.0, 0.1), (0.3, 0.0)])
    )
    def test_inject_drift(self, seed, n, sigmas):
        entries = random_entries(SplitMix64(seed).derive("gt"), subsampled_frames(seed, n, 2))
        drifted = inject_drift(trajectory_of(entries), DriftSpec(*sigmas, seed))
        want = oracles.oracle_inject_drift(entries, *sigmas, SplitMix64(seed).derive("drift"))
        assert drifted.frames.tolist() == [f for f, _ in want]
        assert_batch_equals(drifted.poses, [p for _, p in want])

    @_EXAMPLES
    @given(st.integers(0, 2**32), st.integers(2, 6), st.integers(2, 7), st.integers(1, 7))
    def test_correct_long_trajectory(self, seed, n_segments, stride, tail):
        # the last anchor gap may be shorter than the stride
        tail = min(tail, stride)
        anchor_frames = [k * stride for k in range(n_segments)] + [(n_segments - 1) * stride + tail]
        frames = list(range(anchor_frames[-1] + 1))
        gt = random_entries(SplitMix64(seed).derive("gt"), frames)
        drifted = oracles.oracle_inject_drift(gt, 0.01, 0.2, SplitMix64(seed).derive("drift"))
        anchors = [e for e in gt if e[0] in anchor_frames]
        local = trajectory_of(drifted)
        anchor_traj = trajectory_of(anchors)
        corrected, report = correct_long_trajectory(anchor_traj, split_into_segments(local, anchor_traj))
        segments = [[e for e in drifted if a <= e[0] <= b] for a, b in zip(anchor_frames, anchor_frames[1:])]
        want, want_reports = oracles.oracle_correct_long_trajectory(anchors, segments)
        assert corrected.frames.tolist() == [f for f, _ in want]
        assert_batch_equals(corrected.poses, [p for _, p in want])
        got_reports = [
            (s.drift_rot_rad, s.drift_trans_mm, s.residual_rot_rad, s.residual_trans_mm)
            for s in report.segments
        ]
        assert got_reports == want_reports

    @_EXAMPLES
    @given(st.integers(0, 2**32), st.integers(2, 60), st.integers(0, 3), st.integers(1, 20))
    def test_rpe_pairs_by_frame_delta(self, seed, n, max_step, window):
        frames = subsampled_frames(seed, n, max_step)
        gt = random_entries(SplitMix64(seed).derive("gt"), frames)
        pred = random_entries(SplitMix64(seed).derive("pred"), frames)
        want = oracles.oracle_rpe(pred, gt, window)
        if want is None:
            with pytest.raises(ValidationError, match="window"):
                rpe(trajectory_of(pred), trajectory_of(gt), window)
        else:
            assert rpe(trajectory_of(pred), trajectory_of(gt), window) == want

    def test_rpe_and_ate_on_simulated_data(self):
        gt = gen_trajectory(300, "orbit", 4)
        pred = inject_drift(gt, DriftSpec(0.002, 0.05, 4))
        pred_entries = [(f, (p.rotation.wxyz, p.translation)) for f, p in pairs(pred)]
        gt_entries = [(f, (p.rotation.wxyz, p.translation)) for f, p in pairs(gt)]
        assert rpe(pred, gt, 16) == oracles.oracle_rpe(pred_entries, gt_entries, 16)
        # ATE as the per-pose code computed it, from positions stacked pose by pose
        p = np.stack([pose[1] for _, pose in pred_entries])
        g = np.stack([pose[1] for _, pose in gt_entries])
        residual = umeyama_align(p, g).apply(p) - g
        assert ate(pred, gt) == float(np.sqrt((residual**2).sum(axis=1).mean()))

    def test_subsampled_rpe_spans_window_frames(self):
        # every other frame: window 4 pairs frames 4 apart, i.e. 2 entries apart
        gt = gen_trajectory(40, "spline", 2)
        pred = inject_drift(gt, DriftSpec(0.01, 0.1, 2))
        even = list(range(0, 40, 2))
        relabeled = Trajectory(np.arange(20), pred.restricted_to(even).poses)
        relabeled_gt = Trajectory(np.arange(20), gt.restricted_to(even).poses)
        assert rpe(pred.restricted_to(even), gt.restricted_to(even), 4) == rpe(relabeled, relabeled_gt, 2)
