import math

import numpy as np
import pytest

from endogeo.errors import ValidationError
from endogeo.geometry import (
    MAX_IMAGE_SIDE,
    CameraIntrinsics,
    Pose,
    Quaternion,
    SimilarityTransform,
    compose,
    inverse,
    pose_distance,
    pose_interp,
    project,
    quats_from_rotation_vectors,
    slerp,
    umeyama_align,
)
from endogeo.rng import SplitMix64

from builders import angle_between, transform


def rand_quat(stream):
    axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
    return Quaternion.from_axis_angle(axis, stream.uniform_in(-3, 3))


def rand_pose(stream):
    return Pose(
        rand_quat(stream),
        (stream.uniform_in(-9, 9), stream.uniform_in(-9, 9), stream.uniform_in(-9, 9)),
    )


class TestQuaternion:
    def test_canonical_sign(self):
        q = Quaternion(-0.5, 0.5, 0.5, 0.5)
        assert q.w == 0.5 and q.x == -0.5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            Quaternion(0.0, 0.0, 0.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Quaternion(float("nan"), 0.0, 0.0, 1.0)

    def test_normalizes_far_from_unit(self):
        q = Quaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0
        assert abs(np.linalg.norm(q.wxyz) - 1.0) < 1e-15

    def test_already_unit_kept_bit_exact(self):
        # values from a unit quaternion; construction must not touch them
        w, x, y, z = 0.9805738625443303, -0.1291761095751494, -0.125406484750683, 0.07785657578135957
        q = Quaternion(w, x, y, z)
        assert (q.w, q.x, q.y, q.z) == (w, x, y, z)

    def test_matrix_round_trip(self):
        stream = SplitMix64(5).derive("q")
        for _ in range(50):
            q = rand_quat(stream)
            back = Quaternion.from_rotation_matrix(q.to_rotation_matrix())
            assert angle_between(q, back) < 1e-12

    # a reflection and a scaled matrix were read as the identity, and zeros
    # as a half turn about x
    @pytest.mark.parametrize(
        ("matrix", "message"),
        [
            (np.diag([1.0, 1.0, -1.0]), "reflection"),
            (-np.eye(3), "reflection"),
            (2.0 * np.eye(3), "orthogonal"),
            (np.zeros((3, 3)), "orthogonal"),
            ((1.0 + 1e-6) * np.eye(3), "orthogonal"),
            (np.full((3, 3), math.nan), "orthogonal"),
            (np.full((3, 3), 1e300), "orthogonal"),
            (np.eye(4), "3x3"),
            # these ended in numpy's untyped ValueError
            ([[1, 0, 0], [0, 1], [0, 0, 1]], "rotation matrix entry"),
            ([["a"] * 3] * 3, "rotation matrix entry"),
        ],
        ids=["reflection", "point-reflection", "scaled", "zeros", "just-beyond-bound", "nan", "overflow", "4x4",
             "ragged", "strings"],
    )
    def test_matrix_that_is_no_rotation_rejected(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            Quaternion.from_rotation_matrix(matrix)

    def test_matrix_within_rounding_bound_accepted(self):
        assert Quaternion.from_rotation_matrix((1.0 + 4e-7) * np.eye(3)) == Quaternion.identity()

    def test_rotation_matrix_orthonormal(self):
        stream = SplitMix64(6).derive("q")
        for _ in range(20):
            m = rand_quat(stream).to_rotation_matrix()
            assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_rotate_matches_matrix(self):
        stream = SplitMix64(7).derive("q")
        v = np.array([1.0, -2.0, 0.5])
        for _ in range(20):
            q = rand_quat(stream)
            assert np.abs(q.rotate(v) - q.to_rotation_matrix() @ v).max() < 1e-12

    # the exponential map that inject_drift draws its rotation noise through
    def test_rotation_vector_round_trip(self):
        q = Quaternion(*quats_from_rotation_vectors(np.array([0.1, -0.2, 0.3]))[0])
        expected = Quaternion.from_axis_angle(
            (0.1, -0.2, 0.3), math.sqrt(0.01 + 0.04 + 0.09)
        )
        assert angle_between(q, expected) < 1e-15

    def test_zero_rotation_vector(self):
        q = quats_from_rotation_vectors(np.zeros((2, 3)))
        assert (q == Quaternion.identity().wxyz).all()

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_axis_angle_rejects_nonfinite_angle(self, angle):
        # used to end in math.sin's "math domain error"
        with pytest.raises(ValidationError, match="angle must be a finite number"):
            Quaternion.from_axis_angle((0.0, 0.0, 1.0), angle)

    @pytest.mark.parametrize("axis", [(1e200, 0.0, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.0, 0.0)])
    def test_axis_angle_rejects_axis_without_finite_nonzero_norm(self, axis):
        # an overflowing norm used to give the identity without an error
        with pytest.raises(ValidationError, match="axis"):
            Quaternion.from_axis_angle(axis, 1.0)

    @pytest.mark.parametrize("vec", [(math.inf, 0.0, 0.0), (1e200, -1e200, 0.0), (0.0, math.nan, 0.0)])
    def test_rotation_vector_rejects_nonfinite_norm(self, vec):
        # (1e200, -1e200, 0) is finite, but its norm overflows
        with pytest.raises(ValidationError, match="angle must be finite"):
            quats_from_rotation_vectors(np.array(vec))


class TestSlerp:
    def test_endpoints_up_to_sign(self):
        stream = SplitMix64(11).derive("q")
        for _ in range(20):
            q0, q1 = rand_quat(stream), rand_quat(stream)
            assert angle_between(slerp(q0, q1, 0.0), q0) < 1e-12
            assert angle_between(slerp(q0, q1, 1.0), q1) < 1e-12

    def test_half_angle_about_fixed_axis(self):
        q1 = Quaternion.from_axis_angle((0, 0, 1), math.pi / 2)
        h = slerp(Quaternion.identity(), q1, 0.5)
        assert h.w == pytest.approx(0.9238795, abs=1e-7)
        assert h.z == pytest.approx(0.3826834, abs=1e-7)
        assert h.x == 0.0 and h.y == 0.0

    def test_angle_grows_linearly(self):
        stream = SplitMix64(12).derive("q")
        for _ in range(20):
            q0, q1 = rand_quat(stream), rand_quat(stream)
            total = angle_between(slerp(q0, q1, 1.0), q0)
            for t in (0.25, 0.5, 0.75):
                assert abs(angle_between(slerp(q0, q1, t), q0) - t * total) < 1e-9

    def test_double_cover_invariance(self):
        stream = SplitMix64(13).derive("q")
        for _ in range(20):
            q0, q1 = rand_quat(stream), rand_quat(stream)
            neg = Quaternion(-q1.w, -q1.x, -q1.y, -q1.z)
            for t in (0.3, 0.7):
                assert angle_between(slerp(q0, q1, t), slerp(q0, neg, t)) < 1e-12

    def test_near_parallel_falls_back_smoothly(self):
        q0 = Quaternion.identity()
        q1 = Quaternion.from_axis_angle((0, 0, 1), 1e-13)
        mid = slerp(q0, q1, 0.5)
        assert abs(np.linalg.norm(mid.wxyz) - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_fraction_rejected(self, t):
        # NaN was reported as a quaternion that could not be normalized
        for q1 in (Quaternion.from_axis_angle((0, 0, 1), 1.0), Quaternion.identity()):
            with pytest.raises(ValidationError, match="interpolation fraction"):
                slerp(Quaternion.identity(), q1, t)


class TestPoseInterp:
    def test_zero_is_identity(self):
        e = Pose(Quaternion.from_axis_angle((1, 0, 0), 1.0), (2, 3, 4))
        out = pose_interp(e, 0.0)
        assert out.rotation.angle() == 0.0
        assert (out.translation == 0.0).all()

    def test_one_is_input(self):
        e = Pose(Quaternion.from_axis_angle((1, 0, 0), 1.0), (2, 3, 4))
        out = pose_interp(e, 1.0)
        rot_gap, trans_gap = pose_distance(out, e)
        assert rot_gap < 1e-12 and trans_gap < 1e-12

    def test_half_of_quarter_turn_with_translation(self):
        e = Pose(Quaternion.from_axis_angle((1, 0, 0), math.pi / 2), (2, 0, 0))
        out = pose_interp(e, 0.5)
        assert out.rotation.angle() == pytest.approx(math.pi / 4, abs=1e-12)
        assert np.abs(out.translation - [1, 0, 0]).max() < 1e-15

    @pytest.mark.parametrize("t", [math.inf, math.nan, np.array([0.5, math.inf])])
    def test_non_finite_fraction_rejected(self, t):
        # inf used to end in math.sin's "math domain error"
        e = Pose(Quaternion.from_axis_angle((1, 0, 0), 1.0), (2, 3, 4))
        with pytest.raises(ValidationError, match="interpolation fraction"):
            pose_interp(e, t)


class TestComposeInverse:
    def test_identity_neutral(self):
        stream = SplitMix64(21).derive("p")
        for _ in range(10):
            p = rand_pose(stream)
            assert compose(p, Pose(Quaternion.identity())) == p

    def test_inverse_cancels(self):
        stream = SplitMix64(22).derive("p")
        for _ in range(10):
            p = rand_pose(stream)
            rot_gap, trans_gap = pose_distance(compose(inverse(p), p), Pose(Quaternion.identity()))
            assert rot_gap < 1e-9 and trans_gap < 1e-9

    def test_quarter_turns_compose_to_half_turn(self):
        quarter = Pose(Quaternion.from_axis_angle((0, 0, 1), math.pi / 2), (0, 0, 0))
        full = compose(quarter, quarter)
        assert full.rotation.angle() == pytest.approx(math.pi, abs=1e-12)

    def test_associative(self):
        stream = SplitMix64(23).derive("p")
        for _ in range(10):
            a, b, c = rand_pose(stream), rand_pose(stream), rand_pose(stream)
            rot_gap, trans_gap = pose_distance(
                compose(compose(a, b), c), compose(a, compose(b, c))
            )
            assert rot_gap < 1e-9 and trans_gap < 1e-9

    def test_action_composition(self):
        # compose(a, b) acts like a after b on points
        stream = SplitMix64(24).derive("p")
        point = np.array([0.3, -1.2, 2.5])
        for _ in range(10):
            a, b = rand_pose(stream), rand_pose(stream)
            assert np.abs(
                transform(compose(a, b), point) - transform(a, transform(b, point))
            ).max() < 1e-9


class TestProjection:
    K = CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)

    def test_optical_axis(self):
        assert (project((0.0, 0.0, 100.0), self.K) == [50.0, 50.0]).all()

    def test_off_axis(self):
        assert (project((10.0, 0.0, 100.0), self.K) == [60.0, 50.0]).all()

    def test_round_trip(self):
        stream = SplitMix64(31).derive("pts")
        for _ in range(20):
            p = np.array(
                [stream.uniform_in(-20, 20), stream.uniform_in(-20, 20), stream.uniform_in(50, 200)]
            )
            pix = project(p, self.K)
            # back along the pixel's ray to the point's depth
            assert np.abs((pix - 50.0) / 100.0 * p[2] - p[:2]).max() < 1e-9

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValidationError):
            project((0.0, 0.0, 0.0), self.K)

    def test_intrinsics_validation(self):
        with pytest.raises(ValidationError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=2, height=2)
        with pytest.raises(ValidationError):
            CameraIntrinsics(fx=1.0, fy=1.0, cx=5.0, cy=0.0, width=2, height=2)
        for fx, fy in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
            with pytest.raises(ValidationError, match="focal"):
                CameraIntrinsics(fx=fx, fy=fy, cx=0.0, cy=0.0, width=2, height=2)
        # only the numbers are checked, so the largest size costs nothing
        side = MAX_IMAGE_SIDE
        assert side == 2**15
        CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=side, height=side)
        for width, height in ((side + 1, 2), (2, side + 1), (10**9, 10**9)):
            with pytest.raises(ValidationError, match="32768"):
                CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)
        for width, height in ((True, 2), (2, False), (2.0, 2)):
            with pytest.raises(ValidationError, match="integer"):
                CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)
        # the squared length of the widest pixel ray overflowed in rectify-maps
        # and eval-consistency, which warned and wrote maps with no pixel inside
        tiny = ((1e-200, 1e-200), (1e-308, 1e-308), (1.0, 1e-200), (5e-324, 1.0), (np.float64(1e-200), 1.0))
        for fx, fy in tiny:
            with pytest.raises(ValidationError, match=f"focal.*fx={fx} fy={fy}"):
                CameraIntrinsics(fx=fx, fy=fy, cx=79.5, cy=59.5, width=160, height=120)
        CameraIntrinsics(fx=1e-150, fy=1e-150, cx=79.5, cy=59.5, width=160, height=120)


class TestUmeyama:
    def test_identity_on_equal_clouds(self):
        cloud = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        t = umeyama_align(cloud, cloud, with_scale=True)
        assert t.scale == pytest.approx(1.0, abs=1e-12)
        assert t.rotation.angle() < 1e-9
        assert np.abs(t.translation).max() < 1e-12

    def test_recovers_known_similarity(self):
        stream = SplitMix64(41).derive("u")
        for _ in range(10):
            cloud = np.array(
                [stream.uniform_in(-10, 10) for _ in range(60)]
            ).reshape(20, 3)
            truth = SimilarityTransform(
                stream.uniform_in(0.5, 2.0),
                rand_quat(stream),
                (stream.uniform_in(-5, 5), stream.uniform_in(-5, 5), stream.uniform_in(-5, 5)),
            )
            got = umeyama_align(cloud, truth.apply(cloud), with_scale=True)
            assert abs(got.scale - truth.scale) < 1e-6
            assert angle_between(got.rotation, truth.rotation) < 1e-6
            assert np.abs(got.translation - truth.translation).max() < 1e-6

    def test_pure_centroid_shift(self):
        cloud = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3]], dtype=float)
        shifted = cloud + np.array([5.0, -2.0, 1.0])
        t = umeyama_align(cloud, shifted, with_scale=False)
        assert t.rotation.angle() < 1e-9
        assert np.abs(t.translation - [5.0, -2.0, 1.0]).max() < 1e-9
        assert t.scale == 1.0

    def test_residual_never_worse_than_identity(self):
        stream = SplitMix64(42).derive("u")
        for _ in range(10):
            a = np.array([stream.uniform_in(-5, 5) for _ in range(30)]).reshape(10, 3)
            b = np.array([stream.uniform_in(-5, 5) for _ in range(30)]).reshape(10, 3)
            t = umeyama_align(a, b, with_scale=True)
            aligned_rms = float(np.sqrt(((t.apply(a) - b) ** 2).sum(axis=1).mean()))
            identity_rms = float(np.sqrt(((a - b) ** 2).sum(axis=1).mean()))
            assert aligned_rms <= identity_rms + 1e-12

    def test_two_point_minimum(self):
        src = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        dst = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        t = umeyama_align(src, dst, with_scale=True)
        assert abs(t.scale - 0.5) < 1e-12

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            umeyama_align([[0, 0, 0]], [[1, 1, 1]], with_scale=False)

    def test_rejects_a_source_variance_beyond_the_float_range(self):
        # the covariance with unit targets is finite; the scale's variance is not
        src = np.array([[1e155, 0.0, 0.0], [-1e155, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="their variance overflows"):
            umeyama_align(src, np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), with_scale=True)

    def test_reflection_guard(self):
        # mirrored clouds must still produce a proper rotation
        cloud = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        mirrored = cloud * np.array([-1.0, 1.0, 1.0])
        t = umeyama_align(cloud, mirrored, with_scale=False)
        assert abs(np.linalg.det(t.rotation.to_rotation_matrix()) - 1.0) < 1e-12


class TestSimilarityTransform:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            SimilarityTransform(0.0, Quaternion.identity(), (0, 0, 0))

    # the last four raised numpy's untyped ValueError, or built as if they were numbers
    @pytest.mark.parametrize("t", [(0.0, math.nan, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.0), [[0.0, 0.0, 0.0]],
                                   "abc", [1, [2], 3], ["1", "2", "3"], [True, False, True]])
    def test_rejects_bad_translation(self, t):
        with pytest.raises(ValidationError, match="translation"):
            SimilarityTransform(1.0, Quaternion.identity(), t)
        with pytest.raises(ValidationError, match="translation"):
            Pose(Quaternion.identity(), t)


def test_pose_rotation_must_be_a_quaternion():
    # a tuple built a pose whose compose and transform ended in AttributeError
    with pytest.raises(ValidationError, match="Quaternion"):
        Pose((1.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
