import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endogeo import geometry, losses, rasters
from endogeo.errors import ValidationError
from endogeo.geometry import CameraIntrinsics, Pose, PoseBatch, Quaternion
from endogeo.losses import (
    LossConfig,
    NormalizationSpec,
    c_flow,
    c_prior,
    c_temp,
    conf_loss,
    consistency_total,
    induced_reprojection,
    point_set_scale,
    pose_loss,
    total_loss,
)
from endogeo.rasters import ConfidenceMap, DepthMap, FlowField, Pointmap
from endogeo.sim import SceneSpec, default_intrinsics, induced_flow, relative_motion, render_depth

from builders import transform
from oracles import oracle_c_flow, oracle_c_prior, oracle_conf_loss

CFG = LossConfig()


def small_intr(width=8, height=6, f=50.0):
    return CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


def zero_flow(width, height):
    return FlowField(np.zeros((height, width, 2)))


class TestPointSetScale:
    def test_single_unit_point(self):
        pm = Pointmap(np.array([[[0.0, 0.0, 1.0]]]))
        assert point_set_scale(pm) == 1.0

    def test_mean_of_norms(self):
        pm = Pointmap(np.array([[[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]]))
        assert point_set_scale(pm) == pytest.approx(3.5)

    def test_invalid_points_excluded(self):
        pm = Pointmap(
            np.array([[[3.0, 0.0, 0.0], [0.0, 400.0, 0.0]]]),
            np.array([[True, False]]),
        )
        assert point_set_scale(pm) == pytest.approx(3.0)

    def test_no_valid_points_rejected(self):
        pm = Pointmap(np.ones((1, 1, 3)), np.array([[False]]))
        with pytest.raises(ValidationError):
            point_set_scale(pm)


class TestConfLoss:
    def test_perfect_prediction_unit_confidence(self):
        pts = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]])
        value, raster, mask = conf_loss(
            Pointmap(pts), Pointmap(pts.copy()), ConfidenceMap(np.ones((1, 2))), CFG
        )
        assert value == 0.0
        assert (raster == 0.0).all()
        assert mask.all()

    def test_confidence_regularizer_alone(self):
        pts = np.ones((2, 3, 3))
        conf = ConfidenceMap(np.full((2, 3), math.e))
        value, _, _ = conf_loss(Pointmap(pts), Pointmap(pts.copy()), conf, CFG)
        assert value == pytest.approx(-CFG.alpha * 6, abs=1e-12)

    def test_uniform_scaling_of_prediction_cancels(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0.5, 2.0, size=(3, 4, 3))
        value, _, _ = conf_loss(
            Pointmap(2.0 * ref), Pointmap(ref), ConfidenceMap(np.ones((3, 4))), CFG
        )
        assert abs(value) < 1e-9

    def test_scaling_both_maps_is_invariant(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0.5, 2.0, size=(3, 4, 3))
        ref = pred + rng.normal(scale=0.05, size=pred.shape)
        conf = ConfidenceMap(rng.uniform(0.5, 3.0, size=(3, 4)))
        base, _, _ = conf_loss(Pointmap(pred), Pointmap(ref), conf, CFG)
        scaled, _, _ = conf_loss(Pointmap(7.0 * pred), Pointmap(7.0 * ref), conf, CFG)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_optimal_confidence_is_alpha_over_residual(self):
        # five unit-norm directions so both set scales stay exactly 1
        angles = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        ref = np.zeros((1, 5, 3))
        ref[0, :, 2] = 1.0
        pred = np.zeros((1, 5, 3))
        pred[0, :, 0] = np.sin(angles)
        pred[0, :, 2] = np.cos(angles)
        residuals = 2.0 * np.sin(angles / 2.0)

        def value_at(conf_values):
            v, _, _ = conf_loss(
                Pointmap(pred), Pointmap(ref), ConfidenceMap(conf_values), CFG
            )
            return v

        opt = (CFG.alpha / residuals).reshape(1, 5)
        best = value_at(opt)
        analytic = float((CFG.alpha - CFG.alpha * np.log(CFG.alpha / residuals)).sum())
        assert best == pytest.approx(analytic, abs=1e-6)
        for bump in (0.99, 1.01):
            assert value_at(opt * bump) > best

    def test_raster_sums_to_value(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.5, 2.0, size=(4, 5, 3))
        ref = rng.uniform(0.5, 2.0, size=(4, 5, 3))
        valid = rng.uniform(size=(4, 5)) > 0.3
        conf = ConfidenceMap(rng.uniform(0.5, 3.0, size=(4, 5)))
        value, raster, mask = conf_loss(
            Pointmap(pred, valid), Pointmap(ref), conf, CFG
        )
        assert value == pytest.approx(raster[mask].sum(), abs=1e-9)
        assert (raster[~mask] == 0.0).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        pred = rng.uniform(0.5, 2.0, size=(3, 4, 3))
        ref = rng.uniform(0.5, 2.0, size=(3, 4, 3))
        pv = rng.uniform(size=(3, 4)) > 0.2
        rv = rng.uniform(size=(3, 4)) > 0.2
        conf = rng.uniform(0.5, 3.0, size=(3, 4))
        value, _, _ = conf_loss(
            Pointmap(pred, pv), Pointmap(ref, rv), ConfidenceMap(conf), CFG
        )
        expected = oracle_conf_loss(
            pred.tolist(), pv.tolist(), ref.tolist(), rv.tolist(),
            conf.tolist(), CFG.alpha, 4, 3,
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_no_overlap_rejected(self):
        pred = Pointmap(np.ones((1, 2, 3)), np.array([[True, False]]))
        ref = Pointmap(np.ones((1, 2, 3)), np.array([[False, True]]))
        with pytest.raises(ValidationError):
            conf_loss(pred, ref, ConfidenceMap(np.ones((1, 2))), CFG)


def batch(*poses):
    return PoseBatch.stack(poses)


class TestPoseLoss:
    def test_identical_poses(self):
        poses = batch(Pose(Quaternion.from_axis_angle((0, 0, 1), 0.3), (1.0, 2.0, 3.0)))
        assert pose_loss(poses, poses, NormalizationSpec(1.0, 1.0)) == 0.0

    def test_double_cover_immune(self):
        q = Quaternion(0.0, 1.0, 0.0, 0.0)
        q_neg = Quaternion(-0.0, -1.0, 0.0, 0.0)
        a = batch(Pose(q, (0.0, 0.0, 0.0)))
        b = batch(Pose(q_neg, (0.0, 0.0, 0.0)))
        assert pose_loss(a, b, NormalizationSpec(1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_translation_triangle(self):
        a = batch(Pose(Quaternion.identity(), (3.0, 4.0, 0.0)))
        b = batch(Pose(Quaternion.identity(), (0.0, 0.0, 0.0)))
        assert pose_loss(a, b, NormalizationSpec(1.0, 1.0)) == pytest.approx(5.0)

    def test_scale_normalization(self):
        a = batch(Pose(Quaternion.identity(), (2.0, 0.0, 0.0)))
        b = batch(Pose(Quaternion.identity(), (1.0, 0.0, 0.0)))
        assert pose_loss(a, b, NormalizationSpec(2.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_sums_over_frames(self):
        a = batch(*[Pose(Quaternion.identity(), (1.0, 0.0, 0.0))] * 3)
        b = batch(*[Pose(Quaternion.identity(), (0.0, 0.0, 0.0))] * 3)
        assert pose_loss(a, b, NormalizationSpec(1.0, 1.0)) == pytest.approx(3.0)

    def test_length_mismatch_rejected(self):
        p = batch(Pose(Quaternion.identity()))
        with pytest.raises(ValidationError, match="pose batch lengths differ: 1 vs 2"):
            pose_loss(p, batch(Pose(Quaternion.identity()), Pose(Quaternion.identity())), NormalizationSpec(1.0, 1.0))
        with pytest.raises(ValidationError, match="pose batches are empty"):
            pose_loss(batch(), batch(), NormalizationSpec(1.0, 1.0))

    @pytest.mark.parametrize(
        "pred", [[Pose(Quaternion.identity())], (Pose(Quaternion.identity()),), Pose(Quaternion.identity()), ["x"], None],
        ids=["list", "tuple", "Pose", "strings", "None"],
    )
    def test_takes_pose_batches(self, pred):
        # a sequence of poses is a PoseBatch everywhere
        for args in ((pred, batch(Pose(Quaternion.identity()))), (batch(Pose(Quaternion.identity())), pred)):
            with pytest.raises(ValidationError, match="poses must be PoseBatches"):
                pose_loss(*args, NormalizationSpec(1.0, 1.0))


class TestInducedReprojection:
    def test_identity_motion_maps_pixels_to_themselves(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 80.0))
        out = induced_reprojection(depth, k, k, Pose(Quaternion.identity()))
        uu, vv = np.meshgrid(np.arange(8.0), np.arange(6.0))
        assert np.abs(out.vectors[..., 0] - uu).max() < 1e-12
        assert np.abs(out.vectors[..., 1] - vv).max() < 1e-12
        assert out.valid.all()

    def test_lateral_translation_gives_uniform_shift(self):
        k = small_intr()
        z = 100.0
        depth = DepthMap(np.full((k.height, k.width), z))
        motion = Pose(Quaternion.identity(), (2.0, 0.0, 0.0))
        out = induced_reprojection(depth, k, k, motion)
        expected_du = k.fx * 2.0 / z
        assert np.abs(out.vectors[..., 0] - (np.arange(8.0) + expected_du)).max() < 1e-12

    def test_forward_translation_expands_radially(self):
        k = CameraIntrinsics(50.0, 50.0, 10.0, 8.0, 21, 17)
        z = 100.0
        depth = DepthMap(np.full((k.height, k.width), z))
        motion = Pose(Quaternion.identity(), (0.0, 0.0, -50.0))
        out = induced_reprojection(depth, k, k, motion)
        # pixel 10 px right of center lands 20 px right of center: X = 10/fx*z,
        # u' = cx + fx * X / (z - 50) = cx + 10 * z / (z - 50)
        assert out.vectors[8, 20, 0] == pytest.approx(30.0, abs=1e-12)
        assert out.vectors[8, 10, 0] == pytest.approx(10.0, abs=1e-12)

    def test_points_moved_behind_camera_masked(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 10.0))
        motion = Pose(Quaternion.identity(), (0.0, 0.0, -20.0))
        out = induced_reprojection(depth, k, k, motion)
        assert not out.valid.any()


class TestFlowConsistency:
    def test_zero_flow_identity_motion(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 60.0))
        value, raster, mask = c_flow(depth, k, k, Pose(Quaternion.identity()), zero_flow(k.width, k.height))
        assert value < 1e-12  # unproject/project round trip leaves ~1 ulp
        assert mask.all()

    def test_constant_unit_flow_identity_motion(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 60.0))
        vectors = np.zeros((k.height, k.width, 2))
        vectors[..., 0] = 1.0
        value, _, mask = c_flow(depth, k, k, Pose(Quaternion.identity()), FlowField(vectors))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert not mask[:, -1].any()  # targets past the right edge drop out

    def test_simulator_flow_closes_the_loop(self):
        scene = SceneSpec(kind="heightfield", extent=100.0, seed=5)
        intr = default_intrinsics(width=32, height=24)
        pose_i = Pose(Quaternion.identity(), (0.0, 0.0, 0.0))
        pose_j = Pose(
            Quaternion.from_axis_angle((0, 1, 0), 0.001), (0.3, 0.15, 0.1)
        )
        depth = render_depth(scene, pose_i, intr)
        flow = induced_flow(depth, pose_i, pose_j, intr)
        value, _, mask = c_flow(depth, intr, intr, relative_motion(pose_i, pose_j), flow)
        assert mask.sum() > 0.7 * mask.size
        assert value < 1e-9

    def test_no_valid_pixels_rejected(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 10.0))
        motion = Pose(Quaternion.identity(), (0.0, 0.0, -20.0))  # all behind camera
        with pytest.raises(ValidationError):
            c_flow(depth, k, k, motion, zero_flow(k.width, k.height))


@st.composite
def flow_cases(draw):
    """Random inputs for c_flow. About one entry in ten is special: a masked
    pixel, or a depth of 0, -2 or NaN, or a flow of NaN, inf or one that
    lands far outside the image. Rotations stay within 120 degrees, and the
    translation's z reaches past many depths, so some points move behind
    the camera, and in one case in four some land exactly on its plane."""
    height, width = draw(st.integers(2, 7)), draw(st.integers(2, 7))

    def raster(values, specials, *channels):
        count = height * width * int(np.prod(channels))
        drawn = draw(st.lists(values, min_size=count, max_size=count))
        codes = draw(st.lists(st.integers(0, 9 * len(specials)), min_size=count, max_size=count))
        picked = [specials[c] if c < len(specials) else x for x, c in zip(drawn, codes)]
        return np.array(picked).reshape((height, width) + channels)

    def camera():
        f = st.floats(5.0, 80.0)
        return CameraIntrinsics(draw(f), draw(f), draw(st.floats(0.0, width - 0.01)),
                                draw(st.floats(0.0, height - 0.01)), width, height)

    depth = DepthMap(raster(st.floats(0.5, 30.0), [0.0, -2.0, math.nan]),
                     raster(st.just(True), [False]))
    flow = FlowField(raster(st.floats(-1.0, 1.0), [math.nan, math.inf, -20.0], 2),
                     raster(st.just(True), [False]))
    quat = [draw(st.floats(1.0, 3.0))] + [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    translation = [draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-12.0, 3.0))]
    depths = depth.values[depth.valid].tolist()
    if depths and draw(st.integers(0, 3)) == 0:
        # no rotation: the points at this depth land exactly on the plane z = 0
        quat, translation[2] = [1.0, 0.0, 0.0, 0.0], -draw(st.sampled_from(depths))
    return depth, camera(), camera(), Pose(Quaternion(*quat), translation), flow


class TestFlowOracle:
    @settings(max_examples=200, deadline=None)
    @given(flow_cases())
    # a quarter turn about y moves the one point to z = 1.8e-16, where an
    # oracle that rotated the scaled point was 33 % off the package
    @example(
        (
            DepthMap(np.full((4, 5), 3.0), np.arange(20).reshape(4, 5) == 5),
            CameraIntrinsics(5.0, 5.0, 0.0, 0.0, 5, 4),
            CameraIntrinsics(5.0, 5.0, 0.0, 0.0, 5, 4),
            Pose(Quaternion(1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
            FlowField(np.zeros((4, 5, 2)), np.arange(20).reshape(4, 5) == 5),
        )
    )
    def test_matches_straight_loop_oracle(self, case):
        depth, k_from, k_to, motion, flow = case
        q = motion.rotation
        try:
            want = oracle_c_flow(
                depth.values.tolist(), depth.valid.tolist(),
                (k_from.fx, k_from.fy, k_from.cx, k_from.cy), (k_to.fx, k_to.fy, k_to.cx, k_to.cy),
                (q.w, q.x, q.y, q.z), motion.translation.tolist(),
                flow.vectors.tolist(), flow.valid.tolist(), depth.width, depth.height,
            )
        except ValueError:
            with pytest.raises(ValidationError, match="no valid pixels"):
                c_flow(depth, k_from, k_to, motion, flow)
            return
        got, raster, mask = c_flow(depth, k_from, k_to, motion, flow)
        # the relative 1e-12 of the c_temp oracle test, taken against at least
        # 1 px, so a mean that nearly cancels is compared to 1e-12 px
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        assert not raster[~mask].any()


def _band_case(width, height, seed):
    """Seeded inputs for every chunked kernel on a width x height image: about
    one entry in ten of each raster is special (masked, 0, -2, NaN, ±inf, or
    a flow far out of the image), and the motion moves some points behind the
    camera."""
    rng = np.random.default_rng(seed)
    shape = (height, width)

    def with_specials(values, specials):
        pick = rng.integers(0, 10 * len(specials), size=values.shape)
        return np.where(pick < len(specials), np.array(specials)[np.minimum(pick, len(specials) - 1)], values)

    def depth():
        return DepthMap(with_specials(rng.uniform(0.5, 30.0, shape), [0.0, -2.0, math.nan, math.inf, -math.inf]),
                        rng.uniform(size=shape) > 0.1)

    def camera():
        fx, fy = rng.uniform(5.0, 80.0, 2)
        return CameraIntrinsics(fx, fy, rng.uniform(0.0, width - 0.01), rng.uniform(0.0, height - 0.01),
                                width, height)

    flow = FlowField(with_specials(rng.uniform(-1.0, 1.0, shape + (2,)), [math.nan, math.inf, -20.0]),
                     rng.uniform(size=shape) > 0.1)
    quat = Quaternion(rng.uniform(1.0, 3.0), *rng.uniform(-1.0, 1.0, 3))
    motion = Pose(quat, (*rng.uniform(-3.0, 3.0, 2), rng.uniform(-12.0, 3.0)))
    return depth(), depth(), camera(), camera(), motion, flow


def _outcomes(case):
    """Each chunked kernel's result on ``case``, or the message it raised."""
    depth_i, depth_j, k_i, k_j, motion, flow = case

    def targets():
        reprojection = induced_reprojection(depth_i, k_i, k_j, motion)
        return reprojection.vectors, reprojection.valid

    calls = (
        lambda: c_flow(depth_i, k_i, k_j, motion, flow),
        lambda: c_temp(depth_i, depth_j, k_i, k_j, motion, flow),
        lambda: c_prior(depth_i, depth_j, k_i, CFG),
        targets,
    )
    results = []
    for call in calls:
        try:
            results.append(call())
        except ValidationError as err:
            results.append(str(err))
    return results


def _identical(a, b):
    """Equal to the bit: arrays by dtype, shape and bytes (so a -0.0 or a NaN
    payload shows), floats by their hex form, containers item by item."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return type(b) is float and a.hex() == b.hex()
    return type(a) is type(b) and a == b


def _outcomes_at(budgets, case):
    """``_outcomes(case)`` with the chunk budget set to each of ``budgets``."""
    with pytest.MonkeyPatch.context() as patch:
        results = []
        for budget in budgets:
            patch.setattr(rasters, "BAND_BYTES", budget)
            results.append(_outcomes(case))
    return results


def _chunk_sizes(plane):
    return [len(index) for index in rasters.candidate_chunks(plane)]


_BAND = 16  # entries of a chunk at the test budget
_BUDGET = 8 * _BAND
_DEFAULT_BAND = rasters.BAND_BYTES // 8  # entries of a chunk at the default budget


@pytest.mark.filterwarnings("error::RuntimeWarning")  # NaN and inf inputs warn nowhere
class TestRowBands:
    """Every chunked kernel gives the same values, rasters and masks whatever
    the chunk size, and so the same as on the whole image at once. (The names
    are those of the row bands that the candidate chunks replaced.)"""

    @pytest.mark.parametrize(
        "width, height",
        [(1, h) for h in (1, 2, 3, _BAND - 1, _BAND, _BAND + 1)]
        # wider than a chunk, so that a row spans chunks
        + [(_BAND + 1, h) for h in (1, 2, 3, 4)]
        + [(5, h) for h in (1, 2, 3, 4, 6, 7)],
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_one_row_bands_equal_one_band(self, width, height, seed):
        case = _band_case(width, height, seed)
        # budgets 1 and 8 both give one entry a chunk
        *small, whole = _outcomes_at((1, 8, _BUDGET - 8, _BUDGET, 8 * width * height), case)
        for outcome in small:
            assert _identical(outcome, whole)
        assert _identical(_outcomes(case), whole)

    @pytest.mark.parametrize("count", [_DEFAULT_BAND - 1, _DEFAULT_BAND, _DEFAULT_BAND + 1])
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_default_band_edge(self, count, seed):
        # every pixel valid up to flat index ``count``, so that c_flow, c_temp
        # and the log residual have exactly ``count`` candidates
        width, height = 128, 130
        depth_i, depth_j, k_i, k_j, motion, flow = _band_case(width, height, seed)
        first = (np.arange(width * height) < count).reshape(height, width)
        depth_i = DepthMap(np.where(first, np.abs(np.nan_to_num(depth_i.values, posinf=1.0, neginf=1.0)) + 0.5, -1.0))
        flow = FlowField(np.nan_to_num(flow.vectors, posinf=1.0, neginf=-1.0), first)
        # one chunk short of full, one full chunk, and one full chunk plus one
        assert _chunk_sizes(depth_i.valid & flow.valid) == {
            _DEFAULT_BAND - 1: [_DEFAULT_BAND - 1], _DEFAULT_BAND: [_DEFAULT_BAND], _DEFAULT_BAND + 1: [_DEFAULT_BAND, 1]
        }[count]
        case = (depth_i, depth_j, k_i, k_j, motion, flow)
        (whole,) = _outcomes_at((8 * width * height,), case)
        assert _identical(_outcomes(case), whole)

    @settings(max_examples=50, deadline=None)
    @given(
        plane=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1)).map(
            lambda a: np.random.default_rng(a[2]).uniform(size=a[:2]) < 0.6
        ),
        budget=st.integers(0, 100),
    )
    def test_chunks_follow_the_patched_budget(self, plane, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rasters, "BAND_BYTES", budget)
            chunks = list(rasters.candidate_chunks(plane))
        size = max(1, budget // 8)
        cells = np.flatnonzero(plane)
        assert [len(index) for index in chunks] == [
            min(size, cells.size - start) for start in range(0, cells.size, size)
        ]
        assert all(index.dtype == np.int64 for index in chunks)
        assert np.array_equal(np.concatenate([np.empty(0, np.int64)] + chunks), cells)

    @settings(max_examples=50, deadline=None)
    @given(
        plane=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1)).map(
            lambda a: np.random.default_rng(a[2]).uniform(size=a[:2]) < 0.6
        ),
    )
    def test_cell_coords_are_the_columns_and_rows(self, plane):
        u, v = rasters.cell_coords(np.flatnonzero(plane), plane.shape[1])
        assert u.dtype == v.dtype == np.float64
        rows, cols = np.nonzero(plane)
        assert np.array_equal(u, cols) and np.array_equal(v, rows)

    def test_no_candidates_keep_the_messages(self):
        depth_i, depth_j, k_i, k_j, motion, flow = _band_case(6, 5, 7)
        no_depth = DepthMap(depth_i.values, np.zeros((5, 6), dtype=bool))
        no_flow = FlowField(flow.vectors, np.zeros((5, 6), dtype=bool))
        for budget in (1, rasters.BAND_BYTES):
            (depthless,), (flowless,) = (
                _outcomes_at((budget,), case)
                for case in ((no_depth, depth_j, k_i, k_j, motion, flow), (depth_i, depth_j, k_i, k_j, motion, no_flow))
            )
            assert depthless[:3] == [
                "no valid pixels for the flow-consistency loss",
                "no valid pixels for the temporal-consistency loss",
                "no jointly valid pixels for the prior loss",
            ]
            assert flowless[:2] == depthless[:2]
            targets, valid = depthless[3]
            assert not valid.any() and not targets.any()
        assert _chunk_sizes(np.zeros((5, 6), dtype=bool)) == []


_SMALL = small_intr()  # 8x6, the size of every map below but the large one
_LARGE = small_intr(80, 60)


@pytest.mark.parametrize(
    "call",
    [
        lambda depth, large, flow, m: c_flow(depth, _LARGE, _SMALL, m, flow),
        lambda depth, large, flow, m: c_flow(depth, _SMALL, _LARGE, m, flow),
        lambda depth, large, flow, m: c_temp(depth, depth, _LARGE, _SMALL, m, flow),
        lambda depth, large, flow, m: c_temp(depth, depth, _SMALL, _LARGE, m, flow),
        # depth_j matches its own camera but not depth_i
        lambda depth, large, flow, m: c_temp(depth, large, _SMALL, _LARGE, m, flow),
        lambda depth, large, flow, m: c_prior(depth, depth, _LARGE, CFG),
        lambda depth, large, flow, m: induced_reprojection(depth, _LARGE, _SMALL, m),
    ],
    ids=["c_flow-k_from", "c_flow-k_to", "c_temp-k_i", "c_temp-k_j", "c_temp-depth_j", "c_prior", "induced"],
)
def test_sizes_must_match_their_cameras(call):
    # each of these used to return a value with no error
    depth = DepthMap(np.full((6, 8), 42.0))
    large = DepthMap(np.full((60, 80), 42.0))
    with pytest.raises(ValidationError, match="dimensions differ"):
        call(depth, large, zero_flow(8, 6), Pose(Quaternion.identity()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInvalidDepth:
    """An invalid depth pixel is missing to every loss, whatever it stores."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 9), height=st.integers(1, 9))
    def test_stored_value_is_ignored(self, seed, width, height):
        case = _band_case(width, height, seed)
        tame = tuple(DepthMap(np.where(d.valid, d.values, 1.0), d.valid) for d in case[:2])
        assert _identical(_outcomes(tame + case[2:]), _outcomes(case))


class TestTemporalConsistency:
    def test_identical_depths_zero(self):
        k = small_intr()
        depth = DepthMap(np.full((k.height, k.width), 42.0))
        value, _, mask = c_temp(depth, depth, k, k, Pose(Quaternion.identity()), zero_flow(k.width, k.height))
        assert value == 0.0
        assert mask.all()

    def test_doubled_target_depth_gives_one(self):
        k = small_intr()
        d = np.full((k.height, k.width), 42.0)
        value, _, _ = c_temp(
            DepthMap(d), DepthMap(2.0 * d), k, k, Pose(Quaternion.identity()), zero_flow(k.width, k.height)
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_ratio_direction_symmetric(self):
        k = small_intr()
        d = np.full((k.height, k.width), 42.0)
        halved, _, _ = c_temp(
            DepthMap(d), DepthMap(0.5 * d), k, k, Pose(Quaternion.identity()), zero_flow(k.width, k.height)
        )
        doubled, _, _ = c_temp(
            DepthMap(d), DepthMap(2.0 * d), k, k, Pose(Quaternion.identity()), zero_flow(k.width, k.height)
        )
        assert halved == pytest.approx(doubled, abs=1e-12)

    def test_invalid_neighbor_poisons_bilinear_sample(self):
        k = small_intr()
        d = np.full((k.height, k.width), 42.0)
        valid_j = np.ones((k.height, k.width), dtype=bool)
        valid_j[2, 3] = False
        _, _, mask = c_temp(
            DepthMap(d), DepthMap(d, valid_j), k, k, Pose(Quaternion.identity()),
            zero_flow(k.width, k.height),
        )
        # every pixel whose 2x2 bilinear support includes (2, 3) is rejected,
        # even where the weight on that corner is zero
        for i, j in ((2, 3), (2, 2), (1, 3), (1, 2)):
            assert not mask[i, j]
        assert mask.sum() == mask.size - 4


class TestDepthPrior:
    def test_identical_maps_exactly_zero(self):
        k = small_intr()
        rng = np.random.default_rng(6)
        d = rng.uniform(50.0, 90.0, size=(k.height, k.width))
        total, parts = c_prior(DepthMap(d), DepthMap(d.copy()), k, CFG)
        assert total == 0.0
        assert parts == {"c_si": 0.0, "c_grad": 0.0, "c_normal": 0.0}

    def test_global_scale_immune(self):
        k = small_intr()
        rng = np.random.default_rng(7)
        d = rng.uniform(50.0, 90.0, size=(k.height, k.width))
        total, parts = c_prior(DepthMap(3.0 * d), DepthMap(d), k, CFG)
        assert parts["c_si"] < 1e-12
        assert parts["c_grad"] < 1e-12
        assert parts["c_normal"] < 1e-12
        assert total < 1e-12

    def test_si_term_is_log_residual_variance(self):
        k = small_intr(width=2, height=2)
        depth = np.array([[10.0, 10.0], [10.0, 40.0]])
        ref = np.full((2, 2), 10.0)
        cfg = LossConfig(w_si=1.0, w_grad=0.0, w_normal=0.0)
        total, parts = c_prior(DepthMap(depth), DepthMap(ref), k, cfg)
        g = np.log(depth) - np.log(ref)
        assert parts["c_si"] == pytest.approx(g.var(), abs=1e-12)
        assert total == pytest.approx(g.var(), abs=1e-12)

    def test_matches_oracle_on_handcrafted_grid(self):
        k = small_intr(width=4, height=4)
        rng = np.random.default_rng(8)
        depth = rng.uniform(40.0, 80.0, size=(4, 4))
        ref = depth + rng.normal(scale=2.0, size=(4, 4))
        dv = rng.uniform(size=(4, 4)) > 0.15
        total, parts = c_prior(DepthMap(depth, dv), DepthMap(ref), k, CFG)
        o_total, o_si, o_grad, o_normal = oracle_c_prior(
            depth.tolist(), dv.tolist(), ref.tolist(),
            np.ones((4, 4), dtype=bool).tolist(),
            (k.fx, k.fy, k.cx, k.cy),
            CFG.w_si, CFG.w_grad, CFG.w_normal, 4, 4,
        )
        assert parts["c_si"] == pytest.approx(o_si, abs=1e-12)
        assert parts["c_grad"] == pytest.approx(o_grad, abs=1e-12)
        assert parts["c_normal"] == pytest.approx(o_normal, abs=1e-9)
        assert total == pytest.approx(o_total, abs=1e-9)

    def test_weights_scale_terms(self):
        k = small_intr()
        rng = np.random.default_rng(9)
        depth = rng.uniform(40.0, 80.0, size=(k.height, k.width))
        ref = rng.uniform(40.0, 80.0, size=(k.height, k.width))
        _, parts = c_prior(DepthMap(depth), DepthMap(ref), k, CFG)
        cfg = LossConfig(w_si=2.0, w_grad=0.5, w_normal=0.0)
        total, _ = c_prior(DepthMap(depth), DepthMap(ref), k, cfg)
        assert total == pytest.approx(
            2.0 * parts["c_si"] + 0.5 * parts["c_grad"], abs=1e-12
        )

    def test_disjoint_maps_rejected(self):
        k = small_intr(width=2, height=1)
        a = DepthMap(np.array([[1.0, 2.0]]), np.array([[True, False]]))
        b = DepthMap(np.array([[1.0, 2.0]]), np.array([[False, True]]))
        with pytest.raises(ValidationError):
            c_prior(a, b, k, CFG)


@st.composite
def cameras(draw, width, height):
    """Intrinsics of a width x height camera, from wide (f of 0.5 px) to
    narrow (f of 500 px), with the principal point anywhere in the image."""
    f = st.floats(0.5, 500.0)
    return CameraIntrinsics(draw(f), draw(f), draw(st.floats(0.0, width - 0.01)),
                            draw(st.floats(0.0, height - 0.01)), width, height)


@st.composite
def depth_planes(draw, width, height, low=0.5, high=30.0):
    values = draw(st.lists(st.floats(low, high), min_size=width * height, max_size=width * height))
    return np.array(values).reshape(height, width)


@st.composite
def prior_cases(draw):
    """A depth map, a reference map and a camera, about one pixel in ten
    masked in each map."""
    height, width = draw(st.integers(3, 7)), draw(st.integers(3, 7))

    def depth_map():
        masked = draw(st.lists(st.integers(0, 9), min_size=width * height, max_size=width * height))
        return DepthMap(draw(depth_planes(width, height)), np.array(masked).reshape(height, width) > 0)

    return depth_map(), depth_map(), draw(cameras(width, height))


class TestClosedForms:
    """The closed forms of the consistency kernels equal their definitions."""

    @settings(max_examples=200, deadline=None)
    @given(
        quat=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(c * c for c in q) > 1e-6),
        translation=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
        points=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(1e-3, 1e3)),
                        min_size=1, max_size=20),
    )
    def test_moved_rays_equal_transform(self, quat, translation, points):
        motion = Pose(Quaternion(*quat), translation)
        x, y, z = (np.array(c) for c in zip(*points))
        want = transform(motion, np.stack([x * z, y * z, z], axis=-1))
        # relative to the size of the point and of the translation
        scale = z * np.sqrt(x * x + y * y + 1.0) + np.sqrt(sum(t * t for t in translation))
        for rows in ((0, 1, 2), (2,)):
            got = motion.move_rays(x, y, z, rows)
            for k, row in enumerate(rows):
                assert (np.abs(got[k] - want[:, row]) <= 1e-12 * scale).all()

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.tuples(st.integers(3, 7), st.integers(3, 7)).flatmap(
            lambda size: st.tuples(depth_planes(*size, 1e-3, 1e3), cameras(*size))
        )
    )
    def test_unit_normals_equal_the_cross_product_of_central_differences(self, case):
        values, camera = case
        height, width = values.shape
        index = np.flatnonzero(np.pad(np.ones((height - 2, width - 2), dtype=bool), 1))
        rays = geometry.pixel_rays(*rasters.cell_coords(index, width), camera)
        got = np.stack(losses._normals(values, index, rays, camera), axis=-1)
        got /= np.sqrt((got**2).sum(axis=-1, keepdims=True))

        def point(row, col):
            # exact rationals of the unprojected float depth
            z = Fraction(values[row, col])
            return (z * (col - Fraction(camera.cx)) / Fraction(camera.fx),
                    z * (row - Fraction(camera.cy)) / Fraction(camera.fy), z)

        for normal, cell in zip(got, index.tolist()):
            row, col = divmod(cell, width)
            tx = [p - q for p, q in zip(point(row, col + 1), point(row, col - 1))]
            ty = [p - q for p, q in zip(point(row + 1, col), point(row - 1, col))]
            want = np.array([float(c) for c in (tx[1] * ty[2] - tx[2] * ty[1], tx[2] * ty[0] - tx[0] * ty[2],
                                                tx[0] * ty[1] - tx[1] * ty[0])])
            want /= np.sqrt((want**2).sum())
            assert np.abs(normal - want).max() <= 1e-12


class TestPriorAtExtremeScales:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(case=prior_cases(), exponent=st.integers(-300, 300))
    def test_breakdown_does_not_depend_on_the_depth_scale(self, case, exponent):
        # normals built from products of raw depths underflow from 1e-150
        # down, dropping every pixel, and overflow from 1e150 up, warning
        depth, ref, camera = case
        k = 10.0**exponent
        scaled = DepthMap(k * depth.values, depth.valid), DepthMap(k * ref.values, ref.valid)
        try:
            _, want = c_prior(depth, ref, camera, CFG)
        except ValidationError:
            with pytest.raises(ValidationError, match="no jointly valid pixels"):
                c_prior(*scaled, camera, CFG)
            return
        _, got = c_prior(*scaled, camera, CFG)
        # c_normal is a mean of 0.5 |n_d - n_r|^2 over unit normals, whose
        # last bits (about 1e-14 here) move it by about 1e-14 sqrt(c_normal)
        # whatever the scale; that is more than 1e-12 of it only where the
        # normals are all but parallel
        larger = max(got["c_normal"], want["c_normal"])
        assert abs(got["c_normal"] - want["c_normal"]) <= 1e-12 * larger + 1e-13 * math.sqrt(larger)
        # log(k d) - log(k r) rounds to about 1e-13 absolute at |log k| near
        # 690, so the log terms are compared relative to at least 1
        for key in ("c_si", "c_grad"):
            assert abs(got[key] - want[key]) <= 1e-12 * max(want[key], 1.0), key


class TestComposites:
    def test_zero_weights_kill_everything(self):
        cfg = LossConfig(w_flow=0.0, w_temp=0.0, w_prior=0.0)
        total, parts = consistency_total(3.0, 5.0, 7.0, cfg)
        assert total == 0.0
        assert parts == {"flow": 0.0, "temp": 0.0, "prior": 0.0}

    def test_weighted_sum(self):
        cfg = LossConfig(w_flow=1.0, w_temp=2.0, w_prior=3.0)
        total, parts = consistency_total(0.5, 0.25, 0.125, cfg)
        assert total == pytest.approx(0.5 + 0.5 + 0.375)
        assert parts["temp"] == pytest.approx(0.5)

    def test_uncertainty_constant_touches_flow_and_temp_only(self):
        cfg = LossConfig(uncertainty_constant=2.0)
        total, parts = consistency_total(1.0, 1.0, 1.0, cfg)
        assert parts["flow"] == 2.0 and parts["temp"] == 2.0 and parts["prior"] == 1.0
        assert total == 5.0

    def test_total_loss_example(self):
        cfg = LossConfig(lambda_consist=0.1)
        assert total_loss(1.0, 0.5, 2.0, cfg) == pytest.approx(1.7)

    def test_config_validation(self):
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="alpha"):
                LossConfig(alpha=alpha)
        with pytest.raises(ValidationError):
            LossConfig(w_grad=-1.0)
        with pytest.raises(ValidationError):
            NormalizationSpec(0.0, 1.0)
        for scales in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, -2.0)):
            with pytest.raises(ValidationError, match="normalization scale"):
                NormalizationSpec(*scales)


class TestNonNegativity:
    def test_consistency_terms_never_negative(self):
        k = small_intr()
        rng = np.random.default_rng(10)
        for _ in range(5):
            d_i = rng.uniform(30.0, 90.0, size=(k.height, k.width))
            d_j = rng.uniform(30.0, 90.0, size=(k.height, k.width))
            vectors = rng.normal(scale=0.4, size=(k.height, k.width, 2))
            flow = FlowField(vectors)
            motion = Pose(
                Quaternion.from_axis_angle((0, 1, 0), rng.normal(scale=0.002)),
                rng.normal(scale=0.2, size=3),
            )
            v_flow, _, _ = c_flow(DepthMap(d_i), k, k, motion, flow)
            v_temp, _, _ = c_temp(DepthMap(d_i), DepthMap(d_j), k, k, motion, flow)
            _, parts = c_prior(DepthMap(d_i), DepthMap(d_j), k, CFG)
            assert v_flow >= 0.0
            assert v_temp >= 0.0
            assert all(v >= 0.0 for v in parts.values())
