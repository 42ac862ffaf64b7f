import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import line, still, trajectory
from endogeo.errors import ValidationError
from endogeo.geometry import Pose, PoseBatch, Quaternion, compose
from endogeo.metrics import (
    DepthEvalConfig,
    ate,
    depth_metrics,
    resize_depth,
    rpe,
)
from endogeo.rasters import DepthMap
from endogeo.trajectory import Trajectory

from oracles import oracle_depth_metrics, oracle_resize_depth


def rigidly_moved(traj, rotation, translation):
    return Trajectory(traj.frames, compose(Pose(rotation, translation), traj.poses))


class TestAte:
    def test_perfect_prediction(self):
        traj = line(10)
        assert ate(traj, traj) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_offset_absorbed_by_alignment(self):
        gt = line(12)
        pred = rigidly_moved(gt, Quaternion.from_axis_angle((0, 0, 1), 0.7), (5.0, -3.0, 2.0))
        assert ate(pred, gt, align="sim3") < 1e-9
        assert ate(pred, gt, align="se3") < 1e-9

    def test_uniform_scale_absorbed_only_by_sim3(self):
        gt = line(8)
        pred = Trajectory(gt.frames, PoseBatch(gt.poses.quat, 2.0 * gt.poses.trans))
        assert ate(pred, gt, align="sim3") < 1e-9
        assert ate(pred, gt, align="se3") > 0.1

    def test_two_point_rigid_example(self):
        # pred spans 4 mm where gt spans 2 mm; rigid alignment centers both,
        # leaving 1 mm of error at each end
        gt = line(2, step=2.0)
        pred = line(2, step=4.0)
        assert ate(pred, gt, align="se3") == pytest.approx(1.0, abs=1e-12)
        assert ate(pred, gt, align="sim3") == pytest.approx(0.0, abs=1e-9)

    def test_frame_set_mismatch_rejected(self):
        a = line(5)
        b = a.subset(slice(4))
        with pytest.raises(ValidationError, match="frame"):
            ate(a, b)

    def test_too_few_frames_rejected(self):
        one = still([0])
        with pytest.raises(ValidationError):
            ate(one, one)

    def test_unknown_alignment_rejected(self):
        traj = line(4)
        with pytest.raises(ValidationError, match="align"):
            ate(traj, traj, align="affine")


class TestRte:
    def test_perfect_prediction(self):
        traj = line(40)
        assert rpe(traj, traj)[0] == pytest.approx(0.0, abs=1e-12)

    def test_global_rigid_motion_invisible(self):
        gt = line(40)
        pred = rigidly_moved(gt, Quaternion.from_axis_angle((1, 1, 0), 0.4), (9.0, 9.0, -9.0))
        t_err, r_err = rpe(pred, gt)
        assert t_err < 1e-9
        assert r_err < 1e-9

    def test_step_length_mismatch(self):
        # every window-16 relative translation is 16 mm vs 17.6 mm: error 1.6
        gt = line(40, step=1.0)
        pred = line(40, step=1.1)
        assert rpe(pred, gt, window=16)[0] == pytest.approx(1.6, abs=1e-9)

    def test_window_changes_error_magnitude(self):
        gt = line(40, step=1.0)
        pred = line(40, step=1.1)
        assert rpe(pred, gt, window=8)[0] == pytest.approx(0.8, abs=1e-9)

    def test_rotation_component_reported(self):
        gt = still(range(20))
        turns = [Pose(Quaternion.from_axis_angle((0, 0, 1), 0.01 * k), (0.0, 0.0, 0.0)) for k in range(20)]
        pred = trajectory(range(20), turns)
        t_err, r_err = rpe(pred, gt, window=16)
        assert t_err == pytest.approx(0.0, abs=1e-12)
        assert r_err == pytest.approx(0.16, abs=1e-9)

    def test_too_short_rejected(self):
        traj = line(16)
        with pytest.raises(ValidationError, match="window"):
            rpe(traj, traj, window=16)

    def test_bad_window_rejected(self):
        traj = line(20)
        with pytest.raises(ValidationError):
            rpe(traj, traj, window=0)
        # a bool used to run as window 1, and 1.5 to find no pairs
        for window in (True, 1.5, 2.0, "2"):
            with pytest.raises(ValidationError, match="window must be an integer"):
                rpe(traj, traj, window=window)


def full_cfg(**kw):
    base = dict(
        eval_width=8, eval_height=6, depth_min=0.1, depth_max=150.0, median_scaling=True
    )
    base.update(kw)
    return DepthEvalConfig(**base)


class TestDepthMetrics:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        d = DepthMap(rng.uniform(10.0, 100.0, size=(6, 8)))
        m = depth_metrics(d, d, full_cfg())
        assert m.abs_rel == 0.0
        assert m.sq_rel == 0.0
        assert m.rmse == 0.0
        assert m.rmse_log == 0.0
        assert m.delta_1_25 == 1.0
        assert m.n_pixels == 48

    def test_quarter_overestimate_without_scaling(self):
        gt = DepthMap(np.full((6, 8), 40.0))
        pred = DepthMap(np.full((6, 8), 50.0))
        m = depth_metrics(pred, gt, full_cfg(median_scaling=False))
        assert m.abs_rel == pytest.approx(0.25)
        assert m.sq_rel == pytest.approx(100.0 / 40.0)
        assert m.rmse == pytest.approx(10.0)
        assert m.rmse_log == pytest.approx(math.log(1.25))
        assert m.delta_1_25 == 0.0  # threshold is strict

    def test_median_scaling_fixes_global_scale(self):
        rng = np.random.default_rng(1)
        gt = DepthMap(rng.uniform(10.0, 100.0, size=(6, 8)))
        pred = DepthMap(2.0 * gt.values)
        m = depth_metrics(pred, gt, full_cfg(median_scaling=True))
        assert m.abs_rel == pytest.approx(0.0, abs=1e-12)
        assert m.delta_1_25 == 1.0

    def test_delta_monotone_in_error(self):
        rng = np.random.default_rng(2)
        gt = DepthMap(rng.uniform(10.0, 100.0, size=(6, 8)))
        deltas = []
        for spread in (1.05, 1.2, 1.35):
            factors = np.where(rng.uniform(size=(6, 8)) > 0.5, spread, 1.0 / spread)
            pred = DepthMap(gt.values * factors)
            m = depth_metrics(pred, gt, full_cfg(median_scaling=False))
            deltas.append(m.delta_1_25)
        assert deltas[0] == 1.0
        assert deltas[0] >= deltas[1] >= deltas[2]
        assert deltas[2] == 0.0

    def test_gt_range_filter(self):
        gt_vals = np.full((6, 8), 40.0)
        gt_vals[0, :] = 0.05   # below depth_min
        gt_vals[1, :] = 200.0  # above depth_max
        pred = DepthMap(np.full((6, 8), 40.0))
        m = depth_metrics(pred, DepthMap(gt_vals), full_cfg())
        assert m.n_pixels == 32

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        gt = rng.uniform(5.0, 120.0, size=(6, 8))
        pred = gt * rng.uniform(0.7, 1.4, size=(6, 8))
        pv = rng.uniform(size=(6, 8)) > 0.1
        m = depth_metrics(
            DepthMap(pred, pv), DepthMap(gt), full_cfg(median_scaling=True)
        )
        expected = oracle_depth_metrics(
            pred.tolist(), pv.tolist(), gt.tolist(),
            np.ones((6, 8), dtype=bool).tolist(),
            0.1, 150.0, True, 8, 6,
        )
        assert m.abs_rel == pytest.approx(expected["abs_rel"], abs=1e-12)
        assert m.sq_rel == pytest.approx(expected["sq_rel"], abs=1e-12)
        assert m.rmse == pytest.approx(expected["rmse"], abs=1e-12)
        assert m.rmse_log == pytest.approx(expected["rmse_log"], abs=1e-12)
        assert m.delta_1_25 == pytest.approx(expected["delta_1_25"], abs=1e-12)
        assert m.n_pixels == expected["n_pixels"]

    def test_no_overlap_rejected(self):
        gt = DepthMap(np.full((2, 2), 500.0))  # beyond depth_max
        pred = DepthMap(np.full((2, 2), 40.0))
        with pytest.raises(ValidationError):
            depth_metrics(pred, gt, full_cfg())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            DepthEvalConfig(eval_width=0)
        with pytest.raises(ValidationError):
            DepthEvalConfig(depth_min=5.0, depth_max=1.0)
        with pytest.raises(ValidationError, match="32768"):
            DepthEvalConfig(eval_width=2**15 + 1)
        with pytest.raises(ValidationError, match="32768"):
            DepthEvalConfig(eval_height=10**9)
        for width, height in ((2.5, 3), (True, 3), (4, 3.0), (4, False), ("4", 3)):
            with pytest.raises(ValidationError, match="integer"):
                DepthEvalConfig(eval_width=width, eval_height=height)
        assert DepthEvalConfig(eval_width=np.int64(4), eval_height=3) == DepthEvalConfig(eval_width=4, eval_height=3)


class TestResizeDepth:
    def test_same_size_returns_same_object(self):
        d = DepthMap(np.full((4, 6), 7.0))
        assert resize_depth(d, 6, 4) is d

    @pytest.mark.parametrize(
        "width, height, match",
        [(0, 5, "size"), (-1, 3, "size"), (3, 0, "size"), (2.5, 3, "integer"), (True, 2, "integer")],
    )
    def test_bad_target_size_rejected(self, width, height, match):
        # checked before the identity shortcut, so a 6x4 map gets no pass either
        with pytest.raises(ValidationError, match=match):
            resize_depth(DepthMap(np.full((4, 6), 7.0)), width, height)

    def test_numpy_integer_target_size_is_the_int_size(self):
        d = DepthMap(np.arange(24.0).reshape(4, 6) + 1.0)
        assert resize_depth(d, 6, np.int64(4)) is d
        same, resized = resize_depth(d, np.int64(3), np.uint8(2)), resize_depth(d, 3, 2)
        assert np.array_equal(same.values, resized.values) and np.array_equal(same.valid, resized.valid)

    def test_downscale_constant_map(self):
        d = DepthMap(np.full((8, 12), 30.0))
        out = resize_depth(d, 6, 4)
        assert out.values.shape == (4, 6)
        assert np.abs(out.values - 30.0).max() < 1e-12
        assert out.valid.all()

    def test_upscale_skips_invalid_neighbors(self):
        values = np.array([[10.0, 999.0], [10.0, 999.0]])
        valid = np.array([[True, False], [True, False]])
        out = resize_depth(DepthMap(values, valid), 4, 2)
        # wherever the sample is computable it uses only the valid column
        assert np.abs(out.values[out.valid] - 10.0).max() < 1e-12

    def test_nonfinite_value_under_invalid_pixel_stays_out(self):
        # 0 * inf in the weighted sum used to turn valid neighbors into NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = resize_depth(DepthMap([[np.inf, 1, 1, 1], [1, 1, 1, 1]]), 8, 4)
            assert out.valid.sum() == 31 and not out.valid[0, 0]
            assert (out.values[out.valid] == 1.0).all()
            out = resize_depth(DepthMap([[np.nan, 2, 3, 4], [1, 1, 1, 1]]), 2, 1)
        assert out.valid.tolist() == [[True, True]]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_straight_loop_oracle(self, data):
        in_h, in_w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        # both directions in one size range: below, equal to and above the input
        out_h, out_w = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 14))
        cells = in_h * in_w
        values = np.array(data.draw(st.lists(st.floats(0.5, 100.0), min_size=cells, max_size=cells)))
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
        junk = data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -3.0]), min_size=cells, max_size=cells))
        values = np.where(valid, values, junk).reshape(in_h, in_w)
        depth = DepthMap(values, valid.reshape(in_h, in_w))
        out = resize_depth(depth, out_w, out_h)
        expected, expected_valid = oracle_resize_depth(
            depth.values.tolist(), depth.valid.tolist(), in_w, in_h, out_w, out_h
        )
        assert out.valid.tolist() == expected_valid
        assert np.array_equal(out.values[out.valid], np.array(expected)[out.valid])

    def test_all_invalid_region_stays_invalid(self):
        values = np.full((2, 4), 5.0)
        valid = np.zeros((2, 4), dtype=bool)
        valid[:, 0] = True
        out = resize_depth(DepthMap(values, valid), 8, 2)
        assert not out.valid[:, -1].any()
        assert out.valid[:, 0].all()
