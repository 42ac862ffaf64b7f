import json
import math

import numpy as np
import pytest

from builders import angle_between
from endogeo.errors import FormatError, ValidationError
from endogeo.geometry import CameraIntrinsics, Quaternion
from endogeo.rasters import DepthMap, DisparityMap
from endogeo.stereo import (
    MonoCalibration,
    StereoCalibration,
    compute_rectify_maps,
    depth_to_disparity,
    disparity_to_depth,
    distort_pixels,
    load_calibration,
    rectify_pixels,
    remap,
    save_calibration,
    undistort_pixels,
)

NO_DIST = (0.0, 0.0, 0.0, 0.0, 0.0)


def make_intr(width=64, height=48, f=700.0):
    return CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


def ideal_rig(baseline=5.0):
    cam = MonoCalibration(make_intr(), NO_DIST)
    return StereoCalibration(cam, cam, Quaternion.identity(), (baseline, 0.0, 0.0))


class TestDisparityDepth:
    def test_textbook_values(self):
        disp = DisparityMap(np.full((2, 2), 10.0))
        depth = disparity_to_depth(disp, 5.0, 1000.0)
        assert (depth.values == 500.0).all()
        assert depth.valid.all()

    def test_zero_disparity_invalid(self):
        disp = DisparityMap(np.array([[0.0, 10.0]]))
        depth = disparity_to_depth(disp, 5.0, 1000.0)
        assert not depth.valid[0, 0]
        assert depth.values[0, 0] == 0.0
        assert depth.valid[0, 1]

    def test_mixed_raster(self):
        disp = DisparityMap(np.array([[1.0, 50.0]]))
        depth = disparity_to_depth(disp, 5.0, 1000.0)
        assert depth.values[0, 0] == pytest.approx(5000.0)
        assert depth.values[0, 1] == pytest.approx(100.0)

    def test_round_trip(self):
        values = np.linspace(0.5, 80.0, 24).reshape(4, 6)
        disp = DisparityMap(values)
        back = depth_to_disparity(disparity_to_depth(disp, 4.2, 850.0), 4.2, 850.0)
        assert np.abs(back.values - values).max() < 1e-9
        assert (back.valid == disp.valid).all()

    def test_monotone_decreasing(self):
        disp = DisparityMap(np.array([[1.0, 2.0, 4.0, 8.0]]))
        depth = disparity_to_depth(disp, 5.0, 700.0)
        assert (np.diff(depth.values[0]) < 0).all()

    def test_rejects_bad_rig_numbers(self):
        disp = DisparityMap(np.full((1, 1), 10.0))
        with pytest.raises(ValidationError):
            disparity_to_depth(disp, 0.0, 700.0)
        with pytest.raises(ValidationError):
            disparity_to_depth(disp, 5.0, -1.0)
        with pytest.raises(ValidationError):
            depth_to_disparity(DepthMap(np.full((1, 1), 10.0)), -5.0, 700.0)
        # b * f / x would be inf or NaN on every pixel, so none would stay valid
        for baseline, focal in ((math.inf, 1.0), (5.0, math.inf), (math.nan, 1.0), (5.0, math.nan)):
            with pytest.raises(ValidationError, match="finite number > 0"):
                disparity_to_depth(DisparityMap(np.ones((2, 2))), baseline, focal)
            with pytest.raises(ValidationError, match="finite number > 0"):
                depth_to_disparity(DepthMap(np.ones((2, 2))), baseline, focal)


class TestDistortion:
    def test_zero_coefficients_are_identity(self):
        cam = MonoCalibration(make_intr(), NO_DIST)
        px = np.array([[10.0, 20.0], [31.5, 23.5], [0.0, 0.0]])
        back = distort_pixels(cam, undistort_pixels(cam, px))
        assert np.abs(back - px).max() < 1e-12

    def test_radial_round_trip(self):
        cam = MonoCalibration(make_intr(), (-0.1, 0.0, 0.0, 0.0, 0.0))
        uu, vv = np.meshgrid(np.linspace(4.0, 59.0, 12), np.linspace(4.0, 43.0, 9))
        px = np.stack([uu, vv], axis=-1)
        back = distort_pixels(cam, undistort_pixels(cam, px))
        assert np.abs(back - px).max() < 1e-6

    def test_full_model_round_trip(self):
        cam = MonoCalibration(make_intr(), (-0.12, 0.03, 1e-3, -5e-4, 0.001))
        uu, vv = np.meshgrid(np.linspace(8.0, 55.0, 10), np.linspace(6.0, 41.0, 8))
        px = np.stack([uu, vv], axis=-1)
        back = distort_pixels(cam, undistort_pixels(cam, px))
        assert np.abs(back - px).max() < 1e-6

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
    def test_no_pixels_give_no_coordinates(self, shape):
        # undistortion raised numpy's ValueError on the empty step array
        cam = MonoCalibration(make_intr(), (-0.1, 0.0, 0.0, 0.0, 0.0))
        assert undistort_pixels(cam, np.zeros(shape)).shape == shape
        assert distort_pixels(cam, np.zeros(shape)).shape == shape

    def test_barrel_pulls_points_inward(self):
        cam = MonoCalibration(make_intr(), (-0.1, 0.0, 0.0, 0.0, 0.0))
        k = cam.intrinsics
        center = np.array([k.cx, k.cy])
        px = distort_pixels(cam, np.array([[0.04, 0.03]]))
        undistorted_px = np.array([[k.fx * 0.04 + k.cx, k.fy * 0.03 + k.cy]])
        assert np.linalg.norm(px - center) < np.linalg.norm(undistorted_px - center)

    def test_requires_five_coefficients(self):
        for dist in ((0.0, 0.0, 0.0), (0.0,) * 4, (0.0,) * 6, 5, None, [NO_DIST], np.zeros(4),
                     (0.0, 0.0, 0.0, 0.0, math.nan), np.array([0.0, 0.0, 0.0, 0.0, math.inf]),
                     (0.0, 0.0, 0.0, 0.0, True), (0.0, 0.0, 0.0, 0.0, "0")):
            with pytest.raises(ValidationError, match="distortion coefficient"):
                MonoCalibration(make_intr(), dist)
        assert MonoCalibration(make_intr(), np.zeros(5, dtype=np.int32)).dist == NO_DIST


class TestRectification:
    def test_already_rectified_rig_gives_identity_maps(self):
        maps = compute_rectify_maps(ideal_rig())
        k = maps.intrinsics
        uu, vv = np.meshgrid(
            np.arange(k.width, dtype=np.float64), np.arange(k.height, dtype=np.float64)
        )
        assert np.abs(maps.left_x - uu).max() < 1e-9
        assert np.abs(maps.left_y - vv).max() < 1e-9
        assert np.abs(maps.right_x - uu).max() < 1e-9
        assert np.abs(maps.right_y - vv).max() < 1e-9

    def test_rectified_intrinsics_are_left_camera(self):
        left = MonoCalibration(make_intr(f=720.0), (-0.05, 0.0, 0.0, 0.0, 0.0))
        right = MonoCalibration(make_intr(f=700.0), (-0.04, 0.0, 0.0, 0.0, 0.0))
        calib = StereoCalibration(
            left, right, Quaternion.from_axis_angle((0, 1, 0), 0.01), (5.0, 0.02, -0.01)
        )
        maps = compute_rectify_maps(calib)
        assert maps.intrinsics == left.intrinsics
        assert maps.baseline == pytest.approx(calib.baseline)

    def test_row_alignment_on_perturbed_rig(self):
        left = MonoCalibration(make_intr(), (-0.08, 0.01, 0.0, 0.0, 0.0))
        right = MonoCalibration(make_intr(f=710.0), (-0.06, 0.0, 1e-4, 0.0, 0.0))
        rot = Quaternion.from_axis_angle((0.1, 1.0, 0.05), 0.02)
        calib = StereoCalibration(left, right, rot, (5.0, 0.05, -0.03))
        maps = compute_rectify_maps(calib)

        r = rot.to_rotation_matrix()
        t = calib.translation
        pts = np.array(
            [[x, y, z] for x in (-6.0, 0.0, 7.0) for y in (-4.0, 3.0) for z in (80.0, 140.0)]
        )
        pl = distort_pixels(left, pts[:, :2] / pts[:, 2:3])
        pts_right = (pts - t) @ r  # == R^T (X - T) row-wise
        pr = distort_pixels(right, pts_right[:, :2] / pts_right[:, 2:3])
        rect_l = rectify_pixels(calib, maps, "left", pl)
        rect_r = rectify_pixels(calib, maps, "right", pr)
        assert np.abs(rect_l[:, 1] - rect_r[:, 1]).max() < 1e-6
        # the left rectified pixel sits to the right of the right one
        assert (rect_l[:, 0] - rect_r[:, 0] > 0).all()

    def test_rectify_pixels_rejects_unknown_side(self):
        calib = ideal_rig()
        maps = compute_rectify_maps(calib)
        with pytest.raises(ValidationError, match="side"):
            rectify_pixels(calib, maps, "top", np.array([[1.0, 1.0]]))

    def test_zero_baseline_rejected(self):
        cam = MonoCalibration(make_intr(), NO_DIST)
        with pytest.raises(ValidationError, match="baseline"):
            StereoCalibration(cam, cam, Quaternion.identity(), (0.0, 0.0, 0.0))

    # the last two have finite entries whose norm, the baseline, overflows
    # the last four raised numpy's untyped ValueError, or built as if they were numbers
    @pytest.mark.parametrize("t", [(math.inf, 0.0, 0.0), (5.0, math.nan, 0.0), (5.0, 0.0),
                                   (1e308, 1e308, 0.0), (-1e155, 0.0, -1e300),
                                   "abc", [5, [2], 3], ["5", "0", "0"], [True, False, False]])
    def test_bad_translation_rejected(self, t):
        cam = MonoCalibration(make_intr(), NO_DIST)
        with pytest.raises(ValidationError, match="extrinsic translation"):
            StereoCalibration(cam, cam, Quaternion.identity(), t)

    # the rig takes its rotation as a Quaternion, as Pose does; a matrix, a
    # rotation or not, is read by Quaternion.from_rotation_matrix first
    # (load_calibration does so), so none of these builds a rig
    @pytest.mark.parametrize(
        "matrix",
        [np.eye(3), 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3)), [[1, 0, 0], [0, 1], [0, 0, 1]],
         [["a"] * 3] * 3, (1.0, 0.0, 0.0, 0.0), None],
        ids=["rotation", "scaled", "reflection", "zeros", "ragged", "strings", "wxyz", "none"],
    )
    def test_matrix_that_is_no_rotation_rejected(self, matrix):
        cam = MonoCalibration(make_intr(), NO_DIST)
        with pytest.raises(ValidationError, match="rig rotation must be a Quaternion"):
            StereoCalibration(cam, cam, matrix, (5.0, 0.0, 0.0))


class TestRemap:
    def test_identity_maps_reproduce_image(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(6, 9))
        uu, vv = np.meshgrid(np.arange(9.0), np.arange(6.0))
        out = remap(img, uu, vv)
        assert np.abs(out - img).max() < 1e-12

    def test_integer_shift(self):
        img = np.arange(12.0).reshape(3, 4)
        uu, vv = np.meshgrid(np.arange(4.0), np.arange(3.0))
        out = remap(img, uu + 1.0, vv)
        assert (out[:, :3] == img[:, 1:]).all()
        assert (out[:, 3] == 0.0).all()

    def test_half_pixel_interpolates_linear_ramp(self):
        img = np.tile(np.arange(5.0), (4, 1))
        uu, vv = np.meshgrid(np.arange(5.0), np.arange(4.0))
        out = remap(img, uu + 0.5, vv)
        assert np.abs(out[:, :4] - (np.arange(4.0) + 0.5)).max() < 1e-12

    def test_multichannel(self):
        img = np.stack([np.full((3, 3), 2.0), np.full((3, 3), 5.0)], axis=-1)
        uu, vv = np.meshgrid(np.arange(3.0), np.arange(3.0))
        out = remap(img, uu, vv)
        assert out.shape == (3, 3, 2)
        assert (out[..., 0] == 2.0).all() and (out[..., 1] == 5.0).all()

    def test_map_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            remap(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (3, 0, 2), (0, 3, 1)])
    def test_image_with_an_empty_side_rejected(self, shape):
        with pytest.raises(ValidationError, match="non-empty"):
            remap(np.zeros(shape), np.zeros((2, 2)), np.zeros((2, 2)))


class TestCalibrationIO:
    def make_calib(self):
        left = MonoCalibration(make_intr(f=720.0), (-0.1, 0.02, 1e-3, -2e-3, 5e-4))
        right = MonoCalibration(make_intr(f=705.0), (-0.09, 0.015, 0.0, 0.0, 0.0))
        rot = Quaternion.from_axis_angle((0.2, 1.0, -0.1), 0.015)
        return StereoCalibration(left, right, rot, (5.1, 0.04, -0.02))

    def test_round_trip(self, tmp_path):
        calib = self.make_calib()
        path = tmp_path / "calib.json"
        save_calibration(path, calib)
        loaded = load_calibration(path)
        assert loaded.left.intrinsics == calib.left.intrinsics
        assert loaded.right.dist == calib.right.dist
        assert np.abs(loaded.translation - calib.translation).max() < 1e-12
        assert angle_between(loaded.rotation, calib.rotation) < 1e-9

    def test_doubly_round_trip_is_stable(self, tmp_path):
        calib = self.make_calib()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_calibration(p1, calib)
        save_calibration(p2, load_calibration(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="JSON"):
            load_calibration(path)

    def test_missing_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = json.loads(json.dumps({"left": {}, "right": {}}))
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(FormatError, match="extrinsics"):
            load_calibration(path)

    def test_non_orthogonal_rotation(self, tmp_path):
        from endogeo.stereo import calibration_to_dict

        obj = calibration_to_dict(self.make_calib())
        obj["extrinsics"]["R"][0][0] += 0.01
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(FormatError, match="rotation"):
            load_calibration(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: 0,
            lambda obj: ["left", "right", "extrinsics"],
            lambda obj: {**obj, "left": 1.5},
            lambda obj: {**obj, "extrinsics": "R T"},
            lambda obj: {**obj, "extrinsics": {"R": [[1, "a", 0]] * 3, "T": [5, 0, 0]}},
            lambda obj: {**obj, "extrinsics": {"R": [[1, 0, 0], [0, 1, 0], [0, 0, None]], "T": [5, 0, 0]}},
            lambda obj: {**obj, "extrinsics": {"R": {}, "T": [5, 0, 0]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "T": [5, None, 0]}},
            lambda obj: {**obj, "left": {**obj["left"], "dist": [{}, 0, 0, 0, 0]}},
            lambda obj: {**obj, "left": {**obj["left"], "fx": [700.0]}},
            lambda obj: {**obj, "right": {**obj["right"], "width": 640.7}},
            lambda obj: {**obj, "right": {**obj["right"], "width": 640.0}},
            lambda obj: {**obj, "right": {**obj["right"], "height": True}},
            lambda obj: {**obj, "right": {**obj["right"], "height": "480"}},
            lambda obj: {**obj, "left": {**obj["left"], "fx": " 7e2 "}},
            lambda obj: {**obj, "left": {**obj["left"], "cy": True}},
            lambda obj: {**obj, "right": {**obj["right"], "dist": ["0", 0, 0, 0, 0]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "T": ["5", "0", "0"]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "R": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "R": [[1, 0, 0], [0, 1], [0, 0, 1]]}},
            lambda obj: {**obj, "left": {**obj["left"], "dist": [0, 0, 0, 0]}},
            lambda obj: {**obj, "left": {**obj["left"], "dist": [[0, 0, 0, 0, 0]]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "T": 5}},
            lambda obj: {**obj, "right": {**obj["right"], "width": [640]}},
            lambda obj: {key: value for key, value in obj.items() if key != "extrinsics"},
            # a reflection was read as the identity
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "R": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}},
            lambda obj: {**obj, "extrinsics": {**obj["extrinsics"], "R": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}},
        ],
        ids=["number", "list", "camera-number", "extrinsics-string", "R-string", "R-null",
             "R-object", "T-null", "dist-object", "fx-list",
             "width-fractional", "width-float", "height-bool", "height-string",
             "fx-string", "cy-bool", "dist-string", "T-strings", "R-bool",
             "R-ragged", "dist-4", "dist-nested", "T-scalar", "width-list", "extrinsics-missing",
             "R-reflection", "R-scaled"],
    )
    def test_wrong_json_structure(self, tmp_path, edit):
        from endogeo.stereo import calibration_to_dict

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(calibration_to_dict(self.make_calib()))), encoding="utf-8")
        with pytest.raises(FormatError):
            load_calibration(path)

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_image_larger_than_ceiling(self, tmp_path, key):
        from endogeo.stereo import calibration_to_dict

        obj = calibration_to_dict(self.make_calib())
        obj["left"][key] = 10**9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ValidationError, match="32768"):
            load_calibration(path)

    def test_wrong_dist_length(self, tmp_path):
        from endogeo.stereo import calibration_to_dict

        obj = calibration_to_dict(self.make_calib())
        obj["left"]["dist"] = [0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(FormatError, match="dist"):
            load_calibration(path)
