import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import still, transform
from endogeo import rasters, sim
from endogeo.errors import ValidationError
from endogeo.fileio import read_flo
from endogeo.geometry import CameraIntrinsics, Pose, Quaternion, compose, inverse, pixel_grid, pixel_rays
from endogeo.metrics import ate
from endogeo.rng import SplitMix64
from endogeo.sim import (
    DriftSpec,
    SceneSpec,
    default_intrinsics,
    gen_trajectory,
    induced_flow,
    inject_drift,
    look_at,
    relative_motion,
    render_depth,
    simulate_dataset,
)

from oracles import oracle_heightfield_depth


class TestGenTrajectory:
    def test_linear_path(self):
        traj = gen_trajectory(3, path="linear")
        assert traj.frames.tolist() == [0, 1, 2]
        for k in range(3):
            pose = traj.pose_at(k)
            assert pose.rotation == Quaternion.identity()
            assert (pose.translation == [float(k), 0.0, 0.0]).all()

    def test_same_seed_reproduces_exactly(self):
        a = gen_trajectory(20, path="orbit", seed=11)
        b = gen_trajectory(20, path="orbit", seed=11)
        assert all(pa == pb for pa, pb in zip(a.poses, b.poses))

    def test_different_seed_differs(self):
        a = gen_trajectory(20, path="orbit", seed=1)
        b = gen_trajectory(20, path="orbit", seed=2)
        assert any(pa != pb for pa, pb in zip(a.poses, b.poses))

    def test_orbit_stays_on_circle(self):
        traj = gen_trajectory(30, path="orbit", seed=3, radius=8.0)
        for pose in traj.poses:
            assert abs(np.linalg.norm(pose.translation) - 8.0) < 1e-9
            assert abs(pose.translation[2]) < 1e-12

    def test_spline_path_has_requested_length(self):
        traj = gen_trajectory(25, path="spline", seed=4)
        assert len(traj) == 25
        assert traj.frames.tolist() == list(range(25))

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            gen_trajectory(10, path="zigzag")
        for n_frames in (0, -3, 3.5, 2.0, True, "4", None):
            with pytest.raises(ValidationError, match="n_frames"):
                gen_trajectory(n_frames, path="orbit")
        with pytest.raises(ValidationError):
            gen_trajectory(10, path="orbit", radius=0.0)


class TestLookAt:
    def test_optical_axis_points_at_target(self):
        pose = look_at((3.0, -2.0, 5.0), (0.0, 0.0, 100.0))
        axis = pose.rotation.rotate(np.array([0.0, 0.0, 1.0]))
        expected = np.array([-3.0, 2.0, 95.0])
        expected /= np.linalg.norm(expected)
        assert np.abs(axis - expected).max() < 1e-12
        assert (pose.translation == [3.0, -2.0, 5.0]).all()

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValidationError):
            look_at((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValidationError):
            look_at((0.0, 0.0, 0.0), (0.0, 5.0, 0.0), up=(0.0, 1.0, 0.0))


class TestRenderDepth:
    def test_frontal_plane_constant_depth(self):
        scene = SceneSpec(kind="plane", extent=100.0)
        depth = render_depth(scene, Pose(Quaternion.identity()), default_intrinsics())
        assert depth.valid.all()
        assert (depth.values == 100.0).all()

    def test_retreating_camera_adds_distance(self):
        scene = SceneSpec(kind="plane", extent=100.0)
        pose = Pose(Quaternion.identity(), (0.0, 0.0, -50.0))
        depth = render_depth(scene, pose, default_intrinsics())
        assert (depth.values == 150.0).all()

    def test_sphere_center_pixel(self):
        # sphere center sits at 1.5 * extent with radius 0.5 * extent, so the
        # on-axis ray first hits at extent
        scene = SceneSpec(kind="sphere", extent=100.0)
        from endogeo.geometry import CameraIntrinsics

        intr = CameraIntrinsics(80.0, 80.0, 32.0, 24.0, 65, 49)  # wide FOV
        depth = render_depth(scene, Pose(Quaternion.identity()), intr)
        ci, cj = int(intr.cy), int(intr.cx)
        assert depth.valid[ci, cj]
        assert depth.values[ci, cj] == pytest.approx(100.0, abs=1e-9)
        # rays missing the sphere are invalid, so the raster is mixed
        assert not depth.valid.all()

    def test_heightfield_fully_valid_near_axis(self):
        scene = SceneSpec(kind="heightfield", extent=100.0, seed=7)
        depth = render_depth(scene, Pose(Quaternion.identity()), default_intrinsics(32, 24))
        assert depth.valid.all()
        assert (np.abs(depth.values - 100.0) < 25.0).all()

    def test_all_pixels_valid_along_default_orbit(self):
        scene = SceneSpec(kind="plane", extent=100.0)
        traj = gen_trajectory(5, path="orbit", seed=0, target=(0.0, 0.0, 100.0))
        intr = default_intrinsics()
        for pose in traj.poses:
            assert render_depth(scene, pose, intr).valid.all()


def assert_heightfield_matches_oracle(scene, pose, intr):
    """Same hit mask as the straight-loop march-and-bisect renderer, depth
    within 1e-12 relative, and no floating-point warning. Returns both
    depth rasters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        depth = render_depth(scene, pose, intr)
    q = pose.rotation
    values, valid = oracle_heightfield_depth(
        sim._heightfield_components(scene).T.tolist(),
        scene.extent,
        (q.w, q.x, q.y, q.z),
        pose.translation.tolist(),
        intr.fx, intr.fy, intr.cx, intr.cy, intr.width, intr.height,
    )
    values, valid = np.array(values), np.array(valid)
    assert np.array_equal(depth.valid, valid)
    assert (depth.values[~valid] == 0.0).all()
    gap = np.abs(depth.values - values)[valid] / values[valid]
    assert gap.max(initial=0.0) <= 1e-12
    return depth.values, values


@st.composite
def heightfield_views(draw):
    """A heightfield scene and a small camera below, inside or above the slab
    that holds its relief, turned from facing the slab by up to pi: past
    pi/2 less half the field of view every ray grazes or looks away. Focal
    lengths run from narrow to very wide."""
    scene = SceneSpec("heightfield", draw(st.floats(10.0, 1000.0)), draw(st.integers(0, 2**32)))
    relief = float(np.abs(sim._heightfield_components(scene)[0]).sum()) / scene.extent
    level = draw(st.sampled_from(["below", "inside", "above"]))
    offset = draw(
        {
            "below": st.floats(-1.5, -1.01 * relief),
            "inside": st.floats(-relief, relief),
            "above": st.floats(1.01 * relief, 1.0),
        }[level]
    )
    up = Quaternion.identity()
    down = Quaternion.from_axis_angle((1.0, 0.0, 0.0), math.pi)
    facing = draw(st.sampled_from([up, down])) if level == "inside" else (up if offset < 0 else down)
    tilt = draw(st.one_of(st.floats(0.0, math.pi / 2), st.floats(0.0, math.pi), st.just(math.pi / 2)))
    azimuth = draw(st.floats(0.0, 2.0 * math.pi))
    roll = draw(st.floats(0.0, 2.0 * math.pi))
    tilted = Pose(Quaternion.from_axis_angle((math.cos(azimuth), math.sin(azimuth), 0.0), tilt))
    rotation = compose(compose(tilted, Pose(facing)), Pose(Quaternion.from_axis_angle((0.0, 0.0, 1.0), roll))).rotation
    lateral = st.floats(-scene.extent, scene.extent)
    origin = (draw(lateral), draw(lateral), scene.extent * (1.0 + offset))
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    focal = draw(st.floats(1.0, 50.0))
    cx = draw(st.floats(0.0, width, exclude_max=True))
    cy = draw(st.floats(0.0, height, exclude_max=True))
    return scene, Pose(rotation, origin), CameraIntrinsics(focal, focal, cx, cy, width, height)


class TestHeightfieldOracle:
    @settings(max_examples=100, deadline=None)
    @given(heightfield_views(), st.integers(1, 64))
    # a hit 0.0021 from the camera, where an oracle that rounded extent plus
    # the relief before subtracting was 2.8e-12 off
    @example(
        (
            SceneSpec("heightfield", 68.0, 6),
            Pose(Quaternion(6.123233995736766e-17, 1.0, 0.0, 0.0), (0.0, -6.0, 68.0)),
            CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 1, 1),
        ),
        1,
    )
    def test_matches_straight_loop_march(self, view, chunk):
        # small chunks put chunk boundaries inside these small rasters
        with mock.patch.object(rasters, "BAND_BYTES", 8 * chunk):
            assert_heightfield_matches_oracle(*view)

    @settings(max_examples=100, deadline=None)
    @given(heightfield_views())
    def test_depth_does_not_depend_on_chunk(self, view):
        # each ray settles on its own, so the rays beside it change nothing
        depths = []
        for chunk in (1, 7, 4096, 8192, 2**20):
            with mock.patch.object(rasters, "BAND_BYTES", 8 * chunk):
                depths.append(render_depth(*view))
        for depth in depths[1:]:
            assert np.array_equal(depth.valid, depths[0].valid)
            assert (depth.values == depths[0].values).all()

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(10.0, 1000.0), st.integers(0, 2**32), st.floats(0.01, 0.19),
        st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi),
    )
    def test_near_surface_view_sees_every_pixel(self, extent, seed, gap, side, x, y, roll):
        # a camera 0.01 to 0.19 extent below (side -1, facing up) or above
        # (side 1, facing down) the surface point under it sees the surface
        # in every pixel of its narrow field of view
        scene = SceneSpec("heightfield", extent, seed)
        amplitude, kx, ky, phase = sim._heightfield_components(scene)
        x, y = x * extent, y * extent
        surface = extent + float((amplitude * np.cos(kx * x + ky * y + phase)).sum())
        facing = Quaternion.identity() if side < 0 else Quaternion.from_axis_angle((1.0, 0.0, 0.0), math.pi)
        rotation = compose(Pose(facing), Pose(Quaternion.from_axis_angle((0.0, 0.0, 1.0), roll))).rotation
        pose = Pose(rotation, (x, y, surface + side * gap * extent))
        depth, _ = assert_heightfield_matches_oracle(scene, pose, CameraIntrinsics(20.0, 20.0, 6.0, 4.5, 12, 9))
        assert (depth > 0).all()

    def test_camera_on_the_surface_sees_nothing(self):
        # every cosine argument is 0 at the origin, so the surface height
        # there, 101.75, is exact, and so is the zero residual at the camera;
        # the level view has rays with a direction z of exactly 0, on
        # which the residual's slope at the camera is 0 too
        table = np.array([[1.0, 0.5, 0.25], [0.03, 0.05, 0.07], [0.02, -0.04, 0.06], [0.0, 0.0, 0.0]])
        camera = (0.0, 0.0, 101.75)
        level = look_at(camera, (50.0, 50.0, 101.75), up=(0.0, 0.0, 1.0)).rotation
        down = Quaternion.from_axis_angle((1.0, 0.0, 0.0), math.pi)
        scene, intr = SceneSpec("heightfield", 100.0, 0), CameraIntrinsics(4.0, 4.0, 3.0, 2.0, 8, 6)
        with mock.patch.object(sim, "_heightfield_components", lambda scene: table):
            for rotation in (Quaternion.identity(), down, level):
                depth, _ = assert_heightfield_matches_oracle(scene, Pose(rotation, camera), intr)
                assert (depth == 0.0).all()

    @pytest.mark.parametrize("height", [0.0, 1.0, 1.2])
    def test_level_rays(self, height):
        # this view has rays with a direction z of exactly 0: level rays
        # inside the slab march all 215 steps, outside it they cannot hit
        scene = SceneSpec("heightfield", 100.0, 3)
        pose = look_at((0.0, 0.0, 100.0 * height), (50.0, 50.0, 100.0 * height), up=(0.0, 0.0, 1.0))
        intr = CameraIntrinsics(4.0, 4.0, 3.0, 2.0, 8, 6)
        x, y = pixel_rays(*pixel_grid(8, 6), intr)
        assert (pose.rotation.rotate(np.stack([x, y, np.ones_like(x)], axis=-1))[..., 2] == 0.0).any()
        assert_heightfield_matches_oracle(scene, pose, intr)

    def test_simulated_pose_matches_in_float32(self):
        # depth files hold float32, which cannot tell the two solvers apart
        scene = SceneSpec("heightfield", 100.0, 1)
        traj = gen_trajectory(2000, path="orbit", seed=1, target=(0.0, 0.0, 100.0))
        depth, expected = assert_heightfield_matches_oracle(scene, traj.pose_at(0), default_intrinsics(8, 6))
        assert np.array_equal(depth.astype(np.float32), expected.astype(np.float32))


class TestInducedFlow:
    def test_zero_motion_zero_flow(self):
        scene = SceneSpec(kind="plane", extent=100.0)
        intr = default_intrinsics(32, 24)
        pose = Pose(Quaternion.identity(), (1.0, 2.0, -3.0))
        flow = induced_flow(render_depth(scene, pose, intr), pose, pose, intr)
        assert flow.valid.all()
        assert np.abs(flow.vectors).max() < 1e-12

    def test_lateral_translation_constant_flow(self):
        scene = SceneSpec(kind="plane", extent=100.0)
        intr = default_intrinsics(32, 24)
        pose_i = Pose(Quaternion.identity())
        pose_j = Pose(Quaternion.identity(), (1.0, 0.0, 0.0))
        flow = induced_flow(render_depth(scene, pose_i, intr), pose_i, pose_j, intr)
        # camera moves +x, the image content slides -x by fx * t / z
        assert np.abs(flow.vectors[..., 0] + intr.fx * 1.0 / 100.0).max() < 1e-9
        assert np.abs(flow.vectors[..., 1]).max() < 1e-9

    def test_motion_convention_round_trip(self):
        pose_i = Pose(Quaternion.from_axis_angle((0, 1, 0), 0.2), (3.0, 1.0, -2.0))
        pose_j = Pose(Quaternion.from_axis_angle((1, 0, 0), -0.1), (0.0, 4.0, 1.0))
        motion = relative_motion(pose_i, pose_j)
        world = np.array([5.0, -6.0, 40.0])
        in_i, in_j = transform(inverse(pose_i), world), transform(inverse(pose_j), world)
        assert np.abs(transform(motion, in_i) - in_j).max() < 1e-9


class TestInjectDrift:
    def make_line(self, n):
        return gen_trajectory(n, path="linear")

    def test_zero_noise_returns_same_object(self):
        gt = self.make_line(10)
        assert inject_drift(gt, DriftSpec(0.0, 0.0, seed=5)) is gt

    def test_deterministic_per_seed(self):
        gt = self.make_line(10)
        a = inject_drift(gt, DriftSpec(0.001, 0.05, seed=3))
        b = inject_drift(gt, DriftSpec(0.001, 0.05, seed=3))
        c = inject_drift(gt, DriftSpec(0.001, 0.05, seed=4))
        assert all(pa == pb for pa, pb in zip(a.poses, b.poses))
        assert any(pa != pc for pa, pc in zip(a.poses, c.poses))

    def test_first_frame_untouched(self):
        gt = self.make_line(6)
        drifted = inject_drift(gt, DriftSpec(0.01, 0.5, seed=1))
        assert drifted.pose_at(0) == gt.pose_at(0)
        assert any(pa != pb for pa, pb in zip(drifted.poses, gt.poses))

    def test_single_step_noise_magnitude(self):
        # over one step the frame-1 position error is exactly the injected
        # translation noise, so its RMS over many seeds approaches
        # sigma * sqrt(3)
        sigma = 0.05
        gt = self.make_line(2)
        sq = []
        for seed in range(1000):
            drifted = inject_drift(gt, DriftSpec(0.0, sigma, seed=seed))
            err = drifted.pose_at(1).translation - gt.pose_at(1).translation
            sq.append(float((err**2).sum()))
        rms = float(np.sqrt(np.mean(sq)))
        assert rms == pytest.approx(sigma * np.sqrt(3.0), rel=0.1)

    def test_drift_grows_with_sequence_length(self):
        spec = lambda seed: DriftSpec(0.001, 0.05, seed=seed)
        means = []
        for n in (25, 100):
            values = []
            for seed in range(40):
                gt = gen_trajectory(n, path="orbit", seed=seed)
                values.append(ate(inject_drift(gt, spec(seed)), gt, align="se3"))
            means.append(np.mean(values))
        assert means[1] > means[0]

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValidationError):
            inject_drift(still([]), DriftSpec(0.001, 0.05, 0))

    @pytest.mark.parametrize("sigmas", [(math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (0.0, math.nan), (-1.0, 0.0)])
    def test_sigmas_must_be_finite_and_non_negative(self, sigmas):
        with pytest.raises(ValidationError, match="drift sigma"):
            DriftSpec(*sigmas)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "a", None])
@pytest.mark.parametrize(
    "build", [SplitMix64, lambda seed: SceneSpec("heightfield", 100.0, seed), lambda seed: DriftSpec(seed=seed)],
    ids=["SplitMix64", "SceneSpec", "DriftSpec"],
)
def test_seed_must_be_an_integer(build, seed):
    # SplitMix64 read 1.5 as 1; a heightfield failed only when rendered
    with pytest.raises(ValidationError, match="seed must be an integer"):
        build(seed)


def test_numpy_integer_seed_is_the_int_seed():
    assert SplitMix64(np.int64(7)).normals(4) == SplitMix64(7).normals(4)
    assert SceneSpec("heightfield", 100.0, np.uint8(7)) == SceneSpec("heightfield", 100.0, 7)


@pytest.mark.parametrize("extent", [0.0, -1.0, math.inf, math.nan])
def test_scene_extent_must_be_positive_and_finite(extent):
    with pytest.raises(ValidationError, match="extent"):
        SceneSpec("plane", extent)


class TestSimulateDataset:
    def test_manifest_lists_every_artifact(self, tmp_path):
        out = tmp_path / "data"
        manifest = simulate_dataset(
            str(out), seed=1, n_frames=8, stride=4, width=16, height=12, depth_count=2
        )
        names = {a["path"] for a in manifest["artifacts"]}
        assert names == {
            "gt.tum",
            "drifted.tum",
            "anchors.tum",
            "segment_0000.tum",
            "segment_0001.tum",
            "depth_0000.pfm",
            "depth_0001.pfm",
            "flow_0000_0001.flo",
            "calib.json",
        }
        for artifact in manifest["artifacts"]:
            blob = (out / artifact["path"]).read_bytes()
            assert len(blob) == artifact["bytes"]
            assert hashlib.sha256(blob).hexdigest() == artifact["sha256"]

    def test_manifest_written_to_disk(self, tmp_path):
        out = tmp_path / "data"
        manifest = simulate_dataset(
            str(out), seed=1, n_frames=4, stride=2, width=16, height=12, depth_count=1
        )
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_config_echo_passthrough(self, tmp_path):
        manifest = simulate_dataset(
            str(tmp_path / "d"),
            seed=2,
            n_frames=4,
            stride=2,
            width=16,
            height=12,
            depth_count=1,
            config_echo={"seed": 2, "n_frames": 4},
        )
        assert manifest["config_echo"] == {"seed": 2, "n_frames": 4}

    def test_each_depth_map_rendered_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_render(*args):
            calls.append(args)
            return render_depth(*args)

        monkeypatch.setattr(sim, "render_depth", counting_render)
        simulate_dataset(
            str(tmp_path), seed=3, n_frames=6, stride=2, scene="heightfield",
            width=16, height=12, depth_count=3,
        )
        assert len(calls) == 3
        for frame in range(2):
            (_, pose_i, intr), (_, pose_j, _) = calls[frame], calls[frame + 1]
            expected = induced_flow(render_depth(*calls[frame]), pose_i, pose_j, intr)
            written = read_flo(tmp_path / f"flow_{frame:04d}_{frame + 1:04d}.flo")
            assert np.array_equal(written.valid, expected.valid)
            assert np.array_equal(
                written.vectors[written.valid],
                expected.vectors[expected.valid].astype(np.float32),
            )

    def test_too_short_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            simulate_dataset(str(tmp_path / "d"), n_frames=1)

    @pytest.mark.parametrize("name", ["n_frames", "stride", "depth_count"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_counts_must_be_integers(self, tmp_path, name, value):
        # stride=1.5 used to raise a bare TypeError, and stride=True ran as 1
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            simulate_dataset(str(tmp_path / "d"), **{name: value})
        assert not (tmp_path / "d").exists()
