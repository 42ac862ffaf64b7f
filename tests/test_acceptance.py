"""Top-level acceptance gates.

Each test here carries a ``criterion`` marker; the terminal summary prints one
PASS/FAIL line per criterion. Numeric gates (tolerances, runtime budgets,
trial counts) are asserted exactly as stated, never loosened.
"""

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import oracles
from builders import angle_between, pairs, trajectory
from endogeo.cli import main
from endogeo.drift import correct_long_trajectory
from endogeo.geometry import (
    CameraIntrinsics,
    Pose,
    PoseBatch,
    Quaternion,
    SimilarityTransform,
    compose,
    inverse,
    pose_distance,
    slerp,
    umeyama_align,
)
from endogeo.losses import LossConfig, NormalizationSpec, c_flow, c_prior, c_temp, conf_loss, pose_loss
from endogeo.metrics import DepthEvalConfig, ate, depth_metrics, rpe
from endogeo.rasters import ConfidenceMap, DepthMap, DisparityMap, FlowField, Pointmap
from endogeo.rng import SplitMix64
from endogeo.sim import (
    DriftSpec,
    SceneSpec,
    default_intrinsics,
    gen_trajectory,
    induced_flow,
    inject_drift,
    relative_motion,
    render_depth,
)
from endogeo.stereo import (
    MonoCalibration,
    StereoCalibration,
    compute_rectify_maps,
    disparity_to_depth,
    distort_pixels,
    rectify_pixels,
    undistort_pixels,
)
from endogeo.trajectory import parse_tum, serialize_tum, split_into_segments
from endogeo.fileio import read_flo, read_pfm, write_flo, write_pfm


# ---------------------------------------------------------------- criteria 1+2


@pytest.fixture(scope="module")
def ablation_runs():
    """20-seed drift-correction study: 200-frame orbits, random-walk drift
    (sigma_rot 2e-3 rad, sigma_trans 0.05 mm), exact anchors at stride 16."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        gt = gen_trajectory(200, path="orbit", seed=seed)
        drifted = inject_drift(gt, DriftSpec(sigma_rot=2e-3, sigma_trans=0.05, seed=seed))
        frames = list(range(0, 200, 16))
        if frames[-1] != 199:
            frames.append(199)
        anchors = gt.restricted_to(frames)
        segments = split_into_segments(drifted, anchors)
        corrected, report = correct_long_trajectory(anchors, segments)
        err_before = ate(drifted, gt, "sim3")
        err_after = ate(corrected, gt, "sim3")
        runs.append((gt, drifted, corrected, anchors, err_before, err_after))
    return runs, time.perf_counter() - t0


@pytest.mark.criterion(1, "drift correction lowers ATE on 20/20 seeds, mean ratio < 0.8, < 10 s")
def test_correction_improves_every_seed(ablation_runs):
    runs, elapsed = ablation_runs
    assert elapsed < 10.0, f"20-seed study took {elapsed:.2f} s"
    ratios = [after / before for *_, before, after in runs]
    wins = sum(after < before for *_, before, after in runs)
    assert wins == 20, f"correction only won {wins}/20 trials"
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio < 0.8, f"mean ATE ratio {mean_ratio:.4f}"


@pytest.mark.criterion(2, "corrected trajectory reproduces every anchor pose within 1e-9")
def test_anchor_passthrough(ablation_runs):
    runs, _ = ablation_runs
    for _, _, corrected, anchors, _, _ in runs:
        for frame, anchor_pose in pairs(anchors):
            rot_err, trans_err = pose_distance(corrected.pose_at(frame), anchor_pose)
            assert rot_err <= 1e-9, f"frame {frame}: rotation residual {rot_err}"
            assert trans_err <= 1e-9, f"frame {frame}: translation residual {trans_err}"


# ------------------------------------------------------------------ criterion 3


@pytest.mark.criterion(3, "c_flow < 1e-9, c_temp < 1e-6 on rendered pairs; c_prior exactly 0, < 5 s")
def test_consistency_losses_vanish_on_rendered_scenes():
    t0 = time.perf_counter()
    intr = default_intrinsics()
    kinds = ["plane", "sphere", "heightfield"]
    for trial in range(10):
        scene = SceneSpec(kinds[trial % 3], extent=100.0, seed=trial)
        traj = gen_trajectory(4, path="orbit", seed=trial)
        pose_i, pose_j = traj.pose_at(0), traj.pose_at(1)
        depth_i = render_depth(scene, pose_i, intr)
        depth_j = render_depth(scene, pose_j, intr)
        flow = induced_flow(depth_i, pose_i, pose_j, intr)
        motion = relative_motion(pose_i, pose_j)

        flow_term, _, _ = c_flow(depth_i, intr, motion, flow)
        temp_term, _, _ = c_temp(depth_i, depth_j, intr, motion, flow)
        prior_term, parts = c_prior(depth_i, depth_i, intr, LossConfig())

        assert flow_term < 1e-9, f"trial {trial}: c_flow {flow_term}"
        assert temp_term < 1e-6, f"trial {trial}: c_temp {temp_term}"
        assert prior_term == 0.0, f"trial {trial}: c_prior {prior_term}"
        assert parts == {"c_si": 0.0, "c_grad": 0.0, "c_normal": 0.0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"zero tests took {elapsed:.2f} s"


# ------------------------------------------------------------------ criterion 4


def _random_raster(stream, width, height, low, high, p_valid=0.85):
    values = np.array(
        [stream.uniform_in(low, high) for _ in range(height * width)]
    ).reshape(height, width)
    valid = np.array(
        [stream.uniform() < p_valid for _ in range(height * width)]
    ).reshape(height, width)
    return values, valid


def _rel_gap(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.mark.criterion(4, "losses and depth metrics match straight-loop oracles within 1e-12 on 50 fixtures")
def test_oracle_equivalence_on_random_fixtures():
    width, height = 8, 6
    intr = CameraIntrinsics(fx=10.0, fy=11.0, cx=3.5, cy=2.5, width=width, height=height)
    intr_tuple = (10.0, 11.0, 3.5, 2.5)
    cfg = LossConfig(alpha=0.2, w_si=1.3, w_grad=0.7, w_normal=2.1)

    for trial in range(50):
        rng = SplitMix64(1000 + trial)

        # confidence-weighted pointmap regression
        ps_p, ps_pm = rng.derive("p"), rng.derive("pm")
        ps_r, ps_rm, ps_c = rng.derive("r"), rng.derive("rm"), rng.derive("c")
        pv = np.array(
            [ps_p.uniform_in(-2, 2) for _ in range(height * width * 3)]
        ).reshape(height, width, 3)
        pm = np.array(
            [ps_pm.uniform() > 0.2 for _ in range(height * width)]
        ).reshape(height, width)
        rv = np.array(
            [ps_r.uniform_in(-2, 2) for _ in range(height * width * 3)]
        ).reshape(height, width, 3)
        rm = np.array(
            [ps_rm.uniform() > 0.2 for _ in range(height * width)]
        ).reshape(height, width)
        cv = np.array(
            [ps_c.uniform_in(0.1, 3.0) for _ in range(height * width)]
        ).reshape(height, width)
        got, _, _ = conf_loss(Pointmap(pv, pm), Pointmap(rv, rm), ConfidenceMap(cv), cfg)
        want = oracles.oracle_conf_loss(
            pv.tolist(), pm.tolist(), rv.tolist(), rm.tolist(), cv.tolist(), 0.2, width, height
        )
        assert _rel_gap(got, want) < 1e-12

        # pose regression
        ps = rng.derive("poses")
        def rand_pose():
            axis = (ps.uniform_in(-1, 1), ps.uniform_in(-1, 1), ps.uniform_in(-1, 1))
            q = Quaternion.from_axis_angle(axis, ps.uniform_in(-3, 3))
            t = (ps.uniform_in(-5, 5), ps.uniform_in(-5, 5), ps.uniform_in(-5, 5))
            return Pose(q, t)
        pred_poses = [rand_pose() for _ in range(4)]
        ref_poses = [rand_pose() for _ in range(4)]
        s_hat, s = ps.uniform_in(0.5, 2.0), ps.uniform_in(0.5, 2.0)
        got = pose_loss(PoseBatch.stack(pred_poses), PoseBatch.stack(ref_poses), NormalizationSpec(s_hat, s))
        want = oracles.oracle_pose_loss(
            [((p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z), tuple(p.translation)) for p in pred_poses],
            [((p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z), tuple(p.translation)) for p in ref_poses],
            s_hat,
            s,
        )
        assert _rel_gap(got, want) < 1e-12

        # temporal depth reprojection consistency
        di, vi = _random_raster(rng.derive("di"), width, height, 5, 15)
        dj, vj = _random_raster(rng.derive("dj"), width, height, 5, 15)
        fs = rng.derive("flow")
        fl = np.array([fs.uniform_in(-2, 2) for _ in range(height * width * 2)]).reshape(height, width, 2)
        fv = np.array([fs.uniform() < 0.9 for _ in range(height * width)]).reshape(height, width)
        ms = rng.derive("motion")
        q = Quaternion.from_axis_angle(
            (ms.uniform_in(-1, 1), ms.uniform_in(-1, 1), ms.uniform_in(-1, 1)),
            ms.uniform_in(-0.3, 0.3),
        )
        t = np.array([ms.uniform_in(-1, 1) for _ in range(3)])
        got, _, _ = c_temp(
            DepthMap(di, vi), DepthMap(dj, vj), intr, Pose(q, t), FlowField(fl, fv)
        )
        want = oracles.oracle_c_temp(
            di.tolist(), vi.tolist(), dj.tolist(), vj.tolist(),
            intr_tuple, intr_tuple, (q.w, q.x, q.y, q.z), t.tolist(),
            fl.tolist(), fv.tolist(), width, height,
        )
        assert _rel_gap(got, want) < 1e-12

        # depth prior composite
        dr, vr = _random_raster(rng.derive("ref"), width, height, 5, 15)
        got_total, parts = c_prior(DepthMap(di, vi), DepthMap(dr, vr), intr, cfg)
        want_total, want_si, want_grad, want_normal = oracles.oracle_c_prior(
            di.tolist(), vi.tolist(), dr.tolist(), vr.tolist(), intr_tuple,
            1.3, 0.7, 2.1, width, height,
        )
        assert _rel_gap(got_total, want_total) < 1e-12
        assert _rel_gap(parts["c_si"], want_si) < 1e-12
        assert _rel_gap(parts["c_grad"], want_grad) < 1e-12
        assert _rel_gap(parts["c_normal"], want_normal) < 1e-12

        # five depth metrics
        gt_v, gt_m = _random_raster(rng.derive("gt"), width, height, 0.5, 20)
        pd_v, pd_m = _random_raster(rng.derive("pd"), width, height, 0.5, 20)
        report = depth_metrics(
            DepthMap(pd_v, pd_m), DepthMap(gt_v, gt_m),
            DepthEvalConfig(width, height, 0.1, 150.0, True),
        )
        want = oracles.oracle_depth_metrics(
            pd_v.tolist(), pd_m.tolist(), gt_v.tolist(), gt_m.tolist(),
            0.1, 150.0, True, width, height,
        )
        for key in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta_1_25"):
            assert _rel_gap(getattr(report, key), want[key]) < 1e-12, key
        assert report.n_pixels == want["n_pixels"]


# ------------------------------------------------------------------ criterion 5


@pytest.mark.criterion(5, "disparity-to-depth equals baseline*focal/d bit-exactly; d <= 1e-3 invalid")
def test_disparity_to_depth_bit_exact():
    rng = SplitMix64(42).derive("disp")
    width, height = 64, 48
    d = np.array(
        [rng.uniform_in(-0.5, 40.0) for _ in range(width * height)]
    ).reshape(height, width)
    baseline, focal = 4.2, 718.5
    out = disparity_to_depth(DisparityMap(d), baseline, focal)

    expect_valid = np.isfinite(d) & (d > 1e-3)
    assert (out.valid == expect_valid).all()
    assert int((~expect_valid).sum()) > 0, "fixture must include sub-threshold disparities"
    reference = (baseline * focal) / d[expect_valid]
    assert (out.values[expect_valid] == reference).all(), "rounding differs from b*f/d"
    assert (out.values[~expect_valid] == 0.0).all()


# ------------------------------------------------------------------ criterion 6


@pytest.mark.criterion(6, "rectified rows align < 1e-3 px on 5 rigs; undistortion round trip < 1e-6 px")
def test_rectification_row_alignment_and_distortion_inverse():
    for rig in range(5):
        rng = SplitMix64(500 + rig)
        r = rng.derive("rig")
        intr = CameraIntrinsics(
            fx=r.uniform_in(400, 800), fy=r.uniform_in(400, 800),
            cx=r.uniform_in(300, 340), cy=r.uniform_in(230, 250),
            width=640, height=480,
        )
        dist_l = tuple(r.uniform_in(-0.05, 0.05) * s for s in (1, 0.5, 0.1, 0.1, 0.02))
        dist_r = tuple(r.uniform_in(-0.05, 0.05) * s for s in (1, 0.5, 0.1, 0.1, 0.02))
        q = Quaternion.from_axis_angle(
            (r.uniform_in(-1, 1), r.uniform_in(-1, 1), r.uniform_in(-1, 1)),
            r.uniform_in(0.005, 0.03),
        )
        t = np.array([r.uniform_in(4, 6), r.uniform_in(-0.2, 0.2), r.uniform_in(-0.2, 0.2)])
        left = MonoCalibration(intr, dist_l)
        right = MonoCalibration(intr, dist_r)
        calib = StereoCalibration(left, right, q, t)
        maps = compute_rectify_maps(calib)

        pts = rng.derive("pts")
        points_left = np.stack(
            [
                np.array([pts.uniform_in(-30, 30) for _ in range(30)]),
                np.array([pts.uniform_in(-20, 20) for _ in range(30)]),
                np.array([pts.uniform_in(80, 150) for _ in range(30)]),
            ],
            axis=1,
        )
        points_right = (points_left - t) @ q.to_rotation_matrix()

        norm_l = points_left[:, :2] / points_left[:, 2:3]
        norm_r = points_right[:, :2] / points_right[:, 2:3]
        rect_l = rectify_pixels(calib, maps, "left", distort_pixels(left, norm_l))
        rect_r = rectify_pixels(calib, maps, "right", distort_pixels(right, norm_r))
        row_gap = np.abs(rect_l[:, 1] - rect_r[:, 1]).max()
        assert row_gap < 1e-3, f"rig {rig}: row misalignment {row_gap} px"
        assert (rect_l[:, 0] - rect_r[:, 0] > 0).all(), "disparity must be positive"

        grid = rng.derive("grid")
        pixels = np.stack(
            [
                np.array([grid.uniform_in(50, 590) for _ in range(40)]),
                np.array([grid.uniform_in(50, 430) for _ in range(40)]),
            ],
            axis=1,
        )
        round_trip = distort_pixels(left, undistort_pixels(left, pixels))
        gap = np.abs(round_trip - pixels).max()
        assert gap < 1e-6, f"rig {rig}: inverse-distortion round trip {gap} px"


# ------------------------------------------------------------------ criterion 7


@pytest.mark.criterion(7, "ATE/RTE alignment invariances; strict delta boundary hits exactly 0")
def test_metric_invariances():
    gt = gen_trajectory(60, path="orbit", seed=11)

    # similarity-transformed predictions must align back to zero error
    sim3 = SimilarityTransform(
        1.7, Quaternion.from_axis_angle((0.3, -1.0, 0.5), 0.9), (7.0, -3.0, 2.0)
    )
    poses = []
    for pose in gt.poses:
        rot = compose(Pose(sim3.rotation, (0, 0, 0)), Pose(pose.rotation, (0, 0, 0))).rotation
        poses.append(Pose(rot, sim3.apply(pose.translation[None])[0]))
    transformed = trajectory(gt.frames, poses)
    assert ate(transformed, gt, "sim3") < 1e-9
    assert ate(gt, gt, "sim3") < 1e-12

    # one global rigid transform leaves relative pose errors untouched
    rigid = Pose(Quaternion.from_axis_angle((1, 2, 3), 0.7), (4.0, 5.0, -6.0))
    moved = trajectory(gt.frames, [compose(rigid, p) for p in gt.poses])
    assert rpe(moved, gt, 16)[0] < 1e-9
    assert abs(rpe(moved, gt, 16)[0] - rpe(gt, gt, 16)[0]) < 1e-9

    # threshold-accuracy boundary: ratio exactly 1.25 must not count as a hit
    gt_vals = np.full((6, 8), 4.0)
    pred_vals = 1.25 * gt_vals
    report = depth_metrics(
        DepthMap(pred_vals), DepthMap(gt_vals), DepthEvalConfig(8, 6, 0.1, 150.0, False)
    )
    assert report.delta_1_25 == 0.0
    assert report.abs_rel == pytest.approx(0.25, abs=1e-15)


# ------------------------------------------------------------------ criterion 8


@pytest.mark.criterion(8, "slerp endpoint/half/linear-angle, umeyama recovery < 1e-6, group laws < 1e-9")
def test_geometry_battery():
    rng = SplitMix64(2024)

    def rand_quat(stream):
        axis = (stream.uniform_in(-1, 1), stream.uniform_in(-1, 1), stream.uniform_in(-1, 1))
        return Quaternion.from_axis_angle(axis, stream.uniform_in(-3, 3))

    def rand_pose(stream):
        return Pose(
            rand_quat(stream),
            (stream.uniform_in(-9, 9), stream.uniform_in(-9, 9), stream.uniform_in(-9, 9)),
        )

    qs = rng.derive("quats")
    for _ in range(25):
        q0, q1 = rand_quat(qs), rand_quat(qs)
        assert angle_between(slerp(q0, q1, 0.0), q0) < 1e-12
        assert angle_between(slerp(q0, q1, 1.0), q1) < 1e-12
        total = angle_between(slerp(q0, q1, 1.0), q0)
        for t in (0.25, 0.5, 0.75):
            assert abs(angle_between(slerp(q0, q1, t), q0) - t * total) < 1e-9

    half = slerp(Quaternion.identity(), Quaternion.from_axis_angle((0, 0, 1), np.pi / 2), 0.5)
    expect = Quaternion.from_axis_angle((0, 0, 1), np.pi / 4)
    assert angle_between(half, expect) < 1e-12

    us = rng.derive("umeyama")
    for _ in range(10):
        cloud = np.array([us.uniform_in(-10, 10) for _ in range(60)]).reshape(20, 3)
        truth = SimilarityTransform(
            us.uniform_in(0.5, 2.0),
            rand_quat(us),
            (us.uniform_in(-5, 5), us.uniform_in(-5, 5), us.uniform_in(-5, 5)),
        )
        recovered = umeyama_align(cloud, truth.apply(cloud), with_scale=True)
        assert abs(recovered.scale - truth.scale) < 1e-6
        assert angle_between(recovered.rotation, truth.rotation) < 1e-6
        assert np.abs(np.asarray(recovered.translation) - np.asarray(truth.translation)).max() < 1e-6

    ps = rng.derive("poses")
    for _ in range(25):
        a, b, c = rand_pose(ps), rand_pose(ps), rand_pose(ps)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        rot_gap, trans_gap = pose_distance(left, right)
        assert rot_gap < 1e-9 and trans_gap < 1e-9
        rot_gap, trans_gap = pose_distance(compose(a, inverse(a)), Pose(Quaternion.identity()))
        assert rot_gap < 1e-9 and trans_gap < 1e-9
        assert compose(a, Pose(Quaternion.identity())) == a  # right identity is bit-exact


# ------------------------------------------------------------------ criterion 9


def _tree_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def _run_capture(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.mark.criterion(9, "every CLI command is byte-reproducible; simulate dirs byte-identical per seed")
def test_cli_byte_reproducibility(tmp_path):
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    sim_args = ["--seed", "7", "--n-frames", "60", "--stride", "16", "--depth-count", "3"]
    assert main(["simulate", "--out", dir_a] + sim_args) == 0
    assert main(["simulate", "--out", dir_b] + sim_args) == 0
    assert _tree_digest(dir_a) == _tree_digest(dir_b), "simulate runs diverged"

    corrected = str(tmp_path / "corrected.tum")
    report = str(tmp_path / "report.json")
    correct_args = [
        "correct",
        "--anchors", os.path.join(dir_a, "anchors.tum"),
        "--segments", os.path.join(dir_a, "segment_*.tum"),
        "--out", corrected,
        "--report", report,
    ]

    def file_bytes(path):
        with open(path, "rb") as fh:
            return fh.read()

    assert main(correct_args) == 0
    first = (file_bytes(corrected), file_bytes(report))
    assert main(correct_args) == 0
    assert (file_bytes(corrected), file_bytes(report)) == first, "correct runs diverged"

    stdout_commands = [
        ["eval-traj", "--pred", corrected, "--gt", os.path.join(dir_a, "gt.tum")],
        ["eval-depth", "--pred", dir_a, "--gt", dir_a],
        [
            "eval-consistency",
            "--depths", dir_a,
            "--poses", os.path.join(dir_a, "gt.tum"),
            "--flows", dir_a,
            "--calib", os.path.join(dir_a, "calib.json"),
            "--ref-depths", dir_a,
        ],
        ["rectify-maps", "--calib", os.path.join(dir_a, "calib.json"),
         "--out-prefix", str(tmp_path / "rm")],
    ]
    for argv in stdout_commands:
        code1, out1 = _run_capture(argv)
        code2, out2 = _run_capture(argv)
        assert code1 == 0 and code2 == 0, argv[0]
        assert out1 == out2, f"{argv[0]} stdout diverged"
        json.loads(out1)  # reports must be machine-readable JSON

    disp_in = os.path.join(dir_a, "depth_0000.pfm")  # any PFM works as disparity input
    d2d = ["disparity2depth", "--calib", os.path.join(dir_a, "calib.json"),
           "--input", disp_in, "--out", str(tmp_path / "depth_out.pfm")]
    code1, out1 = _run_capture(d2d)
    bytes1 = file_bytes(str(tmp_path / "depth_out.pfm"))
    code2, out2 = _run_capture(d2d)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert file_bytes(str(tmp_path / "depth_out.pfm")) == bytes1


# ----------------------------------------------------------------- criterion 10


@pytest.mark.criterion(10, "TUM exact on 100 random poses; PFM/.flo round trips honor headers")
def test_format_round_trips(tmp_path):
    rng = SplitMix64(321)
    qs = rng.derive("traj")
    poses = []
    for _ in range(100):
        axis = (qs.uniform_in(-1, 1), qs.uniform_in(-1, 1), qs.uniform_in(-1, 1))
        q = Quaternion.from_axis_angle(axis, qs.uniform_in(-3, 3))
        t = (qs.uniform_in(-50, 50), qs.uniform_in(-50, 50), qs.uniform_in(-50, 50))
        poses.append(Pose(q, t))
    traj = trajectory(range(100), poses)
    text = serialize_tum(traj)
    back = parse_tum(text)
    for (fa, pa), (fb, pb) in zip(pairs(traj), pairs(back)):
        assert fa == fb
        assert (pa.rotation.w, pa.rotation.x, pa.rotation.y, pa.rotation.z) == (
            pb.rotation.w, pb.rotation.x, pb.rotation.y, pb.rotation.z
        )
        assert (pa.translation == pb.translation).all()
    assert serialize_tum(back) == text

    vs = rng.derive("raster")
    raster = np.array([vs.uniform_in(-8, 8) for _ in range(7 * 5)], dtype=np.float32).reshape(5, 7)
    path = tmp_path / "x.pfm"
    for scale in (-1.0, 1.0, -2.5, 3.0):  # negative scale = little-endian payload
        payload = np.flipud(raster).astype("<f4" if scale < 0 else ">f4").tobytes()
        path.write_bytes(f"Pf\n7 5\n{scale}\n".encode("ascii") + payload)
        back_vals, back_scale = read_pfm(path)
        assert back_scale == abs(scale)
        assert back_vals.dtype == np.float32
        assert (back_vals == raster).all(), f"scale {scale}"
    # the writer stores the scale -1.0 file byte for byte
    written = tmp_path / "written.pfm"
    write_pfm(written, raster)
    assert written.read_bytes() == b"Pf\n7 5\n-1.0\n" + np.flipud(raster).astype("<f4").tobytes()
    assert read_pfm(written)[0].tobytes() == raster.tobytes()

    fs = rng.derive("flow")
    vectors = np.array([fs.uniform_in(-4, 4) for _ in range(5 * 7 * 2)]).reshape(5, 7, 2)
    valid = np.array([fs.uniform() < 0.8 for _ in range(5 * 7)]).reshape(5, 7)
    flow_path = str(tmp_path / "x.flo")
    write_flo(flow_path, FlowField(vectors, valid))
    with open(flow_path, "rb") as fh:
        assert fh.read(4) == b"PIEH"
    back = read_flo(flow_path)
    assert (back.valid == valid).all()
    assert (back.vectors[valid] == vectors[valid].astype(np.float32)).all()
