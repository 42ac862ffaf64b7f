import json
import logging
import os
import pathlib
import re
import struct
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from builders import line, still
from endogeo import cli, fileio, losses, sim
from endogeo.cli import main
from endogeo.errors import FormatError, NumericError, ValidationError
from endogeo.fileio import read_depth_pfm, write_depth_pfm, write_flo, write_pfm
from endogeo.geometry import CameraIntrinsics, Quaternion, compose, inverse, pose_distance
from endogeo.losses import LossConfig
from endogeo.rasters import DepthMap, DisparityMap, FlowField
from endogeo.sim import gen_trajectory
from endogeo.stereo import MonoCalibration, StereoCalibration, load_calibration, save_calibration
from endogeo.trajectory import load_tum, save_tum


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def ideal_calib(path, width=16, height=12, f=50.0, baseline=5.0):
    intr = CameraIntrinsics(f, f, width / 2.0 - 0.5, height / 2.0 - 0.5, width, height)
    cam = MonoCalibration(intr, (0.0, 0.0, 0.0, 0.0, 0.0))
    save_calibration(path, StereoCalibration(cam, cam, Quaternion.identity(), (baseline, 0.0, 0.0)))
    return intr


class TestHelp:
    def test_every_command_help_exits_zero(self, capsys):
        for cmd in (
            "simulate",
            "correct",
            "eval-traj",
            "eval-depth",
            "eval-consistency",
            "disparity2depth",
            "rectify-maps",
        ):
            code, out, _ = run([cmd, "--help"], capsys)
            assert code == 0
            assert "--config" in out

    def test_top_level_help(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "eval-consistency" in out


class TestCorrect:
    def write_inputs(self, tmp_path):
        gt = gen_trajectory(9, path="orbit", seed=2)
        save_tum(tmp_path / "anchors.tum", gt.restricted_to([0, 4, 8]))
        save_tum(tmp_path / "segment_0000.tum", gt.restricted_to(range(0, 5)))
        save_tum(tmp_path / "segment_0001.tum", gt.restricted_to(range(4, 9)))
        return gt

    def test_exact_segments_reproduce_ground_truth(self, tmp_path, capsys):
        gt = self.write_inputs(tmp_path)
        out = tmp_path / "corrected.tum"
        report = run_json(
            [
                "correct",
                "--anchors", str(tmp_path / "anchors.tum"),
                "--segments", str(tmp_path / "segment_*.tum"),
                "--out", str(out),
            ],
            capsys,
        )
        corrected = load_tum(out)
        assert corrected.frames.tolist() == gt.frames.tolist()
        for frame in gt.frames:
            rot, trans = pose_distance(corrected.pose_at(frame), gt.pose_at(frame))
            assert rot < 1e-9 and trans < 1e-9
        assert report["n_segments"] == 2
        assert report["max_anchor_residual_trans_mm"] <= 1e-9
        assert report["config_echo"]["anchors"].endswith("anchors.tum")

    def test_report_file_instead_of_stdout(self, tmp_path, capsys):
        self.write_inputs(tmp_path)
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            [
                "correct",
                "--anchors", str(tmp_path / "anchors.tum"),
                "--segments", str(tmp_path / "segment_*.tum"),
                "--out", str(tmp_path / "corrected.tum"),
                "--report", str(report_path),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(report_path.read_text())["n_segments"] == 2

    def test_missing_segment_names_the_gap(self, tmp_path, capsys, caplog):
        self.write_inputs(tmp_path)
        (tmp_path / "segment_0001.tum").unlink()
        with caplog.at_level(logging.ERROR, logger="endogeo"):
            code, _, _ = run(
                [
                    "correct",
                    "--anchors", str(tmp_path / "anchors.tum"),
                    "--segments", str(tmp_path / "segment_*.tum"),
                    "--out", str(tmp_path / "corrected.tum"),
                ],
                capsys,
            )
        assert code == 3
        assert any("segment" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        ("name", "text", "logged"),
        [
            ("anchors.tum", "", "at least 2"),
            ("anchors.tum", "0 0 0 0 0 0 0 1\n", "at least 2"),
            ("segment_0000.tum", "", "anchor gap 0..4"),
            ("segment_0001.tum", "4 0 0 0 0 0 0 1\n", "anchor gap 4..8"),
        ],
        ids=["empty-anchors", "single-anchor", "empty-segment", "single-pose-segment"],
    )
    def test_short_input_file_exits_3(self, tmp_path, capsys, caplog, name, text, logged):
        self.write_inputs(tmp_path)
        (tmp_path / name).write_text(text)
        with caplog.at_level(logging.ERROR, logger="endogeo"):
            code, _, _ = run(
                [
                    "correct",
                    "--anchors", str(tmp_path / "anchors.tum"),
                    "--segments", str(tmp_path / "segment_*.tum"),
                    "--out", str(tmp_path / "corrected.tum"),
                ],
                capsys,
            )
        assert code == 3
        assert logged in caplog.text
        assert not (tmp_path / "corrected.tum").exists()

    def test_no_matching_segments(self, tmp_path, capsys):
        self.write_inputs(tmp_path)
        code, _, _ = run(
            [
                "correct",
                "--anchors", str(tmp_path / "anchors.tum"),
                "--segments", str(tmp_path / "nothing_*.tum"),
                "--out", str(tmp_path / "corrected.tum"),
            ],
            capsys,
        )
        assert code == 3


class TestEvalTraj:
    def test_perfect_prediction(self, tmp_path, capsys):
        traj = gen_trajectory(20, path="orbit", seed=1)
        save_tum(tmp_path / "t.tum", traj)
        report = run_json(
            [
                "eval-traj",
                "--pred", str(tmp_path / "t.tum"),
                "--gt", str(tmp_path / "t.tum"),
                "--window", "4",
            ],
            capsys,
        )
        assert report["ate_mm"] < 1e-9
        assert report["rte_mm"] < 1e-9
        assert report["rte_rot_rad"] < 1e-9
        assert report["n_frames"] == 20
        assert report["config_echo"]["align"] == "sim3"
        assert report["config_echo"]["window"] == 4

    def test_scaled_prediction_needs_sim3(self, tmp_path, capsys):
        gt = line(10)
        pred = line(10, step=2.0)
        save_tum(tmp_path / "gt.tum", gt)
        save_tum(tmp_path / "pred.tum", pred)
        base = [
            "eval-traj",
            "--pred", str(tmp_path / "pred.tum"),
            "--gt", str(tmp_path / "gt.tum"),
            "--window", "4",
        ]
        sim3 = run_json(base + ["--align", "sim3"], capsys)
        se3 = run_json(base + ["--align", "se3"], capsys)
        assert sim3["ate_mm"] < 1e-9
        assert se3["ate_mm"] > 0.1

    def test_metrics_logged_to_stderr(self, tmp_path, capsys, caplog):
        traj = gen_trajectory(20, path="orbit", seed=1)
        save_tum(tmp_path / "t.tum", traj)
        with caplog.at_level(logging.INFO, logger="endogeo"):
            run(
                [
                    "eval-traj",
                    "--pred", str(tmp_path / "t.tum"),
                    "--gt", str(tmp_path / "t.tum"),
                    "--window", "4",
                ],
                capsys,
            )
        logged = "\n".join(r.message for r in caplog.records)
        assert "ate_mm" in logged and "rte_mm" in logged


class TestEvalDepth:
    def write_dirs(self, tmp_path, factor=1.0):
        rng = np.random.default_rng(5)
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for k in range(2):
            # integer depths keep the 1.25x prediction exact in float32, so
            # the strict delta threshold has no quantization ambiguity
            gt_vals = rng.integers(20, 120, size=(6, 8)).astype(np.float64)
            write_depth_pfm(gt_dir / f"depth_{k:04d}.pfm", DepthMap(gt_vals))
            write_depth_pfm(pred_dir / f"depth_{k:04d}.pfm", DepthMap(factor * gt_vals))
        return pred_dir, gt_dir

    def base_args(self, pred_dir, gt_dir):
        return [
            "eval-depth",
            "--pred", str(pred_dir),
            "--gt", str(gt_dir),
            "--eval-width", "8",
            "--eval-height", "6",
        ]

    def test_identical_directories(self, tmp_path, capsys):
        pred_dir, gt_dir = self.write_dirs(tmp_path)
        report = run_json(self.base_args(pred_dir, gt_dir), capsys)
        assert report["abs_rel"] == 0.0
        assert report["rmse"] == 0.0
        assert report["delta_1_25"] == 1.0
        assert report["n_frames"] == 2
        assert set(report["per_frame"]) == {"depth_0000.pfm", "depth_0001.pfm"}

    def test_uniform_overestimate_without_scaling(self, tmp_path, capsys):
        pred_dir, gt_dir = self.write_dirs(tmp_path, factor=1.25)
        report = run_json(
            self.base_args(pred_dir, gt_dir) + ["--no-median-scaling"], capsys
        )
        assert report["abs_rel"] == pytest.approx(0.25, abs=1e-6)
        assert report["delta_1_25"] == 0.0
        assert report["config_echo"]["median_scaling"] is False
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"median_scaling": false}')
        assert run_json(self.base_args(pred_dir, gt_dir) + ["--config", str(cfg_path)], capsys) == report

    def test_median_scaling_absorbs_uniform_factor(self, tmp_path, capsys):
        pred_dir, gt_dir = self.write_dirs(tmp_path, factor=1.25)
        report = run_json(
            self.base_args(pred_dir, gt_dir) + ["--median-scaling"], capsys
        )
        assert report["abs_rel"] == pytest.approx(0.0, abs=1e-6)
        assert report["delta_1_25"] == 1.0

    def test_no_common_files(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        write_depth_pfm(pred_dir / "a.pfm", DepthMap(np.full((2, 2), 5.0)))
        write_depth_pfm(gt_dir / "b.pfm", DepthMap(np.full((2, 2), 5.0)))
        code, _, _ = run(self.base_args(pred_dir, gt_dir), capsys)
        assert code == 3


class TestEvalConsistency:
    def write_fixture(self, tmp_path, depth_j_factor=2.0):
        intr = ideal_calib(tmp_path / "calib.json")
        h, w = intr.height, intr.width
        depths = tmp_path / "depths"
        flows = tmp_path / "flows"
        depths.mkdir()
        flows.mkdir()
        write_depth_pfm(depths / "depth_0000.pfm", DepthMap(np.full((h, w), 42.0)))
        write_depth_pfm(
            depths / "depth_0001.pfm", DepthMap(np.full((h, w), depth_j_factor * 42.0))
        )
        write_flo(flows / "flow_0000_0001.flo", FlowField(np.zeros((h, w, 2))))
        save_tum(tmp_path / "poses.tum", still([0, 1]))
        return [
            "eval-consistency",
            "--depths", str(depths),
            "--poses", str(tmp_path / "poses.tum"),
            "--flows", str(flows),
            "--calib", str(tmp_path / "calib.json"),
        ]

    def test_doubled_depth_fixture(self, tmp_path, capsys):
        args = self.write_fixture(tmp_path)
        report = run_json(args, capsys)
        assert report["prior_skipped"] is True
        assert report["n_pairs"] == 1
        pair = report["pairs"][0]
        assert (pair["i"], pair["j"]) == (0, 1)
        assert pair["c_temp"] == pytest.approx(1.0, abs=1e-12)
        assert pair["c_flow"] < 1e-9
        assert pair["c_prior"] == 0.0
        agg = report["aggregate"]
        assert agg["total"] == pytest.approx(1.0, abs=1e-9)
        assert agg["weighted"]["temp"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_weights_zero_total(self, tmp_path, capsys):
        args = self.write_fixture(tmp_path)
        report = run_json(
            args + ["--w-flow", "0", "--w-temp", "0", "--w-prior", "0"], capsys
        )
        assert report["aggregate"]["total"] == 0.0

    def test_prior_term_with_reference_depths(self, tmp_path, capsys):
        args = self.write_fixture(tmp_path)
        report = run_json(args + ["--ref-depths", str(tmp_path / "depths")], capsys)
        assert report["prior_skipped"] is False
        pair = report["pairs"][0]
        assert pair["c_prior"] == 0.0  # reference equals the input depth
        assert {"c_si", "c_grad", "c_normal"} <= set(pair)

    def test_missing_depth_for_pair(self, tmp_path, capsys):
        args = self.write_fixture(tmp_path)
        (tmp_path / "depths" / "depth_0001.pfm").unlink()
        code, _, _ = run(args, capsys)
        assert code == 3

    def test_missing_reference_depth_names_the_file(self, tmp_path, capsys, caplog):
        args = self.write_fixture(tmp_path)
        refs = tmp_path / "refs"
        refs.mkdir()
        # only a file named as simulate names it is a reference
        write_depth_pfm(refs / "depth_000.pfm", DepthMap(np.full((12, 16), 42.0)))
        code, _, _ = run(args + ["--ref-depths", str(refs)], capsys)
        assert code == 3
        assert f"missing depth_0000.pfm in {refs}" in caplog.text

    @pytest.mark.parametrize("ref_bytes, want_code, want_message", [
        (None, 3, "missing depth_0000.pfm in "),
        (b"Pf\nxx\n", 2, "malformed PFM dimensions line"),
    ])
    def test_reference_fault_is_reported_before_an_empty_flow(self, tmp_path, capsys, caplog, ref_bytes,
                                                              want_code, want_message):
        # the reference map is read before the flow term runs, so a pair with
        # both faults reports the reference map's, with its exit code
        args = self.write_fixture(tmp_path)
        write_flo(tmp_path / "flows" / "flow_0000_0001.flo", FlowField(np.full((12, 16, 2), np.nan)))
        refs = tmp_path / "refs"
        refs.mkdir()
        if ref_bytes is not None:
            (refs / "depth_0000.pfm").write_bytes(ref_bytes)
        code, _, _ = run(args + ["--ref-depths", str(refs)], capsys)
        assert code == want_code
        assert want_message in caplog.text
        assert "flow-consistency" not in caplog.text

    def test_calibration_of_another_size_exits_3(self, tmp_path, capsys, caplog):
        # 16x12 maps with a 160x120 camera gave numbers with no error
        args = self.write_fixture(tmp_path)
        ideal_calib(tmp_path / "calib.json", width=160, height=120)
        code, _, _ = run(args + ["--ref-depths", str(tmp_path / "depths")], capsys)
        assert code == 3
        assert "camera dimensions differ: 16x12 vs 160x120" in caplog.text

    def test_frames_past_9999(self, tmp_path, capsys):
        # the names take a fifth digit from frame 10000 on, as simulate writes them
        ideal_calib(tmp_path / "calib.json", width=4, height=4)
        frames = range(9998, 10002)
        for k in frames:
            write_depth_pfm(tmp_path / f"depth_{k:04d}.pfm", DepthMap(np.full((4, 4), 40.0)))
        for k in frames[:-1]:
            write_flo(tmp_path / f"flow_{k:04d}_{k + 1:04d}.flo", FlowField(np.zeros((4, 4, 2))))
        save_tum(tmp_path / "gt.tum", still(frames))
        d = str(tmp_path)
        report = run_json(["eval-consistency", "--depths", d, "--flows", d, "--poses", d + "/gt.tum",
                           "--calib", d + "/calib.json", "--ref-depths", d], capsys)
        assert report["n_pairs"] == 3
        assert [(p["i"], p["j"]) for p in report["pairs"]] == [(9998, 9999), (9999, 10000), (10000, 10001)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_and_inf_flow_warn_nowhere(self, tmp_path, capsys):
        def bad_flow(root):
            vectors = np.zeros((12, 16, 2), dtype="<f4")
            vectors[::2, ::3, 0] = np.nan
            vectors[1::2, ::4, 1] = np.inf
            vectors[::5, 1::2, 0] = -np.inf
            flo = struct.pack("<fii", 202021.25, 16, 12) + vectors.tobytes()
            (root / "flows" / "flow_0000_0001.flo").write_bytes(flo)

        def bad_depths(root):
            # the reader marks these pixels invalid; every term, the prior's
            # normals too, must leave them out of its arithmetic
            for k in range(2):
                values = np.full((12, 16), 42.0 * (k + 1))
                values[2, 3], values[5, 7], values[8, 1 + k] = np.inf, -np.inf, np.nan
                write_pfm(root / "depths" / f"depth_{k:04d}.pfm", values)

        for spoil in (bad_flow, bad_depths):
            root = tmp_path / spoil.__name__
            root.mkdir()
            args = self.write_fixture(root)
            spoil(root)
            code, _, err = run(args + ["--ref-depths", str(root / "depths")], capsys)
            assert code == 0, err
            assert "Warning" not in err


class TestStereoCommands:
    def test_disparity2depth(self, tmp_path, capsys):
        ideal_calib(tmp_path / "calib.json", width=2, height=2, f=700.0, baseline=5.0)
        disp = DisparityMap(np.array([[10.0, 0.0], [70.0, 35.0]]))
        write_depth_pfm(tmp_path / "disp.pfm", disp)
        report = run_json(
            [
                "disparity2depth",
                "--calib", str(tmp_path / "calib.json"),
                "--input", str(tmp_path / "disp.pfm"),
                "--out", str(tmp_path / "depth.pfm"),
            ],
            capsys,
        )
        assert report["baseline_mm"] == pytest.approx(5.0)
        assert report["focal_px"] == pytest.approx(700.0)
        assert report["n_valid"] == 3
        depth = read_depth_pfm(tmp_path / "depth.pfm")
        assert depth.values[0, 0] == pytest.approx(350.0)
        assert depth.values[1, 0] == pytest.approx(50.0)
        assert not depth.valid[0, 1]

    @pytest.mark.parametrize("width, height", [(2, 1), (16, 11), (15, 12), (12, 16)])
    def test_disparity_size_must_match_the_left_camera(self, tmp_path, capsys, caplog, width, height):
        # the left camera's fx is a focal length at its own size only
        ideal_calib(tmp_path / "calib.json", f=700.0)
        write_depth_pfm(tmp_path / "disp.pfm", DisparityMap(np.full((height, width), 10.0)))
        with caplog.at_level(logging.ERROR, logger="endogeo"):
            code, out, _ = run(
                ["disparity2depth", "--calib", str(tmp_path / "calib.json"), "--input", str(tmp_path / "disp.pfm"),
                 "--out", str(tmp_path / "depth.pfm")],
                capsys,
            )
        assert code == 3 and out == ""
        assert [r.message for r in caplog.records] == [f"camera dimensions differ: {width}x{height} vs 16x12"]
        assert not (tmp_path / "depth.pfm").exists()

    def test_rectify_maps_outputs(self, tmp_path, capsys):
        ideal_calib(tmp_path / "calib.json")
        prefix = str(tmp_path / "rect")
        report = run_json(
            ["rectify-maps", "--calib", str(tmp_path / "calib.json"), "--out-prefix", prefix],
            capsys,
        )
        assert set(report["outputs"]) == {"left_x", "left_y", "right_x", "right_y", "intrinsics"}
        intr = json.loads((tmp_path / "rect_intrinsics.json").read_text())
        assert intr["baseline_mm"] == pytest.approx(5.0)
        assert intr["width"] == 16
        from endogeo.fileio import read_pfm

        data, _ = read_pfm(tmp_path / "rect_left_x.pfm")
        assert data.shape == (12, 16)


class TestConfigMechanics:
    def test_flags_override_config_file(self, tmp_path, capsys):
        traj = gen_trajectory(20, path="orbit", seed=1)
        save_tum(tmp_path / "t.tum", traj)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "pred": str(tmp_path / "t.tum"),
                    "gt": str(tmp_path / "t.tum"),
                    "window": 4,
                    "align": "se3",
                }
            )
        )
        report = run_json(
            ["eval-traj", "--config", str(cfg_path), "--window", "8"], capsys
        )
        assert report["config_echo"]["window"] == 8      # flag wins
        assert report["config_echo"]["align"] == "se3"   # file fills the rest

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for command, cfg in (
            ("eval-traj", {"pred": "x", "gt": "y", "windoww": 4}),
            # eval-consistency no longer takes alpha
            ("eval-consistency", {"depths": "d", "poses": "p", "flows": "f", "calib": "c", "alpha": 0.2}),
            # nor lambda_consist: it computes no supervised terms to weigh against
            ("eval-consistency", {"depths": "d", "poses": "p", "flows": "f", "calib": "c", "lambda_consist": 0.1}),
        ):
            cfg_path.write_text(json.dumps(cfg))
            code, _, _ = run([command, "--config", str(cfg_path)], capsys)
            assert code == 3, command

    def test_wrong_config_value_type_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for cfg in (
            {"pred": "x", "gt": "y", "window": "wide"},
            {"pred": "x\0", "gt": "y"},  # used to escape open() as ValueError
        ):
            cfg_path.write_text(json.dumps(cfg))
            code, _, _ = run(["eval-traj", "--config", str(cfg_path)], capsys)
            assert code == 3

    def test_malformed_config_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{broken")
        code, _, _ = run(["eval-traj", "--config", str(cfg_path)], capsys)
        assert code == 2

    def test_missing_required_parameter(self, tmp_path, capsys, caplog):
        with caplog.at_level(logging.ERROR, logger="endogeo"):
            code, _, _ = run(["eval-traj", "--gt", str(tmp_path / "g.tum")], capsys)
        assert code == 3
        assert any("--pred" in r.message for r in caplog.records)

    def test_simulate_echo_excludes_destination(self, tmp_path, capsys):
        out = tmp_path / "data"
        code, _, _ = run(
            [
                "simulate",
                "--out", str(out),
                "--n-frames", "4",
                "--stride", "2",
                "--width", "16",
                "--height", "12",
                "--depth-count", "1",
            ],
            capsys,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "out" not in manifest["config_echo"]
        assert manifest["config_echo"]["n_frames"] == 4


class TestExitCodes:
    def test_malformed_tum_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tum"
        bad.write_text("0 1 2\n")
        code, _, _ = run(
            ["eval-traj", "--pred", str(bad), "--gt", str(bad)], capsys
        )
        assert code == 2

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            [
                "eval-traj",
                "--pred", str(tmp_path / "absent.tum"),
                "--gt", str(tmp_path / "absent.tum"),
            ],
            capsys,
        )
        assert code == 2

    def test_validation_error_exit_code(self, tmp_path, capsys):
        traj = still([0, 1])
        save_tum(tmp_path / "t.tum", traj)
        code, _, _ = run(
            [
                "eval-traj",
                "--pred", str(tmp_path / "t.tum"),
                "--gt", str(tmp_path / "t.tum"),
                "--window", "16",
            ],
            capsys,
        )
        assert code == 3  # too short for the window

    @pytest.mark.parametrize(
        ("error", "status"),
        [(FormatError("bad"), 2), (ValidationError("bad"), 3), (NumericError("bad"), 4), (OSError("bad"), 2)],
        ids=["format", "validation", "numeric", "os"],
    )
    def test_each_error_exits_with_its_code(self, monkeypatch, capsys, caplog, error, status):
        def failing_load(path):
            raise error

        monkeypatch.setattr(cli, "load_tum", failing_load)
        code, _, _ = run(["eval-traj", "--pred", "p.tum", "--gt", "g.tum"], capsys)
        assert code == status
        assert [r.message for r in caplog.records if r.levelno == logging.ERROR] == ["bad"]


class TestProcessExitStatus:
    """The status of ``python -m endogeo`` as a process, not main()'s return."""

    def run_module(self, *argv):
        src = str(pathlib.Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "endogeo", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    def test_help_exits_0(self):
        assert self.run_module("--help").returncode == 0

    def test_missing_input_exits_2(self, tmp_path):
        absent = str(tmp_path / "absent.tum")
        assert self.run_module("eval-traj", "--pred", absent, "--gt", absent).returncode == 2

    def test_unknown_command_exits_2(self):
        assert self.run_module("no-such-command").returncode == 2

    def test_validation_error_exits_3_and_logs_it(self, tmp_path):
        proc = self.run_module("simulate", "--out", str(tmp_path / "sim"), "--n-frames", "1")
        assert proc.returncode == 3
        assert "n_frames must be an integer >= 2" in proc.stderr


def _write(tmp_path, name, data: bytes) -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _eval_traj_on(tmp_path, tum: bytes):
    path = _write(tmp_path, "bad.tum", tum)
    return ["eval-traj", "--pred", path, "--gt", path]


def _eval_traj_config(tmp_path, cfg: bytes):
    return ["eval-traj", "--config", _write(tmp_path, "cfg.json", cfg)]


def _calib_with_fx(tmp_path, fx: str):
    ideal_calib(tmp_path / "calib.json", f=700.0)
    text = (tmp_path / "calib.json").read_text().replace('"fx": 700.0', f'"fx": {fx}', 1)
    return _write(tmp_path, "calib.json", text.encode())


def _calib_edited(tmp_path, side: str, key: str, value):
    ideal_calib(tmp_path / "calib.json")
    obj = json.loads((tmp_path / "calib.json").read_text())
    obj[side][key] = value
    return _write(tmp_path, "calib.json", json.dumps(obj).encode())


def _calib_with_lens(tmp_path, f: float, dist):
    ideal_calib(tmp_path / "calib.json", 160, 120, f=f)
    obj = json.loads((tmp_path / "calib.json").read_text())
    for side in ("left", "right"):
        obj[side]["dist"] = list(dist)
    return _write(tmp_path, "calib.json", json.dumps(obj).encode())


def _calib_with_width(tmp_path, width: str):
    ideal_calib(tmp_path / "calib.json")
    text = (tmp_path / "calib.json").read_text().replace('"width": 16', f'"width": {width}', 1)
    return _write(tmp_path, "calib.json", text.encode())


def _disparity2depth(tmp_path, calib, disparity_pfm: bytes):
    return ["disparity2depth", "--calib", calib, "--input", _write(tmp_path, "disp.pfm", disparity_pfm),
            "--out", str(tmp_path / "depth.pfm")]


def _eval_consistency_on_flo(tmp_path, flo: bytes):
    args = TestEvalConsistency().write_fixture(tmp_path)
    _write(tmp_path, "flows/flow_0000_0001.flo", flo)
    return args


def _eval_consistency_with_focal(tmp_path, focal: float):
    args = TestEvalConsistency().write_fixture(tmp_path)
    obj = json.loads((tmp_path / "calib.json").read_text())
    for side in ("left", "right"):
        obj[side].update(fx=focal, fy=focal)
    _write(tmp_path, "calib.json", json.dumps(obj).encode())
    return args


def _eval_consistency_with(tmp_path, flag: str, value: str):
    args = TestEvalConsistency().write_fixture(tmp_path)
    args[args.index(flag) + 1] = value
    return args


def _ideal(tmp_path):
    ideal_calib(tmp_path / "calib.json")
    return str(tmp_path / "calib.json")


_PFM_1x1 = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 10.0)


@pytest.mark.parametrize(
    "argv",
    [
        # each exited 1 with a traceback, 3, or even 0 before readers rejected it
        lambda p: _eval_traj_on(p, b"0 0 0 0 0 0 0 1\ninf 0 0 0 0 0 0 1\n"),
        lambda p: _eval_traj_on(p, b"0 0 0 0 0 0 0 1\n1 nan 0 0 0 0 0 1\n"),
        lambda p: _eval_traj_on(p, b"0 0 0 0 0 0 0 1\n1 0 0 inf 0 0 0 1\n"),
        lambda p: _eval_traj_on(p, b"0 0 0 0 0 0 0 1\n# \xff\xfe\n"),
        lambda p: _eval_traj_config(p, b'{"pred": "\xe9.tum", "gt": "g.tum"}'),
        lambda p: _eval_traj_config(p, b'{"pred": "p.tum", "gt": "g.tum", "window": NaN}'),
        lambda p: _eval_traj_config(p, b'["pred", "p.tum"]'),
        lambda p: ["eval-depth", "--pred", str(p), "--gt", str(p),
                   "--config", _write(p, "cfg.json", b'{"depth_max": 1e999}')],
        lambda p: ["rectify-maps", "--calib", _calib_with_fx(p, "Infinity"), "--out-prefix", str(p / "r")],
        lambda p: _disparity2depth(p, _calib_with_fx(p, "1e999"), _PFM_1x1),
        lambda p: ["rectify-maps", "--calib", _write(p, "calib.json", b"0"), "--out-prefix", str(p / "r")],
        lambda p: _disparity2depth(p, _ideal(p), b"Pf\n99999999999 99999999999\n-1.0\n" + b"\0" * 16),
        # a 3-channel PFM, which no command reads
        lambda p: _disparity2depth(p, _ideal(p), b"PF\n1 1\n-1.0\n" + b"\0" * 12),
        lambda p: _eval_consistency_on_flo(p, struct.pack("<fii", 202021.25, 2147483647, 2147483647)),
        lambda p: ["rectify-maps", "--calib", _calib_with_width(p, "16.7"), "--out-prefix", str(p / "r")],
        lambda p: ["rectify-maps", "--calib", _calib_with_width(p, "true"), "--out-prefix", str(p / "r")],
        lambda p: ["rectify-maps", "--calib", _calib_with_fx(p, '" 7e2 "'), "--out-prefix", str(p / "r")],
        lambda p: ["rectify-maps", "--calib", _calib_edited(p, "left", "cy", True), "--out-prefix", str(p / "r")],
        lambda p: _disparity2depth(p, _calib_edited(p, "right", "dist", ["0", 0, 0, 0, 0]), _PFM_1x1),
        lambda p: _disparity2depth(p, _calib_edited(p, "extrinsics", "T", ["5", "0", "0"]), _PFM_1x1),
        # a reflection was read as the identity and exited 0
        lambda p: ["rectify-maps", "--calib", _calib_edited(p, "extrinsics", "R", [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
                   "--out-prefix", str(p / "r")],
    ],
    ids=[
        "tum-inf-frame", "tum-nan-field", "tum-inf-field", "tum-not-utf8",
        "config-not-utf8", "config-nan", "config-array", "config-overflow",
        "calib-inf-fx", "calib-overflow-fx", "calib-not-object",
        "pfm-huge-header", "pfm-three-channel", "flo-huge-header",
        "calib-fractional-width", "calib-bool-width",
        "calib-string-fx", "calib-bool-cy", "calib-string-dist", "calib-string-T", "calib-reflection-R",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    code, _, _ = run(argv(tmp_path), capsys)
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "logged"),
    [
        # the calibration used to exit 1 with numpy's "array is too big"
        (lambda p: ["rectify-maps", "--calib", _calib_with_width(p, "1000000000"), "--out-prefix", str(p / "r")],
         "32768"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--width", "32769"], "32768"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--height", "1000000000"], "32768"),
        (lambda p: ["eval-depth", "--pred", str(p), "--gt", str(p), "--eval-width", "1000000000"], "32768"),
        # these ended in a ValueError or IndexError traceback
        (lambda p: ["simulate", "--out", str(p / "sim"), "--stride", "0"], "stride"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--stride", "-1"], "stride"),
        # and these in math.sin(inf): 1e308 scales the unit draws past the largest float
        (lambda p: ["simulate", "--out", str(p / "sim"), "--sigma-rot", "inf"], "sigma"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--sigma-rot", "1e308"], "angle"),
        # and these in a RuntimeWarning and a NaN quaternion or a parallel up vector
        (lambda p: ["simulate", "--out", str(p / "sim"), "--extent", "inf"], "extent"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--extent", "1e308"], "distance"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--orbit-radius", "inf"], "radius"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--orbit-radius", "1e300"], "distance"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--path", "spline", "--orbit-radius", "1e308"], "distance"),
        # the linear path never reaches look_at: this wrote maps with no valid pixel
        (lambda p: ["simulate", "--out", str(p / "sim"), "--path", "linear", "--extent", "inf"], "extent"),
        # and these in overflowing pixel rays: RuntimeWarnings, and maps with no pixel inside
        (lambda p: ["rectify-maps", "--calib", _calib_with_fx(p, "1e-200"), "--out-prefix", str(p / "r")], "focal"),
        (lambda p: ["rectify-maps", "--calib", _calib_with_fx(p, "1e-308"), "--out-prefix", str(p / "r")], "focal"),
        (lambda p: _eval_consistency_with_focal(p, 1e-308), "focal"),
        (lambda p: ["simulate", "--out", str(p / "sim"), "--focal", "1e-200", "--width", "16", "--height", "12"],
         "focal"),
        # the pixel rays fit, but the distortion terms overflowed with a RuntimeWarning, and it exited 0
        (lambda p: ["rectify-maps", "--calib", _calib_with_lens(p, 1e-100, (-0.12, 0.03, 5e-4, -4e-4, 0.0)),
                    "--out-prefix", str(p / "r")], "distortion"),
        # a config value outside its choices or of the wrong type
        (lambda p: _eval_traj_config(p, b'{"pred": "p.tum", "gt": "g.tum", "align": "bogus"}'), "align must be one of"),
        (lambda p: ["eval-depth", "--pred", str(p), "--gt", str(p),
                    "--config", _write(p, "cfg.json", b'{"median_scaling": 0}')], "median_scaling must be a boolean"),
        # inputs that are not there
        (lambda p: ["eval-depth", "--pred", _ideal(p), "--gt", str(p)], "not a directory"),
        (lambda p: _eval_consistency_with(p, "--depths", str(p / "calib.json")), "not a directory"),
        (lambda p: _eval_consistency_with(p, "--flows", str(p / "depths")), "no flow_NNNN_NNNN.flo files"),
        (lambda p: _eval_consistency_with(p, "--poses", _write(p, "one.tum", b"0 0 0 0 0 0 0 1\n")),
         "pose for frame 1 missing"),
    ],
    ids=[
        "calib-huge-width", "simulate-width", "simulate-height", "eval-depth-width",
        "simulate-stride-0", "simulate-stride-negative", "simulate-sigma-rot-inf", "simulate-sigma-rot-overflow",
        "simulate-extent-inf", "simulate-extent-overflow", "simulate-orbit-radius-inf",
        "simulate-orbit-radius-overflow", "simulate-spline-radius-overflow",
        "simulate-linear-extent-inf", "calib-tiny-fx", "calib-fx-1e-308", "eval-consistency-tiny-focal",
        "simulate-tiny-focal", "calib-distortion-overflow",
        "config-align-bogus", "config-median-scaling-0",
        "eval-depth-pred-not-a-directory", "eval-consistency-depths-not-a-directory",
        "eval-consistency-no-flows", "eval-consistency-missing-pose",
    ],
)
def test_image_larger_than_ceiling_exits_3(tmp_path, capsys, caplog, argv, logged):
    code, _, err = run(argv(tmp_path), capsys)
    assert code == 3
    assert "Warning" not in err
    assert logged in caplog.text
    assert not (tmp_path / "sim").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_beyond_float32_exits_3(tmp_path, capsys, caplog):
    # the flows of a 1e308 px focal length overflow float32; they were written as inf
    code, _, _ = run(["simulate", "--out", str(tmp_path / "sim"), "--focal", "1e308"], capsys)
    assert code == 3
    assert "float32" in caplog.text
    written = sorted((tmp_path / "sim").iterdir())
    assert not any(p.suffix == ".flo" for p in written)
    for path in written:
        if path.suffix == ".pfm":
            assert np.isfinite(read_depth_pfm(path).values).all(), path.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_read_back_as_unknown_exits_3(tmp_path, capsys, caplog):
    # the flows of a 1e30 px focal length fit float32 but reach the .flo
    # "unknown flow" sentinel; they were written and read back all invalid
    argv = ["simulate", "--out", str(tmp_path / "sim"), "--focal", "1e30", "--width", "16", "--height", "12"]
    code, _, _ = run(argv, capsys)
    assert code == 3
    assert "1e9" in caplog.text
    assert not any(p.suffix == ".flo" for p in (tmp_path / "sim").iterdir())


def test_report_that_would_hold_infinity_exits_3(tmp_path, capsys, caplog):
    # against the drifted poses c_flow is about 1.6 px, so a flow weight of
    # 1.7e308 makes the weighted flow term and the total inf; the report was
    # written with "Infinity", which is not JSON, and exited 0
    sim = tmp_path / "sim"
    code, _, err = run(["simulate", "--out", str(sim), "--width", "16", "--height", "12", "--n-frames", "4",
                        "--depth-count", "2"], capsys)
    assert code == 0, err
    report = tmp_path / "report.json"
    code, out, _ = run(["eval-consistency", "--depths", str(sim), "--poses", str(sim / "drifted.tum"),
                        "--flows", str(sim), "--calib", str(sim / "calib.json"), "--w-flow", "1.7e308",
                        "--out", str(report)], capsys)
    assert code == 3
    assert "JSON" in caplog.text
    assert not report.exists() and out == ""


def _peak_live(monkeypatch, owner, name, argv, capsys) -> int:
    """Run ``argv`` and return the largest number of DepthMaps made by
    ``owner.name`` that were alive at once."""
    live, peak = weakref.WeakSet(), [0]
    make = getattr(owner, name)

    def tracked(*args, **kwargs):
        depth = make(*args, **kwargs)
        live.add(depth)
        peak[0] = max(peak[0], len(live))
        return depth

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, tracked)
        code, _, err = run(argv, capsys)
    assert code == 0, err
    return peak[0]


def test_live_depth_maps_do_not_grow_with_sequence_length(tmp_path, monkeypatch, capsys):
    peaks = []
    for n in (4, 12):
        d = tmp_path / f"seq{n}"
        simulate = ["simulate", "--out", str(d), "--n-frames", str(n), "--depth-count", str(n),
                    "--width", "16", "--height", "12"]
        evaluate = ["eval-consistency", "--depths", str(d), "--flows", str(d), "--poses", str(d / "gt.tum"),
                    "--calib", str(d / "calib.json"), "--ref-depths", str(d)]
        peaks.append((
            _peak_live(monkeypatch, sim, "render_depth", simulate, capsys),
            _peak_live(monkeypatch, fileio, "read_depth_pfm", evaluate, capsys),
        ))
    assert peaks[0] == peaks[1]


def _simulated_with_refs(tmp_path, n_frames=5):
    """A simulated 32x24 set, its eval-consistency argv, and a reference
    directory of maps that differ from the set's, so every prior term is
    nonzero."""
    d = tmp_path / "sim"
    code = main(["simulate", "--out", str(d), "--n-frames", str(n_frames), "--depth-count", str(n_frames),
                 "--width", "32", "--height", "24"])
    assert code == 0
    refs = tmp_path / "refs"
    refs.mkdir()
    v, u = np.mgrid[0:24, 0:32]
    for k in range(n_frames):
        values, _ = fileio.read_pfm(d / f"depth_{k:04d}.pfm")
        write_pfm(refs / f"depth_{k:04d}.pfm", values * (1.0 + 0.05 * np.sin(0.7 * u + k) * np.cos(0.5 * v)))
    argv = ["eval-consistency", "--depths", str(d), "--flows", str(d), "--poses", str(d / "gt.tum"),
            "--calib", str(d / "calib.json"), "--ref-depths", str(refs)]
    return d, refs, argv


def test_consistency_report_matches_a_serial_loop(tmp_path, capsys):
    d, refs, argv = _simulated_with_refs(tmp_path)
    report = run_json(argv, capsys)
    del report["config_echo"]

    # the same terms from the public functions, one pair after another
    intr = load_calibration(d / "calib.json").left.intrinsics
    poses = load_tum(d / "gt.tum")
    cfg = LossConfig()
    pairs = []
    for i in range(4):
        j = i + 1
        flow = fileio.read_flo(d / f"flow_{i:04d}_{j:04d}.flo")
        depth_i, depth_j = (read_depth_pfm(d / f"depth_{k:04d}.pfm") for k in (i, j))
        motion = compose(inverse(poses.pose_at(j)), poses.pose_at(i))
        c_flow, _, flow_mask = losses.c_flow(depth_i, intr, motion, flow)
        c_temp, _, temp_mask = losses.c_temp(depth_i, depth_j, intr, motion, flow)
        c_prior, breakdown = losses.c_prior(depth_i, read_depth_pfm(refs / f"depth_{i:04d}.pfm"), intr, cfg)
        total, _ = losses.consistency_total(c_flow, c_temp, c_prior, cfg)
        pairs.append({"i": i, "j": j, "c_flow": c_flow, "c_temp": c_temp, "c_prior": c_prior, "total": total,
                      "n_valid_flow": int(flow_mask.sum()), "n_valid_temp": int(temp_mask.sum()), **breakdown})
    means = {}
    for term in ("c_flow", "c_temp", "c_prior"):
        acc = 0.0
        for pair in pairs:
            acc += pair[term]
        means[term] = acc / len(pairs)
    total, weighted = losses.consistency_total(means["c_flow"], means["c_temp"], means["c_prior"], cfg)
    want = {"pairs": pairs, "aggregate": {**means, "weighted": weighted, "total": total},
            "prior_skipped": False, "n_pairs": 4}
    assert all(pair["c_prior"] > 0.0 for pair in pairs)
    # repr keeps every bit of a float, so equal text is equal bits
    assert json.dumps(report, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_eval_consistency_reads_each_map_once(tmp_path, monkeypatch, capsys):
    d, refs, argv = _simulated_with_refs(tmp_path)
    reads = []
    read = fileio.read_depth_pfm

    def counted(path):
        reads.append(pathlib.Path(path))
        return read(path)

    monkeypatch.setattr(fileio, "read_depth_pfm", counted)
    run_json(argv, capsys)
    # five depth maps, and the reference of each pair's first frame
    want = [d / f"depth_{k:04d}.pfm" for k in range(5)] + [refs / f"depth_{k:04d}.pfm" for k in range(4)]
    assert sorted(reads) == sorted(want)


def test_no_thread_outlives_eval_consistency(tmp_path, capsys, caplog):
    d, refs, argv = _simulated_with_refs(tmp_path, n_frames=2)
    before = threading.active_count()
    run_json(argv, capsys)
    assert threading.active_count() == before

    # the prior raises on the worker
    write_pfm(refs / "depth_0000.pfm", np.zeros((24, 32)))
    code, _, _ = run(argv, capsys)
    assert code == 3
    assert "no jointly valid pixels for the prior loss" in caplog.text
    assert threading.active_count() == before

    # the flow term raises on this thread while the prior raises on the
    # worker: the flow error is reported, as a serial loop reports it
    caplog.clear()
    write_flo(d / "flow_0000_0001.flo", FlowField(np.full((24, 32, 2), np.nan)))
    code, _, _ = run(argv, capsys)
    assert code == 3
    assert "no valid pixels for the flow-consistency loss" in caplog.text
    assert "prior" not in caplog.text
    assert threading.active_count() == before


def _doc_tables():
    """Per command, the rows (key, type, default) of its table in docs/config.md."""
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "config.md").read_text(encoding="utf-8")
    tables = {}
    for section in re.split(r"^## ", doc, flags=re.M)[1:]:
        command = re.match(r"`([a-z0-9-]+)`", section)
        if command:
            rows = re.findall(r"^\| `(\w+)` \| (\w+) \| ([^|]+?) \|", section, flags=re.M)
            tables[command.group(1)] = rows
    return tables


def test_config_doc_matches_parser():
    tables = _doc_tables()
    assert list(tables) == list(cli._COMMANDS)
    for command, (_, _, params) in cli._COMMANDS.items():
        want = [
            (p.name, p.kind.__name__, "*required*" if p.default is cli._REQUIRED else f"`{json.dumps(p.default)}`")
            for p in params
        ]
        assert tables[command] == want, command
