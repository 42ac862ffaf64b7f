"""Batch command-line front end.

One binary, subcommand style. Every command accepts ``--config FILE`` (a JSON
object whose keys are the command's parameter names; explicit flags win) and
rejects unknown config keys. Reports are JSON with sorted keys and always
include a ``config_echo`` object listing every effective parameter, so there
are no hidden defaults. Logs go to stderr; data goes to files or stdout.
Outputs are deterministic: rerunning a command on the same inputs produces
byte-identical files.

Exit codes: 0 success, 2 input/format error, 3 precondition/validation error,
4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import glob
import logging
import os
import re
import sys
from dataclasses import asdict, dataclass

from . import fileio, losses, metrics, sim, stereo
from .drift import correct_long_trajectory
from .errors import FormatError, NumericError, ValidationError
from .geometry import compose, inverse
from .trajectory import AnchorSet, LocalSegment, load_tum, save_tum

log = logging.getLogger("endogeo")

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

_REQUIRED = object()


@dataclass(frozen=True)
class _Param:
    name: str               # argparse dest and config-file key
    kind: type              # str, int, float, or bool
    default: object         # _REQUIRED for mandatory parameters
    help: str
    choices: tuple = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _params_simulate():
    return [
        _Param("out", str, _REQUIRED, "output dataset directory"),
        _Param("seed", int, 0, "master seed for all generators"),
        _Param("n_frames", int, 200, "trajectory length in frames"),
        _Param("stride", int, 16, "anchor stride in frames"),
        _Param("path", str, "orbit", "camera path kind", ("orbit", "spline", "linear")),
        _Param("scene", str, "plane", "scene geometry", ("plane", "sphere", "heightfield")),
        _Param("extent", float, 100.0, "scene extent / working distance, mm"),
        _Param("sigma_rot", float, 0.002, "drift rotation noise, rad/frame"),
        _Param("sigma_trans", float, 0.05, "drift translation noise, mm/frame"),
        _Param("width", int, 64, "render width, px"),
        _Param("height", int, 48, "render height, px"),
        _Param("focal", float, 700.0, "render focal length, px"),
        _Param("orbit_radius", float, 8.0, "camera path radius, mm"),
        _Param("depth_count", int, 4, "number of leading frames to render depth/flow for"),
    ]


def _params_correct():
    return [
        _Param("anchors", str, _REQUIRED, "anchor trajectory (.tum)"),
        _Param("segments", str, _REQUIRED, "glob matching local segment .tum files"),
        _Param("out", str, _REQUIRED, "output corrected trajectory (.tum)"),
        _Param("report", str, None, "correction report JSON (default: stdout)"),
    ]


def _params_eval_traj():
    return [
        _Param("pred", str, _REQUIRED, "predicted trajectory (.tum)"),
        _Param("gt", str, _REQUIRED, "ground-truth trajectory (.tum)"),
        _Param("align", str, "sim3", "ATE alignment mode", ("sim3", "se3")),
        _Param("window", int, 16, "RTE window: the frame delta between paired poses"),
        _Param("out", str, None, "metrics report JSON (default: stdout)"),
    ]


def _params_eval_depth():
    return [
        _Param("pred", str, _REQUIRED, "directory of predicted depth .pfm files"),
        _Param("gt", str, _REQUIRED, "directory of ground-truth depth .pfm files"),
        _Param("eval_width", int, 256, "evaluation resolution width"),
        _Param("eval_height", int, 192, "evaluation resolution height"),
        _Param("depth_min", float, 0.1, "minimum valid ground-truth depth, mm"),
        _Param("depth_max", float, 150.0, "maximum valid ground-truth depth, mm"),
        _Param("median_scaling", bool, True, "per-map median alignment of pred to gt"),
        _Param("out", str, None, "metrics report JSON (default: stdout)"),
    ]


def _params_eval_consistency():
    return [
        _Param("depths", str, _REQUIRED, "directory of depth_NNNN.pfm files"),
        _Param("poses", str, _REQUIRED, "camera-to-world trajectory (.tum)"),
        _Param("flows", str, _REQUIRED, "directory of flow_NNNN_NNNN.flo files"),
        _Param("calib", str, _REQUIRED, "calibration JSON (left camera intrinsics are used)"),
        _Param("ref_depths", str, None, "reference depth directory for the prior term (default: prior skipped)"),
        _Param("lambda_consist", float, 0.1, "consistency weight in the total objective"),
        _Param("w_flow", float, 1.0, "flow-consistency weight"),
        _Param("w_temp", float, 1.0, "temporal-consistency weight"),
        _Param("w_prior", float, 1.0, "prior weight"),
        _Param("w_si", float, 1.0, "scale-invariant prior sub-weight"),
        _Param("w_grad", float, 1.0, "gradient-matching prior sub-weight"),
        _Param("w_normal", float, 1.0, "normal-consistency prior sub-weight"),
        _Param("uncertainty_constant", float, 1.0, "scalar uncertainty multiplier on flow/temporal terms"),
        _Param("out", str, None, "loss report JSON (default: stdout)"),
    ]


def _params_disparity2depth():
    return [
        _Param("calib", str, _REQUIRED, "calibration JSON (baseline and focal length)"),
        _Param("input", str, _REQUIRED, "input disparity .pfm"),
        _Param("out", str, _REQUIRED, "output depth .pfm"),
    ]


def _params_rectify_maps():
    return [
        _Param("calib", str, _REQUIRED, "calibration JSON"),
        _Param("out_prefix", str, _REQUIRED, "output path prefix for map rasters"),
    ]


def _add_command(subparsers, name: str, help_text: str, params):
    sub = subparsers.add_parser(name, help=help_text, description=help_text)
    sub.add_argument("--config", default=None, help="JSON config file; explicit flags override it")
    for p in params:
        kwargs = {"dest": p.name, "default": None, "help": p.help}
        if p.kind is bool:
            sub.add_argument(p.flag, action=argparse.BooleanOptionalAction, **kwargs)
        else:
            if p.choices:
                kwargs["choices"] = p.choices
            sub.add_argument(p.flag, type=p.kind, **kwargs)
    return sub


def _load_config_file(path: str) -> dict:
    obj = fileio.read_json(path)
    if not isinstance(obj, dict):
        raise FormatError("config file must contain a JSON object", path=path)
    return obj


def _coerce(value, param: _Param, source: str):
    if param.kind is bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{source}: {param.name} must be a boolean, got {value!r}")
        return value
    if param.kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{source}: {param.name} must be an integer, got {value!r}")
        return value
    if param.kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{source}: {param.name} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, str) or "\0" in value:  # a path with NUL cannot be opened
        raise ValidationError(f"{source}: {param.name} must be a string without NUL, got {value!r}")
    return value


def _effective_config(args, params) -> dict:
    file_cfg = {}
    if args.config is not None:
        file_cfg = _load_config_file(args.config)
        known = {p.name for p in params}
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ValidationError(
                f"unknown config keys {unknown}; known keys: {sorted(known)}"
            )
    cfg = {}
    for p in params:
        value = getattr(args, p.name)
        if value is None and p.name in file_cfg:
            value = _coerce(file_cfg[p.name], p, args.config)
            if p.choices and value not in p.choices:
                raise ValidationError(
                    f"{p.name} must be one of {p.choices}, got {value!r}"
                )
        if value is None:
            if p.default is _REQUIRED:
                raise ValidationError(f"missing required parameter {p.flag}")
            value = p.default
        cfg[p.name] = value
    return cfg


def _emit_report(report: dict, cfg: dict, out_path) -> None:
    """Write ``report`` plus its ``config_echo`` to ``out_path``, or to stdout."""
    report = {**report, "config_echo": dict(cfg)}
    if out_path:
        fileio.write_json(out_path, report)
    else:
        sys.stdout.write(fileio.format_json(report))


def _cmd_simulate(cfg: dict) -> int:
    out = cfg["out"]
    # the destination path is not a generation parameter; echoing it would
    # break byte-identity of runs into different directories
    kwargs = {k: v for k, v in cfg.items() if k != "out"}
    manifest = sim.simulate_dataset(out, config_echo=dict(kwargs), **kwargs)
    log.info("wrote %d artifacts to %s", len(manifest["artifacts"]) + 1, out)
    return EXIT_OK


def _cmd_correct(cfg: dict) -> int:
    anchors_traj = load_tum(cfg["anchors"])
    if len(anchors_traj) < 2:
        raise ValidationError("anchor trajectory must contain at least 2 poses")
    anchors = AnchorSet(anchors_traj, int(anchors_traj.frames[1] - anchors_traj.frames[0]))
    paths = sorted(glob.glob(cfg["segments"]))
    if not paths:
        raise ValidationError(f"no segment files match {cfg['segments']!r}")
    segments = []
    for p in paths:
        traj = load_tum(p)
        if len(traj) < 2:
            raise ValidationError(f"segment {p} has fewer than 2 poses")
        segments.append(LocalSegment(traj, int(traj.frames[0]), int(traj.frames[-1])))
    segments.sort(key=lambda s: s.start_anchor_frame)
    corrected, report = correct_long_trajectory(anchors, segments)
    save_tum(cfg["out"], corrected)
    _emit_report(report.to_dict(), cfg, cfg["report"])
    log.info("corrected %d poses across %d segments", len(corrected), len(segments))
    return EXIT_OK


def _log_table(rows) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        log.info("  %-*s %.6g", width, key, value)


def _cmd_eval_traj(cfg: dict) -> int:
    pred = load_tum(cfg["pred"])
    gt = load_tum(cfg["gt"])
    ate_mm = metrics.ate(pred, gt, cfg["align"])
    rte_mm, rte_rot = metrics.rpe(pred, gt, cfg["window"])
    report = {
        "ate_mm": ate_mm,
        "rte_mm": rte_mm,
        "rte_rot_rad": rte_rot,
        "n_frames": len(pred),
    }
    _log_table([("ate_mm", ate_mm), ("rte_mm", rte_mm), ("rte_rot_rad", rte_rot)])
    _emit_report(report, cfg, cfg["out"])
    return EXIT_OK


def _cmd_eval_depth(cfg: dict) -> int:
    eval_cfg = metrics.DepthEvalConfig(
        cfg["eval_width"],
        cfg["eval_height"],
        cfg["depth_min"],
        cfg["depth_max"],
        cfg["median_scaling"],
    )
    pred_dir, gt_dir = cfg["pred"], cfg["gt"]
    for d in (pred_dir, gt_dir):
        if not os.path.isdir(d):
            raise ValidationError(f"not a directory: {d}")
    names = sorted(
        set(n for n in os.listdir(pred_dir) if n.endswith(".pfm"))
        & set(n for n in os.listdir(gt_dir) if n.endswith(".pfm"))
    )
    if not names:
        raise ValidationError("no common .pfm files between pred and gt directories")
    per_frame = {}
    totals = {k: 0.0 for k in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta_1_25")}
    n_pixels = 0
    for name in names:
        pred = fileio.read_depth_pfm(os.path.join(pred_dir, name))
        gt = fileio.read_depth_pfm(os.path.join(gt_dir, name))
        m = metrics.depth_metrics(pred, gt, eval_cfg)
        per_frame[name] = m.to_dict()
        for k in totals:
            totals[k] += per_frame[name][k]
        n_pixels += m.n_pixels
    report = {k: v / len(names) for k, v in totals.items()}
    _log_table(sorted(report.items()))
    report.update(
        {
            "n_frames": len(names),
            "n_pixels": n_pixels,
            "per_frame": per_frame,
        }
    )
    _emit_report(report, cfg, cfg["out"])
    return EXIT_OK


_DEPTH_RE = re.compile(r"^depth_(\d{4})\.pfm$")
_FLOW_RE = re.compile(r"^flow_(\d{4})_(\d{4})\.flo$")


def _cmd_eval_consistency(cfg: dict) -> int:
    loss_cfg = losses.LossConfig(
        lambda_consist=cfg["lambda_consist"],
        w_flow=cfg["w_flow"],
        w_temp=cfg["w_temp"],
        w_prior=cfg["w_prior"],
        w_si=cfg["w_si"],
        w_grad=cfg["w_grad"],
        w_normal=cfg["w_normal"],
        uncertainty_constant=cfg["uncertainty_constant"],
    )
    calib = stereo.load_calibration(cfg["calib"])
    intr = calib.left.intrinsics
    poses = load_tum(cfg["poses"])

    if not os.path.isdir(cfg["depths"]):
        raise ValidationError(f"not a directory: {cfg['depths']}")
    depth_files = {}
    for name in os.listdir(cfg["depths"]):
        m = _DEPTH_RE.match(name)
        if m:
            depth_files[int(m.group(1))] = os.path.join(cfg["depths"], name)
    if not os.path.isdir(cfg["flows"]):
        raise ValidationError(f"not a directory: {cfg['flows']}")
    pairs = []
    for name in os.listdir(cfg["flows"]):
        m = _FLOW_RE.match(name)
        if m:
            pairs.append((int(m.group(1)), int(m.group(2)), os.path.join(cfg["flows"], name)))
    pairs.sort()
    if not pairs:
        raise ValidationError(f"no flow_NNNN_NNNN.flo files in {cfg['flows']}")

    ref_dir = cfg["ref_depths"]
    prior_skipped = ref_dir is None
    pair_reports = []
    sums = {"c_flow": 0.0, "c_temp": 0.0, "c_prior": 0.0}
    depth_cache = {}

    def depth_for(frame: int):
        if frame not in depth_cache:
            if frame not in depth_files:
                raise ValidationError(f"missing depth_{frame:04d}.pfm in {cfg['depths']}")
            depth_cache[frame] = fileio.read_depth_pfm(depth_files[frame])
        return depth_cache[frame]

    for i, j, flow_path in pairs:
        flow = fileio.read_flo(flow_path)
        depth_i = depth_for(i)
        depth_j = depth_for(j)
        for frame in (i, j):
            if not poses.has_frame(frame):
                raise ValidationError(f"pose for frame {frame} missing from {cfg['poses']}")
        motion = compose(inverse(poses.pose_at(j)), poses.pose_at(i))
        flow_val, _, flow_mask = losses.c_flow(depth_i, intr, intr, motion, flow)
        temp_val, _, temp_mask = losses.c_temp(depth_i, depth_j, intr, intr, motion, flow)
        entry = {
            "i": i,
            "j": j,
            "c_flow": flow_val,
            "c_temp": temp_val,
            "n_valid_flow": int(flow_mask.sum()),
            "n_valid_temp": int(temp_mask.sum()),
        }
        if prior_skipped:
            prior_val = 0.0
        else:
            ref_path = os.path.join(ref_dir, f"depth_{i:04d}.pfm")
            if not os.path.exists(ref_path):
                raise ValidationError(f"missing reference depth {ref_path}")
            prior_val, breakdown = losses.c_prior(
                depth_i, fileio.read_depth_pfm(ref_path), intr, loss_cfg
            )
            entry.update(breakdown)
        entry["c_prior"] = prior_val
        total, weighted = losses.consistency_total(flow_val, temp_val, prior_val, loss_cfg)
        entry["total"] = total
        pair_reports.append(entry)
        sums["c_flow"] += flow_val
        sums["c_temp"] += temp_val
        sums["c_prior"] += prior_val

    n = len(pairs)
    means = {k: v / n for k, v in sums.items()}
    agg_total, agg_weighted = losses.consistency_total(
        means["c_flow"], means["c_temp"], means["c_prior"], loss_cfg
    )
    report = {
        "pairs": pair_reports,
        "aggregate": {**means, "weighted": agg_weighted, "total": agg_total},
        "prior_skipped": prior_skipped,
        "n_pairs": n,
    }
    _emit_report(report, cfg, cfg["out"])
    return EXIT_OK


def _cmd_disparity2depth(cfg: dict) -> int:
    calib = stereo.load_calibration(cfg["calib"])
    disparity = fileio.read_disparity_pfm(cfg["input"])
    focal = calib.left.intrinsics.fx  # rectified intrinsics are the left camera's
    depth = stereo.disparity_to_depth(disparity, calib.baseline, focal)
    fileio.write_depth_pfm(cfg["out"], depth)
    report = {
        "out": cfg["out"],
        "baseline_mm": calib.baseline,
        "focal_px": focal,
        "n_valid": depth.n_valid,
    }
    _emit_report(report, cfg, None)
    return EXIT_OK


def _cmd_rectify_maps(cfg: dict) -> int:
    calib = stereo.load_calibration(cfg["calib"])
    maps = stereo.compute_rectify_maps(calib)
    prefix = cfg["out_prefix"]
    outputs = {}
    for name, data in (
        ("left_x", maps.left_x),
        ("left_y", maps.left_y),
        ("right_x", maps.right_x),
        ("right_y", maps.right_y),
    ):
        path = f"{prefix}_{name}.pfm"
        fileio.write_pfm(path, data)
        outputs[name] = path
    intr_path = f"{prefix}_intrinsics.json"
    fileio.write_json(intr_path, {**asdict(maps.intrinsics), "baseline_mm": maps.baseline})
    outputs["intrinsics"] = intr_path
    _emit_report({"outputs": outputs}, cfg, None)
    return EXIT_OK


_COMMANDS = {
    "simulate": ("emit a synthetic oracle dataset directory", _params_simulate, _cmd_simulate),
    "correct": ("drift-correct local segments against an anchor trajectory", _params_correct, _cmd_correct),
    "eval-traj": ("trajectory metrics: ATE and windowed RTE", _params_eval_traj, _cmd_eval_traj),
    "eval-depth": ("depth metrics over directories of .pfm maps", _params_eval_depth, _cmd_eval_depth),
    "eval-consistency": (
        "flow/temporal/prior consistency losses over a sequence",
        _params_eval_consistency,
        _cmd_eval_consistency,
    ),
    "disparity2depth": ("metric depth from disparity via the calibrated rig", _params_disparity2depth, _cmd_disparity2depth),
    "rectify-maps": ("undistortion + rectification lookup maps", _params_rectify_maps, _cmd_rectify_maps),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="endogeo",
        description="Deterministic geometric toolkit: trajectory drift correction, "
        "stereo depth synthesis, consistency losses, and evaluation metrics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, params_fn, _) in _COMMANDS.items():
        _add_command(subparsers, name, help_text, params_fn())
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    _, params_fn, handler = _COMMANDS[args.command]
    try:
        cfg = _effective_config(args, params_fn())
        return handler(cfg)
    except FormatError as exc:
        log.error("%s", exc)
        return EXIT_FORMAT
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except NumericError as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_FORMAT
