"""Batch command-line front end.

One binary, subcommand style. Every command accepts ``--config FILE`` (a JSON
object whose keys are the command's parameter names; explicit flags win) and
rejects unknown config keys. Reports are JSON with sorted keys and always
include a ``config_echo`` object listing every effective parameter, so there
are no hidden defaults. Logs go to stderr; data goes to files or stdout.
Outputs are deterministic: rerunning a command on the same inputs produces
byte-identical files. ``eval-consistency`` computes each pair's prior term on
one worker thread, beside the pair's flow and temporal terms on the calling
thread; its report is the same bytes as a serial loop's.

Defaults are the library's own: a parameter that a library function or
config class consumes takes its default and type from that consumer's
signature or fields, and its choices from the library's tuple. Only the file
paths are the CLI's own parameters.

Exit codes: 0 success; on an error, the ``exit_code`` of its class in
:mod:`endogeo.errors` (2 input/format, 3 validation, 4 numeric), and 2 on OSError.
"""

from __future__ import annotations

import argparse
import functools
import glob
import inspect
import logging
import operator
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass

from . import fileio, losses, metrics, sim, stereo
from .drift import correct_long_trajectory
from .errors import FormatError, NumericError, ValidationError
from .geometry import compose, inverse
from .trajectory import load_tum, save_tum

log = logging.getLogger("endogeo")

_REQUIRED = object()
# what a config-file value of each parameter type must be, as error messages say it
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string without NUL"}
# the library's choice tuples, by the name of the parameter they constrain
_CHOICES = {"path": sim.PATH_KINDS, "scene": sim.SCENE_KINDS, "align": metrics.ALIGN_MODES}


@dataclass(frozen=True)
class _Param:
    name: str                    # argparse dest and config-file key
    help: str
    default: object = _REQUIRED  # mandatory unless given a default
    kind: type = str             # str, int, float, or bool
    choices: tuple = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _consumed(consumer, **helps) -> list:
    """A parameter for each keyword of ``helps``, in order, with the default
    and type (a deferred annotation) that ``consumer``, a function or a
    config dataclass, declares for it."""
    if is_dataclass(consumer):
        declared = {f.name: (f.default, f.type) for f in fields(consumer)}
    else:
        signature = inspect.signature(consumer)
        declared = {p.name: (p.default, p.annotation) for p in signature.parameters.values()}
    kinds = {kind.__name__: kind for kind in _KIND_NAMES}
    return [
        _Param(name, text, declared[name][0], kinds[declared[name][1]], _CHOICES.get(name))
        for name, text in helps.items()
    ]


def _add_command(subparsers, name: str, help_text: str, params):
    sub = subparsers.add_parser(name, help=help_text, description=help_text)
    sub.add_argument("--config", default=None, help="JSON config file; explicit flags override it")
    for p in params:
        if p.kind is bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {"type": p.kind, "choices": p.choices}
        sub.add_argument(p.flag, dest=p.name, default=None, help=p.help, **kwargs)


def _coerce(value, param: _Param, source: str):
    kind = param.kind
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is str:
        ok = isinstance(value, str) and "\0" not in value  # a path with NUL cannot be opened
    else:
        ok = fileio.is_json_number(value, int if kind is int else (int, float))
    if not ok:
        raise ValidationError(f"{source}: {param.name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _effective_config(args, params) -> dict:
    file_cfg = {}
    if args.config is not None:
        file_cfg = fileio.read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise FormatError("config file must contain a JSON object", path=args.config)
        known = {p.name for p in params}
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ValidationError(f"unknown config keys {unknown}; known keys: {sorted(known)}")
    cfg = {}
    for p in params:
        value = getattr(args, p.name)
        if value is None and p.name in file_cfg:
            value = _coerce(file_cfg[p.name], p, args.config)
            if p.choices and value not in p.choices:
                raise ValidationError(f"{p.name} must be one of {p.choices}, got {value!r}")
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


def _cmd_simulate(cfg: dict) -> None:
    out = cfg["out"]
    # the destination path is not a generation parameter; echoing it would
    # break byte-identity of runs into different directories
    kwargs = {k: v for k, v in cfg.items() if k != "out"}
    manifest = sim.simulate_dataset(out, config_echo=dict(kwargs), **kwargs)
    log.info("wrote %d artifacts to %s", len(manifest["artifacts"]) + 1, out)


def _cmd_correct(cfg: dict) -> None:
    anchors = load_tum(cfg["anchors"])
    paths = sorted(glob.glob(cfg["segments"]))
    if not paths:
        raise ValidationError(f"no segment files match {cfg['segments']!r}")
    # by first frame; an empty segment sorts first and is rejected with its gap
    segments = sorted(map(load_tum, paths), key=lambda s: s.frames[:1].tolist())
    corrected, report = correct_long_trajectory(anchors, segments)
    save_tum(cfg["out"], corrected)
    _emit_report(report.to_dict(), cfg, cfg["report"])
    log.info("corrected %d poses across %d segments", len(corrected), len(segments))


def _log_table(rows) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        log.info("  %-*s %.6g", width, key, value)


def _cmd_eval_traj(cfg: dict) -> None:
    pred = load_tum(cfg["pred"])
    gt = load_tum(cfg["gt"])
    report = {"ate_mm": metrics.ate(pred, gt, cfg["align"])}
    report["rte_mm"], report["rte_rot_rad"] = metrics.rpe(pred, gt, cfg["window"])
    _log_table(report.items())
    report["n_frames"] = len(pred)
    _emit_report(report, cfg, cfg["out"])


def _config_of(config_class, cfg: dict):
    """``config_class`` built from the fields that ``cfg`` holds."""
    return config_class(**{f.name: cfg[f.name] for f in fields(config_class) if f.name in cfg})


def _cmd_eval_depth(cfg: dict) -> None:
    eval_cfg = _config_of(metrics.DepthEvalConfig, cfg)
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
    per_frame, totals = {}, {}
    for name in names:
        pred = fileio.read_depth_pfm(os.path.join(pred_dir, name))
        gt = fileio.read_depth_pfm(os.path.join(gt_dir, name))
        per_frame[name] = metrics.depth_metrics(pred, gt, eval_cfg).to_dict()
        for k, v in per_frame[name].items():  # from int 0, so n_pixels stays an int
            totals[k] = totals.get(k, 0) + v
    n_pixels = totals.pop("n_pixels")
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


def _frame_files(directory: str, n_frames: int) -> dict:
    """Path of each file in ``directory`` named for ``n_frames`` frames by
    ``fileio.frame_file_name``, keyed by those frames."""
    if not os.path.isdir(directory):
        raise ValidationError(f"not a directory: {directory}")
    found = {}
    for name in os.listdir(directory):
        frames = fileio.file_name_frames(name)
        if frames is not None and len(frames) == n_frames:
            found[frames] = os.path.join(directory, name)
    return found


def _read_depth(files: dict, directory: str, frame: int):
    """The depth map of ``frame`` from ``files``, the ``_frame_files`` index
    of one-frame files in ``directory``."""
    path = files.get((frame,))
    if path is None:
        raise ValidationError(f"missing {fileio.frame_file_name(frame)} in {directory}")
    return fileio.read_depth_pfm(path)


def _cmd_eval_consistency(cfg: dict) -> None:
    # imported here, so that the commands that start no thread do not load it
    from concurrent.futures import ThreadPoolExecutor

    loss_cfg = _config_of(losses.LossConfig, cfg)
    calib = stereo.load_calibration(cfg["calib"])
    intr = calib.left.intrinsics
    poses = load_tum(cfg["poses"])

    depth_files = _frame_files(cfg["depths"], 1)
    pairs = sorted(_frame_files(cfg["flows"], 2).items())
    if not pairs:
        raise ValidationError(f"no flow_NNNN_NNNN.flo files in {cfg['flows']}")

    ref_dir = cfg["ref_depths"]
    prior_skipped = ref_dir is None
    ref_files = None if prior_skipped else _frame_files(ref_dir, 1)
    pair_reports = []
    kept = None  # (frame, map): the last pair's depth_j, the next pair's depth_i on a chain

    # one pair's maps at a time, each read once. A pair's prior term runs on
    # the worker while this thread computes its flow and temporal terms; every
    # file read and every other call stays on this thread, so a counter wrapped
    # around one (as perfbench's tracer does) is only ever updated from it.
    # Leaving the block waits for the worker, on an error too.
    with ThreadPoolExecutor(1) as worker:
        for (i, j), flow_path in pairs:
            flow = fileio.read_flo(flow_path)
            depth_i = kept[1] if kept and kept[0] == i else _read_depth(depth_files, cfg["depths"], i)
            depth_j = _read_depth(depth_files, cfg["depths"], j)
            kept = j, depth_j
            for frame in (i, j):
                if not poses.has_frame(frame):
                    raise ValidationError(f"pose for frame {frame} missing from {cfg['poses']}")
            motion = compose(inverse(poses.pose_at(j)), poses.pose_at(i))
            if not prior_skipped:
                ref = _read_depth(ref_files, ref_dir, i)
                prior = worker.submit(losses.c_prior, depth_i, ref, intr, loss_cfg)
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
                prior_val, breakdown = prior.result()
                entry.update(breakdown)
            entry["c_prior"] = prior_val
            entry["total"], _ = losses.consistency_total(flow_val, temp_val, prior_val, loss_cfg)
            pair_reports.append(entry)

    n = len(pairs)
    # each term added in pair order; sum() compensates float rounding from Python 3.12 on
    terms = ("c_flow", "c_temp", "c_prior")
    means = {k: functools.reduce(operator.add, (e[k] for e in pair_reports), 0.0) / n for k in terms}
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


def _cmd_disparity2depth(cfg: dict) -> None:
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


def _cmd_rectify_maps(cfg: dict) -> None:
    calib = stereo.load_calibration(cfg["calib"])
    maps = stereo.compute_rectify_maps(calib)
    prefix = cfg["out_prefix"]
    outputs = {name: f"{prefix}_{name}.pfm" for name in ("left_x", "left_y", "right_x", "right_y")}
    for name, path in outputs.items():
        fileio.write_pfm(path, getattr(maps, name))
    outputs["intrinsics"] = f"{prefix}_intrinsics.json"
    fileio.write_json(outputs["intrinsics"], {**asdict(maps.intrinsics), "baseline_mm": maps.baseline})
    _emit_report({"outputs": outputs}, cfg, None)


# built once, at import, so that a wrapper later put around a library function
# (a tracer's, say) cannot hide the signature its defaults are read from
_COMMANDS = {
    "simulate": ("emit a synthetic oracle dataset directory", _cmd_simulate, [
        _Param("out", "output dataset directory"),
        *_consumed(
            sim.simulate_dataset,
            seed="master seed for all generators",
            n_frames="trajectory length in frames",
            stride="anchor stride in frames",
            path="camera path kind",
            scene="scene geometry",
            extent="scene extent / working distance, mm",
            sigma_rot="drift rotation noise, rad/frame",
            sigma_trans="drift translation noise, mm/frame",
            width="render width, px",
            height="render height, px",
            focal="render focal length, px",
            orbit_radius="camera path radius, mm",
            depth_count="number of leading frames to render depth/flow for",
        ),
    ]),
    "correct": ("drift-correct local segments against an anchor trajectory", _cmd_correct, [
        _Param("anchors", "anchor trajectory (.tum)"),
        _Param("segments", "glob matching local segment .tum files"),
        _Param("out", "output corrected trajectory (.tum)"),
        _Param("report", "correction report JSON (default: stdout)", None),
    ]),
    "eval-traj": ("trajectory metrics: ATE and windowed RTE", _cmd_eval_traj, [
        _Param("pred", "predicted trajectory (.tum)"),
        _Param("gt", "ground-truth trajectory (.tum)"),
        *_consumed(metrics.ate, align="ATE alignment mode"),
        *_consumed(metrics.rpe, window="RTE window: the frame delta between paired poses"),
        _Param("out", "metrics report JSON (default: stdout)", None),
    ]),
    "eval-depth": ("depth metrics over directories of .pfm maps", _cmd_eval_depth, [
        _Param("pred", "directory of predicted depth .pfm files"),
        _Param("gt", "directory of ground-truth depth .pfm files"),
        *_consumed(
            metrics.DepthEvalConfig,
            eval_width="evaluation resolution width",
            eval_height="evaluation resolution height",
            depth_min="minimum valid ground-truth depth, mm",
            depth_max="maximum valid ground-truth depth, mm",
            median_scaling="per-map median alignment of pred to gt",
        ),
        _Param("out", "metrics report JSON (default: stdout)", None),
    ]),
    "eval-consistency": ("flow/temporal/prior consistency losses over a sequence", _cmd_eval_consistency, [
        _Param("depths", "directory of depth_NNNN.pfm files"),
        _Param("poses", "camera-to-world trajectory (.tum)"),
        _Param("flows", "directory of flow_NNNN_NNNN.flo files"),
        _Param("calib", "calibration JSON (left camera intrinsics are used)"),
        _Param("ref_depths", "reference depth directory for the prior term (default: prior skipped)", None),
        *_consumed(
            losses.LossConfig,
            w_flow="flow-consistency weight",
            w_temp="temporal-consistency weight",
            w_prior="prior weight",
            w_si="scale-invariant prior sub-weight",
            w_grad="gradient-matching prior sub-weight",
            w_normal="normal-consistency prior sub-weight",
            uncertainty_constant="scalar uncertainty multiplier on flow/temporal terms",
        ),
        _Param("out", "loss report JSON (default: stdout)", None),
    ]),
    "disparity2depth": ("metric depth from disparity via the calibrated rig", _cmd_disparity2depth, [
        _Param("calib", "calibration JSON (baseline and focal length)"),
        _Param("input", "input disparity .pfm"),
        _Param("out", "output depth .pfm"),
    ]),
    "rectify-maps": ("undistortion + rectification lookup maps", _cmd_rectify_maps, [
        _Param("calib", "calibration JSON"),
        _Param("out_prefix", "output path prefix for map rasters"),
    ]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="endogeo",
        description="Deterministic geometric toolkit: trajectory drift correction, "
        "stereo depth synthesis, consistency losses, and evaluation metrics.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, params) in _COMMANDS.items():
        _add_command(subparsers, name, help_text, params)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    _, handler, params = _COMMANDS[args.command]
    try:
        handler(_effective_config(args, params))
    except (FormatError, ValidationError, NumericError) as exc:
        log.error("%s", exc)
        return exc.exit_code
    except OSError as exc:  # a file that cannot be read or written is an input error
        log.error("%s", exc)
        return FormatError.exit_code
    return 0
