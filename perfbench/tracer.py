"""Outside-in layer tracer for endogeo.

Spans and counts are recorded by replacing functions where their callers
look them up (a module global or a class attribute), so nothing in the
package itself changes. A span's self time is its duration minus the time
covered by its child spans. Geometry helpers are counted, never timed: they
run millions of times and a span each would swamp the trace.

Hook functions turn a call's arguments and result into counters; their own
cost is kept out of every span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []
        self._installed = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, hook):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += (t1 - t0) - frame[0]
                calls[name] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            if stack:
                # the hook ran inside the parent's interval; charge it to no layer
                stack[-1][0] += clock() - t0
            return result

        return traced

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self, spans, counters):
        """Wrap each ``(owner, attribute, name[, hook])`` in ``spans`` and each
        ``(owner, attribute, name)`` in ``counters``. ``owner`` is a dotted
        module path, optionally followed by ``:Class``."""
        for owner, attr, name, *hook in spans:
            self._replace(owner, attr, functools.partial(self._span, name, hook=hook[0] if hook else None))
        for owner, attr, name in counters:
            self._replace(owner, attr, functools.partial(self._count, name))

    def _replace(self, owner, attr, wrap):
        module_name, _, cls = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls:
            target = getattr(target, cls)
        original = target.__dict__[attr]
        setattr(target, attr, wrap(original))
        self._installed.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed.clear()

    # -- reading ----------------------------------------------------------

    def snapshot(self):
        return dict(self.self_s), Counter(self.calls), Counter(self.counts)


# -- hooks: counters derived from a call's arguments and result -------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(counter):
    def hook(tracer, args, kwargs, result):
        tracer.counts[counter] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return hook


def _poses_parsed(tracer, args, kwargs, result):
    tracer.counts["trajectory.poses_parsed"] += len(result)


def _segments(tracer, args, kwargs, result):
    tracer.counts["drift.segments"] += len(_arg(args, kwargs, 1, "segments"))


def _rpe_pairs(tracer, args, kwargs, result):
    pred = _arg(args, kwargs, 0, "pred")
    window = args[2] if len(args) > 2 else kwargs.get("window", 16)
    tracer.counts["metrics.rpe.pairs"] += len(pred) - window


def _depth_valid(tracer, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    tracer.counts["metrics.depth_valid"] += result.n_pixels
    tracer.counts["metrics.depth_pixels"] += cfg.eval_width * cfg.eval_height


def _mask_counter(prefix):
    def hook(tracer, args, kwargs, result):
        mask = result[2]
        tracer.counts[prefix + "_valid"] += int(mask.sum())
        tracer.counts[prefix + "_pixels"] += mask.size

    return hook


def _rectify_valid(tracer, args, kwargs, result):
    calib = _arg(args, kwargs, 0, "calib")
    for cam, mx, my in (
        (calib.left, result.left_x, result.left_y),
        (calib.right, result.right_x, result.right_y),
    ):
        k = cam.intrinsics
        inside = (mx >= 0) & (mx <= k.width - 1) & (my >= 0) & (my <= k.height - 1)
        tracer.counts["stereo.rectify_valid"] += int(inside.sum())
        tracer.counts["stereo.rectify_entries"] += inside.size


def _render_hits(tracer, args, kwargs, result):
    tracer.counts["sim.render_hits"] += int(result.valid.sum())
    tracer.counts["sim.render_pixels"] += result.valid.size


def _depth_maps(tracer, args, kwargs, result):
    tracer.counts["sim.depth_maps"] += min(kwargs.get("depth_count", 4), kwargs.get("n_frames", 200))


# Every public function the CLI reaches, wrapped at each place a caller
# looks it up. Wrappers in two namespaces share one span name.
SPANS = [
    ("endogeo.cli", "main", "cli.main"),
    ("endogeo.cli", "load_tum", "trajectory.load_tum"),
    ("endogeo.cli", "save_tum", "trajectory.save_tum"),
    ("endogeo.cli", "correct_long_trajectory", "drift.correct_long_trajectory", _segments),
    ("endogeo.trajectory", "parse_tum", "trajectory.parse_tum", _poses_parsed),
    ("endogeo.trajectory", "serialize_tum", "trajectory.serialize_tum"),
    ("endogeo.trajectory", "save_tum", "trajectory.save_tum"),
    ("endogeo.trajectory", "split_into_segments", "trajectory.split_into_segments"),
    ("endogeo.fileio", "read_pfm", "fileio.read_pfm", _file_bytes("fileio.bytes_read")),
    ("endogeo.fileio", "read_depth_pfm", "fileio.read_depth_pfm"),
    ("endogeo.fileio", "read_disparity_pfm", "fileio.read_disparity_pfm"),
    ("endogeo.fileio", "write_pfm", "fileio.write_pfm", _file_bytes("fileio.bytes_written")),
    ("endogeo.fileio", "write_depth_pfm", "fileio.write_depth_pfm"),
    ("endogeo.fileio", "read_flo", "fileio.read_flo", _file_bytes("fileio.bytes_read")),
    ("endogeo.fileio", "write_flo", "fileio.write_flo", _file_bytes("fileio.bytes_written")),
    ("endogeo.metrics", "ate", "metrics.ate"),
    ("endogeo.metrics", "rpe", "metrics.rpe", _rpe_pairs),
    ("endogeo.metrics", "depth_metrics", "metrics.depth_metrics", _depth_valid),
    ("endogeo.metrics", "resize_depth", "metrics.resize_depth"),
    ("endogeo.losses", "c_flow", "losses.c_flow", _mask_counter("losses.flow")),
    ("endogeo.losses", "c_temp", "losses.c_temp", _mask_counter("losses.temp")),
    ("endogeo.losses", "c_prior", "losses.c_prior"),
    ("endogeo.losses", "induced_reprojection", "losses.induced_reprojection"),
    ("endogeo.sim", "induced_reprojection", "losses.induced_reprojection"),
    ("endogeo.stereo", "load_calibration", "stereo.load_calibration"),
    ("endogeo.stereo", "compute_rectify_maps", "stereo.compute_rectify_maps", _rectify_valid),
    ("endogeo.stereo", "disparity_to_depth", "stereo.disparity_to_depth"),
    ("endogeo.stereo", "calibration_to_dict", "stereo.calibration_to_dict"),
    ("endogeo.sim", "simulate_dataset", "sim.simulate_dataset", _depth_maps),
    ("endogeo.sim", "render_depth", "sim.render_depth", _render_hits),
    ("endogeo.sim", "induced_flow", "sim.induced_flow"),
    ("endogeo.sim", "gen_trajectory", "sim.gen_trajectory"),
    ("endogeo.sim", "inject_drift", "sim.inject_drift"),
    ("endogeo.rng:SplitMix64", "normals", "rng.normals"),
]

COUNTERS = [
    (module, fn, "geometry." + fn)
    for module in ("endogeo.cli", "endogeo.drift", "endogeo.metrics", "endogeo.sim")
    for fn in ("compose", "inverse")
] + [
    ("endogeo.drift", "pose_interp", "geometry.pose_interp"),
    ("endogeo.geometry:Quaternion", "rotate", "geometry.rotate"),
]
