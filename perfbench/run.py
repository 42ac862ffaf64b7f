"""End-to-end benchmark of the endogeo CLI.

One run sets up one workload, then runs passes of its CLI commands in a
closed loop for ``--seconds`` and checks every output. The CLI is driven
in-process through ``endogeo.cli.main(argv)`` from the ``src/`` tree of the
checkout this script sits in; nothing is installed.

    python3 perfbench/run.py --workload pipeline-hf --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 50

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer ones: its passes alternate between traced (every layer wrapped in
spans and counters) and untraced, so the tracing overhead is measured under
the same load. Both print a table of every metric they measured, then one
JSON line. ``--all`` runs each workload untraced and twice traced, checks
that exact counts repeat, and exits non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# a run never stops before this many passes, however long they take
MIN_PASSES = 3
# commands that run several times a pass are timed as their per-pass sum
SUMMED = ("disparity2depth", "rectify-maps")

# (name, unit); the end-to-end metrics every workload reports. frames_per_s
# is only frames_per_pass / pass_s, so it is left to the table: a bound on
# pass_s already bounds it.
END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
]

# per-layer metrics in the JSON line: every count and ratio, and the self
# times of the layers that every workload reaches. Self times of layers a
# workload never calls would read 0 on every run; the table has them all.
LAYER_TIMES = [
    "cli", "fileio", "trajectory", "metrics", "losses", "stereo", "sim", "rng",
    "fileio.write_pfm", "fileio.write_flo",
    "trajectory.parse_tum", "trajectory.serialize_tum", "trajectory.split_into_segments",
    "sim.render_depth", "sim.induced_flow", "sim.gen_trajectory", "sim.inject_drift",
    "rng.normals",
]
LAYER_COUNTS = [
    "fileio.bytes_read", "fileio.bytes_written", "trajectory.poses_parsed",
    "drift.segments", "metrics.rpe.pairs", "sim.render_depth.calls",
    "geometry.compose.calls", "geometry.inverse.calls",
    "geometry.pose_interp.calls", "geometry.rotate.calls",
]
# ratio name -> (numerator counter, denominator counter)
LAYER_RATIOS = {
    "metrics.depth_valid_ratio": ("metrics.depth_valid", "metrics.depth_pixels"),
    "losses.flow_valid_ratio": ("losses.flow_valid", "losses.flow_pixels"),
    "losses.temp_valid_ratio": ("losses.temp_valid", "losses.temp_pixels"),
    "stereo.rectify_valid_ratio": ("stereo.rectify_valid", "stereo.rectify_entries"),
    "sim.renders_per_depth_map": ("sim.render_depth.calls", "sim.depth_maps"),
    "sim.render_hit_ratio": ("sim.render_hits", "sim.render_pixels"),
}
PER_LAYER = (
    [(f"{n}.self_s", "s") for n in LAYER_TIMES]
    + [(n, "count") for n in LAYER_COUNTS]
    + [(n, "ratio") for n in LAYER_RATIOS]
    + [("trace.pass_s", "s"), ("trace.overhead_s", "s")]
)


def fresh_cli():
    """Import endogeo.cli from this checkout's src/, dropping earlier imports,
    so each set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == "endogeo" or m.startswith("endogeo.")]:
        del sys.modules[name]
    cli = importlib.import_module("endogeo.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"endogeo imported from {cli.__file__}, not from {SRC}")
    return cli


def call(argv):
    """Run one CLI command; returns (exit code, captured stdout). The module
    attribute is looked up on every call so that a tracer's wrapper is used."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["endogeo.cli"].main(argv)
    return code, buf.getvalue()


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return sorted(samples)[k - 1], 100.0 * k / n


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_values(setup, passes, n_passes):
    """Per-layer metrics for one set-up plus one average pass, from two tracer
    snapshots: after set-up and after the last pass."""
    (s_self, s_calls, s_counts), (e_self, e_calls, e_counts) = setup, passes
    times = defaultdict(lambda: [0.0, 0.0])
    for name in set(s_self) | set(e_self):
        setup_s = s_self.get(name, 0.0)
        pass_s = (e_self.get(name, 0.0) - setup_s) / n_passes
        for key in (name, name.split(".")[0]):
            times[key][0] += setup_s
            times[key][1] += pass_s
    counts = {}
    for suffix, start, end in ((".calls", s_calls, e_calls), ("", s_counts, e_counts)):
        for name in set(start) | set(end):
            per_pass = (end[name] - start[name]) / n_passes
            counts[name + suffix] = (start[name], int(per_pass) if per_pass.is_integer() else per_pass)
    return times, counts


def measure(cls, seed, seconds, trace):
    from tracer import COUNTERS, SPANS, Tracer

    work = os.path.join(WORK, f"{cls.name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    try:
        setup_times = []
        for rep in range(cls.setup_reps):
            rep_dir = os.path.join(work, f"setup{rep}")
            t0 = time.perf_counter()
            fresh_cli()
            import_s = time.perf_counter() - t0
            if trace and rep == cls.setup_reps - 1:
                tracer = Tracer()
                tracer.install(SPANS, COUNTERS)
            os.makedirs(os.path.join(rep_dir, "out"))
            wl = cls(seed, os.path.join(rep_dir, "data"), os.path.join(rep_dir, "out"))
            t1 = time.perf_counter()
            wl.setup(call)
            setup_times.append(import_s + time.perf_counter() - t1)
            if rep < cls.setup_reps - 1:
                shutil.rmtree(rep_dir)
        setup_snap = tracer.snapshot() if tracer else None

        # A traced run alternates traced and untraced passes, so the tracing
        # overhead is measured under the same machine load.
        min_passes = MIN_PASSES + 1 if tracer else MIN_PASSES
        commands = wl.commands()
        invocations = defaultdict(list)
        per_pass = defaultdict(list)
        pass_times = {True: [], False: []}
        attempted = failed = 0
        first_delta = None
        t_start = time.perf_counter()
        while True:
            done = pass_times[True] + pass_times[False]
            if len(done) >= min_passes and (
                time.perf_counter() - t_start + statistics.median(done) > seconds
            ):
                break
            # a command that writes nothing must not pass on the last pass's files
            shutil.rmtree(wl.out)
            os.makedirs(wl.out)
            traced = tracer is not None and len(done) % 2 == 0
            if tracer and not traced:
                tracer.uninstall()
            before = tracer.snapshot() if traced else None
            codes, reports, times = [], [], []
            tp = time.perf_counter()
            for label, argv in commands:
                tc = time.perf_counter()
                try:
                    code, out = call(argv)
                except Exception:  # a traceback is a failed command, not a stopped run
                    traceback.print_exc()
                    code, out = None, ""
                times.append((label, time.perf_counter() - tc))
                codes.append(code)
                reports.append(out)
            pass_times[traced].append(time.perf_counter() - tp)
            if tracer and not traced:
                tracer.install(SPANS, COUNTERS)
            if not traced:
                sums = defaultdict(float)
                for label, dt in times:
                    invocations[label].append(dt)
                    sums[label] += dt
                for label, dt in sums.items():
                    per_pass[label].append(dt)

            try:
                problems = wl.check(reports)
            except Exception as exc:  # missing or unreadable output
                problems = [[f"output check raised {exc!r}"]] * len(commands)
            for (label, _), code, bad in zip(commands, codes, problems):
                attempted += 1
                if code != 0:
                    bad = [f"exit code {code}"] + bad
                if bad:
                    failed += 1
                    print(f"FAILED {label}: " + "; ".join(bad), file=sys.stderr)
            if traced:
                after = tracer.snapshot()
                delta = (after[1] - before[1], after[2] - before[2])
                if first_delta is None:
                    first_delta = delta
                elif delta != first_delta:
                    failed += 1
                    print("FAILED trace: counts of this pass differ from the first pass", file=sys.stderr)
        layers = layer_values(setup_snap, tracer.snapshot(), len(pass_times[True])) if tracer else None
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    stats = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(pass_times[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        stats["trace.pass_s"] = statistics.median(pass_times[True])
        stats["trace.overhead_s"] = stats["trace.pass_s"] - stats["pass_s"]
    commands_s = {
        label: statistics.median(per_pass[label] if label in SUMMED else invocations[label])
        for label in invocations
    }
    record = {
        "workload": cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "setup_samples": len(setup_times),
        "pass_samples": len(pass_times[False]),
        "traced_pass_samples": len(pass_times[True]),
        "command_samples": {label: len(v) for label, v in invocations.items()},
    }
    return {
        "record": record,
        "stats": stats,
        "commands_s": commands_s,
        "pass_times": pass_times[False],
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "workload": cls,
    }


def per_layer_json(layers, stats):
    times, counts = layers
    out = {}
    for name in LAYER_TIMES:
        setup_s, pass_part = times.get(name, (0.0, 0.0))
        out[f"{name}.self_s"] = setup_s + pass_part
    total = {name: s + p for name, (s, p) in counts.items()}
    for name in LAYER_COUNTS:
        out[name] = total.get(name, 0)
    for name, (num, den) in LAYER_RATIOS.items():
        out[name] = total.get(num, 0) / total[den] if total.get(den) else 0.0
    out["trace.pass_s"] = stats["trace.pass_s"]
    out["trace.overhead_s"] = stats["trace.overhead_s"]
    return out


def print_table(res):
    cls, stats, record = res["workload"], res["stats"], res["record"]
    n = record["pass_samples"]
    print(f"== {cls.name}: seed {record['seed']}, trace {record['trace']}, "
          f"{n} passes, {record['setup_samples']} set-ups")
    print("run record: " + json.dumps(record, sort_keys=True))
    rows = [
        ("setup_s", stats["setup_s"], "s", f"median of {record['setup_samples']} set-ups"),
        ("pass_s", stats["pass_s"], "s", f"median of {n} passes"),
    ]
    t = tail(res["pass_times"])
    rows.append(("pass_tail_s", t[0], "s", f"p{t[1]:.0f} of {n} passes") if t
                else ("pass_tail_s", None, "s", f"needs 11 passes, have {n}"))
    for label, value in sorted(res["commands_s"].items()):
        how = "per-pass sum" if label in SUMMED else "per command"
        rows.append((label.replace("-", "_") + "_s", value, "s",
                     f"median {how}, {record['command_samples'][label]} commands"))
    rows.append(("frames_per_s", cls.frames_per_pass / stats["pass_s"], "frames/s",
                 f"{cls.frames_per_pass} frames a pass"))
    if cls.pixels_per_pass:
        rows.append(("mpix_per_s", cls.pixels_per_pass / 1e6 / stats["pass_s"], "Mpx/s",
                     f"{cls.pixels_per_pass / 1e6:.2f} Mpx a pass"))
    rows.append(("peak_rss_mb", stats["peak_rss_mb"], "MB", "whole run"))
    rows.append(("error_rate", res["failed"] / res["attempted"], "ratio",
                 f"{res['failed']} of {res['attempted']} commands failed a check"))
    if res["layers"]:
        times, counts = res["layers"]
        for name in sorted(times, key=lambda k: (k.split(".")[0], k.count("."), k)):
            s, p = times[name]
            rows.append((f"{name}.self_s", s + p, "s", f"set-up {s:.6f} + pass {p:.6f}"))
        for name in sorted(counts):
            s, p = counts[name]
            rows.append((name, s + p, "count", f"set-up {s} + pass {p:g}"))
        total = {name: s + p for name, (s, p) in counts.items()}
        for name, (num, den) in LAYER_RATIOS.items():
            if total.get(den):
                rows.append((name, total.get(num, 0) / total[den], "ratio", f"{num} / {den}"))
        for way, counter, fns in (
            ("read", "fileio.bytes_read", ("read_pfm", "read_flo")),
            ("write", "fileio.bytes_written", ("write_pfm", "write_flo")),
        ):
            busy = sum(sum(times.get(f"fileio.{fn}", (0.0, 0.0))) for fn in fns)
            if busy and total.get(counter):
                rows.append((f"fileio.{way}_mb_per_s", total[counter] / 1e6 / busy, "MB/s",
                             f"{counter} / ({' + '.join(fns)} self time)"))
        traced = res["record"]["traced_pass_samples"]
        rows.append(("trace.pass_s", stats["trace.pass_s"], "s", f"median of {traced} traced passes"))
        rows.append(("trace.overhead_s", stats["trace.overhead_s"], "s", "trace.pass_s - pass_s, same run"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {unit:<9} {note}")


def run_one(args):
    from workloads import WORKLOADS

    res = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print_table(res)
    if args.trace:
        metrics = per_layer_json(res["layers"], res["stats"])
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": res["stats"][name], "unit": unit} for name, unit in END_TO_END}
    sys.stdout.flush()
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload untraced, then traced twice, one process at a time."""
    from workloads import WORKLOADS

    exact = {name for name, unit in PER_LAYER if unit in ("count", "ratio")}
    ok = True
    summary = []
    for name in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
            results.append(result)
        if None in results:
            summary.append((name, None, None))
            continue
        traced_a, traced_b = (r["metrics"] for r in results[1:])
        drift = sorted(k for k in exact if traced_a[k]["value"] != traced_b[k]["value"])
        ok = ok and not drift
        overhead = traced_a["trace.overhead_s"]["value"]
        summary.append((name, overhead / (traced_a["trace.pass_s"]["value"] - overhead), drift))
    print("== summary")
    for name, share, drift in summary:
        if share is None:
            print(f"  {name}: a run failed")
        else:
            print(f"  {name}: tracing overhead {100 * share:+.1f}% of pass_s; exact counts "
                  + ("repeat" if not drift else f"DIFFER in {', '.join(drift)}"))
    print("all output checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isfile(os.path.join(SRC, "endogeo", "cli.py")):
        print(f"error: no endogeo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
