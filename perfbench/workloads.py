"""The two benchmark workloads: inputs, one pass of CLI commands, and the
checks that every pass's outputs are correct.

Each workload is a closed loop with one client: a pass runs its commands
one after another, each starting when the previous one has returned, the
way a pipeline script drives this single-threaded tool.

The checks recompute what they can with the small numpy references below
(PFM reader/writer, TUM loader, Umeyama ATE, the radial-tangential lens
model) instead of calling back into endogeo, so a wrong result in a codec
or metric cannot also hide itself.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os

import numpy as np

# float32 storage tolerances for the consistency terms on exact simulated
# pairs: depth and flow are written as 32-bit floats (relative step 6e-8 on
# ~100 mm depths and ~640 px coordinates), and c_temp also samples the stored
# depth bilinearly between pixels of a curved surface.
C_FLOW_TOL_PX = 1e-6
C_TEMP_TOL = 1e-4
# drift correction must land on every anchor to within this (criterion 2)
ANCHOR_RESIDUAL_TOL = 1e-9


# -- numpy references -------------------------------------------------------


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        width, height = (int(v) for v in fh.readline().split())
        scale = float(fh.readline())
        channels = 3 if magic == b"PF" else 1
        data = np.frombuffer(fh.read(), dtype="<f4" if scale < 0 else ">f4")
    shape = (height, width, 3) if channels == 3 else (height, width)
    return np.flipud(data.reshape(shape)).astype(np.float64)


def write_pfm(path, values) -> None:
    data = np.asarray(values, dtype="<f4")
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n%d %d\n-1.0\n" % (width, height))
        fh.write(np.flipud(data).tobytes())


def load_tum(path) -> np.ndarray:
    """(N, 8) array of frame, tx, ty, tz, qx, qy, qz, qw."""
    return np.loadtxt(path, comments="#", ndmin=2)


def ate_sim3(pred_xyz: np.ndarray, gt_xyz: np.ndarray) -> float:
    """Position RMSE after the least-squares similarity alignment (Umeyama)."""
    mu_p, mu_g = pred_xyz.mean(axis=0), gt_xyz.mean(axis=0)
    xs, ys = pred_xyz - mu_p, gt_xyz - mu_g
    u, d, vt = np.linalg.svd(ys.T @ xs / len(xs))
    sign = 1.0 if np.linalg.det(u) * np.linalg.det(vt) >= 0 else -1.0
    rot = u @ np.diag([1.0, 1.0, sign]) @ vt
    scale = (d[0] + d[1] + sign * d[2]) / ((xs**2).sum() / len(xs))
    residual = scale * xs @ rot.T + mu_g - gt_xyz
    return float(np.sqrt((residual**2).sum(axis=1).mean()))


def distort(xn, yn, dist):
    k1, k2, p1, p2, k3 = dist
    r2 = xn * xn + yn * yn
    radial = 1.0 + k1 * r2 + k2 * r2**2 + k3 * r2**3
    xd = xn * radial + 2.0 * p1 * xn * yn + p2 * (r2 + 2.0 * xn * xn)
    yd = yn * radial + p1 * (r2 + 2.0 * yn * yn) + 2.0 * p2 * xn * yn
    return xd, yd


def _close(got, want, rel):
    return abs(got - want) <= rel * max(abs(want), 1e-12)


# -- workloads --------------------------------------------------------------


class Workload:
    """One pass is ``commands()``; ``check(reports)`` returns one list of
    failure messages per command (empty when its outputs are correct)."""

    name = ""
    setup_reps = 3
    frames_per_pass = 0   # dataset frames a pass processes
    pixels_per_pass = 0   # raster pixels a pass evaluates or renders

    def __init__(self, seed: int, data_dir: str, out_dir: str):
        self.seed = seed
        self.data = data_dir
        self.out = out_dir

    def setup(self, cli) -> None:
        """Make the inputs; ``cli(argv)`` runs one endogeo command."""

    def commands(self) -> list:
        raise NotImplementedError

    def check(self, reports) -> list:
        raise NotImplementedError


def _setup_failed(argv, code):
    return RuntimeError(f"setup command failed with exit code {code}: {argv}")


class RasterHires(Workload):
    name = "raster-hires"
    width, height = 640, 480
    n_depth = 16
    frames_per_pass = n_depth
    # two eval-depth runs over every map, eval-consistency over every pair,
    # disparity2depth over every map, and four maps from each of two rigs
    pixels_per_pass = (2 * n_depth + (n_depth - 1) + n_depth + 2 * 2) * width * height
    distortion = [-0.12, 0.03, 0.0005, -0.0004, 0.0]

    def setup(self, cli):
        d = self.data
        argv = [
            "simulate", "--out", d, "--seed", str(self.seed), "--n-frames", "64",
            "--stride", "16", "--scene", "sphere", "--width", str(self.width),
            "--height", str(self.height), "--depth-count", str(self.n_depth),
        ]
        code, _ = cli(argv)
        if code != 0:
            raise _setup_failed(argv, code)
        with open(os.path.join(d, "calib.json"), encoding="utf-8") as fh:
            calib = json.load(fh)
        self.bf = float(np.linalg.norm(calib["extrinsics"]["T"])) * calib["left"]["fx"]
        self.cam = calib["left"]
        for side in ("left", "right"):
            calib[side]["dist"] = list(self.distortion)
        with open(os.path.join(d, "calib_distorted.json"), "w", encoding="utf-8") as fh:
            json.dump(calib, fh, indent=2, sort_keys=True)

        # a smooth multiplicative error of up to 4 % stands in for a prediction
        rng = np.random.default_rng(self.seed)
        vv, uu = np.mgrid[0 : self.height, 0 : self.width]
        os.makedirs(self.pred_dir, exist_ok=True)
        os.makedirs(self.disp_dir, exist_ok=True)
        self.disparity = []
        for i in range(self.n_depth):
            depth = read_pfm(os.path.join(d, f"depth_{i:04d}.pfm"))
            fx, fy, phase = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0), rng.uniform(0, 2 * np.pi)
            field = 1.0 + 0.04 * np.sin(2 * np.pi * (fx * uu / self.width + fy * vv / self.height) + phase)
            write_pfm(os.path.join(self.pred_dir, f"depth_{i:04d}.pfm"), depth * field)
            disp = np.where(depth > 0, self.bf / np.where(depth > 0, depth, 1.0), 0.0)
            path = os.path.join(self.disp_dir, f"disp_{i:04d}.pfm")
            write_pfm(path, disp)
            self.disparity.append(read_pfm(path))

    @property
    def pred_dir(self):
        return self.data + "_pred"

    @property
    def disp_dir(self):
        return self.data + "_disp"

    def commands(self):
        d, o = self.data, self.out
        cmds = [
            ("eval-depth", ["eval-depth", "--pred", self.pred_dir, "--gt", d, "--out", f"{o}/eval_depth.json"]),
            ("eval-depth", ["eval-depth", "--pred", d, "--gt", d, "--out", f"{o}/eval_depth_same.json"]),
            ("eval-consistency", [
                "eval-consistency", "--depths", d, "--poses", f"{d}/gt.tum", "--flows", d,
                "--calib", f"{d}/calib.json", "--ref-depths", self.pred_dir,
                "--out", f"{o}/eval_consistency.json",
            ]),
        ]
        for i in range(self.n_depth):
            cmds.append(("disparity2depth", [
                "disparity2depth", "--calib", f"{d}/calib.json",
                "--input", f"{self.disp_dir}/disp_{i:04d}.pfm", "--out", f"{o}/d2d_{i:04d}.pfm",
            ]))
        for rig in ("calib", "calib_distorted"):
            cmds.append(("rectify-maps", [
                "rectify-maps", "--calib", f"{d}/{rig}.json", "--out-prefix", f"{o}/{rig}",
            ]))
        return cmds

    def check(self, reports):
        o = self.out
        out = []
        with open(f"{o}/eval_depth.json", encoding="utf-8") as fh:
            ev = json.load(fh)
        bad = []
        if ev["n_frames"] != self.n_depth:
            bad.append(f"n_frames {ev['n_frames']} != {self.n_depth}")
        # |pred/gt - 1| <= 4 % and the median rescale keep every ratio near 1
        if not 0 < ev["abs_rel"] < 0.1 or ev["delta_1_25"] != 1.0:
            bad.append(f"perturbed maps give abs_rel {ev['abs_rel']}, delta {ev['delta_1_25']}")
        out.append(bad)

        with open(f"{o}/eval_depth_same.json", encoding="utf-8") as fh:
            ev = json.load(fh)
        errors = [ev[k] for k in ("abs_rel", "sq_rel", "rmse", "rmse_log")]
        out.append([] if errors == [0.0] * 4 and ev["delta_1_25"] == 1.0
                   else [f"identical maps give errors {errors}, delta {ev['delta_1_25']}"])

        with open(f"{o}/eval_consistency.json", encoding="utf-8") as fh:
            ec = json.load(fh)
        bad = []
        if ec["n_pairs"] != self.n_depth - 1:
            bad.append(f"n_pairs {ec['n_pairs']} != {self.n_depth - 1}")
        for p in ec["pairs"]:
            if not (p["c_flow"] <= C_FLOW_TOL_PX and p["c_temp"] <= C_TEMP_TOL and p["c_prior"] > 0):
                bad.append(f"pair {p['i']}-{p['j']}: c_flow {p['c_flow']}, c_temp {p['c_temp']}, "
                           f"c_prior {p['c_prior']}")
        out.append(bad)

        for i, disp in enumerate(self.disparity):
            got = read_pfm(f"{o}/d2d_{i:04d}.pfm")
            valid = disp > 1e-3
            want = np.where(valid, self.bf / np.where(valid, disp, 1.0), 0.0).astype(np.float32)
            report = json.loads(reports[3 + i])
            bad = []
            if report["n_valid"] != int(valid.sum()):
                bad.append(f"map {i}: n_valid {report['n_valid']} != {int(valid.sum())}")
            if not np.allclose(got, want, rtol=1e-6, atol=0.0):
                bad.append(f"map {i}: depth differs from b*f/d by {np.abs(got - want).max()}")
            out.append(bad)

        k = self.cam
        vv, uu = np.mgrid[0 : k["height"], 0 : k["width"]].astype(np.float64)
        xn, yn = (uu - k["cx"]) / k["fx"], (vv - k["cy"]) / k["fy"]
        for rig, dist in (("calib", [0.0] * 5), ("calib_distorted", self.distortion)):
            # the simulated rig is rotation-free with its baseline along x, so
            # rectification is the identity and only the lens model remains
            xd, yd = distort(xn, yn, dist)
            want_x, want_y = k["fx"] * xd + k["cx"], k["fy"] * yd + k["cy"]
            bad = []
            for side in ("left", "right"):
                gx = read_pfm(f"{o}/{rig}_{side}_x.pfm")
                gy = read_pfm(f"{o}/{rig}_{side}_y.pfm")
                gap = max(np.abs(gx - want_x).max(), np.abs(gy - want_y).max())
                if not gap <= 1e-3:
                    bad.append(f"{rig} {side} map off by {gap} px")
            out.append(bad)
        return out


class PipelineHf(Workload):
    """simulate a heightfield dataset, then correct its drifted trajectory and
    evaluate the result, the way a pipeline script chains the three."""

    name = "pipeline-hf"
    setup_reps = 25  # set-up is only the import, ~0.05 s
    n_frames = 2000
    stride = 16
    width, height = 256, 192
    n_depth = 3
    frames_per_pass = n_frames
    pixels_per_pass = n_depth * width * height

    def setup(self, cli):
        self.manifest = None

    def commands(self):
        sim, o = f"{self.out}/sim", self.out
        return [
            ("simulate", [
                "simulate", "--out", sim, "--seed", str(self.seed),
                "--n-frames", str(self.n_frames), "--stride", str(self.stride),
                "--scene", "heightfield", "--width", str(self.width),
                "--height", str(self.height), "--depth-count", str(self.n_depth),
            ]),
            ("correct", [
                "correct", "--anchors", f"{sim}/anchors.tum", "--segments", f"{sim}/segment_*.tum",
                "--out", f"{o}/corrected.tum", "--report", f"{o}/correct.json",
            ]),
            ("eval-traj", [
                "eval-traj", "--pred", f"{o}/corrected.tum", "--gt", f"{sim}/gt.tum",
                "--out", f"{o}/eval_traj.json",
            ]),
        ]

    def check(self, reports):
        sim, o = f"{self.out}/sim", self.out
        return [self._check_simulate(sim), *self._check_trajectory(sim, o)]

    def _check_simulate(self, root):
        with open(f"{root}/manifest.json", "rb") as fh:
            blob = fh.read()
        bad = []
        if self.manifest is None:
            self.manifest = blob
        elif blob != self.manifest:
            bad.append("manifest.json differs from the first pass")
        for art in json.loads(blob)["artifacts"]:
            with open(f"{root}/{art['path']}", "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != art["sha256"]:
                    bad.append(f"{art['path']} does not match its manifest sha256")
        if len(load_tum(f"{root}/gt.tum")) != self.n_frames:
            bad.append("gt.tum does not hold every frame")
        for i in range(self.n_depth):
            depth = read_pfm(f"{root}/depth_{i:04d}.pfm")
            if not (np.isfinite(depth).all() and (depth > 0).mean() > 0.99):
                bad.append(f"depth_{i:04d}.pfm has holes in a heightfield that fills the view")
        return bad

    def _check_trajectory(self, sim, o):
        gt_xyz = load_tum(f"{sim}/gt.tum")[:, 1:4]
        ate_drifted = ate_sim3(load_tum(f"{sim}/drifted.tum")[:, 1:4], gt_xyz)
        with open(f"{sim}/anchors.tum", encoding="utf-8") as fh:
            anchor_lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        n_segments = len(glob.glob(f"{sim}/segment_*.tum"))

        with open(f"{o}/correct.json", encoding="utf-8") as fh:
            rep = json.load(fh)
        bad_correct = []
        for key in ("max_anchor_residual_rot_rad", "max_anchor_residual_trans_mm"):
            if not rep[key] <= ANCHOR_RESIDUAL_TOL:
                bad_correct.append(f"{key} = {rep[key]} > {ANCHOR_RESIDUAL_TOL}")
        if rep["n_segments"] != n_segments:
            bad_correct.append(f"n_segments {rep['n_segments']} != {n_segments}")
        with open(f"{o}/corrected.tum", encoding="utf-8") as fh:
            lines = {ln.split(" ", 1)[0]: ln for ln in fh.read().splitlines() if not ln.startswith("#")}
        missing = [a for a in anchor_lines if lines.get(a.split(" ", 1)[0]) != a]
        if missing:
            bad_correct.append(f"{len(missing)} anchor poses not passed through bit-exactly")

        with open(f"{o}/eval_traj.json", encoding="utf-8") as fh:
            ev = json.load(fh)
        bad_eval = []
        if ev["n_frames"] != self.n_frames:
            bad_eval.append(f"n_frames {ev['n_frames']} != {self.n_frames}")
        if not ev["ate_mm"] < ate_drifted:
            bad_eval.append(f"ATE(corrected) {ev['ate_mm']} >= ATE(drifted) {ate_drifted}")
        ate_ref = ate_sim3(load_tum(f"{o}/corrected.tum")[:, 1:4], gt_xyz)
        if not _close(ev["ate_mm"], ate_ref, 1e-9):
            bad_eval.append(f"ate_mm {ev['ate_mm']} differs from reference {ate_ref}")
        if not (math.isfinite(ev["rte_mm"]) and ev["rte_mm"] > 0):
            bad_eval.append(f"rte_mm {ev['rte_mm']} is not positive")
        return [bad_correct, bad_eval]


WORKLOADS = {w.name: w for w in (RasterHires, PipelineHf)}
