"""Hierarchical drift correction on a synthetic orbit, end to end.

A long monocular trajectory accumulates per-frame noise. We rebuild it from
two ingredients: a sparse anchor trajectory (accurate long-range poses every
N frames) and dense local segments (accurate short-range relative motion,
cut from the drifted estimate), all three plain Trajectories. Each segment is rigidly aligned to its start
anchor, the leftover transform at its end anchor is measured, and that error
is spread over the segment by pose interpolation before stitching.

Run: python3 demos/01_drift_correction.py
"""

import numpy as np

from endogeo import (
    DriftSpec,
    ate,
    correct_long_trajectory,
    gen_trajectory,
    inject_drift,
    rpe,
    split_into_segments,
)

N_FRAMES = 200
STRIDE = 16
SEED = 7


def main():
    gt = gen_trajectory(N_FRAMES, path="orbit", seed=SEED)
    drifted = inject_drift(gt, DriftSpec(sigma_rot=2e-3, sigma_trans=0.05, seed=SEED))
    print(f"ground truth: {len(gt)} poses on an orbit arc")
    print(f"drifted copy: ATE {ate(drifted, gt):.4f} mm, RTE {rpe(drifted, gt)[0]:.4f} mm")

    # anchors come from the ground truth (standing in for a global model);
    # segments are cut from the drifted trajectory between consecutive anchors
    anchor_frames = list(range(0, N_FRAMES, STRIDE))
    if anchor_frames[-1] != N_FRAMES - 1:
        anchor_frames.append(N_FRAMES - 1)
    anchors = gt.restricted_to(anchor_frames)
    segments = split_into_segments(drifted, anchors)
    print(f"anchors every {STRIDE} frames: {len(anchors)} anchors, "
          f"{len(segments)} segments")

    corrected, report = correct_long_trajectory(anchors, segments)
    print(f"corrected:    ATE {ate(corrected, gt):.4f} mm, "
          f"RTE {rpe(corrected, gt)[0]:.4f} mm")

    drifts = [s.drift_trans_mm for s in report.segments]
    print(f"per-segment drift magnitude: mean {np.mean(drifts):.4f} mm, "
          f"max {np.max(drifts):.4f} mm")
    print(f"worst anchor residual after stitching: "
          f"{report.max_anchor_residual_trans_mm:.2e} mm "
          f"(anchors are reproduced exactly)")

    ratio = ate(corrected, gt) / ate(drifted, gt)
    print(f"ATE ratio corrected/drifted: {ratio:.3f}")


if __name__ == "__main__":
    main()
