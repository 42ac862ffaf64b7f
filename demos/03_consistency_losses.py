"""The hybrid objective, term by term, on exact synthetic inputs.

Supervised terms (confidence-weighted pointmap distance, quaternion pose
loss) compare predictions against labels. Self-supervised consistency terms
need no labels: flow consistency checks that depth + relative pose explain
the observed optical flow, temporal consistency checks that two depth maps
agree where they overlap, and the prior term compares against a reference
depth in a scale-invariant way. With oracle-rendered inputs every
consistency term vanishes; each controlled corruption lights up exactly the
terms that should notice it.

Run: python3 demos/03_consistency_losses.py
"""

import numpy as np

from endogeo import (
    LossConfig,
    SceneSpec,
    c_flow,
    c_prior,
    c_temp,
    conf_loss,
    consistency_total,
    default_intrinsics,
    gen_trajectory,
    induced_flow,
    relative_motion,
    render_depth,
    total_loss,
)
from endogeo.losses import NormalizationSpec, pose_loss
from endogeo.rasters import ConfidenceMap, DepthMap, Pointmap


def main():
    cfg = LossConfig()
    scene = SceneSpec(kind="heightfield", extent=100.0, seed=4)
    intr = default_intrinsics(width=48, height=36)
    traj = gen_trajectory(4, path="orbit", seed=4)
    pose_i, pose_j = traj.pose_at(0), traj.pose_at(1)

    depth_i = render_depth(scene, pose_i, intr)
    depth_j = render_depth(scene, pose_j, intr)
    flow = induced_flow(depth_i, pose_i, pose_j, intr)
    motion = relative_motion(pose_i, pose_j)

    print("exact rendered inputs:")
    v_flow, _, _ = c_flow(depth_i, intr, motion, flow)
    v_temp, _, _ = c_temp(depth_i, depth_j, intr, motion, flow)
    v_prior, _ = c_prior(depth_i, depth_i, intr, cfg)
    print(f"  c_flow  = {v_flow:.2e}   (reprojection explains the flow)")
    print(f"  c_temp  = {v_temp:.2e}   (depth maps agree through the motion)")
    print(f"  c_prior = {v_prior:.2e}   (identical maps)")

    print("controlled corruptions:")
    v, _, _ = c_temp(
        depth_i, DepthMap(2.0 * depth_j.values, depth_j.valid), intr, motion, flow
    )
    print(f"  doubled target depth   -> c_temp = {v:.3f} (ratio error |2 - 1|)")
    bad_flow = flow.vectors.copy()
    bad_flow[..., 0] += 0.5
    from endogeo.rasters import FlowField

    v, _, _ = c_flow(depth_i, intr, motion, FlowField(bad_flow, flow.valid))
    print(f"  flow shifted 0.5 px    -> c_flow = {v:.3f} (mean L1 in px)")
    noisy = DepthMap(
        depth_i.values * np.exp(np.random.default_rng(0).normal(0, 0.05, depth_i.values.shape)),
        depth_i.valid,
    )
    v, parts = c_prior(noisy, depth_i, intr, cfg)
    print(f"  5% log-noise vs ref    -> c_prior = {v:.4f} "
          f"(si {parts['c_si']:.4f}, grad {parts['c_grad']:.4f}, "
          f"normal {parts['c_normal']:.4f})")
    v, _ = c_prior(DepthMap(3.0 * depth_i.values, depth_i.valid), depth_i, intr, cfg)
    print(f"  3x global scale vs ref -> c_prior = {v:.2e} (scale invariant)")

    print("supervised terms and the total objective:")
    rng = np.random.default_rng(1)
    ref_pts = rng.uniform(0.5, 2.0, size=(36, 48, 3))
    pred_pts = ref_pts * 1.7  # a uniform scale: normalized residual is zero
    conf = ConfidenceMap(np.full((36, 48), cfg.alpha))
    v_conf, _, _ = conf_loss(Pointmap(pred_pts), Pointmap(ref_pts), conf, cfg)
    print(f"  conf_loss, scaled pointmap, c = alpha: {v_conf:.4f} "
          f"(pure confidence regularizer)")
    v_pose = pose_loss(traj.poses, traj.poses, NormalizationSpec(1.0, 1.0))
    print(f"  pose_loss on identical trajectories:   {v_pose:.4f}")
    consistency, weighted = consistency_total(v_flow, v_temp, v_prior, cfg)
    print(f"  consistency composite: {consistency:.2e} "
          f"(weighted {weighted})")
    print(f"  total = (conf + pose) + lambda * consistency = "
          f"{total_loss(v_conf, v_pose, consistency, cfg):.4f}")


if __name__ == "__main__":
    main()
