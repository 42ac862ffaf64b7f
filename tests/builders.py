"""Trajectories built for the tests through the one constructor,
``Trajectory(frames, poses)``, from Poses."""

from endogeo.geometry import Pose, PoseBatch, Quaternion
from endogeo.trajectory import Trajectory


def trajectory(frames, poses) -> Trajectory:
    """The Pose ``poses[i]`` at ``frames[i]``."""
    return Trajectory(frames, PoseBatch.stack(poses))


def still(frames) -> Trajectory:
    """The identity pose at each of ``frames``."""
    frames = list(frames)
    return trajectory(frames, [Pose.identity()] * len(frames))


def line(n, step=1.0) -> Trajectory:
    """Frames 0 .. n - 1 with no rotation, frame k at (k * step, 0, 0)."""
    return trajectory(range(n), [Pose(Quaternion.identity(), (k * step, 0.0, 0.0)) for k in range(n)])


def pairs(traj) -> list:
    """The (frame, Pose) of each entry of ``traj``, in order."""
    return [(frame, traj.poses[i]) for i, frame in enumerate(traj.frames.tolist())]
