"""The one number rule: every number the Python API takes passes
``errors.integer`` or ``errors.real``, so a hostile scalar ends in a result or
a ValidationError, never in another exception; a string, None, a bool or a
non-finite float ends in a ValidationError; and a numpy or Fraction number
gives the same result as the equal Python number. Every bool it takes passes
``errors.boolean``, so only a bool, numpy's included, is one.

Each site gets one hostile value in one parameter, every other argument
valid. Sizes and counts stay small, so no accepted value allocates much.
"""

import math
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogeo.errors import ValidationError
from endogeo.geometry import CameraIntrinsics, Quaternion, SimilarityTransform, slerp, umeyama_align
from endogeo.losses import LossConfig, NormalizationSpec
from endogeo.metrics import DepthEvalConfig, resize_depth, rpe
from endogeo.rasters import DepthMap, DisparityMap
from endogeo.rng import SplitMix64
from endogeo.sim import DriftSpec, SceneSpec, gen_trajectory, simulate_dataset
from endogeo.stereo import MonoCalibration, depth_to_disparity, disparity_to_depth
from endogeo.trajectory import Trajectory

_LINE = gen_trajectory(20, "linear")
_MAP = np.arange(1.0, 25.0).reshape(4, 6)
_CAMERA = dict(fx=50.0, fy=50.0, cx=7.5, cy=5.5, width=16, height=12)


def _simulate(**counts):
    with tempfile.TemporaryDirectory() as out:
        return simulate_dataset(out, **{"n_frames": 6, "stride": 2, "depth_count": 2, "width": 16, "height": 12,
                                        **counts})


def _dist(k):
    return lambda v: MonoCalibration(CameraIntrinsics(**_CAMERA), tuple(v if i == k else 0.0 for i in range(5)))


# site -> a call with the hostile value in that one parameter
SITES = {
    "SplitMix64.seed": lambda v: SplitMix64(v),
    "SceneSpec.seed": lambda v: SceneSpec("heightfield", 100.0, v),
    "SceneSpec.extent": lambda v: SceneSpec("plane", v),
    "DriftSpec.seed": lambda v: DriftSpec(seed=v),
    "DriftSpec.sigma_rot": lambda v: DriftSpec(sigma_rot=v),
    "DriftSpec.sigma_trans": lambda v: DriftSpec(sigma_trans=v),
    "gen_trajectory.n_frames": lambda v: gen_trajectory(v),
    "gen_trajectory.radius-orbit": lambda v: gen_trajectory(5, radius=v),
    "gen_trajectory.radius-spline": lambda v: gen_trajectory(5, "spline", radius=v),
    "simulate_dataset.n_frames": lambda v: _simulate(n_frames=v),
    "simulate_dataset.stride": lambda v: _simulate(stride=v),
    "simulate_dataset.depth_count": lambda v: _simulate(depth_count=v),
    "rpe.window": lambda v: rpe(_LINE, _LINE, v),
    **{f"CameraIntrinsics.{name}": (lambda name: lambda v: CameraIntrinsics(**{**_CAMERA, name: v}))(name)
       for name in _CAMERA},
    "DepthEvalConfig.eval_width": lambda v: DepthEvalConfig(eval_width=v),
    "DepthEvalConfig.eval_height": lambda v: DepthEvalConfig(eval_height=v),
    "DepthEvalConfig.depth_min": lambda v: DepthEvalConfig(depth_min=v),
    "DepthEvalConfig.depth_max": lambda v: DepthEvalConfig(depth_max=v),
    "resize_depth.out_width": lambda v: resize_depth(DepthMap(_MAP), v, 3),
    "resize_depth.out_height": lambda v: resize_depth(DepthMap(_MAP), 5, v),
    "SimilarityTransform.scale": lambda v: SimilarityTransform(v, Quaternion.identity(), (1.0, 2.0, 3.0)),
    **{f"LossConfig.{name}": (lambda name: lambda v: LossConfig(**{name: v}))(name)
       for name in ("alpha", "lambda_consist", "w_flow", "w_temp", "w_prior", "w_si", "w_grad", "w_normal",
                    "uncertainty_constant")},
    "NormalizationSpec.s_hat": lambda v: NormalizationSpec(v, 1.0),
    "NormalizationSpec.s": lambda v: NormalizationSpec(1.0, v),
    **{f"MonoCalibration.dist[{k}]": _dist(k) for k in range(5)},
    "disparity_to_depth.baseline": lambda v: disparity_to_depth(DisparityMap(_MAP), v, 700.0),
    "disparity_to_depth.focal": lambda v: disparity_to_depth(DisparityMap(_MAP), 5.0, v),
    "depth_to_disparity.baseline": lambda v: depth_to_disparity(DepthMap(_MAP), v, 700.0),
    "depth_to_disparity.focal": lambda v: depth_to_disparity(DepthMap(_MAP), 5.0, v),
    "slerp.t": lambda v: slerp(Quaternion.identity(), Quaternion.from_axis_angle((0, 0, 1), 1.0), v),
    "Quaternion.from_axis_angle.angle": lambda v: Quaternion.from_axis_angle((0, 0, 1), v),
}

HOSTILE = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0]),
    st.integers(-3, 40).map(np.int64),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.floats(-1e3, 1e3).map(Fraction),
)


def _python_equal(value):
    """The Python number equal to a numpy or Fraction ``value`` (each Fraction
    here is a float's exact value)."""
    return int(value) if isinstance(value, np.integer) else float(value)


def _outcome(build, value):
    """The result of ``build(value)`` in a comparable form, or ValidationError.
    A repr shows numpy numbers as such, so it also checks that each stored
    number is a Python one."""
    try:
        result = build(value)
    except ValidationError:
        return ValidationError
    if isinstance(result, (DepthMap, DisparityMap)):
        return result.values.tobytes(), result.valid.tobytes()
    if isinstance(result, Trajectory):
        return result.frames.tobytes(), result.poses.quat.tobytes(), result.poses.trans.tobytes()
    if isinstance(result, SplitMix64):
        return [result.next_u64() for _ in range(3)]
    return repr(result)


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_hostile_number_gives_a_result_or_a_validation_error(site):
    @settings(max_examples=40, deadline=None)
    @given(HOSTILE)
    def check(value):
        outcome = _outcome(SITES[site], value)
        if value is None or isinstance(value, (str, bool, np.bool_)) or not math.isfinite(value):
            assert outcome is ValidationError
        elif isinstance(value, (np.number, Fraction)):
            assert outcome == _outcome(SITES[site], _python_equal(value))

    check()


_CLOUD = np.arange(12.0).reshape(4, 3) ** 2

# site -> a call with the value in that one bool parameter
BOOL_SITES = {
    "DepthEvalConfig.median_scaling": lambda v: DepthEvalConfig(median_scaling=v),
    "umeyama_align.with_scale": lambda v: umeyama_align(_CLOUD, 2 * _CLOUD, with_scale=v),
}


@pytest.mark.parametrize("site", sorted(BOOL_SITES))
def test_a_bool_parameter_takes_a_bool_and_nothing_else(site):
    build = BOOL_SITES[site]
    for value in ("false", 0, 1, None, 0.0):
        with pytest.raises(ValidationError, match="must be a boolean"):
            build(value)
    assert repr(build(np.bool_(False))) == repr(build(False)) != repr(build(True))
