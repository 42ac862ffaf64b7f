"""The one number rule: every number the Python API takes passes
``errors.integer`` or ``errors.real`` (a frame index ``errors.integer`` below
2**63), so a hostile scalar ends in a result or a ValidationError, never in
another exception; a string, None, a bool or a non-finite float ends in a
ValidationError; and a numpy or Fraction number gives the same result as the
equal Python number. Every bool it takes passes ``errors.boolean``, so only a
bool, numpy's included, is one. Every array it takes passes
``geometry.floats``, so a hostile array ends in a result or a ValidationError;
a bool, string, object, complex or ragged one in a ValidationError; and a
numeric array of any dtype gives the same result as its float64 copy. Finite
arrays whose arithmetic overflows follow the one overflow rule,
``errors.finite_result``: they give a finite result or a ValidationError, and
never a numpy RuntimeWarning (every warning is an error in these tests).

Each site gets one hostile value in one parameter, every other argument
valid. Sizes and counts stay small, so no accepted value allocates much.
"""

import dataclasses
import math
import pathlib
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogeo.errors import FormatError, ValidationError
from endogeo.fileio import write_pfm
from endogeo.geometry import (
    CameraIntrinsics,
    Pose,
    PoseBatch,
    Quaternion,
    SimilarityTransform,
    compose,
    inverse,
    pose_distance,
    project,
    slerp,
    umeyama_align,
)
from endogeo.losses import LossConfig, NormalizationSpec, pose_loss
from endogeo.metrics import DepthEvalConfig, resize_depth, rpe
from endogeo.rasters import ConfidenceMap, DepthMap, DisparityMap, FlowField, Pointmap
from endogeo.rng import SplitMix64
from endogeo.sim import DriftSpec, SceneSpec, gen_trajectory, look_at, simulate_dataset
from endogeo.stereo import MonoCalibration, depth_to_disparity, disparity_to_depth, distort_pixels, remap, undistort_pixels
from endogeo.trajectory import Trajectory

_LINE = gen_trajectory(20, "linear")
_ONE_POSE = PoseBatch.stack([Pose(Quaternion.identity())])
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
       for name in ("alpha", "lambda_consist", "w_flow", "w_temp", "w_prior", "w_si", "w_grad", "w_normal")},
    "NormalizationSpec.s_hat": lambda v: NormalizationSpec(v, 1.0),
    "NormalizationSpec.s": lambda v: NormalizationSpec(1.0, v),
    **{f"MonoCalibration.dist[{k}]": _dist(k) for k in range(5)},
    "disparity_to_depth.baseline": lambda v: disparity_to_depth(DisparityMap(_MAP), v, 700.0),
    "disparity_to_depth.focal": lambda v: disparity_to_depth(DisparityMap(_MAP), 5.0, v),
    "depth_to_disparity.baseline": lambda v: depth_to_disparity(DepthMap(_MAP), v, 700.0),
    "depth_to_disparity.focal": lambda v: depth_to_disparity(DepthMap(_MAP), 5.0, v),
    "slerp.t": lambda v: slerp(Quaternion.identity(), Quaternion.from_axis_angle((0, 0, 1), 1.0), v),
    "Quaternion.from_axis_angle.angle": lambda v: Quaternion.from_axis_angle((0, 0, 1), v),
    "Trajectory.frames": lambda v: Trajectory([v], _ONE_POSE),
    "Trajectory.pose_at": lambda v: _LINE.pose_at(v),
    "Trajectory.has_frame": lambda v: _LINE.has_frame(v),
    "Trajectory.restricted_to": lambda v: _LINE.restricted_to([v]),
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


_K = CameraIntrinsics(**_CAMERA)
_LENS = MonoCalibration(_K, (0.01, 0.0, 0.0, 0.0, 0.0))
_TURN = Quaternion.from_axis_angle((0.0, 0.0, 1.0), 0.5)
_IMAGE = np.arange(12.0).reshape(3, 4)
_MAP_X = np.array([[0.5, 1.5], [2.25, 10.0]])
_MAP_Y = np.array([[0.0, 1.75], [2.0, -1.0]])


def _quaternion(a):
    """Quaternion(*a) for a draw of components; a 0-d draw is w alone."""
    return Quaternion(*a) if isinstance(a, list) or np.ndim(a) else Quaternion(a, 0.0, 0.0, 0.0)


def _pfm_bytes(a):
    with tempfile.TemporaryDirectory() as out:
        path = pathlib.Path(out) / "a.pfm"
        write_pfm(path, a)
        return path.read_bytes()


# site -> (the shape of a valid array there, a call with the array in that
# one parameter)
ARRAY_SITES = {
    "DepthMap.values": ((3, 4), DepthMap),
    "DisparityMap.values": ((3, 4), DisparityMap),
    "FlowField.vectors": ((3, 4, 2), FlowField),
    "Pointmap.points": ((3, 4, 3), Pointmap),
    "ConfidenceMap.values": ((3, 4), ConfidenceMap),
    "PoseBatch.quat": ((2, 4), lambda a: PoseBatch(a, np.zeros((2, 3)))),
    "PoseBatch.trans": ((2, 3), lambda a: PoseBatch(np.tile(_TURN.wxyz, (2, 1)), a)),
    "Quaternion": ((4,), _quaternion),
    "Quaternion.rotate": ((2, 3), _TURN.rotate),
    "Pose.translation": ((3,), lambda a: Pose(_TURN, a)),
    "SimilarityTransform.apply": ((2, 3), SimilarityTransform(2.0, _TURN, (1.0, 2.0, 3.0)).apply),
    "Quaternion.from_axis_angle.axis": ((3,), lambda a: Quaternion.from_axis_angle(a, 0.5)),
    "Quaternion.from_rotation_matrix": ((3, 3), Quaternion.from_rotation_matrix),
    "project": ((2, 3), lambda a: project(a, _K)),
    "umeyama_align.source": ((4, 3), lambda a: umeyama_align(a, _CLOUD)),
    "umeyama_align.target": ((4, 3), lambda a: umeyama_align(_CLOUD, a)),
    "look_at.position": ((3,), lambda a: look_at(a, (0.0, 0.0, 100.0))),
    "look_at.target": ((3,), lambda a: look_at((1.0, 2.0, -3.0), a)),
    "look_at.up": ((3,), lambda a: look_at((1.0, 2.0, -3.0), (0.0, 0.0, 100.0), a)),
    "MonoCalibration.dist": ((5,), lambda a: MonoCalibration(_K, a)),
    "undistort_pixels": ((2, 2), lambda a: undistort_pixels(_LENS, a)),
    "distort_pixels": ((2, 2), lambda a: distort_pixels(_LENS, a)),
    "remap.image": ((3, 4), lambda a: remap(a, _MAP_X, _MAP_Y)),
    "remap.map_x": ((2, 2), lambda a: remap(_IMAGE, a, _MAP_Y)),
    "remap.map_y": ((2, 2), lambda a: remap(_IMAGE, _MAP_X, a)),
    "write_pfm.array": ((3, 4), _pfm_bytes),
}

NUMERIC_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
                  np.float16, np.float32, np.float64, np.longdouble)


def _nest(flat, shape):
    """The Python list of ``shape`` holding ``flat`` row-major."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nest(flat[k * step:(k + 1) * step], shape[1:]) for k in range(shape[0])]


KINDS = ("numeric", "nonfinite", "huge", "list", "bool", "str", "object", "complex", "ragged", "0-d", "empty")


@st.composite
def hostile_arrays(draw, shape, kinds=KINDS):
    """``(kind, value)`` for a site whose valid arrays have ``shape``: a numeric
    array of any int, uint or float dtype, float64 with NaN or ±inf entries,
    float64 with finite entries of magnitude 1e150 to 1.7e308 and random
    signs, some of them ±1e-300 instead (huge), a nested list of Python
    numbers, or, as an array or a nested list, all bools, all strings,
    numbers with one string entry (object), all complex, or a ragged nested
    list; or a 0-d array or bare number; or a numeric array of ``shape``
    with one axis 0. Numbers other than the huge ones are
    small multiples of 1/4, exact in every dtype."""
    size = math.prod(shape)
    kind = draw(st.sampled_from(kinds))
    dtype = draw(st.sampled_from(NUMERIC_DTYPES))
    low = 0 if np.dtype(dtype).kind == "u" else -100
    ints = draw(st.lists(st.integers(low, 100), min_size=size, max_size=size))
    numbers = [k / 4 for k in ints] if np.dtype(dtype).kind == "f" else ints
    as_array = draw(st.booleans())
    if kind == "numeric":
        return kind, np.array(numbers, dtype=dtype).reshape(shape)
    if kind == "nonfinite":
        values = np.array(numbers, dtype=np.float64)
        spots = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size))
        values[spots] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return kind, values.reshape(shape)
    if kind == "huge":
        magnitudes = draw(st.lists(st.floats(1e150, 1.7e308), min_size=size, max_size=size))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size))
        values = np.array(magnitudes) * signs
        spots = draw(st.lists(st.integers(0, size - 1), max_size=size))
        values[spots] = draw(st.sampled_from([1e-300, -1e-300]))
        return kind, values.reshape(shape)
    if kind == "list":
        return kind, _nest([float(v) for v in numbers] if draw(st.booleans()) else ints, shape)
    if kind == "0-d":
        return kind, np.array(numbers[0], dtype=dtype) if as_array else float(numbers[0])
    if kind == "empty":
        axis = draw(st.integers(0, len(shape) - 1))
        return kind, np.zeros(shape[:axis] + (0,) + shape[axis + 1:], dtype=dtype)
    spot = draw(st.integers(0, size - 1))
    if kind == "bool":
        entries = [v > 0 for v in ints]
    elif kind == "str":
        entries = [str(v) for v in numbers]
    elif kind == "object":
        entries = [*numbers[:spot], "a", *numbers[spot + 1:]]
    elif kind == "complex":
        entries = [complex(v) for v in numbers]
    else:  # ragged: one innermost row one entry longer
        entries = [*numbers[:spot], [numbers[spot], 1.0], *numbers[spot + 1:]]
    nest = _nest(entries, shape)
    if not as_array or kind == "ragged":  # a ragged numpy array is an object one
        return kind, nest
    return kind, np.array(nest, dtype=object if kind == "object" else None)


def _comparable(result):
    """``result`` in a form that compares by value and type, bit for bit."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(_comparable(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, PoseBatch):
        return _comparable(result.quat), _comparable(result.trans)
    return repr(result)


def _finite(result) -> bool:
    """Every float in ``result`` is finite (a PFM file's bytes are taken as
    they are: the writer refuses values beyond float32)."""
    if isinstance(result, np.ndarray):
        return bool(np.isfinite(result).all()) if result.dtype.kind == "f" else True
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, PoseBatch):
        return _finite(result.quat) and _finite(result.trans)
    return math.isfinite(result) if isinstance(result, float) else True


def _array_outcome(build, value):
    try:
        return _comparable(build(value))
    except (ValidationError, FormatError) as exc:
        return type(exc)


# the sites whose call spreads the array into scalar arguments, so that an
# empty array is a call with too few of them
SPREAD_SITES = {"Quaternion"}


@pytest.mark.parametrize("site", sorted(ARRAY_SITES))
def test_a_hostile_array_gives_a_result_or_a_validation_error(site):
    shape, build = ARRAY_SITES[site]

    @settings(max_examples=60, deadline=None)
    @given(hostile_arrays(shape, [k for k in KINDS if not (k == "empty" and site in SPREAD_SITES)]))
    def check(draw):
        kind, value = draw
        outcome = _array_outcome(build, value)
        if kind in ("bool", "str", "object", "complex", "ragged"):
            assert outcome is ValidationError
        else:
            assert outcome is not FormatError
        if kind == "numeric":
            assert outcome == _array_outcome(build, value.astype(np.float64))
        elif kind == "list":
            assert outcome == _array_outcome(build, np.array(value, dtype=np.float64))
        elif kind == "huge":
            assert outcome is ValidationError or _finite(build(value))

    check()


# the holes the array rule, the overflow rule and the non-empty rule close:
# each of these built, or raised numpy's ValueError or an overflow
# RuntimeWarning, before every array went through them
KNOWN_HOLES = {
    "DepthMap of strings": lambda: DepthMap([["1", "2"], ["3", "4"]]),
    "DepthMap of bools": lambda: DepthMap(np.ones((2, 2), dtype=bool)),
    "PoseBatch with a bool": lambda: PoseBatch([[True, 0, 0, 0]], [[0, 0, 0]]),
    "PoseBatch with a string": lambda: PoseBatch([[1, 0, 0, 0]], [["a", "b", "c"]]),
    "Quaternion of a string": lambda: Quaternion("1", 0, 0, 0),
    "Quaternion of bools": lambda: Quaternion(True, False, 0, 0),
    "FlowField with a string": lambda: FlowField(np.array([[[1.0, "a"]]], dtype=object)),
    "ragged Pointmap": lambda: Pointmap([[[1.0, 2.0, 3.0], [1.0, 2.0]]]),
    "DepthMap of arrays numpy cannot stack": lambda: DepthMap([np.zeros((2, 2)), np.zeros((2, 3))]),
    "umeyama_align of strings": lambda: umeyama_align(_CLOUD.astype(str), _CLOUD),
    "remap of strings": lambda: remap(_IMAGE.astype(str), _MAP_X, _MAP_Y),
    "project of strings": lambda: project(np.array(["1", "2", "3"]), _K),
    "project overflowing": lambda: project([1e308, 0.0, 1e-300], _K),
    "umeyama_align of points at 1e308": lambda: umeyama_align(np.array([[1e308, 0, 0], [-1e308, 0, 0]]), _CLOUD[:2]),
    "Quaternion.rotate overflowing": lambda: Quaternion(0, 0, 0, 1).rotate([1.5e308, 0, 0]),
    "SimilarityTransform.apply overflowing": lambda: SimilarityTransform(2.0, Quaternion.identity(), (0, 0, 0)).apply(
        [1e308, 0, 0]),
    "distort_pixels overflowing": lambda: distort_pixels(_LENS, [[1e200, 0]]),
    "undistort_pixels overflowing": lambda: undistort_pixels(_LENS, [[1e200, 0]]),
    "PoseBatch of a huge quaternion": lambda: PoseBatch([[1e200, 1e200, 0, 0]], [[0, 0, 0]]),
    "look_at with a huge up vector": lambda: look_at((1, 2, -3), (0, 0, 100), (1e154, 1e154, 0)),
    "disparity_to_depth overflowing": lambda: disparity_to_depth(DisparityMap([[2e-3, 1.0]]), 1e153, 1e153),
    "DepthMap with no rows": lambda: DepthMap(np.zeros((0, 5))),
    "write_pfm of an array with no columns": lambda: _pfm_bytes(np.zeros((5, 0))),
    "compose of batches overflowing": lambda: compose(PoseBatch([[1, 0, 0, 0]], [[1e308, 0, 0]]),
                                                      PoseBatch([[0, 0, 0, 1]], [[1e308, 0, 0]])),
    "inverse of a batch overflowing": lambda: inverse(PoseBatch([[0, 0, 0, 1]], [[1.5e308, 0, 0]])),
    "pose_distance of batches overflowing": lambda: pose_distance(PoseBatch([[1, 0, 0, 0]], [[1e308, 0, 0]]),
                                                                  PoseBatch([[1, 0, 0, 0]], [[-1e308, 0, 0]])),
}


@pytest.mark.parametrize("case", sorted(KNOWN_HOLES))
def test_a_known_array_hole_is_a_validation_error(case):
    with pytest.raises(ValidationError):
        KNOWN_HOLES[case]()


# the holes the frame rule and the PoseBatch checks close: each of these built
# a Trajectory that failed later, read a float as a frame, or raised TypeError
# or AttributeError, before
SEQUENCE_HOLES = {
    "Trajectory of a list of poses": lambda: Trajectory([0], [Pose(Quaternion.identity())]),
    "Trajectory of float frames": lambda: Trajectory([0.0, 3.0], PoseBatch.stack([Pose(Quaternion.identity())] * 2)),
    "pose_at(None)": lambda: _LINE.pose_at(None),
    "pose_loss of strings": lambda: pose_loss(["x"], ["y"], NormalizationSpec(1.0, 1.0)),
}


@pytest.mark.parametrize("case", sorted(SEQUENCE_HOLES))
def test_a_known_sequence_hole_is_a_validation_error(case):
    with pytest.raises(ValidationError):
        SEQUENCE_HOLES[case]()
