import ast
import importlib
import importlib.util
import pathlib
import types

import endogeo

# The package's public names. ``__all__`` is derived from the imports, so
# this list is what catches a name added or dropped by accident.
PUBLIC_NAMES = {
    "CameraIntrinsics",
    "ConfidenceMap",
    "CorrectionReport",
    "DISPARITY_EPSILON",
    "DepthEvalConfig",
    "DepthMap",
    "DepthMetrics",
    "DisparityMap",
    "DriftSpec",
    "EndogeoError",
    "FlowField",
    "FormatError",
    "LossConfig",
    "MonoCalibration",
    "NormalizationSpec",
    "NumericError",
    "Pointmap",
    "Pose",
    "Quaternion",
    "RectifyMaps",
    "SceneSpec",
    "SegmentCorrection",
    "SimilarityTransform",
    "SplitMix64",
    "StereoCalibration",
    "Trajectory",
    "ValidationError",
    "__version__",
    "align_segment_start",
    "ate",
    "c_flow",
    "c_prior",
    "c_temp",
    "compose",
    "compute_drift_error",
    "compute_rectify_maps",
    "conf_loss",
    "consistency_total",
    "correct_long_trajectory",
    "default_intrinsics",
    "depth_metrics",
    "depth_to_disparity",
    "disparity_to_depth",
    "distort_pixels",
    "distribute_drift",
    "gen_trajectory",
    "induced_flow",
    "induced_reprojection",
    "inject_drift",
    "inverse",
    "load_calibration",
    "load_tum",
    "look_at",
    "parse_tum",
    "point_set_scale",
    "pose_distance",
    "pose_interp",
    "pose_loss",
    "project",
    "read_depth_pfm",
    "read_disparity_pfm",
    "read_flo",
    "read_pfm",
    "read_pointmap_pfm",
    "rectify_pixels",
    "relative_motion",
    "remap",
    "render_depth",
    "resize_depth",
    "rpe",
    "rte",
    "save_calibration",
    "save_tum",
    "serialize_tum",
    "simulate_dataset",
    "slerp",
    "split_into_segments",
    "total_loss",
    "umeyama_align",
    "undistort_pixels",
    "unproject",
    "write_depth_pfm",
    "write_disparity_pfm",
    "write_flo",
    "write_pfm",
    "write_pointmap_pfm",
}


def test_all_lists_exactly_the_public_names():
    assert sorted(endogeo.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves_to_a_non_module():
    for name in endogeo.__all__:
        assert not isinstance(getattr(endogeo, name), types.ModuleType), name


def _load_tracer():
    """perfbench/tracer.py, loaded by path: perfbench is a script folder, not a package."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_is_bound_where_it_wraps_it():
    # the tracer replaces each name in its owner's namespace, so a refactor
    # that moves or drops one breaks the traced benchmark runs
    tracer = _load_tracer()
    for owner, attr, *_ in tracer.SPANS + tracer.COUNTERS:
        module_name, _, cls = owner.partition(":")
        target = importlib.import_module(module_name)
        if cls:
            target = getattr(target, cls)
        assert attr in target.__dict__, f"{owner}.{attr}"


# the private names one module of the package takes from another, exactly
# (an entry no module needs any more fails too): (importer, sibling, name)
PRIVATE_IMPORTS = {
    ("sim", "geometry", "_rotate"),
    ("drift", "trajectory", "_check_anchors"),
}


def test_no_module_takes_a_private_name_from_a_sibling_beyond_the_known_ones():
    src = pathlib.Path(endogeo.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = {}  # name bound -> sibling module, by "from . import x [as y]"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
                if node.attr.startswith("_"):
                    found.add((path.stem, siblings[node.value.id], node.attr))
    assert found == PRIVATE_IMPORTS, (sorted(found - PRIVATE_IMPORTS), sorted(PRIVATE_IMPORTS - found))
