import ast
import importlib
import importlib.util
import pathlib
import re
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
    "PoseBatch",
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
    "rectify_pixels",
    "relative_motion",
    "remap",
    "render_depth",
    "resize_depth",
    "rpe",
    "save_calibration",
    "save_tum",
    "serialize_tum",
    "simulate_dataset",
    "slerp",
    "split_into_segments",
    "total_loss",
    "umeyama_align",
    "undistort_pixels",
    "write_depth_pfm",
    "write_flo",
    "write_pfm",
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


# the public names that no code in the package, the demos or the benchmark
# uses, exactly (a listed name that gains a consumer fails too), with the
# reason each stays
UNCONSUMED = {
    "depth_to_disparity": "ROADMAP item 9: simulate writes stereo disparities through it",
}


def test_every_public_name_has_a_consumer():
    # a use is code that loads the name, bare or as an attribute; so its
    # definition, the __init__ re-export and a docstring mention are none
    root = pathlib.Path(__file__).parents[1]
    paths = [p for p in sorted(pathlib.Path(endogeo.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unconsumed = set(endogeo.__all__) - used
    assert unconsumed == set(UNCONSUMED), (sorted(unconsumed - set(UNCONSUMED)), sorted(set(UNCONSUMED) - unconsumed))


# the private names one module of the package takes from another, exactly
# (an entry no module needs any more fails too): (importer, sibling, name)
PRIVATE_IMPORTS = {
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


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; a name only a docstring mentions is unused
    src = pathlib.Path(endogeo.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused, unused


_DOC_REFERENCE = re.compile(r":(?:func|meth|class):`~?([\w.]+)`")


def _reference_resolves(module, ref: str) -> bool:
    """``ref`` names a global of ``module`` or an ``endogeo.`` path, either
    followed by attributes, or an attribute of a class defined in ``module``."""
    head, *rest = ref.split(".")
    if head == "endogeo":
        target = endogeo
    elif head in vars(module):
        target = vars(module)[head]
    else:
        return not rest and any(
            isinstance(c, type) and c.__module__ == module.__name__ and hasattr(c, head)
            for c in vars(module).values()
        )
    for name in rest:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def test_every_docstring_reference_resolves():
    # a rename or a deletion must take the docs that name it along
    src = pathlib.Path(endogeo.__file__).parent
    unresolved, count = [], 0
    for path in sorted(src.glob("*.py")):
        module = endogeo if path.stem == "__init__" else importlib.import_module(f"endogeo.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for ref in _DOC_REFERENCE.findall(ast.get_docstring(node) or ""):
                    count += 1
                    if not _reference_resolves(module, ref):
                        unresolved.append(f"{path.name}: {ref}")
    assert count > 0
    assert not unresolved, unresolved


# the numpy float conversions in the package that read no argument of the
# public API, exactly (a new one fails, and so does an entry no code makes any
# more), with the reason each stays: every array the Python API takes is read
# by geometry.floats instead. Key: (module.function, converted expression).
INTERNAL_CONVERSIONS = {
    ("geometry.floats", "[number(v, f'{what} entry') for v in entries.flat]"): "the array rule itself",
    ("geometry._map_floats", "out"): "the list of floats its kernel just returned",
    ("stereo.undistort_normalized", "xd"): "undistort_pixels's x plane, from an array the rule read",
    ("stereo.undistort_normalized", "yd"): "undistort_pixels's y plane, from an array the rule read",
    ("trajectory.Trajectory._rows", "frames"): "frame numbers to look up, compared with int64 frames only",
    ("trajectory.parse_tum", "rows"): "the table of floats parsed from TUM text, checked line by line",
}


def _float_conversions(tree, module):
    """(module.function, source of the converted expression) of each
    ``np.asarray(...)`` and each ``np.array(..., dtype=np.float64)`` in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and ast.unparse(child.func.value) == "np":
                dtypes = [ast.unparse(k.value) for k in child.keywords if k.arg == "dtype"] + [ast.unparse(a) for a in child.args[1:2]]
                if child.func.attr == "asarray" or (child.func.attr == "array" and "np.float64" in dtypes):
                    found.append((".".join([module] + scope), ast.unparse(child.args[0])))
            visit(child, inner)

    visit(tree, [])
    return found


def test_every_float_conversion_is_the_array_rule_or_a_known_internal_one():
    src = pathlib.Path(endogeo.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        found += _float_conversions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert len(found) == len(set(found)), sorted(found)
    assert set(found) == set(INTERNAL_CONVERSIONS), (
        sorted(set(found) - set(INTERNAL_CONVERSIONS)),
        sorted(set(INTERNAL_CONVERSIONS) - set(found)),
    )
