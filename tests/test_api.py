import ast
import importlib
import importlib.util
import inspect
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


# what no code in the package, the demos or the benchmark uses, exactly (an
# entry that gains a consumer fails too), with the reason each stays: public
# names, public methods of the exported classes as "Class.method", and
# keyword options as "callee.parameter"
UNCONSUMED = {
    "depth_to_disparity": "ROADMAP item 9: simulate writes stereo disparities through it",
    "look_at.up": "cameras that look along a surface, as test_sim's grazing heightfield views and "
    "ROADMAP item 6's grazing-view strategy build them, need an up other than +y",
}


def _consumer_trees():
    root = pathlib.Path(__file__).parents[1]
    paths = [p for p in sorted(pathlib.Path(endogeo.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _chain_root(node):
    """The node under the attribute chain ``node``: ``np`` in ``np.linalg.norm``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _uses(trees):
    """``(names, attributes, calls)`` that the code of ``trees`` loads: bare
    names, attribute names, and for each callee name the calls to it. An
    attribute chain rooted at a module that ``import`` binds, other than
    endogeo, as ``np.linalg.norm``, uses no name of the package."""
    names, attributes, calls = set(), set(), {}
    for tree in trees:
        modules = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.partition(".")[0] != "endogeo"
        }

        def foreign(node):
            root = _chain_root(node)
            return isinstance(root, ast.Name) and root.id in modules

        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and not foreign(node):
                attributes.add(node.attr)
            elif isinstance(node, ast.Call) and not foreign(node.func):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return names, attributes, calls


def _exported_classes():
    return [obj for obj in (getattr(endogeo, name) for name in endogeo.__all__) if isinstance(obj, type)]


def _public_methods():
    """``{"Class.name": member}`` of each public function, property,
    staticmethod and classmethod in the body of an exported class."""
    return {
        f"{cls.__name__}.{name}": member
        for cls in _exported_classes()
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, (types.FunctionType, property, staticmethod, classmethod))
    }


def _options():
    """``{"callee.parameter": (callee, parameter, position)}`` of each
    parameter with a default of an exported function or of a public method
    other than a property; ``position`` is the count of positional arguments
    a call must give to pass it, None for a keyword-only one."""
    # (key, function, leading parameters that no call writes: self or cls)
    targets = [(name, getattr(endogeo, name), 0) for name in endogeo.__all__
               if isinstance(getattr(endogeo, name), types.FunctionType)]
    targets += [(key, getattr(member, "__func__", member), 0 if isinstance(member, staticmethod) else 1)
                for key, member in _public_methods().items() if not isinstance(member, property)]
    options = {}
    for key, function, bound in targets:
        params = list(inspect.signature(function).parameters.values())[bound:]
        for position, param in enumerate(params, 1):
            if param.default is not param.empty:
                keyword_only = param.kind is param.KEYWORD_ONLY
                options[f"{key}.{param.name}"] = (key.rpartition(".")[2], param.name, None if keyword_only else position)
    return options


def _passes(call, parameter, position) -> bool:
    """``call`` gives ``parameter`` by keyword or by ``position``, or may give
    it through a ``*`` or ``**`` splat."""
    keywords = {k.arg for k in call.keywords}
    splat = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
    return parameter in keywords or splat or (position is not None and len(call.args) >= position)


def _allowed(candidates):
    """The keys of UNCONSUMED among ``candidates``."""
    return {key for key in UNCONSUMED if key in candidates}


def test_every_public_name_has_a_consumer():
    # a use is code that loads the name, bare or as an attribute; so its
    # definition, the __init__ re-export and a docstring mention are none
    names, attributes, _ = _uses(_consumer_trees())
    unconsumed = set(endogeo.__all__) - names - attributes
    expected = _allowed(endogeo.__all__)
    assert unconsumed == expected, (sorted(unconsumed - expected), sorted(expected - unconsumed))


def test_every_public_method_has_a_consumer():
    # a use is an attribute load of the method's name. The check matches by
    # name alone, so a method that shares its name with a used one, such as a
    # Pose.identity beside Quaternion.identity, passes unused: delete such a
    # method by hand
    _, attributes, _ = _uses(_consumer_trees())
    methods = _public_methods()
    unconsumed = {key for key in methods if key.rpartition(".")[2] not in attributes}
    expected = _allowed(methods)
    assert unconsumed == expected, (sorted(unconsumed - expected), sorted(expected - unconsumed))


def test_every_keyword_option_is_passed():
    # an option is passed by a call whose callee has its name (a function or a
    # method of any class, by name alone) and that gives it by keyword, by
    # position, or through a * or ** splat
    _, _, calls = _uses(_consumer_trees())
    options = _options()
    unconsumed = {
        key
        for key, (callee, parameter, position) in options.items()
        if not any(_passes(call, parameter, position) for call in calls.get(callee, []))
    }
    expected = _allowed(options)
    assert unconsumed == expected, (sorted(unconsumed - expected), sorted(expected - unconsumed))


def test_every_allowlisted_entry_names_a_public_name_method_or_option():
    known = set(endogeo.__all__) | _public_methods().keys() | _options().keys()
    assert set(UNCONSUMED) <= known, sorted(set(UNCONSUMED) - known)


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


def _scoped_calls(tree, module):
    """(module.function, call) of each call in ``tree``; the function is the
    chain of defs and classes the call sits in, decorators included."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + [child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call):
                found.append((".".join([module] + scope), child))
            visit(child, inner)

    visit(tree, [])
    return found


def _package_calls():
    src = pathlib.Path(endogeo.__file__).parent
    return [found for path in sorted(src.glob("*.py"))
            for found in _scoped_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def _float_conversions(calls):
    """(module.function, source of the converted expression) of each
    ``np.asarray(...)`` and each ``np.array(..., dtype=np.float64)`` in ``calls``."""
    found = []
    for scope, call in calls:
        if isinstance(call.func, ast.Attribute) and ast.unparse(call.func.value) == "np":
            dtypes = [ast.unparse(k.value) for k in call.keywords if k.arg == "dtype"] + [ast.unparse(a) for a in call.args[1:2]]
            if call.func.attr == "asarray" or (call.func.attr == "array" and "np.float64" in dtypes):
                found.append((scope, ast.unparse(call.args[0])))
    return found


def test_every_float_conversion_is_the_array_rule_or_a_known_internal_one():
    found = _float_conversions(_package_calls())
    assert len(found) == len(set(found)), sorted(found)
    assert set(found) == set(INTERNAL_CONVERSIONS), (
        sorted(set(found) - set(INTERNAL_CONVERSIONS)),
        sorted(set(INTERNAL_CONVERSIONS) - set(found)),
    )


# the np.errstate calls in the package, exactly (a new one fails, and so does
# an entry no code makes any more), with the reason each stays: finite input
# whose arithmetic overflows meets errors.finite_result, the one overflow
# rule, instead of a block of its own. Key: (module.function, the call).
ERRSTATE_CALLS = {
    ("errors.finite_result.wrap.guarded", "np.errstate(over='ignore', invalid='ignore')"): "the overflow rule itself",
    ("geometry.quats_from_rotation_matrices", "np.errstate(invalid='ignore', divide='ignore')"):
        "every row evaluates all four branches and keeps the one it picks",
    ("sim._heightfield_hits", "np.errstate(over='ignore')"): "a tiny ray dz gives an inf slab bound, which is used",
    ("sim._heightfield_hits", "np.errstate(divide='ignore', invalid='ignore')"):
        "a zero slope gives a non-finite Newton step, which the bracket test replaces",
}


def test_every_errstate_is_the_overflow_rule_or_a_known_branch_evaluation():
    found = [(scope, ast.unparse(call)) for scope, call in _package_calls() if ast.unparse(call.func) == "np.errstate"]
    assert len(found) == len(set(found)), sorted(found)
    assert set(found) == set(ERRSTATE_CALLS), (
        sorted(set(found) - set(ERRSTATE_CALLS)),
        sorted(set(ERRSTATE_CALLS) - set(found)),
    )
