"""Fuzzing the readers and the CLI: arbitrary file contents may only end in a
package error (or an OS error), never in another exception.

Every reader checks declared sizes against the file before reading, so a
random header cannot request a large allocation; do not point these tests
at a reader without that check.
"""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogeo.cli import main
from endogeo.errors import EndogeoError, FormatError, ValidationError
from endogeo.fileio import read_flo, read_json, read_pfm
from endogeo.stereo import load_calibration
from endogeo.trajectory import load_tum

import test_cli

_FUZZ = settings(max_examples=40, deadline=None)

_huge_ints = st.one_of(st.integers(-3, 70), st.integers(-(2**70), 2**70))


def _text(line_parts):
    return st.lists(line_parts, max_size=6).map(lambda lines: "\n".join(lines).encode())


# raw bytes, and inputs that get past the first checks of each format
pfm_files = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda magic, w, h, scale, payload: magic + f"\n{w} {h}\n{scale}\n".encode() + payload,
        st.sampled_from([b"Pf", b"PF", b"P5"]),
        _huge_ints,
        _huge_ints,
        st.one_of(st.floats(), st.sampled_from(["-1.0", "x", ""])),
        st.binary(max_size=64),
    ),
)
flo_files = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda magic, w, h, payload: struct.pack("<fii", magic, w, h) + payload,
        st.sampled_from([202021.25, 1.0]),
        st.integers(-(2**31), 2**31 - 1) | st.integers(-2, 4),
        st.integers(-(2**31), 2**31 - 1) | st.integers(-2, 4),
        st.binary(max_size=64),
    ),
)
tum_files = st.one_of(
    st.binary(max_size=64),
    _text(
        st.lists(
            st.sampled_from(["0", "1", "-1", "0.5", "1e999", "inf", "nan", "#", "x", "2"]),
            max_size=9,
        ).map(" ".join)
    ),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["left", "right", "extrinsics", "R", "T", "fx", "fy", "cx", "cy",
                         "width", "height", "dist", "window", "pred", "gt"]),
        inner,
        max_size=7,
    ),
    max_leaves=20,
)
json_files = st.one_of(
    st.binary(max_size=64), _json_values.map(lambda v: json.dumps(v).encode())
)


@pytest.mark.parametrize(
    "reader, files",
    [
        (read_pfm, pfm_files),
        (read_flo, flo_files),
        (load_tum, tum_files),
        (load_calibration, json_files),
        (read_json, json_files),
    ],
    ids=["read_pfm", "read_flo", "load_tum", "load_calibration", "read_json"],
)
def test_readers_raise_only_package_errors(tmp_path, reader, files):
    path = tmp_path / "input"

    @_FUZZ
    @given(files)
    def check(blob):
        path.write_bytes(blob)
        try:
            reader(path)
        except (EndogeoError, OSError):
            pass

    check()


_CAMERA = {"fx": 700.0, "fy": 690.0, "cx": 31.5, "cy": 23.5, "width": 64, "height": 48,
           "dist": [-0.1, 0.02, 1e-3, -2e-3, 5e-4]}
_CALIBRATION = {
    "left": _CAMERA,
    "right": {**_CAMERA, "fx": 705},
    "extrinsics": {"R": [[0, -1, 0], [1, 0, 0], [0, 0, 1]], "T": [5.1, 0.04, -0.02]},
}
# (section, key): replace that field, or the whole section when key is None
_CALIBRATION_EDITS = [(section, key) for section, fields in _CALIBRATION.items() for key in (None, *fields)]


def test_calibration_with_one_value_replaced_loads_its_numbers_or_raises(tmp_path):
    path = tmp_path / "calib.json"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_CALIBRATION_EDITS), _json_values)
    def check(edit, value):
        section, key = edit
        obj = copy.deepcopy(_CALIBRATION)
        if key is None:
            obj[section] = value
        else:
            obj[section][key] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        try:
            calib = load_calibration(path)
        except (FormatError, ValidationError):
            return
        for mono, cam in ((calib.left, obj["left"]), (calib.right, obj["right"])):
            k = mono.intrinsics
            assert (k.fx, k.fy, k.cx, k.cy) == tuple(float(cam[name]) for name in ("fx", "fy", "cx", "cy"))
            assert (k.width, k.height) == (cam["width"], cam["height"])
            assert mono.dist == tuple(float(v) for v in cam["dist"])
        ext = obj["extrinsics"]
        assert calib.translation.tolist() == [float(v) for v in ext["T"]]
        assert np.abs(calib.rotation.to_rotation_matrix() - np.array(ext["R"], dtype=np.float64)).max() < 1e-5

    check()


def test_cli_on_fuzzed_files_exits_2_or_3(tmp_path):
    """Each command gets one fuzzed input next to otherwise valid ones."""
    args = test_cli.TestEvalConsistency().write_fixture(tmp_path)
    test_cli.ideal_calib(tmp_path / "ideal.json")
    flo = tmp_path / "flows" / "flow_0000_0001.flo"
    fuzzed = tmp_path / "fuzzed"
    commands = {
        "tum": ["eval-traj", "--pred", str(fuzzed), "--gt", str(fuzzed)],
        "config": ["eval-traj", "--config", str(fuzzed)],
        "calib": ["disparity2depth", "--calib", str(fuzzed), "--input",
                  str(tmp_path / "depths" / "depth_0000.pfm"), "--out", str(tmp_path / "out.pfm")],
        "pfm": ["disparity2depth", "--calib", str(tmp_path / "ideal.json"), "--input", str(fuzzed),
                "--out", str(tmp_path / "out.pfm")],
        "flo": args,
    }

    @_FUZZ
    @given(
        st.one_of(
            st.tuples(st.just("tum"), tum_files),
            st.tuples(st.just("config"), json_files),
            st.tuples(st.just("calib"), json_files),
            st.tuples(st.just("pfm"), st.binary(max_size=64)),
            st.tuples(st.just("flo"), st.binary(max_size=64)),
        )
    )
    def check(case):
        kind, blob = case
        (flo if kind == "flo" else fuzzed).write_bytes(blob)
        assert main(commands[kind]) in (2, 3)

    check()
