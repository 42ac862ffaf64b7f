import struct

import numpy as np
import pytest

from endogeo.errors import FormatError, ValidationError
from endogeo.fileio import (
    file_name_frames,
    format_json,
    frame_file_name,
    is_json_number,
    read_depth_pfm,
    read_disparity_pfm,
    read_flo,
    read_json,
    read_pfm,
    write_depth_pfm,
    write_flo,
    write_json,
    write_pfm,
)
from endogeo.rasters import DepthMap, DisparityMap, FlowField


def hand_written_pfm(path, array, scale):
    """A 1-channel PFM file with ``scale`` in its header, written without the
    package: the payload is little-endian for a negative scale, big-endian
    for a positive one."""
    dtype = "<f4" if scale < 0 else ">f4"
    height, width = array.shape
    path.write_bytes(f"Pf\n{width} {height}\n{scale}\n".encode("ascii") + np.flipud(array).astype(dtype).tobytes())


class TestPfmFormat:
    def test_header_bytes(self, tmp_path):
        path = tmp_path / "x.pfm"
        write_pfm(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n3 2\n-1.0\n")
        assert len(raw) == len(b"Pf\n3 2\n-1.0\n") + 2 * 3 * 4

    def test_three_channel_magic(self, tmp_path):
        path = tmp_path / "x.pfm"
        write_pfm(path, np.zeros((2, 3, 3), dtype=np.float32))
        assert path.read_bytes().startswith(b"PF\n")

    def test_rows_stored_bottom_to_top(self, tmp_path):
        path = tmp_path / "x.pfm"
        img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        write_pfm(path, img)
        payload = path.read_bytes()[len(b"Pf\n2 2\n-1.0\n"):]
        first_row = np.frombuffer(payload[:8], dtype="<f4")
        assert (first_row == [3.0, 4.0]).all()  # bottom image row comes first

    def test_round_trip_little_endian(self, tmp_path):
        path = tmp_path / "x.pfm"
        img = np.arange(24, dtype=np.float32).reshape(4, 6)
        write_pfm(path, img)
        back, scale = read_pfm(path)
        assert (back == img).all()
        assert scale == 1.0
        hand_written_pfm(tmp_path / "y.pfm", img, -1.0)
        assert path.read_bytes() == (tmp_path / "y.pfm").read_bytes()

    def test_round_trip_big_endian(self, tmp_path):
        # the writer always stores little-endian; files from other programs
        # may hold big-endian payloads, which a positive scale announces
        path = tmp_path / "x.pfm"
        img = np.arange(24, dtype=np.float32).reshape(4, 6) * 0.5
        hand_written_pfm(path, img, 2.5)
        back, scale = read_pfm(path)
        assert (back == img).all()
        assert scale == 2.5

    def test_round_trip_three_channel(self, tmp_path):
        path = tmp_path / "x.pfm"
        img = np.arange(36, dtype=np.float32).reshape(3, 4, 3)
        write_pfm(path, img)
        back, _ = read_pfm(path)
        assert back.shape == (3, 4, 3)
        assert (back == img).all()

    def test_rejects_bad_shapes(self, tmp_path):
        # the array is an argument, so a bad shape is a ValidationError; the
        # empty ones were written, and the reader then refused them
        supported = r"PFM supports \(H, W\) or \(H, W, 3\) arrays"
        for shape, message in (((2, 2, 4), supported), ((5,), supported), ((), supported),
                               ((0, 3), "positive"), ((2, 0), "positive"), ((0, 2, 3), "positive")):
            with pytest.raises(ValidationError, match=message):
                write_pfm(tmp_path / "x.pfm", np.zeros(shape))
        assert not (tmp_path / "x.pfm").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"P5\n2 2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_pfm(path)

    def test_malformed_dims(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError, match="dimensions"):
            read_pfm(path)
        path.write_bytes(b"Pf\ntwo 2\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError, match="dimensions"):
            read_pfm(path)

    def test_finite_value_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "x.pfm"
        for big in (1e40, -1e39, np.nextafter(float(np.finfo(np.float32).max), np.inf)):
            with pytest.raises(ValidationError, match="float32"):
                write_pfm(path, np.array([[1.0, big]]))
            assert not path.exists()
        # the largest float32 and the non-finite values themselves are stored as they are
        edge = [[float(np.finfo(np.float32).max), np.inf], [-np.inf, np.nan]]
        write_pfm(path, edge)
        assert np.array_equal(read_pfm(path)[0], np.array(edge, dtype=np.float32), equal_nan=True)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 9)
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(path)


class TestRasterPfmWrappers:
    def test_depth_invalid_serialized_as_zero(self, tmp_path):
        path = tmp_path / "d.pfm"
        depth = DepthMap(
            np.array([[5.0, 7.0], [9.0, 11.0]]),
            np.array([[True, False], [True, True]]),
        )
        write_depth_pfm(path, depth)
        back = read_depth_pfm(path)
        assert back.values[0, 1] == 0.0
        assert not back.valid[0, 1]
        assert back.valid.sum() == 3
        assert np.abs(back.values[back.valid] - [5.0, 9.0, 11.0]).max() < 1e-6

    def test_depth_beyond_float32_rejected(self, tmp_path):
        # it was written as inf, which the reader takes for an invalid pixel
        path = tmp_path / "d.pfm"
        with pytest.raises(ValidationError, match="float32"):
            write_depth_pfm(path, DepthMap(np.full((4, 4), 1e40)))
        assert not path.exists()

    def test_disparity_round_trip(self, tmp_path):
        path = tmp_path / "disp.pfm"
        disp = DisparityMap(np.array([[0.0, 12.5], [6.25, 3.0]]))
        write_depth_pfm(path, disp)
        back = read_disparity_pfm(path)
        assert (back.valid == disp.valid).all()
        assert np.abs(back.values[back.valid] - disp.values[disp.valid]).max() < 1e-6

    def test_depth_reader_rejects_three_channel(self, tmp_path):
        path = tmp_path / "x.pfm"
        write_pfm(path, np.ones((2, 2, 3)))
        with pytest.raises(FormatError, match="single-channel"):
            read_depth_pfm(path)


class TestFlo:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.flo"
        flow = FlowField(np.zeros((2, 3, 2)))
        write_flo(path, flow)
        raw = path.read_bytes()
        magic, width, height = struct.unpack("<fii", raw[:12])
        assert magic == np.float32(202021.25)
        assert (width, height) == (3, 2)
        assert len(raw) == 12 + 2 * 3 * 2 * 4

    def test_round_trip(self, tmp_path):
        path = tmp_path / "f.flo"
        rng = np.random.default_rng(3)
        vectors = rng.uniform(-4, 4, size=(5, 7, 2)).astype(np.float32).astype(np.float64)
        flow = FlowField(vectors)
        write_flo(path, flow)
        back = read_flo(path)
        assert (back.vectors == vectors).all()
        assert back.valid.all()

    def test_invalid_sentinel(self, tmp_path):
        path = tmp_path / "f.flo"
        valid = np.array([[True, False], [True, True]])
        flow = FlowField(np.ones((2, 2, 2)), valid)
        write_flo(path, flow)
        raw = np.frombuffer(path.read_bytes()[12:], dtype="<f4").reshape(2, 2, 2)
        assert (raw[0, 1] == 1e10).all()  # written sentinel
        back = read_flo(path)
        assert (back.valid == valid).all()

    def test_vector_beyond_float32_rejected(self, tmp_path):
        path = tmp_path / "f.flo"
        vectors = np.zeros((2, 2, 2))
        vectors[1, 0, 1] = -1e300
        with pytest.raises(ValidationError, match="float32"):
            write_flo(path, FlowField(vectors))
        assert not path.exists()
        # an invalid pixel's vector is never written, however large
        write_flo(path, FlowField(vectors, np.array([[True, True], [False, True]])))
        assert read_flo(path).valid.sum() == 3

    @pytest.mark.parametrize(
        "component",
        # 1e9 - 16 is below 1e9 but rounds to it in float32
        [1e9, -1e9, 5e37, 1e9 - 16, -float(np.nextafter(np.float32(1e9), np.float32(np.inf)))],
    )
    def test_vector_read_back_as_unknown_rejected(self, tmp_path, component):
        path = tmp_path / "f.flo"
        vectors = np.zeros((2, 2, 2))
        vectors[0, 1, 0] = component
        with pytest.raises(ValidationError, match="1e9"):
            write_flo(path, FlowField(vectors))
        assert not path.exists()

    def test_largest_known_flow_round_trips(self, tmp_path):
        path = tmp_path / "f.flo"
        below = float(np.nextafter(np.float32(1e9), np.float32(0)))
        flow = FlowField(np.array([[[below, -below]]]))
        write_flo(path, flow)
        back = read_flo(path)
        assert back.valid.all()
        assert (back.vectors == flow.vectors).all()

    def test_read_treats_large_components_invalid(self, tmp_path):
        path = tmp_path / "f.flo"
        payload = struct.pack("<fii", 202021.25, 1, 1) + struct.pack("<ff", 1e9, 0.0)
        path.write_bytes(payload)
        back = read_flo(path)
        assert not back.valid[0, 0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.flo"
        path.write_bytes(struct.pack("<fii", 1.0, 1, 1) + b"\0" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_flo(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "f.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 2, 2) + b"\0" * 10)
        with pytest.raises(FormatError, match="truncated"):
            read_flo(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.flo"
        path.write_bytes(b"\0" * 5)
        with pytest.raises(FormatError, match="header"):
            read_flo(path)


class TestHostileHeaders:
    """Declared sizes are checked against the file before anything is read."""

    def test_huge_pfm_dimensions(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n99999999999 99999999999\n-1.0\n" + b"\0" * 16)
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(path)

    def test_huge_flo_dimensions(self, tmp_path):
        path = tmp_path / "f.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, 2147483647, 2147483647) + b"\0" * 16)
        with pytest.raises(FormatError, match="truncated"):
            read_flo(path)

    @pytest.mark.parametrize("dims", [(0, 2), (-3, 2)])
    def test_non_positive_flo_dimensions(self, tmp_path, dims):
        path = tmp_path / "f.flo"
        path.write_bytes(struct.pack("<fii", 202021.25, *dims) + b"\0" * 16)
        with pytest.raises(FormatError, match="dimensions"):
            read_flo(path)

    @pytest.mark.parametrize("scale", [b"inf", b"-inf", b"nan", b"0"])
    def test_pfm_scale_must_be_finite_and_nonzero(self, tmp_path, scale):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + b"\0" * 4)
        with pytest.raises(FormatError, match="scale"):
            read_pfm(path)


class TestJson:
    def test_text_form(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": [1, 2.5], "a": "x"})
        assert path.read_bytes() == b'{\n  "a": "x",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert format_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
        assert read_json(path) == {"a": "x", "b": [1, 2.5]}

    @pytest.mark.parametrize(
        "text",
        [
            b"{broken",
            b'{"fx": NaN}',
            b'{"fx": Infinity}',
            b'{"fx": -Infinity}',
            b'{"fx": 1e999}',
            b'{"fx": ' + b"9" * 400 + b"}",
            b'{"name": "\xff\xfe"}',
            b"[" * 100_000,
        ],
        ids=["syntax", "nan", "inf", "-inf", "overflow", "huge-int", "not-utf8", "deep"],
    )
    def test_malformed_is_format_error(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_bytes(text)
        with pytest.raises(FormatError, match="JSON|UTF-8"):
            read_json(path)

    def test_syntax_error_names_the_line(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{\n  "a": 1,\n  oops\n}\n')
        with pytest.raises(FormatError, match=r"x\.json:3: invalid JSON"):
            read_json(path)


class TestFrameFileNames:
    @pytest.mark.parametrize(
        "frames, name",
        [((0,), "depth_0000.pfm"), ((9999,), "depth_9999.pfm"), ((10000,), "depth_10000.pfm"),
         ((9999, 10000), "flow_9999_10000.flo"), ((7, 123456), "flow_0007_123456.flo")],
    )
    def test_round_trip(self, frames, name):
        assert frame_file_name(*frames) == name
        assert file_name_frames(name) == frames

    @pytest.mark.parametrize(
        "name",
        ["depth_00007.pfm", "depth_007.pfm", "depth_0007.flo", "flow_0007.flo", "depth_0001_0002.pfm",
         "flow_0001_0002.pfm", "depth_\u0661\u0662\u0663\u0664.pfm", "depth_0007.pfm.bak", "segment_0000.tum"],
    )
    def test_other_names_are_no_frames(self, name):
        assert file_name_frames(name) is None


def test_json_number_predicate():
    assert all(is_json_number(v) for v in (0, -3, 2.5, 1e300))
    assert not any(is_json_number(v) for v in (True, False, "3", None, [1], {}))
    assert is_json_number(3, int) and not is_json_number(3.0, int) and not is_json_number(True, int)
