"""Raster file codecs: PFM (1- and 3-channel) and Middlebury .flo.

PFM layout: header ``Pf\\n<width> <height>\\n<scale>\\n`` (``PF`` for
3-channel), scale sign encodes endianness (negative = little-endian), pixel
rows are stored bottom-to-top as 32-bit floats. The writer always stores
little-endian with scale -1.0; the reader takes either byte order, as PFM
files come from other programs too. Depth/disparity wrappers serialize
invalid pixels as 0.0.

.flo layout: float32 magic 202021.25, int32 width, int32 height, then
interleaved float32 (du, dv) top-to-bottom, always little-endian. Components
with magnitude >= 1e9 mark a pixel invalid (the Middlebury "unknown flow"
sentinel); invalid pixels are written as 1e10.

JSON (configs, calibrations, reports) is read and written here too, so the
package has one text form and one rule for malformed input.

Dataset file names (``depth_0007.pfm``, ``flow_0007_0008.flo``) are written
by :func:`frame_file_name` and read back by :func:`file_name_frames`.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .geometry import floats
from .rasters import DepthMap, DisparityMap, FlowField

_PFM_CHANNELS = {b"Pf": (), b"PF": (3,)}  # magic -> channel axis of the array
_FLO_HEADER = struct.Struct("<fii")  # magic, width, height
_FLO_MAGIC = 202021.25
_FLO_INVALID_READ = 1e9
_FLO_INVALID_WRITE = 1e10
_FRAME_FILES = {1: "depth_{:04d}.pfm", 2: "flow_{:04d}_{:04d}.flo"}  # by frame count
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def format_json(obj) -> str:
    """The one JSON text form the package writes: sorted keys, two-space
    indentation, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    write_text(path, format_json(obj))


def is_json_number(value, kinds=(int, float)) -> bool:
    """``value`` is a JSON number of one of ``kinds``, finite as :func:`read_json`
    returns it; a bool (an int in Python) or a numeric string is none."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _finite_literal(text: str) -> str:
    # float() saturates to inf instead of raising, so this also catches
    # overflowing literals such as 1e999 or a 400-digit integer
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text}")
    return text


def read_text(path) -> str:
    """The UTF-8 text of a file; bytes that are not UTF-8 raise :class:`FormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", path=path) from None


def write_text(path, text: str) -> None:
    """Write ``text`` to a file as UTF-8 with ``\\n`` newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_json(path):
    """Parse a UTF-8 JSON file. Malformed JSON, non-UTF-8 bytes and
    non-finite numbers (NaN, Infinity, literals beyond the float range) raise
    :class:`FormatError`."""
    text = read_text(path)
    try:
        return json.loads(
            text,
            parse_float=lambda t: float(_finite_literal(t)),
            parse_int=lambda t: int(_finite_literal(t)),
            parse_constant=_finite_literal,
        )
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        line = getattr(exc, "lineno", None)
        raise FormatError(f"invalid JSON: {exc}", path=path, line=line) from None


def _read_payload(fh, shape, dtype, what: str, path) -> np.ndarray:
    """The float32 payload of ``shape`` (H, W[, C]) at the current position
    of ``fh``. Both the dimensions and the bytes left in the file are checked
    before reading, so a hostile header cannot request a huge read."""
    height, width = shape[:2]
    if width <= 0 or height <= 0:
        raise FormatError(f"non-positive {what} dimensions {width}x{height}", path=path)
    expected = math.prod(shape) * 4
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < expected:
        raise FormatError(
            f"truncated {what} payload: expected {expected} bytes, got {left}", path=path
        )
    return np.frombuffer(fh.read(expected), dtype=dtype).reshape(shape)


def _as_float32(array, path) -> np.ndarray:
    """The float64 ``array`` as float32, refused if the cast would turn a
    finite value into inf."""
    # two reductions decide the common case without a temporary array
    if array.size and not (-_FLOAT32_MAX <= array.min() and array.max() <= _FLOAT32_MAX):
        beyond = np.abs(array) > _FLOAT32_MAX
        if np.isfinite(array[beyond]).any():
            raise ValidationError(f"{path}: a finite value exceeds the float32 range")
    return array.astype(np.float32, copy=False)


def write_pfm(path, array) -> None:
    """Write a (H, W) or (H, W, 3) array of numbers (read by
    :func:`~endogeo.geometry.floats`), with a positive height and width, as
    little-endian float32 with scale -1.0."""
    data = _as_float32(floats(array, "PFM array"), path)
    if data.ndim == 2:
        magic = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValidationError(f"{path}: PFM supports (H, W) or (H, W, 3) arrays, got shape {data.shape}")
    height, width = data.shape[:2]
    if not (height and width):
        raise ValidationError(f"{path}: PFM dimensions must be positive, got {width}x{height}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{width} {height}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(data).astype("<f4").tobytes())


def read_pfm(path):
    """Returns (float32 array of shape (H, W) or (H, W, 3), scale magnitude)."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip()
        channels = _PFM_CHANNELS.get(magic)
        if channels is None:
            raise FormatError(f"not a PFM file (magic {magic!r})", path=path)
        dims = fh.readline().split()
        if len(dims) != 2:
            raise FormatError("malformed PFM dimensions line", path=path)
        try:
            width, height = int(dims[0]), int(dims[1])
        except ValueError:
            raise FormatError(f"non-integer PFM dimensions {dims}", path=path) from None
        try:
            scale = float(fh.readline())
        except ValueError:
            raise FormatError("malformed PFM scale line", path=path) from None
        if not (math.isfinite(scale) and scale != 0):
            raise FormatError(f"PFM scale must be finite and nonzero, got {scale}", path=path)
        dtype = "<f4" if scale < 0 else ">f4"
        data = _read_payload(fh, (height, width) + channels, dtype, "PFM", path)
    return np.flipud(data).astype(np.float32), abs(scale)


def write_depth_pfm(path, depth: DepthMap) -> None:
    """Write a depth (or disparity) map; invalid pixels are stored as 0.0."""
    write_pfm(path, np.where(depth.valid, depth.values, 0.0))


def _read_pfm_values(path, what: str) -> np.ndarray:
    data, _ = read_pfm(path)
    if data.ndim != 2:
        raise FormatError(f"{what} PFM must be single-channel", path=path)
    return data  # float32: the raster constructors convert it to float64


def read_depth_pfm(path) -> DepthMap:
    # the stored 0.0 of an invalid pixel is below the raster's own floor
    return DepthMap(_read_pfm_values(path, "depth"))


def read_disparity_pfm(path) -> DisparityMap:
    return DisparityMap(_read_pfm_values(path, "disparity"))


def write_flo(path, flow: FlowField) -> None:
    """Write ``flow``; a valid component that would be stored as 1e9 or more,
    and so read back as unknown flow, raises :class:`ValidationError`."""
    height, width = flow.vectors.shape[:2]
    data = _as_float32(np.where(flow.valid[..., None], flow.vectors, _FLO_INVALID_WRITE), path)
    if not np.array_equal(_flo_valid(data), flow.valid):
        raise ValidationError(
            f"{path}: a valid flow component of magnitude 1e9 or more reads back as unknown flow"
        )
    with open(path, "wb") as fh:
        fh.write(_FLO_HEADER.pack(_FLO_MAGIC, width, height))
        fh.write(data.astype("<f4", copy=False).tobytes())


def read_flo(path) -> FlowField:
    with open(path, "rb") as fh:
        head = fh.read(_FLO_HEADER.size)
        if len(head) != _FLO_HEADER.size:
            raise FormatError("truncated .flo header", path=path)
        magic, width, height = _FLO_HEADER.unpack(head)
        if magic != _FLO_MAGIC:
            raise FormatError(f"not a .flo file (magic {magic!r})", path=path)
        data = _read_payload(fh, (height, width, 2), "<f4", ".flo", path)
    return FlowField(data, _flo_valid(data))


def _flo_valid(data) -> np.ndarray:
    """The pixels of an (H, W, 2) float32 .flo payload that hold known flow."""
    # per channel, as np.all over a last axis of 2 is slow; on the float32
    # payload, as 1e9 is a float32 and the comparison is exact either way
    return (np.abs(data[..., 0]) < _FLO_INVALID_READ) & (np.abs(data[..., 1]) < _FLO_INVALID_READ)


def frame_file_name(*frames: int) -> str:
    """``depth_0007.pfm`` for the depth map of frame 7, ``flow_0007_0008.flo``
    for the flow from frame 7 to frame 8; frames from 10000 take more digits."""
    return _FRAME_FILES[len(frames)].format(*frames)


def file_name_frames(name: str):
    """The frames ``(k,)`` or ``(i, j)`` whose :func:`frame_file_name` is
    exactly ``name``, else None: ``depth_00007.pfm`` names no frame."""
    frames = tuple(int(k) for k in re.findall(r"_([0-9]+)", name))
    return frames if len(frames) in _FRAME_FILES and frame_file_name(*frames) == name else None
