"""Raster value types: depth, disparity, flow, pointmaps, confidence.

All rasters are row-major (height, width[, channels]) float64 arrays plus a
boolean validity mask. Constructors read the values by the package's one
array rule, :func:`~endogeo.geometry.floats` (so a bool, string, complex or
ragged input raises ValidationError), and the mask as a bool array. A raster
with no rows or no columns raises ValidationError, as the file readers
reject one. Constructors intersect the given mask with the type's own
validity rule (finite, positive where required), so a raster can never hold
a "valid" entry that violates its invariant; NaN and ±inf values are
masked. Arrays are copied and frozen; instances are immutable and safe to
share across threads. They compare and hash by identity, as the arrays they
hold define no truth value or hash.

The package's one bilinear sampler, :func:`bilinear_sample`, lives here too
(``metrics.resize_depth`` is the ratio of two of its samples), and so does
the one chunk loop of every per-pixel kernel, of ``losses`` and of the
renderer ``sim.render_depth``: :func:`candidate_chunks` splits the candidate
cells (those that can count, such as the pixels with valid depth and flow)
into chunks of flat indices (:func:`cell_coords` gives their columns and
rows), and :func:`scatter_chunks` writes each chunk's results. A chunk's
temporaries fit in cache and reuse freed memory, where whole-image
temporaries would each fault in fresh pages. The chunks keep row-major order,
so results do not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import floats

# disparities at or below this are unusable (depth = b*f/d diverges)
DISPARITY_EPSILON = 1e-3

# bytes of one float64 array of a chunk of any per-pixel kernel (candidate_chunks)
BAND_BYTES = 128 * 1024


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _as_values(values, ndim_tail: int, name: str) -> np.ndarray:
    arr = floats(values, name)
    if arr.ndim != 2 + (1 if ndim_tail else 0):
        raise ValidationError(f"{name} must be a {'(H, W, %d)' % ndim_tail if ndim_tail else '(H, W)'} array, got shape {arr.shape}")
    if ndim_tail and arr.shape[2] != ndim_tail:
        raise ValidationError(f"{name} must have {ndim_tail} channels, got {arr.shape[2]}")
    if 0 in arr.shape[:2]:
        raise ValidationError(f"{name} must have a positive height and width, got shape {arr.shape}")
    return arr


class _Raster:
    """``width``/``height`` of the (H, W[, C]) array held in the field named
    by ``_array``."""

    _array = "values"

    @property
    def width(self) -> int:
        return getattr(self, self._array).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, self._array).shape[0]


class _MaskedRaster(_Raster):
    """The one validity rule of the masked rasters: a pixel is valid where the
    given mask (default: all) says so, every channel is finite and, for
    scalar rasters, the value exceeds ``_floor``."""

    _name = ""
    _channels = 0  # 0 for an (H, W) raster, else C of an (H, W, C) raster
    _floor = None  # scalar rasters only: valid values must exceed it

    def __post_init__(self):
        array = _as_values(getattr(self, self._array), self._channels, self._name)
        shape = array.shape[:2]
        mask = np.ones(shape, dtype=bool) if self.valid is None else np.array(self.valid, dtype=bool)
        if mask.shape != shape:
            raise ValidationError(f"{self._name} mask shape {mask.shape} does not match values {shape}")
        if self._channels:
            # one channel at a time: np.all over a short last axis is slow
            for k in range(self._channels):
                mask &= np.isfinite(array[..., k])
        else:
            mask &= np.isfinite(array) & (array > self._floor)
        object.__setattr__(self, self._array, _freeze(array))
        object.__setattr__(self, "valid", _freeze(mask))

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())


@dataclass(frozen=True, eq=False)
class DepthMap(_MaskedRaster):
    _name = "depth"
    _floor = 0.0

    values: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True, eq=False)
class DisparityMap(_MaskedRaster):
    _name = "disparity"
    _floor = DISPARITY_EPSILON

    values: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True, eq=False)
class FlowField(_MaskedRaster):
    """Per-pixel 2-vectors. Used both for flow deltas (du, dv) and, by the
    reprojection helpers, for absolute target coordinates."""

    _array = "vectors"
    _name = "flow"
    _channels = 2

    vectors: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True, eq=False)
class Pointmap(_MaskedRaster):
    _array = "points"
    _name = "pointmap"
    _channels = 3

    points: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True, eq=False)
class ConfidenceMap(_Raster):
    values: np.ndarray

    def __post_init__(self):
        values = _as_values(self.values, 0, "confidence")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("confidence values must all be finite and positive")
        object.__setattr__(self, "values", _freeze(values))


def candidate_chunks(plane: np.ndarray):
    """The flat indices of the True cells of the (H, W) bool ``plane`` in
    row-major order, in chunks of at most BAND_BYTES // 8 cells (at least
    one), so that one float64 array of a chunk fits in BAND_BYTES. A plane
    with no True cell yields no chunk."""
    cells = np.flatnonzero(plane)
    size = max(1, BAND_BYTES // 8)
    for start in range(0, cells.size, size):
        yield cells[start : start + size]


def scatter_chunks(candidates: np.ndarray, kernel, *channels: int):
    """A zero-filled raster of the (H, W) shape of ``candidates`` (plus
    ``channels``) and a False-filled mask, with ``kernel(index) -> (values,
    ok)`` written at each chunk ``index`` of :func:`candidate_chunks`."""
    raster = np.zeros(candidates.shape + channels)
    mask = np.zeros(candidates.shape, dtype=bool)
    flat_raster, flat_mask = raster.reshape((-1,) + channels), mask.reshape(-1)
    for index in candidate_chunks(candidates):
        flat_raster[index], flat_mask[index] = kernel(index)
    return raster, mask


def cell_coords(index: np.ndarray, width: int):
    """``(u, v)``: the columns and rows, as float64, of the flat ``index``
    into a row-major plane ``width`` cells wide."""
    v = index // width
    return (index - v * width).astype(np.float64), v.astype(np.float64)


def in_bounds(x, y, width: int, height: int):
    """True where (x, y) lies in [0, W-1] x [0, H-1], the area a bilinear
    sample can cover."""
    return (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)


def _axis_taps(x, size: int):
    """For coordinates ``x`` on an axis of ``size`` cells: the mask of those in
    [0, size-1], the left tap floor(x) clamped to [0, size-2] as int64 (NaN
    becomes 0 and ±inf a finite extreme before the cast), and the fraction
    x - left, 0 outside the mask."""
    inside = (x >= 0) & (x <= size - 1)
    left = np.fmin(np.fmax(np.floor(x), 0.0), max(size - 2, 0)).astype(np.int64)
    return inside, left, np.where(inside, x - left, 0.0)


def bilinear_sample(values, x, y, valid=None):
    """Bilinearly sample (H, W) or (H, W, C) ``values`` at float coordinates (x, y).

    Returns ``(sample, ok)``. ``ok`` is False where (x, y) lies outside
    [0, W-1] x [0, H-1] and, when a ``valid`` mask is given, where any of the
    four surrounding cells is invalid (the strict 4-cell rule). ``sample`` is
    0 wherever ``ok`` is False; only samples where it is True read ``values``,
    so what a masked cell holds (inf, NaN) never enters the arithmetic.
    ``x`` and ``y`` broadcast against each other, so a (1, W) row of x and an
    (H, 1) column of y sample a whole grid; the taps of each axis are found
    on its own array, and only the weights and indices take the full shape.
    Bool ``values`` sample as 1.0/0.0.

    The top-left corner of the 2x2 stencil is clamped to at most (W-2, H-2),
    so a location on the far edge still uses an in-bounds block; outside
    locations get weight 1 on that clamped corner. The corners are gathered
    by index into the row-major flattened grid (a flat ``take`` gathers
    faster than a (row, col) index pair). On a grid one pixel wide (or high)
    the right (or lower) corners repeat the left (or upper) ones.
    """
    height, width = values.shape[:2]
    ok_x, x0, a = _axis_taps(x, width)
    ok_y, y0, b = _axis_taps(y, height)
    ok = ok_x & ok_y
    i00 = y0 * width + x0
    right = 1 if width > 1 else 0
    down = width if height > 1 else 0
    a1, b1 = 1.0 - a, 1.0 - b
    taps = (
        (a1 * b1, i00),
        (a * b1, i00 + right),
        (a1 * b, i00 + down),
        (a * b, i00 + (down + right)),
    )
    # freed before the gathers, so their temporaries reuse this memory
    # instead of faulting in fresh pages
    del ok_x, ok_y, x0, y0, a, b, a1, b1
    if valid is not None:
        valid = valid.reshape(-1)
        for _, index in taps:
            ok = ok & valid.take(index)
    channel = (...,) + (None,) * (values.ndim - 2)
    values = values.reshape((height * width,) + values.shape[2:])
    # every weight is >= 0, so a sample outside ``ok`` sums to +0.0
    terms = (w[channel] * np.where(ok[channel], values.take(index, axis=0), 0.0) for w, index in taps)
    # summed left to right from the first term, not from 0.0, so a -0.0
    # sample keeps its sign; in place, so no term outlives the next
    sample = next(terms)
    for term in terms:
        sample += term
    return sample, ok
