"""Raster value types: depth, disparity, flow, pointmaps, confidence.

All rasters are row-major (height, width[, channels]) float64 arrays plus a
boolean validity mask. Constructors intersect the given mask with the type's
own validity rule (finite, positive where required), so a raster can never
hold a "valid" entry that violates its invariant. Arrays are copied and
frozen; instances are immutable and safe to share across threads.

The bilinear stencil that every resampler in the package uses lives here too,
and so does :func:`row_blocks`, the row-band iterator of the per-pixel
kernels. ``losses.c_flow``, ``losses.c_temp`` and the normal term of
``losses.c_prior`` run band by band: each band's temporaries fit in cache and
reuse freed memory, where whole-image temporaries would each fault in fresh
pages. The bands fill full-size rasters and masks, and every reduction stays
one mean over those full arrays, so results do not depend on the band size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# disparities at or below this are unusable (depth = b*f/d diverges)
DISPARITY_EPSILON = 1e-3

# bytes of one float64 plane of a row band (see row_blocks)
BAND_BYTES = 128 * 1024


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _as_values(values, ndim_tail: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 2 + (1 if ndim_tail else 0):
        raise ValidationError(f"{name} must be a {'(H, W, %d)' % ndim_tail if ndim_tail else '(H, W)'} array, got shape {arr.shape}")
    if ndim_tail and arr.shape[2] != ndim_tail:
        raise ValidationError(f"{name} must have {ndim_tail} channels, got {arr.shape[2]}")
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


@dataclass(frozen=True)
class DepthMap(_MaskedRaster):
    _name = "depth"
    _floor = 0.0

    values: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True)
class DisparityMap(_MaskedRaster):
    _name = "disparity"
    _floor = DISPARITY_EPSILON

    values: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True)
class FlowField(_MaskedRaster):
    """Per-pixel 2-vectors. Used both for flow deltas (du, dv) and, by the
    reprojection helpers, for absolute target coordinates."""

    _array = "vectors"
    _name = "flow"
    _channels = 2

    vectors: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True)
class Pointmap(_MaskedRaster):
    _array = "points"
    _name = "pointmap"
    _channels = 3

    points: np.ndarray
    valid: np.ndarray = None


@dataclass(frozen=True)
class ConfidenceMap(_Raster):
    values: np.ndarray

    def __post_init__(self):
        values = _as_values(self.values, 0, "confidence")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("confidence values must all be finite and positive")
        object.__setattr__(self, "values", _freeze(values))


def row_blocks(height: int, width: int):
    """Row slices that tile ``range(height)`` top to bottom, each with as
    many rows as keep one float64 plane of the band within BAND_BYTES, and
    at least one row."""
    rows = max(1, BAND_BYTES // (8 * max(width, 1)))
    for start in range(0, height, rows):
        yield slice(start, min(start + rows, height))


def in_bounds(x, y, width: int, height: int):
    """True where (x, y) lies in [0, W-1] x [0, H-1], the area a bilinear
    sample can cover."""
    return (x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)


def _floor_index(x, top: int) -> np.ndarray:
    """floor(x) clamped to [0, top] as int64. NaN becomes 0 and ±inf a finite
    extreme before the clamp, so no NaN or inf ever reaches the cast."""
    return np.clip(np.nan_to_num(np.floor(x)), 0, max(top, 0)).astype(np.int64)


def _bilinear_taps(x, y, width: int, height: int):
    """The bilinear stencil at float coordinates (x, y) on a width x height grid.

    Returns ``(inside, taps)``: ``inside`` marks locations in [0, W-1] x [0, H-1],
    and ``taps`` lists ``(weight, index)`` for the four corners, ``index``
    into the row-major flattened grid (a flat ``take`` gathers faster than a
    (row, col) index pair). The top-left corner is clamped to at most
    (W-2, H-2), so a location on the far edge still uses an in-bounds 2x2
    block; outside locations get weight 1 on that clamped corner. On a grid
    one pixel wide (or high) the right (or lower) corners repeat the left
    (or upper) ones.
    """
    inside = in_bounds(x, y, width, height)
    x0 = _floor_index(x, width - 2)
    y0 = _floor_index(y, height - 2)
    a = np.where(inside, x - x0, 0.0)
    b = np.where(inside, y - y0, 0.0)
    i00 = y0 * width + x0
    right = 1 if width > 1 else 0
    down = width if height > 1 else 0
    return inside, (
        ((1.0 - a) * (1.0 - b), i00),
        (a * (1.0 - b), i00 + right),
        ((1.0 - a) * b, i00 + down),
        (a * b, i00 + (down + right)),
    )


def bilinear_sample(values, x, y, valid=None):
    """Bilinearly sample (H, W) or (H, W, C) ``values`` at float coordinates (x, y).

    Returns ``(sample, ok)``. ``ok`` is False where (x, y) lies outside
    [0, W-1] x [0, H-1] and, when a ``valid`` mask is given, where any of the
    four surrounding cells is invalid (the strict 4-cell rule). ``sample`` is
    0 wherever ``ok`` is False; only samples where it is True read ``values``,
    so what a masked cell holds (inf, NaN) never enters the arithmetic.
    """
    height, width = values.shape[:2]
    ok, taps = _bilinear_taps(x, y, width, height)
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
