import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endogeo.errors import ValidationError
from endogeo.fileio import read_flo
from endogeo.rasters import ConfidenceMap, DepthMap, DisparityMap, FlowField, Pointmap, bilinear_sample

from oracles import _bilinear


@st.composite
def sampling_cases(draw, channel_counts=(0, 1, 3)):
    """An (H, W) or (H, W, C) raster, C drawn from ``channel_counts`` (0 for
    (H, W)), a validity mask, and sample locations mixing arbitrary floats,
    exact integers, the far edge, -0.0, NaN, ±inf and ±1e300, in and out of
    bounds."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    channels = draw(st.sampled_from(channel_counts))
    shape = (height, width) if channels == 0 else (height, width, channels)
    values = np.array(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    ).reshape(shape)
    valid = np.array(
        draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    ).reshape(height, width)

    def coordinate(size):
        return st.one_of(
            st.floats(-1.5, size + 0.5),
            st.integers(-1, size).map(float),
            st.just(float(size - 1)),
            st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300]),
        )

    n = draw(st.integers(1, 12))
    x = np.array(draw(st.lists(coordinate(width), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(coordinate(height), min_size=n, max_size=n)))
    return values, valid, x, y


def oracle_sample(values, valid, x, y):
    """Per-location, per-channel straight-loop sample and validity."""
    height, width = valid.shape
    planes = [values] if values.ndim == 2 else [values[..., c] for c in range(values.shape[2])]
    samples = []
    oks = []
    for u, v in zip(x.tolist(), y.tolist()):
        results = [_bilinear(p.tolist(), valid.tolist(), width, height, u, v) for p in planes]
        samples.append([s for s, _ in results])
        oks.append(results[0][1])
    samples = np.array(samples)
    return (samples[:, 0] if values.ndim == 2 else samples), np.array(oks)


class TestBilinearSample:
    @settings(max_examples=200, deadline=None)
    @given(sampling_cases())
    def test_strict_rule_matches_oracle(self, case):
        values, valid, x, y = case
        sample, ok = bilinear_sample(values, x, y, valid)
        expected, expected_ok = oracle_sample(values, valid, x, y)
        assert np.array_equal(ok, expected_ok)
        assert np.array_equal(sample, expected)

    @settings(max_examples=200, deadline=None)
    @given(sampling_cases())
    def test_without_mask_only_bounds_matter(self, case):
        values, valid, x, y = case
        sample, ok = bilinear_sample(values, x, y)
        expected, expected_ok = oracle_sample(values, np.ones_like(valid), x, y)
        assert np.array_equal(ok, expected_ok)
        assert np.array_equal(sample, expected)

    @settings(max_examples=200, deadline=None)
    @given(sampling_cases((0, 2)), st.booleans())
    def test_row_and_column_sample_their_grid(self, case, masked):
        # resize_depth samples at a (1, W) row of x and an (H, 1) column of y
        values, valid, x, y = case
        mask = valid if masked else None
        sample, ok = bilinear_sample(values, x[None, :], y[:, None], mask)
        grid_x, grid_y = np.meshgrid(x, y)
        expected, expected_ok = bilinear_sample(values, grid_x, grid_y, mask)
        assert np.array_equal(ok, expected_ok)
        assert np.array_equal(sample, expected)

    @settings(max_examples=200, deadline=None)
    @given(sampling_cases((0,)), st.booleans())
    def test_bool_plane_samples_as_its_float_copy(self, case, masked):
        # resize_depth samples the validity mask itself
        values, valid, x, y = case
        mask = valid if masked else None
        plane = values > 0
        sample, ok = bilinear_sample(plane, x, y, mask)
        expected, expected_ok = bilinear_sample(plane.astype(np.float64), x, y, mask)
        assert np.array_equal(ok, expected_ok)
        assert np.array_equal(sample, expected)


_KINDS = [
    (DepthMap, (2, 3)), (DisparityMap, (2, 3)), (FlowField, (2, 3, 2)), (Pointmap, (2, 3, 3)), (ConfidenceMap, (2, 3)),
]


@pytest.mark.parametrize("kind, shape", _KINDS)
def test_rasters_compare_and_hash_by_identity(kind, shape):
    values = np.ones(shape)
    a, b = kind(values), kind(values)
    assert a == a
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("kind, shape", _KINDS)
def test_a_raster_without_rows_or_columns_is_rejected(kind, shape):
    # these built, and then resize_depth and depth_metrics raised IndexError
    # and the PFM and .flo writers wrote files their readers refuse
    for axis in (0, 1):
        empty = list(shape)
        empty[axis] = 0
        with pytest.raises(ValidationError, match="positive height and width"):
            kind(np.ones(empty))


@pytest.mark.parametrize("kind, shape", [k for k in _KINDS if k[0] is not ConfidenceMap])
def test_a_mask_of_another_shape_is_rejected(kind, shape):
    with pytest.raises(ValidationError, match=r"mask shape \(3, 2\) does not match values \(2, 3\)"):
        kind(np.ones(shape), np.ones((3, 2), dtype=bool))


@pytest.mark.parametrize("kind, channels", [(FlowField, 2), (Pointmap, 3)])
def test_a_vector_raster_of_another_channel_count_is_rejected(kind, channels):
    with pytest.raises(ValidationError, match=f"must have {channels} channels, got 4"):
        kind(np.ones((2, 3, 4)))


# every value a channel validity rule can turn on: NaN, infinities, the .flo
# "unknown flow" threshold 1e9 and its float32 neighbours, the written
# sentinel 1e10, and both zeros
_SPECIALS = [math.nan, math.inf, -math.inf, 1e9, -1e9, 1e10, -1e10, -0.0, 0.0,
             float(np.nextafter(np.float32(1e9), np.float32(0))),
             float(np.nextafter(np.float32(1e9), np.float32(np.inf)))]


@st.composite
def channel_arrays(draw, channels):
    """An (H, W, channels) float64 array, about one entry in three special,
    and a given validity mask."""
    height, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = height * width * channels
    entry = st.one_of(st.sampled_from(_SPECIALS), st.floats(-1e12, 1e12), st.floats(-1e12, 1e12))
    values = np.array(draw(st.lists(entry, min_size=count, max_size=count)))
    valid = np.array(draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width)))
    return values.reshape(height, width, channels), valid.reshape(height, width)


class TestChannelValidity:
    """The per-channel masks equal the np.all(..., axis=2) expressions they replace."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([(FlowField, 2), (Pointmap, 3)]).flatmap(
        lambda kind: st.tuples(st.just(kind[0]), channel_arrays(kind[1]))))
    def test_constructor_mask(self, case):
        kind, (values, valid) = case
        got = kind(values, valid).valid
        assert np.array_equal(got, valid & np.all(np.isfinite(values), axis=2))

    @settings(max_examples=100, deadline=None)
    @given(channel_arrays(2))
    def test_read_flo_mask(self, case):
        values, _ = case
        height, width = values.shape[:2]
        payload = values.astype("<f4")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.flo"
            path.write_bytes(struct.pack("<fii", 202021.25, width, height) + payload.tobytes())
            back = read_flo(path)
        wide = payload.astype(np.float64)
        assert np.array_equal(back.valid, np.all(np.abs(wide) < 1e9, axis=2))
        assert np.array_equal(back.vectors, wide, equal_nan=True)
