import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from endogeo.rasters import bilinear_sample

from oracles import _bilinear


@st.composite
def sampling_cases(draw):
    """An (H, W) or (H, W, C) raster, a validity mask, and sample locations
    mixing arbitrary floats, exact integers and the far edge, in and out of
    bounds."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(1, 6))
    channels = draw(st.sampled_from([0, 1, 3]))
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
