"""Random streams, Cauchy draws, scale estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sketch import (
    ParameterError,
    RandomStream,
    geometric_mean_estimate,
    required_sample_count,
    sample_cauchy,
)


def test_streams_reproducible():
    a = RandomStream(123, 7).random(64)
    b = RandomStream(123, 7).random(64)
    np.testing.assert_array_equal(a, b)


def test_streams_distinct_by_id_and_seed():
    base = RandomStream(123, 0).random(64)
    assert not np.array_equal(base, RandomStream(123, 1).random(64))
    assert not np.array_equal(base, RandomStream(124, 0).random(64))


def test_substream_matches_direct_construction():
    np.testing.assert_array_equal(
        RandomStream(9).substream(42).random(16), RandomStream(9, 42).random(16)
    )


def test_cauchy_scale_zero_returns_center():
    draws = sample_cauchy(3.5, 0.0, RandomStream(1), size=100)
    assert np.all(draws == 3.5)


def test_cauchy_negative_scale_rejected():
    with pytest.raises(ParameterError):
        sample_cauchy(0.0, -1.0, RandomStream(1))


def test_cauchy_median_and_quantile():
    draws = sample_cauchy(0.0, 1.0, RandomStream(2), size=100_000)
    # median of |C(0,1)| is tan(pi/4) = 1
    assert abs(np.median(np.abs(draws)) - 1.0) < 0.03
    draws3 = sample_cauchy(0.0, 3.0, RandomStream(3), size=100_000)
    assert abs(np.quantile(draws3, 0.75) - 3.0) < 0.09


def test_required_sample_count_values():
    assert required_sample_count(0.2, 0.1, 10) == 11053
    # epsilon = 1/2 boundary: t = 256 * ln(m^2/delta)
    assert required_sample_count(0.5, 0.5, 2) == math.ceil(256.0 * math.log(8.0))
    assert required_sample_count(0.1, 0.1, 5) > required_sample_count(0.1, 0.1, 3)


def test_required_sample_count_domain():
    for eps in (0.0, -0.1, 0.51, 1.0):
        with pytest.raises(ParameterError):
            required_sample_count(eps, 0.1, 5)
    with pytest.raises(ParameterError):
        required_sample_count(0.2, 1.5, 5)
    with pytest.raises(ParameterError):
        required_sample_count(0.2, 0.1, 1)


def test_geometric_mean_frozen_cases():
    assert geometric_mean_estimate([1.0, 4.0]) == pytest.approx(2.0, rel=1e-14)
    assert geometric_mean_estimate([2.5, 2.5, 2.5]) == pytest.approx(2.5, rel=1e-14)
    assert geometric_mean_estimate([1.0, 0.0, 5.0]) == 0.0
    with pytest.raises(ParameterError):
        geometric_mean_estimate([])


@settings(deadline=None, derandomize=True, max_examples=200)
@given(
    samples=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_geometric_mean_equals_log_mean_formula(samples):
    # exp(mean(log|x|)), or 0.0 if any sample is zero, bit for bit, with
    # NaN where the formula gives NaN
    x = np.abs(np.array(samples))
    if (x == 0.0).any():
        want = 0.0
    else:
        with np.errstate(invalid="ignore"):
            want = float(np.exp(np.mean(np.log(x))))
    got = geometric_mean_estimate(samples)
    np.testing.assert_array_equal(got, want)


def test_geometric_mean_overflow_safe():
    big = np.full(100, 1e300)
    assert geometric_mean_estimate(big) == pytest.approx(1e300, rel=1e-12)


def test_geometric_mean_scale_equivariance():
    rng = RandomStream(6)
    samples = sample_cauchy(0.0, 1.0, rng, size=1000)
    base = geometric_mean_estimate(samples)
    for lam in (1e-8, 3.7, 1e9):
        scaled = geometric_mean_estimate(lam * samples)
        assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_geometric_mean_concentration():
    # estimator on C(0,3) samples: t = 1e4, relative error 5 percent;
    # failure frequency over 200 runs must respect 2*exp(-t*eps^2/8)
    bound = 2.0 * math.exp(-1e4 * 0.05**2 / 8.0)
    failures = 0
    for rep in range(200):
        draws = sample_cauchy(0.0, 3.0, RandomStream(7, rep), size=10_000)
        est = geometric_mean_estimate(draws)
        if not (2.85 <= est <= 3.15):
            failures += 1
    assert failures / 200.0 <= bound

