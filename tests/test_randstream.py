"""Random streams, Cauchy draws, scale estimation."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from l1sketch import (
    ParameterError,
    RandomStream,
    geometric_mean_estimate,
    required_sample_count,
    sample_cauchy,
)
from l1sketch.randstream import cauchy_in_place

_SRC = Path(__file__).resolve().parents[1] / "src" / "l1sketch"


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


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("stream_id", [0, 1, 5, 64, -1])
def test_stream_is_the_spawned_child_of_its_seed(seed, stream_id):
    # stream k of seed s is numpy's k-th spawned child of SeedSequence(s);
    # a negative id is masked to 64 bits, so -1 names child 2**64 - 1, whose
    # spawn key, (k,), is built directly: spawn counts children in 32 bits
    k = stream_id % 2**64
    if k < 64:
        child = np.random.SeedSequence(seed).spawn(k + 1)[k]
    else:
        child = np.random.SeedSequence(seed, spawn_key=(k,))
    want = np.random.Generator(np.random.SFC64(child)).random(100)
    np.testing.assert_array_equal(RandomStream(seed, stream_id).random(100), want)


def _numpy_random_calls(source: str) -> list[int]:
    """Lines of ``source`` that call anything in ``numpy.random`` (a bit
    generator, ``Generator``, ``default_rng``, ``SeedSequence`` or a legacy
    global draw) or import names from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            modules = [ast.unparse(node.func.value)]
        else:
            continue
        if any(m == "np.random" or m.startswith("numpy.random") for m in modules):
            lines.append(node.lineno)
    return lines


def test_randstream_is_the_only_generator_site():
    # every draw in the package comes from a RandomStream
    sites = {p.name: _numpy_random_calls(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    assert sites.pop("randstream.py"), "the scan no longer sees RandomStream's own generator"
    assert {name: lines for name, lines in sites.items() if lines} == {}


def test_cauchy_in_place_is_standard_cauchy():
    u = RandomStream(11).random(50_000)
    cauchy_in_place(u)
    assert stats.kstest(u, stats.cauchy.cdf).pvalue > 0.01


def test_cauchy_in_place_finite_at_one_half_and_zero():
    x = np.array([0.5, 0.0])
    cauchy_in_place(x)
    assert np.isfinite(x).all() and x[1] == 0.0


def test_cauchy_scale_zero_returns_center():
    draws = sample_cauchy(3.5, 0.0, RandomStream(1), size=100)
    assert np.all(draws == 3.5)


def test_cauchy_negative_scale_rejected():
    with pytest.raises(ParameterError):
        sample_cauchy(0.0, -1.0, RandomStream(1), size=1)


@pytest.mark.parametrize(
    "center,scale", [(0.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (-math.inf, 0.0)]
)
def test_cauchy_non_finite_center_or_scale_rejected(center, scale):
    # a NaN scale once passed the scale < 0 test and gave NaN draws
    with pytest.raises(ParameterError, match="need a finite center and scale >= 0"):
        sample_cauchy(center, scale, RandomStream(1), size=1)


def test_cauchy_draws_are_center_plus_scale_times_tan():
    u = RandomStream(4).random(1_000)
    draws = sample_cauchy(1.5, 2.0, RandomStream(4), size=1_000)
    np.testing.assert_array_equal(draws, 1.5 + 2.0 * np.tan(np.pi * u))


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

