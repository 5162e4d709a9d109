"""The exact pair sampler: density formulas, envelope, rejection, rescaling.

The closed-form density is cross-checked against an independent
characteristic-function oracle (see conftest), against the closed form
written in complex arithmetic, and on the line ``x0 = 2 x1`` against that
form's limit there.
"""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, kstest

from conftest import cf_pair_density, ks_against_cauchy, random_segment_family
import l1sketch.ci1 as ci1_mod
import l1sketch.pipeline as pipeline_mod
from l1sketch import (
    Breakpoints,
    DensityFamily,
    EnvelopeDominationError,
    ParameterError,
    PiecewisePolyDensity,
    RandomStream,
    SketchMode,
    ci1_density,
    rescale_cid,
    sample_ci1_unit,
    sample_student_envelope,
    sketch_family,
    student_envelope_density,
)
from l1sketch.ci1 import (
    CHECKED_RADIUS,
    DOMINATION_C,
    REJECTION_OVERHEAD,
    SQUEEZE_K,
    UNIFORMS_PER_PAIR,
    _accept_mask,
    _candidate_block,
    _density_generic,
    fill_pairs,
    first_block,
    pairs_scratch,
)
from l1sketch.io import save_family
from l1sketch.randstream import _CALL_DRAWS, Workspace, fill_groups, group_rows

PI = np.pi

#: Fixed example sequence, like the fixed seeds of the rest of the suite.
DETERMINISTIC = settings(deadline=None, derandomize=True)


# -------------------------------------------------------------------- density
def test_density_frozen_diagonal_values():
    assert ci1_density(0.0, 0.0) == pytest.approx(4.0 / PI**2 + 1.0 / PI, rel=1e-12)
    assert ci1_density(0.0, 0.0) == pytest.approx(0.723595, abs=1e-6)
    assert ci1_density(1.0, 0.5) == pytest.approx(
        1.0 / PI**2 + 1.0 / (2.0 * np.sqrt(2.0) * PI), rel=1e-12
    )
    assert ci1_density(1.0, 0.5) == pytest.approx(0.213861, abs=1e-6)


@pytest.mark.parametrize(
    "x0,x1",
    [(1.0, 0.25), (0.3, -0.7), (2.0, 1.3), (0.0, 10.0), (5.0, -1.0), (-0.8, 0.05)],
)
def test_density_matches_characteristic_function_oracle(x0, x1):
    assert ci1_density(x0, x1) == pytest.approx(cf_pair_density(x0, x1), abs=1e-6)


def _complex_density(x0, x1):
    """The closed form in complex arithmetic: principal square root, two
    principal logarithms and a complex division.  It divides by
    ``x0 - 2 x1``, so it is used only outside :func:`_band`."""
    delta = x0 - 2.0 * x1
    s0 = 1.0 + x0 * x0
    q = s0 - 2j * delta
    root_q = np.sqrt(q)
    w = 1j * root_q / delta
    atan_w = 0.5j * (np.log(1.0 - 1j * w) - np.log(1.0 + 1j * w))
    flat = 4.0 / PI**2 / (s0 * s0 + 4.0 * delta * delta)
    return flat + 2.0 / PI**2 * np.real(atan_w / (q * root_q))


def _band(x0):
    """Half-width of a band around ``x0 = 2 x1`` where the complex form
    cancels: there the density is checked against :func:`_diagonal_density`."""
    return 1e-8 * (1.0 + np.abs(x0))


def _diagonal_density(x0):
    """The closed form's limit on the line ``x0 = 2 x1``."""
    s0 = 1.0 + x0 * x0
    return 4.0 / PI**2 / (s0 * s0) + 1.0 / (PI * s0 * np.sqrt(s0))


def test_density_matches_complex_reference_on_proposals():
    z0, z1 = sample_student_envelope(RandomStream(16), size=1_000_000)
    on_diag = np.abs(z0 - 2.0 * z1) <= _band(z0)
    off = ~on_diag
    x0, x1 = z0[off], z1[off]
    ref = _complex_density(x0, x1)
    got = _density_generic(x0, np.abs(x0 - 2.0 * x1))
    near = np.hypot(x0, x1) <= 100.0
    assert near.sum() > 900_000
    np.testing.assert_allclose(got[near], ref[near], rtol=1e-10)
    np.testing.assert_allclose(got, ref, rtol=1e-6)
    # the squeezed test on the real form decides as the plain test on the
    # complex form
    f_ref = np.empty(z0.size)
    f_ref[off] = ref
    f_ref[on_diag] = _diagonal_density(z0[on_diag])
    u = RandomStream(15).generator.random(z0.size)
    plain = u * REJECTION_OVERHEAD * student_envelope_density(z0, z1) <= f_ref
    np.testing.assert_array_equal(_accept_mask(z0, z1, u), plain)


# directions where the generic formula is hardest: the axes, where it
# cancels far out, and the diagonal x0 = 2 x1, where the complex form divides
# by zero
DIAGONAL = np.arctan2(1.0, 2.0)  # direction of the line x0 = 2 x1
_HARD_DIRECTIONS = (0.0, PI / 2, PI, -PI / 2, DIAGONAL, DIAGONAL - PI, PI / 4)


def _hypothesis_point(log_radius, centre, offset):
    r = 10.0**log_radius
    return r * np.cos(centre + offset), r * np.sin(centre + offset)


@settings(DETERMINISTIC, max_examples=1_500)
@given(
    log_radius=st.floats(-6.0, 6.0),
    centre=st.sampled_from(_HARD_DIRECTIONS),
    offset=st.floats(-PI, PI),
)
def test_density_symmetric_nonnegative_and_squeezed_within_radius_1e6(log_radius, centre, offset):
    x0, x1 = _hypothesis_point(log_radius, centre, offset)
    with np.errstate(all="raise"):
        f = ci1_density(x0, x1)
        g = student_envelope_density(x0, x1)
    assert ci1_density(-x0, -x1) == f
    assert f >= 0.0
    assert f <= SQUEEZE_K * g


@settings(DETERMINISTIC, max_examples=1_500)
@given(
    log_radius=st.floats(-6.0, 2.0),
    centre=st.sampled_from(_HARD_DIRECTIONS),
    offset=st.floats(-PI, PI),
)
def test_density_matches_complex_reference_within_radius_100(log_radius, centre, offset):
    x0, x1 = _hypothesis_point(log_radius, centre, offset)
    if abs(x0 - 2.0 * x1) <= _band(x0):
        return  # the complex form cancels there; see the test on the band
    assert ci1_density(x0, x1) == pytest.approx(_complex_density(x0, x1), rel=1e-10)


def test_density_point_symmetry():
    gen = np.random.default_rng(5)
    pts = gen.uniform(-20, 20, (200, 2))
    np.testing.assert_allclose(
        ci1_density(pts[:, 0], pts[:, 1]),
        ci1_density(-pts[:, 0], -pts[:, 1]),
        rtol=1e-12,
    )


def test_density_nonnegative_on_wide_grid():
    gen = np.random.default_rng(6)
    pts = np.exp(gen.uniform(np.log(1e-3), np.log(1e4), (20_000, 2)))
    pts *= np.sign(gen.standard_normal((20_000, 2)))
    assert np.all(ci1_density(pts[:, 0], pts[:, 1]) >= 0.0)


def test_density_continuity_across_the_line_x0_eq_2x1():
    for x0 in (-2.0, 0.0, 1.0, 5.0):
        diag = ci1_density(x0, x0 / 2.0)
        for off in (1e-6, -1e-6):
            assert abs(ci1_density(x0, x0 / 2.0 + off) - diag) <= 1e-4


def test_density_on_the_diagonal_band_matches_the_diagonal_form():
    # the one kernel, without a branch, on and near the line x0 = 2 x1: at
    # delta = 0, across the band where the complex form cancels, and at
    # delta = 1e-200, whose square underflows, with no floating-point error
    x0 = np.concatenate([[0.0, 1.0, -3.0, 1e3], np.logspace(-3, 5, 40)])
    tiny = np.array([0.0, 0.0, 1e-200, -1e-200])
    cases = [(x0, x0 / 2.0), (x0, (x0 - _band(x0)) / 2.0), (x0, (x0 + 0.5 * _band(x0)) / 2.0)]
    cases.append((tiny, np.array([5e-201, -5e-201, 0.0, 0.0])))
    for a, b in cases:
        with np.errstate(all="raise"):
            got = ci1_density(a, b)
        np.testing.assert_allclose(got, _diagonal_density(a), rtol=2e-15, atol=0.0)
    assert np.all(np.abs(tiny - 2.0 * cases[-1][1]) == 1e-200)
    assert ci1_density(1.0, 0.5) == _density_generic(1.0, 0.0) > 0.0
    assert ci1_density(1.0, 0.0) == _density_generic(1.0, 1.0)


# ------------------------------------------------------------- density bits
def _allocating_density(x0, x1):
    """:func:`ci1_density` as whole-array expressions, each step a new
    temporary, written out here: the form the kernel must give bit for
    bit."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    with np.errstate(under="ignore"):
        delta = np.abs(x0 - 2.0 * x1)
        s0 = 1.0 + x0 * x0
        d2 = delta * delta
        q2 = s0 * s0 + 4.0 * d2
        root = np.sqrt(q2)
        a2 = 0.5 * (root + s0)
        a = np.sqrt(a2)
        b2 = d2 / a2
        re2 = np.arctan2(2.0 * d2, a * (d2 - root))
        im4 = np.log1p(4.0 * a * delta / ((delta - a) ** 2 + b2))
        half_minus_im = delta * (s0 + 0.5 * root) / a
        return (4.0 + (re2 * a * (2.0 * s0 - root) - im4 * half_minus_im) / root) / (PI**2 * q2)


def _assert_density_bits(x0, x1):
    """ci1_density equals the allocating form, NaN for NaN; so does
    _density_generic given its delta."""
    with np.errstate(all="ignore"):
        ref = _allocating_density(x0, x1)
        np.testing.assert_array_equal(ci1_density(x0, x1), ref)
        delta = np.abs(np.asarray(x0, dtype=float) - 2.0 * np.asarray(x1, dtype=float))
        np.testing.assert_array_equal(_density_generic(x0, delta), ref)


def test_in_place_density_bits_on_the_polar_scan_out_to_the_checked_radius():
    offsets = np.concatenate([[0.0], np.logspace(-12, -1, 45), -np.logspace(-12, -1, 45)])
    centres = (0.0, PI / 2, PI, 3 * PI / 2, DIAGONAL, DIAGONAL + PI)
    angles = np.concatenate(
        [np.linspace(0.0, 2.0 * PI, 720, endpoint=False)] + [c + offsets for c in centres]
    )
    _assert_density_bits(*_polar(np.logspace(-6, math.log10(CHECKED_RADIUS), 400), angles))


def test_in_place_density_bits_on_the_band_around_x0_eq_2x1():
    x0 = np.concatenate([[0.0, 1.0, -3.0, 1e3, 1e-200], np.logspace(-3, 8, 200)])
    x0 = np.concatenate([x0, -x0])
    for x1 in (x0 / 2.0, (x0 - _band(x0)) / 2.0, (x0 + 0.5 * _band(x0)) / 2.0, x0 / 2.0 + 1e-200):
        _assert_density_bits(x0, x1)


def test_in_place_density_bits_in_the_far_field_out_to_radius_1e80():
    # the formula cancels there and, past radius about 1e77, gives NaN
    angles = np.concatenate([np.linspace(0.0, 2.0 * PI, 360, endpoint=False), [PI / 2, DIAGONAL]])
    x0, x1 = _polar(np.logspace(6, 80, 300), angles)
    with np.errstate(all="ignore"):
        assert np.isnan(_allocating_density(x0, x1)).any()
    _assert_density_bits(x0, x1)
    gen = RandomStream(51).generator
    z = np.tan(PI * gen.random((2, 20_000)))
    for scale in (1e-3, 1.0, 1e3, 1e6, 1e12, 1e20, 1e80):
        _assert_density_bits(scale * z[0], scale * z[1])


def test_in_place_density_bits_on_0d_and_broadcast_inputs():
    # a 0-d input gives a numpy float, with the bits of a one-element array
    gen = RandomStream(52).generator
    for a, b in np.tan(PI * gen.random((2000, 2))) * np.exp(gen.uniform(-5.0, 5.0, (2000, 1))):
        f = ci1_density(a, b)
        assert type(f) is np.float64
        assert f == _allocating_density([a], [b])[0]
    axis = np.linspace(-3.0, 3.0, 41)
    for x0, x1 in ((axis[:, None], axis[None, :]), (1.5, axis), (axis, -0.25), (axis[:0], 1.0)):
        _assert_density_bits(x0, x1)
        assert ci1_density(x0, x1).shape == np.broadcast_shapes(np.shape(x0), np.shape(x1))


def test_density_of_0d_inputs_has_the_bits_of_the_same_points_in_an_array():
    # numpy squares a numpy float by C pow(), whose last bit can differ from
    # the x * x it uses for arrays: squared so, 3 of these points differ
    x0, x1 = np.tan(PI * RandomStream(53).generator.random((2, 20_000)))
    whole = ci1_density(x0, x1)
    np.testing.assert_array_equal([ci1_density(a, b) for a, b in zip(x0, x1)], whole)


def _peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while ``fn()`` runs, above
    what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: Candidates in the first block of a group of 18 replicates on the 71 grid
#: intervals of the degree-1 benchmark family.
_GROUP_K = first_block(18 * 71)


def test_candidate_block_given_its_workspace_peaks_below_four_rows():
    # the draw and the squeeze run in the workspace, and only the few
    # undecided candidates' points and density are new arrays; the block
    # returns views of the workspace
    gen = RandomStream(54).generator
    work = Workspace()
    _candidate_block(gen, _GROUP_K, work)
    assert _peak_bytes(lambda: _candidate_block(gen, _GROUP_K, work)) <= 4 * 8 * _GROUP_K


@pytest.mark.parametrize("replicates", [18, 10, 64, 1])
def test_pairs_scratch_is_the_measured_peak_of_a_group(replicates):
    # the count sketch_family gives _fan_out for a group's degree-1 scratch
    # is what a fill_pairs call in a new workspace holds at its peak
    out = np.empty((replicates, 71, 2))
    gen = RandomStream(55).generator
    counted = 8 * pairs_scratch(out[..., 0].size)
    ci1_mod._squeeze_table()  # built once per process, before any group
    # a process's first call also makes numpy's one-time allocations
    fill_pairs(RandomStream(56).generator, out, Workspace())
    for _ in range(5):
        peak = _peak_bytes(lambda: fill_pairs(gen, out, Workspace()))
        assert 0.9 * counted <= peak <= counted


def test_fill_pairs_writes_into_out_and_refuses_a_copy():
    # the rejection loop writes its accepted pairs through a view of out;
    # an out that reshapes to (n, 2) only as a copy would lose them
    z = np.full((6, 3, 2), np.nan)
    fill_pairs(RandomStream(57).generator, z[2:4], Workspace())
    assert np.isfinite(z[2:4]).all() and np.isnan(z[:2]).all() and np.isnan(z[4:]).all()
    with pytest.raises(ParameterError, match="as a view"):
        fill_pairs(RandomStream(57).generator, z[:, :2], Workspace())


def test_fill_groups_lends_one_workspace_that_every_block_reuses():
    # a block of 64 replicates on 284 intervals: groups of 18, 18, 18 and 10
    # replicates in one workspace, sized by the first group's first block
    # (its front, cells and bounds: a block's one request), with the bits
    # of a new workspace for every group
    per_rep = 284 * UNIFORMS_PER_PAIR
    seen = []

    def recording(gen, out, work):
        fill_pairs(gen, out, work)
        seen.append((work, work.floats(1).ctypes.data))

    z = np.empty((64, 284, 2))
    fill_groups(RandomStream(56).generator, recording, z, per_rep)
    assert len(seen) == 4 and len(set(seen)) == 1
    k = first_block(18 * 284)
    assert seen[0][0].floats(0).base.size == ci1_mod._front(k) + 2 * k
    ref = np.empty_like(z)
    gen = RandomStream(56).generator
    group = group_rows(per_rep)
    for g0 in range(0, 64, group):
        fill_pairs(gen, ref[g0 : g0 + group], Workspace())
    np.testing.assert_array_equal(z, ref)


# ------------------------------------------------------------------- envelope
def test_envelope_frozen_values():
    assert student_envelope_density(0.0, 0.0) == pytest.approx(1.0 / PI, rel=1e-14)
    assert student_envelope_density(1.0, 0.5) == pytest.approx(
        (1.0 / PI) * 2.0 ** (-1.5), rel=1e-14
    )


def test_envelope_integrates_to_one():
    from scipy.integrate import quad

    # inner integral over x1 in closed form, outer by quadrature
    def inner_mass(x0):
        a2 = 1.0 + x0 * x0
        vhi, vlo = 2.0 * 4000.0 - x0, -2.0 * 4000.0 - x0
        anti = lambda v: v / (a2 * np.sqrt(a2 + v * v))
        return (anti(vhi) - anti(vlo)) / (2.0 * PI)

    val, _ = quad(inner_mass, -4000.0, 4000.0, limit=400)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_envelope_sampler_marginals():
    z0, z1 = sample_student_envelope(RandomStream(7), size=100_000)
    assert abs(np.median(np.abs(z0)) - 1.0) < 0.03
    assert abs(np.median(np.abs(2.0 * z1 - z0)) - 1.0) < 0.03


def test_envelope_law_projections_and_radius():
    # the law of (u, v) = (x0, 2 x1 - x0), whatever the draw: the spherical
    # Student(1) law, so every projection on a unit direction is standard
    # Cauchy and the radius R has P(R <= r) = 1 - (1 + r^2)^(-1/2)
    x0, x1 = sample_student_envelope(RandomStream(17), size=200_000)
    u, v = x0, 2.0 * x1 - x0
    for angle in (0.0, 0.7, PI / 2, 2.5):
        assert ks_against_cauchy(np.cos(angle) * u + np.sin(angle) * v, 1.0) < 0.005
    radius = np.hypot(u, v)
    assert kstest(radius, lambda r: 1.0 - (1.0 + r * r) ** -0.5).statistic < 0.005


def test_envelope_sampler_deterministic():
    a0, a1 = sample_student_envelope(RandomStream(8, 3), size=100)
    b0, b1 = sample_student_envelope(RandomStream(8, 3), size=100)
    np.testing.assert_array_equal(a0, b0)
    np.testing.assert_array_equal(a1, b1)


# ---------------------------------------------------------- rejection sampler
def test_sampler_marginals_ks():
    z0, z1 = sample_ci1_unit(RandomStream(9), size=20_000)
    assert ks_against_cauchy(z0, 1.0) < 0.02
    assert ks_against_cauchy(z1, 0.5) < 0.02


def test_sampler_scalar_and_empty():
    x0, x1 = sample_ci1_unit(RandomStream(10), size=0)
    assert x0.size == 0 and x1.size == 0
    with pytest.raises(ParameterError, match="size must be >= 0"):
        sample_ci1_unit(RandomStream(10), size=-1)


def _unit_pairs(gen, need):
    """``need`` pairs from one fill_pairs call in a new workspace, as ``(x0, x1)``."""
    out = np.empty((need, 2))
    fill_pairs(gen, out, Workspace())
    return out[:, 0], out[:, 1]


def test_sampler_draws_in_groups_of_the_sketch_size():
    # sample_ci1_unit calls the rejection loop for groups of
    # _CALL_DRAWS // 9 draws in turn on one stream, as the sketch does
    group = int(_CALL_DRAWS // UNIFORMS_PER_PAIR)
    assert group == 5_333
    x0, x1 = sample_ci1_unit(RandomStream(19), size=2 * group + 5)
    gen = RandomStream(19).generator
    parts = [_unit_pairs(gen, k) for k in (group, group, 5)]
    np.testing.assert_array_equal(x0, np.concatenate([p[0] for p in parts]))
    np.testing.assert_array_equal(x1, np.concatenate([p[1] for p in parts]))


def test_rejection_loop_raises_instead_of_looping(monkeypatch):
    def reject_all(x0, x1, **kwargs):
        return np.full(np.shape(x0), -1.0)

    # a density below zero everywhere rejects every candidate that meets
    # it, in the one rejection loop, which the sketch calls too; a squeeze
    # table that decides nothing sends every candidate to it
    monkeypatch.setattr(ci1_mod, "ci1_density", reject_all)
    monkeypatch.setattr(ci1_mod, "_table", _NO_SQUEEZE)
    with pytest.raises(EnvelopeDominationError):
        sample_ci1_unit(RandomStream(14), size=3)
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 0.5, 1.0])),
        [
            PiecewisePolyDensity("flat", [0], [2], [[1.0, 0.0]], 1),
            PiecewisePolyDensity("ramp", [0], [2], [[0.0, 2.0]], 1),
        ],
        1,
    )
    with pytest.raises(EnvelopeDominationError):
        sketch_family(fam, 5, SketchMode.EXACT_CI1, RandomStream(16))


def test_candidate_test_is_the_proposal_test_past_the_squeeze():
    # a candidate's uniform w stands for the proposal uniform u with
    # u * C/pi = w * K, and the candidate decides as _accept_mask does there
    k = 200_000
    u, accept = _candidate_block(RandomStream(18).generator, k, Workspace())
    x0, x1 = _points(u)
    w = RandomStream(18).generator.random((3, k))[2]
    np.testing.assert_array_equal(accept, _accept_mask(x0, x1, w * (SQUEEZE_K / REJECTION_OVERHEAD)))
    assert abs(accept.mean() - 1.0 / SQUEEZE_K) < 4.0 * math.sqrt(2.0 / 9.0 / k)


def test_first_block_covers_the_expected_count_with_a_shrinking_margin():
    shares = []
    for need in (1, 3, 10, 71, 1_000, 18 * 71, 64 * 71, 100_000):
        k = first_block(need)
        assert k >= math.ceil(need * SQUEEZE_K) and k >= 64
        shares.append(k / (need * SQUEEZE_K) - 1.0)
    assert all(a > b for a, b in zip(shares, shares[1:]))


def test_first_block_shortfall_share_matches_binomial():
    # each candidate is accepted with probability exactly 1/K, so the
    # accepts of a first block of k are Binomial(k, 1/K): their mean and
    # variance over the calls match it, and so does the share of blocks
    # that fall short, about 0.3% at this margin of 2.8 standard deviations
    need, calls = 1_000, 2_000
    k = first_block(need)
    p = 1.0 / SQUEEZE_K
    gens = [RandomStream(48, i).generator for i in range(calls)]
    counts = np.array([int(_candidate_block(gen, k, Workspace())[1].sum()) for gen in gens])
    var = k * p * (1.0 - p)
    assert abs(counts.mean() - k * p) <= 4.0 * math.sqrt(var / calls)
    assert abs(counts.var() / var - 1.0) <= 4.0 * math.sqrt(2.0 / calls)
    short_p = binom.cdf(need - 1, k, p)
    assert 0.001 < short_p < 0.01
    short = int((counts < need).sum())
    assert abs(short - calls * short_p) <= 4.0 * math.sqrt(calls * short_p * (1.0 - short_p))


def test_linear_functional_law():
    z0, z1 = sample_ci1_unit(RandomStream(11), size=100_000)
    cases = {(1.0, -2.0): 0.5, (3.0, 0.0): 3.0, (1.0, 1.0): 1.5}
    for (c0, c1), scale in cases.items():
        assert ks_against_cauchy(c0 * z0 + c1 * z1, scale) < 0.01


def test_domination_on_moderate_grid():
    gen = np.random.default_rng(12)
    r = np.exp(gen.uniform(np.log(1e-3), np.log(1e3), 50_000))
    th = gen.uniform(0.0, 2.0 * PI, 50_000)
    x0, x1 = r * np.cos(th), r * np.sin(th)
    f = ci1_density(x0, x1)
    g = student_envelope_density(x0, x1)
    assert np.all(f <= (DOMINATION_C / PI) * g)


def test_envelope_bound_observed_supremum():
    # The density/envelope ratio approaches 2*sqrt(2) ~ 2.828 only in a joint
    # limit: direction tending to (1, 1) while the radius grows.  A uniform
    # grid capped at radius 1e4 tops out near 2.78, so the observation grid
    # adds fine angular offsets around that direction and larger radii.
    deltas = np.concatenate([[0.0], np.logspace(-7, -1, 120), -np.logspace(-7, -1, 120)])
    angles = np.concatenate([np.linspace(0.0, 2.0 * PI, 360, endpoint=False), PI / 4 + deltas])
    radii = np.logspace(-3, 7, 250)
    a, r = np.meshgrid(angles, radii, indexing="ij")
    x0 = (r * np.cos(a)).ravel()
    x1 = (r * np.sin(a)).ravel()
    ratio = ci1_density(x0, x1) / student_envelope_density(x0, x1)
    top = float(ratio.max())
    assert 2.8 <= top <= DOMINATION_C / PI


# -------------------------------------------------------------- upper squeeze
def _polar(radii, angles):
    a, r = np.meshgrid(angles, radii, indexing="ij")
    return (r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()


def _plain_accept(x0, x1, u01):
    """The rejection test without the squeeze."""
    with np.errstate(all="ignore"):
        return u01 * REJECTION_OVERHEAD * student_envelope_density(x0, x1) <= ci1_density(x0, x1)


def test_density_range_claimed_out_to_radius_1e6():
    # the range ci1_density's docstring claims: nonnegative and below the
    # squeeze bound out to radius 1e6, including directions close to both
    # axes (where the generic formula cancels farther out) and to the
    # diagonal, with no floating-point error on the way
    offsets = np.concatenate([[0.0], np.logspace(-12, -1, 45), -np.logspace(-12, -1, 45)])
    centres = (0.0, PI / 2, PI, 3 * PI / 2, DIAGONAL, DIAGONAL + PI)
    angles = np.concatenate(
        [np.linspace(0.0, 2.0 * PI, 720, endpoint=False)] + [c + offsets for c in centres]
    )
    x0, x1 = _polar(np.logspace(-6, 6, 400), angles)
    with np.errstate(all="raise"):
        f = ci1_density(x0, x1)
        ratio = f / student_envelope_density(x0, x1)
    assert f.min() >= 0.0
    assert ratio.max() < SQUEEZE_K


def test_squeeze_bound_holds_wherever_it_applies():
    # every direction, plus directions within 1e-9 of the diagonal and of the
    # x1 axis (where the generic formula cancels at large radius), out to
    # radius 1e150, and 1e6 envelope proposals: the computed density stays
    # below the squeeze bound wherever the envelope is at least g_min
    # (radius up to about 7e7); beyond, see the next test
    g_min = 1e-24
    offsets = np.concatenate([[0.0], np.logspace(-17, -9, 40), -np.logspace(-17, -9, 40)])
    centres = (DIAGONAL, DIAGONAL + PI, PI / 2, 3 * PI / 2, PI / 4, 5 * PI / 4)
    angles = np.concatenate(
        [np.linspace(0.0, 2.0 * PI, 720, endpoint=False)] + [c + offsets for c in centres]
    )
    grid = _polar(np.logspace(-6, 150, 300), angles)
    z0, z1 = sample_student_envelope(RandomStream(14), size=1_000_000)
    for x0, x1 in (grid, (z0, z1)):
        with np.errstate(all="ignore"):
            g = student_envelope_density(x0, x1)
        inside = g >= g_min
        assert inside.any()
        for part in np.array_split(np.flatnonzero(inside), 5):
            ratio = ci1_density(x0[part], x1[part]) / g[part]
            assert ratio.max() < SQUEEZE_K


def test_squeeze_off_where_density_cancels():
    # near the x1 axis, from about |x1| = 1.4e16, the computed density is
    # rounding noise of either sign that at some points passes SQUEEZE_K
    # times the envelope (cancellation: the true density stays below
    # 2 sqrt(2) times it), so there the squeeze changes decisions
    x1 = np.array([5e17, -5e17])
    assert np.all(ci1_density(np.zeros(2), x1) > SQUEEZE_K * student_envelope_density(0.0, x1))


def test_accept_mask_equals_plain_test_on_proposals():
    gen = RandomStream(15).generator
    z0, z1 = sample_student_envelope(RandomStream(16), size=1_000_000)
    u = gen.random(z0.size)
    np.testing.assert_array_equal(_accept_mask(z0, z1, u), _plain_accept(z0, z1, u))


def test_accept_mask_equals_plain_test_on_adversarial_points():
    cut = SQUEEZE_K / REJECTION_OVERHEAD
    ulps = [cut]
    for _ in range(4):
        ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], 1.0)]
    u = np.array([0.0, 5e-324, *ulps, 0.5, np.nextafter(1.0, 0.0)])
    band = np.array([-1e3, -1.0, 0.0, 1.0, 1e3])
    diagonal_band = [
        (band, band / 2.0 + k * _band(band)) for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    ]
    near_top = _polar(np.logspace(3, 8, 30), PI / 4 + np.array([0.0, 1e-7, -1e-7, 1e-4]))
    huge = _polar(np.logspace(7, 300, 60), np.linspace(0.0, 2.0 * PI, 13))
    axis = (np.zeros(10), np.array([1e8, 1e10, 3e11, 1e12, 1e15, 5e17, -1e11, -1e13, -5e17, 1e150]))
    x0, x1 = (np.concatenate(c) for c in zip(*diagonal_band, near_top, huge, axis))
    uu, xx0 = np.meshgrid(u, x0, indexing="ij")
    _, xx1 = np.meshgrid(u, x1, indexing="ij")
    uu, xx0, xx1 = uu.ravel(), xx0.ravel(), xx1.ravel()
    with np.errstate(all="ignore"):
        mine = _accept_mask(xx0, xx1, uu)
        plain = _plain_accept(xx0, xx1, uu)
    # reject above the cut, else the plain test
    np.testing.assert_array_equal(mine, plain & (uu * REJECTION_OVERHEAD <= SQUEEZE_K))
    assert mine.any() and not mine.all()
    # the far-field axis points, where the computed density passes 3 times
    # the envelope from about |x1| = 1.4e16, are rejected above the cut
    # though the plain test accepts some of them
    far = (xx0 == 0.0) & (np.abs(xx1) >= 3e11)
    above = uu * REJECTION_OVERHEAD > SQUEEZE_K
    assert not mine[far & above].any()
    assert plain[far & above].any()


# -------------------------------------------------------------- squeeze table
#: A squeeze table that decides no candidate, so every one meets the density.
_NO_SQUEEZE = tuple(np.full(ci1_mod._CELLS**2 + 1, v) for v in (-np.inf, np.inf))


def _points(u):
    """Envelope points of every candidate of a block's ``(3, k)`` uniforms."""
    x0, x1, _ = ci1_mod._envelope_points(u[:2].copy())
    return x0, x1


def _plain_fill(gen, out, work=None):
    """The rejection loop with the plain candidate test on every candidate,
    into ``out`` as fill_pairs fills it: a first block of first_block(need)
    candidates, then top-ups of 1.4 times the expected count still missing,
    at least 64; a block is one (3, k) uniform draw, a p of 0 redrawn over
    the whole row, every candidate's point, and accept when w K/pi <= f
    t^(3/2).  Returns the number of blocks."""
    pairs = out.reshape(-1, 2)
    need, got, blocks = len(pairs), 0, 0
    k = ci1_mod.first_block(need)
    while got < need:
        u0, p, w = gen.random((3, k))
        zero = p == 0.0
        while zero.any():
            p[zero] = gen.random(int(zero.sum()))
            zero = p == 0.0
        x0 = np.tan(PI * u0)
        spread = (1.0 + x0 * x0) / (p * (1.0 - p))
        x1 = 0.5 * (x0 + np.sqrt(spread) * (p - 0.5))
        t = 0.25 * spread
        keep = np.flatnonzero(w * (SQUEEZE_K / PI) <= ci1_density(x0, x1) * (t * np.sqrt(t)))
        keep = keep[: need - got]
        pairs[got : got + keep.size, 0] = x0[keep]
        pairs[got : got + keep.size, 1] = x1[keep]
        got, blocks = got + keep.size, blocks + 1
        k = max(int((need - got) * SQUEEZE_K * 1.4), 64)
    return blocks


_SEEDS = st.integers(0, 2**64 - 1)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(seed=_SEEDS, need=st.one_of(st.integers(1, 24), st.integers(25, 5_000)))
def test_fill_pairs_gives_the_plain_loops_bytes(seed, need):
    # up to 21 pairs the first block is the 64-candidate minimum, and a
    # short block tops up
    out, ref = np.empty((need, 2)), np.empty((need, 2))
    fill_pairs(RandomStream(seed).generator, out, Workspace())
    _plain_fill(RandomStream(seed).generator, ref)
    assert out.tobytes() == ref.tobytes()


def test_small_groups_top_up_with_the_plain_loops_bytes(monkeypatch):
    # first blocks of the 64-candidate minimum for up to 40 pairs, so that
    # most groups from 22 pairs up fall short and top up in blocks of 64
    assert first_block(13) == 64
    monkeypatch.setattr(ci1_mod, "first_block", lambda need: 64)
    blocks = []
    for seed in range(200):
        need = 1 + seed % 40
        out, ref = np.empty((need, 2)), np.empty((need, 2))
        fill_pairs(RandomStream(seed, 7).generator, out, Workspace())
        blocks.append(_plain_fill(RandomStream(seed, 7).generator, ref))
        assert out.tobytes() == ref.tobytes()
    assert sum(b > 1 for b in blocks) >= 50 and max(blocks) >= 3


@settings(deadline=None, derandomize=True, max_examples=25)
@given(seed=_SEEDS, size=st.integers(0, 12_000))
def test_sample_ci1_unit_gives_the_plain_loops_bytes(seed, size):
    z = sample_ci1_unit(RandomStream(seed), size)
    ref = np.empty((size, 2))
    gen, group = RandomStream(seed).generator, group_rows(UNIFORMS_PER_PAIR)
    for g0 in range(0, size, group):
        _plain_fill(gen, ref[g0 : g0 + group])
    assert np.ascontiguousarray(z.T).tobytes() == ref.tobytes()


@settings(deadline=None, derandomize=True, max_examples=25)
@given(seed=_SEEDS, t=st.integers(1, 200), intervals=st.integers(1, 300), threads=st.sampled_from([1, 2]))
def test_degree_one_sketch_gives_the_plain_loops_bytes(seed, t, intervals, threads):
    # the sketch of the same groups, filled by the plain loop
    fam = random_segment_family(np.random.default_rng(intervals), 3, 1, n_intervals=intervals)
    sketch = sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(seed), threads=threads)
    with mock.patch.object(pipeline_mod, "fill_pairs", _plain_fill):
        ref = sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(seed))
    assert sketch.values.tobytes() == ref.values.tobytes()


def _cells_of(u):
    """The squeeze table entry of each candidate of the ``(2, n)`` uniforms,
    as the sampler finds it: its cell, or the strip's last entry."""
    g = ci1_mod._CELLS
    cell = (u[0] * g).astype(np.intp) * g + (u[1] * g).astype(np.intp)
    cell[np.abs(u[0] - 0.5) < ci1_mod._STRIP] = g * g
    return cell


def _assert_within_bounds(u):
    """The computed h of each candidate lies in its decided cell's bounds;
    returns the number of candidates in decided cells."""
    lo, hi = ci1_mod._squeeze_table()
    cell = _cells_of(u)
    h = ci1_mod._scaled_density(u.copy(), ci1_density)
    decided = np.isfinite(lo[cell])
    assert np.array_equal(decided, np.isfinite(hi[cell]))
    assert np.all(lo[cell][decided] <= h[decided])
    assert np.all(h[decided] <= hi[cell][decided])
    return int(decided.sum())


def test_table_bounds_the_computed_h_on_ten_million_candidates():
    gen, decided = RandomStream(71).generator, 0
    for _ in range(40):
        u = gen.random((2, 250_000))
        ci1_mod._redraw_zeros(gen, u[1])
        decided += _assert_within_bounds(u)
    assert decided >= 0.998 * 10**7


def test_table_bounds_the_computed_h_at_the_edges_of_the_square():
    # U1 within 1/64 of 0 or 1, where the points run out to radius 1e13 and
    # the computed density cancels far out; U0 near 1/2, 0 and 1; and the
    # uniforms a few ulps from the cell edges
    gen, n, ulp = np.random.default_rng(72), 200_000, 2.0**-53
    near = lambda lo, hi: np.maximum(np.round(np.exp(gen.uniform(np.log(lo), np.log(hi), n)) / ulp) * ulp, ulp)
    edge = near(ulp, 1 / 64)
    half = near(ci1_mod._STRIP, 1 / 64)
    g = ci1_mod._CELLS
    cells = lambda: gen.integers(0, g, n) / g + gen.integers(-3, 4, n) * ulp
    cases = [
        (gen.random(n), edge), (gen.random(n), 1.0 - edge),
        (0.5 - half, gen.random(n)), (0.5 + half, gen.random(n)),
        (0.5 - half, edge), (0.5 + half, 1.0 - edge), (edge, edge), (1.0 - edge, 1.0 - edge),
        (np.clip(cells(), 0.0, 1.0 - ulp), np.clip(cells(), ulp, 1.0 - ulp)),
    ]
    decided = [_assert_within_bounds(np.stack([u0, u1])) for u0, u1 in cases]
    # the cases beside U0 = 1/2 at the U1 edges fall in always evaluated cells
    assert decided[4] == decided[5] == 0 and sum(decided) > 6 * n


def test_squeeze_decides_all_but_about_five_percent_of_candidates():
    # the strip around U0 = 1/2 and the four U1-edge cells beside it are
    # always evaluated, and the rest where lo < w K/pi <= hi
    lo, hi = ci1_mod._squeeze_table()
    g = ci1_mod._CELLS
    assert np.isinf(lo).sum() == np.isinf(hi).sum() == 5
    u = RandomStream(73).generator.random((3, 10**6))
    cell, w = _cells_of(u), u[2] * (SQUEEZE_K / PI)
    open_ = (lo[cell] < w) & (w <= hi[cell])
    assert 0.045 < open_.mean() < 0.065


def test_importing_the_cli_and_loading_a_family_build_no_table(tmp_path):
    # setup_s times exactly this, so the table waits for the first draw
    path = tmp_path / "family.json"
    save_family(random_segment_family(np.random.default_rng(74), 3, 1), str(path))
    code = (
        "import sys, l1sketch.cli, l1sketch.ci1 as ci1, l1sketch.io as io\n"
        "io.load_family(sys.argv[1])\n"
        "print(ci1._table is None)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert run.stdout.strip() == "True", run.stderr


def test_table_build_peaks_below_two_megabytes():
    # one row of cells at a time, so it does not show in peak RSS
    assert _peak_bytes(ci1_mod._build_table) < 2 * 2**20


def test_concurrent_first_draws_build_the_table_once(monkeypatch):
    # more workers than cores, switching often, all drawing first at once
    builds, real = [], ci1_mod._build_table

    def slow_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return real()

    monkeypatch.setattr(ci1_mod, "_table", None)
    monkeypatch.setattr(ci1_mod, "_build_table", slow_build)
    fam = random_segment_family(np.random.default_rng(75), 3, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = sketch_family(fam, 8 * 64, SketchMode.EXACT_CI1, RandomStream(76), threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    one = sketch_family(fam, 8 * 64, SketchMode.EXACT_CI1, RandomStream(76))
    np.testing.assert_array_equal(many.values, one.values)


def test_table_build_reads_the_density_bound_at_import(monkeypatch):
    # a stub put over the module's density name, as a test or a tracer
    # does, changes what the sampler evaluates, not the table
    monkeypatch.setattr(ci1_mod, "ci1_density", lambda x0, x1, **kwargs: np.full(np.shape(x0), -1.0))
    lo, hi = ci1_mod._build_table()
    ref_lo, ref_hi = ci1_mod._squeeze_table()
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()


# -------------------------------------------------------------------- rescale
def _pairs(x0, x1):
    return np.column_stack([x0, x1])


def test_rescale_identity():
    z = _pairs(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
    out = rescale_cid(z, 0.0, 1.0)
    np.testing.assert_array_equal(out, z)


def test_rescale_laws():
    z0, z1 = sample_ci1_unit(RandomStream(13), size=100_000)
    wide = rescale_cid(_pairs(z0, z1), 0.0, 2.0)
    assert abs(np.median(np.abs(wide[:, 1])) - 2.0) < 0.06  # integral of |x| on [0,2]
    shifted = rescale_cid(_pairs(z0, z1), 3.0, 4.0)
    assert abs(np.median(np.abs(shifted[:, 0])) - 1.0) < 0.03  # unit-length interval
    assert ks_against_cauchy(shifted[:, 0], 1.0) < 0.01


def test_rescale_rejects_bad_interval():
    z = _pairs(0.0, 0.0)
    with pytest.raises(ParameterError):
        rescale_cid(z, 1.0, 1.0)
    with pytest.raises(ParameterError):
        rescale_cid(z, 2.0, 1.0)
