"""Density families: validation, evaluation, merging, exact distances, sampling."""

import numpy as np
import pytest

from conftest import adaptive_simpson
from l1sketch import (
    Breakpoints,
    DensityFamily,
    FamilyFormatError,
    ParameterError,
    PiecewisePolyDensity,
    PolySegment,
    RandomStream,
    density_from_pieces,
    eval_density,
    exact_all_pairs,
    exact_l1_distance,
    merge_breakpoints,
    random_piecewise_linear_family,
    sample_from_density,
    uniform_density,
    validate_family,
)

TWO_X = density_from_pieces("2x", [(0.0, 1.0, np.array([0.0, 2.0]))], degree=1)
FLAT = density_from_pieces("one", [(0.0, 1.0, np.array([1.0, 0.0]))], degree=1)


def test_breakpoints_invariants():
    with pytest.raises(FamilyFormatError):
        Breakpoints(np.array([0.0]))
    with pytest.raises(FamilyFormatError):
        Breakpoints(np.array([0.0, 0.0]))
    with pytest.raises(FamilyFormatError):
        Breakpoints(np.array([0.0, np.inf]))


def test_segment_invariants():
    with pytest.raises(FamilyFormatError):
        PolySegment(1, 1, np.array([1.0]))  # empty interval is a hard error
    with pytest.raises(FamilyFormatError):
        PolySegment(2, 1, np.array([1.0]))
    with pytest.raises(FamilyFormatError):
        PiecewisePolyDensity(
            "bad",
            [PolySegment(0, 2, np.array([1.0])), PolySegment(1, 3, np.array([1.0]))],
            degree=0,
        )


def test_validate_uniform_no_warnings():
    fam = uniform_density("u", 0.0, 1.0)
    assert validate_family(fam, strict=True) == []


def test_validate_mass_and_negativity_warnings():
    assert validate_family(merge_breakpoints([TWO_X]), strict=True) == []
    heavy = density_from_pieces("heavy", [(0.0, 1.0, np.array([2.0, 0.0]))], degree=1)
    warns = validate_family(heavy, strict=True)
    assert len(warns) == 1 and "mass" in warns[0]
    signed = density_from_pieces("signed", [(0.0, 1.0, np.array([-0.5, 3.0]))], degree=1)
    warns = validate_family(signed, strict=True)
    assert any("negative" in w for w in warns)


def test_degree_cap():
    with pytest.raises(FamilyFormatError):
        PiecewisePolyDensity("big", [PolySegment(0, 1, np.zeros(18))], degree=17)


def test_eval_density_basic():
    fam = merge_breakpoints([TWO_X])
    dens, bp = fam.densities[0], fam.breakpoints
    assert eval_density(dens, bp, 0.25) == 0.5
    assert eval_density(dens, bp, -3.0) == 0.0
    assert eval_density(dens, bp, 7.0) == 0.0


def test_eval_density_half_open():
    fam = uniform_density("u", 0.0, 1.0)
    dens, bp = fam.densities[0], fam.breakpoints
    assert eval_density(dens, bp, 0.0) == 1.0
    assert eval_density(dens, bp, 1.0) == 0.0  # right endpoint excluded


def test_merge_grids_and_split():
    merged = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.5, 1.5)])
    assert merged.breakpoints.points.tolist() == [0.0, 0.5, 1.0, 1.5]
    dens_a = merged.densities[0]
    assert [(s.b, s.c) for s in dens_a.segments] == [(0, 1), (1, 2)]
    assert all(s.coeffs.tolist() == [1.0] for s in dens_a.segments)


def test_merge_single_family_identity_values():
    fam = merge_breakpoints([TWO_X])
    again = merge_breakpoints([fam])
    assert again.breakpoints.points.tolist() == fam.breakpoints.points.tolist()
    xs = np.linspace(-0.5, 1.5, 101)
    np.testing.assert_array_equal(
        eval_density(again.densities[0], again.breakpoints, xs),
        eval_density(fam.densities[0], fam.breakpoints, xs),
    )


def test_merge_dedups_endpoints():
    merged = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 1.0, 2.0)])
    assert merged.breakpoints.points.tolist() == [0.0, 1.0, 2.0]


def test_merge_preserves_eval_pointwise():
    rng = RandomStream(11)
    fams = [random_piecewise_linear_family(1, 4, RandomStream(11, i)) for i in range(4)]
    for i, fam in enumerate(fams):
        fam.densities[0].name = f"g{i}"
    merged = merge_breakpoints(fams)
    xs = 2.0 * rng.random(10_000) - 0.5
    for orig, dens in zip(fams, merged.densities):
        np.testing.assert_array_equal(
            eval_density(orig.densities[0], orig.breakpoints, xs),
            eval_density(dens, merged.breakpoints, xs),
        )


def test_exact_distance_disjoint_uniforms():
    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 1.0, 2.0)])
    d = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    assert abs(d - 2.0) < 1e-14


def test_exact_distance_flat_vs_linear():
    fam = merge_breakpoints([FLAT, TWO_X])
    d = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    # single crossing at 1/2; each side contributes 1/4
    assert abs(d - 0.5) < 1e-12


def test_exact_distance_identity():
    fam = merge_breakpoints([TWO_X, density_from_pieces("dup", [(0.0, 1.0, np.array([0.0, 2.0]))], 1)])
    assert exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints) == 0.0


def test_exact_all_pairs_shapes():
    single = uniform_density("only", 0.0, 1.0)
    dm = exact_all_pairs(single)
    assert dm.entries.shape == (1, 1) and dm.entries[0, 0] == 0.0
    empty = DensityFamily(single.breakpoints, [], 0)
    assert exact_all_pairs(empty).entries.shape == (0, 0)

    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.5, 1.5)])
    dm = exact_all_pairs(fam)
    assert abs(dm.entries[0, 1] - 1.0) < 1e-14
    assert dm.entries[0, 1] == dm.entries[1, 0]


def test_distance_is_a_metric_on_random_families():
    fam = random_piecewise_linear_family(6, 5, RandomStream(21))
    bp = fam.breakpoints
    dm = exact_all_pairs(fam).entries
    assert np.all(dm >= 0.0) and np.all(dm <= 2.0 + 1e-12)
    assert np.array_equal(dm, dm.T)
    m = fam.m
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-9


def test_exact_distance_matches_adaptive_simpson():
    # signed pairs of degree <= 3: distances are defined for any integrable
    # functions, so no normalization is needed here
    gen = np.random.default_rng(5)
    grid = np.array([0.0, 0.4, 1.0, 1.7])
    bp = Breakpoints(grid)
    for trial in range(50):
        degree = trial % 4

        def rand_density(name):
            segs = [PolySegment(i, i + 1, gen.uniform(-1, 1, degree + 1)) for i in range(3)]
            return PiecewisePolyDensity(name, segs, degree)

        f, g = rand_density("f"), rand_density("g")
        DensityFamily(bp, [f, g], degree)
        mine = exact_l1_distance(f, g, bp)
        ref = sum(
            adaptive_simpson(
                lambda x: abs(
                    eval_density(f, bp, float(x)) - eval_density(g, bp, float(x))
                ),
                grid[i],
                grid[i + 1],
                tol=1e-10,
            )
            for i in range(3)
        )
        assert abs(mine - ref) < 1e-6


def test_sample_uniform_mean():
    fam = uniform_density("u", 0.0, 1.0)
    draws = sample_from_density(fam.densities[0], fam.breakpoints, RandomStream(3), size=100_000)
    assert abs(draws.mean() - 0.5) < 0.01


def test_sample_linear_mean():
    fam = merge_breakpoints([TWO_X])
    draws = sample_from_density(fam.densities[0], fam.breakpoints, RandomStream(4), size=100_000)
    assert abs(draws.mean() - 2.0 / 3.0) < 0.01


def test_sample_stays_in_segment():
    fam = uniform_density("u", 2.0, 3.0)
    draws = sample_from_density(fam.densities[0], fam.breakpoints, RandomStream(5), size=1000)
    assert np.all((draws >= 2.0) & (draws <= 3.0))


def test_sample_rejects_nonpositive_mass():
    bad = density_from_pieces("neg", [(0.0, 1.0, np.array([-1.0, 0.0]))], degree=1)
    with pytest.raises(ParameterError):
        sample_from_density(bad.densities[0], bad.breakpoints, RandomStream(6), size=10)


def test_merge_rejects_mixed_degrees():
    with pytest.raises(FamilyFormatError):
        merge_breakpoints([uniform_density("u", 0.0, 1.0), TWO_X])


def test_distance_positive_for_distinct_coefficients():
    base = density_from_pieces("p", [(0.0, 1.0, np.array([1.0, 0.0]))], 1)
    bumped = density_from_pieces("q", [(0.0, 1.0, np.array([1.0 - 5e-7, 1e-6]))], 1)
    fam = merge_breakpoints([base, bumped])
    d = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    assert d > 0.0
