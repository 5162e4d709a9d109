"""Density families: validation, evaluation, merging, exact distances, sampling."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adaptive_simpson, random_segment_family
from l1sketch import (
    Breakpoints,
    DensityFamily,
    FamilyFormatError,
    ParameterError,
    PiecewisePolyDensity,
    RandomStream,
    calibrate_c,
    density_from_pieces,
    exact_all_pairs,
    exact_l1_distance,
    merge_breakpoints,
    random_piecewise_linear_family,
    uniform_density,
    validate_family,
)
from l1sketch.densities import eval_density, interval_coefficients, sample_from_density

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
        PiecewisePolyDensity("bad", [1], [1], [[1.0]], 0)  # empty interval is a hard error
    with pytest.raises(FamilyFormatError):
        PiecewisePolyDensity("bad", [2], [1], [[1.0]], 0)
    with pytest.raises(FamilyFormatError):
        PiecewisePolyDensity("bad", [0, 1], [2, 3], [[1.0], [1.0]], degree=0)


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
        PiecewisePolyDensity("big", [0], [1], np.zeros((1, 18)), degree=17)


def test_eval_density_basic():
    fam = merge_breakpoints([TWO_X])
    dens, bp = fam.densities[0], fam.breakpoints
    assert eval_density(dens, bp, 0.25) == 0.5
    assert eval_density(dens, bp, -3.0) == 0.0
    assert eval_density(dens, bp, 7.0) == 0.0


def test_eval_density_keeps_the_shape_of_its_points():
    fam = merge_breakpoints([TWO_X])
    dens, bp = fam.densities[0], fam.breakpoints
    assert eval_density(dens, bp, 0.25).shape == ()
    assert eval_density(dens, bp, np.empty(0)).shape == (0,)
    grid = np.array([[0.25, -1.0], [0.5, 2.0]])
    np.testing.assert_array_equal(eval_density(dens, bp, grid), [[0.5, 0.0], [1.0, 0.0]])


def test_merge_needs_a_family():
    with pytest.raises(ParameterError, match="at least one family"):
        merge_breakpoints([])


def test_eval_density_half_open():
    fam = uniform_density("u", 0.0, 1.0)
    dens, bp = fam.densities[0], fam.breakpoints
    assert eval_density(dens, bp, 0.0) == 1.0
    assert eval_density(dens, bp, 1.0) == 0.0  # right endpoint excluded


@st.composite
def gapped_tables(draw):
    """A grid of multiples of 1/8 and a table of rows that span one or more
    grid intervals, with gaps where candidate rows are dropped; the table
    may be empty.  Coefficients are multiples of 1/4."""
    points = sorted(draw(st.sets(st.integers(-64, 64), min_size=2, max_size=9)))
    degree = draw(st.integers(0, 3))
    ends = sorted(draw(st.sets(st.integers(0, len(points) - 1), max_size=len(points))))
    rows = [(b, c) for b, c in zip(ends, ends[1:]) if draw(st.booleans())]
    coeffs = [draw(st.lists(st.integers(-8, 8), min_size=degree + 1, max_size=degree + 1))
              for _ in rows]
    dens = PiecewisePolyDensity(
        "p", [r[0] for r in rows], [r[1] for r in rows],
        np.reshape(coeffs, (-1, degree + 1)) / 4.0, degree,
    )
    return Breakpoints(np.array(points) / 8.0), dens


@settings(deadline=None, derandomize=True, max_examples=150)
@given(drawn=gapped_tables())
def test_eval_density_matches_a_per_row_loop(drawn):
    bp, dens = drawn
    a = bp.points
    xs = np.concatenate([
        a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf), 0.5 * (a[:-1] + a[1:]),
        [a[0] - 1.0, a[-1] + 1.0, -np.inf, np.inf, np.nan],
    ])
    # the per-row loop: row i holds x when a_b <= x < a_c; p(x) is computed
    # exactly and rounded once, and `scale` bounds the terms of p in the
    # row's frame, |p_k| (|a_b| + |x - a_b|)^k, which sets the rounding
    on = np.zeros(xs.shape, dtype=bool)
    want, scale = np.zeros(xs.shape), np.zeros(xs.shape)
    for b, c, row in zip(dens.b, dens.c, dens.coeffs):
        inside = (a[b] <= xs) & (xs < a[c])
        on |= inside
        for i in np.flatnonzero(inside):
            x = Fraction(xs[i])
            want[i] = float(sum(Fraction(p) * x**k for k, p in enumerate(row)))
            reach = abs(a[b]) + abs(xs[i] - a[b])
            scale[i] = sum(abs(p) * reach**k for k, p in enumerate(row))
    got = eval_density(dens, bp, xs)
    ones = PiecewisePolyDensity("1", dens.b, dens.c, np.ones((dens.b.size, 1)), 0)
    np.testing.assert_array_equal(eval_density(ones, bp, xs), on.astype(float))
    np.testing.assert_array_equal(got[~on], 0.0)
    tol = 4 * (dens.degree + 1) * np.finfo(float).eps * scale[on]
    assert np.all(np.abs(got[on] - want[on]) <= tol)


def test_merge_grids_and_split():
    merged = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.5, 1.5)])
    assert merged.breakpoints.points.tolist() == [0.0, 0.5, 1.0, 1.5]
    dens_a = merged.densities[0]
    assert dens_a.b.tolist() == [0] and dens_a.c.tolist() == [2]
    assert dens_a.coeffs.tolist() == [[1.0]]


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
            rows = [gen.uniform(-1, 1, degree + 1) for _ in range(3)]
            return PiecewisePolyDensity(name, [0, 1, 2], [1, 2, 3], rows, degree)

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


# -------------------------------------------------------- segment tables
def test_table_rows_sorted_by_b():
    coeffs = [np.array([0.5]), np.array([0.25])]
    dens = PiecewisePolyDensity("p", [2, 0], [3, 2], coeffs, 0)
    assert dens.b.tolist() == [0, 2] and dens.c.tolist() == [2, 3]
    assert dens.b.dtype == dens.c.dtype == np.int64 and dens.coeffs.shape == (2, 1)
    assert dens.coeffs.tolist() == [[0.25], [0.5]]


def test_table_invariants_name_the_density():
    cases = [
        ([0, 2], [1, 2], [[1.0], [1.0]], "0 <= b < c"),
        ([-1], [1], [[1.0]], "0 <= b < c"),
        ([0, 1], [2, 3], [[1.0], [1.0]], "overlapping"),
        ([0], [1], [[1.0, 2.0]], "degree\\+1"),
    ]
    for b, c, coeffs, message in cases:
        with pytest.raises(FamilyFormatError, match=f"'bad'.*{message}"):
            PiecewisePolyDensity("bad", b, c, np.array(coeffs), 0)
    with pytest.raises(FamilyFormatError, match="'bad'.*differ in length"):
        PiecewisePolyDensity("bad", [1, 0], [2], np.ones((2, 1)), 0)
    with pytest.raises(FamilyFormatError, match="'bad'"):
        PiecewisePolyDensity("bad", [0, 1], [1, 2], [[1.0], [1.0, 2.0]], 0)


def test_validate_refuses_family_mutated_after_construction():
    def fresh():
        two_piece = density_from_pieces(
            "b", [(0.5, 1.0, np.array([1.0])), (1.0, 1.5, np.array([1.0]))], degree=0
        )
        return merge_breakpoints([uniform_density("a", 0.0, 1.0), two_piece])

    fam = fresh()
    fam.densities.append(PiecewisePolyDensity("a", [0], [1], [[1.0]], 0))
    with pytest.raises(FamilyFormatError, match="duplicate density name 'a'"):
        validate_family(fam)
    fam = fresh()
    fam.densities.append(PiecewisePolyDensity("c", [0], [1], [[1.0, 0.0]], 1))
    with pytest.raises(FamilyFormatError, match="'c' has degree 1"):
        validate_family(fam)
    fam = fresh()
    fam.breakpoints = Breakpoints(fam.breakpoints.points[:3])
    with pytest.raises(FamilyFormatError, match="'b'.*exceeds grid"):
        validate_family(fam)
    fam = fresh()
    fam.densities[1].b[1] = 0
    with pytest.raises(FamilyFormatError, match="'b'.*overlapping"):
        validate_family(fam)
    fam = fresh()
    fam.densities[0].coeffs = np.ones((2, 2))
    with pytest.raises(FamilyFormatError, match="'a'.*degree\\+1"):
        validate_family(fam)
    assert validate_family(fresh()) == []


def _merge_by_segment(families):
    """The merge built segment by segment, one single-interval row at a time."""
    grid = np.unique(np.concatenate([fam.breakpoints.points for fam in families]))
    densities = []
    for fam in families:
        old = fam.breakpoints.points
        for dens in fam.densities:
            b, rows = [], []
            for sb, sc, row in zip(dens.b.tolist(), dens.c.tolist(), dens.coeffs):
                nb, nc = np.searchsorted(grid, old[sb]), np.searchsorted(grid, old[sc])
                b += range(nb, nc)
                rows += [row.copy() for _ in range(nb, nc)]
            rows = np.reshape(rows, (-1, dens.degree + 1))
            densities.append(PiecewisePolyDensity(dens.name, b, np.add(b, 1), rows, dens.degree))
    return DensityFamily(Breakpoints(grid), densities, families[0].degree)


def test_merge_matches_segment_by_segment_construction():
    gen = np.random.default_rng(17)
    for trial in range(12):
        degree = trial % 4
        fams = [
            random_segment_family(gen, 3, degree, n_intervals=int(gen.integers(1, 9)), prefix=f"g{i}_")
            for i in range(3)
        ]
        merged, ref = merge_breakpoints(fams), _merge_by_segment(fams)
        np.testing.assert_array_equal(merged.breakpoints.points, ref.breakpoints.points)
        np.testing.assert_array_equal(
            interval_coefficients(merged.densities, merged.breakpoints),
            interval_coefficients(ref.densities, ref.breakpoints),
        )
        originals = [(fam, dens) for fam in fams for dens in fam.densities]
        xs = np.concatenate([merged.breakpoints.points, gen.uniform(-6.0, 16.0, 500)])
        for mine, theirs, (fam, orig) in zip(merged.densities, ref.densities, originals):
            assert mine.name == theirs.name
            assert mine.b.size == orig.b.size  # one row per input row
            values = eval_density(mine, merged.breakpoints, xs)
            # the reference's rows start at every grid interval, so it reads
            # each point in another local frame and rounds differently; a
            # merged row keeps its input's start, so it matches bit for bit
            np.testing.assert_allclose(
                values, eval_density(theirs, ref.breakpoints, xs),
                rtol=0, atol=8 * np.finfo(float).eps * np.abs(values).max(initial=0.0),
            )
            np.testing.assert_array_equal(values, eval_density(orig, fam.breakpoints, xs))


def test_horner_results_match_recorded_bits():
    # digests recorded before eval_density, sample_from_density and
    # calibrate_c shared one Horner evaluator; eval_density's digest was
    # re-recorded when it moved to each row's local frame
    gen = np.random.default_rng(2024)
    bp = Breakpoints(np.array([-1.5, -0.25, 0.0, 0.5, 1.25, 3.0]))
    rows = [gen.uniform(-1, 1, 4) for _ in range(3)]
    dens = PiecewisePolyDensity("p", [0, 3, 2], [2, 5, 3], rows, 3)
    values = eval_density(dens, bp, np.linspace(-2.0, 3.5, 1001))
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == "36b71d8d8e15311b77865ced7fe9a2ca162b8fbec4668d6065005d98f4fba4d3"
    assert eval_density(dens, bp, 0.3) == -0.4566503842534336
    result = calibrate_c(3, 0.05, 40, RandomStream(7))
    assert result.per_degree_r == {1: 21, 2: 34, 3: 41} and result.c == 2.1
