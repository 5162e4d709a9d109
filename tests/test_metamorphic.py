"""Metamorphic properties of the exact oracle, driven by hypothesis.

Translation: a family and its copy shifted by 1e6 or 1e9 have the same
distances.  The shifted copies are built on dyadic grids (multiples of 1/64),
so the shifted breakpoints are exact and only the global-monomial
coefficients carry rounding.  The same holds for the sketch distances at a
fixed seed: both grids have the same widths, so they draw the same
unit-interval vectors.

Permutation: reordering the densities reorders the matrix, bit for bit.

Scaling: mapping x to a*x with coefficients rescaled to keep unit mass
leaves the distances unchanged, and multiplying the values by lam multiplies
them by lam; for powers of two and degree <= 2 both hold bit for bit.

Merging: merging a family with a renamed copy of itself tiles its matrix,
bit for bit.

Quadrature: on grids away from the origin and for degrees 0-4, the oracle
agrees with adaptive Simpson on the polynomials the family was drawn from.

Local frames: evaluation, segment masses, strict validation, density draws
and the Monte Carlo baseline work in each row's local coordinates, so an
exact family shifted as far as 1e9 gets the same values, masses, draws and
estimates.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from conftest import adaptive_simpson
from l1sketch import (
    ApproxConfig,
    Breakpoints,
    DensityFamily,
    PiecewisePolyDensity,
    RandomStream,
    SketchMode,
    density_from_pieces,
    estimate_all_pairs,
    exact_all_pairs,
    mc_all_pairs,
    merge_breakpoints,
    required_sample_count,
    sketch_family,
    validate_family,
)
from l1sketch._poly import poly_eval
from l1sketch.densities import eval_density, sample_from_density, segment_masses

GRID = 64

#: Fixed example sequence, like the fixed seeds of the rest of the suite.
DETERMINISTIC = settings(deadline=None, derandomize=True)


@st.composite
def linear_shapes(draw):
    """Per density: node positions on [0, 1] (multiples of 1/GRID) and node values."""
    shapes = []
    for _ in range(draw(st.integers(2, 5))):
        cuts = sorted(draw(st.sets(st.integers(1, GRID - 1), max_size=6)))
        nodes = np.array([0, *cuts, GRID], dtype=float) / GRID
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=nodes.size, max_size=nodes.size))
        shapes.append((nodes, np.array(values)))
    return shapes


def linear_family(shapes, offset: float) -> DensityFamily:
    """Continuous piecewise-linear densities, given by global monomial
    coefficients on ``[offset, offset + 1]``."""
    fams = []
    for j, (nodes, values) in enumerate(shapes):
        x = nodes + offset
        pieces = []
        for i in range(nodes.size - 1):
            slope = (values[i + 1] - values[i]) / (nodes[i + 1] - nodes[i])
            pieces.append((x[i], x[i + 1], np.array([values[i] - slope * x[i], slope])))
        fams.append(density_from_pieces(f"f{j}", pieces, degree=1))
    return merge_breakpoints(fams)


@settings(DETERMINISTIC, max_examples=60)
@given(
    shapes=linear_shapes(),
    offset_rtol=st.sampled_from([(1e6, 1e-9), (-1e6, 1e-9), (1e9, 1e-5), (-1e9, 1e-5)]),
)
def test_oracle_translation_invariant(shapes, offset_rtol):
    offset, rtol = offset_rtol
    base = exact_all_pairs(linear_family(shapes, 0.0)).entries
    moved = exact_all_pairs(linear_family(shapes, offset)).entries
    # values lie in [0, 1] on a unit interval, so distances are at most 2
    np.testing.assert_allclose(moved, base, rtol=rtol, atol=rtol)


@settings(DETERMINISTIC, max_examples=20)
@given(
    shapes=linear_shapes(),
    offset=st.sampled_from([1e6, -1e6]),
    mode=st.sampled_from([SketchMode.EXACT_CI1, SketchMode.CID_APPROX]),
)
def test_sketch_translation_invariant(shapes, offset, mode):
    config = ApproxConfig(d=1, epsilon_integration=0.5) if mode is SketchMode.CID_APPROX else None
    t = required_sample_count(0.5, 0.5, len(shapes))

    def distances(at: float) -> np.ndarray:
        sketch = sketch_family(linear_family(shapes, at), t, mode, RandomStream(60), approx_config=config)
        return estimate_all_pairs(sketch, 0.5, 0.5).entries

    np.testing.assert_allclose(distances(offset), distances(0.0), rtol=1e-6, atol=1e-6)


def _global(local, a: float, degree: int) -> np.ndarray:
    """Global coefficients of ``p(x) = q(x - a)``, by numpy's composition."""
    coef = Polynomial(local)(Polynomial([-a, 1.0])).coef
    return np.pad(coef, (0, degree + 1))[: degree + 1]


@st.composite
def shifted_families(draw, max_degree: int = 4):
    """Signed families on a grid shifted from the origin, with each density
    supported on a random subset of the intervals.

    Returns the family, in global monomial coefficients, and the local
    coefficients it was drawn from: ``local[j, l]`` is density ``j`` on
    interval ``l`` in ``u = x - a_l``, zero off its support.
    """
    degree = draw(st.integers(0, max_degree))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    grid = draw(st.floats(-100.0, 100.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    coeff = st.floats(-1.0, 1.0)
    m = draw(st.integers(2, 4))
    local = np.zeros((m, len(widths), degree + 1))
    densities = []
    for j in range(m):
        ells = []
        for ell in range(len(widths)):
            if draw(st.booleans()) or not ells and ell == len(widths) - 1:
                local[j, ell] = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
                ells.append(ell)
        rows = [_global(local[j, ell], grid[ell], degree) for ell in ells]
        densities.append(PiecewisePolyDensity(f"f{j}", ells, np.add(ells, 1), rows, degree))
    return DensityFamily(Breakpoints(grid), densities, degree), local


@settings(DETERMINISTIC, max_examples=25)
@given(drawn=shifted_families())
def test_oracle_matches_adaptive_simpson_on_shifted_grids(drawn):
    # the reference integrates the drawn local polynomials, free of the
    # rounding that global coefficients carry away from the origin
    family, local = drawn
    widths = np.diff(family.breakpoints.points)
    mine = exact_all_pairs(family).entries
    for j in range(family.m):
        for k in range(j + 1, family.m):
            ref = 0.0
            for diff, w in zip(local[j] - local[k], widths):
                ref += adaptive_simpson(lambda u: abs(poly_eval(diff, u)), 0.0, w, tol=1e-10)
            assert abs(mine[j, k] - ref) < 1e-6 * max(1.0, ref)


@settings(DETERMINISTIC, max_examples=40)
@given(drawn=shifted_families(), data=st.data())
def test_permuting_densities_permutes_matrix(drawn, data):
    family, _ = drawn
    perm = data.draw(st.permutations(range(family.m)))
    permuted = DensityFamily(
        family.breakpoints, [family.densities[i] for i in perm], family.degree
    )
    base = exact_all_pairs(family).entries
    np.testing.assert_array_equal(exact_all_pairs(permuted).entries, base[np.ix_(perm, perm)])


def _scaled(family: DensityFamily, a: float, lam: float) -> DensityFamily:
    """``lam * f(x / a) / a`` for every density ``f``, on the grid times ``a``."""
    powers = lam * a ** -(np.arange(family.degree + 1) + 1.0)
    densities = [
        PiecewisePolyDensity(dens.name, dens.b, dens.c, dens.coeffs * powers, dens.degree)
        for dens in family.densities
    ]
    return DensityFamily(Breakpoints(a * family.breakpoints.points), densities, family.degree)


@settings(DETERMINISTIC, max_examples=40)
@given(drawn=shifted_families(max_degree=2), a_exp=st.integers(-8, 8), lam_exp=st.integers(-20, 20))
def test_oracle_scaling_covariant_powers_of_two(drawn, a_exp, lam_exp):
    family, _ = drawn
    base = exact_all_pairs(family).entries
    moved = exact_all_pairs(_scaled(family, 2.0**a_exp, 1.0)).entries
    np.testing.assert_array_equal(moved, base)
    lam = 2.0**lam_exp
    np.testing.assert_array_equal(exact_all_pairs(_scaled(family, 1.0, lam)).entries, lam * base)


@settings(DETERMINISTIC, max_examples=40)
@given(shapes=linear_shapes(), a=st.floats(1e-3, 1e3), lam=st.floats(1e-6, 1e6))
def test_oracle_scaling_covariant(shapes, a, lam):
    family = linear_family(shapes, 0.0)
    base = exact_all_pairs(family).entries
    # values lie in [0, 1] on a unit interval, so distances are at most 2
    np.testing.assert_allclose(
        exact_all_pairs(_scaled(family, a, 1.0)).entries, base, rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(
        exact_all_pairs(_scaled(family, 1.0, lam)).entries, lam * base, rtol=1e-12, atol=lam * 1e-14
    )


@settings(DETERMINISTIC, max_examples=40)
@given(drawn=shifted_families())
def test_merging_family_with_itself_changes_nothing(drawn):
    family, _ = drawn
    base = exact_all_pairs(family).entries
    copy = DensityFamily(
        family.breakpoints,
        [PiecewisePolyDensity(d.name + "'", d.b, d.c, d.coeffs, d.degree) for d in family.densities],
        family.degree,
    )
    merged = exact_all_pairs(merge_breakpoints([family, copy])).entries
    np.testing.assert_array_equal(merged, np.block([[base, base], [base, base]]))


def _ramp_and_flat(offset: float) -> DensityFamily:
    """``2 (x - offset)`` and ``1`` on ``[offset, offset + 1)``: exact global
    coefficients and breakpoints at every offset used here."""
    bp = Breakpoints(np.array([offset, offset + 1.0]))
    ramp = PiecewisePolyDensity("ramp", [0], [1], [[-2.0 * offset, 2.0]], 1)
    flat = PiecewisePolyDensity("flat", [0], [1], [[1.0, 0.0]], 1)
    return DensityFamily(bp, [ramp, flat], 1)


def test_masses_draws_and_mc_translation_invariant():
    base = _ramp_and_flat(0.0)
    want_draws = sample_from_density(base.densities[0], base.breakpoints, RandomStream(5), 1000)
    want_mc = mc_all_pairs(base, 0.05, 0.1, RandomStream(7)).entries
    assert abs(want_mc[0, 1] - 0.5) <= 0.05
    for offset in (1e6, 1e7, 1e8, 1e9):
        fam = _ramp_and_flat(offset)
        dens, bp = fam.densities[0], fam.breakpoints
        assert segment_masses(dens, bp).tolist() == [1.0]
        assert validate_family(fam, strict=True) == []
        # the same local draws, each rounded once when the offset is added
        draws = sample_from_density(dens, bp, RandomStream(5), 1000)
        np.testing.assert_allclose(draws - offset, want_draws, rtol=0, atol=np.spacing(offset))
        got = mc_all_pairs(fam, 0.05, 0.1, RandomStream(7)).entries
        np.testing.assert_array_equal(got, want_mc)


def test_eval_density_exact_far_from_origin():
    # 3 (x - off)^2 on [off, off + 1) has exact global coefficients at these
    # offsets, but evaluating them at x itself cancels: 2.4e-4 off at 2^20
    k = np.arange(-1, 66) / 64

    def values(offset):
        bp = Breakpoints(np.array([offset, offset + 1.0]))
        coeffs = [[3.0 * offset * offset, -6.0 * offset, 3.0]]
        return eval_density(PiecewisePolyDensity("q", [0], [1], coeffs, 2), bp, offset + k)

    want = values(0.0)
    assert want[0] == want[-2] == want[-1] == 0.0 and want[-3] == 3.0 * (63 / 64) ** 2
    for offset in (2.0**20, 2.0**26, 2.0**30, 1e9):
        np.testing.assert_array_equal(values(offset), want)
