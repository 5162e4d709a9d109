"""Polynomial helpers: evaluation, Taylor shift, |p| integration.

The |p| references for degree >= 3 are polynomials built from known roots,
integrated by adaptive Simpson in product form between their real roots, so
they never go through monomial coefficients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adaptive_simpson
from l1sketch._poly import (
    integrate_abs_local,
    integrate_abs_poly,
    poly_antideriv,
    poly_eval,
    taylor_shift,
)

#: Fixed example sequence, like the fixed seeds of the rest of the suite.
DETERMINISTIC = settings(deadline=None, derandomize=True)


def test_poly_eval_horner():
    # 1 + 2x + 3x^2 at x = 2 -> 17
    assert poly_eval([1.0, 2.0, 3.0], 2.0) == 17.0
    xs = np.array([0.0, 1.0, -1.0])
    assert np.allclose(poly_eval([1.0, 2.0, 3.0], xs), [1.0, 6.0, 2.0])


def test_trim_and_calculus():
    assert poly_antideriv([2.0]).tolist() == [0.0, 2.0]


def test_integrate_abs_frozen_values():
    # |2x - 1| on [0, 1]: two triangles of area 1/4
    assert abs(integrate_abs_poly([-1.0, 2.0], 0.0, 1.0) - 0.5) < 1e-14
    # (x - 1/2)^2 never changes sign; integral is 1/12
    assert abs(integrate_abs_poly([0.25, -1.0, 1.0], 0.0, 1.0) - 1.0 / 12.0) < 1e-14
    assert integrate_abs_poly([0.0], 0.0, 1.0) == 0.0
    assert integrate_abs_poly([3.0], -1.0, 1.0) == 6.0
    # an empty or reversed interval integrates to 0.0, whatever the degree
    for coeffs in ([3.0], [0.25, -1.0, 1.0], [1.0, -2.0, 0.5, 3.0]):
        assert integrate_abs_poly(coeffs, 1.0, 1.0) == 0.0
        assert integrate_abs_poly(coeffs, 2.0, -1.0) == 0.0


def test_integrate_abs_local_degree_two_edge_cases():
    rows = np.array(
        [
            [0.25, -1.0, 1.0],  # double root at 1/2: no sign change
            [-1.0, 2.0, 0.0],  # zero leading coefficient: linear, root at 1/2
            [0.0, -1.0, 1.0],  # u(u - 1): roots exactly at both ends
            [-1.0, 1.0, 0.0],  # linear root exactly at the right end
            [0.0, 0.0, -3.0],  # double root at the left end
            [1.0, 0.0, 1.0],  # negative discriminant
            [0.21, -1.0, 1.0],  # two interior roots, 0.3 and 0.7
            [0.0, 0.0, 0.0],  # all-zero row
        ]
    )
    expected = [1 / 12, 1 / 2, 1 / 6, 1 / 2, 1.0, 4 / 3, 194 / 3000, 0.0]
    got = integrate_abs_local(rows, 1.0)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    assert got[-1] == 0.0
    # one batched call equals row-by-row calls, at several widths at once
    widths = np.array([[0.5], [2.0]])
    batched = integrate_abs_local(np.broadcast_to(rows, (2,) + rows.shape), widths)
    for i, w in enumerate(widths[:, 0]):
        for j, row in enumerate(rows):
            assert batched[i, j] == integrate_abs_local(row, w)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SMALL = st.integers(-8, 8).map(float)


@st.composite
def _linear_rows(draw):
    """A row ``(c0, c1)`` and its width: any finite values, or a zero (of
    either sign) at ``c0`` or ``c1``, or a root exactly at ``w``."""
    w = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    c0, c1 = draw(_FINITE), draw(_FINITE)
    kind = draw(st.sampled_from(["free", "root at 0", "flat", "root at w"]))
    if kind == "root at 0":
        c0 = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "flat":
        c1 = draw(st.sampled_from([0.0, -0.0]))
    elif kind == "root at w":
        c1, w = draw(_SMALL.filter(bool)), draw(st.integers(1, 8).map(float))
        c0 = -c1 * w
    return c0, c1, w


@settings(DETERMINISTIC, max_examples=400)
@given(drawn=st.lists(_linear_rows(), min_size=1, max_size=8), degree=st.sampled_from([0, 1]))
def test_integrate_abs_local_degree_one_rows_have_the_quadratic_paths_bits(drawn, degree):
    # the closed form of degree <= 1 equals the degree-2 path bit for bit
    # wherever that path is finite, and is not finite where it is not
    rows = np.array(drawn)
    c, w = rows[:, : degree + 1], rows[:, 2]
    got = integrate_abs_local(c, w)
    want = integrate_abs_local(np.concatenate([c, np.zeros((len(c), 2 - degree))], axis=1), w)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    np.testing.assert_array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


def test_integrate_abs_local_high_degree_rows():
    # degree >= 3 rows take the companion-matrix kernel; all-zero rows stay exact zeros
    rows = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [-0.125, 0.75, -1.5, 1.0]])
    got = integrate_abs_local(rows, 1.0)
    # (u - 1/2)^3 is odd about 1/2: 2 * (1/2)^4 / 4
    np.testing.assert_allclose(got, [0.25, 0.0, 1 / 32], rtol=1e-12)
    assert got[1] == 0.0


def test_taylor_shift_matches_composition():
    gen = np.random.default_rng(3)
    coeffs = gen.uniform(-1.0, 1.0, (4, 5))
    shifts = gen.uniform(-3.0, 3.0, 4)
    shifted = taylor_shift(coeffs, shifts)
    u = np.linspace(-1.0, 1.0, 7)
    for c, a, q in zip(coeffs, shifts, shifted):
        np.testing.assert_allclose(poly_eval(q, u), poly_eval(c, u + a), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 12, 16])
def test_integrate_abs_matches_quadrature(degree):
    gen = np.random.default_rng(100 + degree)
    for _ in range(25):
        coeffs = gen.uniform(-1.0, 1.0, degree + 1)
        lo, hi = sorted(gen.uniform(-1.5, 1.5, 2))
        if hi - lo < 0.05:
            continue
        mine = integrate_abs_poly(coeffs, lo, hi)
        ref = adaptive_simpson(lambda x: abs(poly_eval(coeffs, float(x))), lo, hi, tol=1e-11)
        assert abs(mine - ref) < 1e-8 * max(1.0, ref)


def _from_roots(roots, lead=1.0):
    """Ascending coefficients of ``lead * prod(x - r)``."""
    return (lead * np.poly(roots)[::-1]).real


def _reference(roots, lo, hi, lead=1.0):
    """Integral of ``|lead * prod(x - r)|`` over ``[lo, hi]``, evaluated in
    product form and split at the real roots inside."""

    def abs_p(x):
        return abs(lead * np.prod([x - r for r in roots]))

    real = sorted(r.real for r in roots if r.imag == 0.0 and lo < r.real < hi)
    cuts = [lo] + real + [hi]
    return sum(adaptive_simpson(abs_p, a, b, tol=1e-14) for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize(
    "roots",
    [
        pytest.param([0.3, 0.3 + 1e-9, 0.8], id="roots-1e-9-apart"),
        pytest.param([0.2, 0.7, 0.7 + 1e-9, 0.7 + 2e-9], id="three-roots-1e-9-apart"),
        pytest.param([0.45, 0.45, 0.45], id="triple"),
        pytest.param([-0.3, 0.6, 0.6, 0.6, 1.4], id="triple-and-simple"),
        pytest.param([0.5 + 1e-7j, 0.5 - 1e-7j, 0.2, 0.9], id="complex-pair-1e-7"),
        pytest.param([0.5 + 1e-3j, 0.5 - 1e-3j, 0.1], id="complex-pair-1e-3"),
        pytest.param([0.3 + 1e-6j, 0.3 - 1e-6j, 0.6 + 1e-6j, 0.6 - 1e-6j], id="two-complex-pairs"),
    ],
)
def test_integrate_abs_known_roots(roots):
    coeffs = _from_roots(roots)
    ref = _reference(roots, 0.0, 1.0)
    assert abs(integrate_abs_poly(coeffs, 0.0, 1.0) - ref) <= 1e-12 * ref
    assert abs(integrate_abs_local(coeffs, 1.0) - ref) <= 1e-12 * ref
    assert integrate_abs_poly(coeffs, 0, 1) == integrate_abs_poly(coeffs, 0.0, 1.0)
    # the same polynomial on a window away from the origin, in caller coordinates
    lo, hi = -1.5, 2.0
    shifted = [r + 1.0 for r in roots]
    ref = _reference(shifted, lo, hi)
    assert abs(integrate_abs_poly(_from_roots(shifted), lo, hi) - ref) <= 1e-12 * ref


def test_integrate_abs_roots_at_both_ends():
    # roots exactly at u = 0 and u = w, and one inside
    for w in (0.9, 1.0, 3.0):
        roots = [0.0, 0.35 * w, w]
        for lead in (2.0, -0.5):
            coeffs = _from_roots(roots, lead)
            ref = _reference(roots, 0.0, w, lead)
            assert abs(integrate_abs_local(coeffs, w) - ref) <= 1e-12 * ref
            assert abs(integrate_abs_poly(coeffs, 0.0, w) - ref) <= 1e-12 * ref


def test_integrate_abs_local_mixed_effective_degrees():
    # one batch of width 8 whose rows have degree 7, 5, 3, 2, 1 and 0 once
    # their leading zeros are dropped, plus an all-zero row
    cases = [
        ([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95], 1.0),
        ([0.1 + 0.2j, 0.1 - 0.2j, 0.3, 0.6, 0.9], -2.0),
        ([0.25, 0.5, 0.75], 1.0),
        ([0.4, 0.4], 3.0),
        ([0.6], -1.0),
        ([], 0.7),
    ]
    rows = np.zeros((len(cases) + 1, 8))
    for i, (roots, lead) in enumerate(cases):
        c = _from_roots(roots, lead) if roots else np.array([lead])
        rows[i, : c.size] = c
    got = integrate_abs_local(rows, 1.0)
    for (roots, lead), value in zip(cases, got):
        ref = _reference(roots, 0.0, 1.0, lead) if roots else abs(lead)
        assert abs(value - ref) <= 1e-12 * ref
    assert got[-1] == 0.0


def test_integrate_abs_local_batched_equals_row_by_row():
    gen = np.random.default_rng(31)
    for degree in (3, 6, 16):
        rows = gen.uniform(-1.0, 1.0, (40, degree + 1))
        rows[::5, -2:] = 0.0  # leading zeros: lower effective degree
        rows[3] = 0.0
        rows[7, :-1] = 0.0  # a monomial: a root of high multiplicity at 0
        widths = gen.uniform(0.1, 3.0, (2, 1))
        batched = integrate_abs_local(np.broadcast_to(rows, (2,) + rows.shape), widths)
        for i, w in enumerate(widths[:, 0]):
            for j, row in enumerate(rows):
                assert batched[i, j] == integrate_abs_local(row, w)
        assert np.all(batched[:, 3] == 0.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_integrate_abs_non_finite_rows_are_not_finite(bad):
    # tier-1 turns any RuntimeWarning into an error, so none may be emitted
    rows = np.array([[bad, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, bad]])
    got = integrate_abs_local(rows, 1.0)
    assert not np.isfinite(got[0]) and not np.isfinite(got[2])
    assert got[1] == 1.25
    for row in rows[[0, 2]]:
        assert not np.isfinite(integrate_abs_poly(row, 0.0, 1.0))
    assert not np.isfinite(integrate_abs_poly([1.0, bad, 2.0, 3.0, 4.0], -1.0, 1.0))
    # the difference of the two overflowing densities [1e308, 0, 0, 1e308]
    # and their negation
    with np.errstate(over="ignore"):
        diff = np.array([1e308, 0.0, 0.0, 1e308]) - np.array([-1e308, 0.0, 0.0, -1e308])
    assert not np.isfinite(integrate_abs_local(diff, 1.0))
