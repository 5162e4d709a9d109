"""Polynomial helpers: evaluation, sign-change isolation, |p| integration."""

import numpy as np
import pytest

from conftest import adaptive_simpson
from l1sketch._poly import (
    integrate_abs_local,
    integrate_abs_poly,
    poly_antideriv,
    poly_deriv,
    poly_eval,
    poly_trim,
    sign_change_roots,
    taylor_shift,
)


def test_poly_eval_horner():
    # 1 + 2x + 3x^2 at x = 2 -> 17
    assert poly_eval([1.0, 2.0, 3.0], 2.0) == 17.0
    xs = np.array([0.0, 1.0, -1.0])
    assert np.allclose(poly_eval([1.0, 2.0, 3.0], xs), [1.0, 6.0, 2.0])


def test_trim_and_calculus():
    assert poly_trim([1.0, 2.0, 0.0]).tolist() == [1.0, 2.0]
    assert poly_trim([0.0, 0.0]).tolist() == [0.0]
    assert poly_deriv([5.0, 1.0, 3.0]).tolist() == [1.0, 6.0]
    assert poly_antideriv([2.0]).tolist() == [0.0, 2.0]


def test_sign_change_linear_and_quadratic():
    assert sign_change_roots([-1.0, 2.0], 0.0, 1.0) == [0.5]
    assert sign_change_roots([-1.0, 2.0], 0.6, 1.0) == []
    # (x - 0.3)(x - 0.7) = 0.21 - x + x^2
    roots = sign_change_roots([0.21, -1.0, 1.0], 0.0, 1.0)
    assert np.allclose(roots, [0.3, 0.7])
    # double root has no sign change and is ignored
    assert sign_change_roots([0.25, -1.0, 1.0], 0.0, 1.0) == []


def test_integrate_abs_frozen_values():
    # |2x - 1| on [0, 1]: two triangles of area 1/4
    assert abs(integrate_abs_poly([-1.0, 2.0], 0.0, 1.0) - 0.5) < 1e-14
    # (x - 1/2)^2 never changes sign; integral is 1/12
    assert abs(integrate_abs_poly([0.25, -1.0, 1.0], 0.0, 1.0) - 1.0 / 12.0) < 1e-14
    assert integrate_abs_poly([0.0], 0.0, 1.0) == 0.0
    assert integrate_abs_poly([3.0], -1.0, 1.0) == 6.0


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


def test_integrate_abs_local_high_degree_rows():
    # degree >= 3 rows take the Sturm path; all-zero rows stay exact zeros
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


def test_sign_changes_match_companion_roots():
    gen = np.random.default_rng(7)
    for _ in range(300):
        degree = int(gen.integers(3, 17))
        coeffs = gen.uniform(-1.0, 1.0, degree + 1)
        lo, hi = sorted(gen.uniform(-2.0, 2.0, 2))
        if hi - lo < 1e-2:
            continue
        mine = sign_change_roots(coeffs, lo, hi)
        comp = np.roots(poly_trim(coeffs)[::-1])
        ref = sorted(
            float(r.real)
            for r in comp
            if abs(r.imag) < 1e-9 and lo < r.real < hi
        )
        # compare via the |p| integral, which is what the roots are for
        anti = poly_antideriv(coeffs)

        def total(points):
            pts = np.array([lo] + list(points) + [hi])
            return np.abs(np.diff(poly_eval(anti, pts))).sum()

        assert abs(total(mine) - total(ref)) < 1e-9 * max(1.0, total(ref))
