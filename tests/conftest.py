"""Shared test oracles and helpers.

The oracles here are deliberately independent of the library's own
computation paths: quadrature instead of closed-form antiderivatives, a
characteristic-function reduction instead of the complex-branch density
formula, and the classical Cauchy CDF for distribution tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from l1sketch import (
    Breakpoints,
    DensityFamily,
    PiecewisePolyDensity,
    RandomStream,
)


def cauchy_cdf(x, scale=1.0):
    return 0.5 + np.arctan(np.asarray(x) / scale) / np.pi


def ks_against_cauchy(samples, scale=1.0) -> float:
    return float(stats.kstest(samples, lambda x: cauchy_cdf(x, scale)).statistic)


def adaptive_simpson(func, lo, hi, tol=1e-9, max_depth=30):
    """Classic recursive adaptive Simpson quadrature."""

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = func(lm), func(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, eps / 2.0, depth - 1) + recurse(
            m, b, fm, frm, fb, right, eps / 2.0, depth - 1
        )

    fa, fb, fm = func(lo), func(hi), func(0.5 * (lo + hi))
    whole = simpson(lo, hi, fa, fm, fb)
    return recurse(lo, hi, fa, fm, fb, whole, tol, max_depth)


def cf_pair_density(x0: float, x1: float) -> float:
    """Independent oracle for the unit-interval pair density.

    Works from the characteristic function ``exp(-integral |a0 + a1 u| du)``:
    in polar frequency coordinates the radial integral has the closed form
    ``(A^2 - B^2)/(A^2 + B^2)^2``, leaving a smooth one-dimensional integral
    over the angle.  No complex arithmetic, no branch choices.
    """

    def abs_line_mass(t):
        c, s = np.cos(t), np.sin(t)
        if abs(s) < 1e-15:
            return abs(c)
        root = -c / s
        if 0.0 < root < 1.0:
            return abs(s) * (root * root + (1.0 - root) ** 2) / 2.0
        return abs(c + s / 2.0)

    def integrand(t):
        a = abs_line_mass(t)
        b = x0 * np.cos(t) + x1 * np.sin(t)
        return (a * a - b * b) / (a * a + b * b) ** 2

    kinks = [np.pi / 2, 3 * np.pi / 4, 3 * np.pi / 2, 7 * np.pi / 4]
    val, _ = quad(integrand, 0.0, 2.0 * np.pi, points=kinks, limit=400)
    return val / (4.0 * np.pi**2)


def random_segment_family(gen, m, degree, n_intervals=8, prefix="f"):
    """Signed family on a random grid: each density has segments of one to
    three intervals with random gaps between them, listed in shuffled order."""
    grid = gen.uniform(-5.0, 5.0) + np.cumsum(gen.uniform(0.1, 1.0, n_intervals + 1))
    densities = []
    for j in range(m):
        rows, pos = [], int(gen.integers(0, 2))
        while pos < n_intervals:
            end = min(pos + int(gen.integers(1, 4)), n_intervals)
            rows.append((pos, end, gen.uniform(-1.0, 1.0, degree + 1)))
            pos = end + int(gen.integers(0, 3))
        gen.shuffle(rows)
        b, c = [row[0] for row in rows], [row[1] for row in rows]
        coeffs = np.reshape([row[2] for row in rows], (-1, degree + 1))
        densities.append(PiecewisePolyDensity(f"{prefix}{j}", b, c, coeffs, degree))
    return DensityFamily(Breakpoints(grid), densities, degree)


@pytest.fixture
def rng():
    return RandomStream(20260809)
