"""Dense univariate polynomial helpers on the monomial basis.

Coefficients are stored in ascending order: ``coeffs[..., k]`` multiplies
``x**k``.  ``|p|`` is integrated exactly by splitting the interval at the sign
changes of ``p`` and summing closed-form antiderivative differences.  The
batched kernel :func:`integrate_abs_local` works in an interval-local variable
``u`` on ``[0, w]``, which keeps coefficients of the order of the values
however far the interval lies from the origin.  Its sign changes are
closed-form for degree <= 2; higher degrees use Sturm-sequence guided
bisection (:func:`sign_change_roots`).
"""

from __future__ import annotations

import numpy as np

#: Degrees above this are rejected; monomial-basis conditioning degrades.
MAX_DEGREE = 16

#: Relative root-isolation tolerance, scaled by the interval width.
ROOT_TOL_REL = 1e-12


def poly_eval(coeffs, x):
    """Evaluate by Horner's rule.

    The leading axes of ``coeffs`` broadcast against ``x``: a 1-D vector is
    one polynomial at every ``x``, an ``(n, d+1)`` table gives row ``i`` at
    ``x[i]``.
    """
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    out = c[..., -1] * np.ones_like(x)
    for k in range(c.shape[-1] - 2, -1, -1):
        out = out * x + c[..., k]
    return out


def poly_trim(coeffs, rel: float = 1e-13):
    """Drop leading coefficients that are negligible relative to the largest."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        return np.zeros(1)
    top = np.abs(c).max()
    if top == 0.0:
        return np.zeros(1)
    nz = np.nonzero(np.abs(c) > rel * top)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


def poly_deriv(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, len(c))


def poly_antideriv(coeffs):
    """Antiderivative with zero constant term, batched over leading axes."""
    c = np.asarray(coeffs, dtype=float)
    zero = np.zeros(c.shape[:-1] + (1,))
    return np.concatenate([zero, c / np.arange(1, c.shape[-1] + 1)], axis=-1)


def _poly_divmod(num: np.ndarray, den: np.ndarray):
    num = num.copy()
    dd = len(den) - 1
    dn = len(num) - 1
    if dn < dd:
        return np.zeros(1), num
    q = np.zeros(dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q[k] = num[k + dd] / den[dd]
        num[k : k + dd + 1] -= q[k] * den
    return q, poly_trim(num, rel=1e-14)


def sturm_chain(coeffs):
    """Sturm sequence of ``p``, each member scale-normalized.

    Normalizing by the max-abs coefficient keeps the chain in range; positive
    scaling preserves all sign information the chain is used for.
    """
    c = poly_trim(coeffs)
    chain = [c]
    if len(c) > 1:
        chain.append(poly_trim(poly_deriv(c)))
        while len(chain[-1]) > 1:
            _, rem = _poly_divmod(chain[-2], chain[-1])
            if len(rem) == 1 and rem[0] == 0.0:
                break
            rem = -rem
            chain.append(rem / np.abs(rem).max())
    return chain


def sign_variations(chain, x: float) -> int:
    """Number of sign changes along the chain evaluated at ``x`` (zeros skipped)."""
    v = 0
    prev = 0
    for c in chain:
        val = poly_eval(c, x)
        s = 0 if val == 0.0 else (1 if val > 0.0 else -1)
        if s != 0:
            if prev != 0 and s != prev:
                v += 1
            prev = s
    return v


def _refine_sign_change(coeffs, lo, hi, flo, tol):
    """Bisect a bracketed sign change of ``p`` down to width ``tol``."""
    a, b = lo, hi
    sa = flo > 0.0
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = poly_eval(coeffs, m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == sa:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def sign_change_roots(coeffs, lo: float, hi: float, tol: float | None = None):
    """Points in ``(lo, hi)`` where ``p`` changes sign, sorted, by
    Sturm-sequence guided bisection.

    :func:`integrate_abs_poly` calls it for degree >= 3 only; degree <= 2
    has closed-form roots in :func:`integrate_abs_local`.
    Roots of even multiplicity are ignored when cleanly detected: they do
    not affect the sign of ``p`` and therefore not ``integral of |p|``.
    Near multiple roots, floating-point evaluation of ``p`` is noise-level
    and may flip sign more than once; the resulting extra split points are
    harmless for integration (the affected mass is below noise).
    """
    if tol is None:
        tol = ROOT_TOL_REL * (hi - lo)
    c = poly_trim(coeffs)
    deg = len(c) - 1
    if deg <= 0 or hi <= lo:
        return []
    chain = sturm_chain(c)
    # Nudge endpoints inward so exact zeros of chain members at the interval
    # boundary cannot corrupt the variation counts.
    eta = 0.25 * tol
    roots: list[float] = []
    a0, b0 = lo + eta, hi - eta
    stack = [(a0, b0, sign_variations(chain, a0), sign_variations(chain, b0))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        fa = poly_eval(c, a)
        fb = poly_eval(c, b)
        if n == 1:
            if fa == 0.0:
                roots.append(a)
            elif fb == 0.0:
                roots.append(b)
            elif (fa > 0.0) != (fb > 0.0):
                roots.append(_refine_sign_change(c, a, b, fa, tol))
            # same sign at both ends: even-multiplicity root, no split needed
            continue
        if b - a <= tol:
            if (fa > 0.0) != (fb > 0.0):
                roots.append(0.5 * (a + b))
            continue
        m = 0.5 * (a + b)
        vm = sign_variations(chain, m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    roots.sort()
    # collapse splits closer than the tolerance (noise near multiple roots);
    # any sign information lost this way is below the isolation tolerance
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > tol:
            merged.append(r)
    return merged


def taylor_shift(coeffs, a):
    """Coefficients of ``q(u) = p(u + a)``, batched over leading axes.

    ``a`` broadcasts against ``coeffs[..., 0]``.  Repeated synthetic
    division, ``O(d^2)`` vector operations.
    """
    c = np.array(coeffs, dtype=float)
    a = np.asarray(a, dtype=float)
    d = c.shape[-1] - 1
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            c[..., k] += a * c[..., k + 1]
    return c


def to_unit_interval(coeffs, a, w):
    """Coefficients in ``u`` of ``w * p(a + w u)``, batched over leading axes.

    The interval map: ``p`` on ``[a, a + w)`` pulled back to ``[0, 1]``,
    times the Jacobian ``w``.  ``a`` broadcasts like in :func:`taylor_shift`,
    and ``w`` against ``coeffs[..., 0]`` too.
    """
    c = taylor_shift(coeffs, a)
    c *= np.asarray(w, dtype=float)[..., None] ** np.arange(1, c.shape[-1] + 1)
    return c


def integrate_abs_local(coeffs, width):
    """Integrals of ``|q|`` over ``[0, width]``, batched over leading axes.

    ``coeffs[..., k]`` multiplies ``u**k``; ``width`` broadcasts against
    ``coeffs[..., 0]``.  For degree <= 2 the roots are the linear root, or
    ``q / c2`` and ``c0 / q`` with ``q = -(c1 + sign(c1) sqrt(disc)) / 2``
    when the discriminant is positive.  Roots outside ``(0, width)``, or
    undefined (zero leading coefficients), collapse to ``u = 0`` and add a
    piece of zero length; an all-zero row gives an exact 0.  Degree >= 3
    rows go one by one through the Sturm path of :func:`integrate_abs_poly`.
    """
    c = np.asarray(coeffs, dtype=float)
    w = np.broadcast_to(np.asarray(width, dtype=float), c.shape[:-1])
    if c.shape[-1] > 3:
        rows, widths = c.reshape(-1, c.shape[-1]), w.ravel()
        out = np.zeros(widths.shape)
        for i in np.flatnonzero(np.any(rows != 0.0, axis=1)):
            out[i] = integrate_abs_poly(rows[i], 0.0, widths[i])
        return out.reshape(w.shape)
    c0 = c[..., 0]
    c1 = c[..., 1] if c.shape[-1] > 1 else np.zeros_like(c0)
    c2 = c[..., 2] if c.shape[-1] > 2 else np.zeros_like(c0)
    half, third = 0.5 * c1, c2 / 3.0

    def anti(u):
        return u * (c0 + u * (half + u * third))

    # Undefined roots divide by zero on purpose; overflow yields inf or NaN,
    # which DistanceMatrix refuses.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
        quadratic = (c2 != 0.0) & (disc > 0.0)
        r1 = np.where(quadratic, q / c2, np.where(c2 == 0.0, -c0 / c1, np.nan))
        r2 = np.where(quadratic, c0 / q, np.nan)
        r1 = np.where((r1 > 0.0) & (r1 < w), r1, 0.0)
        r2 = np.where((r2 > 0.0) & (r2 < w), r2, 0.0)
        lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
        a_lo, a_hi = anti(lo), anti(hi)
        return np.abs(a_lo) + np.abs(a_hi - a_lo) + np.abs(anti(w) - a_hi)


def integrate_abs_poly(coeffs, lo: float, hi: float) -> float:
    """Integral of ``|p|`` over ``[lo, hi]``, exact up to root isolation.

    Trimmed degree <= 2 is shifted to ``u = x - lo`` and integrated by
    :func:`integrate_abs_local`.  Higher degrees split the interval at the
    sign changes from :func:`sign_change_roots`; on each piece the signed
    integral is computed from the antiderivative and its absolute value is
    accumulated.  Splitting at a point that is not a sign change is
    harmless, so root-location error of order ``ROOT_TOL_REL * (hi - lo)``
    perturbs the result only at second order.
    """
    if hi <= lo:
        return 0.0
    c = poly_trim(coeffs)
    if len(c) <= 3:
        return float(integrate_abs_local(taylor_shift(c, lo), hi - lo))
    anti = poly_antideriv(c)
    pts = [lo] + sign_change_roots(c, lo, hi) + [hi]
    vals = poly_eval(anti, np.asarray(pts))
    return float(np.abs(np.diff(vals)).sum())
