"""Exact sampling for the joint law of ``(integral of 1 dL, integral of x dL)``.

``L`` is Cauchy motion on ``[0, 1]`` (the symmetric 1-stable process).  The
pair of stochastic integrals of the functions ``1`` and ``x`` has an explicit
two-dimensional density: one closed form involving a complex square root and
arctangent, evaluated in real arithmetic, regular on the line ``x0 = 2*x1``
as everywhere else.  The density is
dominated by ``(C/pi)`` times a bivariate Student law with one degree of
freedom, which yields an exact rejection sampler with acceptance rate
``pi/C`` per proposal.

The ratio of density to envelope never exceeds about ``2 sqrt(2)``, far
below ``C/pi``, so an upper squeeze (``SQUEEZE_K = 3``) rejects every
proposal whose uniform has ``u * (C/pi) > 3``, whatever its point.  The
uniforms of the proposals the squeeze passes are uniform on ``[0, 3 pi/C)``,
so the sampler draws only those *candidates*: a uniform ``w`` on ``[0, 1)``
stands for ``u * (C/pi) = w * K``, and a candidate is accepted when
``w * K * g <= f``, with probability exactly ``1/K``.  Each candidate takes
three uniforms: two give its envelope point by conditional inversion (a
Cauchy ``x0``, then ``2 x1 - x0`` given ``x0`` from the t law with 2
degrees of freedom; Devroye, *Non-Uniform Random Variate Generation*, 1986,
ch. XI), which also gives the envelope's value there for free, and one is
``w``.  No normal draw and no ``hypot`` call is made.

A candidate's test, ``w * K/pi <= h`` with ``h = f t^(3/2)`` the density
over ``pi`` times the envelope, has ``h`` a function of the candidate's
own two uniforms ``(U0, U1)``.  A table of bounds ``lo <= h <= hi`` on
each of 64 x 64 cells of the unit square, built on the first degree-1 draw
of a process, is a two-sided squeeze in the manner of Devroye (1986,
ch. II.5 and VIII) and of the ziggurat's per-strip bounds (Marsaglia and
Tsang, J. Stat. Software 2000): it accepts or rejects about 94.5% of
candidates exactly as the plain test would, with neither their point nor
their density, so the density is computed for about 0.17 of a point a
pair instead of 3, and the envelope points for the kept candidates only.
The draws, their order and the accepted candidates are those of the plain
test, so every output keeps its bits.

A block of candidates keeps its k-sized arrays, the ``(3, k)`` uniforms,
the masks and the candidates' cells and bounds, in the thread's
:func:`~l1sketch.randstream.scratch`, and :func:`fill_pairs`, the one
rejection loop, writes each block's accepted candidates straight into the
group's slots.  Freed after each block, those arrays would let glibc hand
the memory back and fault it in again: allocated, they cost some calls of
a warm two-thread sketch of the 71-interval degree-1 benchmark family
about 270 minor page faults, where in the scratch buffer each call from
the fourth on makes 65 or fewer, most 6.  The density and the envelope
points, computed for the few undecided and the kept candidates only, are
plain whole-array code: a one-thread sketch of that family makes no minor
page fault from its third call on (``ru_minflt``).

Conventions: ``x0`` is the coefficient-of-1 component, ``x1`` the
coefficient-of-x component, the rows of :func:`sample_ci1_unit`'s
``(2, size)`` array.  The square root and the arctangent are principal-branch,
and the density evaluates both in real arithmetic, on terms the two share.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import EnvelopeDominationError, ParameterError
from .randstream import RandomStream, cauchy_in_place, fill_groups, scratch

#: Domination constant: density <= (C/pi) * envelope everywhere.
DOMINATION_C = 25.0

#: Expected proposals per accepted sample.
REJECTION_OVERHEAD = DOMINATION_C / np.pi

#: Upper squeeze: the density stays below ``SQUEEZE_K`` times the envelope,
#: so ``SQUEEZE_K`` candidates are drawn per accepted sample on average.
SQUEEZE_K = 3.0

#: Uniforms a delivered pair takes on average: ``SQUEEZE_K`` candidates of
#: three uniforms each.
UNIFORMS_PER_PAIR = 3 * SQUEEZE_K

#: Proposal cap per requested sample before declaring the envelope broken.
#: A candidate counts as the ``C / (K pi)`` proposals it stands for.
REJECTION_ITERATION_CAP = 10_000

#: Radius out to which :func:`ci1_density` is checked to be nonnegative and
#: below ``SQUEEZE_K`` times the envelope; ``eval ci1-density`` refuses
#: grids that reach beyond it.
CHECKED_RADIUS = 1e6

_PROPOSALS_PER_CANDIDATE = REJECTION_OVERHEAD / SQUEEZE_K
_PI2 = np.pi**2


def _density_generic(x0, delta):
    # The density at delta = |x0 - 2*x1| >= 0.  Nothing divides by delta, so
    # it is regular on the line x0 = 2*x1, where it is 4/(pi^2 s0^2) +
    # 1/(pi s0^(3/2)).  It is even in delta and in x0, so point-symmetric bit
    # for bit.  The closed form flat + (2/pi^2) Re(atan(i sqrt(q) / delta) /
    # q^(3/2)), with q = s0 - 2i delta, in real terms that both parts share:
    # - |q| = sqrt(q2) with q2 = s0^2 + 4 delta^2, and sqrt(q) = a - i delta/a
    #   with a^2 = (|q| + s0)/2 >= 1, so q^(3/2) = a (2 s0 - |q|)
    #   - i delta (2 s0 + |q|)/a, and |q^(3/2)|^2 = |q|^3;
    # - the arctangent's argument is x + iy = 1/a + i a/delta, x > 0, and
    #   Re atan(x + iy) = atan2(2x, 1 - x^2 - y^2)/2; scaled by a^2 delta^2
    #   and with delta^2 = a^2 (|q| - a^2), twice the real part is
    #   atan2(2 delta^2, a (delta^2 - |q|));
    # - four times the imaginary part is the log of the ratio of
    #   (1 +/- y)^2 + x^2, scaled by delta^2: (delta +/- a)^2 + delta^2/a^2,
    #   which differ by 4 a delta, so it is log1p(4 a delta / the second).
    # So, with b2 = delta^2 / a^2 and h = delta (s0 + |q|/2) / a = -Im(q^(3/2))/2,
    # the density is (4 + (re2 a (2 s0 - |q|) - im4 h) / |q|) / (pi^2 q2).
    # np.square, not ** 2: numpy squares a numpy float by C pow(), whose last
    # bit can differ from the x * x it uses for arrays.
    s0 = 1.0 + x0 * x0
    d2 = delta * delta
    q2 = s0 * s0 + 4.0 * d2
    root = np.sqrt(q2)
    a2 = 0.5 * (root + s0)
    a = np.sqrt(a2)
    b2 = d2 / a2
    re2 = np.arctan2(2.0 * d2, a * (d2 - root))
    im4 = np.log1p(4.0 * a * delta / (np.square(delta - a) + b2))
    h = delta * (s0 + 0.5 * root) / a
    return (4.0 + (re2 * a * (2.0 * s0 - root) - im4 * h) / root) / (_PI2 * q2)


def ci1_density(x0, x1):
    """Joint density of the unit-interval pair at ``(x0, x1)``, in the
    broadcast shape of the two (a numpy float for 0-d inputs).

    One closed form for every point, regular on the line ``x0 = 2 x1``.  It
    depends on ``x0`` and ``x1`` only through ``x0^2`` and ``|x0 - 2 x1|``,
    so the result is point-symmetric bit for bit.  Nonnegative and below
    ``SQUEEZE_K`` times the envelope out to radius :data:`CHECKED_RADIUS`
    (checked by a polar scan and by Hypothesis).  Farther out the formula
    cancels near the ``x0 = 0`` axis: it returns values of either
    sign of about 1e-33 from ``|x1|`` about 2e7, and more than 3 times the
    envelope from about ``|x1| = 1.4e16``, where the true density stays
    below ``2 sqrt(2)`` times it; the envelope puts less than 1e-16 of its
    mass beyond radius 1e16.  From radius about 1e77, ``s0^2 + 4 delta^2``
    overflows and the result is NaN or far too small; the true density is
    below 1e-230 there.

    Whole-array numpy code, a new temporary each step: the sampler calls it
    for the few candidates its squeeze table leaves undecided, about 0.17 of
    a point a pair, so its cost is its about 40 ufunc calls, not their
    memory.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    # a delta whose square underflows is exact enough at 0
    with np.errstate(under="ignore"):
        return _density_generic(x0, np.abs(x0 - 2.0 * x1))


def student_envelope_density(x0, x1):
    """Bivariate Student(1 df) envelope ``(1/pi) (1 + x0^2 + (2 x1 - x0)^2)^(-3/2)``."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    t = 1.0 + x0 * x0 + (2.0 * x1 - x0) ** 2
    return 1.0 / (np.pi * t * np.sqrt(t))


def _envelope_points(u: np.ndarray):
    """Envelope points from rows 0 and 1 of the uniforms ``u``, by
    conditional inversion: ``(x0, x1, t)``, with ``x0`` written over row 0,
    and new arrays ``x1`` and ``t = 1 + x0^2 + (2 x1 - x0)^2``, so the
    envelope is ``1/(pi t^(3/2))`` there; row 1 is kept.

    With ``x0 = u`` and ``v = 2 x1 - x0``, the envelope is the spherical
    Student(1) law of ``(u, v)``.  Its ``u`` marginal is standard Cauchy,
    drawn as ``tan(pi U0)``.  Given ``u``, ``v`` has the density
    proportional to ``(s0 + v^2)^(-3/2)``, ``s0 = 1 + u^2``: ``sqrt(s0/2)``
    times a t variable with 2 degrees of freedom, whose quantile at ``p``
    is ``(2p - 1) / sqrt(2 p (1 - p))``.  So ``v = sqrt(s0 / (p (1 - p)))
    (p - 1/2)`` with ``p = U1``, and ``1 + u^2 + v^2 = s0 / (4 p (1 - p))``.
    ``p (1 - p)`` is zero only at ``p = 0``, which :func:`_redraw_zeros`
    replaces first.  Every step is elementwise, so a point's bits do not
    depend on the other entries of the rows.
    """
    x0, p = u[0], u[1]
    cauchy_in_place(x0)
    spread = (1.0 + x0 * x0) / (p * (1.0 - p))
    x1 = 0.5 * (x0 + np.sqrt(spread) * (p - 0.5))
    return x0, x1, 0.25 * spread


def _redraw_zeros(gen: np.random.Generator, p: np.ndarray) -> None:
    """Redraw from ``gen``, in place, every ``p = U1`` that is 0 (probability
    2**-53 a draw), where ``p (1 - p)`` would be 0."""
    while not p.all():
        zero = p == 0.0
        p[zero] = gen.random(int(zero.sum()))


def sample_student_envelope(rng: RandomStream, size: int):
    """Draw ``(x0, x1)`` from :func:`student_envelope_density`: two arrays
    of ``size``.

    One ``(2, size)`` uniform draw, mapped by :func:`_envelope_points`: a
    Cauchy ``x0``, then ``2 x1 - x0`` given ``x0`` by inverting its
    conditional t law.  The sampler draws its candidates' points the same
    way.  The change of variables ``u = x0``, ``v = 2 x1 - x0`` (Jacobian
    1/2) maps the spherical bivariate Student(1) law of ``(u, v)`` exactly
    onto the envelope.
    """
    gen = rng.generator
    u = gen.random((2, size))
    _redraw_zeros(gen, u[1])
    x0, x1, _ = _envelope_points(u)
    return x0, x1


def _accept_mask(x0, x1, u01):
    """Rejection test of proposals with uniforms ``u01`` on ``[0, 1)``:
    accept when ``u * (C/pi) * g <= f``.

    Upper squeeze: the density never exceeds ``2 sqrt(2)`` (about 2.8285)
    times the envelope, approached at large radius towards the direction
    ``(1, 1)``, so ``u * (C/pi) > SQUEEZE_K = 3`` rejects with a 6% margin,
    and ``f`` and ``g`` are evaluated only where the squeeze passes; there
    the test is the plain one.  Far out near the ``x0 = 0`` axis the
    computed density cancels and can exceed 3 times the envelope (see
    :func:`ci1_density`), but only a uniform at or below the cut meets it.
    The sampler applies the same test to candidates only (see
    :func:`_candidate_block`).
    """
    test = np.flatnonzero(u01 * REJECTION_OVERHEAD <= SQUEEZE_K)
    x0, x1 = x0.take(test), x1.take(test)
    accept = np.zeros(np.shape(u01), dtype=bool)
    scaled = u01.take(test) * REJECTION_OVERHEAD
    accept.flat[test] = scaled * student_envelope_density(x0, x1) <= ci1_density(x0, x1)
    return accept


def _scaled_density(u: np.ndarray, density) -> np.ndarray:
    """``h = f(x0, x1) t^(3/2)``, the density over ``pi`` times the
    envelope, at the candidates whose ``U0`` and ``U1`` are the rows of the
    ``(2, n)`` array ``u``: :func:`_envelope_points` over ``u``, then
    ``density``, :func:`ci1_density`.  The sampler and its squeeze table
    both compute ``h`` here."""
    x0, x1, t = _envelope_points(u)
    return density(x0, x1) * (t * np.sqrt(t))


#: Cells a side of the squeeze table, a power of two: ``U0 * G`` and
#: ``U1 * G`` are exact, so a candidate's cell is the integer parts.
_CELLS = 64

#: Lattice steps a cell side over which the table takes ``h``'s extrema.
_STEPS = 4

#: The bounds' margin: ``_SAFETY`` times the cell's largest step difference
#: of the lattice, plus ``_ROUNDING`` times its largest ``|h|``.
_SAFETY = 2.0
_ROUNDING = 1e-9

#: Half-width of the strip ``|U0 - 1/2| < _STRIP`` whose candidates are
#: always evaluated: it holds every ``U0`` whose ``|x0| = |tan(pi U0)|``
#: passes :data:`CHECKED_RADIUS`, since ``cot(pi/3e6) < 1e6``.
_STRIP = 1.0 / (3.0 * CHECKED_RADIUS)

_table: tuple[np.ndarray, np.ndarray] | None = None
_table_lock = threading.Lock()


def _build_table(density=ci1_density) -> tuple[np.ndarray, np.ndarray]:
    """The squeeze table: flat arrays ``lo`` and ``hi`` of ``G^2 + 1``
    bounds, cell ``(i, j)`` of ``U0`` in ``[i/G, (i+1)/G)`` and ``U1`` in
    ``[j/G, (j+1)/G)`` at ``i G + j``, and a last entry, ``-inf`` and
    ``inf``, that decides nothing, for the strip around ``U0 = 1/2``.

    Bounds of the computed ``h``.  Each cell's ``h`` is computed by
    :func:`_scaled_density`, the sampler's arithmetic, on a lattice of
    ``(S + 1)^2`` points, ``S`` = :data:`_STEPS`, spaced ``1/(S G)`` and
    clipped to the values the uniforms take: ``U0`` at most ``1 - 2^-53``,
    and ``U1``, whose 0 is redrawn, in ``[2^-53, 1 - 2^-53]``.  Let ``D`` be
    the largest difference of ``h`` between neighbouring lattice points of
    the cell.  A point of the cell lies within half a step, along each
    axis, of a corner of its lattice square, so to first order ``h`` there
    differs from that corner's value by at most half a step difference
    along each axis, together at most ``D``.  The bounds are the lattice
    extrema widened by ``_SAFETY D``, a factor 2 on the first-order bound
    for the gradient's change across a cell, plus ``_ROUNDING`` times the
    cell's largest ``|h|`` for rounding, whose pointwise noise a lattice
    does not see.  A cell whose lattice gives a NaN decides nothing.

    Where it is not smooth.  Near ``U1 = 0`` or 1 ``h`` moves like
    ``sqrt(U1)`` and the points run out to radius 1e13 near the ``x0 = 0``
    axis, where the computed density cancels to noise of either sign.  That
    noise stays below 2e-8 in ``h`` wherever ``|x0| <= 20.4``, against
    margins above 2e-3 in those edge cells, but reaches 1.6e-3 at ``|x0|``
    about 7e5: the four edge cells beside ``U0 = 1/2`` (``|x0| > 20.4``)
    decide nothing.  The strip ``|U0 - 1/2| < _STRIP``, where ``|x0|``
    passes :data:`CHECKED_RADIUS`, goes to the last entry
    (:func:`_candidate_block`).  With those, the computed ``h`` lies within
    its cell's bounds on 10**7 seeded candidates and on dense samples of
    the square's edges and of the cells' edges, closest at 0.19 of the
    cell's bound width (tests/test_ci1.py).

    One row of cells at a time: the build holds about 270 kB, the lattice
    uniforms and the temporaries of one row's ``h``, and takes 10 to 12 ms
    (2-vCPU VM).
    """
    g, s = _CELLS, _STEPS
    width = g * s + 1
    last = 1.0 - 2.0**-53
    u1 = np.minimum(np.arange(width) / (g * s), last)
    u1[0] = 2.0**-53
    n = (s + 1) * width
    u = np.empty((2, s + 1, width))
    lo, hi = np.full(g * g + 1, -np.inf), np.full(g * g + 1, np.inf)
    for i in range(g):
        u[0] = np.minimum((i * s + np.arange(s + 1.0)) / (g * s), last)[:, None]
        u[1] = u1
        h = _scaled_density(u.reshape(2, n), density).reshape(s + 1, width)
        low = _per_cell(h.min(axis=0), np.minimum)
        high = _per_cell(h.max(axis=0), np.maximum)
        step = np.maximum(
            _per_cell(np.abs(np.diff(h, axis=0)).max(axis=0), np.maximum),
            np.abs(np.diff(h, axis=1)).max(axis=0).reshape(g, s).max(axis=1),
        )
        margin = _SAFETY * step + _ROUNDING * np.maximum(np.abs(low), np.abs(high))
        np.subtract(low, margin, out=lo[i * g : (i + 1) * g])
        np.add(high, margin, out=hi[i * g : (i + 1) * g])
    # the U1-edge cells next to U0 = 1/2
    corners = [i * g + j for i in (g // 2 - 1, g // 2) for j in (0, g - 1)]
    lo[corners], hi[corners] = -np.inf, np.inf
    lo[np.isnan(lo)], hi[np.isnan(hi)] = -np.inf, np.inf
    return lo, hi


def _per_cell(a: np.ndarray, ufunc) -> np.ndarray:
    """``ufunc`` (``np.minimum`` or ``np.maximum``) reduced over each cell's
    ``S + 1`` of a row of ``G S + 1`` lattice columns, neighbours sharing
    their edge column."""
    return ufunc(ufunc.reduce(a[:-1].reshape(-1, _STEPS), axis=1), a[_STEPS::_STEPS])


def _squeeze_table() -> tuple[np.ndarray, np.ndarray]:
    """The squeeze table of :func:`_build_table`, built once per process on
    first use, under a lock, so threads that draw at once share one build."""
    global _table
    if _table is None:
        with _table_lock:
            if _table is None:
                _table = _build_table()
    return _table


def _front(k: int) -> int:
    """Float64s at the front of a block of ``k`` candidates' scratch: its
    ``(3, k)`` uniforms and three ``k``-entry bool masks.  The candidates'
    cells and bounds follow from there."""
    return 3 * k + -(-3 * k // 8)


def _candidate_block(gen: np.random.Generator, k: int):
    """``k`` candidates, as their ``(3, k)`` uniforms and accept mask, views
    into the thread's :func:`~l1sketch.randstream.scratch` that are valid
    until it is next asked for.  The block's one request of scratch,
    :func:`_front` ``(k) + 2 k`` float64s, holds its k-sized arrays: the
    uniforms, the masks, and the candidates' cells and bounds.  The
    undecided candidates are gathered into new arrays.

    One ``(3, k)`` uniform draw, rows ``U0``, ``U1`` and ``w``, and the
    :func:`_redraw_zeros` of row 1.  A candidate is a proposal that passed
    the squeeze, whose uniform ``u`` has ``u * (C/pi) = w * K``, so it is
    accepted when ``w * K * g <= f``, here ``w * K/pi <= h`` with ``h = f
    t^(3/2)`` (:func:`_scaled_density`).  ``h`` depends on ``U0`` and
    ``U1`` only, and :func:`_squeeze_table` bounds it, ``lo <= h <= hi``,
    on each cell of the unit square: a candidate with ``w * K/pi <= lo``
    is accepted and one with ``w * K/pi > hi`` rejected, as the plain test
    would, and only the rest (about 5%, and the strip around ``U0 = 1/2``)
    has ``h`` computed.  Row 2 holds ``w * K/pi`` on return, and rows 0
    and 1 the candidates' ``U0`` and ``U1``, for :func:`_kept_points`.
    """
    lo, hi = _squeeze_table()
    front = _front(k)
    buf = scratch(front + 2 * k)
    u = buf[: 3 * k].reshape(3, k)
    gen.random(out=u)
    _redraw_zeros(gen, u[1])
    accept, open_, strip = buf[3 * k : front].view(np.bool_)[: 3 * k].reshape(3, k)
    cell = buf[front : front + k].view(np.intp)
    bound = buf[front + k : front + 2 * k]
    column = bound.view(np.intp)
    np.multiply(u[0], _CELLS, out=cell, casting="unsafe")  # trunc is floor here
    np.multiply(cell, _CELLS, out=cell)
    np.multiply(u[1], _CELLS, out=column, casting="unsafe")
    np.add(cell, column, out=cell)
    np.subtract(u[0], 0.5, out=bound)
    np.absolute(bound, out=bound)
    np.less(bound, _STRIP, out=strip)
    np.copyto(cell, _CELLS * _CELLS, where=strip)
    w = np.multiply(u[2], SQUEEZE_K / np.pi, out=u[2])
    np.less_equal(w, lo.take(cell, out=bound, mode="clip"), out=accept)
    np.less_equal(w, hi.take(cell, out=bound, mode="clip"), out=open_)
    np.not_equal(open_, accept, out=open_)  # lo < w <= hi, as lo <= hi
    undecided = np.flatnonzero(open_)
    if undecided.size:
        h = _scaled_density(u[:2].take(undecided, axis=1), ci1_density)
        accept[undecided] = w.take(undecided) <= h
    return u, accept


def _kept_points(u: np.ndarray, keep: np.ndarray):
    """The envelope points ``(x0, x1)`` of the candidates at ``keep`` of a
    :func:`_candidate_block`, computed from their uniforms by the same
    elementwise :func:`_envelope_points`."""
    x0, x1, _ = _envelope_points(u[:2].take(keep, axis=1))
    return x0, x1


def first_block(need: int) -> int:
    """Candidates in the first block for ``need`` accepts: the expected
    count ``mean = need * K`` plus ``4 sqrt(mean)``, at least 64.

    Each candidate is accepted with probability ``p = 1/K``, so whatever
    ``need`` is, the margin holds ``4 sqrt(p / (1 - p))``, about 2.8,
    standard deviations of the accept count: about 0.3% of first blocks
    fall short and top up, and the overdraw share ``4 / sqrt(mean)`` falls
    as ``need`` grows.
    """
    mean = need * SQUEEZE_K
    return max(math.ceil(mean + 4.0 * math.sqrt(mean)), 64)


def pairs_scratch(need: int) -> int:
    """Float64s of scratch one :func:`fill_pairs` call for ``need`` pairs
    holds at its peak on a thread whose scratch buffer is empty, for a
    first block of ``k`` candidates: the larger of its two peaks.  While the undecided
    candidates' density is computed, the block's front (3.4 rows of ``k``)
    and its cells and bounds (2 rows), the undecided candidates (about 6%
    of the block, 17 floats each: 1.1 rows) and 600 floats that do not
    grow with the block (array headers and small arrays).  While the kept
    candidates' points are computed, 7.8 rows: the same 5.4, then their
    indices (a third of a row), their uniforms (two thirds) and at most
    four of the envelope map's temporaries (1.3 rows).  The first peak is
    the larger for ``k`` up to 461, groups of up to 127 pairs.
    tracemalloc measured 7.66 rows for a degree-1 benchmark block, 4,544
    pairs (first block 14,100), and 7.64 and 7.63 rows for 1,278 and 710
    pairs; for 71 pairs (272 candidates), 8.08-8.52 rows in five calls
    against 8.71 counted, and 7.91-8.84 over 90 calls from 30 seeds."""
    k = first_block(need)
    return math.ceil(max(7.8 * k, 6.5 * k + 600))


def fill_pairs(gen: np.random.Generator, out: np.ndarray) -> None:
    """Exact unit-interval pairs into ``out[..., 0]`` (``x0``) and
    ``out[..., 1]`` (``x1``), in row-major order: the sampler's one
    rejection loop.

    Accepted candidates are i.i.d. draws of the pair law, and which slot
    each fills does not depend on its value, so one call fills all the
    slots of ``out``, a group of :func:`~l1sketch.randstream.fill_groups`.
    Draws a first block of :func:`first_block` candidates (so block shapes
    do not depend on acceptance luck), then tops up with 1.4 times the
    expected count still missing, at least 64, while short; each block is
    :func:`_candidate_block`, three uniforms a candidate, in scratch, and
    the envelope points of the accepted candidates it keeps, and of no
    other, are computed (:func:`_kept_points`) and written into ``out``.
    The squeeze table decides most candidates without their point or
    density, and decides them as the plain test does, so the pairs are
    those of the plain rejection loop, bit for bit.  A budget of
    ``REJECTION_ITERATION_CAP`` proposals per requested draw, a candidate
    counting as the ``C/(K pi)`` proposals it stands for, guards against a
    broken domination bound; exceeding it raises, it never loops silently.
    An ``out`` that cannot be viewed as ``(n, 2)`` raises
    :class:`ParameterError` rather than filling a copy.
    """
    pairs = out.reshape(-1, 2)
    if not np.shares_memory(pairs, out):
        raise ParameterError("fill_pairs needs an out that reshapes to (n, 2) as a view")
    need = len(pairs)
    got, used = 0, 0.0
    k = first_block(need)
    while got < need:
        u, accept = _candidate_block(gen, k)
        keep = np.flatnonzero(accept)[: need - got]
        x0, x1 = _kept_points(u, keep)
        pairs[got : got + keep.size, 0] = x0
        pairs[got : got + keep.size, 1] = x1
        got += keep.size
        used += k * _PROPOSALS_PER_CANDIDATE
        if used > REJECTION_ITERATION_CAP * need:
            raise EnvelopeDominationError(
                f"rejection sampler used {math.ceil(used)} proposals for {need} draws; "
                "envelope domination appears violated"
            )
        k = max(int((need - got) * SQUEEZE_K * 1.4), 64)


def sample_ci1_unit(rng: RandomStream, size: int):
    """Exact draws of the unit-interval pair, a ``(2, size)`` array whose
    rows are ``x0`` and ``x1``: the sketch's :func:`fill_pairs`, in the
    groups of :func:`l1sketch.randstream.fill_groups`.  A negative ``size``
    raises :class:`ParameterError`.
    """
    if size < 0:
        raise ParameterError(f"size must be >= 0, got {size}")
    pairs = np.empty((size, 2))
    fill_groups(rng.generator, fill_pairs, pairs, UNIFORMS_PER_PAIR)
    return pairs.T
