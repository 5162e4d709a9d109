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

A block of candidates runs in place, from the uniform draw through the
envelope points and the density to the accept test, in the
:class:`~l1sketch.randstream.Workspace` that
:func:`~l1sketch.randstream.fill_groups` lends to every group of a call,
and :func:`fill_pairs`, the one rejection loop, writes each block's
accepted candidates straight into the group's slots.  Temporaries freed
after each group would let glibc hand the memory back and fault it in
again; a one-thread sketch of the 71-interval degree-1 benchmark family
makes no minor page fault after a warm call (``ru_minflt``).

Conventions: ``x0`` is the coefficient-of-1 component, ``x1`` the
coefficient-of-x component, the rows of :func:`sample_ci1_unit`'s
``(2, size)`` array.  The square root and the arctangent are principal-branch,
and the density evaluates both in real arithmetic, on terms the two share.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnvelopeDominationError, ParameterError
from .randstream import RandomStream, Workspace, cauchy_in_place, fill_groups

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


#: Rows of scratch :func:`ci1_density` works in: ``delta`` and the eight of
#: :func:`_density_generic`.
_DENSITY_ROWS = 9


def _rows(buf: np.ndarray, count: int, shape) -> list[np.ndarray]:
    """``count`` C-contiguous float64 arrays of ``shape``, in order from the
    front of the flat ``buf``."""
    size = math.prod(shape)
    rows = buf[: count * size].reshape(count, *shape)
    return [rows[i, ...] for i in range(count)]


def _density_generic(x0, delta, scratch: np.ndarray):
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
    # Every step writes into one of eight rows of the flat ``scratch``, in the
    # order and association of that expression; the result is returned in one
    # of them.  x0 and delta are only read.
    s0, d2, q2, root, b2, a, num, den = _rows(scratch, 8, np.broadcast(x0, delta).shape)
    np.multiply(x0, x0, out=s0)
    np.add(1.0, s0, out=s0)
    np.multiply(delta, delta, out=d2)
    np.multiply(s0, s0, out=q2)
    np.multiply(4.0, d2, out=num)
    np.add(q2, num, out=q2)
    np.sqrt(q2, out=root)
    np.add(root, s0, out=b2)
    np.multiply(0.5, b2, out=b2)  # a^2
    np.sqrt(b2, out=a)
    np.divide(d2, b2, out=b2)
    np.subtract(d2, root, out=num)
    np.multiply(a, num, out=num)
    np.multiply(2.0, d2, out=d2)
    re2 = np.arctan2(d2, num, out=d2)
    np.multiply(4.0, a, out=num)
    np.multiply(num, delta, out=num)
    np.subtract(delta, a, out=den)
    np.square(den, out=den)
    np.add(den, b2, out=den)
    np.divide(num, den, out=num)
    im4 = np.log1p(num, out=num)
    np.multiply(0.5, root, out=den)
    np.add(s0, den, out=den)
    np.multiply(delta, den, out=den)
    h = np.divide(den, a, out=den)
    np.multiply(re2, a, out=re2)
    np.multiply(2.0, s0, out=s0)
    np.subtract(s0, root, out=s0)
    np.multiply(re2, s0, out=re2)
    np.multiply(im4, h, out=im4)
    np.subtract(re2, im4, out=re2)
    np.divide(re2, root, out=re2)
    np.add(4.0, re2, out=re2)
    np.multiply(_PI2, q2, out=q2)
    return np.divide(re2, q2, out=re2)


def ci1_density(x0, x1, scratch=None):
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

    With ``scratch``, a flat float64 array of at least nine times the
    broadcast size, the evaluation makes no temporaries and an array result
    is a view into ``scratch``, valid until it is next written; without,
    the result is a new array.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    shape = np.broadcast(x0, x1).shape
    size = math.prod(shape)
    buf = np.empty(_DENSITY_ROWS * size) if scratch is None else scratch
    delta = buf[:size].reshape(shape)
    # a delta whose square underflows is exact enough at 0
    with np.errstate(under="ignore"):
        np.multiply(2.0, x1, out=delta)
        np.subtract(x0, delta, out=delta)
        np.absolute(delta, out=delta)
        f = _density_generic(x0, delta, buf[size:])
    return (f if scratch is not None else f.copy())[()]


def student_envelope_density(x0, x1):
    """Bivariate Student(1 df) envelope ``(1/pi) (1 + x0^2 + (2 x1 - x0)^2)^(-3/2)``."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    t = 1.0 + x0 * x0 + (2.0 * x1 - x0) ** 2
    return 1.0 / (np.pi * t * np.sqrt(t))


def _envelope_points(gen: np.random.Generator, u: np.ndarray, x1, t, tmp):
    """Envelope points from rows 0 and 1 of the uniforms ``u``, by
    conditional inversion, in place: ``(x0, x1, t)``, with ``x0`` written
    over row 0, and ``x1`` and ``t = 1 + x0^2 + (2 x1 - x0)^2``, so the
    envelope is ``1/(pi t^(3/2))`` there, into the arrays ``x1`` and ``t``
    of a row's length; ``tmp`` is scratch of that length, and row 1 is kept.

    With ``x0 = u`` and ``v = 2 x1 - x0``, the envelope is the spherical
    Student(1) law of ``(u, v)``.  Its ``u`` marginal is standard Cauchy,
    drawn as ``tan(pi U0)``.  Given ``u``, ``v`` has the density
    proportional to ``(s0 + v^2)^(-3/2)``, ``s0 = 1 + u^2``: ``sqrt(s0/2)``
    times a t variable with 2 degrees of freedom, whose quantile at ``p``
    is ``(2p - 1) / sqrt(2 p (1 - p))``.  So ``v = sqrt(s0 / (p (1 - p)))
    (p - 1/2)`` with ``p = U1``, and ``1 + u^2 + v^2 = s0 / (4 p (1 - p))``.
    ``p (1 - p)`` is zero only at ``p = 0`` (probability 2**-53 a draw);
    such a ``p`` is redrawn from ``gen``, in place.
    """
    x0, p = u[0], u[1]
    zero = p == 0.0
    while zero.any():
        p[zero] = gen.random(int(zero.sum()))
        zero = p == 0.0
    cauchy_in_place(x0)
    np.multiply(x0, x0, out=t)
    np.add(1.0, t, out=t)
    np.subtract(1.0, p, out=tmp)
    np.multiply(p, tmp, out=tmp)
    spread = np.divide(t, tmp, out=t)  # (1 + x0^2) / (p (1 - p))
    np.sqrt(spread, out=x1)
    np.subtract(p, 0.5, out=tmp)
    np.multiply(x1, tmp, out=x1)  # v
    np.add(x0, x1, out=x1)
    np.multiply(0.5, x1, out=x1)
    return x0, x1, np.multiply(0.25, spread, out=t)


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
    x0, x1, _ = _envelope_points(gen, gen.random((2, size)), *np.empty((3, size)))
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


#: Rows of ``k`` float64s that a block of ``k`` candidates works in: its
#: uniforms ``U0``, ``U1`` and ``w``, ``x1``, ``t`` and the density's rows.
_BLOCK_ROWS = 5 + _DENSITY_ROWS


def _candidate_block(gen: np.random.Generator, k: int, work: Workspace):
    """``k`` candidates, as ``(x0, x1, accept)``.

    One ``(3, k)`` uniform draw: rows 0 and 1 give the envelope points
    (:func:`_envelope_points`), row 2 the acceptance uniforms ``w``.  A
    candidate is a proposal that passed the squeeze, whose uniform ``u``
    has ``u * (C/pi) = w * K``, so it is accepted when ``w * K * g <= f``,
    here ``w * K/pi <= f * t^(3/2)`` with ``g = 1/(pi t^(3/2))``.  Every
    step from the draw to the test writes into :data:`_BLOCK_ROWS` rows of
    the :class:`~l1sketch.randstream.Workspace` ``work``, so ``x0`` and
    ``x1`` are views into it, valid until it is next written.
    """
    buf = work.floats(_BLOCK_ROWS * k)
    u = buf[: 3 * k].reshape(3, k)
    gen.random(out=u)
    x1, t, tmp = _rows(buf[3 * k :], 3, (k,))
    x0, x1, t = _envelope_points(gen, u, x1, t, tmp)
    np.sqrt(t, out=tmp)
    np.multiply(t, tmp, out=t)  # t^(3/2)
    np.multiply(ci1_density(x0, x1, scratch=buf[5 * k :]), t, out=t)
    w = np.multiply(u[2], SQUEEZE_K / np.pi, out=u[2])
    return x0, x1, w <= t


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
    holds at its peak in a new workspace: the :data:`_BLOCK_ROWS` rows of
    its first block, and one row more for the accept mask, the accepted
    candidates' indices and their values on the way into the output.
    tracemalloc measured 14.8 rows for a degree-1 benchmark block, 4,544
    pairs (first block 14,100), and for 1,278 and 710 pairs."""
    return (_BLOCK_ROWS + 1) * first_block(need)


def fill_pairs(gen: np.random.Generator, out: np.ndarray, work: Workspace) -> None:
    """Exact unit-interval pairs into ``out[..., 0]`` (``x0``) and
    ``out[..., 1]`` (``x1``), in row-major order: the sampler's one
    rejection loop.

    Accepted candidates are i.i.d. draws of the pair law, and which slot
    each fills does not depend on its value, so one call fills all the
    slots of ``out``, a group of :func:`~l1sketch.randstream.fill_groups`.
    Draws a first block of :func:`first_block` candidates (so block shapes
    do not depend on acceptance luck), then tops up with 1.4 times the
    expected count still missing, at least 64, while short; each block is
    :func:`_candidate_block`, three uniforms a candidate, in ``work``, and
    its accepted candidates are written straight into ``out``.  A budget of
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
        x0, x1, accept = _candidate_block(gen, k, work)
        keep = np.flatnonzero(accept)[: need - got]
        pairs[got : got + keep.size, 0] = x0[keep]
        pairs[got : got + keep.size, 1] = x1[keep]
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
