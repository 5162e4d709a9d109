"""Exact sampling for the joint law of ``(integral of 1 dL, integral of x dL)``.

``L`` is Cauchy motion on ``[0, 1]`` (the symmetric 1-stable process).  The
pair of stochastic integrals of the functions ``1`` and ``x`` has an explicit
two-dimensional density with two analytic branches: a generic closed form
involving a complex square root and arctangent, and a simpler formula on the
line ``x0 = 2*x1`` where the generic expression degenerates.  The density is
dominated by ``(C/pi)`` times a bivariate Student law with one degree of
freedom, which yields an exact rejection sampler with acceptance rate
``pi/C``.

The ratio of density to envelope never exceeds about ``2 sqrt(2)``, far
below ``C/pi``, so an upper squeeze (``SQUEEZE_K = 3``) rejects every
proposal whose uniform has ``u * (C/pi) > 3``, whatever its point.  The
sampler therefore draws each block's uniforms first and envelope points only
for the proposals the squeeze lets through, about 38% of them (``3 pi/25``).
A rejected proposal's point is independent of its uniform and unused, so
leaving it undrawn changes no law: the acceptance rate stays ``pi/25``.

Conventions: ``x0`` is the coefficient-of-1 component, ``x1`` the
coefficient-of-x component; the samplers return the tuple ``(x0, x1)`` of
two arrays, or of two floats for a single draw.  The square root and the
arctangent are principal-branch, and the generic branch evaluates both in
real arithmetic (the arctangent through :func:`_atan_parts`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnvelopeDominationError, ParameterError
from .randstream import RandomStream

#: Domination constant: density <= (C/pi) * envelope everywhere.
DOMINATION_C = 25.0

#: Expected proposals per accepted sample.
REJECTION_OVERHEAD = DOMINATION_C / np.pi

#: Upper squeeze: the density stays below ``SQUEEZE_K`` times the envelope.
SQUEEZE_K = 3.0

#: Proposal cap per requested sample before declaring the envelope broken.
REJECTION_ITERATION_CAP = 10_000

_FOUR_OVER_PI2 = 4.0 / np.pi**2
_TWO_OVER_PI2 = 2.0 / np.pi**2


def _atan_parts(x, y):
    """Real and imaginary parts of the principal ``atan(x + i y)``; vectorized.

    From ``atan z = (i/2) (log(1 - i z) - log(1 + i z))``: the real part is
    half the sum of the arguments of ``(1 - y) + i x`` and ``(1 + y) + i x``,
    so it stays in ``(-pi/2, pi/2)`` off the branch cuts on the imaginary
    axis; the imaginary part is a quarter of the log of the ratio of their
    squared moduli.
    """
    re = 0.5 * (np.arctan2(x, 1.0 - y) + np.arctan2(x, 1.0 + y))
    xx = x * x
    im = 0.25 * np.log(((1.0 + y) ** 2 + xx) / ((1.0 - y) ** 2 + xx))
    return re, im


def complex_atan(z):
    """Principal-branch arctangent of a complex argument, via :func:`_atan_parts`."""
    z = np.asarray(z, dtype=complex)
    re, im = _atan_parts(z.real, z.imag)
    return re + 1j * im


def diagonal_tolerance(x0):
    """Half-width of the band around ``x0 = 2 x1`` that uses the diagonal branch.

    Inside the band the generic formula divides by ``x0 - 2 x1`` and suffers
    cancellation; the diagonal formula is its analytic limit, and switching
    at ``1e-8 * (1 + |x0|)`` keeps the branch-selection error below 1e-6.
    """
    return 1e-8 * (1.0 + np.abs(x0))


def _density_generic(x0, x1):
    # Valid only away from the diagonal band: divides by x0 - 2*x1.  The
    # closed form flat + (2/pi^2) Re(atan(i sqrt(q) / delta) / q^(3/2)), with
    # q = s0 - 2i delta, in real parts: sqrt(q) = a + ib with a >= 1 (Re q =
    # s0 >= 1 keeps it off the cut), q^(3/2) = q sqrt(q) = p + i r, and
    # i sqrt(q) / delta = 1/a + i a/delta.
    delta = x0 - 2.0 * x1
    s0 = 1.0 + x0 * x0
    a = np.sqrt((np.hypot(s0, 2.0 * delta) + s0) / 2.0)
    b = -delta / a
    p = s0 * a + 2.0 * delta * b
    r = s0 * b - 2.0 * delta * a
    re, im = _atan_parts(1.0 / a, a / delta)
    flat = _FOUR_OVER_PI2 / (s0 * s0 + 4.0 * delta * delta)
    return flat + _TWO_OVER_PI2 * (re * p + im * r) / (p * p + r * r)


def _density_diagonal(x0):
    s0 = 1.0 + x0 * x0
    return _FOUR_OVER_PI2 / (s0 * s0) + 1.0 / (np.pi * s0 * np.sqrt(s0))


def ci1_density(x0, x1):
    """Joint density of the unit-interval pair at ``(x0, x1)``; vectorized.

    Points with ``|x0 - 2 x1|`` inside :func:`diagonal_tolerance` use the
    diagonal closed form; all others use the generic formula.  Nonnegative
    and below ``SQUEEZE_K`` times the envelope out to radius 1e6 (checked by
    a polar scan).  Farther out the generic formula cancels near the
    ``x0 = 0`` axis: it returns values of either sign of about 1e-27 from
    ``|x1|`` about 1.5e6, and more than 3 times the envelope from about
    ``|x1| = 2e11``, where the true density stays below ``2 sqrt(2)`` times
    it.  The sampler evaluates it there only for uniforms the squeeze passes.
    """
    x0a, x1a = np.broadcast_arrays(
        np.asarray(x0, dtype=float), np.asarray(x1, dtype=float)
    )
    scalar = x0a.ndim == 0
    x0a, x1a = np.atleast_1d(x0a), np.atleast_1d(x1a)
    on_diag = np.abs(x0a - 2.0 * x1a) <= diagonal_tolerance(x0a)
    if not on_diag.any():
        out = _density_generic(x0a, x1a)
    else:
        out = np.empty(x0a.shape)
        out[on_diag] = _density_diagonal(x0a[on_diag])
        rest = ~on_diag
        if rest.any():
            out[rest] = _density_generic(x0a[rest], x1a[rest])
    return float(out[0]) if scalar else out


def student_envelope_density(x0, x1):
    """Bivariate Student(1 df) envelope ``(1/pi) (1 + x0^2 + (2 x1 - x0)^2)^(-3/2)``."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    t = 1.0 + x0 * x0 + (2.0 * x1 - x0) ** 2
    out = 1.0 / (np.pi * t * np.sqrt(t))
    return float(out) if out.ndim == 0 else out


def _envelope_draws(gen: np.random.Generator, n: int):
    """``n`` raw envelope proposals from a numpy generator: standard normals
    ``y1, y2, y3`` give ``u = y1/sqrt(w)``, ``v = y2/sqrt(w)`` with
    ``w = y3^2``, mapped to ``(u, (u + v)/2)``; a zero ``w`` is resampled."""
    y = gen.standard_normal((n, 3))
    bad = y[:, 2] * y[:, 2] == 0.0
    while bad.any():
        y[bad, 2] = gen.standard_normal(int(bad.sum()))
        bad = y[:, 2] * y[:, 2] == 0.0
    rw = np.sqrt(y[:, 2] * y[:, 2])
    u = y[:, 0] / rw
    v = y[:, 1] / rw
    return u, 0.5 * (u + v)


def _squeeze_pass(u01):
    """Where the upper squeeze lets a uniform through: ``u * (C/pi) <= SQUEEZE_K``."""
    return u01 * REJECTION_OVERHEAD <= SQUEEZE_K


def _proposal_block(gen: np.random.Generator, n: int):
    """The proposals of a block of ``n`` that the squeeze lets through, as
    ``(x0, x1, u01)``.

    Draws the ``n`` acceptance uniforms first, then envelope points
    (:func:`_envelope_draws`) only for the uniforms :func:`_squeeze_pass`
    keeps, in order.  Every other proposal is rejected whatever its point,
    and its point is independent of its uniform, so it is not drawn.
    """
    u01 = gen.random(n)
    u01 = u01[_squeeze_pass(u01)]
    x0, x1 = _envelope_draws(gen, u01.size)
    return x0, x1, u01


def _accept_mask(x0, x1, u01):
    """Rejection test: accept when ``u * (C/pi) * g <= f``.

    Upper squeeze: the density never exceeds ``2 sqrt(2)`` (about 2.8285)
    times the envelope, approached at large radius towards the direction
    ``(1, 1)``, so ``u * (C/pi) > SQUEEZE_K = 3`` rejects with a 6% margin,
    and ``f`` and ``g`` are evaluated only where :func:`_squeeze_pass`
    holds; there the test is the plain one.  Far out near the ``x0 = 0`` axis
    the computed density cancels and can exceed 3 times the envelope (see
    :func:`ci1_density`), but only a uniform at or below the cut meets it.
    """
    test = np.flatnonzero(_squeeze_pass(u01))
    x0, x1 = x0.take(test), x1.take(test)
    accept = np.zeros(np.shape(u01), dtype=bool)
    scaled = u01.take(test) * REJECTION_OVERHEAD
    accept.flat[test] = scaled * student_envelope_density(x0, x1) <= ci1_density(x0, x1)
    return accept


def sample_student_envelope(rng: RandomStream, size: int | None = None):
    """Draw ``(x0, x1)`` from the envelope: ``u = y1/sqrt(w)``,
    ``v = y2/sqrt(w)``, returned as ``(u, (u + v)/2)``; two arrays of
    ``size``, or two floats when ``size`` is None.

    ``y1, y2`` are standard normal and ``w`` is chi-squared(1); a zero ``w``
    (probability zero) is resampled.  The change of variables ``u = x0``,
    ``v = 2 x1 - x0`` (Jacobian 1/2) maps the spherical bivariate Student(1)
    law of ``(u, v)`` exactly onto :func:`student_envelope_density`.
    """
    x0, x1 = _envelope_draws(rng.generator, 1 if size is None else int(size))
    return (float(x0[0]), float(x1[0])) if size is None else (x0, x1)


def first_block(need: int) -> int:
    """Proposals in the first block for ``need`` accepts: the expected count
    ``mean = need * C/pi`` plus ``4 sqrt(mean)``, at least 64.

    Each proposal is accepted with probability ``p = pi/C``, so whatever
    ``need`` is, the margin holds ``4 sqrt(p / (1 - p))``, about 1.5,
    standard deviations of the accept count: about 6% of first blocks fall
    short and top up, and the overdraw share ``4 / sqrt(mean)`` falls as
    ``need`` grows.
    """
    mean = need * REJECTION_OVERHEAD
    return max(math.ceil(mean + 4.0 * math.sqrt(mean)), 64)


def unit_pairs(gen: np.random.Generator, need: int):
    """``need`` exact unit-interval pairs from ``gen``, as two arrays.

    Accepted proposals are i.i.d. draws of the pair law, so the sketch asks
    for a whole group of replicates at once and lays the draws out by
    (replicate, interval) slot.  Draws a first block of :func:`first_block`
    proposals (so block shapes do not depend on acceptance luck), then tops
    up while short; each block is :func:`_proposal_block`, uniforms first.
    A budget of ``REJECTION_ITERATION_CAP`` proposals (uniforms) per
    requested draw guards against a broken domination bound; exceeding it
    raises, it never loops silently.
    """
    parts0, parts1 = [], []
    got = used = 0
    k = first_block(need)
    while got < need:
        x0, x1, u01 = _proposal_block(gen, k)
        accept = _accept_mask(x0, x1, u01)
        parts0.append(x0[accept])
        parts1.append(x1[accept])
        got += int(accept.sum())
        used += k
        if used > REJECTION_ITERATION_CAP * need:
            raise EnvelopeDominationError(
                f"rejection sampler used {used} proposals for {need} draws; "
                "envelope domination appears violated"
            )
        k = max(int((need - got) * REJECTION_OVERHEAD * 1.4), 64)
    return np.concatenate(parts0)[:need], np.concatenate(parts1)[:need]


def sample_ci1_unit(rng: RandomStream, size: int | None = None):
    """Exact draws ``(x0, x1)`` of the unit-interval pair by rejection under
    the envelope: two arrays of ``size``, or two floats when ``size`` is None.

    Proposals come from the envelope of :func:`sample_student_envelope`; a
    proposal ``z`` is accepted when ``u * (C/pi) * g(z) <= f(z)`` with
    ``C = 25``.  Expected proposals per sample: ``25/pi``, about 8, of which
    about 38% get an envelope point (the squeeze rejects the rest on their
    uniform alone).  The loop is :func:`unit_pairs`, the one the sketch
    uses.  A negative ``size`` raises :class:`ParameterError`.
    """
    n = 1 if size is None else int(size)
    if n < 0:
        raise ParameterError(f"size must be >= 0, got {size}")
    if n == 0:
        return np.empty(0), np.empty(0)
    x0, x1 = unit_pairs(rng.generator, n)
    return (float(x0[0]), float(x1[0])) if size is None else (x0, x1)
