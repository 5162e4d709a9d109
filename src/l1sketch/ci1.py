"""Exact sampling for the joint law of ``(integral of 1 dL, integral of x dL)``.

``L`` is Cauchy motion on ``[0, 1]`` (the symmetric 1-stable process).  The
pair of stochastic integrals of the functions ``1`` and ``x`` has an explicit
two-dimensional density with two analytic branches: a generic closed form
involving a complex arctangent, and a simpler formula on the line
``x0 = 2*x1`` where the generic expression degenerates.  The density is
dominated by ``(C/pi)`` times a bivariate Student law with one degree of
freedom, which yields an exact rejection sampler with acceptance rate
``pi/C``.

The ratio of density to envelope never exceeds about ``2 sqrt(2)``, far
below ``C/pi``, so an upper squeeze (``SQUEEZE_K = 3``) rejects every
proposal whose uniform has ``u * (C/pi) > 3`` without evaluating the density.
The density is then evaluated on about 38% of proposals (``3 pi/25``); the
decisions, and so the acceptance rate ``pi/25``, are those of the plain test.

Conventions: ``x0`` is the coefficient-of-1 component, ``x1`` the
coefficient-of-x component.  All complex powers and logarithms use the
principal branch (log imaginary part in ``(-pi, pi]``, arctangent real part
in ``(-pi/2, pi/2)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeDominationError
from .randstream import RandomStream

#: Domination constant: density <= (C/pi) * envelope everywhere.
DOMINATION_C = 25.0

#: Expected proposals per accepted sample.
REJECTION_OVERHEAD = DOMINATION_C / np.pi

#: Upper squeeze: the computed density stays below ``SQUEEZE_K`` times the
#: envelope wherever the envelope is at least ``SQUEEZE_G_MIN``.
SQUEEZE_K = 3.0

#: Below this envelope value (radius beyond about 7e7) the squeeze is off.
#: Far out the generic density formula cancels: near the ``x0 = 0`` axis its
#: computed value passes 3 times the envelope from about ``|x1| = 2e11``.
SQUEEZE_G_MIN = 1e-24

#: Proposal cap per requested sample before declaring the envelope broken.
REJECTION_ITERATION_CAP = 10_000

_FOUR_OVER_PI2 = 4.0 / np.pi**2
_TWO_OVER_PI2 = 2.0 / np.pi**2


@dataclass
class CI1Sample:
    """One draw (or a batch) of the pair of stochastic integrals."""

    x0: float | np.ndarray
    x1: float | np.ndarray


def complex_atan(z):
    """Principal-branch arctangent, ``(i/2) * (log(1 - i z) - log(1 + i z))``.

    Evaluating the two logarithms separately (rather than the log of their
    ratio) keeps the real part in ``(-pi/2, pi/2)`` for every argument off
    the branch cuts on the imaginary axis.
    """
    z = np.asarray(z, dtype=complex)
    return 0.5j * (np.log(1.0 - 1j * z) - np.log(1.0 + 1j * z))


def diagonal_tolerance(x0):
    """Half-width of the band around ``x0 = 2 x1`` that uses the diagonal branch.

    Inside the band the generic formula divides by ``x0 - 2 x1`` and suffers
    cancellation; the diagonal formula is its analytic limit, and switching
    at ``1e-8 * (1 + |x0|)`` keeps the branch-selection error below 1e-6.
    """
    return 1e-8 * (1.0 + np.abs(x0))


def _density_generic(x0, x1):
    # Valid only away from the diagonal band: divides by x0 - 2*x1.
    delta = x0 - 2.0 * x1
    s0 = 1.0 + x0 * x0
    q = s0 - 2j * delta
    root_q = np.sqrt(q)  # principal; Re(q) >= 1 keeps it off the cut
    q32 = q * root_q
    flat = _FOUR_OVER_PI2 / (s0 * s0 + 4.0 * delta * delta)
    return flat + _TWO_OVER_PI2 * np.real(complex_atan(1j * root_q / delta) / q32)


def _density_diagonal(x0):
    s0 = 1.0 + x0 * x0
    return _FOUR_OVER_PI2 / (s0 * s0) + 1.0 / (np.pi * s0 * np.sqrt(s0))


def ci1_density(x0, x1):
    """Joint density of the unit-interval pair at ``(x0, x1)``; vectorized.

    Points with ``|x0 - 2 x1|`` inside :func:`diagonal_tolerance` use the
    diagonal closed form; all others use the generic formula.  Nonnegative
    where ``|x0|`` and ``|x1|`` are at most 1e6 (checked by scans).  Farther
    out the generic formula cancels near the ``x0 = 0`` axis: it returns
    values of either sign of about 1e-28 from ``|x1|`` about 1.8e6, and more
    than 3 times the envelope from about ``|x1| = 2e11``, which is why the
    squeeze stops at ``SQUEEZE_G_MIN``.
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
    """Raw envelope proposals from a numpy generator; resamples w == 0."""
    y = gen.standard_normal((n, 3))
    w = y[:, 2] * y[:, 2]
    while np.any(w == 0.0):
        bad = w == 0.0
        y[bad, 2] = gen.standard_normal(int(bad.sum()))
        w = y[:, 2] * y[:, 2]
    rw = np.sqrt(w)
    u = y[:, 0] / rw
    v = y[:, 1] / rw
    return u, 0.5 * (u + v)


def _proposal_block(gen: np.random.Generator, n: int):
    """Envelope proposals plus their acceptance uniforms, in fixed draw order."""
    x0, x1 = _envelope_draws(gen, n)
    return x0, x1, gen.random(n)


def _accept_mask(x0, x1, u01):
    """Rejection test: accept when ``u * (C/pi) * g <= f``.

    Upper squeeze: where ``g >= SQUEEZE_G_MIN`` the computed ratio ``f / g``
    stays below 2.8285 (sup 2 sqrt(2), approached at large radius towards
    the direction ``(1, 1)``), so ``u * (C/pi) > SQUEEZE_K = 3`` makes
    ``u * (C/pi) * g`` exceed ``f`` with a 6% margin, far above rounding: such
    a proposal is rejected without evaluating ``f``.  Every other point gets
    the plain test, in the same operation order, so no decision changes.
    """
    scaled = u01 * REJECTION_OVERHEAD
    g = student_envelope_density(x0, x1)
    test = np.flatnonzero((scaled <= SQUEEZE_K) | ~(g >= SQUEEZE_G_MIN))
    accept = np.zeros(np.shape(scaled), dtype=bool)
    accept.flat[test] = scaled.take(test) * g.take(test) <= ci1_density(x0.take(test), x1.take(test))
    return accept


def sample_student_envelope(rng: RandomStream, size: int | None = None) -> CI1Sample:
    """Draw from the envelope: ``u = y1/sqrt(w)``, ``v = y2/sqrt(w)``,
    return ``(u, (u + v)/2)``.

    ``y1, y2`` are standard normal and ``w`` is chi-squared(1); a zero ``w``
    (probability zero) is resampled.  The change of variables ``u = x0``,
    ``v = 2 x1 - x0`` (Jacobian 1/2) maps the spherical bivariate Student(1)
    law of ``(u, v)`` exactly onto :func:`student_envelope_density`.
    """
    n = 1 if size is None else int(size)
    x0, x1 = _envelope_draws(rng.generator, n)
    if size is None:
        return CI1Sample(float(x0[0]), float(x1[0]))
    return CI1Sample(x0, x1)


def first_block(need: int) -> int:
    """Proposals in the first block for ``need`` accepts: 1.3 times the
    expected count, at least 64."""
    return max(math.ceil(need * REJECTION_OVERHEAD * 1.3), 64)


def unit_pairs(gen: np.random.Generator, need: int):
    """``need`` exact unit-interval pairs from ``gen``, as two arrays.

    Draws a first block of :func:`first_block` proposals (so block shapes do
    not depend on acceptance luck), then tops up in the rare shortfall case.
    A proposal budget of ``REJECTION_ITERATION_CAP`` per requested draw
    guards against a broken domination bound; exceeding it raises, it never
    loops silently.
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


def sample_ci1_unit(rng: RandomStream, size: int | None = None) -> CI1Sample:
    """Exact draws of the unit-interval pair by rejection under the envelope.

    Proposals come from the envelope of :func:`sample_student_envelope`; a
    proposal ``z`` is accepted when ``u * (C/pi) * g(z) <= f(z)`` with
    ``C = 25``.  Expected proposals per sample: ``25/pi``, about 8.  The loop
    is :func:`unit_pairs`, the one the sketch uses.
    """
    n = 1 if size is None else int(size)
    if n == 0:
        return CI1Sample(np.empty(0), np.empty(0))
    x0, x1 = unit_pairs(rng.generator, n)
    if size is None:
        return CI1Sample(float(x0[0]), float(x1[0]))
    return CI1Sample(x0, x1)
