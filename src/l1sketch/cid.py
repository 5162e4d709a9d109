"""Approximate sampling of degree-d stochastic-integral vectors.

For degree ``d`` the target is the joint law of the stochastic integrals of
``(1, x, ..., x^d)`` against Cauchy motion on the unit interval.  No exact
sampler is known for ``d >= 2``; instead the motion is discretized into ``r``
equal steps: independent Cauchy increments ``Z_j ~ C(0, 1/r)`` are combined
as ``sum_j Z_j * (1, (j/r), ..., (j/r)^d)``.  Any linear functional
``a . X`` of the result is then exactly Cauchy with scale equal to the
right-endpoint Riemann sum ``(1/r) * sum_j |p(j/r)|`` of the polynomial
``p`` with coefficients ``a``, so the only approximation error is that of
the Riemann sum, which shrinks like ``d^2 / r``.

The proportionality constant in the required ``r >= c d^2 / eps`` is not
constructive, so a calibrated empirical default is shipped; see
:func:`calibrate_c`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._poly import MAX_DEGREE, integrate_abs_poly, poly_eval, to_unit_interval
from .errors import ParameterError
from .randstream import RandomStream, sample_cauchy

#: Default discretization constant, from calibrate_c(d_max=8, target_eps=0.05,
#: trials=400, seed=20260809), safety factor 2 included.  Recompute with the
#: `calibrate` CLI command to override.
DEFAULT_C = 2.1

#: Calibration discards polynomials with |p|-mass below this, to avoid
#: relative-error blowup on near-null polynomials.
MIN_CALIBRATION_MASS = 1e-3


@dataclass
class CIdSample:
    """Components ``(X_0, ..., X_d)`` of one draw; batches stack rows."""

    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)

    @property
    def degree(self) -> int:
        return int(self.components.shape[-1] - 1)


@dataclass
class ApproxConfig:
    """Discretization settings: ``r = ceil(c * d^2 / eps)`` unless overridden."""

    d: int
    epsilon_integration: float
    c_constant: float = DEFAULT_C
    r: int | None = None

    def __post_init__(self):
        self.d = int(self.d)
        if self.d < 0 or self.d > MAX_DEGREE:
            raise ParameterError(f"degree must be in [0, {MAX_DEGREE}], got {self.d}")
        if self.c_constant <= 0:
            raise ParameterError("c_constant must be positive")
        if self.epsilon_integration <= 0:
            raise ParameterError("epsilon_integration must be positive")
        if self.r is None:
            self.r = max(1, math.ceil(self.c_constant * self.d**2 / self.epsilon_integration))
        else:
            self.r = int(self.r)
            if self.r < 1:
                raise ParameterError("r must be >= 1")


def _node_powers(r: int, d: int) -> np.ndarray:
    """Matrix ``V[j, k] = ((j+1)/r)^k`` built incrementally, shape (r, d+1)."""
    nodes = np.arange(1, r + 1) / r
    v = np.empty((r, d + 1))
    v[:, 0] = 1.0
    for k in range(1, d + 1):
        v[:, k] = v[:, k - 1] * nodes
    return v


def sample_cid_approx_unit(
    cfg: ApproxConfig, rng: RandomStream, size: int | None = None
) -> CIdSample:
    """Draw the r-step discretized integral vector on the unit interval."""
    n = 1 if size is None else int(size)
    v = _node_powers(cfg.r, cfg.d)
    z = sample_cauchy(0.0, 1.0 / cfg.r, rng, size=(n, cfg.r))
    comps = z @ v
    return CIdSample(comps[0] if size is None else comps)


def rescale_matrix(d: int, a: float, b: float) -> np.ndarray:
    """Lower-triangular map sending unit-interval components to ``[a, b]``.

    Row ``k`` holds the coefficients in ``u`` of ``(b-a) x^k`` at
    ``x = a + (b-a) u``: the interval map
    :func:`l1sketch._poly.to_unit_interval` applied to the monomials, so
    ``T[k, j] = C(k, j) a^(k-j) (b-a)^(j+1)`` for ``j <= k``.
    """
    if not b > a:
        raise ParameterError(f"need b > a, got a={a}, b={b}")
    return to_unit_interval(np.eye(d + 1), a, b - a)


def rescale_cid(z: CIdSample, a: float, b: float) -> CIdSample:
    """Map unit-interval draws to the interval ``[a, b]``."""
    d = z.degree
    t = rescale_matrix(d, a, b)
    return CIdSample(z.components @ t.T)


def riemann_abs_scale(coeffs, r: int) -> float:
    """Right-endpoint Riemann sum ``(1/r) sum_j |p(j/r)|``.

    This is the exact Cauchy scale of ``a . X`` when ``X`` is the r-step
    discretized vector and ``p`` has coefficients ``a``.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    nodes = np.arange(1, r + 1) / r
    return float(np.mean(np.abs(poly_eval(np.asarray(coeffs, dtype=float), nodes))))


def random_polynomial(
    degree: int, rng: RandomStream, min_mass: float = MIN_CALIBRATION_MASS
) -> np.ndarray:
    """Coefficients uniform on [-1, 1], rejecting near-null polynomials."""
    while True:
        coeffs = 2.0 * rng.random(degree + 1) - 1.0
        if integrate_abs_poly(coeffs, 0.0, 1.0) >= min_mass:
            return coeffs


@dataclass
class CalibrationResult:
    """Calibrated constant with its per-degree evidence."""

    c: float
    per_degree_r: dict[int, int]
    target_eps: float
    trials: int
    safety_factor: float = 2.0


def calibrate_c(
    d_max: int, target_eps: float, trials: int, rng: RandomStream
) -> CalibrationResult:
    """Empirically calibrate the constant in ``r = ceil(c d^2 / eps)``.

    For each degree up to ``d_max``, random polynomials are drawn (one
    per-trial substream, so trials are order-independent and could run in
    parallel) and the smallest ``r`` is found, by doubling then bisection,
    at which every trial's Riemann scale sits within ``target_eps`` relative
    error of the exact integral.  The returned ``c`` is the max over degrees
    of ``r * target_eps / d^2``, inflated by a safety factor of 2.

    Degree 0 needs no calibration: the Riemann sum of a constant is exact
    for every ``r``.
    """
    if d_max < 1 or d_max > MAX_DEGREE:
        raise ParameterError(f"d_max must be in [1, {MAX_DEGREE}], got {d_max}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    per_degree: dict[int, int] = {}
    for d in range(1, d_max + 1):
        polys = []
        exact = []
        for i in range(trials):
            sub = rng.substream((d << 32) + i)
            coeffs = random_polynomial(d, sub)
            polys.append(coeffs)
            exact.append(integrate_abs_poly(coeffs, 0.0, 1.0))
        coeff_mat = np.array(polys)[:, None, :]
        exact_arr = np.array(exact)

        def all_within(r: int) -> bool:
            scales = np.abs(poly_eval(coeff_mat, np.arange(1, r + 1) / r)).mean(axis=1)
            return bool(np.all(np.abs(scales - exact_arr) <= target_eps * exact_arr))

        r = 1
        while not all_within(r):
            r *= 2
            if r > 10**8:
                raise ParameterError("calibration failed to converge")
        lo, hi = r // 2, r
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if all_within(mid):
                hi = mid
            else:
                lo = mid
        per_degree[d] = hi
    c = max(r * target_eps / d**2 for d, r in per_degree.items())
    return CalibrationResult(
        c=2.0 * c,
        per_degree_r=per_degree,
        target_eps=target_eps,
        trials=trials,
    )
