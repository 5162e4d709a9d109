"""Approximate sampling of degree-d stochastic-integral vectors.

For degree ``d`` the target is the joint law of the stochastic integrals of
``(1, x, ..., x^d)`` against Cauchy motion on the unit interval.  No exact
sampler is known for ``d >= 2``; instead the motion is discretized into ``r``
equal steps: independent Cauchy increments ``Z_j ~ C(0, 1/r)`` are combined
as ``sum_j Z_j * (1, x_j, ..., x_j^d)`` with one node ``x_j`` per step.  Any
linear functional ``a . X`` of the result is then exactly Cauchy with scale
equal to the Riemann sum ``(1/r) * sum_j |p(x_j)|`` of the polynomial ``p``
with coefficients ``a``, whatever the nodes, so the only approximation error
is that of the Riemann sum.  Two node rules are offered:

* ``"right"``, ``x_j = j/r``: the error shrinks like ``d^2 / r``, so
  ``r = ceil(c d^2 / eps)``;
* ``"midpoint"``, ``x_j = (j - 1/2)/r``: the error of the composite midpoint
  rule on ``|p|`` is ``O(1/r^2)``, also on steps where ``p`` changes sign
  (Davis and Rabinowitz, *Methods of Numerical Integration*, ch. 2), so
  ``r = ceil(c d / sqrt(eps))``.

The constants are not constructive, so calibrated empirical defaults are
shipped for both rules; see :func:`calibrate_c`.  The distance pipeline and
the CLI use midpoints, :data:`SKETCH_NODES`; right endpoints remain the
library default, the reference the acceptance suite pins.  :func:`step_fill`
makes every r-step draw, of :func:`sample_cid_approx_unit` and of the sketch
alike.  Draws are plain arrays whose last axis holds ``(X_0, ..., X_d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._poly import (
    MAX_DEGREE,
    integrate_abs_local,
    poly_eval,
    to_unit_interval,
)
from .errors import ParameterError
from .randstream import RandomStream, Workspace, cauchy_in_place, fill_groups

#: Default constant of the right-endpoint rule ``r = ceil(c d^2 / eps)``, from
#: calibrate_c(d_max=8, target_eps=0.05, trials=400, seed=20260809), safety
#: factor 2 included: the fit is 2 * 21 * 0.05 / 1 = 2.1, set by degree 1
#: (per-degree r 21/35/48/54/66/63/71/76 for d = 1..8).
DEFAULT_C = 2.1

#: Default constant of the midpoint rule ``r = ceil(c d / sqrt(eps))``, from
#: calibrate_c(d_max=8, target_eps=0.05, trials=400, seed=20260809,
#: nodes="midpoint"), safety factor 2 included: the fit is 2 * 5 * sqrt(0.05)
#: = 2.236, set by degree 1 (per-degree r 5/8/9/7/8/9/8/11 for d = 1..8),
#: rounded up.  Recompute with the `calibrate` CLI command to override.
DEFAULT_C_MIDPOINT = 2.24

#: Node rules of the r-step sampler and their default constants.
NODE_RULES = {"right": DEFAULT_C, "midpoint": DEFAULT_C_MIDPOINT}

#: Node rule of the sketch's r-step sampler, which ``sample cid`` and ``calibrate`` share.
SKETCH_NODES = "midpoint"

#: Largest step count ``r``, given or derived, that :class:`ApproxConfig`
#: accepts and :func:`calibrate_c` searches.  A draw holds ``r`` float64
#: uniforms per interval, so 10**6 steps are 8 MB per interval and
#: replicate; ``dist``'s default degree-2 call (epsilon = 0.2, so
#: eps_int = 0.038) takes r = 23 with the calibrated midpoint constant.
MAX_STEPS = 10**6

#: Riemann-sum values :func:`calibrate_c` evaluates at a time: rows of its
#: ``(trials, r)`` node table, 8 MB of float64.
_CALIBRATION_CHUNK = 1 << 20

#: Factor by which :func:`calibrate_c` inflates the fitted constant.
_SAFETY_FACTOR = 2.0

#: Calibration discards polynomials with |p|-mass below this, to avoid
#: relative-error blowup on near-null polynomials.
MIN_CALIBRATION_MASS = 1e-3


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and positive, got {value}")


def _check_nodes(nodes: str) -> None:
    if nodes not in NODE_RULES:
        raise ParameterError(f"nodes must be one of {sorted(NODE_RULES)}, got {nodes!r}")


def rule_constant(nodes: str, c: float | None) -> float:
    """``c``, or rule ``nodes``'s calibrated constant for None; refused unless finite and > 0."""
    _check_nodes(nodes)
    c = NODE_RULES[nodes] if c is None else c
    _check_positive("c_constant", c)
    return c


def step_count(nodes: str, c: float, d: int, eps):
    """Rule ``nodes``'s step count for error ``eps`` (a float or an array), a
    float of at least 1, unchecked against :data:`MAX_STEPS` (inf for a huge ``c``)."""
    with np.errstate(over="ignore"):
        steps = c * d**2 / eps if nodes == "right" else c * d / np.sqrt(eps)
    return np.maximum(np.ceil(steps), 1.0)


def unit_nodes(r: int, nodes: str) -> np.ndarray:
    """The ``r`` nodes of a rule on the unit interval: ``j/r`` (right) or
    ``(j - 1/2)/r`` (midpoint) for ``j = 1..r``."""
    _check_nodes(nodes)
    if nodes == "right":
        return np.arange(1, r + 1) / r
    return (np.arange(r) + 0.5) / r


@dataclass
class ApproxConfig:
    """Discretization settings: ``r`` steps at the nodes of rule ``nodes``.

    Unless given, ``r`` is the rule's :func:`step_count`, with ``c`` the
    :func:`rule_constant` of ``c_constant``.  An ``r`` below 1 or above
    :data:`MAX_STEPS` raises :class:`ParameterError`.
    """

    d: int
    epsilon_integration: float
    c_constant: float | None = None
    r: int | None = None
    nodes: str = "right"

    def __post_init__(self):
        self.d = int(self.d)
        if self.d < 0 or self.d > MAX_DEGREE:
            raise ParameterError(f"degree must be in [0, {MAX_DEGREE}], got {self.d}")
        self.c_constant = rule_constant(self.nodes, self.c_constant)
        _check_positive("epsilon_integration", self.epsilon_integration)
        c, d, eps = self.c_constant, self.d, self.epsilon_integration
        if self.r is None:
            steps = step_count(self.nodes, c, d, eps)
            # checked as a float: a huge c_constant can make steps inf
            if not steps <= MAX_STEPS:
                raise ParameterError(
                    f"derived r = {steps:.3g} exceeds the limit of {MAX_STEPS} steps "
                    f"(d={d}, epsilon_integration={eps}, c_constant={c})"
                )
            self.r = int(steps)
        else:
            self.r = int(self.r)
            if not 1 <= self.r <= MAX_STEPS:
                raise ParameterError(f"r must be in [1, {MAX_STEPS}], got {self.r}")


def _node_powers(r: int, d: int, nodes: str) -> np.ndarray:
    """Matrix ``V[j, k] = x_j^k`` at the rule's nodes, built incrementally,
    shape (r, d+1)."""
    x = unit_nodes(r, nodes)
    v = np.empty((r, d + 1))
    v[:, 0] = 1.0
    for k in range(1, d + 1):
        v[:, k] = v[:, k - 1] * x
    return v


def step_fill(cfg: ApproxConfig):
    """The r-step sampler's fill ``fill(gen, out, work)``: vectors into
    ``out[..., :d+1]`` from one ``(..., r)`` uniform draw into the
    workspace ``work``, as standard Cauchy steps times the node powers of
    :func:`_node_powers` over ``r``, which is Cauchy steps of scale ``1/r``
    times the powers, without a pass over the steps.  Stacked, not
    flattened, so each ``(L, r)`` product has the bits it has alone.  A
    degree-2 benchmark block peaks at its first group's 378 KB of uniforms
    and 2 KB more (tracemalloc)."""
    weights = _node_powers(cfg.r, cfg.d, cfg.nodes) / cfg.r

    def fill(gen: np.random.Generator, out: np.ndarray, work: Workspace) -> None:
        shape = (*out.shape[:-1], cfg.r)
        u = work.floats(math.prod(shape)).reshape(shape)
        gen.random(out=u)
        cauchy_in_place(u)
        np.matmul(u, weights, out=out)

    return fill


def sample_cid_approx_unit(cfg: ApproxConfig, rng: RandomStream, size: int):
    """``size`` r-step integral vectors on the unit interval, an ``(size,
    d+1)`` array: the sketch's :func:`step_fill` in the groups of
    :func:`l1sketch.randstream.fill_groups`, one group's uniforms above the
    result at their peak (384 KB at r = 18, tracemalloc).  In a BLAS product
    of many rows a row's bits depend on where it sits, so each row is its
    own ``(1, r)`` product, whose bits depend neither on the group size nor
    on ``size``.  A negative ``size`` raises :class:`ParameterError`."""
    if size < 0:
        raise ParameterError(f"size must be >= 0, got {size}")
    comps = np.empty((size, 1, cfg.d + 1))
    fill_groups(rng.generator, step_fill(cfg), comps, cfg.r)
    return comps[:, 0]


def rescale_matrix(d: int, a: float, b: float) -> np.ndarray:
    """Lower-triangular map sending unit-interval components to ``[a, b]``.

    Row ``k`` holds the coefficients in ``u`` of ``(b-a) x^k`` at
    ``x = a + (b-a) u``: the interval map
    :func:`l1sketch._poly.to_unit_interval` applied to the monomials, so
    ``T[k, j] = C(k, j) a^(k-j) (b-a)^(j+1)`` for ``j <= k``; refused
    unless ``b > a`` and every entry is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = to_unit_interval(np.eye(d + 1), a, b - a)
    if not (b > a and np.isfinite(t).all()):
        raise ParameterError(f"need b > a and a finite map of degree {d}, got a={a}, b={b}")
    return t


def rescale_cid(z, a: float, b: float) -> np.ndarray:
    """Map unit-interval draws ``z[..., d+1]`` (one vector or rows of them)
    to the interval ``[a, b]`` with :func:`rescale_matrix`."""
    z = np.asarray(z, dtype=float)
    return z @ rescale_matrix(z.shape[-1] - 1, a, b).T


def riemann_abs_scale(coeffs, r: int, nodes: str = "right"):
    """Riemann sum ``(1/r) sum_j |p(x_j)|`` at the rule's nodes: ``j/r``
    (right) or ``(j - 1/2)/r`` (midpoint).

    This is the exact Cauchy scale of ``a . X`` when ``X`` is the r-step
    discretized vector with those nodes and ``p`` has coefficients ``a``.
    An ``(n, d+1)`` table gives its rows' sums, bit for bit, and one
    coefficient vector a numpy float.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    c = np.asarray(coeffs, dtype=float)
    return np.abs(poly_eval(c[..., None, :], unit_nodes(r, nodes))).mean(axis=-1)


def random_polynomial(degree: int, rng: RandomStream) -> np.ndarray:
    """Coefficients uniform on [-1, 1], rejecting polynomials whose
    |p|-mass on [0, 1] is below :data:`MIN_CALIBRATION_MASS`."""
    while True:
        coeffs = 2.0 * rng.random(degree + 1) - 1.0
        if integrate_abs_local(coeffs, 1.0) >= MIN_CALIBRATION_MASS:
            return coeffs


@dataclass
class CalibrationResult:
    """Calibrated constant with its per-degree evidence."""

    c: float
    per_degree_r: dict[int, int]
    target_eps: float
    trials: int
    nodes: str = "right"
    safety_factor: float = _SAFETY_FACTOR


def calibrate_c(
    d_max: int, target_eps: float, trials: int, rng: RandomStream, nodes: str = "right"
) -> CalibrationResult:
    """Empirically calibrate the constant of a node rule's step count:
    ``r = ceil(c d^2 / eps)`` for right endpoints, ``r = ceil(c d /
    sqrt(eps))`` for midpoints (see :class:`ApproxConfig`).

    For each degree up to ``d_max``, random polynomials are drawn (one
    per-trial substream, so trials are order-independent and could run in
    parallel) and the smallest ``r`` is found, by doubling then bisection,
    at which every trial's Riemann scale at the rule's nodes sits within
    ``target_eps`` relative error of the exact integral.  The returned ``c``
    is the max over degrees of ``r * target_eps / d^2`` (right) or
    ``r * sqrt(target_eps) / d`` (midpoint), inflated by the safety factor
    :data:`_SAFETY_FACTOR`.

    Degree 0 needs no calibration: the Riemann sum of a constant is exact
    for every ``r``.  A degree that needs more than :data:`MAX_STEPS` steps
    raises :class:`ParameterError`; the trials are checked in chunks of rows,
    so memory stays bounded whatever ``r`` and ``trials`` are.
    """
    _check_nodes(nodes)
    _check_positive("target_eps", target_eps)
    if d_max < 1 or d_max > MAX_DEGREE:
        raise ParameterError(f"d_max must be in [1, {MAX_DEGREE}], got {d_max}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    per_degree: dict[int, int] = {}
    for d in range(1, d_max + 1):
        coeff_mat = np.array(
            [random_polynomial(d, rng.substream((d << 32) + i)) for i in range(trials)]
        )
        exact_arr = integrate_abs_local(coeff_mat, 1.0)

        def all_within(r: int) -> bool:
            rows = max(_CALIBRATION_CHUNK // r, 1)
            for i in range(0, trials, rows):
                scales = riemann_abs_scale(coeff_mat[i : i + rows], r, nodes)
                exact = exact_arr[i : i + rows]
                if not np.all(np.abs(scales - exact) <= target_eps * exact):
                    return False
            return True

        lo, hi = 0, 1
        while not all_within(hi):
            if hi >= MAX_STEPS:
                raise ParameterError(
                    f"calibration at degree {d} needs more than {MAX_STEPS} steps "
                    f"for target_eps={target_eps}"
                )
            lo, hi = hi, min(2 * hi, MAX_STEPS)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if all_within(mid):
                hi = mid
            else:
                lo = mid
        per_degree[d] = hi
    if nodes == "right":
        c = max(r * target_eps / d**2 for d, r in per_degree.items())
    else:
        c = max(r * math.sqrt(target_eps) / d for d, r in per_degree.items())
    return CalibrationResult(
        c=_SAFETY_FACTOR * c,
        per_degree_r=per_degree,
        target_eps=target_eps,
        trials=trials,
        nodes=nodes,
    )
