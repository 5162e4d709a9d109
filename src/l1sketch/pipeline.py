"""End-to-end all-pairs distance schemes.

The sketch path draws, per replicate, one independent unit-interval
integral vector ``z_l`` of ``(1, u, ..., u^d)`` per elementary grid
interval ``l``, shared by all densities.  Each density's projection value
is ``X_j = sum_l Cu[j, l] . z_l``, with ``Cu`` the unit-local coefficient
tensor of :func:`l1sketch.densities.unit_coefficients` (the coefficients of
``w_l p_{j,l}(a_l + w_l u)``), so no draw is mapped to its interval and one
matrix product projects a whole block of replicates.  The uniforms of a
group of replicates are turned into integral vectors by a few whole-array
operations, which release the GIL, so blocks run in parallel on threads.
Differences of projection values are exactly Cauchy with scale equal to the
pair's L1 distance (up to discretization error for the approximate modes),
so a scale estimator over replicates recovers every pairwise distance from
one m-by-t matrix.  In :func:`run_scheme` the degree alone picks the sampler;
:func:`sketch_family` also runs the r-step mode on degree 1.

Sharing the per-interval draws within a replicate is what makes differences
meaningful: identical densities cancel exactly, replicate by replicate.

Determinism contract: replicate ``rep`` consumes only the stream
``(seed, rep)``, replicates are processed in fixed-size blocks aligned to
absolute replicate indices, and each block's arithmetic is identical no
matter which worker thread runs it.  Outputs are therefore bit-identical
for any thread count.  Each block owns one generator and re-keys it to
``(seed, rep)`` for each of its replicates, so threads never share one.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ci1 import _accept_mask, _proposal_block, first_block, unit_pairs
from .cid import ApproxConfig, _node_powers, steps_to_vectors
from .densities import (
    DensityFamily,
    eval_density,
    exact_all_pairs as _exact_all_pairs,
    sample_from_density,
    unit_coefficients,
    validate_family,
)
from .errors import NonFiniteResultError, ParameterError
from .randstream import (
    RandomStream, cauchy_in_place, geometric_mean_estimate, required_sample_count,
)

#: Replicates per vectorized block.  Fixed (not tunable) so that results are
#: independent of threading and chunk scheduling.
_BLOCK = 64

#: Envelope proposals per grouped acceptance test of the exact degree-1 mode
#: (whole replicates, at least one).  The density's float temporaries grow
#: with the group, so peak memory does too; at about 3,000 proposals a group
#: adds well under 1% to a run's peak RSS.
_CI1_GROUP_PROPOSALS = 3000

#: Uniform draws per group of the r-step mode (whole replicates, at least
#: one).  Each group goes through :func:`l1sketch.cid.steps_to_vectors` in a
#: few whole-array operations, which release the GIL.  Its buffer grows with
#: it, so peak memory does too: at 71 intervals and r = 42 (right endpoints)
#: on 2 threads, a whole 64-replicate block raised a run's peak RSS by about
#: 15%, groups of about 12,000 draws (4 replicates) by about 1%.  At the
#: midpoint rule's r = 11 that ``dist`` uses there, a group holds 15.
_CID_GROUP_DRAWS = 12_000


class SketchMode(enum.Enum):
    EXACT_CI1 = "exact_ci1"
    CID_APPROX = "cid_approx"
    UNIFORM_FASTPATH = "uniform_fastpath"


@dataclass
class SketchMatrix:
    """Per-density projection values, one column per replicate."""

    values: np.ndarray
    t: int
    mode: SketchMode
    names: list[str]
    seed: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.t:
            raise ParameterError("sketch values must have shape (m, t)")

    @property
    def m(self) -> int:
        return int(self.values.shape[0])


@dataclass
class DistanceMatrix:
    """Symmetric nonnegative distance estimates with their provenance."""

    names: list[str]
    entries: np.ndarray
    method: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        m = len(self.names)
        if self.entries.shape != (m, m):
            raise ParameterError("entries must be m x m")
        if not np.isfinite(self.entries).all():
            raise NonFiniteResultError(
                f"{int((~np.isfinite(self.entries)).sum())} distance entries are not finite"
            )
        if np.any(np.diag(self.entries) != 0.0):
            raise ParameterError("diagonal must be zero")
        if not np.array_equal(self.entries, self.entries.T):
            raise ParameterError("entries must be symmetric")
        if np.any(self.entries < 0.0):
            raise ParameterError("entries must be nonnegative")


def _ci1_group(stream: RandomStream, reps: range, need: int):
    """``need`` exact unit draws for each replicate in ``reps``, as two
    ``(len(reps), need)`` arrays equal to :func:`l1sketch.ci1.unit_pairs` on
    a fresh ``(seed, rep)`` generator per replicate.

    Each replicate draws its first block from its own stream; one acceptance
    test covers the stacked proposals, and each replicate takes its first
    ``need`` accepts.  A replicate that falls short redraws through
    :func:`l1sketch.ci1.unit_pairs` from a re-keyed stream.
    """
    k = first_block(need)
    proposals = np.empty((3, len(reps), k))
    for i, rep in enumerate(reps):
        stream.rekey(rep)
        proposals[:, i] = _proposal_block(stream.generator, k)
    px0, px1, u01 = proposals
    acc = _accept_mask(px0, px1, u01)
    take = acc & (np.cumsum(acc, axis=1) <= need)
    full = take.sum(axis=1) == need
    take[~full] = False
    u0 = np.empty((len(reps), need))
    u1 = np.empty((len(reps), need))
    u0[full] = px0[take].reshape(-1, need)
    u1[full] = px1[take].reshape(-1, need)
    for i in np.flatnonzero(~full):
        stream.rekey(reps[i])
        u0[i], u1[i] = unit_pairs(stream.generator, need)
    return u0, u1


def sketch_family(
    family: DensityFamily,
    t: int,
    mode: SketchMode,
    rng: RandomStream,
    threads: int = 1,
    approx_config: ApproxConfig | None = None,
) -> SketchMatrix:
    """Build the m-by-t projection matrix for the family.

    Modes: ``uniform_fastpath`` (degree 0, scalar Cauchy per interval),
    ``exact_ci1`` (degree 1, exact rejection-sampled pairs),
    and ``cid_approx`` (degree >= 1, r-step discretized vectors; needs
    ``approx_config``).
    """
    mode = SketchMode(mode)
    d = family.degree
    if mode is SketchMode.UNIFORM_FASTPATH and d != 0:
        raise ParameterError("uniform_fastpath requires a degree-0 family")
    if mode is SketchMode.EXACT_CI1 and d != 1:
        raise ParameterError("exact_ci1 requires a degree-1 family")
    if mode is SketchMode.CID_APPROX:
        if d < 1:
            raise ParameterError(f"{mode.value} requires degree >= 1")
        if approx_config is None:
            raise ParameterError(f"{mode.value} requires an ApproxConfig")
        if approx_config.d != d:
            raise ParameterError("approx_config degree does not match the family")
    if t < 1:
        raise ParameterError("t must be >= 1")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")

    n_int = len(family.breakpoints) - 1
    coeffs = unit_coefficients(family.densities, family.breakpoints)
    coeffs = coeffs.reshape(family.m, n_int * (d + 1))

    if mode is SketchMode.EXACT_CI1:
        group = max(_CI1_GROUP_PROPOSALS // first_block(n_int), 1)
    elif mode is SketchMode.CID_APPROX:
        r = approx_config.r
        node_pow = _node_powers(r, d, approx_config.nodes)
        group = max(_CID_GROUP_DRAWS // (n_int * r), 1)
    x = np.empty((family.m, t))

    def run_block(b0: int) -> None:
        b1 = min(b0 + _BLOCK, t)
        nb = b1 - b0
        z = np.empty((nb, n_int, d + 1))
        stream = rng.substream(b0)
        if mode is SketchMode.UNIFORM_FASTPATH:
            for i, rep in enumerate(range(b0, b1)):
                stream.rekey(rep)
                stream.generator.random(out=z[i])
            cauchy_in_place(z)
        elif mode is SketchMode.EXACT_CI1:
            for g0 in range(0, nb, group):
                g1 = min(g0 + group, nb)
                z[g0:g1, :, 0], z[g0:g1, :, 1] = _ci1_group(
                    stream, range(b0 + g0, b0 + g1), n_int
                )
        else:  # CID_APPROX
            buf = np.empty((min(group, nb), n_int, r))
            for g0 in range(0, nb, group):
                g1 = min(g0 + group, nb)
                u = buf[: g1 - g0]
                for i, rep in enumerate(range(b0 + g0, b0 + g1)):
                    stream.rekey(rep)
                    stream.generator.random(out=u[i])
                steps_to_vectors(u, node_pow, out=z[g0:g1])
        # overflow gives inf here, and a non-finite distance, which is refused
        with np.errstate(over="ignore"):
            x[:, b0:b1] = (z.reshape(nb, -1) @ coeffs.T).T

    starts = range(0, t, _BLOCK)
    if threads == 1:
        for b0 in starts:
            run_block(b0)
    else:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(run_block, starts))

    return SketchMatrix(values=x, t=t, mode=mode, names=family.names, seed=rng.seed)


def estimate_all_pairs(sketch: SketchMatrix, epsilon: float, delta: float) -> DistanceMatrix:
    """Distance matrix from a sketch via the per-pair geometric-mean estimator.

    Requires enough replicates for the requested ``(epsilon, delta)``
    guarantee.  Estimates are deliberately not clamped: the estimator is
    multiplicative and clamping would mask defects.
    """
    m = sketch.m
    t_needed = required_sample_count(epsilon, delta, m)
    if sketch.t < t_needed:
        raise ParameterError(
            f"sketch has t={sketch.t} replicates; epsilon={epsilon}, delta={delta}, "
            f"m={m} requires t >= {t_needed}"
        )
    entries = np.zeros((m, m))
    # a difference that overflows gives inf, which DistanceMatrix refuses
    with np.errstate(over="ignore"):
        for j in range(m):
            for k in range(j + 1, m):
                diff = sketch.values[j] - sketch.values[k]
                entries[j, k] = entries[k, j] = geometric_mean_estimate(diff, epsilon, delta).value
    return DistanceMatrix(
        names=sketch.names,
        entries=entries,
        method="sketch",
        config={
            "epsilon": epsilon,
            "delta": delta,
            "t": sketch.t,
            "mode": sketch.mode.value,
            "seed": sketch.seed,
        },
    )


def mc_all_pairs(
    family: DensityFamily, epsilon_abs: float, delta: float, rng: RandomStream
) -> DistanceMatrix:
    """Absolute-error Monte Carlo baseline.

    For each density ``f_j``, one shared batch of draws feeds the sign
    statistic against every other density; the pair estimate is the sum of
    the two one-sided means, clamped to the feasible range [0, 2].  The
    batch size makes each estimate ``epsilon_abs``-accurate with probability
    ``1 - delta`` jointly over all pairs (Hoeffding plus a union bound).
    """
    if not (0.0 < epsilon_abs <= 2.0):
        raise ParameterError(f"epsilon_abs must be in (0, 2], got {epsilon_abs}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    problems = validate_family(family, strict=True)
    if problems:
        raise ParameterError(
            "Monte Carlo baseline needs nonnegative unit-mass densities: "
            + "; ".join(problems)
        )
    m = family.m
    n_draws = int(math.ceil(8.0 / epsilon_abs**2 * math.log(2.0 * m * m / delta)))
    bp = family.breakpoints
    mean_sign = np.zeros((m, m))
    for j, dens in enumerate(family.densities):
        draws = sample_from_density(dens, bp, rng.substream(j), size=n_draws)
        own = eval_density(dens, bp, draws)
        for k, other in enumerate(family.densities):
            if k == j:
                continue
            mean_sign[j, k] = np.mean(np.sign(own - eval_density(other, bp, draws)))
    entries = np.clip(mean_sign + mean_sign.T, 0.0, 2.0)
    np.fill_diagonal(entries, 0.0)
    return DistanceMatrix(
        names=family.names,
        entries=entries,
        method="mc",
        config={
            "epsilon_abs": epsilon_abs,
            "delta": delta,
            "samples_per_density": n_draws,
            "seed": rng.seed,
        },
    )


def _auto_mode(degree: int) -> SketchMode:
    if degree == 0:
        return SketchMode.UNIFORM_FASTPATH
    if degree == 1:
        return SketchMode.EXACT_CI1
    return SketchMode.CID_APPROX


def run_scheme(
    family: DensityFamily,
    epsilon: float,
    delta: float,
    method: str,
    seed: int,
    threads: int = 1,
    c_constant: float | None = None,
) -> DistanceMatrix:
    """Dispatch to the exact oracle, the sketch scheme, or the MC baseline.

    The degree picks the sampler: fast path at 0, exact pairs at 1, r-step
    vectors from 2.  The r-step mode has discretization error, so the error
    budget is split evenly, ``eps_int = eps_est = epsilon / 2``, and the
    combined guarantee ``(1 +/- eps_int)(1 +/- eps_est)`` is echoed in the
    config rather than rounded to a clean ``1 +/- epsilon``.  It uses midpoint
    nodes, with ``r = ceil(c d / sqrt(eps_int))`` and ``c`` defaulting to
    :data:`l1sketch.cid.DEFAULT_C_MIDPOINT`.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    if method == "exact":
        dm = _exact_all_pairs(family)
        dm.config.update({"epsilon": epsilon, "delta": delta, "seed": seed})
        return dm
    if method == "mc":
        return mc_all_pairs(family, epsilon, delta, RandomStream(seed))
    if method != "sketch":
        raise ParameterError(f"unknown method {method!r}")

    if not (0.0 < epsilon <= 0.5):
        raise ParameterError(f"sketch requires epsilon in (0, 1/2], got {epsilon}")
    mode = _auto_mode(family.degree)
    split = mode is SketchMode.CID_APPROX
    eps_est = epsilon / 2.0 if split else epsilon
    eps_int = epsilon / 2.0 if split else None
    approx_config = None
    if split:
        approx_config = ApproxConfig(
            d=family.degree,
            epsilon_integration=eps_int,
            c_constant=c_constant,
            nodes="midpoint",
        )
    t = required_sample_count(eps_est, delta, family.m)
    sketch = sketch_family(
        family, t, mode, RandomStream(seed), threads=threads, approx_config=approx_config
    )
    dm = estimate_all_pairs(sketch, eps_est, delta)
    dm.config.update({"epsilon_requested": epsilon, "seed": seed})
    if split:
        dm.config.update(
            {
                "epsilon_integration": eps_int,
                "r": approx_config.r,
                "nodes": approx_config.nodes,
                "c_constant": approx_config.c_constant,
                "relative_error_upper": (1 + eps_int) * (1 + eps_est) - 1.0,
                "relative_error_lower": 1.0 - (1 - eps_int) * (1 - eps_est),
            }
        )
    return dm
