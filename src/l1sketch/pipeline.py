"""End-to-end all-pairs distance schemes.

The sketch path draws, per replicate, one independent unit-interval
integral vector ``z_l`` of ``(1, u, ..., u^d)`` per elementary grid
interval ``l``, shared by all densities.  Each density's projection value
is ``X_j = sum_l Cu[j, l] . z_l``, with ``Cu`` the unit-local coefficient
tensor of :func:`l1sketch.densities.unit_coefficients` (the coefficients of
``w_l p_{j,l}(a_l + w_l u)``), so no draw is mapped to its interval and one
matrix product projects a whole block of replicates.  A block fills its
vectors with its mode's fill in the groups of
:func:`l1sketch.randstream.fill_groups`, of about
:data:`l1sketch.randstream._CALL_DRAWS` uniforms each, a few whole-array
operations a group, which release the GIL, so blocks can run in parallel on
threads.  A block of the degree-2 benchmark family is two groups of four
such calls, and one of the degree-1 benchmark family is one group, whose
candidate blocks take up to 14,100 candidates a call, so two workers hold
the GIL seldom and their draws overlap (README gives the timings).
Differences of projection values are exactly Cauchy with scale equal to the
pair's L1 distance (up to discretization error for the approximate modes),
so a scale estimator over replicates recovers every pairwise distance from
one m-by-t matrix.  In :func:`plan_run` the degree alone picks the sampler;
:func:`sketch_family` also runs the r-step mode on degree 1.

Sharing the per-interval draws within a replicate is what makes differences
meaningful: identical densities cancel exactly, replicate by replicate.

Determinism contract: replicates are processed in blocks of 64 aligned to
absolute replicate indices, and the block starting at replicate ``b0``
consumes only the stream ``(seed, b0)``, the SFC64 generator of child
``b0`` of ``SeedSequence(seed)`` (see :mod:`l1sketch.randstream`), so no
two blocks share a generator.
A block's arithmetic is identical no matter which worker thread runs it, so
outputs are bit-identical for any thread count, and a full block's columns
do not depend on ``t``.  The block products run on one BLAS thread whatever
the environment (:func:`_one_blas_thread`), since OpenBLAS sums a large
product in another order on more threads.
The estimator fans out the same way, on the one loop over pairs that the
exact oracle also runs on (:func:`_all_pairs`): each task reduces its own
block of pairs and writes only its own entries.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ci1 import UNIFORMS_PER_PAIR, fill_pairs, pairs_scratch
from .cid import MAX_STEPS, SKETCH_NODES, ApproxConfig, rule_constant, step_count, step_fill
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
    RandomStream, fill_cauchy, fill_groups, geometric_mean_rows, group_rows,
    required_sample_count,
)

#: Replicates per vectorized block.  Fixed (not tunable) so that results are
#: independent of threading and chunk scheduling.
_BLOCK = 64

#: Rows per task of the pair loop (:func:`_all_pairs`), each reduced against
#: one row ``j``: the estimator's ``(_PAIR_ROWS, t)`` float64 differences,
#: about 1 MB at t = 8,187, stay in cache from the subtraction through the
#: log to the row sums, and the oracle's kernel takes as many rows at a time.
_PAIR_ROWS = 16

#: Most bytes one replicate's float64 uniforms may take, since a block draws
#: at least one whole replicate a call: ``n_int * r`` uniforms in the r-step
#: mode, about 570 MB per worker thread at r near
#: :data:`l1sketch.cid.MAX_STEPS` on 71 intervals.  The cap admits r up to
#: about 118,000 there.
MAX_REPLICATE_BYTES = 1 << 26

#: Most bytes the float64 ``(m, t)`` sketch matrix may take: 1 GiB, so t up
#: to about 67 million for two densities or 134,000 for a thousand.  The
#: scratch of all the workers of a fan-out together is held to the same
#: bound (:func:`_fan_out`).
MAX_SKETCH_BYTES = 1 << 30

#: Most draws :func:`mc_all_pairs` makes per density.  At the cap one
#: density's draws take about 125 MB and 1.5 s to make (2-vCPU VM), and each
#: other density is evaluated at all of them.
MAX_MC_DRAWS = 10**6

#: Most worker threads a fan-out may start.
MAX_THREADS = 256

#: The ``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or
#: ``()`` where none is found; None until the first sketch of a process
#: looks them up (:func:`_one_blas_thread`), so an import loads no library.
_blas = None
_blas_lock = threading.Lock()
#: Sketches now holding BLAS at one thread, and the count the last restores.
_blas_holds = 0
_blas_saved = 1


class SketchMode(enum.Enum):
    EXACT_CI1 = "exact_ci1"
    CID_APPROX = "cid_approx"
    UNIFORM_FASTPATH = "uniform_fastpath"


#: The sampler of each degree, the last for every degree from 2.
_DEGREE_MODES = (SketchMode.UNIFORM_FASTPATH, SketchMode.EXACT_CI1, SketchMode.CID_APPROX)


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


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    if threads > MAX_THREADS:
        raise ParameterError(f"threads must be at most {MAX_THREADS}, got {threads}")


def _run_threads(threads: int | None, method: str, degree: int) -> int:
    """The worker threads of a :func:`run_scheme` call: ``threads`` when
    given, checked; else one for the exact oracle, the MC baseline and the
    exact degree-1 sampler, whose candidate blocks are about 30 short numpy
    calls each that hold the GIL between them, and for the other samplers,
    whose blocks are a few long GIL-free calls, every CPU the process may
    run on, at most :data:`MAX_THREADS`."""
    if threads is not None:
        _check_threads(threads)
        return threads
    if method != "sketch" or _DEGREE_MODES[min(degree, 2)] is SketchMode.EXACT_CI1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_THREADS)


def _find_blas() -> tuple:
    """The ``(get, set)`` thread-count functions of the OpenBLAS that numpy's
    wheel bundles (in ``numpy.libs``, or ``numpy/.dylibs`` on macOS; named
    ``scipy_openblas`` from numpy 2.0), or ``()`` where none exports them."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    return ()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block: the first of
    nested or concurrent holds saves the library's count and the last to end
    restores it, also on error.  OpenBLAS sums a large product in another
    order on more threads, and its threads and the sketch's own workers
    oversubscribe the CPUs.  Does nothing where no setter is found
    (:func:`_find_blas`, looked up on the first hold of a process)."""
    global _blas, _blas_holds, _blas_saved
    with _blas_lock:
        if _blas is None:
            _blas = _find_blas()
        if _blas and _blas_holds == 0:
            _blas_saved = _blas[0]()
            _blas[1](1)
        _blas_holds += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds -= 1
            if _blas and _blas_holds == 0:
                _blas[1](_blas_saved)


def _fan_out(fn, tasks, threads: int, task_bytes: int) -> None:
    """Call ``fn`` on every task, a sketch block or a pair task of
    :func:`_all_pairs`: in order on the calling thread when one
    worker runs, else on ``workers`` threads, worker ``i`` taking tasks
    ``i, i + workers, ...`` in order.  ``workers`` is ``threads``, cut so
    that the workers' scratch, ``task_bytes`` each, stays within
    :data:`MAX_SKETCH_BYTES` (at least one worker).  One share per worker
    rather than one future per task: on a 2-vCPU VM at m = 400 and
    t = 2,000, the estimator's 5,000 short tasks took 0.77 s as futures on 2
    threads, 0.67 s in one loop and 0.48 s in shares (medians of 5).  Each
    task must write only its own outputs, so the result does not depend on
    the count."""
    tasks = list(tasks)
    threads = min(int(threads), max(MAX_SKETCH_BYTES // max(task_bytes, 1), 1))
    if threads == 1:
        for task in tasks:
            fn(task)
        return

    def run_share(first: int) -> None:
        for task in tasks[first::threads]:
            fn(task)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_share, range(min(threads, len(tasks)))))


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
    ``approx_config``).  A sketch matrix of more than
    :data:`MAX_SKETCH_BYTES`, or a replicate whose uniforms would take more
    than :data:`MAX_REPLICATE_BYTES`, raises :class:`ParameterError` before
    any allocation or draw.
    """
    mode = SketchMode(mode)
    d = family.degree
    # each mode's fill and the uniforms one of its vectors takes
    if mode is SketchMode.UNIFORM_FASTPATH:
        if d != 0:
            raise ParameterError("uniform_fastpath requires a degree-0 family")
        fill, per_vector = fill_cauchy, 1
    elif mode is SketchMode.EXACT_CI1:
        if d != 1:
            raise ParameterError("exact_ci1 requires a degree-1 family")
        fill, per_vector = fill_pairs, UNIFORMS_PER_PAIR
    else:  # CID_APPROX
        if d < 1:
            raise ParameterError(f"{mode.value} requires degree >= 1")
        if approx_config is None:
            raise ParameterError(f"{mode.value} requires an ApproxConfig")
        if approx_config.d != d:
            raise ParameterError("approx_config degree does not match the family")
        fill, per_vector = step_fill(approx_config), approx_config.r
    if t < 1:
        raise ParameterError("t must be >= 1")
    if family.m * t * 8 > MAX_SKETCH_BYTES:
        raise ParameterError(
            f"the sketch of m={family.m} densities by t={t} replicates takes "
            f"{family.m * t * 8} bytes, more than {MAX_SKETCH_BYTES}; "
            "use a larger epsilon or delta"
        )
    _check_threads(threads)

    n_int = len(family.breakpoints) - 1
    coeffs = unit_coefficients(family.densities, family.breakpoints)
    coeffs = coeffs.reshape(family.m, n_int * (d + 1))

    per_rep = n_int * per_vector
    if per_rep * 8 > MAX_REPLICATE_BYTES:
        raise ParameterError(
            f"one replicate draws {per_rep:.0f} uniforms ({per_rep * 8:.0f} bytes), "
            f"more than {MAX_REPLICATE_BYTES} bytes; use fewer grid intervals or steps"
        )
    x = np.empty((family.m, t))

    def run_block(b0: int) -> None:
        b1 = min(b0 + _BLOCK, t)
        z = np.empty((b1 - b0, n_int, d + 1))
        fill_groups(rng.substream(b0).generator, fill, z, per_rep)
        # overflow gives inf here, and a non-finite distance, which is refused
        with np.errstate(over="ignore"):
            x[:, b0:b1] = (z.reshape(b1 - b0, -1) @ coeffs.T).T

    # a block's draws and products, and one group's scratch: its uniforms,
    # or the degree-1 sampler's candidate blocks
    group = min(group_rows(per_rep), _BLOCK)
    scratch = pairs_scratch(group * n_int) if mode is SketchMode.EXACT_CI1 else group * per_rep
    block_bytes = int(8 * (_BLOCK * (n_int * (d + 1) + family.m) + scratch))
    with _one_blas_thread():
        _fan_out(run_block, range(0, t, _BLOCK), threads, block_bytes)
    return SketchMatrix(values=x, t=t, mode=mode, names=family.names, seed=rng.seed)


def _all_pairs(m: int, reduce, threads: int, row_bytes: int) -> np.ndarray:
    """The one loop over pairs, of the estimator and the exact oracle: the
    symmetric ``(m, m)`` matrix, zero on the diagonal, whose task ``(j, k0)``
    writes ``reduce(j, k0, k1)``, rows ``k0 .. k1 - 1 < k0 + _PAIR_ROWS``
    against row ``j < k0``, to its own upper-triangle entries with
    ``row_bytes`` of scratch a row (:func:`_fan_out`); the lower triangle is
    mirrored once at the end."""
    entries = np.zeros((m, m))

    def run_task(task: tuple[int, int]) -> None:
        j, k0 = task
        k1 = min(k0 + _PAIR_ROWS, m)
        entries[j, k0:k1] = reduce(j, k0, k1)

    tasks = [(j, k0) for j in range(m - 1) for k0 in range(j + 1, m, _PAIR_ROWS)]
    _fan_out(run_task, tasks, threads, row_bytes * min(_PAIR_ROWS, m - 1))
    lower = np.tril_indices(m, -1)
    entries[lower] = entries.T[lower]
    return entries


def _pair_estimates(values: np.ndarray, threads: int) -> np.ndarray:
    """The :func:`_all_pairs` matrix of geometric-mean estimates of the rows
    of ``values``, possibly not finite, one ``geometric_mean_rows`` a task."""

    def reduce(j: int, k0: int, k1: int) -> np.ndarray:
        # a difference that overflows gives inf (inf - inf gives NaN), and a
        # non-finite distance, which DistanceMatrix refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return geometric_mean_rows(np.subtract(values[j], values[k0:k1]))

    return _all_pairs(values.shape[0], reduce, threads, 8 * values.shape[1])


def estimate_all_pairs(
    sketch: SketchMatrix, epsilon: float, delta: float, threads: int = 1
) -> DistanceMatrix:
    """Distance matrix from a sketch via the geometric-mean estimator.

    Requires enough replicates for the requested ``(epsilon, delta)``
    guarantee.  Pair ``(j, k)`` gets ``exp(mean(log|x_j - x_k|))`` over the
    replicates, or 0.0 if any replicate's difference is exactly zero, even
    when another is inf or NaN.  Pairs are estimated in blocks of at most
    ``_PAIR_ROWS`` rows against one row, with ``threads`` workers; each entry
    is bit-identical to a one-pair
    :func:`l1sketch.randstream.geometric_mean_estimate` call, for
    any thread count.  An inf or NaN estimate is refused by
    :class:`DistanceMatrix`.  Estimates are deliberately not clamped: the
    estimator is multiplicative and clamping would mask defects.
    """
    _check_threads(threads)
    m = sketch.m
    t_needed = required_sample_count(epsilon, delta, m)
    if sketch.t < t_needed:
        raise ParameterError(
            f"sketch has t={sketch.t} replicates; epsilon={epsilon}, delta={delta}, "
            f"m={m} requires t >= {t_needed}"
        )
    entries = _pair_estimates(sketch.values, threads)
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
    A family of no densities, or more than :data:`MAX_MC_DRAWS` draws per
    density, raise :class:`ParameterError` before any draw.
    """
    if not (0.0 < epsilon_abs <= 2.0):
        raise ParameterError(f"epsilon_abs must be in (0, 2], got {epsilon_abs}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    m = family.m
    if m < 1:
        raise ParameterError(f"the Monte Carlo baseline needs m >= 1 densities, got {m}")
    # a square that underflows to 0 gives no finite count
    draws = 8.0 / epsilon_abs**2 * math.log(2.0 * m * m / delta) if epsilon_abs**2 else math.inf
    if not draws <= MAX_MC_DRAWS:
        raise ParameterError(
            f"epsilon={epsilon_abs}, delta={delta} and m={m} need {draws:.4g} draws "
            f"per density, more than {MAX_MC_DRAWS}; use a larger epsilon or delta"
        )
    n_draws = math.ceil(draws)
    problems = validate_family(family, strict=True)
    if problems:
        raise ParameterError(
            "Monte Carlo baseline needs nonnegative unit-mass densities: "
            + "; ".join(problems)
        )
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


def _stated_bounds(eps_int: float, eps_est: float) -> tuple[float, float]:
    """The r-step mode's bounds on the relative error, above and below."""
    return (1 + eps_int) * (1 + eps_est) - 1.0, 1.0 - (1 - eps_int) * (1 - eps_est)


def _error_split(epsilon: float, d: int, c: float) -> tuple[float, float]:
    """The r-step mode's ``(eps_int, eps_est)``: of ``eps_int = epsilon k /
    1000``, ``k = 1..999``, the first to minimise the draw cost
    ``r(eps_int) / eps_est^2`` (t times r up to t's ceiling), with ``r`` the
    :func:`l1sketch.cid.step_count` of the sketch's nodes and ``eps_est``
    from ``(1 + eps_int)(1 + eps_est) = 1 + epsilon``, stepped down an ulp
    at a time until the stated upper bound is at most ``epsilon`` as a float.
    """
    eps_int = epsilon * np.arange(1, 1000) / 1000
    eps_est = (epsilon - eps_int) / (1 + eps_int)
    # a c past MAX_STEPS is refused for every split, by the one ApproxConfig built
    r = step_count(SKETCH_NODES, min(c, MAX_STEPS), d, eps_int)
    best = int(np.argmin(r / eps_est**2))
    eps_int, eps_est = float(eps_int[best]), float(eps_est[best])
    while _stated_bounds(eps_int, eps_est)[0] > epsilon:
        eps_est = math.nextafter(eps_est, 0.0)
    return eps_int, eps_est


def plan_run(
    epsilon: float, delta: float, m: int, degree: int, c_constant: float | None = None
) -> tuple[dict, ApproxConfig | None]:
    """Every parameter of a sketch run of ``m`` densities of ``degree``: the
    run's config but its seed, and the r-step mode's ``ApproxConfig`` or
    None.  The degree picks the sampler: fast path at 0, exact pairs at 1,
    r-step vectors from 2, which take the :func:`_error_split` of
    ``epsilon``; ``t`` is :func:`required_sample_count` at the estimator's
    epsilon.  A bad ``epsilon`` or ``c_constant`` raises ParameterError."""
    if not (0.0 < epsilon <= 0.5):
        raise ParameterError(f"sketch requires epsilon in (0, 1/2], got {epsilon}")
    c = rule_constant(SKETCH_NODES, c_constant)
    mode = _DEGREE_MODES[min(degree, 2)]
    eps_est, approx, r_step = epsilon, None, {}
    if mode is SketchMode.CID_APPROX:
        eps_int, eps_est = _error_split(epsilon, degree, c)
        approx = ApproxConfig(degree, eps_int, c, nodes=SKETCH_NODES)
        upper, lower = _stated_bounds(eps_int, eps_est)
        r_step = dict(epsilon_integration=eps_int, r=approx.r, nodes=approx.nodes, c_constant=c)
        r_step.update(relative_error_upper=upper, relative_error_lower=lower)
    t = required_sample_count(eps_est, delta, m)
    config = {"epsilon": eps_est, "delta": delta, "t": t, "mode": mode.value}
    config.update(epsilon_requested=epsilon, **r_step)
    return config, approx


def run_scheme(
    family: DensityFamily,
    epsilon: float,
    delta: float,
    method: str,
    seed: int,
    threads: int | None = None,
    c_constant: float | None = None,
) -> DistanceMatrix:
    """Dispatch to the exact oracle, the sketch of :func:`plan_run`'s plan or
    the MC baseline; the sketch runs on ``threads`` workers, or when None on
    :func:`_run_threads`'s default for its sampler.  A non-finite or
    non-positive ``epsilon``, a ``delta`` outside (0, 1), a bad
    ``c_constant`` or a family of fewer than two densities raises
    :class:`ParameterError` for every method, before any work; the sketch
    also refuses ``epsilon > 1/2`` and the MC baseline ``epsilon > 2``."""
    threads = _run_threads(threads, method, family.degree)
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    rule_constant(SKETCH_NODES, c_constant)
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if family.m < 2:
        raise ParameterError(f"all-pairs distances need m >= 2 densities, got {family.m}")
    if method == "exact":
        dm = _exact_all_pairs(family)
        dm.config.update({"epsilon": epsilon, "delta": delta, "seed": seed})
        return dm
    if method == "mc":
        return mc_all_pairs(family, epsilon, delta, RandomStream(seed))
    if method != "sketch":
        raise ParameterError(f"unknown method {method!r}")

    plan, approx = plan_run(epsilon, delta, family.m, family.degree, c_constant)
    sketch = sketch_family(
        family, plan["t"], plan["mode"], RandomStream(seed), threads=threads, approx_config=approx
    )
    dm = estimate_all_pairs(sketch, plan["epsilon"], delta, threads=threads)
    dm.config.update(plan, seed=seed)
    return dm
