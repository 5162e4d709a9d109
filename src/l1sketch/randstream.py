"""Seeded random primitives, the Cauchy step and the scale estimator.

Randomness comes from numpy's SFC64 generator seeded by the child
``SeedSequence(seed, spawn_key=(stream_id,))``: stream ``k`` of seed ``s``
is the one numpy's ``SeedSequence(s).spawn(k + 1)[k]`` seeds, its documented
way to make independent streams.  Any (seed, stream) pair names the same
sequence on every platform and under any threading layout.  Substreams are
cheap to create, which lets callers assign one stream per block of work
without coordination: the sketch gives each block of 64 replicates the
stream ``(seed, b0)`` of its first replicate ``b0``.  SFC64 is chosen for
speed, since uniforms are most of the sketch's cost at degree >= 2: on a
2-vCPU VM one float64 uniform took 2.9-4.4 ns, against 7.6-9.7 ns from
numpy's counter-based generator.  Every generator in the package is made
here, and every Cauchy draw by :func:`cauchy_in_place`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_UINT64_MASK = (1 << 64) - 1

#: Uniforms per draw call of :func:`fill_groups`, the one group budget of
#: every sampler; peak memory grows with it.  Sketch ms of the 71-interval
#: benchmark families on 1 / 2 threads, and peak RSS over the load on 1
#: thread at degree 1 (t = 2,764) and 2 at degree 2 (r = 18, t = 4,365);
#: medians of 8 fresh-process rounds of medians of 5 calls, 2-vCPU VM:
#:   uniforms a call   degree 1             degree 2
#:   12,000            48 / 67 ms, 1.3 MB   51 / 40 ms, 1.3 MB
#:   24,000            41 / 46 ms, 1.8 MB   44 / 32 ms, 1.5 MB
#:   48,000            36 / 31 ms, 2.5 MB   46 / 29 ms, 1.8 MB
#:   96,000            39 / 32 ms, 2.5 MB   37 / 28 ms, 2.4 MB
#: From 40,896 a degree-1 benchmark block is one group, so 48,000 and
#: 96,000 make the same degree-1 draws.  Degree 1's group size also sizes
#: its first candidate block, so its bits depend on this value.
_CALL_DRAWS = 48_000


class RandomStream:
    """A reproducible stream addressed by ``(seed, stream_id)``.

    Single-owner: draw methods advance internal state, so concurrent callers
    must each hold their own stream.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _UINT64_MASK
        self.stream_id = int(stream_id) & _UINT64_MASK
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.SFC64(seq))

    def substream(self, stream_id: int) -> "RandomStream":
        """A fresh stream with the same seed and the given stream id."""
        return RandomStream(self.seed, stream_id)

    def random(self, size=None):
        return self.generator.random(size)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


def cauchy_in_place(u: np.ndarray) -> None:
    """Map uniforms on [0, 1) to standard Cauchy draws ``tan(pi u)``, in
    place, in two passes.  tan has period pi, so this has the law of the
    quantile transform ``tan(pi (u - 1/2))``.  ``u = 1/2`` gives a finite
    value, about 1.6e16."""
    u *= np.pi
    np.tan(u, out=u)


def group_rows(per_row: float) -> int:
    """Rows :func:`fill_groups` fills a call for ``per_row`` uniforms a row,
    at :data:`_CALL_DRAWS` uniforms a call."""
    return max(int(_CALL_DRAWS // per_row), 1)


class Workspace:
    """Flat float64 scratch that :func:`fill_groups` lends to each fill of
    a call, grown when a fill asks for more than it holds.  One per call,
    or one per worker thread of a sketch, so never shared between
    threads.  It holds the r-step sampler's uniforms, and a degree-1
    candidate block's k-sized arrays (its uniforms, masks, cells and
    bounds), which, allocated afresh a block, glibc would hand back and
    fault in again."""

    def __init__(self):
        self._buf = np.empty(0)

    def floats(self, n: int) -> np.ndarray:
        """The first ``n`` float64s, in a buffer grown to ``n`` if shorter."""
        if self._buf.size < n:
            self._buf = np.empty(n)
        return self._buf[:n]


def fill_groups(
    gen: np.random.Generator, fill, out: np.ndarray, per_row: float, work: Workspace | None = None, /
) -> None:
    """The samplers' one draw loop: ``fill(gen, part, work)`` on the
    consecutive parts of :func:`group_rows` rows (first-axis entries) of
    ``out``, for ``per_row`` uniforms a row and about :data:`_CALL_DRAWS` a
    call, so a call's buffers and the temporaries made from them stay small
    whatever the row count.  Every fill of the call gets the same
    :class:`Workspace` ``work``: the one passed, which a sketch worker
    lends to all its blocks, or a new one."""
    group = group_rows(per_row)
    work = Workspace() if work is None else work
    for g0 in range(0, len(out), group):
        fill(gen, out[g0 : g0 + group], work)


def fill_cauchy(gen: np.random.Generator, out: np.ndarray, work: Workspace) -> None:
    """Standard Cauchy draws into ``out[..., 0]``, by :func:`cauchy_in_place`;
    they need no ``work``."""
    gen.random(out=out[..., 0])
    cauchy_in_place(out[..., 0])


def sample_cauchy(center: float, scale: float, rng: RandomStream, size: int):
    """``size`` centered-and-scaled Cauchy draws, by :func:`cauchy_in_place`,
    for a finite ``center`` and a finite ``scale >= 0``."""
    if not (math.isfinite(center) and math.isfinite(scale) and scale >= 0):
        raise ParameterError(f"need a finite center and scale >= 0, got {center}, {scale}")
    x = rng.random(size)
    cauchy_in_place(x)
    return center + scale * x


def required_sample_count(epsilon: float, delta: float, m: int) -> int:
    """Replicates needed so all pairwise scale estimates hit relative error
    ``epsilon`` with probability ``1 - delta``: ``ceil((8/eps)^2 ln(m^2/delta))``.

    ``epsilon`` must lie in ``(0, 1/2]``; the estimator's concentration bound
    is only stated on that range and we refuse to extrapolate.
    """
    if not (0.0 < epsilon <= 0.5):
        raise ParameterError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if m < 2:
        raise ParameterError(f"m must be >= 2, got {m}")
    return int(math.ceil((8.0 / epsilon) ** 2 * math.log(m * m / delta)))


def geometric_mean_rows(diffs: np.ndarray) -> np.ndarray:
    """Geometric-mean scale of each row of a C-contiguous ``(k, t)`` float64
    buffer of centered Cauchy samples: ``exp(add.reduce(log|d|, axis=1) / t)``.

    Works in place: the buffer ends up holding ``log|d|``.  Computed in
    log-space, so products cannot overflow.  A row with an exact zero gives
    0.0, even when an inf or NaN in it turned its log-sum into NaN.  Each row
    is reduced along its own contiguous axis, so a row's estimate does not
    depend on the other rows in the buffer.
    """
    np.abs(diffs, out=diffs)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(diffs, out=diffs)
        sums = np.add.reduce(diffs, axis=1)
    sums /= diffs.shape[1]
    # a zero's -inf makes the sum -inf, which exp maps to 0.0, unless a +inf
    # or NaN in the same row made the sum NaN
    for i in np.flatnonzero(np.isnan(sums)):
        if np.isneginf(diffs[i]).any():
            sums[i] = -np.inf
    return np.exp(sums, out=sums)


def geometric_mean_estimate(samples) -> float:
    """Scale of centered Cauchy samples via the uncorrected geometric mean:
    :func:`geometric_mean_rows` on one row, ``exp(mean(log|x|))``, with an
    exact zero sample giving 0."""
    x = np.array(samples, dtype=float).reshape(1, -1)
    if x.size == 0:
        raise ParameterError("geometric_mean_estimate needs at least one sample")
    return float(geometric_mean_rows(x)[0])
