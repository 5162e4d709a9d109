"""Piecewise-polynomial density families and the exact L1-distance oracle.

A family keeps one shared, strictly increasing grid of breakpoints
``a_0 < ... < a_L`` and one polynomial degree ``d``.  Each density is a
segment table sorted by ``b``: int64 arrays ``b`` and ``c`` of length ``n``
and float ``coeffs`` of shape ``(n, d+1)``.  Row ``i`` is one polynomial
piece over the half-open interval ``[a_{b_i}, a_{c_i})`` with monomial
coefficients ``coeffs[i]``, so evaluation at shared endpoints is
unambiguous.  A piece may span several grid intervals; pieces do not
overlap.  The table is the only representation of a density: there is no
per-segment object, and every invariant is checked with array operations.
Coefficients are stored as global monomials; every evaluation at points
reads a row in its local frame ``u = x - a_{b_i}`` (:func:`_local_rows`),
as the oracle reads an interval, so it stays accurate far from the origin.
:func:`merge_breakpoints` re-indexes each row onto the union grid and keeps
it whole, so a merged density has as many rows as its input.

:func:`interval_coefficients`, the one place where rows meet grid
intervals, expands the tables into one tensor
``C[m, L, d+1]``: density ``j``'s coefficients on grid interval ``l``, zero
where it has no support.  The oracle and the sketch share one map of it to
interval-local coordinates, a Taylor shift to ``u = x - a_l``; the sketch
then rescales to ``u`` on ``[0, 1]`` (:func:`unit_coefficients`).

Distances are computed exactly and in batch.  On every interval the
difference of two densities is a polynomial in ``u`` on ``[0, w_l]``,
whose absolute value integrates in closed form once its sign changes are
found: closed-form roots for degree <= 2, companion-matrix eigenvalues for
degree >= 3 (see :mod:`l1sketch._poly`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._poly import (
    MAX_DEGREE,
    integrate_abs_local,
    poly_antideriv,
    poly_eval,
    taylor_shift,
    to_unit_interval,
)
from .errors import FamilyFormatError, ParameterError
from .randstream import RandomStream

MASS_TOLERANCE = 1e-6
CDF_BISECTION_TOL = 1e-12


@dataclass
class Breakpoints:
    """Shared grid of interval endpoints, strictly increasing."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or self.points.size < 2:
            raise FamilyFormatError("breakpoints must be a 1-D list of at least 2 values")
        if not np.all(np.isfinite(self.points)):
            raise FamilyFormatError("breakpoints must be finite")
        if not np.all(np.diff(self.points) > 0):
            raise FamilyFormatError("breakpoints must be strictly increasing")

    def __len__(self) -> int:
        return int(self.points.size)


def check_degree(degree: int) -> None:
    """Raise :class:`FamilyFormatError` unless ``0 <= degree <= MAX_DEGREE``:
    checked before any array of ``degree + 1`` columns is built."""
    if not 0 <= degree <= MAX_DEGREE:
        raise FamilyFormatError(f"degree must be in [0, {MAX_DEGREE}], got {degree}")


def coeff_rows(name: str, rows, degree: int) -> np.ndarray:
    """One density's segment coefficient rows as a float array, for a
    ``degree`` that :func:`check_degree` passed; ragged rows or entries
    that are not numbers raise :class:`FamilyFormatError`."""
    if len(rows) == 0:
        return np.empty((0, int(degree) + 1))
    try:
        return np.asarray(rows, dtype=float)
    except ValueError as exc:  # ragged rows, or entries that are not numbers
        sizes = sorted({np.size(row) for row in rows})
        detail = f"lengths {sizes}" if len(sizes) > 1 else exc
        raise FamilyFormatError(
            f"density {name!r}: segment coeffs must be rows of degree+1 = {int(degree) + 1} "
            f"numbers, got {detail}"
        ) from exc


def _check_table(name: str, b: np.ndarray, c: np.ndarray, coeffs: np.ndarray, degree: int) -> None:
    """Raise :class:`FamilyFormatError` unless the table, in its stored
    order, is a density of ``degree`` with non-overlapping segments."""
    check_degree(degree)
    if coeffs.ndim != 2 or coeffs.shape[1] != degree + 1:
        raise FamilyFormatError(
            f"density {name!r}: segment coeffs must be rows of degree+1 = {degree + 1} "
            f"numbers, got shape {coeffs.shape}"
        )
    if not b.shape == c.shape == coeffs.shape[:1]:
        raise FamilyFormatError(f"density {name!r}: b, c and coeffs differ in length")
    bad = np.flatnonzero((b < 0) | (c <= b))
    if bad.size:
        i = bad[0]
        raise FamilyFormatError(
            f"density {name!r}: segment indices must satisfy 0 <= b < c, got b={b[i]}, c={c[i]}"
        )
    bad = np.flatnonzero(b[1:] < c[:-1])
    if bad.size:
        i = bad[0]
        raise FamilyFormatError(
            f"density {name!r}: overlapping segments "
            f"({b[i]},{c[i]}) and ({b[i + 1]},{c[i + 1]})"
        )


class PiecewisePolyDensity:
    """A named density: a segment table ``b``, ``c``, ``coeffs`` sorted by ``b``.

    ``b`` and ``c`` are taken as int64 and ``coeffs`` as float rows of
    ``degree + 1`` (:func:`coeff_rows`), once :func:`check_degree` has
    passed ``degree``; the rows are stably sorted by ``b`` and the table is
    checked by :func:`_check_table`.
    """

    def __init__(self, name: str, b, c, coeffs, degree: int):
        check_degree(degree)
        b, c = np.asarray(b, dtype=np.int64), np.asarray(c, dtype=np.int64)
        coeffs = coeff_rows(name, coeffs, degree)
        order = slice(None)  # tables of unequal lengths stay unsorted for the check to refuse
        if b.shape == c.shape == coeffs.shape[:1]:
            order = np.argsort(b, kind="stable")
        self.name, self.degree = name, int(degree)
        self.b, self.c, self.coeffs = b[order], c[order], coeffs[order]
        _check_table(name, self.b, self.c, self.coeffs, self.degree)


def _check_family(family: DensityFamily) -> None:
    s = len(family.breakpoints)
    names = set()
    for dens in family.densities:
        if dens.degree != family.degree:
            raise FamilyFormatError(
                f"density {dens.name!r} has degree {dens.degree}, family has {family.degree}"
            )
        if dens.name in names:
            raise FamilyFormatError(f"duplicate density name {dens.name!r}")
        names.add(dens.name)
        if dens.c.size and dens.c.max() > s - 1:
            raise FamilyFormatError(
                f"density {dens.name!r}: segment end index {dens.c.max()} exceeds grid"
            )


@dataclass
class DensityFamily:
    """Densities sharing one breakpoint grid and one polynomial degree."""

    breakpoints: Breakpoints
    densities: list[PiecewisePolyDensity]
    degree: int

    def __post_init__(self):
        self.degree = int(self.degree)
        check_degree(self.degree)
        _check_family(self)

    @property
    def m(self) -> int:
        return len(self.densities)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.densities]


def _runs(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Index of every interval that the segments ``[b_i, c_i)`` cover,
    segment by segment, as ``np.repeat(rows, c - b, axis=0)`` repeats
    each segment's row."""
    lengths = c - b
    ell = np.repeat(b - np.cumsum(lengths) + lengths, lengths)
    ell += np.arange(ell.size)
    return ell


def _local_rows(dens: PiecewisePolyDensity, bp: Breakpoints):
    """Each row's start ``lo``, its width ``w`` and its coefficients in
    ``u = x - lo`` on ``[0, w)``: the one frame in which a row is read at
    points."""
    lo = bp.points[dens.b]
    return lo, bp.points[dens.c] - lo, taylor_shift(dens.coeffs, lo)


def segment_masses(dens: PiecewisePolyDensity, bp: Breakpoints) -> np.ndarray:
    """Signed integral of each segment's polynomial over its interval."""
    _, width, local = _local_rows(dens, bp)
    return poly_eval(poly_antideriv(local), width)


def validate_family(family: DensityFamily, strict: bool = False) -> list[str]:
    """Re-check structural invariants; optionally check density-ness.

    Structural violations, including ones made by mutating the family after
    construction, raise :class:`FamilyFormatError`.  With ``strict``,
    nonnegativity is probed at segment endpoints plus ``2*degree + 1``
    Chebyshev-spaced interior points per segment, and the total mass is
    checked against 1; both produce warnings, not errors, because the
    sketching math only needs integrable functions.  A probe value that
    overflows float64 gets its own warning instead of a ``RuntimeWarning``.
    """
    Breakpoints(family.breakpoints.points)
    for dens in family.densities:
        _check_table(dens.name, dens.b, dens.c, dens.coeffs, dens.degree)
    _check_family(family)

    warnings: list[str] = []
    if not strict:
        return warnings
    k = 2 * family.degree + 1
    nodes = np.cos((2 * np.arange(k) + 1) * np.pi / (2 * k))
    # probes as fractions of a row's width: both ends, then the nodes
    fractions = np.concatenate([[0.0, 1.0], 0.5 * (1.0 + nodes)])
    for dens in family.densities:
        # finite coefficients can still overflow; that is reported, not warned
        with np.errstate(over="ignore", invalid="ignore"):
            _, width, local = _local_rows(dens, family.breakpoints)
            values = poly_eval(local[:, None, :], width[:, None] * fractions)
            mass = float(segment_masses(dens, family.breakpoints).sum())
        if not np.isfinite(values).all():
            warnings.append(f"density {dens.name!r} is not finite at probe points")
        if np.any(values < 0.0):
            warnings.append(f"density {dens.name!r} is negative at probe points")
        if not abs(mass - 1.0) <= MASS_TOLERANCE:  # a NaN mass is reported too
            warnings.append(f"density {dens.name!r} has total mass {mass!r}, expected 1")
    return warnings


def eval_density(dens: PiecewisePolyDensity, bp: Breakpoints, x):
    """The density at the points ``x``, an array of their shape; 0 outside
    its support.

    One binary search on the row starts ``lo`` picks each point's row; it
    holds the point if ``x < a_c``, compared exactly, and its coefficients
    in the local frame (:func:`_local_rows`) are evaluated at ``x - lo``.
    """
    xa = np.asarray(x, dtype=float).reshape(-1)
    lo, _, local = _local_rows(dens, bp)
    seg = np.searchsorted(lo, xa, side="right") - 1
    has = seg >= 0
    has[has] = xa[has] < bp.points[dens.c[seg[has]]]
    seg = seg[has]
    out = np.zeros(xa.shape)
    out[has] = poly_eval(local[seg], xa[has] - lo[seg])
    return out.reshape(np.shape(x))


def merge_breakpoints(families: list[DensityFamily]) -> DensityFamily:
    """Merge densities from several families onto one shared union grid.

    Every merged density evaluates bit for bit as its input did, at every
    point, and has one table row per input row.  The grid is the sorted,
    deduplicated union of all input grids; each row's ends ``(b, c)`` are
    located on it and its coefficient row is carried over unchanged, so a
    row may span several grid intervals.
    """
    if not families:
        raise ParameterError("merge_breakpoints needs at least one family")
    degree = families[0].degree
    for fam in families:
        if fam.degree != degree:
            raise FamilyFormatError("all families must share one degree")
    grid = np.unique(np.concatenate([fam.breakpoints.points for fam in families]))
    densities = []
    for fam in families:
        old = fam.breakpoints.points
        for dens in fam.densities:
            b, c = np.searchsorted(grid, old[dens.b]), np.searchsorted(grid, old[dens.c])
            densities.append(PiecewisePolyDensity(dens.name, b, c, dens.coeffs, degree))
    return DensityFamily(Breakpoints(grid), densities, degree)


def interval_coefficients(densities: list[PiecewisePolyDensity], bp: Breakpoints) -> np.ndarray:
    """Tensor ``C`` of shape ``(m, L, d+1)``: ``C[j, l]`` holds density
    ``j``'s monomial coefficients on grid interval ``l``, zero where it has
    no support.  Lower-degree densities get zero leading coefficients.

    One :func:`_runs` call and one scatter cover the tables of all the
    densities, concatenated: density ``j``'s intervals are counted from
    ``j * L``, so each covered interval has one flat index into ``C``.
    """
    width = max((dens.degree for dens in densities), default=0) + 1
    n_int = len(bp) - 1
    coeffs = np.zeros((len(densities), n_int, width))
    if not densities:
        return coeffs
    rows = np.concatenate(
        [
            np.pad(dens.coeffs, ((0, 0), (0, width - 1 - dens.degree)))
            if dens.degree + 1 < width
            else dens.coeffs
            for dens in densities
        ]
    )
    first = np.repeat(np.arange(len(densities)) * n_int, [dens.b.size for dens in densities])
    b = first + np.concatenate([dens.b for dens in densities])
    c = first + np.concatenate([dens.c for dens in densities])
    flat = _runs(b, c)  # before the rows are repeated, to hold less at once
    coeffs.reshape(-1, width)[flat] = np.repeat(rows, c - b, axis=0)
    return coeffs


def _local_coefficients(densities: list[PiecewisePolyDensity], bp: Breakpoints) -> np.ndarray:
    """:func:`interval_coefficients` in ``u = x - a_l`` on each interval ``l``."""
    return taylor_shift(interval_coefficients(densities, bp), bp.points[:-1])


def unit_coefficients(densities: list[PiecewisePolyDensity], bp: Breakpoints) -> np.ndarray:
    """Tensor ``Cu`` of shape ``(m, L, d+1)``: ``Cu[j, l]`` holds the
    coefficients in ``u`` of ``w_l p_{j,l}(a_l + w_l u)`` on ``[0, 1]``.

    :func:`interval_coefficients` through the interval map
    :func:`l1sketch._poly.to_unit_interval`, so ``Cu[j, l] . z`` is the
    integral of density ``j`` against the motion on interval ``l`` when
    ``z`` is the unit-interval integral vector of ``(1, u, ..., u^d)``.
    """
    # overflow gives inf or NaN here, and a non-finite distance, which is refused
    with np.errstate(over="ignore", invalid="ignore"):
        return to_unit_interval(
            interval_coefficients(densities, bp), bp.points[:-1], np.diff(bp.points)
        )


def _l1_reduce(densities: list[PiecewisePolyDensity], bp: Breakpoints):
    """The oracle's ``reduce(j, k0, k1)``: the L1 distances of densities
    ``k0 .. k1 - 1`` to density ``j``, one batched kernel call over all
    grid intervals."""
    coeffs, widths = _local_coefficients(densities, bp), np.diff(bp.points)

    def reduce(j: int, k0: int, k1: int) -> np.ndarray:
        # a difference that overflows gives inf, which DistanceMatrix refuses
        with np.errstate(over="ignore"):
            return integrate_abs_local(coeffs[j] - coeffs[k0:k1], widths).sum(axis=1)

    return reduce


def exact_l1_distance(f: PiecewisePolyDensity, g: PiecewisePolyDensity, bp: Breakpoints) -> float:
    """Exact L1 distance between two densities on a shared grid: the reduce
    of :func:`exact_all_pairs`, for one pair."""
    return float(_l1_reduce([f, g], bp)(0, 1, 2)[0])


def exact_all_pairs(family: DensityFamily):
    """Symmetric matrix of exact pairwise L1 distances (zero diagonal).

    The estimator's pair loop, :func:`l1sketch.pipeline._all_pairs`, runs
    it on one thread: a kernel call takes at most ``_PAIR_ROWS`` densities
    against one, over all intervals.  Intervals where both densities carry
    identical coefficients contribute an exact 0.  Accurate to rounding for
    degree <= 2; above, a root found with error ``delta`` changes the
    integral only at order ``delta**(k+1)``, ``k`` the root's multiplicity.
    """
    from .pipeline import DistanceMatrix, _all_pairs  # local import to avoid a cycle

    d = family.degree
    # one thread runs every task, so _fan_out sizes no workers by their scratch
    entries = _all_pairs(family.m, _l1_reduce(family.densities, family.breakpoints), 1, 0)
    return DistanceMatrix(names=family.names, entries=entries, method="exact", config={"degree": d})


def sample_from_density(
    dens: PiecewisePolyDensity, bp: Breakpoints, rng: RandomStream, size: int
) -> np.ndarray:
    """``size`` draws from a nonnegative density: pick a segment by mass,
    invert its CDF.

    The segment CDF, in the row's local frame ``u = x - lo`` on ``[0, w]``
    (:func:`_local_rows`), is inverted by monotone bisection.  The draws
    whose midpoint has a CDF value within ``CDF_BISECTION_TOL`` of their
    target take that midpoint and leave the loop, once they are a quarter
    of the draws left or more; only the rest are halved again.  Moving
    the draws left costs about one halving, so converged draws leave in a
    few batches.  After 100 halvings the rest take their midpoint.  The
    draw is ``lo + u``.
    Requires a valid (nonnegative) density; run
    ``validate_family(..., strict=True)`` first.
    """
    masses = segment_masses(dens, bp)
    total = masses.sum()
    if total <= 0.0 or np.any(masses < 0.0):
        raise ParameterError(f"density {dens.name!r} has nonpositive segment mass")
    u = rng.random((size, 2))
    cum = np.cumsum(masses) / total
    seg_idx = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(masses) - 1)

    lo, width, local = _local_rows(dens, bp)
    # each draw's CDF minus its target: the antiderivative with constant -target
    rows = poly_antideriv(local)[seg_idx]
    rows[:, 0] = -(u[:, 1] * masses[seg_idx])
    a, b = np.zeros(size), width[seg_idx]
    x, todo = lo[seg_idx], np.arange(size)
    del u, seg_idx  # 24 bytes a draw that the loop does not read
    for _ in range(100):
        mid = 0.5 * (a + b)
        err = poly_eval(rows, mid)
        done = np.abs(err) <= CDF_BISECTION_TOL
        go_right = err < 0.0
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
        if 4 * np.count_nonzero(done) >= todo.size:
            x[todo[done]] += mid[done]
            keep = np.flatnonzero(~done)
            todo = todo[keep]
            rows = rows[keep]
            a, b = a[keep], b[keep]
            if not todo.size:
                return x
    x[todo] += 0.5 * (a + b)
    return x


def density_from_pieces(
    name: str, pieces: list[tuple[float, float, np.ndarray]], degree: int
) -> DensityFamily:
    """Build a one-density family from ``(lo, hi, coeffs)`` pieces: the grid
    is the sorted, deduplicated piece ends, and each piece one table row."""
    lo = np.array([p[0] for p in pieces], dtype=float)
    hi = np.array([p[1] for p in pieces], dtype=float)
    bp = Breakpoints(np.unique(np.concatenate([lo, hi])))
    b, c = np.searchsorted(bp.points, lo), np.searchsorted(bp.points, hi)
    dens = PiecewisePolyDensity(name, b, c, [p[2] for p in pieces], degree)
    return DensityFamily(bp, [dens], degree)


def uniform_density(name: str, lo: float, hi: float) -> DensityFamily:
    """A one-density family: the uniform density on ``[lo, hi)``."""
    return density_from_pieces(name, [(lo, hi, np.array([1.0 / (hi - lo)]))], degree=0)


def random_piecewise_linear_family(m: int, n: int, rng: RandomStream) -> DensityFamily:
    """Random family of ``m`` continuous piecewise-linear densities, ``n`` pieces each.

    Each density gets its own interior breakpoints on ``[0, 1]`` and random
    positive node values, then is normalized to unit mass.  Useful for tests
    and benchmarks.
    """
    fams = []
    for j in range(m):
        cuts = np.sort(rng.random(n - 1)) if n > 1 else np.empty(0)
        edges = np.concatenate([[0.0], cuts, [1.0]])
        vals = 0.1 + 0.9 * rng.random(n + 1)
        mass = float(np.sum(0.5 * (vals[:-1] + vals[1:]) * np.diff(edges)))
        vals /= mass
        pieces = []
        for i in range(n):
            x0, x1 = edges[i], edges[i + 1]
            y0, y1 = vals[i], vals[i + 1]
            slope = (y1 - y0) / (x1 - x0)
            pieces.append((x0, x1, np.array([y0 - slope * x0, slope])))
        fams.append(density_from_pieces(f"f{j}", pieces, degree=1))
    return merge_breakpoints(fams)
