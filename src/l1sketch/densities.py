"""Piecewise-polynomial density families and the exact L1-distance oracle.

A family keeps one shared, strictly increasing grid of breakpoints.  Each
density is a list of non-overlapping segments; a segment spans the half-open
interval between two grid points and carries the monomial coefficients of a
single polynomial.  Segment intervals are half-open, ``[a_b, a_c)``, so
evaluation at shared endpoints is unambiguous.

Distances are computed exactly and in batch.  The oracle copies each
density's coefficients onto every elementary interval its segments cover
(zeros where it has no support) and Taylor-shifts them to the interval-local
variable ``u = x - a_l``, giving one tensor ``C[m, L, d+1]``.  On every
interval the difference of two densities is then a polynomial in ``u`` on
``[0, w_l]``, whose absolute value integrates in closed form once its sign
changes are found: closed-form roots for degree <= 2, Sturm-sequence
isolation for degree >= 3 (see :mod:`l1sketch._poly`).  Local coordinates
keep the result accurate on grids far from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._poly import MAX_DEGREE, integrate_abs_local, poly_antideriv, poly_eval, taylor_shift
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


@dataclass
class PolySegment:
    """One polynomial piece over ``[points[b], points[c])``."""

    b: int
    c: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.b = int(self.b)
        self.c = int(self.c)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise FamilyFormatError("segment coeffs must be a non-empty 1-D vector")
        if self.b < 0 or self.c <= self.b:
            raise FamilyFormatError(
                f"segment indices must satisfy 0 <= b < c, got b={self.b}, c={self.c}"
            )


@dataclass
class PiecewisePolyDensity:
    """A named density given by non-overlapping polynomial segments."""

    name: str
    segments: list[PolySegment]
    degree: int

    def __post_init__(self):
        self.degree = int(self.degree)
        if self.degree < 0 or self.degree > MAX_DEGREE:
            raise FamilyFormatError(f"degree must be in [0, {MAX_DEGREE}], got {self.degree}")
        for seg in self.segments:
            if seg.coeffs.size != self.degree + 1:
                raise FamilyFormatError(
                    f"density {self.name!r}: segment coeffs length "
                    f"{seg.coeffs.size} != degree+1 = {self.degree + 1}"
                )
        order = sorted(range(len(self.segments)), key=lambda i: self.segments[i].b)
        self.segments = [self.segments[i] for i in order]
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if nxt.b < prev.c:
                raise FamilyFormatError(
                    f"density {self.name!r}: overlapping segments "
                    f"({prev.b},{prev.c}) and ({nxt.b},{nxt.c})"
                )


@dataclass
class DensityFamily:
    """Densities sharing one breakpoint grid and one polynomial degree."""

    breakpoints: Breakpoints
    densities: list[PiecewisePolyDensity]
    degree: int

    def __post_init__(self):
        self.degree = int(self.degree)
        s = len(self.breakpoints)
        names = set()
        for dens in self.densities:
            if dens.degree != self.degree:
                raise FamilyFormatError(
                    f"density {dens.name!r} has degree {dens.degree}, family has {self.degree}"
                )
            if dens.name in names:
                raise FamilyFormatError(f"duplicate density name {dens.name!r}")
            names.add(dens.name)
            for seg in dens.segments:
                if seg.c > s - 1:
                    raise FamilyFormatError(
                        f"density {dens.name!r}: segment end index {seg.c} exceeds grid"
                    )

    @property
    def m(self) -> int:
        return len(self.densities)

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.densities]


def _chebyshev_interior(lo: float, hi: float, k: int) -> np.ndarray:
    """k Chebyshev-spaced points strictly inside (lo, hi)."""
    i = np.arange(k)
    nodes = np.cos((2 * i + 1) * np.pi / (2 * k))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes


def segment_mass(seg: PolySegment, bp: Breakpoints) -> float:
    """Signed integral of the segment polynomial over its interval."""
    anti = poly_antideriv(seg.coeffs)
    lo, hi = bp.points[seg.b], bp.points[seg.c]
    return float(poly_eval(anti, hi) - poly_eval(anti, lo))


def density_mass(dens: PiecewisePolyDensity, bp: Breakpoints) -> float:
    return sum(segment_mass(seg, bp) for seg in dens.segments)


def validate_family(family: DensityFamily, strict: bool = False) -> list[str]:
    """Re-check structural invariants; optionally check density-ness.

    Structural violations raise :class:`FamilyFormatError`.  With ``strict``,
    nonnegativity is probed at segment endpoints plus ``2*degree + 1``
    Chebyshev-spaced interior points per segment, and the total mass is
    checked against 1; both produce warnings, not errors, because the
    sketching math only needs integrable functions.
    """
    # Re-run the dataclass invariants against possibly mutated objects.
    Breakpoints(family.breakpoints.points)
    for dens in family.densities:
        PiecewisePolyDensity(dens.name, [PolySegment(s.b, s.c, s.coeffs) for s in dens.segments], dens.degree)
    DensityFamily(family.breakpoints, family.densities, family.degree)

    warnings: list[str] = []
    if not strict:
        return warnings
    pts = family.breakpoints.points
    for dens in family.densities:
        negative = False
        for seg in dens.segments:
            lo, hi = pts[seg.b], pts[seg.c]
            probes = np.concatenate(
                [[lo, hi], _chebyshev_interior(lo, hi, 2 * family.degree + 1)]
            )
            if np.any(poly_eval(seg.coeffs, probes) < 0.0):
                negative = True
        if negative:
            warnings.append(f"density {dens.name!r} is negative at probe points")
        mass = density_mass(dens, family.breakpoints)
        if abs(mass - 1.0) > MASS_TOLERANCE:
            warnings.append(f"density {dens.name!r} has total mass {mass!r}, expected 1")
    return warnings


def _interval_segment_map(dens: PiecewisePolyDensity, n_intervals: int) -> np.ndarray:
    """Map elementary-interval index to segment index (-1 where unsupported)."""
    seg_of = np.full(n_intervals, -1, dtype=np.int64)
    for si, seg in enumerate(dens.segments):
        seg_of[seg.b : seg.c] = si
    return seg_of


def eval_density(dens: PiecewisePolyDensity, bp: Breakpoints, x):
    """Evaluate the density at ``x`` (scalar or array); 0 outside its support.

    Each point is located on the half-open grid by binary search, then the
    owning segment's polynomial is evaluated by Horner's rule.
    """
    pts = bp.points
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    out = np.zeros(xa.shape)
    idx = np.searchsorted(pts, xa, side="right") - 1
    inside = (idx >= 0) & (idx < len(pts) - 1)
    if inside.any():
        seg_of = _interval_segment_map(dens, len(pts) - 1)
        seg = seg_of[idx[inside]]
        has = seg >= 0
        if has.any():
            coeffs = np.stack([s.coeffs for s in dens.segments])
            rows = coeffs[seg[has]]
            xx = xa[inside][has]
            val = rows[:, -1].copy()
            for k in range(rows.shape[1] - 2, -1, -1):
                val = val * xx + rows[:, k]
            tmp = np.zeros(int(inside.sum()))
            tmp[has] = val
            out[inside] = tmp
    return float(out[0]) if scalar else out


def merge_breakpoints(families: list[DensityFamily]) -> DensityFamily:
    """Merge densities from several families onto one shared union grid.

    The output grid is the sorted, deduplicated union of all input grids.
    Every original segment is re-split along grid points interior to it, so
    each output segment spans exactly one elementary interval; coefficient
    vectors are carried over unchanged, which preserves evaluation pointwise.
    """
    if not families:
        raise ParameterError("merge_breakpoints needs at least one family")
    degree = families[0].degree
    for fam in families:
        if fam.degree != degree:
            raise FamilyFormatError("all families must share one degree")
    grid = np.unique(np.concatenate([fam.breakpoints.points for fam in families]))
    if not np.all(np.isfinite(grid)):
        raise FamilyFormatError("breakpoints must be finite")
    bp = Breakpoints(grid)
    densities = []
    for fam in families:
        old = fam.breakpoints.points
        for dens in fam.densities:
            segs = []
            for seg in dens.segments:
                nb = int(np.searchsorted(grid, old[seg.b]))
                nc = int(np.searchsorted(grid, old[seg.c]))
                for j in range(nb, nc):
                    segs.append(PolySegment(j, j + 1, seg.coeffs.copy()))
            densities.append(PiecewisePolyDensity(dens.name, segs, degree))
    return DensityFamily(bp, densities, degree)


def _local_coefficients(densities: list[PiecewisePolyDensity], bp: Breakpoints) -> np.ndarray:
    """Coefficient tensor ``C[j, l]`` of density ``j`` on interval ``l`` in ``u = x - a_l``.

    Zero where the density has no support; lower-degree densities are padded
    with zero leading coefficients.
    """
    pts = bp.points
    width = max((dens.degree for dens in densities), default=0) + 1
    coeffs = np.zeros((len(densities), len(pts) - 1, width))
    for j, dens in enumerate(densities):
        for seg in dens.segments:
            coeffs[j, seg.b : seg.c, : seg.coeffs.size] = seg.coeffs
    return taylor_shift(coeffs, pts[:-1])


def exact_l1_distance(
    f: PiecewisePolyDensity, g: PiecewisePolyDensity, bp: Breakpoints
) -> float:
    """Exact L1 distance between two densities on a shared grid.

    Same kernel as :func:`exact_all_pairs`, for one pair.
    """
    coeffs = _local_coefficients([f, g], bp)
    return float(integrate_abs_local(coeffs[0] - coeffs[1], np.diff(bp.points)).sum())


def exact_all_pairs(family: DensityFamily):
    """Symmetric matrix of exact pairwise L1 distances (zero diagonal).

    One batched kernel call per row ``j`` covers all pairs ``(j, k > j)``
    and all intervals.  Intervals where both densities carry identical
    coefficients contribute an exact 0.  Accurate to rounding for degree
    <= 2, and to the root-isolation tolerance above.
    """
    from .pipeline import DistanceMatrix  # local import to avoid a cycle

    m = family.m
    coeffs = _local_coefficients(family.densities, family.breakpoints)
    widths = np.diff(family.breakpoints.points)
    entries = np.zeros((m, m))
    for j in range(m - 1):
        # a difference that overflows gives inf, which DistanceMatrix refuses
        with np.errstate(over="ignore"):
            diff = coeffs[j] - coeffs[j + 1 :]
        row = integrate_abs_local(diff, widths).sum(axis=1)
        entries[j, j + 1 :] = row
        entries[j + 1 :, j] = row
    return DistanceMatrix(
        names=family.names, entries=entries, method="exact", config={"degree": family.degree}
    )


def sample_from_density(
    dens: PiecewisePolyDensity, bp: Breakpoints, rng: RandomStream, size: int | None = None
):
    """Draw from a nonnegative density: pick a segment by mass, invert its CDF.

    The segment CDF is inverted by monotone bisection until the CDF value is
    matched to ``CDF_BISECTION_TOL``.  Requires a valid (nonnegative) density;
    run ``validate_family(..., strict=True)`` first.
    """
    pts = bp.points
    masses = np.array([segment_mass(seg, bp) for seg in dens.segments])
    total = masses.sum()
    if total <= 0.0 or np.any(masses < 0.0):
        raise ParameterError(f"density {dens.name!r} has nonpositive segment mass")
    n = 1 if size is None else int(size)
    u = rng.random((n, 2))
    cum = np.cumsum(masses) / total
    seg_idx = np.minimum(np.searchsorted(cum, u[:, 0], side="right"), len(masses) - 1)

    lo = np.array([pts[dens.segments[i].b] for i in range(len(dens.segments))])[seg_idx]
    hi = np.array([pts[dens.segments[i].c] for i in range(len(dens.segments))])[seg_idx]
    antis = np.stack([poly_antideriv(seg.coeffs) for seg in dens.segments])
    rows = antis[seg_idx]

    def cdf_at(x):
        val = rows[:, -1].copy()
        for k in range(rows.shape[1] - 2, -1, -1):
            val = val * x + rows[:, k]
        return val

    base = cdf_at(lo)
    target = base + u[:, 1] * masses[seg_idx]
    a, b = lo.copy(), hi.copy()
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = cdf_at(mid)
        err = fm - target
        if np.all(np.abs(err) <= CDF_BISECTION_TOL):
            break
        go_right = err < 0.0
        a = np.where(go_right, mid, a)
        b = np.where(go_right, b, mid)
    out = 0.5 * (a + b)
    return float(out[0]) if size is None else out


def density_from_pieces(
    name: str, pieces: list[tuple[float, float, np.ndarray]], degree: int
) -> DensityFamily:
    """Build a one-density family from ``(lo, hi, coeffs)`` pieces."""
    endpoints = np.unique(np.array([e for p in pieces for e in (p[0], p[1])], dtype=float))
    bp = Breakpoints(endpoints)
    segs = []
    for lo, hi, coeffs in pieces:
        b = int(np.searchsorted(endpoints, lo))
        c = int(np.searchsorted(endpoints, hi))
        segs.append(PolySegment(b, c, np.asarray(coeffs, dtype=float)))
    dens = PiecewisePolyDensity(name, segs, degree)
    return DensityFamily(bp, [dens], degree)


def uniform_density(name: str, lo: float, hi: float) -> DensityFamily:
    """A one-density family: the uniform density on ``[lo, hi)``."""
    return density_from_pieces(name, [(lo, hi, np.array([1.0 / (hi - lo)]))], degree=0)


def random_piecewise_linear_family(
    m: int,
    n: int,
    rng: RandomStream,
    lo: float = 0.0,
    hi: float = 1.0,
) -> DensityFamily:
    """Random family of ``m`` continuous piecewise-linear densities, ``n`` pieces each.

    Each density gets its own interior breakpoints on ``[lo, hi]`` and random
    positive node values, then is normalized to unit mass.  Useful for tests
    and benchmarks.
    """
    fams = []
    for j in range(m):
        cuts = np.sort(rng.random(n - 1)) * (hi - lo) + lo if n > 1 else np.empty(0)
        edges = np.concatenate([[lo], cuts, [hi]])
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
