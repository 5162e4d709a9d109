"""Workload definitions, family generation and reference distances.

Families are drawn with numpy from the workload seed and written in the JSON
family format that ``l1sketch dist`` reads.  Reference distances for degrees
0 and 1 come from a vectorised closed form here, so they do not depend on
the program under test.  Nothing in this module imports ``l1sketch``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    degree: int
    m: int
    pieces: int
    dist_args: tuple[str, ...]

    @property
    def threads(self) -> int:
        args = self.dist_args
        return int(args[args.index("--threads") + 1]) if "--threads" in args else 1


# Sizes give calls of 1-2 s, so that a 20 s run holds ten or more of them:
# on a shared 2-core machine single calls of one input vary by 20% and more
# within minutes, and a median needs many calls to be steady.
# perfbench/README.md gives the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("d1-exact-ci1", 1, 10, 8, ("--method", "sketch", "--epsilon", "0.4", "--delta", "0.1")),
        Workload("d0-wide", 0, 100, 8, ("--epsilon", "0.3", "--delta", "0.1")),
        Workload("d2-cid-threads", 2, 10, 8, ("--epsilon", "0.4", "--delta", "0.1", "--threads", "2")),
        Workload("exact-oracle", 1, 20, 8, ("--method", "exact")),
    )
}


@dataclass
class Family:
    """A merged family: ``coeffs[j, l]`` are density j's global monomial
    coefficients on grid interval ``[grid[l], grid[l + 1])``."""

    grid: np.ndarray
    coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return self.coeffs.shape[2] - 1

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    @property
    def intervals(self) -> int:
        return self.grid.size - 1


def _pieces(rng: np.random.Generator, degree: int, edges: np.ndarray) -> np.ndarray:
    """Nonnegative unit-mass polynomial pieces on ``edges``, shape (n, degree+1)."""
    n = edges.size - 1
    lo, hi = edges[:-1], edges[1:]
    if degree == 0:
        heights = 0.1 + 0.9 * rng.random(n)
        pieces = heights[:, None]
        mass = float(np.sum(heights * (hi - lo)))
    elif degree == 1:
        # continuous piecewise-linear through positive node values
        vals = 0.1 + 0.9 * rng.random(n + 1)
        slope = (vals[1:] - vals[:-1]) / (hi - lo)
        pieces = np.stack([vals[:-1] - slope * lo, slope], axis=1)
        mass = float(np.sum(0.5 * (vals[:-1] + vals[1:]) * (hi - lo)))
    elif degree == 2:
        # a + b (x - c)^2 with a, b > 0 and c inside the piece
        a = 0.1 + 0.9 * rng.random(n)
        b = 2.0 * rng.random(n)
        c = lo + rng.random(n) * (hi - lo)
        pieces = np.stack([a + b * c * c, -2.0 * b * c, b], axis=1)
        mass = float(np.sum(a * (hi - lo) + b * ((hi - c) ** 3 - (lo - c) ** 3) / 3.0))
    else:
        raise ValueError(f"no generator for degree {degree}")
    return pieces / mass


def generate_family(workload: Workload, seed: int) -> Family:
    """The workload's family for ``seed``: every density has its own random
    grid of ``pieces`` pieces on [0, 1], merged onto the union grid."""
    tag = int.from_bytes(hashlib.sha256(workload.name.encode()).digest()[:8], "little")
    rng = np.random.default_rng(np.random.SeedSequence([seed & _UINT64_MASK, tag]))
    all_edges, all_pieces = [], []
    for _ in range(workload.m):
        cuts = np.sort(rng.random(workload.pieces - 1))
        edges = np.concatenate([[0.0], cuts, [1.0]])
        all_edges.append(edges)
        all_pieces.append(_pieces(rng, workload.degree, edges))
    grid = np.unique(np.concatenate(all_edges))
    coeffs = np.empty((workload.m, grid.size - 1, workload.degree + 1))
    for j, (edges, pieces) in enumerate(zip(all_edges, all_pieces)):
        owner = np.searchsorted(edges, grid[:-1], side="right") - 1
        coeffs[j] = pieces[owner]
    return Family(grid, coeffs)


def family_json(family: Family) -> str:
    """The family in the JSON family format, one single-interval segment per
    grid interval, indented as ``l1sketch``'s own writer does."""
    doc = {
        "degree": family.degree,
        "breakpoints": family.grid.tolist(),
        "densities": [
            {
                "name": f"f{j}",
                "segments": [
                    {"b": ell, "c": ell + 1, "coeffs": row}
                    for ell, row in enumerate(family.coeffs[j].tolist())
                ],
            }
            for j in range(family.m)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_distances(family: Family) -> np.ndarray:
    """All-pairs exact L1 distances for degree 0 or 1, vectorised per row.

    Degree 0: ``sum_l w_l |c_j - c_k|``.  Degree 1: on each interval the
    difference is linear with end values ``ga, gb``; its absolute integral is
    ``w (|ga| + |gb|) / 2`` without a sign change and
    ``w (ga^2 + gb^2) / (2 (|ga| + |gb|))`` with one.
    """
    lo, hi = family.grid[:-1], family.grid[1:]
    w = hi - lo
    m = family.m
    out = np.zeros((m, m))
    if family.degree == 0:
        c = family.coeffs[:, :, 0]
        for j in range(m - 1):
            out[j, j + 1:] = np.abs(c[j] - c[j + 1:]) @ w
    elif family.degree == 1:
        va = family.coeffs[:, :, 0] + family.coeffs[:, :, 1] * lo
        vb = family.coeffs[:, :, 0] + family.coeffs[:, :, 1] * hi
        for j in range(m - 1):
            ga = va[j] - va[j + 1:]
            gb = vb[j] - vb[j + 1:]
            aa, ab = np.abs(ga), np.abs(gb)
            same = ga * gb >= 0.0
            safe = np.where(same, 1.0, aa + ab)
            per = np.where(same, 0.5 * (aa + ab), 0.5 * (ga * ga + gb * gb) / safe)
            out[j, j + 1:] = per @ w
    else:
        raise ValueError("closed-form references cover degrees 0 and 1 only")
    return out + out.T
