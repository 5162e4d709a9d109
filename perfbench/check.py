"""Correctness check of one ``l1sketch dist`` CSV output against references.

A call fails when its matrix is not finite, not symmetric, not nonnegative,
has a nonzero diagonal, names the wrong densities, or any pair misses its
accuracy bound.  Sketch outputs are held to the relative-error bound their
own config states; the exact oracle is held to ``EXACT_REL_TOL``.
"""

from __future__ import annotations

import json

import numpy as np

EXACT_REL_TOL = 1e-9


def parse_dist_csv(text: str) -> tuple[str, dict, list[str], np.ndarray]:
    """``(method, config, names, matrix)`` from a ``dist`` CSV output."""
    method, config, rows = None, None, []
    for line in text.splitlines():
        if line.startswith("# method: "):
            method = line[len("# method: "):]
        elif line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line and not line.startswith("#"):
            rows.append(line.split(","))
    if method is None or config is None or not rows:
        raise ValueError("output lacks a method line, a config line or a matrix")
    names = rows[0][1:]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    if [row[0] for row in rows[1:]] != names:
        raise ValueError("row names differ from column names")
    return method, config, names, matrix


def accuracy_bounds(method: str, config: dict) -> tuple[float, float]:
    """``(upper, lower)`` relative bounds: an estimate must lie in
    ``[(1 - lower) ref, (1 + upper) ref]``."""
    if method == "exact":
        return EXACT_REL_TOL, EXACT_REL_TOL
    if "relative_error_upper" in config:
        return config["relative_error_upper"], config["relative_error_lower"]
    return config["epsilon"], config["epsilon"]


def check_matrix(
    matrix: np.ndarray,
    names: list[str],
    reference: np.ndarray,
    upper: float,
    lower: float,
) -> tuple[list[str], float]:
    """Problems found (empty when the matrix passes) and the worst pair's
    relative error against ``reference``."""
    m = reference.shape[0]
    if matrix.shape != (m, m) or names != [f"f{j}" for j in range(m)]:
        return [f"expected a {m}x{m} matrix over f0..f{m - 1}"], float("inf")
    problems = []
    if not np.all(np.isfinite(matrix)):
        problems.append("matrix is not finite")
    if not np.array_equal(matrix, matrix.T):
        problems.append("matrix is not symmetric")
    if np.any(matrix < 0.0):
        problems.append("matrix has negative entries")
    if np.any(np.diag(matrix) != 0.0):
        problems.append("diagonal is not zero")
    off = ~np.eye(m, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = (matrix[off] - reference[off]) / reference[off]
    max_rel = float(np.max(np.abs(rel))) if rel.size else 0.0
    misses = int(np.sum(~((rel <= upper) & (rel >= -lower))))
    if misses:
        problems.append(
            f"{misses} pair entries miss the bound (+{upper:.3g}/-{lower:.3g}); "
            f"worst relative error {max_rel:.3g}"
        )
    return problems, max_rel
