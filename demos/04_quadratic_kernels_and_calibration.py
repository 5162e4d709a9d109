"""Degree-2 families: discretized sampling and constant calibration.

For degrees above one the integral vectors are sampled approximately via an
r-step discretization.  The pipeline puts the steps' nodes at midpoints,
with r = ceil(c d / sqrt(eps)).  The constant c is empirical; this demo
calibrates it for the midpoint rule, then runs the quadratic pipeline on a
family of parabolic-kernel mixtures and compares against the exact oracle.
"""

import numpy as np

from l1sketch import (
    RandomStream,
    calibrate_c,
    density_from_pieces,
    exact_all_pairs,
    merge_breakpoints,
    run_scheme,
)


def parabola_kernel(name: str, center: float, half_width: float):
    """Unit-mass downward parabola on [center - h, center + h]."""
    h = half_width
    # 3/(4h) * (1 - ((x - c)/h)^2), expanded in the monomial basis
    a = 3.0 / (4.0 * h)
    c0 = a * (1.0 - center**2 / h**2)
    c1 = a * 2.0 * center / h**2
    c2 = -a / h**2
    return density_from_pieces(
        name, [(center - h, center + h, np.array([c0, c1, c2]))], degree=2
    )


family = merge_breakpoints(
    [
        parabola_kernel("narrow", 0.4, 0.3),
        parabola_kernel("wide", 0.5, 0.5),
        parabola_kernel("shifted", 0.75, 0.25),
    ]
)

print("calibrating the discretization constant on random polynomials...")
result = calibrate_c(
    d_max=4, target_eps=0.05, trials=300, rng=RandomStream(99), nodes="midpoint"
)
print(f"calibrated c = {result.c:.3f} (per-degree step counts: {result.per_degree_r})")

oracle = exact_all_pairs(family).entries
dm = run_scheme(family, 0.2, 0.1, "sketch", seed=7, c_constant=result.c)
print(f"\nsketch mode: {dm.config['mode']}, r = {dm.config['r']} {dm.config['nodes']} steps, "
      f"t = {dm.config['t']}")
print(f"error budget split: integration {dm.config['epsilon_integration']}, "
      f"estimation {dm.config['epsilon']}")
print(f"combined guarantee: +{dm.config['relative_error_upper']:.1%} / "
      f"-{dm.config['relative_error_lower']:.1%}")

mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
rel = np.abs(dm.entries[mask] - oracle[mask]) / oracle[mask]
for (j, k), est, true, r in zip(
    np.argwhere(mask), dm.entries[mask], oracle[mask], rel
):
    names = dm.names
    print(f"{names[j]:>8s} vs {names[k]:<8s}: estimate {est:.4f}, exact {true:.4f} "
          f"({r:+.2%})")
