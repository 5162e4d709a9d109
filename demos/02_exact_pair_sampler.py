"""The exact sampler for the (constant, linear) integral pair.

Evaluates the closed-form joint density on a grid (written as plot-ready
CSV), draws exact samples by rejection under the bivariate Student envelope,
and checks the sampler's marginals and acceptance rate against theory.
"""

import numpy as np

from l1sketch import (
    RandomStream,
    ci1_density,
    rescale_cid,
    sample_ci1_unit,
    sample_student_envelope,
)
from l1sketch.ci1 import _accept_mask

# Density surface for contour plots: same grid the `eval` CLI command emits.
axis = np.linspace(-3.0, 3.0, 121)
with open("pair_density_grid.csv", "w", encoding="utf-8") as fh:
    fh.write("x0,x1,value\n")
    for x0 in axis:
        for x1, v in zip(axis, ci1_density(np.full_like(axis, x0), axis)):
            fh.write(f"{x0!r},{x1!r},{v!r}\n")
print("wrote pair_density_grid.csv (121 x 121 points)")

rng = RandomStream(7)
n = 200_000
x0, x1 = sample_ci1_unit(rng, size=n)

# Marginal scales follow from the absolute integrals of 1 and x on [0, 1]:
# the first component has Cauchy scale 1, the second has scale 1/2.
print(f"median |x0| = {np.median(np.abs(x0)):.4f}   (theory 1.0)")
print(f"median |x1| = {np.median(np.abs(x1)):.4f}   (theory 0.5)")

# Any linear functional is Cauchy with scale = integral of |c0 + c1 x|.
w = x0 - 2.0 * x1
print(f"median |x0 - 2 x1| = {np.median(np.abs(w)):.4f}   (theory 0.5)")

# Acceptance rate: both density and envelope are normalized, so the rate is
# exactly pi / 25.
prop_rng = RandomStream(8)
p0, p1 = sample_student_envelope(prop_rng, size=100_000)
u = prop_rng.random(100_000)
rate = np.mean(_accept_mask(p0, p1, u))
print(f"acceptance rate = {rate:.4f}   (theory {np.pi / 25:.4f})")

# Rescaling to an arbitrary interval [a, b] is a two-by-two linear map, the
# degree-1 case of the map every degree uses.
z37 = rescale_cid(np.column_stack([x0, x1]), 3.0, 7.0)
print(f"median |x0| on [3, 7] = {np.median(np.abs(z37[:, 0])):.4f}   (theory 4.0)")
