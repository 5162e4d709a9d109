"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Statistical checks use fixed seeds so the suite is deterministic;
thresholds and runtime budgets are asserted as stated, not calibrated to the
machine.
"""

import time

import numpy as np
from scipy.integrate import quad

from conftest import ks_against_cauchy
from l1sketch import (
    DEFAULT_C_MIDPOINT,
    ApproxConfig,
    DensityFamily,
    PiecewisePolyDensity,
    RandomStream,
    SketchMode,
    calibrate_c,
    ci1_density,
    estimate_all_pairs,
    exact_all_pairs,
    exact_l1_distance,
    geometric_mean_estimate,
    mc_all_pairs,
    random_piecewise_linear_family,
    random_polynomial,
    required_sample_count,
    riemann_abs_scale,
    sample_cauchy,
    sample_ci1_unit,
    sample_student_envelope,
    sketch_family,
    student_envelope_density,
)
from l1sketch._poly import integrate_abs_poly
from l1sketch.ci1 import DOMINATION_C, _accept_mask
from l1sketch.cli import main
from l1sketch.io import save_family

PI = np.pi


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} ({detail})"


def _domination_grid():
    angles = np.linspace(0.0, 2.0 * PI, 720, endpoint=False)
    radii = np.logspace(-3, 4, 1389)
    x0 = np.concatenate([np.outer(np.cos(angles), radii).ravel(), [0.0]])
    x1 = np.concatenate([np.outer(np.sin(angles), radii).ravel(), [0.0]])
    return x0, x1


def test_c01_envelope_domination():
    start = time.perf_counter()
    x0, x1 = _domination_grid()
    f = ci1_density(x0, x1)
    bound = (DOMINATION_C / PI) * student_envelope_density(x0, x1)
    violations = int(np.sum(f > bound))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "density <= (25/pi) * envelope on 1e6 log-spaced points",
        violations == 0 and elapsed < 10.0,
        f"points={x0.size} violations={violations} time={elapsed:.2f}s",
    )


def test_c02_rejection_acceptance_rate():
    start = time.perf_counter()
    rng = RandomStream(202)
    n = 100_000
    x0, x1 = sample_student_envelope(rng, size=n)
    u = rng.random(n)
    rate = float(np.mean(_accept_mask(x0, x1, u)))
    elapsed = time.perf_counter() - start
    target = PI / 25.0
    _report(
        2,
        "acceptance frequency within 0.01 of pi/25",
        abs(rate - target) <= 0.01 and elapsed < 5.0,
        f"rate={rate:.4f} target={target:.4f} time={elapsed:.2f}s",
    )


def test_c03_exact_sampler_marginals():
    start = time.perf_counter()
    x0, x1 = sample_ci1_unit(RandomStream(303), size=100_000)
    ks0 = ks_against_cauchy(x0, 1.0)
    ks1 = ks_against_cauchy(x1, 0.5)
    elapsed = time.perf_counter() - start
    _report(
        3,
        "marginals of 1e5 exact draws match C(0,1) and C(0,1/2), KS < 0.01",
        ks0 < 0.01 and ks1 < 0.01 and elapsed < 30.0,
        f"ks_x0={ks0:.4f} ks_x1={ks1:.4f} time={elapsed:.2f}s",
    )


def test_c04_density_normalization():
    box = 200.0

    def inner(x0):
        val, _ = quad(
            lambda y: ci1_density(float(x0), float(y)),
            -box,
            box,
            points=[x0 / 2.0],
            limit=200,
            epsabs=1e-9,
            epsrel=1e-8,
        )
        return val

    mass, _ = quad(inner, -box, box, points=[0.0], limit=400, epsabs=1e-6, epsrel=1e-6)

    # envelope mass outside the box: closed-form inner integral, 1-D quadrature
    def envelope_inner_mass(x0):
        a2 = 1.0 + x0 * x0
        anti = lambda v: v / (a2 * np.sqrt(a2 + v * v))
        return (anti(2.0 * box - x0) - anti(-2.0 * box - x0)) / (2.0 * PI)

    inside, _ = quad(envelope_inner_mass, -box, box, limit=400, epsabs=1e-10)
    tail = 1.0 - inside
    total = mass + tail
    _report(
        4,
        "quadrature over [-200,200]^2 plus envelope tail equals 1 +/- 0.01",
        abs(total - 1.0) <= 0.01,
        f"quadrature={mass:.5f} tail={tail:.5f} total={total:.5f}",
    )


def test_c05_pair_law():
    worst = 0.0
    for i in range(10):
        fam = random_piecewise_linear_family(2, 4, RandomStream(505, i))
        exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
        sk = sketch_family(fam, 10_000, SketchMode.EXACT_CI1, RandomStream(1505 + i))
        ks = ks_against_cauchy((sk.values[0] - sk.values[1]) / exact, 1.0)
        worst = max(worst, ks)
    _report(
        5,
        "normalized pair differences match C(0,1), KS < 0.015 on 10 pairs",
        worst < 0.015,
        f"worst_ks={worst:.4f}",
    )


def test_c06_end_to_end_relative_error():
    family = random_piecewise_linear_family(10, 8, RandomStream(606))
    oracle = exact_all_pairs(family).entries
    mask = np.triu(np.ones((10, 10), dtype=bool), k=1)
    t = required_sample_count(0.2, 0.1, 10)
    assert t == 11053
    successes = 0
    slowest = 0.0
    for rep in range(20):
        start = time.perf_counter()
        sk = sketch_family(family, t, SketchMode.EXACT_CI1, RandomStream(7000 + rep))
        dm = estimate_all_pairs(sk, 0.2, 0.1)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        rel = np.abs(dm.entries[mask] - oracle[mask]) / oracle[mask]
        if np.all(rel <= 0.2):
            successes += 1
    _report(
        6,
        "m=10 n=8 d=1, eps=0.2 delta=0.1, t=11053: >= 16/20 repetitions succeed",
        successes >= 16 and slowest < 120.0,
        f"successes={successes}/20 slowest_rep={slowest:.1f}s",
    )


def test_c07_geometric_mean_tail():
    start = time.perf_counter()
    failures = 0
    trials = 1000
    for k in range(trials):
        draws = sample_cauchy(0.0, 1.0, RandomStream(707, k), size=800)
        est = geometric_mean_estimate(draws)
        if not (0.8 <= est <= 1.2):
            failures += 1
    rate = failures / trials
    elapsed = time.perf_counter() - start
    _report(
        7,
        "geometric-mean failure rate at D=1, t=800, eps=0.2 is <= 0.05",
        rate <= 0.05 and elapsed < 20.0,
        f"rate={rate:.4f} (concentration bound 0.0366) time={elapsed:.2f}s",
    )


def test_c08_discretization_interpolation():
    start = time.perf_counter()
    result = calibrate_c(5, 0.05, 400, RandomStream(808))
    eps = 0.05
    worst_rel = 0.0
    for d in range(1, 6):
        r = int(np.ceil(result.c * d * d / eps))
        held = RandomStream(808, 5000 + d)
        for _ in range(500):
            coeffs = random_polynomial(d, held)
            exact = integrate_abs_poly(coeffs, 0.0, 1.0)
            rel = abs(riemann_abs_scale(coeffs, r) - exact) / exact
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    _report(
        8,
        "calibrated c: 500 held-out polynomials per degree satisfy the 5% sandwich",
        worst_rel <= eps and elapsed < 60.0,
        f"c={result.c:.3f} worst_rel={worst_rel:.4f} time={elapsed:.1f}s",
    )


def test_c08_midpoint_discretization_heldout():
    # c08's protocol for the midpoint rule, r = ceil(c d / sqrt(eps)), at the
    # integration budget of the default dist call (0.2) as well as c08's 0.05
    start = time.perf_counter()
    ok, details = True, []
    for eps in (0.05, 0.2):
        result = calibrate_c(5, eps, 400, RandomStream(808), nodes="midpoint")
        worst_rel = 0.0
        steps = []
        for d in range(1, 6):
            r = ApproxConfig(d, eps, result.c, nodes="midpoint").r
            steps.append(r)
            held = RandomStream(808, 5000 + d)
            for _ in range(500):
                coeffs = random_polynomial(d, held)
                exact = integrate_abs_poly(coeffs, 0.0, 1.0)
                rel = abs(riemann_abs_scale(coeffs, r, nodes="midpoint") - exact) / exact
                worst_rel = max(worst_rel, rel)
        ok = ok and worst_rel <= eps and result.c <= DEFAULT_C_MIDPOINT
        details.append(f"eps={eps} c={result.c:.3f} r={steps} worst_rel={worst_rel:.4f}")
    elapsed = time.perf_counter() - start
    _report(
        8,
        "calibrated midpoint c: 500 held-out polynomials per degree within eps = 0.05 and 0.2",
        ok and elapsed < 60.0,
        " ".join(details) + f" time={elapsed:.1f}s",
    )


def _shared_grid_linear_family(seed: int) -> DensityFamily:
    """Five continuous piecewise-linear densities on the common grid {0, .5, 1}."""
    rng = RandomStream(seed)
    pts = np.array([0.0, 0.5, 1.0])
    densities = []
    for j in range(5):
        vals = 0.1 + 0.9 * rng.random(3)
        mass = 0.5 * (0.5 * (vals[0] + vals[1]) + 0.5 * (vals[1] + vals[2]))
        vals = vals / mass
        rows = []
        for i in range(2):
            x0, x1 = pts[i], pts[i + 1]
            slope = (vals[i + 1] - vals[i]) / (x1 - x0)
            rows.append([vals[i] - slope * x0, slope])
        densities.append(PiecewisePolyDensity(f"f{j}", [0, 1], [1, 2], rows, 1))
    from l1sketch import Breakpoints

    return DensityFamily(Breakpoints(pts), densities, 1)


def test_c09_degree_one_cross_validation():
    family = _shared_grid_linear_family(909)
    oracle = exact_all_pairs(family).entries
    t = 150_000
    eps = 0.049
    assert required_sample_count(eps, 0.1, 5) <= t
    sk_exact = sketch_family(family, t, SketchMode.EXACT_CI1, RandomStream(919))
    dm_exact = estimate_all_pairs(sk_exact, eps, 0.1).entries
    cfg = ApproxConfig(d=1, epsilon_integration=0.05, r=10_000)
    sk_approx = sketch_family(
        family, t, SketchMode.CID_APPROX, RandomStream(929), approx_config=cfg
    )
    dm_approx = estimate_all_pairs(sk_approx, eps, 0.1).entries
    mask = np.triu(np.ones((5, 5), dtype=bool), k=1)
    rel = np.abs(dm_exact[mask] - dm_approx[mask]) / oracle[mask]
    _report(
        9,
        "exact and r=1e4 discretized sketches agree entrywise within 2%",
        float(rel.max()) <= 0.02,
        f"max_rel_disagreement={rel.max():.4f}",
    )


def test_c10_branch_continuity():
    worst = 0.0
    for x0 in (-2.0, 0.0, 1.0, 5.0):
        diag = ci1_density(x0, x0 / 2.0)
        for off in (1e-6, -1e-6):
            worst = max(worst, abs(ci1_density(x0, x0 / 2.0 + off) - diag))
    _report(
        10,
        "generic vs diagonal formula discrepancy <= 1e-4 at the probe points",
        worst <= 1e-4,
        f"worst={worst:.2e}",
    )


def test_c11_mc_baseline():
    eps_abs = 0.05
    failures = 0
    pairs = 50
    for i in range(pairs):
        fam = random_piecewise_linear_family(2, 4, RandomStream(1111, i))
        exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
        dm = mc_all_pairs(fam, eps_abs, 0.1, RandomStream(2111 + i))
        if abs(dm.entries[0, 1] - exact) > eps_abs:
            failures += 1
    rate = failures / pairs
    _report(
        11,
        "MC baseline absolute error <= 0.05 on 50 random pairs, failures <= 0.15",
        rate <= 0.15,
        f"failure_rate={rate:.3f}",
    )


def test_c12_cli_thread_determinism(tmp_path):
    family = random_piecewise_linear_family(4, 3, RandomStream(1212))
    path = tmp_path / "family.json"
    save_family(family, str(path))
    outs = []
    for threads in (1, 8):
        out = tmp_path / f"dist_{threads}.json"
        code = main(
            [
                "dist", str(path), "--method", "sketch", "--epsilon", "0.3",
                "--delta", "0.2", "--seed", "99", "--format", "json",
                "--threads", str(threads), "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    _report(
        12,
        "dist output is byte-identical across 1 and 8 worker threads",
        outs[0] == outs[1],
        f"bytes={len(outs[0])}",
    )
