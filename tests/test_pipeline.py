"""Sketch construction, estimation, the MC baseline, and scheme dispatch."""

import math
import time

import numpy as np
import pytest

from conftest import ks_against_cauchy, random_segment_family
from l1sketch import (
    ApproxConfig,
    Breakpoints,
    DensityFamily,
    ParameterError,
    PiecewisePolyDensity,
    PolySegment,
    RandomStream,
    SketchMode,
    density_from_pieces,
    estimate_all_pairs,
    exact_all_pairs,
    exact_l1_distance,
    mc_all_pairs,
    merge_breakpoints,
    random_piecewise_linear_family,
    required_sample_count,
    run_scheme,
    sketch_family,
    uniform_density,
    validate_family,
)
from l1sketch._poly import poly_eval
from l1sketch.ci1 import (
    REJECTION_OVERHEAD,
    _proposal_block,
    ci1_density,
    student_envelope_density,
)
from l1sketch.cid import _node_powers
from l1sketch.densities import interval_coefficients, unit_coefficients
from l1sketch.pipeline import _BLOCK, _CID_GROUP_DRAWS


def _uniform_pair():
    return merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 1.0, 2.0)])


def _linear_pair():
    flat = density_from_pieces("one", [(0.0, 1.0, np.array([1.0, 0.0]))], degree=1)
    ramp = density_from_pieces("2x", [(0.0, 1.0, np.array([0.0, 2.0]))], degree=1)
    return merge_breakpoints([flat, ramp])


def _quadratic_pair():
    flat = density_from_pieces("one", [(0.0, 1.0, np.array([1.0, 0.0, 0.0]))], degree=2)
    bowl = density_from_pieces("3x2", [(0.0, 1.0, np.array([0.0, 0.0, 3.0]))], degree=2)
    return merge_breakpoints([flat, bowl])


def test_single_uniform_projection_is_standard_cauchy():
    fam = uniform_density("u", 0.0, 1.0)
    sk = sketch_family(fam, 100_000, SketchMode.UNIFORM_FASTPATH, RandomStream(1))
    assert ks_against_cauchy(sk.values[0], 1.0) < 0.01


def test_disjoint_uniform_difference_scale():
    sk = sketch_family(_uniform_pair(), 100_000, SketchMode.UNIFORM_FASTPATH, RandomStream(2))
    diff = sk.values[0] - sk.values[1]
    assert abs(np.median(np.abs(diff)) - 2.0) < 0.06


def test_identical_densities_cancel_exactly():
    fam = merge_breakpoints(
        [uniform_density("a", 0.0, 1.0), uniform_density("acopy", 0.0, 1.0)]
    )
    sk = sketch_family(fam, 500, SketchMode.UNIFORM_FASTPATH, RandomStream(3))
    np.testing.assert_array_equal(sk.values[0], sk.values[1])


def test_duplicate_density_row_identical_d1():
    fam = random_piecewise_linear_family(3, 4, RandomStream(4))
    dup = PiecewisePolyDensity(
        "dup_of_0",
        [type(s)(s.b, s.c, s.coeffs.copy()) for s in fam.densities[0].segments],
        fam.degree,
    )
    bigger = DensityFamily(fam.breakpoints, fam.densities + [dup], fam.degree)
    sk = sketch_family(bigger, 256, SketchMode.EXACT_CI1, RandomStream(5))
    np.testing.assert_array_equal(sk.values[0], sk.values[-1])


def test_linear_pair_difference_law():
    fam = _linear_pair()
    exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    sk = sketch_family(fam, 10_000, SketchMode.EXACT_CI1, RandomStream(6))
    diff = (sk.values[0] - sk.values[1]) / exact
    assert ks_against_cauchy(diff, 1.0) < 0.015


def test_mode_degree_compatibility():
    with pytest.raises(ParameterError):
        sketch_family(_uniform_pair(), 10, SketchMode.EXACT_CI1, RandomStream(7))
    with pytest.raises(ParameterError):
        sketch_family(_linear_pair(), 10, SketchMode.UNIFORM_FASTPATH, RandomStream(7))
    with pytest.raises(ParameterError):
        sketch_family(_linear_pair(), 10, SketchMode.CID_APPROX, RandomStream(7))  # no config
    cfg = ApproxConfig(d=2, epsilon_integration=0.1)
    with pytest.raises(ParameterError):
        sketch_family(_linear_pair(), 10, SketchMode.CID_APPROX, RandomStream(7), approx_config=cfg)


def test_estimate_requires_enough_replicates():
    sk = sketch_family(_uniform_pair(), 500, SketchMode.UNIFORM_FASTPATH, RandomStream(8))
    with pytest.raises(ParameterError) as err:
        estimate_all_pairs(sk, 0.2, 0.1)
    assert str(required_sample_count(0.2, 0.1, 2)) in str(err.value)


def test_estimate_identical_pair_is_zero():
    fam = merge_breakpoints(
        [uniform_density("a", 0.0, 1.0), uniform_density("acopy", 0.0, 1.0)]
    )
    t = required_sample_count(0.5, 0.5, 2)
    sk = sketch_family(fam, t, SketchMode.UNIFORM_FASTPATH, RandomStream(9))
    dm = estimate_all_pairs(sk, 0.5, 0.5)
    assert dm.entries[0, 1] == 0.0


def test_estimate_disjoint_uniforms_within_guarantee():
    fam = _uniform_pair()
    t = required_sample_count(0.2, 0.1, 10)  # padded t from a 10-density budget
    sk = sketch_family(fam, t, SketchMode.UNIFORM_FASTPATH, RandomStream(10))
    dm = estimate_all_pairs(sk, 0.2, 0.1)
    assert 1.6 <= dm.entries[0, 1] <= 2.4
    assert dm.entries[0, 0] == dm.entries[1, 1] == 0.0
    assert np.array_equal(dm.entries, dm.entries.T)


# ------------------------------------------------------------------- sketches
def test_sketch_deterministic_and_thread_invariant():
    fam = random_piecewise_linear_family(4, 3, RandomStream(12))
    a = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13))
    b = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13))
    np.testing.assert_array_equal(a.values, b.values)
    c = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13), threads=4)
    np.testing.assert_array_equal(a.values, c.values)


def _reference_sketch(family, t, mode, seed, approx_config=None):
    """The sketch built replicate by replicate: a fresh stream ``(seed, rep)``
    per replicate, the rejection test without the squeeze, and the
    projection with the unit-local coefficients.  Returns the values and the
    number of replicates whose first proposal block fell short of one accept
    per interval."""
    n_int, d = len(family.breakpoints) - 1, family.degree
    coeffs = unit_coefficients(family.densities, family.breakpoints).reshape(family.m, -1)
    first_block = max(int(math.ceil(n_int * REJECTION_OVERHEAD * 1.3)), 64)
    if mode is SketchMode.CID_APPROX:
        r = approx_config.r
        node_pow = _node_powers(r, d, approx_config.nodes)

    def accepted(gen, k):
        x0, x1, u = _proposal_block(gen, k)
        keep = u * REJECTION_OVERHEAD * student_envelope_density(x0, x1) <= ci1_density(x0, x1)
        return x0[keep], x1[keep]

    shortfalls = 0
    x = np.empty((family.m, t))
    for b0 in range(0, t, _BLOCK):
        b1 = min(b0 + _BLOCK, t)
        z = np.empty((b1 - b0, n_int, d + 1))
        for i, rep in enumerate(range(b0, b1)):
            gen = RandomStream(seed, rep).generator
            if mode is SketchMode.UNIFORM_FASTPATH:
                z[i, :, 0] = np.tan(np.pi * (gen.random(n_int) - 0.5))
            elif mode is SketchMode.EXACT_CI1:
                parts = [accepted(gen, first_block)]
                got = parts[0][0].size
                shortfalls += got < n_int
                while got < n_int:
                    parts.append(accepted(gen, max(int((n_int - got) * REJECTION_OVERHEAD * 1.4), 64)))
                    got += parts[-1][0].size
                z[i, :, 0], z[i, :, 1] = (np.concatenate(p)[:n_int] for p in zip(*parts))
            else:
                z[i] = (np.tan(np.pi * (gen.random((n_int, r)) - 0.5)) / r) @ node_pow
        x[:, b0:b1] = (z.reshape(b1 - b0, -1) @ coeffs.T).T
    return x, shortfalls


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "mode,family,config",
    [
        (SketchMode.UNIFORM_FASTPATH, "uniform", None),
        (SketchMode.EXACT_CI1, "linear-few", None),
        (SketchMode.EXACT_CI1, "linear", None),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2)),
        # 2 intervals of r draws: groups of 5 replicates, so every block of
        # 64 ends in a partial group
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, r=_CID_GROUP_DRAWS // 10)),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, r=_CID_GROUP_DRAWS // 10, nodes="midpoint")),
    ],
)
def test_sketch_bit_identical_to_reference(mode, family, config, threads):
    families = {
        "uniform": _uniform_pair,
        # 3 intervals: a first block of 64 proposals often yields fewer than
        # 3 accepts, so the shortfall path runs
        "linear-few": lambda: random_piecewise_linear_family(2, 2, RandomStream(40)),
        "linear": lambda: random_piecewise_linear_family(4, 3, RandomStream(41)),
        "quadratic": lambda: DensityFamily(
            Breakpoints(np.array([0.0, 0.4, 1.0])),
            [
                PiecewisePolyDensity(
                    f"q{j}", [PolySegment(i, i + 1, np.array([1.0, j - 1.0, 0.5 * j])) for i in range(2)], 2
                )
                for j in range(3)
            ],
            2,
        ),
    }
    fam = families[family]()
    t = 3 * _BLOCK + 17
    ref, shortfalls = _reference_sketch(fam, t, mode, 42, config)
    sk = sketch_family(fam, t, mode, RandomStream(42), threads=threads, approx_config=config)
    np.testing.assert_array_equal(sk.values, ref)
    if family == "linear-few":
        assert len(fam.breakpoints) - 1 <= 6
        assert shortfalls > 0
    if mode is SketchMode.CID_APPROX and config.r > 100:
        group = _CID_GROUP_DRAWS // ((len(fam.breakpoints) - 1) * config.r)
        assert 1 < group < _BLOCK and _BLOCK % group != 0


def _with_unit_densities(family):
    """The family followed by one density per (interval, power) whose only
    nonzero coefficient is a 1 there: its projection value is that entry of
    the replicate's integral vector, exactly."""
    d = family.degree
    units = [
        PiecewisePolyDensity(f"unit{ell}_{k}", [PolySegment(ell, ell + 1, np.eye(d + 1)[k])], d)
        for ell in range(len(family.breakpoints) - 1)
        for k in range(d + 1)
    ]
    return DensityFamily(family.breakpoints, family.densities + units, d)


@pytest.mark.parametrize(
    "mode,degree,config",
    [
        (SketchMode.UNIFORM_FASTPATH, 0, None),
        (SketchMode.EXACT_CI1, 1, None),
        (SketchMode.CID_APPROX, 1, ApproxConfig(d=1, epsilon_integration=0.2)),
        (SketchMode.CID_APPROX, 2, ApproxConfig(d=2, epsilon_integration=0.5)),
        (SketchMode.CID_APPROX, 2, ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")),
    ],
)
def test_projection_within_rounding_of_long_double_sum(mode, degree, config):
    # X_j = sum_l C[j, l] . z_l, with z read back through unit densities
    # and the sum redone in long double
    fam = random_segment_family(np.random.default_rng(50 + degree), 5, degree)
    t = 3 * _BLOCK + 17
    x = sketch_family(fam, t, mode, RandomStream(43), approx_config=config).values
    z = sketch_family(
        _with_unit_densities(fam), t, mode, RandomStream(43), approx_config=config
    ).values[fam.m :]
    coeffs = interval_coefficients(fam.densities, fam.breakpoints).reshape(fam.m, -1)
    ref = coeffs.astype(np.longdouble) @ z.astype(np.longdouble)
    bound = 1e-12 * (np.abs(coeffs) @ np.abs(z))
    assert np.all(np.abs(x - ref) <= bound)


def test_interval_coefficients_match_per_segment_loop():
    gen = np.random.default_rng(8)
    for degree in range(4):
        fam = random_segment_family(gen, 5, degree)
        low = PiecewisePolyDensity("low", [PolySegment(1, 4, np.array([0.5]))], 0)
        densities = fam.densities + [low]
        ref = np.zeros((len(densities), len(fam.breakpoints) - 1, degree + 1))
        for j, dens in enumerate(densities):
            for seg in dens.segments:
                ref[j, seg.b : seg.c, : seg.coeffs.size] = seg.coeffs
        assert any(np.any(dens.c - dens.b > 1) for dens in fam.densities)
        assert np.any(np.all(ref == 0.0, axis=2))  # some intervals are unsupported
        np.testing.assert_array_equal(interval_coefficients(densities, fam.breakpoints), ref)


def test_unit_coefficients_evaluate_each_piece_on_the_unit_interval():
    # Cu[j, l] at u equals w_l p_{j,l}(a_l + w_l u), checked against the
    # global coefficients evaluated at x
    gen = np.random.default_rng(9)
    u = np.linspace(0.0, 1.0, 7)
    for degree in range(4):
        fam = random_segment_family(gen, 5, degree)
        pts = fam.breakpoints.points
        unit = unit_coefficients(fam.densities, fam.breakpoints)
        glob = interval_coefficients(fam.densities, fam.breakpoints)
        for ell, w in enumerate(np.diff(pts)):
            want = w * poly_eval(glob[:, ell, None, :], pts[ell] + w * u)
            got = poly_eval(unit[:, ell, None, :], u)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11 * np.abs(want).max())
        assert not np.allclose(np.diff(pts), 1.0)


def test_cid_sketch_matches_exact_mode_distribution():
    fam = _linear_pair()
    exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    cfg = ApproxConfig(d=1, epsilon_integration=0.05)
    sk = sketch_family(fam, 10_000, SketchMode.CID_APPROX, RandomStream(14), approx_config=cfg)
    diff = (sk.values[0] - sk.values[1]) / exact
    assert ks_against_cauchy(diff, 1.0) < 0.015


# ------------------------------------------------------------------ mc method
def test_mc_identical_densities_zero():
    fam = merge_breakpoints(
        [uniform_density("a", 0.0, 1.0), uniform_density("acopy", 0.0, 1.0)]
    )
    dm = mc_all_pairs(fam, 0.2, 0.2, RandomStream(18))
    assert dm.entries[0, 1] == 0.0


def test_mc_disjoint_supports_exactly_two():
    dm = mc_all_pairs(_uniform_pair(), 0.2, 0.2, RandomStream(19))
    assert dm.entries[0, 1] == 2.0


def test_mc_overlapping_uniforms():
    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.5, 1.5)])
    dm = mc_all_pairs(fam, 0.05, 0.1, RandomStream(20))
    assert abs(dm.entries[0, 1] - 1.0) <= 0.05


def test_mc_rejects_invalid_density():
    bad = density_from_pieces("neg", [(0.0, 1.0, np.array([-0.5, 3.0]))], degree=1)
    with pytest.raises(ParameterError):
        mc_all_pairs(bad, 0.2, 0.2, RandomStream(21))


# ----------------------------------------------------------------- run_scheme
def test_run_scheme_exact_passthrough():
    fam = _uniform_pair()
    direct = exact_all_pairs(fam)
    dm = run_scheme(fam, 0.2, 0.1, "exact", seed=0)
    np.testing.assert_array_equal(dm.entries, direct.entries)


def test_run_scheme_auto_modes_and_determinism():
    fam = _linear_pair()
    dm1 = run_scheme(fam, 0.5, 0.2, "sketch", seed=22)
    assert dm1.config["mode"] == "exact_ci1"
    dm2 = run_scheme(fam, 0.5, 0.2, "sketch", seed=22)
    np.testing.assert_array_equal(dm1.entries, dm2.entries)
    dm8 = run_scheme(fam, 0.5, 0.2, "sketch", seed=22, threads=8)
    np.testing.assert_array_equal(dm1.entries, dm8.entries)


def test_run_scheme_epsilon_domain():
    with pytest.raises(ParameterError):
        run_scheme(_uniform_pair(), 0.7, 0.1, "sketch", seed=0)
    with pytest.raises(ParameterError):
        run_scheme(_uniform_pair(), 0.2, 0.1, "newton", seed=0)


def test_run_scheme_splits_epsilon_for_approx_modes():
    fam = _quadratic_pair()
    dm = run_scheme(fam, 0.4, 0.2, "sketch", seed=23)
    assert dm.config["epsilon_integration"] == 0.2
    assert dm.config["epsilon"] == 0.2  # estimator share
    assert dm.config["r"] >= 1
    up = dm.config["relative_error_upper"]
    assert up == pytest.approx((1.2 * 1.2) - 1.0)


@pytest.mark.parametrize("family", [_uniform_pair, _linear_pair, _quadratic_pair])
def test_sketch_family_rebuilds_from_a_run_config(family):
    # the call a traced benchmark run makes to time one replicate's set-up:
    # mode, seed and r-step settings read back from run_scheme's config
    fam = family()
    config = run_scheme(fam, 0.5, 0.5, "sketch", seed=26).config
    approx = None
    if "epsilon_integration" in config:
        approx = ApproxConfig(fam.degree, config["epsilon_integration"], r=config["r"])
    sk = sketch_family(fam, 1, config["mode"], RandomStream(config["seed"]), approx_config=approx)
    assert sk.values.shape == (fam.m, 1)
    assert sk.mode.value == config["mode"]


def test_sketch_cost_scales_linearly_in_t():
    fam = random_piecewise_linear_family(4, 4, RandomStream(24))

    def run(t):
        start = time.perf_counter()
        sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(25))
        return time.perf_counter() - start

    run(2000)  # warm caches
    # each round times both sizes, so a change of host speed during the test
    # reaches both best-of-5 figures alike
    rounds = [(run(4000), run(8000)) for _ in range(5)]
    t1 = min(a for a, _ in rounds)
    t2 = min(b for _, b in rounds)
    assert 1.5 <= t2 / t1 <= 2.5


def test_quadratic_family_end_to_end():
    # degree-2 path: discretized vectors, split error budget, exact oracle
    gen = np.random.default_rng(33)
    from l1sketch import Breakpoints

    pts = np.array([0.0, 0.4, 1.0])
    densities = []
    for j in range(3):
        segs = [PolySegment(i, i + 1, gen.uniform(-1, 1, 3)) for i in range(2)]
        densities.append(PiecewisePolyDensity(f"q{j}", segs, 2))
    fam = DensityFamily(Breakpoints(pts), densities, 2)
    oracle = exact_all_pairs(fam).entries
    dm = run_scheme(fam, 0.2, 0.1, "sketch", seed=34)
    assert dm.config["mode"] == "cid_approx"
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    rel = np.abs(dm.entries[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() <= dm.config["relative_error_upper"]


def test_cubic_family_sketch_vs_exact():
    gen = np.random.default_rng(35)
    from l1sketch import Breakpoints

    pts = np.array([-1.0, 0.0, 0.5, 1.0])
    densities = []
    for j in range(3):
        segs = [PolySegment(i, i + 1, gen.uniform(-1, 1, 4)) for i in range(3)]
        densities.append(PiecewisePolyDensity(f"c{j}", segs, 3))
    fam = DensityFamily(Breakpoints(pts), densities, 3)
    oracle = exact_all_pairs(fam).entries
    dm = run_scheme(fam, 0.3, 0.1, "sketch", seed=36)
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    rel = np.abs(dm.entries[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() <= dm.config["relative_error_upper"]


def test_signed_functions_are_sketchable():
    # the projection math needs integrability only; signed inputs are allowed
    from l1sketch import Breakpoints, density_from_pieces

    wave = density_from_pieces(
        "wave", [(0.0, 0.5, np.array([1.0, -4.0])), (0.5, 1.0, np.array([-3.0, 4.0]))], 1
    )
    flat = density_from_pieces("flat", [(0.0, 1.0, np.array([0.5, 0.0]))], 1)
    fam = merge_breakpoints([wave, flat])
    exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    sk = sketch_family(fam, 40_000, SketchMode.EXACT_CI1, RandomStream(37))
    est = estimate_all_pairs(sk, 0.11, 0.1).entries[0, 1]
    assert abs(est - exact) / exact < 0.11


def test_negative_domain_family():
    fam = merge_breakpoints(
        [uniform_density("lo", -3.0, -2.0), uniform_density("hi", -1.5, -0.5)]
    )
    assert exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints) == 2.0
    sk = sketch_family(fam, 20_000, SketchMode.UNIFORM_FASTPATH, RandomStream(38))
    est = estimate_all_pairs(sk, 0.2, 0.1).entries[0, 1]
    assert 1.6 <= est <= 2.4


def test_negative_domain_linear_rescale():
    from l1sketch import density_from_pieces

    a = density_from_pieces("a", [(-2.0, -1.0, np.array([-2.0, -2.0]))], 1)  # f(x) = -2-2x
    b = density_from_pieces("b", [(-1.0, 0.0, np.array([2.0, 2.0]))], 1)
    fam = merge_breakpoints([a, b])
    assert validate_family(fam, strict=True) == []
    exact = exact_l1_distance(fam.densities[0], fam.densities[1], fam.breakpoints)
    assert abs(exact - 2.0) < 1e-14
    sk = sketch_family(fam, 20_000, SketchMode.EXACT_CI1, RandomStream(39))
    est = estimate_all_pairs(sk, 0.2, 0.1).entries[0, 1]
    assert 1.6 <= est <= 2.4
