"""Discretized integral vectors: sampler laws, rescaling, scale arithmetic,
and calibration of the discretization constant."""

import numpy as np
import pytest

from conftest import in_new_thread, ks_against_cauchy
from l1sketch import (
    DEFAULT_C_MIDPOINT,
    ApproxConfig,
    DensityFamily,
    ParameterError,
    RandomStream,
    SketchMode,
    calibrate_c,
    PiecewisePolyDensity,
    random_polynomial,
    rescale_cid,
    riemann_abs_scale,
    sample_cid_approx_unit,
    sketch_family,
)
from l1sketch._poly import integrate_abs_poly
from l1sketch.cid import _node_powers, rescale_matrix, step_fill, unit_nodes
from l1sketch.densities import Breakpoints, unit_coefficients
from l1sketch.pipeline import _BLOCK
from l1sketch.randstream import fill_groups, scratch


def test_config_derives_r():
    cfg = ApproxConfig(d=3, epsilon_integration=0.05, c_constant=2.0)
    assert cfg.r == int(np.ceil(2.0 * 9 / 0.05))
    assert ApproxConfig(d=0, epsilon_integration=0.1).r == 1
    assert ApproxConfig(d=2, epsilon_integration=0.1, r=123).r == 123


def test_midpoint_config_derives_r():
    cfg = ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")
    assert cfg.c_constant == DEFAULT_C_MIDPOINT
    assert cfg.r == int(np.ceil(DEFAULT_C_MIDPOINT * 2 / np.sqrt(0.2))) == 11
    assert ApproxConfig(d=3, epsilon_integration=0.05, c_constant=2.0, nodes="midpoint").r == 27
    np.testing.assert_array_equal(unit_nodes(4, "midpoint"), [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_array_equal(unit_nodes(4, "right"), [0.25, 0.5, 0.75, 1.0])


def test_config_rejects_bad_values():
    with pytest.raises(ParameterError):
        ApproxConfig(d=40, epsilon_integration=0.1)
    with pytest.raises(ParameterError):
        ApproxConfig(d=2, epsilon_integration=0.0)
    with pytest.raises(ParameterError):
        ApproxConfig(d=2, epsilon_integration=0.1, c_constant=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="epsilon_integration must be finite"):
            ApproxConfig(d=2, epsilon_integration=bad)
        with pytest.raises(ParameterError, match="c_constant must be finite"):
            ApproxConfig(d=2, epsilon_integration=0.1, c_constant=bad)
    with pytest.raises(ParameterError):
        ApproxConfig(d=2, epsilon_integration=0.1, r=0)
    with pytest.raises(ParameterError):
        ApproxConfig(d=2, epsilon_integration=0.1, nodes="left")


def test_degree_zero_sum_is_standard_cauchy():
    # the first component is a sum of r Cauchy(0, 1/r) draws: exactly C(0,1)
    cfg = ApproxConfig(d=0, epsilon_integration=0.1, r=50)
    z = sample_cid_approx_unit(cfg, RandomStream(1), size=100_000)
    assert ks_against_cauchy(z[:, 0], 1.0) < 0.01


def test_component_shapes():
    cfg = ApproxConfig(d=3, epsilon_integration=0.1, r=10)
    batch = sample_cid_approx_unit(cfg, RandomStream(2), size=7)
    assert batch.shape == (7, 4)
    with pytest.raises(ParameterError, match="size must be >= 0"):
        sample_cid_approx_unit(cfg, RandomStream(2), size=-1)


def test_linear_marginal_scale():
    # second component at r=1000 is Cauchy with scale (1/1000) sum j/1000
    cfg = ApproxConfig(d=1, epsilon_integration=0.1, r=1000)
    z = sample_cid_approx_unit(cfg, RandomStream(3), size=30_000)
    med = np.median(np.abs(z[:, 1]))
    assert abs(med - 0.5005) < 0.015


def test_rescale_identity_and_linear_agreement():
    cfg = ApproxConfig(d=1, epsilon_integration=0.1, r=100)
    z = sample_cid_approx_unit(cfg, RandomStream(4), size=100)
    same = rescale_cid(z, 0.0, 1.0)
    np.testing.assert_allclose(same, z, rtol=1e-15)

    # degree 1: the closed form ((b-a) x0, (b-a) (a x0 + (b-a) x1))
    a, b = 0.7, 2.2
    t = rescale_matrix(1, a, b)
    np.testing.assert_allclose(t, [[b - a, 0.0], [(b - a) * a, (b - a) ** 2]], rtol=1e-15)
    x0, x1 = z[:, 0], z[:, 1]
    out = rescale_cid(z, a, b)
    np.testing.assert_allclose(out[:, 0], (b - a) * x0, rtol=1e-13)
    np.testing.assert_allclose(out[:, 1], (b - a) * (a * x0 + (b - a) * x1), rtol=1e-13)


def test_rescale_matrix_is_the_sketch_interval_map():
    # T.T @ p are the unit-interval coefficients of p on [a, b)
    gen = np.random.default_rng(6)
    a, b = 1e4 + 0.3, 1e4 + 1.9
    for d in range(5):
        p = gen.uniform(-1.0, 1.0, d + 1)
        dens = PiecewisePolyDensity("p", [0], [1], p[None, :], d)
        want = unit_coefficients([dens], Breakpoints(np.array([a, b])))[0, 0]
        t = rescale_matrix(d, a, b)
        bound = 1e-13 * (np.abs(t.T) @ np.abs(p))
        assert np.all(np.abs(t.T @ p - want) <= bound)


def test_rescale_quadratic_law():
    # on (0, 2) the quadratic component is 8 * Z_2; scale approaches 8/3
    t = rescale_matrix(2, 0.0, 2.0)
    np.testing.assert_allclose(t[2], [0.0, 0.0, 8.0], atol=1e-14)
    cfg = ApproxConfig(d=2, epsilon_integration=0.1, r=10_000)
    z = sample_cid_approx_unit(cfg, RandomStream(5), size=20_000)
    out = rescale_cid(z, 0.0, 2.0)
    expected = 8.0 * riemann_abs_scale([0.0, 0.0, 1.0], 10_000)
    assert abs(expected - 8.0 / 3.0) < 0.01 * (8.0 / 3.0)
    med = np.median(np.abs(out[:, 2]))
    assert abs(med - 8.0 / 3.0) < 0.03 * (8.0 / 3.0)


def test_rescale_rejects_bad_interval():
    with pytest.raises(ParameterError):
        rescale_cid(np.zeros(3), 1.0, 0.5)


def test_riemann_scale_frozen_values():
    assert riemann_abs_scale([1.0], 17) == 1.0
    assert riemann_abs_scale([0.0, 1.0], 100) == pytest.approx(0.505, abs=1e-15)
    assert abs(riemann_abs_scale([-1.0, 2.0], 10**6) - 0.5) < 1e-5
    with pytest.raises(ParameterError):
        riemann_abs_scale([1.0], 0)
    # the midpoint rule is exact on a linear p without a sign change
    assert riemann_abs_scale([0.0, 1.0], 100, nodes="midpoint") == 0.5
    with pytest.raises(ParameterError):
        riemann_abs_scale([1.0], 3, nodes="left")


def test_riemann_scale_of_a_table_equals_its_rows():
    table = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 4))
    for r, nodes in ((1, "right"), (17, "right"), (64, "midpoint")):
        rows = [riemann_abs_scale(row, r, nodes) for row in table]
        np.testing.assert_array_equal(riemann_abs_scale(table, r, nodes), rows)


@pytest.mark.parametrize("nodes", ["right", "midpoint"])
@pytest.mark.parametrize("d,r", [(1, 9), (3, 40)])
def test_sampler_equals_the_sketch_vector_of_each_replicate(d, r, nodes):
    # on [0, 1] the density x^k projects to entry k of the integral vector,
    # so the sketch's column rep is the replicate's r-step vector itself; the
    # block of replicates from b0 draws them in turn from stream (seed, b0)
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 1.0])),
        [PiecewisePolyDensity(f"x{k}", [0], [1], np.eye(d + 1)[k : k + 1], d) for k in range(d + 1)],
        d,
    )
    cfg = ApproxConfig(d=d, epsilon_integration=0.1, r=r, nodes=nodes)
    t = 2 * _BLOCK + 3
    sk = sketch_family(fam, t, SketchMode.CID_APPROX, RandomStream(61), approx_config=cfg)
    for b0 in range(0, t, _BLOCK):
        stream = RandomStream(61, b0)
        for rep in range(b0, min(b0 + _BLOCK, t)):
            z = sample_cid_approx_unit(cfg, stream, size=1)
            np.testing.assert_array_equal(z[0], sk.values[:, rep])


def test_fill_groups_lends_the_step_fill_one_workspace_that_every_group_reuses():
    # a block of 64 replicates on the degree-2 benchmark shape, 71 intervals
    # of r = 18 steps: groups of 37 and 27 replicates at _CALL_DRAWS,
    # each drawing its Cauchy steps into the one scratch buffer of a new
    # thread, with the bits of a fresh array for every group
    cfg = ApproxConfig(d=2, epsilon_integration=0.1, r=18, nodes="midpoint")
    per_rep = 71 * cfg.r
    fill, seen = step_fill(cfg), []

    def recording(gen, out):
        fill(gen, out)
        seen.append((len(out), scratch(0).base))

    z = np.empty((_BLOCK, 71, 3))
    in_new_thread(lambda: fill_groups(RandomStream(62).generator, recording, z, per_rep))
    assert [rows for rows, _ in seen] == [37, 27]
    buf = seen[0][1]
    assert all(b is buf for _, b in seen)
    assert buf.size == 37 * per_rep
    ref = np.empty_like(z)
    gen = RandomStream(62).generator
    weights = _node_powers(cfg.r, cfg.d, cfg.nodes) / cfg.r
    for g0, g in ((0, 37), (37, 27)):
        steps = np.tan(np.pi * gen.random((g, 71, cfg.r)))
        ref[g0 : g0 + g] = steps @ weights
    np.testing.assert_array_equal(z, ref)
    # the buffer holds the last group's steps
    np.testing.assert_array_equal(buf[: steps.size].reshape(steps.shape), steps)


@pytest.mark.parametrize("nodes", ["right", "midpoint"])
def test_riemann_scale_is_the_exact_law_of_linear_functionals(nodes):
    coeffs = np.array([0.3, -1.1, 0.7])
    r = 64
    cfg = ApproxConfig(d=2, epsilon_integration=0.1, r=r, nodes=nodes)
    z = sample_cid_approx_unit(cfg, RandomStream(6), size=100_000)
    w = z @ coeffs
    assert ks_against_cauchy(w, riemann_abs_scale(coeffs, r, nodes=nodes)) < 0.01


def test_random_polynomial_respects_mass_floor():
    rng = RandomStream(7)
    for d in (1, 3):
        for _ in range(20):
            coeffs = random_polynomial(d, rng)
            assert coeffs.size == d + 1
            assert integrate_abs_poly(coeffs, 0.0, 1.0) >= 1e-3


def test_calibrate_linear_heldout():
    result = calibrate_c(1, 0.01, 200, RandomStream(8))
    assert result.c > 0.0
    r = int(np.ceil(result.c / 0.01))
    held = RandomStream(8, 999)
    for _ in range(1000):
        coeffs = random_polynomial(1, held)
        exact = integrate_abs_poly(coeffs, 0.0, 1.0)
        assert abs(riemann_abs_scale(coeffs, r) - exact) <= 0.01 * exact


def test_calibrate_midpoint_constant_formula():
    result = calibrate_c(3, 0.05, 100, RandomStream(8), nodes="midpoint")
    assert result.nodes == "midpoint"
    assert result.c == 2.0 * max(r * np.sqrt(0.05) / d for d, r in result.per_degree_r.items())
    # midpoints need far fewer steps than right endpoints on the same trials
    right = calibrate_c(3, 0.05, 100, RandomStream(8))
    assert all(result.per_degree_r[d] < right.per_degree_r[d] for d in (1, 2, 3))
    with pytest.raises(ParameterError):
        calibrate_c(3, 0.05, 10, RandomStream(8), nodes="left")


@pytest.mark.parametrize(
    "nodes,per_degree",
    [("right", [21, 35, 48, 54, 66, 63, 71, 76]), ("midpoint", [5, 8, 9, 7, 8, 9, 8, 11])],
)
def test_calibrate_reproduces_the_default_constants_provenance(nodes, per_degree):
    # the runs DEFAULT_C and DEFAULT_C_MIDPOINT quote in l1sketch.cid
    result = calibrate_c(8, 0.05, 400, RandomStream(20260809), nodes=nodes)
    assert [result.per_degree_r[d] for d in range(1, 9)] == per_degree


def test_calibrate_sanity_bound_small_degrees():
    result = calibrate_c(5, 0.05, 150, RandomStream(9))
    assert np.isfinite(result.c) and result.c <= 64.0
    assert set(result.per_degree_r) == {1, 2, 3, 4, 5}


def test_calibrate_rejects_bad_args(monkeypatch):
    with pytest.raises(ParameterError):
        calibrate_c(0, 0.05, 10, RandomStream(10))
    with pytest.raises(ParameterError):
        calibrate_c(3, 0.05, 0, RandomStream(10))
    # no r passes eps <= 0 or NaN, so the search would double r up to
    # MAX_STEPS: it must not start
    import l1sketch.cid as cid_mod

    def no_trials(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cid_mod, "random_polynomial", no_trials)
    for bad in (0.0, -0.05, np.nan, np.inf):
        with pytest.raises(ParameterError, match="target_eps must be finite and positive"):
            calibrate_c(3, bad, 10, RandomStream(10))


def test_derivative_mass_ratio_within_doubled_calibration_bound():
    # observed sup of |p'|-mass over |p|-mass stays under 2 * c * d^2; for
    # linear polynomials the sup is exactly 4, so the un-doubled bound c*d^2
    # (c near 2) cannot hold and the safety factor is part of the contract
    result = calibrate_c(5, 0.05, 400, RandomStream(11))
    rng = RandomStream(12)
    for d in range(1, 6):
        worst = 0.0
        for _ in range(1000):
            coeffs = random_polynomial(d, rng)
            deriv = coeffs[1:] * np.arange(1, d + 1)
            ratio = integrate_abs_poly(deriv, 0.0, 1.0) / integrate_abs_poly(coeffs, 0.0, 1.0)
            worst = max(worst, ratio)
        print(f"degree {d}: max derivative/mass ratio {worst:.2f}, bound {2.0 * result.c * d * d:.2f}")
        assert worst <= 2.0 * result.c * d * d


def test_calibrate_deterministic():
    a = calibrate_c(3, 0.05, 80, RandomStream(13))
    b = calibrate_c(3, 0.05, 80, RandomStream(13))
    assert a.c == b.c and a.per_degree_r == b.per_degree_r


def test_calibrate_refuses_past_max_steps(monkeypatch):
    import l1sketch.cid as cid_mod

    # degree 1 needs r = 21 right-endpoint steps on these trials: the search
    # doubles to 16, then tries the cap itself, and refuses below 21
    want = calibrate_c(1, 0.05, 100, RandomStream(8)).per_degree_r
    assert want == {1: 21}
    for cap in (16, 20):
        monkeypatch.setattr(cid_mod, "MAX_STEPS", cap)
        with pytest.raises(ParameterError, match=f"degree 1 needs more than {cap} steps"):
            calibrate_c(1, 0.05, 100, RandomStream(8))
    monkeypatch.setattr(cid_mod, "MAX_STEPS", 21)
    assert calibrate_c(1, 0.05, 100, RandomStream(8)).per_degree_r == want
    # unpatched: 1e-13 is out of reach of 10**6 midpoint steps
    monkeypatch.setattr(cid_mod, "MAX_STEPS", 10**6)
    with pytest.raises(ParameterError, match="needs more than 1000000 steps"):
        calibrate_c(1, 1e-13, 400, RandomStream(0), nodes="midpoint")


@pytest.mark.parametrize("nodes", ["right", "midpoint"])
def test_calibrate_does_not_depend_on_the_chunk_size(monkeypatch, nodes):
    # rows reduce on their own, so one-row chunks decide as whole tables do
    import l1sketch.cid as cid_mod

    whole = calibrate_c(4, 0.05, 60, RandomStream(14), nodes=nodes)
    monkeypatch.setattr(cid_mod, "_CALIBRATION_CHUNK", 1)
    rows = calibrate_c(4, 0.05, 60, RandomStream(14), nodes=nodes)
    assert rows.per_degree_r == whole.per_degree_r and rows.c == whole.c
