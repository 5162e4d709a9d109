"""The exact pair sampler: density formulas, envelope, rejection, rescaling.

The closed-form density is cross-checked against an independent
characteristic-function oracle (see conftest) and against the generic branch
written in complex arithmetic.  The complex arctangent is checked against
``cmath`` and against the classical addition identities it must satisfy on
the principal branch.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cf_pair_density, ks_against_cauchy
import l1sketch.ci1 as ci1_mod
import l1sketch.pipeline as pipeline_mod
from l1sketch import (
    Breakpoints,
    CIdSample,
    DensityFamily,
    EnvelopeDominationError,
    ParameterError,
    PiecewisePolyDensity,
    PolySegment,
    RandomStream,
    SketchMode,
    ci1_density,
    complex_atan,
    rescale_cid,
    sample_ci1_unit,
    sample_student_envelope,
    sketch_family,
    student_envelope_density,
)
from l1sketch.ci1 import (
    DOMINATION_C,
    REJECTION_OVERHEAD,
    SQUEEZE_G_MIN,
    SQUEEZE_K,
    _accept_mask,
    _density_diagonal,
    _density_generic,
    diagonal_tolerance,
)

PI = np.pi

#: Fixed example sequence, like the fixed seeds of the rest of the suite.
DETERMINISTIC = settings(deadline=None, derandomize=True)


# ---------------------------------------------------------------- complex atan
def test_complex_atan_matches_cmath():
    gen = np.random.default_rng(1)
    for _ in range(200):
        z = complex(gen.uniform(-4, 4), gen.uniform(-4, 4))
        if abs(z.real) < 1e-3 and abs(z.imag) > 1:
            continue  # stay off the branch cuts
        assert complex(complex_atan(z)) == pytest.approx(cmath.atan(z), rel=1e-12)


@settings(DETERMINISTIC, max_examples=500)
@given(log_radius=st.floats(-3.0, 150.0), angle=st.floats(-PI, PI))
def test_complex_atan_matches_cmath_over_magnitudes(log_radius, angle):
    z = 10.0**log_radius * complex(np.cos(angle), np.sin(angle))
    if abs(z.real) <= 1e-12 * abs(z) and abs(z.imag) >= 1.0:
        return  # on the branch cuts, where the side taken is a convention
    assert complex(complex_atan(z)) == pytest.approx(cmath.atan(z), rel=1e-12)


def test_atan_addition_rule_inside_unit_disk():
    # atan(x) + atan(y) = atan((x+y)/(1-xy)) whenever |x| < 1 and |y| < 1
    gen = np.random.default_rng(2)
    for _ in range(200):
        x = complex(gen.uniform(-0.7, 0.7), gen.uniform(-0.7, 0.7))
        y = complex(gen.uniform(-0.7, 0.7), gen.uniform(-0.7, 0.7))
        lhs = complex(complex_atan(x) + complex_atan(y))
        rhs = complex(complex_atan((x + y) / (1.0 - x * y)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_atan_conjugate_sum_outside_unit_disk():
    # a >= 0, a^2 + b^2 > 1: atan(a+bi) + atan(a-bi) = pi + atan(2a/(1-a^2-b^2))
    gen = np.random.default_rng(3)
    count = 0
    while count < 200:
        a = gen.uniform(0.0, 3.0)
        b = gen.uniform(-3.0, 3.0)
        if a * a + b * b <= 1.0 + 1e-9:
            continue
        count += 1
        lhs = complex(complex_atan(a + 1j * b) + complex_atan(a - 1j * b))
        rhs = PI + complex(complex_atan(2.0 * a / (1.0 - a * a - b * b)))
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_atan_conjugate_difference():
    # atan(a+bi) - atan(a-bi) = atan(2bi/(1+a^2+b^2)) for any a, b
    gen = np.random.default_rng(4)
    for _ in range(200):
        a = gen.uniform(-3.0, 3.0)
        b = gen.uniform(-3.0, 3.0)
        lhs = complex(complex_atan(a + 1j * b) - complex_atan(a - 1j * b))
        rhs = complex(complex_atan(2j * b / (1.0 + a * a + b * b)))
        assert lhs == pytest.approx(rhs, abs=1e-11)


# -------------------------------------------------------------------- density
def test_density_frozen_diagonal_values():
    assert ci1_density(0.0, 0.0) == pytest.approx(4.0 / PI**2 + 1.0 / PI, rel=1e-12)
    assert ci1_density(0.0, 0.0) == pytest.approx(0.723595, abs=1e-6)
    assert ci1_density(1.0, 0.5) == pytest.approx(
        1.0 / PI**2 + 1.0 / (2.0 * np.sqrt(2.0) * PI), rel=1e-12
    )
    assert ci1_density(1.0, 0.5) == pytest.approx(0.213861, abs=1e-6)


@pytest.mark.parametrize(
    "x0,x1",
    [(1.0, 0.25), (0.3, -0.7), (2.0, 1.3), (0.0, 10.0), (5.0, -1.0), (-0.8, 0.05)],
)
def test_density_matches_characteristic_function_oracle(x0, x1):
    assert ci1_density(x0, x1) == pytest.approx(cf_pair_density(x0, x1), abs=1e-6)


def _complex_density_generic(x0, x1):
    """The generic branch in complex arithmetic: principal square root, two
    principal logarithms and a complex division."""
    delta = x0 - 2.0 * x1
    s0 = 1.0 + x0 * x0
    q = s0 - 2j * delta
    root_q = np.sqrt(q)
    w = 1j * root_q / delta
    atan_w = 0.5j * (np.log(1.0 - 1j * w) - np.log(1.0 + 1j * w))
    flat = 4.0 / PI**2 / (s0 * s0 + 4.0 * delta * delta)
    return flat + 2.0 / PI**2 * np.real(atan_w / (q * root_q))


def test_density_matches_complex_reference_on_proposals():
    z = sample_student_envelope(RandomStream(16), size=1_000_000)
    on_diag = np.abs(z.x0 - 2.0 * z.x1) <= diagonal_tolerance(z.x0)
    off = ~on_diag
    x0, x1 = z.x0[off], z.x1[off]
    ref = _complex_density_generic(x0, x1)
    got = _density_generic(x0, x1)
    near = np.hypot(x0, x1) <= 100.0
    assert near.sum() > 900_000
    np.testing.assert_allclose(got[near], ref[near], rtol=1e-10)
    np.testing.assert_allclose(got, ref, rtol=1e-6)
    # the squeezed test on the real form decides as the plain test on the
    # complex form
    f_ref = np.empty(z.x0.size)
    f_ref[off] = ref
    f_ref[on_diag] = _density_diagonal(z.x0[on_diag])
    u = RandomStream(15).generator.random(z.x0.size)
    plain = u * REJECTION_OVERHEAD * student_envelope_density(z.x0, z.x1) <= f_ref
    np.testing.assert_array_equal(_accept_mask(z.x0, z.x1, u), plain)


def test_density_point_symmetry():
    gen = np.random.default_rng(5)
    pts = gen.uniform(-20, 20, (200, 2))
    np.testing.assert_allclose(
        ci1_density(pts[:, 0], pts[:, 1]),
        ci1_density(-pts[:, 0], -pts[:, 1]),
        rtol=1e-12,
    )


def test_density_nonnegative_on_wide_grid():
    gen = np.random.default_rng(6)
    pts = np.exp(gen.uniform(np.log(1e-3), np.log(1e4), (20_000, 2)))
    pts *= np.sign(gen.standard_normal((20_000, 2)))
    assert np.all(ci1_density(pts[:, 0], pts[:, 1]) >= 0.0)


def test_branch_continuity_probes():
    for x0 in (-2.0, 0.0, 1.0, 5.0):
        diag = ci1_density(x0, x0 / 2.0)
        for off in (1e-6, -1e-6):
            assert abs(ci1_density(x0, x0 / 2.0 + off) - diag) <= 1e-4


def test_density_selects_branch():
    # on and inside the diagonal band the diagonal closed form is used,
    # elsewhere the generic one, bit for bit
    diag = _density_diagonal(1.0)
    assert diag > 0.0
    assert ci1_density(1.0, 0.5) == diag
    assert ci1_density(1.0, 0.5 + 0.25 * diagonal_tolerance(1.0)) == diag
    assert ci1_density(1.0, 0.0) == _density_generic(1.0, 0.0)


# ------------------------------------------------------------------- envelope
def test_envelope_frozen_values():
    assert student_envelope_density(0.0, 0.0) == pytest.approx(1.0 / PI, rel=1e-14)
    assert student_envelope_density(1.0, 0.5) == pytest.approx(
        (1.0 / PI) * 2.0 ** (-1.5), rel=1e-14
    )


def test_envelope_integrates_to_one():
    from scipy.integrate import quad

    # inner integral over x1 in closed form, outer by quadrature
    def inner_mass(x0):
        a2 = 1.0 + x0 * x0
        vhi, vlo = 2.0 * 4000.0 - x0, -2.0 * 4000.0 - x0
        anti = lambda v: v / (a2 * np.sqrt(a2 + v * v))
        return (anti(vhi) - anti(vlo)) / (2.0 * PI)

    val, _ = quad(inner_mass, -4000.0, 4000.0, limit=400)
    assert val == pytest.approx(1.0, abs=1e-3)


def test_envelope_sampler_marginals():
    z = sample_student_envelope(RandomStream(7), size=100_000)
    assert abs(np.median(np.abs(z.x0)) - 1.0) < 0.03
    assert abs(np.median(np.abs(2.0 * z.x1 - z.x0)) - 1.0) < 0.03


def test_envelope_sampler_deterministic():
    a = sample_student_envelope(RandomStream(8, 3), size=100)
    b = sample_student_envelope(RandomStream(8, 3), size=100)
    np.testing.assert_array_equal(a.x0, b.x0)
    np.testing.assert_array_equal(a.x1, b.x1)


# ---------------------------------------------------------- rejection sampler
def test_sampler_marginals_ks():
    z = sample_ci1_unit(RandomStream(9), size=20_000)
    assert ks_against_cauchy(z.x0, 1.0) < 0.02
    assert ks_against_cauchy(z.x1, 0.5) < 0.02


def test_sampler_scalar_and_empty():
    one = sample_ci1_unit(RandomStream(10))
    assert isinstance(one.x0, float) and isinstance(one.x1, float)
    empty = sample_ci1_unit(RandomStream(10), size=0)
    assert empty.x0.size == 0 and empty.x1.size == 0


def test_rejection_loop_raises_instead_of_looping(monkeypatch):
    def reject_all(x0, x1, u01):
        return np.zeros(np.shape(u01), dtype=bool)

    # the module's own loop and the sketch's grouped first test
    monkeypatch.setattr(ci1_mod, "_accept_mask", reject_all)
    monkeypatch.setattr(pipeline_mod, "_accept_mask", reject_all)
    with pytest.raises(EnvelopeDominationError):
        sample_ci1_unit(RandomStream(14), size=3)
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 0.5, 1.0])),
        [
            PiecewisePolyDensity("flat", [PolySegment(0, 2, np.array([1.0, 0.0]))], 1),
            PiecewisePolyDensity("ramp", [PolySegment(0, 2, np.array([0.0, 2.0]))], 1),
        ],
        1,
    )
    with pytest.raises(EnvelopeDominationError):
        sketch_family(fam, 5, SketchMode.EXACT_CI1, RandomStream(16))


def test_linear_functional_law():
    z = sample_ci1_unit(RandomStream(11), size=100_000)
    cases = {(1.0, -2.0): 0.5, (3.0, 0.0): 3.0, (1.0, 1.0): 1.5}
    for (c0, c1), scale in cases.items():
        assert ks_against_cauchy(c0 * z.x0 + c1 * z.x1, scale) < 0.01


def test_domination_on_moderate_grid():
    gen = np.random.default_rng(12)
    r = np.exp(gen.uniform(np.log(1e-3), np.log(1e3), 50_000))
    th = gen.uniform(0.0, 2.0 * PI, 50_000)
    x0, x1 = r * np.cos(th), r * np.sin(th)
    f = ci1_density(x0, x1)
    g = student_envelope_density(x0, x1)
    assert np.all(f <= (DOMINATION_C / PI) * g)


def test_envelope_bound_observed_supremum():
    # The density/envelope ratio approaches 2*sqrt(2) ~ 2.828 only in a joint
    # limit: direction tending to (1, 1) while the radius grows.  A uniform
    # grid capped at radius 1e4 tops out near 2.78, so the observation grid
    # adds fine angular offsets around that direction and larger radii.
    deltas = np.concatenate([[0.0], np.logspace(-7, -1, 120), -np.logspace(-7, -1, 120)])
    angles = np.concatenate([np.linspace(0.0, 2.0 * PI, 360, endpoint=False), PI / 4 + deltas])
    radii = np.logspace(-3, 7, 250)
    a, r = np.meshgrid(angles, radii, indexing="ij")
    x0 = (r * np.cos(a)).ravel()
    x1 = (r * np.sin(a)).ravel()
    ratio = ci1_density(x0, x1) / student_envelope_density(x0, x1)
    top = float(ratio.max())
    assert 2.8 <= top <= DOMINATION_C / PI


# -------------------------------------------------------------- upper squeeze
DIAGONAL = np.arctan2(1.0, 2.0)  # direction of the line x0 = 2 x1


def _polar(radii, angles):
    a, r = np.meshgrid(angles, radii, indexing="ij")
    return (r * np.cos(a)).ravel(), (r * np.sin(a)).ravel()


def _plain_accept(x0, x1, u01):
    """The rejection test without the squeeze."""
    with np.errstate(all="ignore"):
        return u01 * REJECTION_OVERHEAD * student_envelope_density(x0, x1) <= ci1_density(x0, x1)


def test_density_range_claimed_out_to_radius_1e6():
    # the range ci1_density's docstring claims: nonnegative and below the
    # squeeze bound out to radius 1e6, including directions close to both
    # axes (where the generic formula cancels farther out) and to the
    # diagonal, with no floating-point error on the way
    offsets = np.concatenate([[0.0], np.logspace(-12, -1, 45), -np.logspace(-12, -1, 45)])
    centres = (0.0, PI / 2, PI, 3 * PI / 2, DIAGONAL, DIAGONAL + PI)
    angles = np.concatenate(
        [np.linspace(0.0, 2.0 * PI, 720, endpoint=False)] + [c + offsets for c in centres]
    )
    x0, x1 = _polar(np.logspace(-6, 6, 400), angles)
    with np.errstate(all="raise"):
        f = ci1_density(x0, x1)
        ratio = f / student_envelope_density(x0, x1)
    assert f.min() >= 0.0
    assert ratio.max() < SQUEEZE_K


def test_squeeze_bound_holds_wherever_it_applies():
    # every direction, plus directions within 1e-9 of the diagonal and of the
    # x1 axis (where the generic formula cancels at large radius), out to
    # radius 1e150, and 1e6 envelope proposals
    offsets = np.concatenate([[0.0], np.logspace(-17, -9, 40), -np.logspace(-17, -9, 40)])
    centres = (DIAGONAL, DIAGONAL + PI, PI / 2, 3 * PI / 2, PI / 4, 5 * PI / 4)
    angles = np.concatenate(
        [np.linspace(0.0, 2.0 * PI, 720, endpoint=False)] + [c + offsets for c in centres]
    )
    grid = _polar(np.logspace(-6, 150, 300), angles)
    z = sample_student_envelope(RandomStream(14), size=1_000_000)
    for x0, x1 in (grid, (z.x0, z.x1)):
        with np.errstate(all="ignore"):
            g = student_envelope_density(x0, x1)
        inside = g >= SQUEEZE_G_MIN
        assert inside.any()
        for part in np.array_split(np.flatnonzero(inside), 5):
            ratio = ci1_density(x0[part], x1[part]) / g[part]
            assert ratio.max() < SQUEEZE_K


def test_squeeze_off_where_density_cancels():
    # near the x1 axis the computed density passes SQUEEZE_K times the
    # envelope from about |x1| = 2e11, which is why the squeeze stops at
    # SQUEEZE_G_MIN
    x1 = np.array([1e13, -1e13])
    assert np.all(ci1_density(np.zeros(2), x1) > SQUEEZE_K * student_envelope_density(0.0, x1))
    assert np.all(student_envelope_density(0.0, x1) < SQUEEZE_G_MIN)


def test_accept_mask_equals_plain_test_on_proposals():
    gen = RandomStream(15).generator
    z = sample_student_envelope(RandomStream(16), size=1_000_000)
    u = gen.random(z.x0.size)
    np.testing.assert_array_equal(_accept_mask(z.x0, z.x1, u), _plain_accept(z.x0, z.x1, u))


def test_accept_mask_equals_plain_test_on_adversarial_points():
    cut = SQUEEZE_K / REJECTION_OVERHEAD
    ulps = [cut]
    for _ in range(4):
        ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], 1.0)]
    u = np.array([0.0, 5e-324, *ulps, 0.5, np.nextafter(1.0, 0.0)])
    band = np.array([-1e3, -1.0, 0.0, 1.0, 1e3])
    diagonal_band = [
        (band, band / 2.0 + k * diagonal_tolerance(band)) for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    ]
    near_top = _polar(np.logspace(3, 8, 30), PI / 4 + np.array([0.0, 1e-7, -1e-7, 1e-4]))
    huge = _polar(np.logspace(7, 300, 60), np.linspace(0.0, 2.0 * PI, 13))
    axis = (np.zeros(8), np.array([1e8, 1e10, 3e11, 1e12, 1e15, -1e11, -1e13, 1e150]))
    x0, x1 = (np.concatenate(c) for c in zip(*diagonal_band, near_top, huge, axis))
    uu, xx0 = np.meshgrid(u, x0, indexing="ij")
    _, xx1 = np.meshgrid(u, x1, indexing="ij")
    uu, xx0, xx1 = uu.ravel(), xx0.ravel(), xx1.ravel()
    with np.errstate(all="ignore"):
        mine = _accept_mask(xx0, xx1, uu)
    np.testing.assert_array_equal(mine, _plain_accept(xx0, xx1, uu))
    assert mine.any() and not mine.all()


# -------------------------------------------------------------------- rescale
def _pairs(x0, x1):
    return CIdSample(np.column_stack([x0, x1]))


def test_rescale_identity():
    z = _pairs(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
    out = rescale_cid(z, 0.0, 1.0)
    np.testing.assert_array_equal(out.components, z.components)


def test_rescale_laws():
    z = sample_ci1_unit(RandomStream(13), size=100_000)
    wide = rescale_cid(_pairs(z.x0, z.x1), 0.0, 2.0).components
    assert abs(np.median(np.abs(wide[:, 1])) - 2.0) < 0.06  # integral of |x| on [0,2]
    shifted = rescale_cid(_pairs(z.x0, z.x1), 3.0, 4.0).components
    assert abs(np.median(np.abs(shifted[:, 0])) - 1.0) < 0.03  # unit-length interval
    assert ks_against_cauchy(shifted[:, 0], 1.0) < 0.01


def test_rescale_rejects_bad_interval():
    z = _pairs(0.0, 0.0)
    with pytest.raises(ParameterError):
        rescale_cid(z, 1.0, 1.0)
    with pytest.raises(ParameterError):
        rescale_cid(z, 2.0, 1.0)
