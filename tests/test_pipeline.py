"""Sketch construction, estimation, the MC baseline, and scheme dispatch."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1sketch.ci1 as ci1_mod
import l1sketch.cid as cid_mod
import l1sketch.cli as cli_mod
import l1sketch.densities as densities_mod
import l1sketch.pipeline as pipeline_mod
import l1sketch.randstream as randstream_mod
from conftest import ks_against_cauchy, per_interval_oracle, random_segment_family
from l1sketch import (
    ApproxConfig,
    Breakpoints,
    DensityFamily,
    DistanceMatrix,
    ParameterError,
    PiecewisePolyDensity,
    RandomStream,
    SketchMode,
    density_from_pieces,
    estimate_all_pairs,
    exact_all_pairs,
    exact_l1_distance,
    geometric_mean_estimate,
    mc_all_pairs,
    merge_breakpoints,
    random_piecewise_linear_family,
    required_sample_count,
    run_scheme,
    sketch_family,
    uniform_density,
    validate_family,
)
from l1sketch._poly import integrate_abs_local, poly_eval
from l1sketch.ci1 import (
    SQUEEZE_K,
    _candidate_block,
    ci1_density,
    fill_pairs,
)
from l1sketch.cid import DEFAULT_C_MIDPOINT, _node_powers, riemann_abs_scale
from l1sketch.densities import interval_coefficients, sample_from_density, unit_coefficients
from l1sketch.errors import NonFiniteResultError
from l1sketch.io import load_family, save_family
from l1sketch.pipeline import _BLOCK, _PAIR_ROWS, SketchMatrix, _error_split, plan_run
from l1sketch.randstream import _CALL_DRAWS


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


def _cubic_pair():
    flat = density_from_pieces("one", [(0.0, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))], degree=3)
    cup = density_from_pieces("4x3", [(0.0, 1.0, np.array([0.0, 0.0, 0.0, 4.0]))], degree=3)
    return merge_breakpoints([flat, cup])


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
    src = fam.densities[0]
    dup = PiecewisePolyDensity("dup_of_0", src.b.copy(), src.c.copy(), src.coeffs.copy(), fam.degree)
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


class _NoDraws:
    seed = 0

    def substream(self, stream_id):
        raise AssertionError("drew past the replicate byte cap")


@pytest.mark.parametrize(
    "family,mode,uniforms",
    [
        (_uniform_pair, SketchMode.UNIFORM_FASTPATH, 2),  # one per interval
        (_linear_pair, SketchMode.EXACT_CI1, 9),  # three candidates of three
        (_quadratic_pair, SketchMode.CID_APPROX, 10),  # r = 10 steps
    ],
)
def test_replicate_byte_cap_refuses_before_any_draw(monkeypatch, family, mode, uniforms):
    assert pipeline_mod.MAX_REPLICATE_BYTES == 1 << 26
    cfg = ApproxConfig(d=2, epsilon_integration=0.1, r=10)
    cfg = cfg if mode is SketchMode.CID_APPROX else None
    monkeypatch.setattr(pipeline_mod, "MAX_REPLICATE_BYTES", 8 * uniforms - 1)
    with pytest.raises(ParameterError, match=f"one replicate draws {uniforms} uniforms"):
        sketch_family(family(), 3, mode, _NoDraws(), approx_config=cfg)
    monkeypatch.setattr(pipeline_mod, "MAX_REPLICATE_BYTES", 8 * uniforms)
    assert sketch_family(family(), 3, mode, RandomStream(7), approx_config=cfg).t == 3


def test_sketch_byte_cap_refuses_before_any_allocation(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated past the sketch byte cap")

    assert pipeline_mod.MAX_SKETCH_BYTES == 1 << 30
    # 2 densities by 5 replicates: an (2, 5) float64 matrix of 80 bytes
    monkeypatch.setattr(pipeline_mod, "MAX_SKETCH_BYTES", 79)
    monkeypatch.setattr(pipeline_mod, "unit_coefficients", refuse)
    with pytest.raises(ParameterError, match="m=2 densities by t=5 replicates takes 80 bytes"):
        sketch_family(_uniform_pair(), 5, SketchMode.UNIFORM_FASTPATH, _NoDraws())
    monkeypatch.setattr(pipeline_mod, "MAX_SKETCH_BYTES", 80)
    monkeypatch.setattr(pipeline_mod, "unit_coefficients", unit_coefficients)
    assert sketch_family(_uniform_pair(), 5, SketchMode.UNIFORM_FASTPATH, RandomStream(7)).t == 5
    # unpatched: epsilon = 0.001 gives t = 236,088,286, a 3.5 GiB matrix
    monkeypatch.setattr(pipeline_mod, "MAX_SKETCH_BYTES", 1 << 30)
    monkeypatch.setattr(pipeline_mod, "unit_coefficients", refuse)
    with pytest.raises(ParameterError, match="t=236088286 replicates takes 3777412576 bytes"):
        run_scheme(_uniform_pair(), 0.001, 0.1, "sketch", seed=1)


def test_mc_draw_cap_refuses_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew past the Monte Carlo draw cap")

    assert pipeline_mod.MAX_MC_DRAWS == 10**6
    # ceil(8 / 0.5**2 * ln(2 * 2**2 / 0.5)) = ceil(88.7) = 89 draws a density
    monkeypatch.setattr(pipeline_mod, "MAX_MC_DRAWS", 88)
    monkeypatch.setattr(pipeline_mod, "sample_from_density", refuse)
    with pytest.raises(ParameterError, match="need 88.72 draws per density, more than 88"):
        mc_all_pairs(_uniform_pair(), 0.5, 0.5, RandomStream(1))
    monkeypatch.setattr(pipeline_mod, "MAX_MC_DRAWS", 10**6)
    # 3.5e13 draws (510 TiB of uniforms), and a square that underflows
    for epsilon, count in ((1e-6, "3.506e+13"), (1e-200, "inf")):
        with pytest.raises(ParameterError, match=re.escape(f"need {count} draws per density")):
            run_scheme(_uniform_pair(), epsilon, 0.1, "mc", seed=1)
    monkeypatch.setattr(pipeline_mod, "MAX_MC_DRAWS", 89)
    monkeypatch.setattr(pipeline_mod, "sample_from_density", sample_from_density)
    dm = mc_all_pairs(_uniform_pair(), 0.5, 0.5, RandomStream(1))
    assert dm.config["samples_per_density"] == 89


def test_threads_above_cap_refused_before_any_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("started a pool past the thread cap")

    assert pipeline_mod.MAX_THREADS == 256
    monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", refuse)
    fam = _uniform_pair()
    sk = sketch_family(fam, required_sample_count(0.5, 0.5, 2), SketchMode.UNIFORM_FASTPATH,
                       RandomStream(1))
    message = "threads must be at most 256, got"
    for threads in (257, 100_000):
        for method in ("sketch", "exact", "mc"):
            with pytest.raises(ParameterError, match=message):
                run_scheme(fam, 0.5, 0.5, method, seed=1, threads=threads)
        with pytest.raises(ParameterError, match=message):
            sketch_family(fam, 5, SketchMode.UNIFORM_FASTPATH, _NoDraws(), threads=threads)
        with pytest.raises(ParameterError, match=message):
            estimate_all_pairs(sk, 0.5, 0.5, threads=threads)


def _pool_sizes(monkeypatch) -> list:
    """The ``max_workers`` of every pool the pipeline starts from now on."""
    sizes, real = [], pipeline_mod.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", recording)
    return sizes


def test_default_threads_are_every_cpu_but_one_at_degree_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sizes = _pool_sizes(monkeypatch)
    for family, pools in ((_uniform_pair, [2, 2]), (_linear_pair, []), (_quadratic_pair, [2, 2])):
        sizes.clear()
        run_scheme(family(), 0.5, 0.5, "sketch", seed=1)
        assert sizes == pools, family.__name__  # the sketch's and the estimator's
        for method in ("exact", "mc"):
            sizes.clear()
            run_scheme(family(), 0.5, 0.5, method, seed=1)
            assert sizes == []
    # an explicit count always wins
    for family, threads, pools in ((_uniform_pair, 1, []), (_linear_pair, 3, [3, 3])):
        sizes.clear()
        run_scheme(family(), 0.5, 0.5, "sketch", seed=1, threads=threads)
        assert sizes == pools


def test_default_threads_are_capped_and_fall_back_to_the_cpu_count(monkeypatch):
    # the resolved count only: no pool of that size is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(300)), raising=False)
    assert pipeline_mod._run_threads(None, "sketch", 0) == pipeline_mod.MAX_THREADS
    pipeline_mod._check_threads(pipeline_mod.MAX_THREADS)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pipeline_mod._run_threads(None, "sketch", 2) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pipeline_mod._run_threads(None, "sketch", 0) == 1


def test_sketch_holds_blas_at_one_thread_and_restores_its_count(monkeypatch):
    blas = pipeline_mod._find_blas()
    if not blas:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter here")
    get, put = blas
    fam = _quadratic_pair()
    plan, approx = plan_run(0.5, 0.5, fam.m, fam.degree)
    readings, actions, real = [], {}, pipeline_mod.fill_groups

    def reading(gen, fill, out, per_row):
        # the count in every fill, and after the action a thread's next fill runs
        readings.append(get())
        action = actions.pop(threading.get_ident(), None)
        if action is not None:
            action()
            readings.append(get())
        real(gen, fill, out, per_row)

    def sketch(threads=1):
        return sketch_family(fam, plan["t"], plan["mode"], RandomStream(1), threads=threads,
                             approx_config=approx)

    def then(action):
        actions[threading.get_ident()] = action

    def fail():
        raise RuntimeError("fill failed")

    monkeypatch.setattr(pipeline_mod, "fill_groups", reading)
    saved = get()
    try:
        put(2)
        for threads in (1, 2):
            sketch(threads)
            assert readings and set(readings) == {1}
            assert get() == 2
        then(fail)
        with pytest.raises(RuntimeError, match="fill failed"):
            sketch()
        assert get() == 2
        # a sketch nested in another's fill
        then(sketch)
        sketch()
        assert get() == 2
        # sketch A starts sketch B on another thread, and ends while B waits
        # in its fill; the count stays at 1 until B ends
        b_in, a_done, b = threading.Event(), threading.Event(), []

        def b_waits():
            b_in.set()
            assert a_done.wait(10)

        def run_b():
            then(b_waits)
            sketch()

        with ThreadPoolExecutor(max_workers=1) as pool:
            then(lambda: (b.append(pool.submit(run_b)), b_in.wait(10)))
            sketch()
            assert get() == 1
            a_done.set()
            b[0].result(timeout=10)
        assert set(readings) == {1}
        assert get() == 2
    finally:
        put(saved)


def test_holds_that_start_together_save_the_count_once(monkeypatch):
    # a getter that yields the GIL lets a second hold start between the first
    # one's check and its save, unless check, save and set are one locked step
    count = [2]

    def get():
        time.sleep(0.002)
        return count[0]

    monkeypatch.setattr(pipeline_mod, "_blas", (get, lambda n: count.__setitem__(0, n)))
    start, readings = threading.Barrier(4), []

    def hold():
        start.wait(10)
        with pipeline_mod._one_blas_thread():
            readings.append(count[0])
            time.sleep(0.01)

    with ThreadPoolExecutor(max_workers=4) as pool:
        for future in [pool.submit(hold) for _ in range(4)]:
            future.result(timeout=10)
    assert readings == [1] * 4
    assert count[0] == 2 and pipeline_mod._blas_holds == 0


def test_importing_the_cli_and_loading_a_family_look_up_no_blas(tmp_path):
    # setup_s times exactly this, so the lookup waits for the first sketch
    path = tmp_path / "family.json"
    save_family(_uniform_pair(), str(path))
    code = (
        "import sys, l1sketch.cli, l1sketch.pipeline as pipeline, l1sketch.io as io\n"
        "io.load_family(sys.argv[1])\n"
        "print(pipeline._blas is None)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
    assert run.stdout.strip() == "True", run.stderr


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


def test_estimate_threads_below_one_refused():
    t = required_sample_count(0.5, 0.5, 2)
    sk = sketch_family(_uniform_pair(), t, SketchMode.UNIFORM_FASTPATH, RandomStream(11))
    with pytest.raises(ParameterError, match="threads must be >= 1, got 0"):
        estimate_all_pairs(sk, 0.5, 0.5, threads=0)


def _per_pair_reference(values: np.ndarray) -> np.ndarray:
    """The estimator one pair at a time, as one geometric_mean_estimate call
    on each pair's differences."""
    m = values.shape[0]
    entries = np.zeros((m, m))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            for k in range(j + 1, m):
                entries[j, k] = entries[k, j] = geometric_mean_estimate(values[j] - values[k])
    return entries


@st.composite
def awkward_sketches(draw):
    """Cauchy sketch values of m in [2, 40] rows and t in [1, 300]
    replicates, at scales up to where differences overflow, with duplicate
    rows, columns tied across a subset of rows (exact zero differences),
    and +inf, -inf and NaN entries injected."""
    m, t = draw(st.integers(2, 40)), draw(st.integers(1, 300))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e307]))
    with np.errstate(over="ignore"):  # the projection also overflows to inf
        values = np.tan(np.pi * (gen.random((m, t)) - 0.5)) * scale
    for _ in range(draw(st.integers(0, 3))):
        values[gen.integers(m)] = values[gen.integers(m)]
    for _ in range(draw(st.integers(0, 3))):
        rows = gen.random(m) < 0.5
        values[rows, gen.integers(t)] = values[gen.integers(m), gen.integers(t)]
    for bad in draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), max_size=3)):
        values[gen.integers(m), gen.integers(t)] = bad
    return values


@settings(deadline=None, derandomize=True, max_examples=150)
@given(values=awkward_sketches())
def test_block_estimator_equals_per_pair_loop(values):
    m, t = values.shape
    ref = _per_pair_reference(values)
    sk = SketchMatrix(values, t, SketchMode.UNIFORM_FASTPATH, [f"f{j}" for j in range(m)], 0)
    # t in [1, 300] is below every (epsilon, delta) rule, so the rule is
    # lifted to check the arithmetic alone
    with mock.patch.object(pipeline_mod, "required_sample_count", return_value=1):
        for threads in (1, 2):
            np.testing.assert_array_equal(pipeline_mod._pair_estimates(values, threads), ref)
            if np.isfinite(ref).all():
                got = estimate_all_pairs(sk, 0.5, 0.5, threads=threads).entries
                np.testing.assert_array_equal(got, ref)
            else:
                with pytest.raises(NonFiniteResultError) as want:
                    DistanceMatrix(sk.names, ref, "sketch")
                with pytest.raises(NonFiniteResultError, match=str(want.value)):
                    estimate_all_pairs(sk, 0.5, 0.5, threads=threads)


def test_block_estimator_many_threads_short_switch_interval():
    # more workers than cores, switching threads as often as the interpreter
    # allows: a lost or misplaced entry write would break the equality
    gen = np.random.default_rng(5)
    values = np.tan(np.pi * (gen.random((3 * _PAIR_ROWS + 5, 64)) - 0.5))
    ref = _per_pair_reference(values)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            np.testing.assert_array_equal(pipeline_mod._pair_estimates(values, 8), ref)
    finally:
        sys.setswitchinterval(interval)



def _oracle_families():
    # merged degree-1 densities, more than a row of three tasks, and a signed
    # degree-3 family, whose kernel goes through the companion matrices
    m = 2 * _PAIR_ROWS + 4
    return [
        random_piecewise_linear_family(m, 8, RandomStream(5)),
        random_segment_family(np.random.default_rng(6), m, 3, n_intervals=12),
    ]


def test_block_oracle_equals_per_pair_loop():
    # the oracle on the estimator's pair loop: each entry is bit for bit the
    # one-pair exact_l1_distance
    for fam in _oracle_families():
        got = exact_all_pairs(fam).entries
        bp = fam.breakpoints
        for j, f in enumerate(fam.densities):
            for k, g in enumerate(fam.densities[j + 1 :], j + 1):
                assert got[j, k] == got[k, j] == exact_l1_distance(f, g, bp), (j, k)


def test_oracle_kernel_calls_hold_at_most_the_interval_budget(monkeypatch):
    # the upper triangle goes to the pair kernel in flat chunks, row by row:
    # each call integrates at most the budget of union intervals, or holds
    # one pair alone, the calls take every pair once, the entries keep their
    # bits, and no dense (m, L, d+1) tensor is built
    pair_kernel, integrate = densities_mod._pair_distances, densities_mod.integrate_abs_local
    calls = []

    def record_pairs(table, j, k):
        calls.append([j, k, 0])
        return pair_kernel(table, j, k)

    def record_rows(coeffs, width):
        calls[-1][2] += np.shape(coeffs)[0]
        return integrate(coeffs, width)

    def dense(*args):
        raise AssertionError("the oracle built the dense coefficient tensor")

    monkeypatch.setattr(densities_mod, "interval_coefficients", dense)
    for fam in _oracle_families():
        want = exact_all_pairs(fam).entries
        with monkeypatch.context() as patch:
            patch.setattr(densities_mod, "_pair_distances", record_pairs)
            patch.setattr(densities_mod, "integrate_abs_local", record_rows)
            patch.setattr(densities_mod, "_PAIR_INTERVALS", 300)
            calls.clear()
            got = exact_all_pairs(fam).entries
        np.testing.assert_array_equal(got, want)
        assert len(calls) > 3
        assert all(rows <= 300 or j.size == 1 for j, _, rows in calls)
        pairs = np.concatenate([j * fam.m + k for j, k, _ in calls])
        np.testing.assert_array_equal(pairs, np.flatnonzero(np.triu(np.ones((fam.m, fam.m)), 1)))


def test_merged_oracle_memory_stays_bounded():
    # 400 merged densities of 8 pieces on about 2,800 grid intervals: the
    # dense (m, L, 2) coefficient tensor alone would take 17.9 MB, and the
    # run tables peak at about 5 MB, most of it the (m, m) matrix and the
    # pair indices
    fam = random_piecewise_linear_family(400, 8, RandomStream(5))
    tracemalloc.start()
    try:
        exact_all_pairs(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@st.composite
def oracle_families(draw):
    """Families of degree 0-3 for the oracle's differential test, on grids
    shifted and scaled from integer widths: densities with gaps, pieces of
    up to four intervals written whole or one interval a row, pieces that
    repeat the coefficients of the piece they touch, and last a twin of the
    first density written one interval a row."""
    degree = draw(st.integers(0, 3))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    offset = draw(st.sampled_from([0.0, -3.25, 1000.0]))
    scale = draw(st.sampled_from([0.125, 1.0, 16.0]))
    grid = offset + scale * np.concatenate([[0], np.cumsum(widths)])
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = []
    for j in range(draw(st.integers(2, 4))):
        spans, rows, pos = [], [], draw(st.integers(0, 2))
        while pos < len(widths):
            end = min(pos + draw(st.integers(1, 4)), len(widths))
            row = rows[-1] if rows and draw(st.booleans()) else gen.uniform(-1.0, 1.0, degree + 1)
            piece = [(x, x + 1) for x in range(pos, end)] if draw(st.booleans()) else [(pos, end)]
            spans += piece
            rows += [row] * len(piece)
            pos = end + draw(st.integers(0, 2))
        b, c = [lo for lo, _ in spans], [hi for _, hi in spans]
        densities.append(PiecewisePolyDensity(f"f{j}", b, c, np.reshape(rows, (-1, degree + 1)), degree))
    first = densities[0]
    cells = np.concatenate([np.arange(b0, c0) for b0, c0 in zip(first.b, first.c)] + [np.empty(0, int)])
    rows = np.repeat(first.coeffs, first.c - first.b, axis=0)
    densities.append(PiecewisePolyDensity("twin", cells, cells + 1, rows, degree))
    return DensityFamily(Breakpoints(grid), densities, degree)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(fam=oracle_families())
def test_oracle_matches_the_per_interval_sum(fam):
    # union-grid run tables against the sum over every grid interval: within
    # 1e-12 relative, and identical densities at exactly 0.0
    got = exact_all_pairs(fam).entries
    np.testing.assert_allclose(got, per_interval_oracle(fam), rtol=1e-12, atol=0.0)
    assert got[0, -1] == 0.0


# ------------------------------------------------------------------- sketches
def test_sketch_deterministic_and_thread_invariant():
    fam = random_piecewise_linear_family(4, 3, RandomStream(12))
    a = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13))
    b = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13))
    np.testing.assert_array_equal(a.values, b.values)
    c = sketch_family(fam, 700, SketchMode.EXACT_CI1, RandomStream(13), threads=4)
    np.testing.assert_array_equal(a.values, c.values)
    # degree 0 with more rows than one estimator task holds: row 0 is
    # estimated by three tasks, which go to three different workers
    wide = random_segment_family(np.random.default_rng(12), 2 * _PAIR_ROWS + 3, 0)
    one = run_scheme(wide, 0.5, 0.5, "sketch", seed=13)
    four = run_scheme(wide, 0.5, 0.5, "sketch", seed=13, threads=4)
    assert one.config["mode"] == "uniform_fastpath"
    np.testing.assert_array_equal(one.entries, four.entries)


def _first_candidates(need):
    mean = need * 3.0
    return max(math.ceil(mean + 4.0 * math.sqrt(mean)), 64)


def _reference_sketch(family, t, mode, seed, approx_config=None, first=_first_candidates):
    """The sketch built block by block: the block of replicates ``b0 ..
    b0 + 63`` reads only a fresh stream ``(seed, b0)``, in groups of
    ``_CALL_DRAWS // u`` replicates for ``u`` uniforms a replicate.  A
    group of g replicates draws ``(g, n_int)`` uniforms (degree 0),
    ``(g, n_int, r)`` uniforms (r-step), or its ``g * n_int`` degree-1 pairs
    (9 uniforms a pair) from candidate blocks of k: one ``(3, k)`` uniform
    draw, rows ``U0, U1, W``, giving ``x0 = tan(pi U0)``, ``v = sqrt((1 +
    x0^2) / (U1 (1 - U1))) (U1 - 1/2)`` and ``x1 = (x0 + v)/2``, accepted
    when ``W * 3/pi <= f * t^(3/2)`` for ``t = 1 + x0^2 + v^2``; the
    accepts fill the group's (replicate, interval) slots in row-major
    order.  The first k is ``first(g * n_int)``, by default ``mean + 4
    sqrt(mean)`` for the expected count ``mean = 3 g n_int``, at least 64,
    and each top-up is 1.4 times the expected count still missing, at
    least 64.  Then comes the projection with the unit-local coefficients.
    Returns the values and the number of groups whose first candidate
    block fell short."""
    n_int, d = len(family.breakpoints) - 1, family.degree
    coeffs = unit_coefficients(family.densities, family.breakpoints).reshape(family.m, -1)
    per_rep = n_int
    if mode is SketchMode.EXACT_CI1:
        per_rep = n_int * 9
    elif mode is SketchMode.CID_APPROX:
        r = approx_config.r
        node_pow = _node_powers(r, d, approx_config.nodes)
        per_rep = n_int * r
    group = max(int(_CALL_DRAWS // per_rep), 1)

    def accepted(gen, k):
        u0, p, w = gen.random((3, k))
        assert np.all(p != 0.0)  # the sampler redraws such a uniform
        x0 = np.tan(np.pi * u0)
        spread = (1.0 + x0 * x0) / (p * (1.0 - p))
        x1 = 0.5 * (x0 + np.sqrt(spread) * (p - 0.5))
        t = 0.25 * spread
        keep = w * (3.0 / np.pi) <= ci1_density(x0, x1) * (t * np.sqrt(t))
        return x0[keep], x1[keep]

    shortfalls = 0
    x = np.empty((family.m, t))
    for b0 in range(0, t, _BLOCK):
        b1 = min(b0 + _BLOCK, t)
        z = np.empty((b1 - b0, n_int, d + 1))
        gen = RandomStream(seed, b0).generator
        for g0 in range(0, b1 - b0, group):
            g = min(group, b1 - b0 - g0)
            if mode is SketchMode.UNIFORM_FASTPATH:
                z[g0 : g0 + g, :, 0] = np.tan(np.pi * gen.random((g, n_int)))
            elif mode is SketchMode.EXACT_CI1:
                need = g * n_int
                parts = [accepted(gen, first(need))]
                got = parts[0][0].size
                shortfalls += got < need
                while got < need:
                    parts.append(accepted(gen, max(int((need - got) * 3.0 * 1.4), 64)))
                    got += parts[-1][0].size
                for k, p in enumerate(zip(*parts)):
                    z[g0 : g0 + g, :, k] = np.concatenate(p)[:need].reshape(g, n_int)
            else:
                steps = np.tan(np.pi * gen.random((g, n_int, r)))
                z[g0 : g0 + g] = steps @ (node_pow / r)
        x[:, b0:b1] = (z.reshape(b1 - b0, -1) @ coeffs.T).T
    return x, shortfalls


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "mode,family,config",
    [
        (SketchMode.UNIFORM_FASTPATH, "uniform", None),
        (SketchMode.EXACT_CI1, "linear-few", None),
        (SketchMode.EXACT_CI1, "linear", None),
        # 123 intervals: groups of 43 replicates, so every block of 64 holds
        # two groups
        (SketchMode.EXACT_CI1, "linear-wide", None),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2)),
        # 2 intervals of r draws: groups of 5 replicates, so every block of
        # 64 ends in a partial group
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, r=_CALL_DRAWS // 10)),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")),
        (SketchMode.CID_APPROX, "quadratic", ApproxConfig(d=2, epsilon_integration=0.2, r=_CALL_DRAWS // 10, nodes="midpoint")),
    ],
)
def test_sketch_bit_identical_to_reference(mode, family, config, threads):
    families = {
        "uniform": _uniform_pair,
        # 3 intervals: a whole block of 64 replicates in one call
        "linear-few": lambda: random_piecewise_linear_family(2, 2, RandomStream(40)),
        "linear": lambda: random_piecewise_linear_family(4, 3, RandomStream(41)),
        "linear-wide": lambda: random_piecewise_linear_family(2, 62, RandomStream(45)),
        "quadratic": lambda: DensityFamily(
            Breakpoints(np.array([0.0, 0.4, 1.0])),
            [
                PiecewisePolyDensity(f"q{j}", [0, 1], [1, 2], [[1.0, j - 1.0, 0.5 * j]] * 2, 2)
                for j in range(3)
            ],
            2,
        ),
    }
    fam = families[family]()
    t = 3 * _BLOCK + 17
    ref, _ = _reference_sketch(fam, t, mode, 42, config)
    sk = sketch_family(fam, t, mode, RandomStream(42), threads=threads, approx_config=config)
    np.testing.assert_array_equal(sk.values, ref)
    if family == "linear-wide":
        group = int(_CALL_DRAWS // ((len(fam.breakpoints) - 1) * 9))
        assert 1 < group < _BLOCK and _BLOCK % group != 0
    if mode is SketchMode.CID_APPROX and config.r > 100:
        group = _CALL_DRAWS // ((len(fam.breakpoints) - 1) * config.r)
        assert 1 < group < _BLOCK and _BLOCK % group != 0


def _groups(monkeypatch, run):
    """``(per_row, rows)`` of every :func:`fill_groups` call that ``run()``
    makes, ``rows`` the length of each of its fills' parts."""
    calls, real = [], randstream_mod.fill_groups

    def recording(gen, fill, out, per_row):
        rows = []
        calls.append((per_row, rows))

        def fill_and_record(gen, part):
            rows.append(len(part))
            fill(gen, part)

        real(gen, fill_and_record, out, per_row)

    with monkeypatch.context() as patch:
        for mod in (pipeline_mod, ci1_mod, cid_mod):
            patch.setattr(mod, "fill_groups", recording)
        run()
    return calls


def test_one_budget_sizes_the_groups_of_every_sampler(monkeypatch, tmp_path):
    # randstream._CALL_DRAWS, read at call time, sizes the groups of all
    # three sketch modes and of sample ci1 and sample cid: each draws one
    # group a block or a call at the default, and groups of three rows
    # (a block's or a call's last one shorter) at three rows' uniforms
    config = ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")
    out = str(tmp_path / "s.csv")
    runs = {
        "uniform_fastpath": lambda: sketch_family(
            _uniform_pair(), 100, SketchMode.UNIFORM_FASTPATH, RandomStream(7)),
        "exact_ci1": lambda: sketch_family(_linear_pair(), 100, SketchMode.EXACT_CI1, RandomStream(7)),
        "cid_approx": lambda: sketch_family(
            _quadratic_pair(), 100, SketchMode.CID_APPROX, RandomStream(7), approx_config=config),
        "sample ci1": lambda: cli_mod.main(["sample", "ci1", "--count", "50", "--out", out]),
        "sample cid": lambda: cli_mod.main(["sample", "cid", "--d", "2", "--count", "50", "--out", out]),
    }
    for name, run in runs.items():
        default = _groups(monkeypatch, run)
        assert [rows for _, rows in default] in ([[64], [36]], [[50]]), name
        per_row = default[0][0]
        with monkeypatch.context() as patch:
            patch.setattr(randstream_mod, "_CALL_DRAWS", 3 * per_row)
            patched = _groups(monkeypatch, run)
        assert [per for per, _ in patched] == [per_row] * len(default), name
        for (_, rows), (_, whole) in zip(patched, default):
            assert rows == [min(3, whole[0] - g0) for g0 in range(0, whole[0], 3)], name


def test_sketch_tops_up_groups_whose_first_block_falls_short(monkeypatch):
    # a first block of 90% of the expected candidates falls short in almost
    # every group, so the top-up path runs inside the sketch's draw order
    def short(need):
        return max(math.ceil(0.9 * need * SQUEEZE_K), 64)

    monkeypatch.setattr(ci1_mod, "first_block", short)
    fam = random_piecewise_linear_family(2, 2, RandomStream(40))
    t = 3 * _BLOCK + 17
    ref, shortfalls = _reference_sketch(fam, t, SketchMode.EXACT_CI1, 42, first=short)
    assert shortfalls >= 3
    for threads in (1, 2):
        sk = sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(42), threads=threads)
        np.testing.assert_array_equal(sk.values, ref)


_MODE_CASES = [
    (SketchMode.UNIFORM_FASTPATH, 0, None),
    (SketchMode.EXACT_CI1, 1, None),
    (SketchMode.CID_APPROX, 1, ApproxConfig(d=1, epsilon_integration=0.2)),
    (SketchMode.CID_APPROX, 2, ApproxConfig(d=2, epsilon_integration=0.2, nodes="midpoint")),
    # 8 intervals of 200 steps: groups of 30 replicates, the last one partial
    (SketchMode.CID_APPROX, 2, ApproxConfig(d=2, epsilon_integration=0.2, r=200)),
]


@pytest.mark.parametrize("mode,degree,config", _MODE_CASES)
def test_full_block_columns_do_not_depend_on_t(mode, degree, config):
    fam = random_segment_family(np.random.default_rng(60 + degree), 4, degree)
    short = sketch_family(fam, 2 * _BLOCK, mode, RandomStream(46), approx_config=config)
    long = sketch_family(fam, 3 * _BLOCK + 17, mode, RandomStream(46), approx_config=config)
    np.testing.assert_array_equal(short.values, long.values[:, : 2 * _BLOCK])


@settings(deadline=None, derandomize=True, max_examples=40)
@given(t=st.integers(1, 300), case=st.sampled_from(_MODE_CASES))
def test_sketch_equal_at_one_two_and_three_threads(t, case):
    mode, degree, config = case
    fam = random_segment_family(np.random.default_rng(70 + degree), 3, degree)
    one = sketch_family(fam, t, mode, RandomStream(47), approx_config=config).values
    for threads in (2, 3):
        other = sketch_family(fam, t, mode, RandomStream(47), threads=threads, approx_config=config)
        np.testing.assert_array_equal(other.values, one)


def _state(gen):
    """The bit generator state of ``gen`` as comparable Python values."""

    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(gen.bit_generator.state)


@pytest.mark.parametrize("k", [64, 735])
def test_candidate_block_draws_three_uniform_rows(k):
    # one (3, k) uniform draw and nothing else: rows U0, U1 give the points
    # by conditional inversion, row W the acceptance test
    gen = RandomStream(43, k).generator
    u, accept = _candidate_block(gen, k)
    ref = RandomStream(43, k).generator
    u0, p, w = ref.random((3, k))
    assert _state(gen) == _state(ref)
    np.testing.assert_array_equal(u[:2], [u0, p])
    np.testing.assert_array_equal(u[2], w * (SQUEEZE_K / np.pi))
    x0 = np.tan(np.pi * u0)
    spread = (1.0 + x0 * x0) / (p * (1.0 - p))
    x1 = 0.5 * (x0 + np.sqrt(spread) * (p - 0.5))
    t = 0.25 * spread
    np.testing.assert_array_equal(accept, w * (SQUEEZE_K / np.pi) <= ci1_density(x0, x1) * (t * np.sqrt(t)))
    assert u.shape == (3, k) and accept.size == k
    assert 0 < accept.sum() < k


class _ZeroUniformStub:
    """A generator that zeroes entry 5 of row 1, the ``p`` row, of every
    ``(3, n)`` uniform draw; all draws are the wrapped generator's.  It
    keeps the ``(3, n)`` arrays it returns and copies of the 1-D draws, the
    redrawing ones."""

    def __init__(self, gen):
        self._gen = gen
        self.blocks, self.redraws = [], []

    def random(self, size=None, out=None):
        u = self._gen.random(size, out=out)
        if u.ndim == 2:
            u[1, 5] = 0.0
            self.blocks.append(u)
        else:
            self.redraws.append(u.copy())
        return u


def _unit_pairs(gen, need):
    """``need`` pairs from one fill_pairs call in a new workspace, as ``(x0, x1)``."""
    out = np.empty((need, 2))
    fill_pairs(gen, out)
    return out[:, 0], out[:, 1]


def test_unit_pairs_redraws_a_zero_p_in_a_block_call():
    # one call for an 18-replicate group of 71 intervals, as the sketch
    # makes; p = 0 would give p (1 - p) = 0, so the sampler redraws it in
    # place in the stub's array, before the points are made
    need = 18 * 71
    stub = _ZeroUniformStub(RandomStream(44, 0).generator)
    x0, x1 = _unit_pairs(stub, need)
    assert len(stub.blocks) == len(stub.redraws) >= 1
    for u, redraw in zip(stub.blocks, stub.redraws):
        assert u[1, 5] == redraw[0] != 0.0
        assert np.all(u[1] != 0.0)
    assert x0.size == x1.size == need
    assert np.isfinite(x0).all() and np.isfinite(x1).all()


def test_degree_one_sketch_evaluates_about_a_sixth_of_a_density_point_per_pair(monkeypatch):
    # the sampler reaches the density through the module's ci1_density, the
    # name a tracing wrapper replaces, for the candidates its squeeze table
    # leaves undecided: about 5.5% of the K = 3 candidates per pair, 0.171
    # points a pair measured here
    calls, points = [], []
    real = ci1_mod.ci1_density

    def counting(x0, x1, **kwargs):
        calls.append(1)
        points.append(np.size(x0))
        return real(x0, x1, **kwargs)

    monkeypatch.setattr(ci1_mod, "ci1_density", counting)
    fam = random_piecewise_linear_family(3, 160, RandomStream(49))
    n_int = len(fam.breakpoints) - 1
    t = 2 * _BLOCK
    sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(50))
    per_pair = sum(points) / (t * n_int)
    assert len(calls) >= 2 * math.ceil(_BLOCK / (_CALL_DRAWS // (n_int * 9)))
    assert 0.15 < per_pair < 0.2


def _with_unit_densities(family):
    """The family followed by one density per (interval, power) whose only
    nonzero coefficient is a 1 there: its projection value is that entry of
    the replicate's integral vector, exactly."""
    d = family.degree
    units = [
        PiecewisePolyDensity(f"unit{ell}_{k}", [ell], [ell + 1], np.eye(d + 1)[k : k + 1], d)
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
    # the one scatter over all tables equals a loop over each density's
    # segments, with a lower-degree density and one of no segments among them
    gen = np.random.default_rng(8)
    for degree in range(4):
        fam = random_segment_family(gen, 5, degree)
        low = PiecewisePolyDensity("low", [1], [4], [[0.5]], 0)
        empty = PiecewisePolyDensity("empty", [], [], [], degree)
        densities = fam.densities[:2] + [empty] + fam.densities[2:] + [low]
        ref = np.zeros((len(densities), len(fam.breakpoints) - 1, degree + 1))
        for j, dens in enumerate(densities):
            for b, c, row in zip(dens.b, dens.c, dens.coeffs):
                ref[j, b:c, : row.size] = row
        assert any(np.any(dens.c - dens.b > 1) for dens in fam.densities)
        assert np.any(np.all(ref == 0.0, axis=2))  # some intervals are unsupported
        np.testing.assert_array_equal(interval_coefficients(densities, fam.breakpoints), ref)
        none = [PiecewisePolyDensity(f"e{j}", [], [], [], degree) for j in range(3)]
        np.testing.assert_array_equal(
            interval_coefficients(none, fam.breakpoints),
            np.zeros((3, len(fam.breakpoints) - 1, degree + 1)),
        )


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


def test_sketch_refuses_no_replicates():
    with pytest.raises(ParameterError, match="t must be >= 1"):
        sketch_family(_uniform_pair(), 0, SketchMode.UNIFORM_FASTPATH, _NoDraws())


class _RecordingPool:
    """A stand-in for ThreadPoolExecutor that runs the shares in turn and
    records the worker count it was asked for."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_fan_out_workers_bounded_by_their_scratch(monkeypatch):
    monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "asked", [])
    monkeypatch.setattr(pipeline_mod, "MAX_SKETCH_BYTES", 1000)
    for task_bytes, workers in ((100, 8), (300, 3), (999, 1), (10**9, 1), (0, 8)):
        done = []
        pipeline_mod._fan_out(done.append, range(20), 8, task_bytes)
        assert sorted(done) == list(range(20))
        if workers > 1:
            assert _RecordingPool.asked.pop() == workers
    # one worker runs in turn on the calling thread, with no pool
    assert _RecordingPool.asked == []


def _quadratic_pair_on(n_int):
    """The flat and ``3x^2`` densities of :func:`_quadratic_pair` on a grid
    of ``n_int`` equal intervals."""
    bp = Breakpoints(np.linspace(0.0, 1.0, n_int + 1))
    rows = ("one", [1.0, 0.0, 0.0]), ("3x2", [0.0, 0.0, 3.0])
    return DensityFamily(bp, [PiecewisePolyDensity(n, [0], [n_int], [c], 2) for n, c in rows], 2)


def _assert_fan_outs_keep_bits(monkeypatch, fam, scratch):
    """``run_scheme`` of ``fam`` at 8 threads, under a cap of two sketch
    blocks' bytes, a block counting ``scratch`` float64s for its largest
    group: the sketch is cut to 2 workers, the estimator keeps 8, and the
    matrix keeps the bits of one thread."""
    one = run_scheme(fam, 0.5, 0.5, "sketch", seed=3, threads=1)
    asked = []
    real = pipeline_mod._fan_out

    def record(fn, tasks, threads, task_bytes):
        asked.append(task_bytes)
        return real(fn, tasks, threads, task_bytes)

    monkeypatch.setattr(pipeline_mod, "_fan_out", record)
    monkeypatch.setattr(pipeline_mod, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "asked", [])
    n_int = len(fam.breakpoints) - 1
    block = 8 * (_BLOCK * ((fam.degree + 1) * n_int + fam.m) + scratch(one.config))
    monkeypatch.setattr(pipeline_mod, "MAX_SKETCH_BYTES", 2 * int(block))
    eight = run_scheme(fam, 0.5, 0.5, "sketch", seed=3, threads=8)
    np.testing.assert_array_equal(eight.entries, one.entries)
    # the estimator's task holds one (min(16, m - 1), t) difference buffer
    assert asked == [int(block), 8 * 1 * one.config["t"]]
    assert _RecordingPool.asked == [2, 8]


def test_sketch_and_estimator_pass_their_scratch_and_keep_their_bits(monkeypatch):
    # a block counts the degree-1 workspace of its largest group, at most
    # _BLOCK rows; on 8 intervals two blocks' bytes hold the 8 estimator
    # tasks
    fam = random_segment_family(np.random.default_rng(61), 2, 1)
    n_int = len(fam.breakpoints) - 1
    group = min(int(_CALL_DRAWS // (n_int * ci1_mod.UNIFORMS_PER_PAIR)), _BLOCK)
    _assert_fan_outs_keep_bits(monkeypatch, fam, lambda _: ci1_mod.pairs_scratch(group * n_int))


def test_r_step_sketch_passes_the_uniforms_of_its_larger_group(monkeypatch):
    # a block counts the uniforms of its largest group: on 71 intervals of
    # r = 16 steps, 42 replicates
    def scratch(config):
        per_rep = 71 * config["r"]
        group = min(_CALL_DRAWS // per_rep, _BLOCK)
        assert (config["r"], group) == (16, 42)
        return group * per_rep

    _assert_fan_outs_keep_bits(monkeypatch, _quadratic_pair_on(71), scratch)


@pytest.mark.parametrize("degree", [1, 2])
def test_warm_sketch_reuses_its_threads_workspace_and_faults_none_in(monkeypatch, degree):
    # a thread keeps one scratch buffer for every group of every sketch it
    # runs, so a warm one-thread sketch of the size of d1-exact-ci1 or
    # d2-cid-threads (10 densities on 71 intervals) faults no group scratch
    # in: at degree 2, 172 minor faults with a new buffer a call, 0
    # measured in a fresh process; at degree 1, where the buffer holds a
    # candidate block's k-sized arrays, 0 measured
    resource = pytest.importorskip("resource")
    fam = random_segment_family(np.random.default_rng(63), 10, degree, n_intervals=71)
    plan, approx = plan_run(0.4, 0.1, fam.m, fam.degree)

    def sketch():
        return sketch_family(fam, plan["t"], plan["mode"], RandomStream(1), approx_config=approx)

    bufs, real = [], pipeline_mod.fill_groups

    def recording(gen, fill, out, per_row):
        def fill_and_record(gen, part):
            fill(gen, part)
            bufs.append(randstream_mod.scratch(0).base)

        real(gen, fill_and_record, out, per_row)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline_mod, "fill_groups", recording)
        first, second = sketch(), sketch()
    assert len(bufs) > 2 and all(buf is bufs[0] for buf in bufs)
    assert first.values.tobytes() == second.values.tobytes()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sketch()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20


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


@pytest.mark.parametrize(
    "epsilon_abs,delta,message",
    [(3.0, 0.1, "epsilon_abs must be in"), (0.0, 0.1, "epsilon_abs must be in"),
     (0.2, 1.0, "delta must be in"), (0.2, 0.0, "delta must be in")],
)
def test_mc_refuses_out_of_range_parameters(monkeypatch, epsilon_abs, delta, message):
    def refuse(*args, **kwargs):
        raise AssertionError("drew with parameters out of range")

    monkeypatch.setattr(pipeline_mod, "sample_from_density", refuse)
    with pytest.raises(ParameterError, match=message):
        mc_all_pairs(_uniform_pair(), epsilon_abs, delta, RandomStream(1))


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
    eps_int, eps_est = _error_split(0.4, 2, DEFAULT_C_MIDPOINT)
    assert dm.config["epsilon_integration"] == eps_int
    assert dm.config["epsilon"] == eps_est  # estimator share
    assert dm.config["r"] == math.ceil(DEFAULT_C_MIDPOINT * 2 / math.sqrt(eps_int))
    assert dm.config["relative_error_upper"] == (1 + eps_int) * (1 + eps_est) - 1.0 <= 0.4
    assert dm.config["relative_error_lower"] == 1.0 - (1 - eps_int) * (1 - eps_est) <= 0.4


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_error_split_meets_epsilon_at_no_more_draws_than_the_even_split(epsilon):
    # the stated bounds, as run_scheme states them, are within epsilon as
    # floats, and t and t * r are at most those of eps_int = eps_est = eps/2
    for d in range(1, 17):
        eps_int, eps_est = _error_split(epsilon, d, DEFAULT_C_MIDPOINT)
        assert _error_split(epsilon, d, DEFAULT_C_MIDPOINT) == (eps_int, eps_est)
        assert (1 + eps_int) * (1 + eps_est) - 1.0 <= epsilon
        assert 1.0 - (1 - eps_int) * (1 - eps_est) <= epsilon
        r = ApproxConfig(d, eps_int, nodes="midpoint").r
        r_even = ApproxConfig(d, epsilon / 2, nodes="midpoint").r
        for m in (2, 10, 1000):
            t = required_sample_count(eps_est, 0.1, m)
            t_even = required_sample_count(epsilon / 2, 0.1, m)
            assert t <= t_even and t * r <= t_even * r_even, (d, m)


def test_error_split_steps_meet_eps_int_on_root_rich_polynomials():
    # eps_int falls near epsilon / 5, where the calibrated midpoint constant
    # has less margin: at the r the split picks, and at the r that
    # ApproxConfig derives for an eps_int of 0.025, 0.1 or 0.2, the Riemann
    # scale of the shifted Chebyshev T_d(2x - 1) and of 50 seeded polynomials
    # with d roots uniform on [0, 1] lies within eps_int of the exact integral
    for d in range(1, 17):
        cheb = np.polynomial.Chebyshev.basis(d, domain=[0.0, 1.0]).convert(kind=np.polynomial.Polynomial)
        gen = np.random.default_rng(7000 + d)
        roots = [np.polynomial.polynomial.polyfromroots(gen.uniform(0.0, 1.0, d)) for _ in range(50)]
        coeffs = np.array([cheb.coef, *roots])
        exact = integrate_abs_local(coeffs, 1.0)
        split = [_error_split(epsilon, d, DEFAULT_C_MIDPOINT)[0] for epsilon in (0.1, 0.2, 0.4)]
        # and held out from the calibration: ApproxConfig's own midpoint r
        for eps_int in (*split, 0.025, 0.1, 0.2):
            r = ApproxConfig(d, eps_int, nodes="midpoint").r
            rel = np.abs(riemann_abs_scale(coeffs, r, "midpoint") - exact) / exact
            assert rel.max() <= eps_int, (d, eps_int, r, rel.max())


@pytest.mark.parametrize("family", [_uniform_pair, _linear_pair, _quadratic_pair, _cubic_pair])
def test_sketch_family_rebuilds_from_a_run_config(family, tmp_path):
    # a dist run rebuilt from its config line alone: the plan from the
    # requested epsilon, delta and c and the family's m and degree, and from
    # the plan the whole run, entries bit for bit; and the call a traced
    # benchmark run makes to time one replicate's set-up, from the mode,
    # seed and r-step settings read back
    path = tmp_path / "family.json"
    save_family(family(), str(path))
    out = tmp_path / "dist.csv"
    argv = ["dist", str(path), "--epsilon", "0.5", "--delta", "0.5", "--seed", "26", "--out", str(out)]
    assert cli_mod.main(argv) == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[2].removeprefix("# config: "))
    entries = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[4:]])
    fam = load_family(str(path))
    plan, approx = plan_run(
        config["epsilon_requested"], config["delta"], fam.m, fam.degree, config.get("c_constant")
    )
    assert (plan, approx) == plan_run(0.5, 0.5, fam.m, fam.degree)
    assert plan == {key: value for key, value in config.items() if key != "seed"}
    sk = sketch_family(fam, plan["t"], plan["mode"], RandomStream(config["seed"]), approx_config=approx)
    np.testing.assert_array_equal(estimate_all_pairs(sk, plan["epsilon"], plan["delta"]).entries, entries)
    bench_approx = None
    if "epsilon_integration" in config:
        bench_approx = ApproxConfig(
            fam.degree, config["epsilon_integration"], r=config["r"], nodes=config["nodes"]
        )
    sk = sketch_family(fam, 1, config["mode"], RandomStream(config["seed"]), approx_config=bench_approx)
    assert sk.values.shape == (fam.m, 1)
    assert sk.mode.value == config["mode"]


def test_sketch_cost_scales_linearly_in_t():
    fam = random_piecewise_linear_family(4, 4, RandomStream(24))

    # CPU time of this process, so another process sharing the CPU does not
    # count in either size's figure
    def run(t):
        start = time.process_time()
        sketch_family(fam, t, SketchMode.EXACT_CI1, RandomStream(25))
        return time.process_time() - start

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
        rows = [gen.uniform(-1, 1, 3) for _ in range(2)]
        densities.append(PiecewisePolyDensity(f"q{j}", [0, 1], [1, 2], rows, 2))
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
        rows = [gen.uniform(-1, 1, 4) for _ in range(3)]
        densities.append(PiecewisePolyDensity(f"c{j}", [0, 1, 2], [1, 2, 3], rows, 3))
    fam = DensityFamily(Breakpoints(pts), densities, 3)
    oracle = exact_all_pairs(fam).entries
    dm = run_scheme(fam, 0.3, 0.1, "sketch", seed=36)
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    rel = np.abs(dm.entries[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() <= dm.config["relative_error_upper"]


@pytest.mark.parametrize("degree", [2, 3])
def test_run_scheme_meets_its_stated_bounds_at_degree_two_and_three(degree):
    # c06's rule at degree >= 2: at least 16 of 20 seeded repetitions have
    # every pair within the relative bounds that the run's config states
    mask = np.triu(np.ones((5, 5), dtype=bool), k=1)
    successes = 0
    for seed in range(5000, 5020):
        fam = random_segment_family(np.random.default_rng(seed), 5, degree)
        oracle = exact_all_pairs(fam).entries[mask]
        dm = run_scheme(fam, 0.4, 0.1, "sketch", seed=seed)
        err = dm.entries[mask] - oracle
        upper, lower = dm.config["relative_error_upper"], dm.config["relative_error_lower"]
        successes += bool(np.all((err <= upper * oracle) & (-err <= lower * oracle)))
    assert dm.config["r"] == math.ceil(DEFAULT_C_MIDPOINT * degree / math.sqrt(dm.config["epsilon_integration"]))
    assert dm.config["relative_error_upper"] <= 0.4 and dm.config["relative_error_lower"] <= 0.4
    assert successes >= 16


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
