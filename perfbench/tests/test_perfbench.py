"""Self-tests of the benchmark: generators, references, the failure check
and the tracing wrappers.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
from check import accuracy_bounds, check_matrix, parse_dist_csv  # noqa: E402
from workloads import WORKLOADS, Workload, family_json, generate_family, reference_distances  # noqa: E402

from l1sketch import cli, densities, io as l1io  # noqa: E402


def _load(family, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(family_json(family))
    return path, l1io.load_family(str(path))


def _small(degree, m=5, pieces=4):
    return Workload(f"small-d{degree}", degree, m, pieces, ())


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("degree", [0, 1])
def test_reference_matches_exact_l1_distance(tmp_path, degree, seed):
    family = generate_family(_small(degree), seed)
    _, loaded = _load(family, tmp_path)
    ref = reference_distances(family)
    for j in range(family.m):
        for k in range(family.m):
            exact = densities.exact_l1_distance(
                loaded.densities[j], loaded.densities[k], loaded.breakpoints
            )
            assert ref[j, k] == pytest.approx(exact, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_families_are_densities(tmp_path, name):
    workload = WORKLOADS[name]
    if workload.m > 30:
        workload = Workload(name, workload.degree, 30, workload.pieces, ())
    family = generate_family(workload, seed=3)
    assert family.intervals == workload.m * (workload.pieces - 1) + 1
    _, loaded = _load(family, tmp_path)
    assert densities.validate_family(loaded, strict=True) == []
    assert generate_family(workload, seed=3).coeffs.tobytes() == family.coeffs.tobytes()


def _exact_output(tmp_path):
    family = generate_family(_small(1), seed=2)
    path, _ = _load(family, tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(["dist", str(path), "--method", "exact", "--out", str(out)]) == 0
    return family, parse_dist_csv(out.read_text())


def test_check_passes_the_exact_oracle_output(tmp_path):
    family, (method, config, names, matrix) = _exact_output(tmp_path)
    upper, lower = accuracy_bounds(method, config)
    problems, worst = check_matrix(matrix, names, reference_distances(family), upper, lower)
    assert problems == [] and worst < 1e-12


@pytest.mark.parametrize(
    "damage, expected",
    [
        (lambda a: a.__setitem__((0, 1), a[0, 1] * (1 + 1e-6)), "not symmetric"),
        (lambda a: (a.__setitem__((0, 1), a[0, 1] * 1.01), a.__setitem__((1, 0), a[0, 1])), "miss the bound"),
        (lambda a: (a.__setitem__((0, 2), np.nan), a.__setitem__((2, 0), np.nan)), "not finite"),
        (lambda a: (a.__setitem__((0, 2), np.inf), a.__setitem__((2, 0), np.inf)), "not finite"),
        (lambda a: (a.__setitem__((1, 3), -a[1, 3]), a.__setitem__((3, 1), a[1, 3])), "negative"),
        (lambda a: a.__setitem__((2, 2), 1e-3), "diagonal"),
    ],
)
def test_check_flags_damaged_matrices(tmp_path, damage, expected):
    family, (method, config, names, matrix) = _exact_output(tmp_path)
    upper, lower = accuracy_bounds(method, config)
    damage(matrix)
    problems, _ = check_matrix(matrix, names, reference_distances(family), upper, lower)
    assert any(expected in p for p in problems), problems


def test_accuracy_bounds_follow_the_config():
    assert accuracy_bounds("sketch", {"epsilon": 0.2}) == (0.2, 0.2)
    split = {"epsilon": 0.1, "relative_error_upper": 0.21, "relative_error_lower": 0.19}
    assert accuracy_bounds("sketch", split) == (0.21, 0.19)


def test_recorder_wraps_aliases_and_restores(tmp_path):
    family = generate_family(_small(1), seed=5)
    path, _ = _load(family, tmp_path)
    originals = (cli.load_family, l1io.load_family)
    recorder = tracing.Recorder()
    with recorder.install():
        assert cli.load_family is not originals[0]
        cli.main(["dist", str(path), "--method", "exact", "--out", str(tmp_path / "o.csv")])
    assert (cli.load_family, l1io.load_family) == originals
    assert recorder.missing == []
    totals = tracing.totals(recorder.spans)
    assert totals["io.load"]["calls"] == 1
    assert totals["densities.exact"]["calls"] == 1
    assert totals["poly.integrate_abs"]["calls"] > 0


def test_self_seconds_subtracts_the_union_of_children():
    spans = [
        ("parent", 0.0, 10.0, 1),
        ("kid", 1.0, 3.0, 1),
        ("kid", 2.0, 4.0, 1),  # overlaps the first: counted once
        ("kid", 9.0, 12.0, 1),  # clipped at the parent's end
    ]
    parents = tracing.intervals(spans, {"parent"})
    kids = tracing.intervals(spans, {"kid"})
    assert tracing.self_seconds(parents, kids) == pytest.approx(10.0 - 3.0 - 1.0)
    assert tracing.self_seconds([(5.0, 7.0)], []) == pytest.approx(2.0)
