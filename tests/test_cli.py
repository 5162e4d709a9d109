"""Command-line interface: formats, exit codes, manifests, determinism."""

import ast
import gc
import hashlib
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from l1sketch import (
    DEFAULT_C_MIDPOINT,
    Breakpoints,
    DensityFamily,
    PiecewisePolyDensity,
    density_from_pieces,
    merge_breakpoints,
    uniform_density,
)
from conftest import random_segment_family
import l1sketch.cid as cid_mod
import l1sketch.cli as cli_mod
import l1sketch.io as io_mod
import l1sketch.pipeline as pipeline_mod
import l1sketch.randstream as randstream_mod
from l1sketch.ci1 import CHECKED_RADIUS, ci1_density
from l1sketch.densities import eval_density
from l1sketch.errors import FamilyFormatError
from l1sketch.cli import MAX_DENSITY_PAIRS, MAX_SAMPLE_COUNT, main
from l1sketch.io import (
    build_manifest,
    family_from_json,
    family_to_json,
    load_family,
    manifest_line,
    save_family,
)


@pytest.fixture
def pair_family_path(tmp_path):
    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 1.0, 2.0)])
    path = tmp_path / "pair.json"
    save_family(fam, str(path))
    return str(path)


def test_family_round_trip(tmp_path):
    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.25, 1.25)])
    text = family_to_json(fam)
    back = family_from_json(text)
    assert back.names == fam.names
    np.testing.assert_array_equal(back.breakpoints.points, fam.breakpoints.points)
    for d1, d2 in zip(back.densities, fam.densities):
        assert d1.b.tolist() == d2.b.tolist() and d1.c.tolist() == d2.c.tolist()
        np.testing.assert_array_equal(d1.coeffs, d2.coeffs)
    # canonical form is a fixed point
    assert family_to_json(back) == text


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text,error",
    [(None, None), ('{"degree": 0', "invalid JSON"), ('{"degree": true}', "must be an integer")],
)
def test_family_parse_pauses_the_collector_and_restores_its_state(monkeypatch, enabled, text, error):
    # the collector is off while the document is read, and the caller's
    # state comes back, also when the parse raises; a disabled collector is
    # never turned on
    fam = merge_breakpoints([uniform_density("a", 0.0, 1.0), uniform_density("b", 0.25, 1.25)])
    during = []
    real = io_mod.family_from_dict

    def recording(doc):
        during.append(gc.isenabled())
        return real(doc)

    monkeypatch.setattr(io_mod, "family_from_dict", recording)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if error is None:
            assert family_from_json(family_to_json(fam)).names == ["a", "b"]
        else:
            with pytest.raises(FamilyFormatError, match=error):
                family_from_json(text)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert during == ([] if error == "invalid JSON" else [False])


def _one_density_doc(degree, rows):
    """A family document of one density ``x`` whose segment ``i`` covers
    grid interval ``i`` with coefficient row ``rows[i]``."""
    segments = [{"b": i, "c": i + 1, "coeffs": row} for i, row in enumerate(rows)]
    return {"degree": degree, "breakpoints": [float(i) for i in range(len(rows) + 1)],
            "densities": [{"name": "x", "segments": segments}]}


def test_family_coefficients_keep_the_bits_of_a_nested_conversion():
    # the flat conversion of a density's entries gives the array, value for
    # value, that numpy makes of its nested rows
    rows = [[-0.0, 5e-324], [1.7976931348623157e308, 2**53 + 1], [3, -2.5]]
    coeffs = io_mod.family_from_dict(_one_density_doc(1, rows)).densities[0].coeffs
    want = np.asarray(rows, dtype=float)
    assert coeffs.shape == (3, 2) and coeffs.dtype == want.dtype
    assert coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "degree,rows,message",
    [
        # the texts of the nested conversion, read from the code before the
        # flat one
        (1, [[1.0, 10**400]], "malformed family document: int too large to convert to float"),
        (1, [[1.0, 2.0], [1.0]],
         "density 'x': segment coeffs must be rows of degree+1 = 2 numbers, got lengths [1, 2]"),
        (1, [[1.0, 10**400], [1.0]],
         "density 'x': segment coeffs must be rows of degree+1 = 2 numbers, got lengths [1, 2]"),
        (1, [[1.0], [1.0]],
         "density 'x': segment coeffs must be rows of degree+1 = 2 numbers, got shape (2, 1)"),
        (0, [[], []],
         "density 'x': segment coeffs must be rows of degree+1 = 1 numbers, got shape (2, 0)"),
        (-1, [[]], "degree must be in [0, 16], got -1"),
        (99, [[1.0] * 100], "degree must be in [0, 16], got 99"),
    ],
)
def test_family_coefficient_errors_keep_their_text(degree, rows, message):
    with pytest.raises(FamilyFormatError) as info:
        io_mod.family_from_dict(_one_density_doc(degree, rows))
    assert str(info.value) == message


@pytest.mark.parametrize("densities", [[{"name": "x", "segments": []}], []])
def test_family_degree_is_range_checked_before_any_density_is_built(densities):
    # a density of no segments would otherwise size an empty coefficient
    # array by the degree, which numpy refuses at 10**20 columns
    doc = {"degree": 10**20, "breakpoints": [0, 1, 2, 3], "densities": densities}
    with pytest.raises(FamilyFormatError) as info:
        io_mod.family_from_dict(doc)
    assert str(info.value) == "degree must be in [0, 16], got 100000000000000000000"
    with pytest.raises(FamilyFormatError, match=r"degree must be in \[0, 16\], got 100000000000000000000"):
        PiecewisePolyDensity("x", [], [], [], 10**20)


def test_dist_exact_csv(pair_family_path, tmp_path, capsys):
    out = tmp_path / "dist.csv"
    code = main(["dist", pair_family_path, "--method", "exact", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "name,a,b"
    row_a = [l for l in lines if l.startswith("a,")][0]
    assert row_a.split(",")[2] == "2.0"
    assert any(l.startswith("# manifest:") for l in lines)


def test_matrix_to_csv_pins_the_bytes_of_each_entry():
    # the shortest repr that reads back to the same float: a subnormal, a
    # tiny value, an inexact sum, a power of ten past 1e16 and zero
    entries = np.array(
        [
            [0.0, 5e-324, 1e-300, 0.1 + 0.2],
            [5e-324, 0.0, 1e16, 0.0],
            [1e-300, 1e16, 0.0, 5e-324],
            [0.1 + 0.2, 0.0, 5e-324, 0.0],
        ]
    )
    dm = pipeline_mod.DistanceMatrix(list("abcd"), entries, "exact", {"degree": 1})
    manifest = {"command": "dist"}
    assert io_mod.matrix_to_csv(dm, manifest) == (
        '# manifest: {"command": "dist"}\n'
        "# method: exact\n"
        '# config: {"degree": 1}\n'
        "name,a,b,c,d\n"
        "a,0.0,5e-324,1e-300,0.30000000000000004\n"
        "b,5e-324,0.0,1e+16,0.0\n"
        "c,1e-300,1e+16,0.0,5e-324\n"
        "d,0.30000000000000004,0.0,5e-324,0.0\n"
    )


def test_dist_json_embeds_manifest(pair_family_path, tmp_path):
    out = tmp_path / "dist.json"
    code = main(
        ["dist", pair_family_path, "--method", "exact", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["names"] == ["a", "b"]
    assert doc["matrix"][0][1] == 2.0
    assert doc["manifest"]["command"] == "dist"
    assert len(doc["manifest"]["input_digest"]) == 64


def test_dist_sketch_rerun_byte_identical(pair_family_path, tmp_path):
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    args = [
        "dist", pair_family_path, "--method", "sketch", "--epsilon", "0.5",
        "--delta", "0.3", "--seed", "11", "--format", "json",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _quadratic_family_path(tmp_path):
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 0.4, 1.0])),
        [
            PiecewisePolyDensity(f"q{j}", [0, 1], [1, 2], [[1.0, j - 1.0, 0.5 * j]] * 2, 2)
            for j in range(3)
        ],
        2,
    )
    path = tmp_path / "quad.json"
    save_family(fam, str(path))
    return path


def _linear_family_path(tmp_path):
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 1.0])),
        [PiecewisePolyDensity(f"l{j}", [0], [1], [[1.0 - 0.5 * j, float(j)]], 1) for j in range(3)],
        1,
    )
    path = tmp_path / "lin.json"
    save_family(fam, str(path))
    return path


def test_dist_degree_two_uses_midpoint_nodes(tmp_path):
    path = _quadratic_family_path(tmp_path)
    args = ["dist", str(path), "--epsilon", "0.4", "--seed", "3", "--format", "json"]
    out = tmp_path / "d.json"
    assert main(args + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["nodes"] == "midpoint"
    assert config["r"] == math.ceil(DEFAULT_C_MIDPOINT * 2 / math.sqrt(config["epsilon_integration"]))
    # the constant calibrate emits is the one --c-constant takes
    cal = tmp_path / "c.json"
    assert main(["calibrate", "--d-max", "2", "--trials", "50", "--seed", "5", "--out", str(cal)]) == 0
    c = json.loads(cal.read_text())["c"]
    assert main(args + ["--c-constant", repr(c), "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["c_constant"] == c
    assert config["r"] == math.ceil(c * 2 / math.sqrt(config["epsilon_integration"]))


def test_dist_manifest_records_c_constant(tmp_path):
    # the constant sets r, so it changes the matrix: identical manifests
    # must mean identical output
    args = ["dist", str(_quadratic_family_path(tmp_path)), "--epsilon", "0.4", "--seed", "3"]
    outputs = {}
    for c in ("2.24", "6.0"):
        out = tmp_path / f"c{c}.csv"
        assert main(args + ["--c-constant", c, "--out", str(out)]) == 0
        outputs[c] = out.read_text().splitlines()
    assert outputs["2.24"][0] != outputs["6.0"][0]
    manifest = json.loads(outputs["6.0"][0].removeprefix("# manifest: "))
    assert manifest["parameters"]["c_constant"] == 6.0
    assert outputs["2.24"][4:] != outputs["6.0"][4:]


def test_dist_sketch_mode_is_refused(pair_family_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", pair_family_path, "--sketch-mode", "cid_approx"])
    assert exc.value.code == 2
    assert "--sketch-mode" in capsys.readouterr().err


def test_dist_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"degree": 0, "breakpoints": [0, 1], "densities": [',)
    code = main(["dist", str(bad), "--method", "exact"])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_dist_structural_error_exit_2(tmp_path, capsys):
    doc = {
        "degree": 0,
        "breakpoints": [0.0, 1.0],
        "densities": [{"name": "x", "segments": [{"b": 0, "c": 0, "coeffs": [1.0]}]}],
    }
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(doc))
    code = main(["dist", str(bad), "--method", "exact"])
    assert code == 2
    assert capsys.readouterr().err


def _two_densities(tmp_path, first: str, second: str, degree: int = 0) -> str:
    """Family of two one-piece densities on [0, 1) of the given degree, each
    coefficient list written as raw comma-separated JSON tokens."""
    path = tmp_path / f"degree{degree}.json"
    path.write_text(
        f'{{"degree": {degree}, "breakpoints": [0.0, 1.0], "densities": ['
        f'{{"name": "a", "segments": [{{"b": 0, "c": 1, "coeffs": [{first}]}}]}}, '
        f'{{"name": "b", "segments": [{{"b": 0, "c": 1, "coeffs": [{second}]}}]}}]}}'
    )
    return str(path)


@pytest.mark.parametrize("method", ["exact", "sketch", "mc"])
@pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e400"])
def test_dist_non_finite_coefficient_exit_2(tmp_path, capsys, method, token):
    out = tmp_path / "dist.csv"
    path = _two_densities(tmp_path, "1.0", token)
    code = main(["dist", path, "--method", method, "--epsilon", "0.5", "--out", str(out)])
    assert code == 2
    assert "'b': segment coefficients must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "sketch"])
def test_dist_overflowing_distance_exit_4(tmp_path, capsys, method):
    # finite coefficients whose difference overflows float64, at degree 0 and
    # at degree 3, where the difference [inf, 0, 0, inf] once integrated to 0.0
    out = tmp_path / "dist.csv"
    for path in (
        _two_densities(tmp_path, "1e308", "-1e308"),
        _two_densities(tmp_path, "1e308, 0, 0, 1e308", "-1e308, 0, 0, -1e308", degree=3),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["dist", path, "--method", method, "--epsilon", "0.5", "--out", str(out)])
        assert code == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()


def test_dist_identical_overflowing_densities_are_distance_zero(tmp_path):
    # both projections overflow to the same inf in some replicates, where
    # inf - inf is NaN, and cancel exactly in the rest, so the zero rule
    # gives 0.0, without a RuntimeWarning
    out = tmp_path / "dist.csv"
    path = _two_densities(tmp_path, "1e308", "1e308")
    assert main(["dist", path, "--method", "sketch", "--epsilon", "0.5", "--out", str(out)]) == 0
    row_a = [l for l in out.read_text().splitlines() if l.startswith("a,")][0]
    assert row_a.split(",")[2] == "0.0"


def test_dist_mc_overflowing_density_exit_3(tmp_path, capsys):
    # finite coefficients whose values overflow float64 are refused by name,
    # without a RuntimeWarning (which this suite turns into an error)
    out = tmp_path / "dist.csv"
    path = _two_densities(tmp_path, "1e308, 0, 0, 1e308", "-1e308, 0, 0, -1e308", degree=3)
    code = main(["dist", path, "--method", "mc", "--epsilon", "0.5", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "density 'a' is not finite at probe points" in err
    assert "density 'b' is not finite at probe points" in err
    assert not out.exists()


_OK = {"name": "ok", "segments": [{"b": 0, "c": 3, "coeffs": [0.25]}]}


@pytest.mark.parametrize(
    "densities",
    [
        pytest.param([{"name": "bad", "segments": [
            {"b": 0, "c": 1, "coeffs": [1.0]}, {"b": 1, "c": 2, "coeffs": [1.0, 2.0]}]}], id="ragged"),
        pytest.param([{"name": "bad", "segments": [{"b": 2, "c": 1, "coeffs": [1.0]}]}], id="b>=c"),
        pytest.param([{"name": "bad", "segments": [{"b": -1, "c": 1, "coeffs": [1.0]}]}], id="negative-b"),
        pytest.param([{"name": "bad", "segments": [
            {"b": 0, "c": 2, "coeffs": [1.0]}, {"b": 1, "c": 3, "coeffs": [1.0]}]}], id="overlap"),
        pytest.param([{"name": "bad", "segments": [{"b": 2, "c": 4, "coeffs": [1.0]}]}], id="beyond-grid"),
        pytest.param([{"name": "bad", "segments": []}, {"name": "bad", "segments": []}], id="duplicate"),
        pytest.param([{"name": "bad", "segments": [{"b": 0, "c": 1, "coeffs": [float("nan")]}]}], id="nan"),
        # indices that were once truncated or cast to another family's
        pytest.param([{"name": "bad", "segments": [{"b": 0.7, "c": 1, "coeffs": [1.0]}]}], id="float-b"),
        pytest.param([{"name": "bad", "segments": [{"b": 0, "c": 2.9, "coeffs": [1.0]}]}], id="float-c"),
        pytest.param([{"name": "bad", "segments": [{"b": "1", "c": 2, "coeffs": [1.0]}]}], id="string-b"),
        pytest.param([{"name": "bad", "segments": [
            {"b": 0, "c": True, "coeffs": [1.0]}, {"b": 1, "c": 2, "coeffs": [1.0]}]}], id="bool-c"),
    ],
)
def test_dist_bad_segments_exit_2_naming_density(tmp_path, capsys, densities):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 0, "breakpoints": [0.0, 1.0, 2.0, 3.0],
                                "densities": [_OK] + densities}))
    assert main(["dist", str(path), "--method", "exact"]) == 2
    assert "'bad'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "breakpoints,coeffs,message",
    [
        (["0", "1"], ["1.0"], "breakpoints must be numbers, got '0'"),
        ([False, True], [True], "breakpoints must be numbers, got False"),
        ([0, 1], ["1.0"], "density 'bad': segment coeffs must be numbers, got '1.0'"),
        ([0.0, 1.0], [True], "density 'bad': segment coeffs must be numbers, got True"),
        ([0.0, 1.0], [None], "density 'bad': segment coeffs must be numbers, got None"),
        ([0.0, 1.0], 1.0, "density 'bad': segment coeffs must be lists, got 1.0"),
    ],
)
def test_dist_non_number_breakpoints_or_coeffs_exit_2(
    tmp_path, capsys, breakpoints, coeffs, message
):
    # numpy would cast each of these to a number without a word
    path = tmp_path / "bad.json"
    segment = {"b": 0, "c": 1, "coeffs": coeffs}
    path.write_text(json.dumps({"degree": 0, "breakpoints": breakpoints,
                                "densities": [{"name": "bad", "segments": [segment]}]}))
    out = tmp_path / "dist.csv"
    code = main(["dist", str(path), "--method", "exact", "--out", str(out)])
    assert message in _assert_refused(code, 2, out, capsys)


def _assert_refused(code, want, out, capsys):
    """Exit code ``want``, no output file and no traceback."""
    assert code == want
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("degree", ["1.5", '"1"', "true", "[1]"])
def test_dist_non_integer_degree_exit_2(tmp_path, capsys, degree):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"degree": {degree}, "breakpoints": [0.0, 1.0], "densities": []}}')
    out = tmp_path / "dist.csv"
    code = main(["dist", str(path), "--method", "exact", "--out", str(out)])
    assert "degree must be an integer" in _assert_refused(code, 2, out, capsys)


@pytest.mark.parametrize(
    "name,shown",
    [("7", "7"), ("null", "None"), ('["a"]', "['a']"), ("true", "True")],
    ids=["non-string-name-int", "non-string-name-null", "non-string-name-list",
         "non-string-name-bool"],
)
def test_dist_non_string_name_exit_2(tmp_path, capsys, name, shown):
    # the string "7" beside it was once reported as a duplicate of the number 7
    path = tmp_path / "bad.json"
    path.write_text(f'{{"degree": 0, "breakpoints": [0.0, 1.0], "densities": '
                    f'[{{"name": "7", "segments": []}}, {{"name": {name}, "segments": []}}]}}')
    out = tmp_path / "dist.csv"
    code = main(["dist", str(path), "--method", "exact", "--out", str(out)])
    assert f"density name must be a string, got {shown}" in _assert_refused(code, 2, out, capsys)


def test_multi_interval_family_round_trips_byte_for_byte(tmp_path):
    fam = DensityFamily(
        Breakpoints(np.array([0.0, 0.25, 0.5, 1.0, 2.0])),
        [
            PiecewisePolyDensity("p", [2, 0], [4, 2], [[0.1, 0.3], [1 / 3, -0.7]], 1),
            PiecewisePolyDensity("q", [1], [3], [[0.2, 0.1]], 1),
        ],
        1,
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_family(fam, str(first))
    back = load_family(str(first))
    save_family(back, str(second))
    assert first.read_bytes() == second.read_bytes()
    for mine, theirs in zip(back.densities, fam.densities):
        assert mine.b.tolist() == theirs.b.tolist() == ([0, 2] if mine.name == "p" else [1])
        np.testing.assert_array_equal(mine.c, theirs.c)
        np.testing.assert_array_equal(mine.coeffs, theirs.coeffs)


def test_dist_bad_epsilon_exit_3(pair_family_path, capsys):
    code = main(["dist", pair_family_path, "--method", "sketch", "--epsilon", "0.9"])
    assert code == 3
    assert "epsilon" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method,threads",
    [(m, t) for m in ("sketch", "exact", "mc") for t in ("0", "-3")],
    # the default method's cases are named by their thread count alone
    ids=[t if m == "sketch" else f"{m}-{t}" for m in ("sketch", "exact", "mc") for t in ("0", "-3")],
)
def test_dist_threads_below_one_exit_3(pair_family_path, tmp_path, capsys, method, threads):
    out = tmp_path / "dist.csv"
    code = main(
        ["dist", pair_family_path, "--method", method, "--epsilon", "0.5",
         "--threads", threads, "--out", str(out)]
    )
    assert code == 3
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--method", "exact", "--epsilon", "nan"], "epsilon must be finite"),
        (["--method", "exact", "--delta", "nan"], "delta must be finite"),
        (["--method", "exact", "--delta", "inf"], "delta must be finite"),
        (["--method", "mc", "--epsilon", "nan"], "epsilon must be finite"),
        (["--c-constant", "nan"], "c_constant must be finite"),
        (["--c-constant", "inf"], "c_constant must be finite"),
        (["--c-constant", "-1"], "c_constant must be finite and positive"),
        (["--method", "exact", "--epsilon", "-5", "--delta", "0.1"], "epsilon must be > 0"),
        (["--method", "exact", "--epsilon", "0"], "epsilon must be > 0"),
        (["--method", "exact", "--delta", "7"], "delta must be in (0, 1)"),
        (["--method", "exact", "--delta", "0"], "delta must be in (0, 1)"),
        (["--method", "mc", "--epsilon", "-0.1"], "epsilon must be > 0"),
        (["--method", "mc", "--delta", "1"], "delta must be in (0, 1)"),
        (["--epsilon", "-0.1"], "epsilon must be > 0"),
        (["--delta", "-0.5"], "delta must be in (0, 1)"),
        # r = ceil(c d / sqrt(eps_int)) would be about 6e300 steps
        (["--c-constant", "1e300"], "exceeds the limit of 1000000 steps"),
        # a constant that is not positive, for every method and at degree 1
        (["lin.json", "--c-constant", "-1"], "c_constant must be finite and positive"),
        (["lin.json", "--c-constant", "0"], "c_constant must be finite and positive"),
        (["lin.json", "--c-constant", "-1", "--method", "exact"], "c_constant must be finite and positive"),
        (["--c-constant", "0", "--method", "exact"], "c_constant must be finite and positive"),
        (["--c-constant", "-1", "--method", "mc"], "c_constant must be finite and positive"),
    ],
)
def test_dist_non_finite_parameter_exit_3(tmp_path, capsys, monkeypatch, args, message):
    # rows that name lin.json run on a degree-1 family, the rest on a quadratic one
    monkeypatch.chdir(tmp_path)
    _linear_family_path(tmp_path)
    if "lin.json" not in args:
        args = [str(_quadratic_family_path(tmp_path)), *args]
    out = tmp_path / "dist.csv"
    code = main(["dist", *args, "--out", str(out)])
    assert message in _assert_refused(code, 3, out, capsys)


#: Keys of a sketch run's config line that the benchmark in perfbench/ reads:
#: at every degree, and, from degree 2, those of the r-step mode
_BENCH_KEYS = {"epsilon", "mode", "seed", "t"}
_BENCH_R_STEP_KEYS = {"epsilon_integration", "r", "relative_error_upper", "relative_error_lower"}


def test_dist_config_line_carries_every_key_the_benchmark_reads(tmp_path):
    # perfbench/worker.py rebuilds a run's set-up call from the config line
    # and perfbench/check.py reads its bounds; the sources are only read here
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    sources = "".join(path.read_text(encoding="utf-8") for path in sorted(bench.glob("*.py")))
    assert set(re.findall(r'config\["(\w+)"\]', sources)) == _BENCH_KEYS | _BENCH_R_STEP_KEYS
    for degree in range(4):
        path = tmp_path / f"d{degree}.json"
        save_family(random_segment_family(np.random.default_rng(degree), 3, degree), str(path))
        out = tmp_path / f"d{degree}.csv"
        assert main(["dist", str(path), "--epsilon", "0.5", "--delta", "0.5", "--out", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[2].removeprefix("# config: "))
        wanted = _BENCH_KEYS | (_BENCH_R_STEP_KEYS if degree >= 2 else set())
        assert wanted <= config.keys(), (degree, wanted - config.keys())


def _traced_targets():
    """The ``(module, attribute, layer, counts points)`` entries of
    perfbench/tracing.py's TARGETS, read from its source, never imported."""
    source = (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"
    )
    (targets,) = [
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(targets)


def test_every_function_the_benchmark_traces_exists():
    # perfbench/tracing.py times each layer by patching the (module,
    # attribute) pairs of its TARGETS, and a pair that no longer resolves
    # only gives an empty metric; the source is only read here
    targets = _traced_targets()
    assert len(targets) >= 10
    for module_name, attr, _, _ in targets:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            assert hasattr(owner, name), f"{module_name}.{attr}"
            owner = getattr(owner, name)
        assert callable(owner), f"{module_name}.{attr}"


def test_dist_calls_every_traced_function_but_the_three_dead_layers(tmp_path, monkeypatch):
    # a traced function that dist no longer calls gives a layer that reads
    # 0; over sketches of degree 0, 1 and 2 and one exact run, only the
    # three layers that read 0 today are never called, so a change that
    # strands another one fails here
    calls = {}
    with monkeypatch.context() as patch:
        for module_name, attr, _, _ in _traced_targets():
            key = f"{module_name.removeprefix('l1sketch.')}.{attr}"
            owner_name, _, name = attr.rpartition(".")
            module = importlib.import_module(module_name)
            original = getattr(getattr(module, owner_name) if owner_name else module, name)
            calls[key] = 0

            def counting(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            if owner_name:
                patch.setattr(getattr(module, owner_name), name, counting)
                continue
            # every alias, as perfbench/tracing.py patches them
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "l1sketch":
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            patch.setattr(mod, alias, counting)
        for degree in (0, 1, 2):
            fam = random_segment_family(np.random.default_rng(70 + degree), 3, degree)
            path = tmp_path / f"d{degree}.json"
            save_family(fam, str(path))
            out = str(tmp_path / f"d{degree}.csv")
            assert main(["dist", str(path), "--epsilon", "0.5", "--seed", "1", "--out", out]) == 0
        assert main(["dist", str(path), "--method", "exact", "--out", str(tmp_path / "exact.csv")]) == 0
    never = {key for key, count in calls.items() if count == 0}
    assert never == {
        "_poly.integrate_abs_poly",
        "randstream.geometric_mean_estimate",
        "densities.validate_family",
    }


@pytest.mark.parametrize("bad", ["#a", "b,c", "d\ne", "f\rg"])
def test_dist_refuses_a_name_csv_cannot_hold_before_any_work(tmp_path, capsys, monkeypatch, bad):
    # a comma or a line break in a name splits the CSV header and the
    # name's row, and a row that starts with '#' reads as a comment line:
    # such a name exits 3 as CSV, before the run, and JSON keeps it
    fam = merge_breakpoints([uniform_density(bad, 0.0, 1.0), uniform_density("a#b", 0.5, 1.5)])
    path = tmp_path / "fam.json"
    save_family(fam, str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("ran a dist whose names CSV cannot hold")

    out = tmp_path / "dist.csv"
    with monkeypatch.context() as patch:
        patch.setattr(cli_mod, "run_scheme", refuse)
        code = main(["dist", str(path), "--method", "exact", "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert repr(bad) in err and "--format json" in err
    out = tmp_path / "dist.json"
    assert main(["dist", str(path), "--method", "exact", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["names"] == [bad, "a#b"]


def test_dist_replicate_byte_cap_exit_3_before_drawing(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew past the replicate byte cap")

    # 2 intervals times the r midpoint steps of dist's default split: 16 r
    # bytes of uniforms a replicate
    eps_int, _ = pipeline_mod._error_split(0.2, 2, DEFAULT_C_MIDPOINT)
    r = math.ceil(DEFAULT_C_MIDPOINT * 2 / math.sqrt(eps_int))
    monkeypatch.setattr(pipeline_mod, "MAX_REPLICATE_BYTES", 16 * r - 1)
    monkeypatch.setattr(pipeline_mod, "fill_groups", refuse)
    out = tmp_path / "dist.csv"
    code = main(["dist", str(_quadratic_family_path(tmp_path)), "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert f"one replicate draws {2 * r} uniforms ({16 * r} bytes), more than {16 * r - 1} bytes" in err


@pytest.mark.parametrize(
    "args,message",
    [
        # t = 236,088,286 replicates of 2 densities: 3.5 GiB
        (["--epsilon", "0.001"], "takes 3777412576 bytes, more than 1073741824"),
        # 3.5e13 draws per density: 510 TiB of uniforms
        (["--method", "mc", "--epsilon", "1e-6"], "need 3.506e+13 draws per density"),
        (["--threads", "257"], "threads must be at most 256, got 257"),
        (["--threads", "100000"], "threads must be at most 256, got 100000"),
    ],
)
def test_dist_parameter_sized_allocations_exit_3_before_any(
    pair_family_path, tmp_path, capsys, monkeypatch, args, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated, drew or started a pool past a cap")

    for name in ("unit_coefficients", "sample_from_density", "ThreadPoolExecutor"):
        monkeypatch.setattr(pipeline_mod, name, refuse)
    out = tmp_path / "dist.csv"
    code = main(["dist", pair_family_path, *args, "--out", str(out)])
    assert message in _assert_refused(code, 3, out, capsys)


def test_dist_mc_family_of_no_densities_exit_3_before_drawing(tmp_path, capsys, monkeypatch):
    # m = 0 once reached math.log(0) in the draw count, a traceback
    def refuse(*args, **kwargs):
        raise AssertionError("drew for a family of no densities")

    monkeypatch.setattr(pipeline_mod, "sample_from_density", refuse)
    path = tmp_path / "empty.json"
    path.write_text('{"degree": 0, "breakpoints": [0, 1], "densities": []}')
    out = tmp_path / "dist.csv"
    code = main(["dist", str(path), "--method", "mc", "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert "all-pairs distances need m >= 2 densities, got 0" in err


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("method", ["exact", "sketch", "mc"])
def test_dist_family_of_fewer_than_two_densities_exit_3_for_every_method(
    tmp_path, capsys, method, m
):
    # the exact oracle once wrote a header-only or 1 x 1 matrix, the sketch
    # refused m < 2 and the Monte Carlo baseline m < 1, each in its own words
    densities = [{"name": "a", "segments": [{"b": 0, "c": 1, "coeffs": [1.0]}]}][:m]
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"degree": 0, "breakpoints": [0, 1], "densities": densities}))
    out = tmp_path / "dist.csv"
    code = main(["dist", str(path), "--method", method, "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert err == f"error: all-pairs distances need m >= 2 densities, got {m}\n"


def test_calibrate_past_max_steps_exit_3(tmp_path, capsys):
    # 1e-13 is out of reach of 10**6 midpoint steps
    out = tmp_path / "cal.json"
    code = main(
        ["calibrate", "--d-max", "1", "--eps", "1e-13", "--trials", "400", "--out", str(out)]
    )
    err = _assert_refused(code, 3, out, capsys)
    assert "calibration at degree 1 needs more than 1000000 steps" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["--eps-int", "nan"], "epsilon_integration must be finite and positive"),
        (["--eps-int", "inf", "--r", "5"], "epsilon_integration must be finite and positive"),
        (["--c-constant", "inf"], "c_constant must be finite and positive"),
        (["--r", "100000000000000000000"], "r must be in [1, 1000000]"),
        (["--r", "1000001"], "r must be in [1, 1000000]"),
        (["--c-constant", "1e300"], "exceeds the limit of 1000000 steps"),
    ],
)
def test_sample_cid_non_finite_parameter_exit_3(tmp_path, capsys, args, message):
    out = tmp_path / "s.csv"
    code = main(["sample", "cid", "--count", "3", *args, "--out", str(out)])
    assert message in _assert_refused(code, 3, out, capsys)


@pytest.mark.parametrize(
    "args,message",
    [
        (["cid", "--a=-inf", "--b", "0"], "map of degree 2, got a=-inf, b=0.0"),
        (["cid", "--d", "3", "--a", "0", "--b", "nan"], "map of degree 3, got a=0.0, b=nan"),
        (["ci1", "--a", "0", "--b=1e308"], "map of degree 1, got a=0.0, b=1e+308"),
        (["ci1", "--a", "1", "--b", "inf"], "map of degree 1, got a=1.0, b=inf"),
        (["ci1", "--a", "1", "--b", "1"], "need b > a and a finite map of degree 1, got a=1.0, b=1.0"),
    ],
)
def test_sample_non_finite_interval_exit_3_before_drawing(tmp_path, capsys, monkeypatch, args, message):
    # these once wrote nan or inf rows and exited 0
    def refuse(*args, **kwargs):
        raise AssertionError("drew for an interval that is refused")

    monkeypatch.setattr(cli_mod, "sample_ci1_unit", refuse)
    monkeypatch.setattr(cli_mod, "sample_cid_approx_unit", refuse)
    out = tmp_path / "s.csv"
    code = main(["sample", *args, "--count", "3", "--out", str(out)])
    assert message in _assert_refused(code, 3, out, capsys)


@pytest.mark.parametrize(
    "kind", [["ci1", "--b", "1e154"], ["cid", "--d", "2", "--a", "1", "--b", "5e102"]]
)
def test_sample_rescaled_draws_that_overflow_exit_4(tmp_path, capsys, kind):
    # the map to [a, b] is finite, but some draws times it overflow float64
    out = tmp_path / "s.csv"
    code = main(["sample", *kind, "--count", "1000", "--seed", "4", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert "error: rescaled draws are not finite; nothing written" in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "-0.05", "nan", "inf"])
def test_calibrate_bad_eps_exit_3_before_any_trial(tmp_path, capsys, monkeypatch, eps):
    # no r passes eps <= 0 or NaN: the search would double r towards 1e8
    def no_trials(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cid_mod, "random_polynomial", no_trials)
    out = tmp_path / "cal.json"
    code = main(["calibrate", "--d-max", "1", "--trials", "1", "--eps", eps, "--out", str(out)])
    assert "target_eps must be finite and positive" in _assert_refused(code, 3, out, capsys)


def test_dist_missing_file_exit_2(capsys):
    assert main(["dist", "/nonexistent/family.json", "--method", "exact"]) == 2


def _input_argv(command, path):
    if command == "dist":
        return ["dist", path, "--method", "exact"]
    return ["eval", "density", "--input", path, "--name", "a", "--points", "0.5"]


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_family_file_not_utf8_exit_2(pair_family_path, tmp_path, capsys, command):
    # a density name holding a byte that is not UTF-8
    path = tmp_path / "bad.json"
    path.write_bytes(open(pair_family_path, "rb").read().replace(b'"a"', b'"a\xff"', 1))
    out = tmp_path / "out.csv"
    assert main(_input_argv(command, str(path)) + ["--out", str(out)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_family_path_unreadable_exit_2(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    assert main(_input_argv(command, str(tmp_path)) + ["--out", str(out)]) == 2
    assert "cannot read family file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["dist", "eval"])
def test_manifest_digest_is_of_the_bytes_parsed(pair_family_path, tmp_path, command):
    raw = open(pair_family_path, "rb").read()
    out = tmp_path / "out.csv"
    assert main(_input_argv(command, pair_family_path) + ["--out", str(out)]) == 0
    manifest = json.loads(out.read_text().splitlines()[0].removeprefix("# manifest: "))
    assert manifest["input_digest"] == hashlib.sha256(raw).hexdigest()


def test_sample_ci1_zero_count(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sample", "ci1", "--count", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "x0,x1" and len(lines) == 2  # no data rows


@pytest.mark.parametrize("kind", [["ci1"], ["cid", "--d", "2"]])
def test_sample_negative_count_exit_3(tmp_path, capsys, kind):
    out = tmp_path / "s.csv"
    assert main(["sample", *kind, "--count", "-1", "--out", str(out)]) == 3
    assert "size must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_ci1_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "ci1", "--count", "5", "--seed", "3", "--out", str(a)]) == 0
    assert main(["sample", "ci1", "--count", "5", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [r for r in a.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == "x0,x1" and len(rows) == 6
    floats = [float(v) for v in rows[1].split(",")]
    assert all(np.isfinite(floats))


def test_sample_cid_shape(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        ["sample", "cid", "--d", "2", "--r", "50", "--count", "3", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == "x0,x1,x2" and len(rows) == 4
    assert len(rows[1].split(",")) == 3
    manifest = json.loads(out.read_text().splitlines()[0].removeprefix("# manifest: "))
    assert manifest["parameters"]["nodes"] == "midpoint"
    assert manifest["parameters"]["r"] == 50
    # a derived r is recorded as resolved: 2.24 * 2 / sqrt(0.05) -> 21
    assert main(["sample", "cid", "--d", "2", "--count", "1", "--out", str(out)]) == 0
    manifest = json.loads(out.read_text().splitlines()[0].removeprefix("# manifest: "))
    assert manifest["parameters"]["r"] == 21


def test_eval_ci1_density_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["eval", "ci1-density", "--grid", "-3:3:0.05", "--out", str(out)]) == 0
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == 1 + 121 * 121
    vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.all(vals >= 0.0)
    origin = [r for r in rows[1:] if r.startswith("0.0,0.0,")]
    assert abs(float(origin[0].split(",")[2]) - 0.723595) < 1e-5


def _per_row_ci1_grid(spec):
    """``eval ci1-density``'s data lines from one ci1_density call per grid row."""
    lo, hi, step = (float(v) for v in spec.split(":"))
    axis = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    lines = []
    for x0 in axis:
        vals = ci1_density(np.full_like(axis, x0), axis)
        lines += [f"{float(x0)!r},{float(x1)!r},{float(v)!r}" for x1, v in zip(axis, vals)]
    return lines


@pytest.mark.parametrize("chunk", [None, 7, 121 * 3 + 5])
@pytest.mark.parametrize("grid", ["-3:3:0.05", "-1:1:0.5", "-0.2:0.3:0.1"])
def test_eval_ci1_density_matches_a_per_row_loop(tmp_path, monkeypatch, grid, chunk):
    # chunks of whole rows (one row each when a chunk holds fewer pairs than
    # a row) give the bytes of one density call per row
    if chunk is not None:
        monkeypatch.setattr(cli_mod, "_CHUNK_LINES", chunk)
    out = tmp_path / "grid.csv"
    assert main(["eval", "ci1-density", "--grid", grid, "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[1] == "x0,x1,value" and lines[-1] == ""
    assert lines[2:-1] == _per_row_ci1_grid(grid)


def test_eval_ci1_density_pair_cap_exit_3_before_evaluating(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated past the pair cap")

    monkeypatch.setattr(cli_mod, "ci1_density", refuse)
    out = tmp_path / "grid.csv"
    # 3,163 points, whose 10,004,569 pairs are one grid row past the cap
    assert MAX_DENSITY_PAIRS == 10**7
    code = main(["eval", "ci1-density", "--grid=0:3162:1", "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert "3163**2 = 10004569 pairs, more than 10000000" in err
    # at a lowered cap, a grid of exactly that many pairs is evaluated
    monkeypatch.setattr(cli_mod, "ci1_density", ci1_density)
    monkeypatch.setattr(cli_mod, "MAX_DENSITY_PAIRS", 16)
    assert main(["eval", "ci1-density", "--grid=0:3:1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 16
    out.unlink()
    code = main(["eval", "ci1-density", "--grid=0:4:1", "--out", str(out)])
    assert "5**2 = 25 pairs, more than 16" in _assert_refused(code, 3, out, capsys)


def test_eval_ci1_density_radius_exit_3_before_evaluating(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated beyond the checked radius")

    monkeypatch.setattr(cli_mod, "ci1_density", refuse)
    out = tmp_path / "grid.csv"
    assert CHECKED_RADIUS == 1e6
    # at radius about 1e77 and beyond the density's terms overflow to NaN
    for grid, radius in (("-1e80:1e80:1e80", "1.41421356e+80"),
                         ("-707107:707107:707107", "1000000.31")):
        code = main(["eval", "ci1-density", f"--grid={grid}", "--out", str(out)])
        err = _assert_refused(code, 3, out, capsys)
        assert f"reaches radius {radius}, beyond 1e+06" in err
    # the corner pairs of this grid lie just inside the radius, at 999,999.4
    monkeypatch.setattr(cli_mod, "ci1_density", ci1_density)
    assert main(["eval", "ci1-density", "--grid=-707106:707106:707106", "--out", str(out)]) == 0
    vals = [float(line.split(",")[2]) for line in out.read_text().splitlines()[2:]]
    assert len(vals) == 9 and min(vals) >= 0.0


@pytest.mark.parametrize("kind", [["ci1"], ["cid", "--d", "2"]])
def test_sample_count_cap_exit_3_before_drawing(tmp_path, capsys, monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("drew past the count cap")

    monkeypatch.setattr(cli_mod, "sample_ci1_unit", refuse)
    monkeypatch.setattr(cli_mod, "sample_cid_approx_unit", refuse)
    out = tmp_path / "s.csv"
    assert MAX_SAMPLE_COUNT == 10**6
    code = main(["sample", *kind, "--count", str(MAX_SAMPLE_COUNT + 1), "--out", str(out)])
    err = _assert_refused(code, 3, out, capsys)
    assert "count must be at most 1000000, got 1000001" in err


@pytest.mark.parametrize(
    "kind", [["ci1"], ["cid", "--d", "2"], ["cid", "--d", "3", "--r", "40", "--a", "1", "--b", "3"]]
)
def test_sample_output_does_not_depend_on_group_or_chunk_sizes(tmp_path, monkeypatch, kind):
    # the stream fills groups in sequence and each r-step row is its own
    # product, so one-row r-step groups and three-line chunks give the same
    # bytes; a ci1 group sizes its first candidate block, so only its chunks
    # change
    args = ["sample", *kind, "--count", "50", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(a)]) == 0
    if kind[0] == "cid":
        monkeypatch.setattr(randstream_mod, "_CALL_DRAWS", 1)
    monkeypatch.setattr(cli_mod, "_CHUNK_LINES", 3)
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2 + 50


def test_eval_density_points(pair_family_path, tmp_path):
    out = tmp_path / "vals.csv"
    code = main(
        ["eval", "density", "--input", pair_family_path, "--name", "a",
         "--points", "0.5,1.5", "--out", str(out)]
    )
    assert code == 0
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert float(rows[1].split(",")[1]) == 1.0
    assert float(rows[2].split(",")[1]) == 0.0


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("where", [["--points", "0.5,1.5"], ["--points", "-0.0,1e-300,2"], []])
def test_eval_density_bytes_match_one_joined_list(
    pair_family_path, tmp_path, monkeypatch, where, chunk
):
    # written in chunks through the shared write path, the bytes are those of
    # one list of every line, joined; [] is the default grid, 121 points
    if chunk is not None:
        monkeypatch.setattr(cli_mod, "_CHUNK_LINES", chunk)
    out = tmp_path / "vals.csv"
    args = ["eval", "density", "--input", pair_family_path, "--name", "a", *where]
    assert main([*args, "--out", str(out)]) == 0
    fam, digest = load_family(pair_family_path, with_digest=True)
    xs = cli_mod._parse_grid("-3:3:0.05") if not where else np.array(where[1].split(","), float)
    vals = eval_density(fam.densities[0], fam.breakpoints, xs)
    header = manifest_line(build_manifest(
        "eval", {"target": "density", "name": "a", "grid": "-3:3:0.05",
                 "points": where[1] if where else None}, 0, digest))
    lines = [header, "x,value"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, vals)]
    assert out.read_text() == "\n".join(lines) + "\n"
    assert len(xs) == (len(where[1].split(",")) if where else 121)


@pytest.mark.parametrize(
    "args",
    [
        ["--points", "0.1,x"],
        ["--points", "0.1,nan"],
        ["--points", "inf"],
        ["--grid=nan:1:0.1"],
        ["--grid=0:inf:1"],
        ["--grid=0:1:nan"],
        ["--grid=0:1:inf"],
        ["--grid=-1e308:1e308:1e-10"],
        ["--grid=0:1:1e-300"],
        # 10**7 + 1 points, one past the limit
        ["--grid=0:1:1e-7"],
        ["--grid=1:2"],
        ["--grid=2:1:0.1"],
        ["--grid=0:1:0"],
    ],
)
def test_eval_density_bad_points_or_grid_exit_3(pair_family_path, tmp_path, capsys, args):
    out = tmp_path / "vals.csv"
    code = main(["eval", "density", "--input", pair_family_path, "--name", "a", *args,
                 "--out", str(out)])
    _assert_refused(code, 3, out, capsys)


@pytest.mark.parametrize("missing", ["--input", "--name"])
def test_eval_density_missing_input_or_name_exit_2(pair_family_path, tmp_path, capsys, missing):
    argv = {"--input": pair_family_path, "--name": "a"}
    del argv[missing]
    out = tmp_path / "vals.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "density", *[v for kv in argv.items() for v in kv], "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"eval density needs {missing}" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_density_unknown_name(pair_family_path, capsys):
    code = main(["eval", "density", "--input", pair_family_path, "--name", "zz", "--points", "0"])
    assert code == 3


def test_calibrate_output(tmp_path):
    out = tmp_path / "cal.json"
    code = main(
        ["calibrate", "--d-max", "2", "--eps", "0.05", "--trials", "50",
         "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["c"] > 0 and set(doc["per_degree"]) == {"1", "2"}
    assert doc["nodes"] == "midpoint"
    assert doc["manifest"]["parameters"]["trials"] == 50


_SEEDED_COMMANDS = [
    ["dist", "{family}", "--method", "sketch", "--epsilon", "0.5", "--delta", "0.3",
     "--format", "json"],
    ["sample", "ci1", "--count", "5"],
    ["calibrate", "--d-max", "1", "--trials", "20"],
]


def test_env_seed_default(pair_family_path, tmp_path, monkeypatch):
    # the variable is read when the command runs, not when the module loads
    for k, argv in enumerate(_SEEDED_COMMANDS):
        argv = [a.format(family=pair_family_path) for a in argv]
        monkeypatch.setenv("L1SKETCH_SEED", "77")
        out1 = tmp_path / f"e{k}-env"
        assert main(argv + ["--out", str(out1)]) == 0
        monkeypatch.delenv("L1SKETCH_SEED")
        out2 = tmp_path / f"e{k}-flag"
        assert main(argv + ["--seed", "77", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert '"seed": 77' in out1.read_text()


@pytest.mark.parametrize("argv", _SEEDED_COMMANDS, ids=["dist", "sample", "calibrate"])
def test_invalid_env_seed_exit_3_only_without_seed(pair_family_path, tmp_path, monkeypatch,
                                                   capsys, argv):
    # a bad value once crashed every command, --version and --seed N too,
    # with a ValueError traceback while the parser was built
    argv = [a.format(family=pair_family_path) for a in argv]
    monkeypatch.setenv("L1SKETCH_SEED", "abc")
    out = tmp_path / "out"
    err = _assert_refused(main(argv + ["--out", str(out)]), 3, out, capsys)
    assert err == "error: L1SKETCH_SEED must be an integer, got 'abc'\n"
    assert main(argv + ["--seed", "3", "--out", str(out)]) == 0
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("l1sketch ")


def test_parser_is_built_once_per_process(pair_family_path, tmp_path, monkeypatch):
    built = []
    real = cli_mod.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli_mod, "build_parser", counting)
    for k in range(3):
        out = tmp_path / f"d{k}.csv"
        assert main(["dist", pair_family_path, "--method", "exact", "--out", str(out)]) == 0
    assert built == []


def test_internal_error_exit_4(pair_family_path, monkeypatch, capsys):
    import l1sketch.cli as cli_mod
    from l1sketch import EnvelopeDominationError

    def boom(*args, **kwargs):
        raise EnvelopeDominationError("synthetic domination failure")

    monkeypatch.setattr(cli_mod, "run_scheme", boom)
    code = main(["dist", pair_family_path, "--method", "sketch", "--epsilon", "0.5",
                 "--delta", "0.3"])
    assert code == 4
    assert "internal" in capsys.readouterr().err


def test_console_entry_point():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "l1sketch.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "l1sketch" in proc.stdout


def test_dist_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    # m = 100 step densities of 8 pieces merge to about 700 intervals: a
    # block's (64, 700) @ (700, 100) product is one OpenBLAS threads, and
    # sums in another order on two threads than on one
    gen = np.random.default_rng(1600)
    densities = []
    for j in range(100):
        edges = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 1.0, 7)), [1.0]])
        heights = gen.uniform(0.1, 1.0, 8)
        heights /= np.sum(heights * np.diff(edges))
        densities.append(density_from_pieces(
            f"f{j}", [(lo, hi, np.array([h])) for lo, hi, h in zip(edges[:-1], edges[1:], heights)], 0
        ))
    family = merge_breakpoints(densities)
    assert len(family.breakpoints) - 1 > 650
    path = tmp_path / "family.json"
    save_family(family, str(path))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    digests = {}
    for blas in ("1", "2", None):
        for threads in ([], ["--threads", "1"]):
            out = tmp_path / f"dist-{blas}-{len(threads)}.csv"
            run_env = {**env, "PYTHONPATH": str(src)}
            if blas is not None:
                run_env["OPENBLAS_NUM_THREADS"] = blas
            proc = subprocess.run(
                [sys.executable, "-m", "l1sketch.cli", "dist", str(path), "--epsilon", "0.5",
                 "--seed", "16", *threads, "--out", str(out)],
                capture_output=True, text=True, env=run_env,
            )
            assert proc.returncode == 0, proc.stderr
            digests[blas, " ".join(threads)] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("degree,threads", [(0, 2), (1, 1), (2, 2)])
def test_dist_stderr_names_the_threads_it_ran(tmp_path, capsys, monkeypatch, degree, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "family.json"
    save_family(random_segment_family(np.random.default_rng(35), 3, degree), str(path))
    out = tmp_path / "dist.csv"
    assert main(["dist", str(path), "--epsilon", "0.5", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(rf"dist: method=sketch m=3 threads={threads} wall_time_s=[0-9.]+\n", err), err
    assert "threads" not in out.read_text()
    assert main(["dist", str(path), "--method", "exact", "--out", str(out)]) == 0
    assert "method=exact m=3 threads=1 " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing/out.csv", "."])
@pytest.mark.parametrize(
    "argv",
    [["dist", "{family}", "--method", "exact"], ["sample", "ci1", "--count", "3"],
     ["sample", "cid", "--count", "3"], ["eval", "ci1-density", "--grid", "0:1:0.5"],
     ["eval", "density", "--input", "{family}", "--name", "a"],
     ["calibrate", "--d-max", "1", "--trials", "3"]],
)
def test_unwritable_out_exit_2(pair_family_path, tmp_path, capsys, monkeypatch, where, argv):
    # an output path in a missing directory, or at a directory, is refused
    # before any command loads, draws or computes
    def refuse(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    for name in ("run_scheme", "sample_ci1_unit", "sample_cid_approx_unit", "load_family",
                 "calibrate_c", "ci1_density"):
        monkeypatch.setattr(cli_mod, name, refuse)
    out = tmp_path / where
    code = main([a.format(family=pair_family_path) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_dist_mc_accepts_an_exact_family_far_from_the_origin(tmp_path):
    # its masses are taken in local coordinates, so they are 1, not 0.0
    off = 1e8
    ramp = density_from_pieces("ramp", [(off, off + 1.0, np.array([-2.0 * off, 2.0]))], 1)
    flat = density_from_pieces("flat", [(off, off + 1.0, np.array([1.0, 0.0]))], 1)
    path, out = tmp_path / "far.json", tmp_path / "d.csv"
    save_family(merge_breakpoints([ramp, flat]), str(path))
    assert main(["dist", str(path), "--method", "mc", "--epsilon", "0.1", "--out", str(out)]) == 0
    assert abs(float(out.read_text().splitlines()[-1].split(",")[1]) - 0.5) <= 0.1
