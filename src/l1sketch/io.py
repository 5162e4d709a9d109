"""File formats: the JSON family format, distance-matrix output, manifests.

Family format::

    {"degree": d,
     "breakpoints": [a_0, ..., a_{s-1}],
     "densities": [{"name": str,
                    "segments": [{"b": int, "c": int, "coeffs": [...]}]}]}

Breakpoint indices are 0-based and segments cover half-open intervals
``[a_b, a_c)``.  Numbers are written with Python's shortest round-trip
formatting, so canonicalized files are stable across platforms.

Distance matrices are written as CSV (header row of density names, manifest
in leading ``#`` comment lines) or as JSON with ``names``/``matrix`` keys
plus the embedded manifest.  Manifests record command, parameters, seed,
artifact version, and an input content digest; wall time is reported on
stderr instead so that reruns with identical parameters are byte-identical.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
from typing import Any

import numpy as np

from . import __version__
from .densities import Breakpoints, DensityFamily, PiecewisePolyDensity, check_degree
from .errors import FamilyFormatError
from .pipeline import DistanceMatrix


def family_to_dict(family: DensityFamily) -> dict:
    return {
        "degree": family.degree,
        "breakpoints": family.breakpoints.points.tolist(),
        "densities": [
            {
                "name": dens.name,
                "segments": [
                    {"b": b, "c": c, "coeffs": row}
                    for b, c, row in zip(dens.b.tolist(), dens.c.tolist(), dens.coeffs.tolist())
                ],
            }
            for dens in family.densities
        ],
    }


#: Python types of JSON numbers; a boolean, though an int in Python, is not one.
_NUMBER = {int, float}


def _typed(values, types: set, what: str):
    """``values``, a list, if every one's type is in ``types``; otherwise
    :class:`FamilyFormatError` names ``what`` and the first bad value.  A
    value of another JSON type is refused, never truncated or cast, and the
    check is one pass over the list, not one per value."""
    if not set(map(type, values)) <= types:
        bad = next(v for v in values if type(v) not in types)
        raise FamilyFormatError(f"{what}, got {bad!r}")
    return values


def family_from_dict(doc: Any) -> DensityFamily:
    """Parse a family document: each density's segments go straight into
    its table, and every check runs on the arrays.  ``degree``, ``b`` and
    ``c`` must be JSON integers, and breakpoints and coefficients JSON
    numbers, as :func:`family_to_dict` writes them.  A density whose rows
    all hold ``degree + 1`` numbers gets its coefficient array from the
    flat list of its entries, one conversion of the numbers the type check
    has already walked; other rows go to the table as lists, whose check
    names ragged rows and wrong lengths."""
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    try:
        (degree,) = _typed([doc["degree"]], {int}, "degree must be an integer")
        check_degree(degree)
        points = _typed(doc["breakpoints"], _NUMBER, "breakpoints must be numbers")
        bp = Breakpoints(np.asarray(points, dtype=float))
        densities = []
        for dd in doc["densities"]:
            (name,) = _typed([dd["name"]], {str}, "density name must be a string")
            segs = dd["segments"]
            seg = f"density {name!r}: segment"
            rows = _typed([sd["coeffs"] for sd in segs], {list}, f"{seg} coeffs must be lists")
            entries = list(itertools.chain.from_iterable(rows))
            _typed(entries, _NUMBER, f"{seg} coeffs must be numbers")
            b, c = (
                _typed([sd[key] for sd in segs], {int}, f"{seg} index {key!r} must be an integer")
                for key in ("b", "c")
            )
            coeffs = rows  # ragged or mis-sized rows: the table reports them
            if set(map(len, rows)) == {degree + 1}:
                coeffs = np.array(entries, dtype=float).reshape(len(rows), degree + 1)
            dens = PiecewisePolyDensity(name, b, c, coeffs, degree)
            # JSON admits NaN and Infinity
            if not np.isfinite(dens.coeffs).all():
                raise FamilyFormatError(f"{seg} coefficients must be finite")
            densities.append(dens)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, FamilyFormatError):
            raise
        raise FamilyFormatError(f"malformed family document: {exc}") from exc
    return DensityFamily(bp, densities, degree)


def family_to_json(family: DensityFamily) -> str:
    return json.dumps(family_to_dict(family), indent=2) + "\n"


def family_from_json(text: str) -> DensityFamily:
    """Parse a family file's text, with the cyclic garbage collector paused:
    the document holds no reference cycles, so a collection would only walk
    its new lists and dicts (``json.loads`` of the 8.8 MB ``d0-wide``
    benchmark file, first call in a fresh process: 150 ms with it running,
    129 ms paused, medians of 16 on a 2-vCPU VM).  The caller's collector
    state is restored, also on error; a disabled collector stays disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return family_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    finally:
        if enabled:
            gc.enable()


def load_family(path: str, with_digest: bool = False):
    """The family in the file at ``path``; with ``with_digest``, also the
    sha256 of the bytes parsed.  The file is read once.  An unreadable path
    or bytes that are not UTF-8 raise :class:`FamilyFormatError`."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise FamilyFormatError(f"cannot read family file {path!r}: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FamilyFormatError(
            f"family file is not UTF-8: byte {exc.start} ({raw[exc.start:exc.start + 1]!r})"
        ) from exc
    family = family_from_json(text)
    return (family, sha256_digest(raw)) if with_digest else family


def save_family(family: DensityFamily, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(family_to_json(family))


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_manifest(command: str, parameters: dict, seed: int, input_digest: str | None) -> dict:
    """Run provenance embedded in every output.

    Deliberately excludes wall time and runtime-only knobs such as thread
    count: identical manifests imply identical output bytes for any
    ``--threads`` and BLAS thread count on one numpy build, SIMD level and
    BLAS kernel.  Across those, sketch outputs differ in their last bits
    (numpy's transcendental functions and OpenBLAS's kernels round
    otherwise; up to 1.1e-11 relative measured on the benchmark families).
    """
    return {
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "seed": seed,
        "artifact_version": __version__,
        "input_digest": input_digest,
    }


def manifest_line(manifest: dict) -> str:
    """The ``# manifest: `` comment line that heads every CSV output."""
    return "# manifest: " + json.dumps(manifest, sort_keys=True)


def matrix_to_json(dm: DistanceMatrix, manifest: dict) -> str:
    doc = {
        "names": dm.names,
        "matrix": dm.entries.tolist(),
        "method": dm.method,
        "config": _jsonable(dm.config),
        "manifest": manifest,
    }
    return json.dumps(doc, indent=2) + "\n"


def matrix_to_csv(dm: DistanceMatrix, manifest: dict) -> str:
    lines = [manifest_line(manifest)]
    lines.append(f"# method: {dm.method}")
    lines.append(f"# config: {json.dumps(_jsonable(dm.config), sort_keys=True)}")
    lines.append(",".join(["name"] + dm.names))
    # one row's floats at a time: a whole-matrix tolist() made a warm d0-wide
    # dist call fault in about 1 MB more (268 minor faults at m = 100)
    for name, row in zip(dm.names, dm.entries):
        lines.append(",".join([name] + [repr(v) for v in row.tolist()]))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
