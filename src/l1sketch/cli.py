"""Command-line front end.

Subcommands: ``dist`` (all-pairs distances), ``sample`` (raw draws),
``eval`` (density values for plotting) and ``calibrate`` (discretization
constant).  ``dist`` picks its sampler by degree; its r-step sampler
(degree >= 2) and ``sample cid`` use midpoint nodes, so ``--c-constant``
(in ``dist``'s manifest) and the constant ``calibrate`` emits are the ``c``
of ``r = ceil(c d / sqrt(eps))``.  A command run without ``--seed`` reads
its seed from the ``L1SKETCH_SEED`` environment variable when it runs (0
when unset); a value that is not an integer exits 3.

Exit codes: 0 success, 2 parse/validation error, 3 parameter error,
4 internal invariant breach or a non-finite result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .ci1 import CHECKED_RADIUS, ci1_density, sample_ci1_unit
from .cid import SKETCH_NODES, ApproxConfig, calibrate_c, rescale_matrix, sample_cid_approx_unit
from .densities import eval_density
from .errors import EnvelopeDominationError, FamilyFormatError, NonFiniteResultError, ParameterError
from .io import build_manifest, load_family, manifest_line, matrix_to_csv, matrix_to_json
from .pipeline import _run_threads, run_scheme
from .randstream import RandomStream

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_PARAMETER = 3
EXIT_INTERNAL = 4

#: Most points a ``--grid`` may expand to.  Beyond it ``np.linspace`` fails
#: or exhausts memory; at it, ``eval density`` writes about 400 MB of CSV.
MAX_GRID_POINTS = 10**7

#: Most grid pairs ``eval ci1-density`` evaluates: it writes one line per
#: pair of the square of ``--grid``, 40-60 bytes each, so at the cap (a
#: grid of 3,162 points) up to about 600 MB of CSV.
MAX_DENSITY_PAIRS = 10**7

#: Most draws ``sample`` makes.  Draws are made in bounded groups and the
#: CSV is written in chunks, so what grows is the output, about 20 bytes a
#: value: at the cap about 40 MB for ``ci1`` and 340 MB for ``cid --d 16``.
MAX_SAMPLE_COUNT = 10**6

#: Rows formatted and written per block by ``eval`` and ``sample``, and
#: grid pairs per ``ci1_density`` call (whole grid rows, at least one).
_CHUNK_LINES = 1 << 16


def _default_seed() -> int:
    """The seed of a command run without ``--seed``: ``L1SKETCH_SEED``,
    read when the command runs, or 0 when unset or empty."""
    env = os.environ.get("L1SKETCH_SEED")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ParameterError(f"L1SKETCH_SEED must be an integer, got {env!r}") from exc


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an ``out`` that is a directory or whose
    directory is missing; :func:`_write` opens it once the output is ready."""
    if out in (None, "-"):
        return
    if os.path.isdir(out):
        raise OSError(f"--out {out!r} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise OSError(f"--out {out!r}: its directory does not exist")


def _write(chunks, out: str | None) -> None:
    """Write the text chunks in order to ``out``, or to stdout for None or "-"."""
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _csv(header: list[str], blocks):
    """CSV text chunks: the ``header`` lines, then one line per row of each
    2-D array in ``blocks``, its values' ``repr`` joined by commas."""
    yield "".join(line + "\n" for line in header)
    for block in blocks:
        yield "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _blocks(table: np.ndarray):
    """The rows of ``table`` in blocks of at most :data:`_CHUNK_LINES`."""
    return (table[g0 : g0 + _CHUNK_LINES] for g0 in range(0, len(table), _CHUNK_LINES))


def _parse_grid(spec: str, square: bool = False) -> np.ndarray:
    """The points of ``lo:hi:step``; with ``square``, the axis of a grid of
    pairs, refused beyond :data:`MAX_DENSITY_PAIRS` pairs or when its
    farthest pair lies beyond :data:`l1sketch.ci1.CHECKED_RADIUS`."""
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise ParameterError(f"bad grid spec {spec!r}, expected lo:hi:step") from exc
    if step <= 0 or hi <= lo:
        raise ParameterError(f"bad grid spec {spec!r}: need lo < hi and step > 0")
    if not all(math.isfinite(v) for v in (lo, hi, step, (hi - lo) / step)):
        raise ParameterError(f"bad grid spec {spec!r}: need finite lo, hi, step and (hi - lo)/step")
    radius = math.sqrt(2.0) * max(abs(lo), abs(hi))  # the farthest pair's
    if square and radius > CHECKED_RADIUS:
        raise ParameterError(
            f"grid spec {spec!r} reaches radius {radius:.9g}, beyond "
            f"{CHECKED_RADIUS:g}, the radius ci1_density is checked to"
        )
    count = int(round((hi - lo) / step)) + 1
    if count > MAX_GRID_POINTS:
        raise ParameterError(f"grid spec {spec!r} gives {count} points, more than {MAX_GRID_POINTS}")
    if square and count * count > MAX_DENSITY_PAIRS:
        raise ParameterError(
            f"grid spec {spec!r} gives {count}**2 = {count * count} pairs, "
            f"more than {MAX_DENSITY_PAIRS}"
        )
    return np.linspace(lo, hi, count)


def _parse_points(spec: str) -> np.ndarray:
    try:
        xs = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise ParameterError(f"bad --points {spec!r}, expected comma-separated numbers") from exc
    if not np.isfinite(xs).all():
        raise ParameterError(f"bad --points {spec!r}: every point must be finite")
    return xs


def cmd_dist(args) -> int:
    family, digest = load_family(args.input, with_digest=True)
    if args.format == "csv":
        for name in family.names:
            # a name in the CSV header and at the start of its row
            if name.startswith("#") or any(c in name for c in ",\n\r"):
                raise ParameterError(
                    f"density name {name!r} cannot be written as CSV (it holds a comma or a "
                    "line break, or starts with '#'); use --format json"
                )
    threads = _run_threads(args.threads, args.method, family.degree)
    start = time.perf_counter()
    dm = run_scheme(
        family,
        epsilon=args.epsilon,
        delta=args.delta,
        method=args.method,
        seed=args.seed,
        threads=threads,
        c_constant=args.c_constant,
    )
    elapsed = time.perf_counter() - start
    manifest = build_manifest(
        "dist",
        {
            "method": args.method,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "c_constant": args.c_constant,
            "format": args.format,
        },
        seed=args.seed,
        input_digest=digest,
    )
    text = matrix_to_csv(dm, manifest) if args.format == "csv" else matrix_to_json(dm, manifest)
    _write((text,), args.out)
    # the thread count depends on the host, so it stays out of the output
    print(
        f"dist: method={args.method} m={family.m} threads={threads} wall_time_s={elapsed:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.count > MAX_SAMPLE_COUNT:
        raise ParameterError(f"count must be at most {MAX_SAMPLE_COUNT}, got {args.count}")
    rng = RandomStream(args.seed)
    params = {"kind": args.kind, "count": args.count, "a": args.a, "b": args.b,
              "d": None, "r": None, "nodes": None}
    # each kind's map to [a, b], refused before any draw unless finite
    if args.kind == "ci1":
        rescale = rescale_matrix(1, args.a, args.b)
        z = sample_ci1_unit(rng, size=args.count).T
    else:
        cfg = ApproxConfig(
            d=args.d,
            epsilon_integration=args.eps_int,
            c_constant=args.c_constant,
            r=args.r,
            nodes=SKETCH_NODES,
        )
        # the resolved r: with d, nodes and the seed it fixes the draws
        params.update(d=cfg.d, r=cfg.r, nodes=cfg.nodes)
        rescale = rescale_matrix(cfg.d, args.a, args.b)
        z = sample_cid_approx_unit(cfg, rng, size=args.count)
    if args.a != 0.0 or args.b != 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            z = z @ rescale.T
        if not np.isfinite(z).all():
            raise NonFiniteResultError("rescaled draws are not finite")
    manifest = build_manifest("sample", params, args.seed, None)
    header = [manifest_line(manifest), ",".join(f"x{k}" for k in range(z.shape[1]))]
    _write(_csv(header, _blocks(z)), args.out)
    return EXIT_OK


def _ci1_density_blocks(axis: np.ndarray):
    """``(x0, x1, value)`` rows for the pairs of the grid ``axis`` x
    ``axis``, row by row, one :func:`ci1_density` call per block of whole
    grid rows."""
    n = axis.size
    rows = max(_CHUNK_LINES // n, 1)
    for r0 in range(0, n, rows):
        block = axis[r0 : r0 + rows]
        x0, x1 = np.repeat(block, n), np.tile(axis, block.size)
        yield np.column_stack([x0, x1, ci1_density(x0, x1)])


def cmd_eval(args) -> int:
    if args.target == "ci1-density":
        axis = _parse_grid(args.grid, square=True)
        manifest = build_manifest("eval", {"target": args.target, "grid": args.grid}, 0, None)
        header = [manifest_line(manifest), "x0,x1,value"]
        _write(_csv(header, _ci1_density_blocks(axis)), args.out)
        return EXIT_OK
    family, digest = load_family(args.input, with_digest=True)
    names = {d.name: d for d in family.densities}
    if args.name not in names:
        raise ParameterError(f"density {args.name!r} not in family {sorted(names)}")
    dens = names[args.name]
    xs = _parse_grid(args.grid) if args.points is None else _parse_points(args.points)
    vals = eval_density(dens, family.breakpoints, xs)
    manifest = build_manifest(
        "eval",
        {"target": args.target, "name": args.name, "grid": args.grid, "points": args.points},
        0,
        digest,
    )
    header = [manifest_line(manifest), "x,value"]
    _write(_csv(header, _blocks(np.column_stack([xs, vals]))), args.out)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    result = calibrate_c(
        args.d_max, args.eps, args.trials, RandomStream(args.seed), nodes=SKETCH_NODES
    )
    manifest = build_manifest(
        "calibrate",
        {"d_max": args.d_max, "eps": args.eps, "trials": args.trials},
        seed=args.seed,
        input_digest=None,
    )
    doc = {
        "c": result.c,
        "nodes": result.nodes,
        "per_degree": {str(d): r for d, r in result.per_degree_r.items()},
        "target_eps": result.target_eps,
        "trials": result.trials,
        "safety_factor": result.safety_factor,
        "manifest": manifest,
    }
    _write((json.dumps(doc, indent=2) + "\n",), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l1sketch", description=__doc__)
    parser.add_argument("--version", action="version", version=f"l1sketch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="all-pairs L1 distance matrix")
    p.add_argument("input", help="family JSON file")
    p.add_argument("--method", choices=["exact", "sketch", "mc"], default="sketch")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument(
        "--threads", type=int, default=None,
        help="sketch worker threads (default: every CPU the process may use, "
        "but 1 at degree 1 and for --method exact or mc); output bytes do not depend on it",
    )
    p.add_argument(
        "--c-constant", type=float, default=None,
        help="c in r = ceil(c d / sqrt(eps_int)) of the midpoint r-step sampler",
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("sample", help="raw integral-vector draws as CSV")
    p.add_argument("kind", choices=["ci1", "cid"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--d", type=int, default=2, help="degree (cid only)")
    p.add_argument("--r", type=int, default=None, help="discretization steps (cid only)")
    p.add_argument("--eps-int", type=float, default=0.05, help="derives r when --r is absent")
    p.add_argument(
        "--c-constant", type=float, default=None, help="c in r = ceil(c d / sqrt(eps_int))"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="density values as CSV (plot-ready)")
    p.add_argument("target", choices=["ci1-density", "density"])
    p.add_argument("--grid", default="-3:3:0.05", help="lo:hi:step")
    p.add_argument("--input", default=None, help="family JSON (density target)")
    p.add_argument("--name", default=None, help="density name (density target)")
    p.add_argument("--points", default=None, help="comma-separated x values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="calibrate the midpoint discretization constant")
    p.add_argument("--d-max", type=int, default=5)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    return parser


def _normalize_argv(argv):
    """Fuse value-carrying flags with leading-dash values (e.g. --grid -3:3:0.05)."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--points", "--a", "--b") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


#: The parser, built once at import: ``main`` reuses it on every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(_normalize_argv(argv))
    if args.command == "eval" and args.target == "density":
        missing = [flag for flag in ("--input", "--name") if getattr(args, flag[2:]) is None]
        if missing:
            _PARSER.error(f"eval density needs {' and '.join(missing)}")
    try:
        if args.command != "eval" and args.seed is None:
            args.seed = _default_seed()
        _check_out(args.out)
        return args.func(args)
    except (FamilyFormatError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except EnvelopeDominationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NonFiniteResultError as exc:
        print(f"error: {exc}; nothing written", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
