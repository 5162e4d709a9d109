"""Benchmark of ``l1sketch dist`` on generated families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each run generates its workload's family from ``--seed``
and computes reference distances.  Untraced, it then times fresh-process
set-up ``SETUP_REPEATS`` times.  One fresh worker process
calls ``l1sketch.cli.main(["dist", ...])``, first untimed to warm up, then
timed until ``--seconds`` are used.  Every call's output is checked; the last
stdout line is the JSON result.  With ``--trace 1`` the timed calls alternate
between untraced and traced, and the result holds the per-layer metrics
instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from check import accuracy_bounds, check_matrix, parse_dist_csv
from workloads import WORKLOADS, family_json, generate_family, reference_distances

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
#: Seconds of the calibration loop on the 2-core Xeon VM the benchmark was
#: built on; ``setup_s`` is given in seconds of a host that runs it this fast.
CALIBRATION_REFERENCE_S = 0.035
RUN_DEADLINE_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"dist_norm": "calib", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "io.load_s": "s",
    "io.write_s": "s",
    "densities.validate_s": "s",
    "densities.exact_s": "s",
    "poly.integrate_abs_calls": "count",
    "poly.integrate_abs_s": "s",
    "pipeline.run_scheme_s": "s",
    "pipeline.sketch_s": "s",
    "pipeline.sketch_self_s": "s",
    "pipeline.sketch_setup_s": "s",
    "pipeline.estimate_s": "s",
    "pipeline.estimator_calls": "count",
    "pipeline.max_rel_err": "ratio",
    "randstream.streams": "count",
    "randstream.stream_s": "s",
    "ci1.density_points": "count",
    "ci1.density_s": "s",
    "ci1.points_per_draw": "points/draw",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    """The run could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


def environment(thread_env: dict) -> dict:
    """Where the run happened; ``thread_env`` is what the worker saw."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **thread_env,
    }


def time_setup(family_path: Path, deadline: float) -> tuple[float, list[float]]:
    """Seconds from starting a fresh process to its family being validated,
    and the seconds of the calibration loops that the process runs right
    after.  Its teardown is not timed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker(["setup", str(family_path)]), stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if not ready:
            raise RunError(f"set-up process passed the {RUN_DEADLINE_S:.0f} s run deadline")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"set-up process passed the {RUN_DEADLINE_S:.0f} s run deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    try:
        calibrations = [float(x) for x in rest.split()]
    except ValueError:
        calibrations = []
    if line.strip() != b"ready" or proc.returncode != 0 or not calibrations:
        raise RunError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed, calibrations


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with a share ``p`` of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def reference_for(family, family_path: Path) -> np.ndarray:
    if family.degree <= 1:
        return reference_distances(family)
    # degree 2: the program's own oracle at small m (see README)
    from l1sketch import densities, io as l1io

    return densities.exact_all_pairs(l1io.load_family(str(family_path))).entries


def check_calls(calls: list[dict], reference: np.ndarray) -> tuple[int, float, dict | None]:
    """Failed-call count, worst relative error and the first call's config.

    A call fails on a nonzero exit, on any check problem, or when its output
    bytes differ from the first call's (the determinism contract)."""
    failed, worst, config = 0, 0.0, None
    checked: dict[str, list[str]] = {}
    for call in calls:
        if call["exit"] != 0 or call["digest"] is None:
            problems = [f"exit {call['exit']}: {call['stderr'].strip()}"]
        elif call["digest"] != calls[0]["digest"]:
            problems = ["output bytes differ from the run's first call"]
        else:
            if call["digest"] not in checked:
                try:
                    method, cfg, names, matrix = parse_dist_csv(Path(call["out"]).read_text())
                    upper, lower = accuracy_bounds(method, cfg)
                    checked[call["digest"]], rel = check_matrix(matrix, names, reference, upper, lower)
                    worst = max(worst, rel)
                    config = config or cfg
                except (ValueError, KeyError) as exc:
                    checked[call["digest"]] = [f"unreadable output: {exc}"]
            problems = checked[call["digest"]]
        if problems:
            failed += 1
            print(f"  call failed: {'; '.join(problems)}", file=sys.stderr)
    return failed, worst, config


def layer_metrics(report: dict, worst: float, config: dict | None, family) -> dict:
    layers = report["layers"]

    def med(layer: str, key: str = "s") -> float:
        return statistics.median(entry.get(layer, {}).get(key, 0) for entry in layers)

    points = med("ci1.density", "amount")
    exact_ci1 = config is not None and config.get("mode") == "exact_ci1"
    draws = config["t"] * family.intervals if exact_ci1 else 0
    timed = [c for c in report["calls"] if not c["warmup"]]
    times = {flag: [c["seconds"] for c in timed if c["traced"] is flag] for flag in (True, False)}
    return {
        "io.load_s": med("io.load"),
        "io.write_s": med("io.write"),
        "densities.validate_s": med("densities.validate"),
        "densities.exact_s": med("densities.exact"),
        "poly.integrate_abs_calls": med("poly.integrate_abs", "calls"),
        "poly.integrate_abs_s": med("poly.integrate_abs"),
        "pipeline.run_scheme_s": med("pipeline.run_scheme"),
        "pipeline.sketch_s": med("pipeline.sketch"),
        "pipeline.sketch_self_s": med("pipeline.sketch_self"),
        "pipeline.sketch_setup_s": report["sketch_setup_s"],
        "pipeline.estimate_s": med("pipeline.estimate"),
        "pipeline.estimator_calls": med("pipeline.estimator", "calls"),
        "pipeline.max_rel_err": worst,
        "randstream.streams": med("randstream.stream", "calls"),
        "randstream.stream_s": med("randstream.stream"),
        "ci1.density_points": points,
        "ci1.density_s": med("ci1.density"),
        "ci1.points_per_draw": points / draws if draws else 0.0,
        "cli.self_s": med("cli.self"),
        "trace.overhead_s": statistics.median(times[True]) - statistics.median(times[False]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        family = generate_family(workload, seed)
        text = family_json(family).encode()
        family_path = work_dir / "family.json"
        family_path.write_bytes(text)
        reference = reference_for(family, family_path)

        setups = [time_setup(family_path, deadline) for _ in range(0 if trace else SETUP_REPEATS)]
        spec = {
            "family": str(family_path),
            "args": list(workload.dist_args),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "threads": workload.threads,
            "min_calls": 2 if trace else 1,
            "out_dir": str(work_dir),
        }
        try:
            proc = subprocess.run(
                _worker(["dist", json.dumps(spec)]), capture_output=True, text=True,
                env=_worker_env(), cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"worker passed the {RUN_DEADLINE_S:.0f} s run deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        calls = report["calls"]
        failed, worst, config = check_calls(calls, reference)

        timed = [c for c in calls if not c["warmup"]]
        times = [c["seconds"] for c in timed]
        calibration = statistics.mean(t for c in timed for t in c["calibration_s"])
        if trace:
            metrics = layer_metrics(report, worst, config, family)
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "dist_norm": statistics.median(times) / calibration,
                "setup_s": CALIBRATION_REFERENCE_S * statistics.median(s for s, _ in setups)
                / statistics.mean(c for _, cs in setups for c in cs),
                "peak_rss_mb": report["peak_rss_mb"],
            }
            units = END_TO_END_UNITS
        result = {
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        details = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "environment": environment(report["thread_env"]),
            "family": {
                "sha256": hashlib.sha256(text).hexdigest(),
                "bytes": len(text),
                "m": family.m,
                "intervals": family.intervals,
                "degree": family.degree,
            },
            "dist_args": list(workload.dist_args) + ["--seed", str(seed)],
            "t": config.get("t") if config else None,
            "calls": [
                {k: c.get(k) for k in ("seconds", "calibration_s", "warmup", "traced", "exit", "digest")}
                for c in calls
            ],
            "output_sha256": sorted({c["digest"] for c in calls if c["digest"]}),
            "setup_s_samples": [s for s, _ in setups],
            "setup_calibration_s": [cs for _, cs in setups],
            # reported, not gated: their run-to-run spread exceeded 0.25 (README)
            "setup_raw_s": statistics.median(s for s, _ in setups) if setups else None,
            "dist_s": statistics.median(times),
            "dist_s_p90": percentile(times, 0.9),
            "calibration_s": calibration,
            "max_rel_err": worst,
            "missing_trace_targets": report.get("missing_targets", []),
            "result": result,
        }
        (WORK / "results").mkdir(exist_ok=True)
        out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(details, indent=2) + "\n")
        return details
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def describe(details: dict) -> None:
    """Human-readable summary on stdout, before the result line."""
    fam, env = details["family"], details["environment"]
    print(f"workload {details['workload']} seed {details['seed']} trace {int(details['trace'])}")
    print(
        f"  family sha256 {fam['sha256']} ({fam['bytes']} bytes, m={fam['m']}, "
        f"{fam['intervals']} intervals, degree {fam['degree']}), t={details['t']}"
    )
    print("  environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  dist output sha256 {' '.join(details['output_sha256'])}")
    if details["missing_trace_targets"]:
        print(f"  trace targets not found: {', '.join(details['missing_trace_targets'])}")
    result = details["result"]
    for key, metric in result["metrics"].items():
        print(f"  {key:26s} {metric['value']:.6g} {metric['unit']}")
    if not details["trace"]:
        for key in ("dist_s", "dist_s_p90", "calibration_s", "setup_raw_s"):
            print(f"  {key + ' (not gated)':26s} {details[key]:.6g} s")
    print(f"  failed {result['failed']} of {result['attempted']} calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "l1sketch" / "__init__.py").is_file():
        print(f"error: no l1sketch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import l1sketch.cli  # noqa: F401  (fails early on a broken program; warms bytecode)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for details in runs:
        describe(details)
    if args.workload != "all":
        print(json.dumps(runs[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
