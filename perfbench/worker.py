"""Fresh-process worker for perfbench/run.py.

    python3 perfbench/worker.py setup FAMILY
        Import l1sketch, load and validate FAMILY and print ``ready``; the
        parent times the process up to that line.  Then print the seconds of
        ``CALIBRATION_LOOPS`` runs of the calibration loop and exit at once,
        skipping interpreter teardown.

    python3 perfbench/worker.py dist SPEC_JSON
        Call ``l1sketch.cli.main(["dist", ...])`` untimed for ``WARMUP_S``,
        then timed, each after runs of the calibration loop, until the time
        budget is used.  Each call writes its own output file.  Print one
        JSON report line.  With ``"trace": true`` untraced and traced calls
        alternate, and the report adds per-layer span totals plus a direct
        ``sketch_family(..., t=1)`` timing.

The parent sets PYTHONPATH to the checkout's ``src`` and pins BLAS threads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import tracing
from check import parse_dist_csv

CLI_CHILDREN = {"io.load", "densities.validate", "pipeline.run_scheme", "io.write"}
SKETCH_CHILDREN = {"randstream.stream", "ci1.density"}

#: Iterations of the calibration loop, 20-45 ms on a 2-core Xeon VM.
CALIBRATION_ITERATIONS = 5000

#: Runs of the calibration loop before each timed call and after each
#: set-up.  On that VM a single run took either about 22 or about 40 ms, at
#: random, while a call of 1-2 s saw the mean of the two speeds; a run's
#: normaliser is therefore the mean of many loops, not their median.
CALIBRATION_LOOPS = 4

#: Untimed calls before the timed ones.  In a fresh worker on a shared 2-core
#: machine the first 3-4 s of calls ran 12-20% slower than the rest.
WARMUP_S = 4.0


def _setup(family_path: str) -> None:
    import l1sketch.cli  # noqa: F401  (the import `l1sketch dist` pays)
    from l1sketch import densities, io as l1io

    densities.validate_family(l1io.load_family(family_path))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(" ".join(repr(t) for t in calibration_s(None)) + "\n")
    sys.stdout.flush()
    os._exit(0)


def _calibration_loop() -> float:
    x = np.arange(64.0)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        acc += float(np.sum(x * (i % 7))) + math.sqrt(i)
    return time.perf_counter() - start


def calibration_s(cpus: list[int] | None) -> list[float]:
    """Seconds of ``CALIBRATION_LOOPS`` runs of a fixed loop of Python
    arithmetic and small numpy calls, the mix ``dist`` spends its time in.
    It never changes with the program, so the ratio of a call's time to it
    cancels most of the host's changes of speed (see README).  With ``cpus``
    the runs are pinned to each of them in turn: a multi-threaded call runs
    on all of them, and on a shared host they need not run at the same
    speed."""
    if not cpus:
        return [_calibration_loop() for _ in range(CALIBRATION_LOOPS)]
    home = os.sched_getaffinity(0)
    times = []
    try:
        for i in range(CALIBRATION_LOOPS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            times.append(_calibration_loop())
    finally:
        os.sched_setaffinity(0, home)
    return times


def _sketch_setup_s(family_path: str, output: str) -> float:
    """Median seconds of three ``sketch_family(family, t=1)`` calls in the
    mode and seed of ``output``: weight build and interval maps plus one
    replicate.  0 for the exact oracle, which builds no sketch."""
    from l1sketch import io as l1io
    from l1sketch.cid import ApproxConfig
    from l1sketch.pipeline import sketch_family
    from l1sketch.randstream import RandomStream

    with open(output, encoding="utf-8") as handle:
        _, config, _, _ = parse_dist_csv(handle.read())
    if "mode" not in config:
        return 0.0
    family = l1io.load_family(family_path)
    approx = None
    if "epsilon_integration" in config:
        approx = ApproxConfig(family.degree, config["epsilon_integration"], r=config["r"])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sketch_family(family, 1, config["mode"], RandomStream(config["seed"]), approx_config=approx)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _call(cli, spec: dict, index: int, warmup: bool, recorder: tracing.Recorder | None) -> dict:
    """One ``dist`` call, traced when ``recorder`` is given."""
    out = os.path.join(spec["out_dir"], f"out{index}.csv")
    argv = ["dist", spec["family"], *spec["args"], "--seed", str(spec["seed"]), "--out", out]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        with recorder.install() if recorder else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a dead run
                code = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return {
        "seconds": end - start, "start": start, "end": end, "warmup": warmup,
        "traced": recorder is not None, "exit": code, "digest": digest, "out": out,
        "stderr": stderr.getvalue()[-400:],
    }


def _dist(spec: dict) -> dict:
    import l1sketch
    import l1sketch.cli as cli

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(l1sketch.__file__).startswith(src + os.sep):
        raise SystemExit(f"l1sketch imported from {l1sketch.__file__}, not {src}")

    cpus = None
    if spec["threads"] > 1:
        # run on as many CPUs as the call has threads, and calibrate on those
        cpus = sorted(os.sched_getaffinity(0))[: spec["threads"]]
        os.sched_setaffinity(0, cpus)
    recorder = tracing.Recorder()
    calls = []
    warm_until = time.perf_counter() + WARMUP_S
    while not calls or time.perf_counter() < warm_until:
        calls.append(_call(cli, spec, len(calls), True, None))
    timed = 0
    began = time.perf_counter()
    while True:
        traced = spec["trace"] and timed % 2 == 1
        calib = calibration_s(cpus)
        call = _call(cli, spec, len(calls), False, recorder if traced else None)
        call["calibration_s"] = calib
        calls.append(call)
        timed += 1
        used = time.perf_counter() - began
        if timed >= spec["min_calls"] and used + call["seconds"] > spec["seconds"]:
            break

    report = {
        "calls": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    if spec["trace"]:
        layers = []
        for call in calls:
            if not call["traced"]:
                continue
            spans = recorder.window(call["start"], call["end"])
            entry = tracing.totals(spans)
            cli_kids = tracing.intervals(spans, CLI_CHILDREN)
            sketches = tracing.intervals(spans, {"pipeline.sketch"})
            sketch_kids = tracing.intervals(spans, SKETCH_CHILDREN)
            entry["cli.self"] = {"s": tracing.self_seconds([(call["start"], call["end"])], cli_kids)}
            entry["pipeline.sketch_self"] = {"s": tracing.self_seconds(sketches, sketch_kids)}
            layers.append(entry)
        report["layers"] = layers
        report["missing_targets"] = sorted(set(recorder.missing))
        ok = [c["out"] for c in calls if c["exit"] == 0 and c["digest"]]
        report["sketch_setup_s"] = _sketch_setup_s(spec["family"], ok[0]) if ok else 0.0
    return report


def main(argv: list[str]) -> int:
    if argv[1] == "setup":
        _setup(argv[2])
    report = _dist(json.loads(argv[2]))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
