"""Benchmark of the homsuper library and CLI.

    python3 benchmarks/run.py --workload {decide,ladder,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ./src and
the corpus read from ./corpus.  The benchmark is one process with one
caller in a closed loop: it sends the next request only when the last one
has returned.  Inputs come from the seed alone.  The run goes through
blocks of requests until the timed calls add up to --seconds (at reference
speed, see below) and at least MIN_REQUESTS requests are done.  Generating,
loading, validating and judging happen outside the timed calls; a wrong
result fails the run (exit 1, "correct": false).

Times are reported at reference speed (see calib.py): the calibration
runs right before and right after every timed call, and the call's wall
time is scaled by CAL_REF_S over the mean of the two.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 it reports per-layer metrics: the run measures half of --seconds
untraced, then replays the same blocks with spans.Tracer installed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from calib import CAL_REF_S, calibrate  # noqa: E402
from workloads import WORKLOADS, GateFailure  # noqa: E402

MIN_REQUESTS = 100
SETUP_SAMPLES = 9
LIB_MODULES = ("linalg", "core", "factorset", "isoclinism", "fileio", "cli", "errors")


def import_library() -> SimpleNamespace:
    """The homsuper modules, imported from ./src."""
    pkg = importlib.import_module("homsuper")
    src = (ROOT / "src").resolve()
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise ImportError(f"homsuper was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"homsuper.{m}") for m in LIB_MODULES})


class Stats:
    """Per-request latencies at reference speed and per-run outcomes."""

    def __init__(self):
        self.latencies = []
        self.runs = 0
        self.timed = 0.0
        self.outcomes = Counter()
        self.errors = Counter()

    def ratio(self, outcome):
        return self.outcomes[outcome] / self.runs


def _run(workload, lib, reqs, stats, tracer):
    """Time each ready request once, scaled to reference speed."""
    workload.load(lib, reqs)
    workload.prepare(lib, reqs)
    clock = time.perf_counter
    for r in reqs:
        if not workload.ready(r):
            continue
        error = None
        before = calibrate()
        if tracer is not None:
            tracer.on = True
        t0 = clock()
        try:
            result = workload.call(lib, r)
        except Exception as exc:  # counted as an error; the run goes on
            error = exc
        dt = clock() - t0
        if tracer is not None:
            tracer.on = False
        after = calibrate()
        if error is not None:
            r.last = "error"
            stats.errors[f"{r.kind}: {type(error).__name__}"] += 1
        else:
            r.last = workload.judge(lib, r, result)
            if r.last == "error":
                stats.errors[f"{r.kind}: exit 1"] += 1
        stats.runs += 1
        stats.timed += dt
        stats.outcomes[r.last] += 1
        stats.latencies.append(dt * CAL_REF_S / ((before + after) / 2))


def measure(workload, lib, seconds, min_requests=MIN_REQUESTS, blocks=None,
            tracer=None, between=None):
    """Run blocks until the timed calls add up to `seconds` at reference
    speed and `min_requests` requests are done, or exactly `blocks` blocks;
    call `between()` after each block.  Counting at reference speed makes
    the number of blocks the same however fast the machine runs."""
    stats = Stats()
    done = 0
    for block in workload.blocks():
        _run(workload, lib, block, stats, tracer)
        if between is not None:
            between()
        done += 1
        if blocks is not None:
            if done >= blocks:
                break
        elif sum(stats.latencies) >= seconds and len(stats.latencies) >= min_requests:
            break
    return stats, done


#: Set-up as a user's process pays it: a fresh interpreter imports homsuper
#: and loads the input files through fileio.  Then, untimed, the child
#: calibrates, since it may run at another speed than its parent.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from homsuper import fileio
for path in sys.argv[3:]:
    fileio.load_algebra(path)
print(time.perf_counter() - t0)
sys.path.insert(0, sys.argv[2])
import statistics
from calib import calibrate
print(statistics.median(calibrate() for _ in range(15)))
"""


def setup_sample(paths) -> float:
    """Seconds to import homsuper and load `paths`, in a child process,
    at reference speed."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"),
                           str(HERE), *paths],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    seconds, calibration = map(float, proc.stdout.split())
    return seconds * CAL_REF_S / calibration


def end_to_end(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    paths = sorted({path for r in next(workload.blocks()) for path in r.files})
    samples = [setup_sample(paths)]
    lib = import_library()
    stats, _ = measure(workload, lib, args.seconds,
                       between=lambda: samples.append(setup_sample(paths)))
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_sample(paths))
    lat = stats.latencies
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "answered_ratio": (stats.ratio("ok"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return stats, metrics


def per_layer(args, workdir):
    lib = import_library()
    untraced, blocks = measure(WORKLOADS[args.workload](args.seed, workdir), lib,
                               args.seconds / 2, min_requests=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, _ = measure(WORKLOADS[args.workload](args.seed, workdir), lib,
                            args.seconds, blocks=blocks, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced.timed)
    metrics["trace.overhead_ratio"] = (sum(untraced.latencies) / sum(traced.latencies), "ratio")
    metrics["requests.inconclusive_ratio"] = (traced.ratio("inconclusive"), "ratio")
    metrics["requests.error_ratio"] = (traced.ratio("error"), "ratio")
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "homsuper").is_dir():
        print(f"no homsuper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    correct = True
    try:
        stats, metrics = (per_layer if args.trace else end_to_end)(args, str(workdir))
    except GateFailure as exc:
        print(f"correctness failure: {exc}", file=sys.stderr)
        correct, stats, metrics = False, None, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if stats is not None:
        print(f"{args.workload} seed {args.seed}: {len(stats.latencies)} requests, "
              f"{stats.runs} runs, {dict(stats.outcomes)}, errors {dict(stats.errors)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": stats.runs if stats else 1,
        "failed": stats.outcomes["error"] if stats else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
