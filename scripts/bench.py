#!/usr/bin/env python3
"""Benchmark a base commit against the working tree and record BENCH_<n>.json.

    python3 scripts/bench.py --workload ladder --seeds 101-110 [--seconds 11]
        [--trace 0] [--base HEAD] [--probe] [--output BENCH_<n>.json]

The base commit is extracted with `git archive` into a temporary
directory; the working tree is run in place.  For each seed, the two
sides run `benchmarks/run.py` with the same arguments, one after the
other, and the side that runs first alternates from seed to seed.  Any
run that exits nonzero or reports "correct": false stops the script.

The script prints, per workload and metric, each side's median and
quartiles and the number of pairs the working tree won (ties count for
neither side; `BENCHMARK.json` says which direction is better), plus the
number of requests each run made and its wall time in seconds, `wall_s`
(lower is better).  A run stops once its timed calls reach --seconds at
reference speed, so a faster tree runs more blocks, and more untimed
generation, loading and gating, in a longer wall time.  With --trace 1 it adds each count and
time divided by that number, as `<metric>.per_request`.  With
--probe it also runs `benchmarks/probe.py` once on each side.  The
results are appended as entries to the output file, by default a new
BENCH_<n>.json at the repository root.  Nothing under benchmarks/ is
written.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESCRIPTION = (
    "Entries of scripts/bench.py: benchmarks/run.py on the base commit and the change, "
    "alternating which runs first; medians and quartiles per metric; wins = pairs in "
    "which the change was better. A change marked dirty is the uncommitted working "
    "tree on top of that commit. Entries marked transcribed were copied from CHANGES.md.")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, dest: Path):
    """Write the tree of `rev` into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Metric name -> value of one run of benchmarks/run.py in tree."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not report.get("correct"):
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr}{proc.stdout}")
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    if trace:
        # a faster tree runs more blocks in the same reference time, so
        # per-layer totals compare only per request
        for name in list(metrics):
            if name.endswith((".calls", "self_s", "total_s", ".candidates")):
                metrics[f"{name}.per_request"] = metrics[name] / report["attempted"]
    return {"requests": report["attempted"], "wall_s": wall, **metrics}


def run_probe(tree: Path, scratch: Path) -> dict:
    """Row name -> probe row of benchmarks/probe.py in tree."""
    out = scratch / "probe.json"
    subprocess.run([sys.executable, "benchmarks/probe.py", "--output", str(out)],
                   cwd=tree, capture_output=True, text=True, check=True)
    rows = json.loads(out.read_text())["rows"]
    return {row["row"]: row for row in rows}


def summary(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def directions() -> dict:
    """Metric name -> (unit, better): those of BENCHMARK.json, and the wall
    time of a run, which this script measures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"wall_s": ("s", "lower"),
            **{m["name"]: (m["unit"], m["better"])
               for m in spec["end_to_end"] + spec["per_layer"]}}


def compare(workload: str, base: list, change: list) -> dict:
    """Per-metric medians, quartiles and wins of the change over the base."""
    units = directions()
    out = {}
    for name in base[0]:
        unit, better = units.get(name.removesuffix(".per_request"), ("count", "higher"))
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = -1 if better == "lower" else 1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        out[name] = {"unit": unit, "better": better, "base": summary(b),
                     "change": summary(c), "wins": wins, "pairs": len(b)}
        print(f"{workload:7s} {name:44s} base {out[name]['base']['median']:12.5g} "
              f"[{out[name]['base']['q1']:.5g}, {out[name]['base']['q3']:.5g}]  "
              f"change {out[name]['change']['median']:12.5g} "
              f"[{out[name]['change']['q1']:.5g}, {out[name]['change']['q3']:.5g}]  "
              f"wins {wins}/{len(b)}", flush=True)
    return out


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def next_output() -> Path:
    taken = [int(p.stem.split("_")[1]) for p in ROOT.glob("BENCH_*.json")
             if p.stem.split("_")[1].isdigit()]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload of benchmarks/run.py; repeat for several")
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 101-110")
    parser.add_argument("--seconds", type=float, default=11)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--probe", action="store_true", help="also run benchmarks/probe.py")
    parser.add_argument("--output", type=Path, help="file to append the entries to")
    args = parser.parse_args(argv)
    base_rev = git("rev-parse", args.base)
    change = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    seeds = seed_range(args.seeds)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        base_tree.mkdir()
        extract(base_rev, base_tree)
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for n, seed in enumerate(seeds):
                order = ("base", "change") if n % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    runs[side].append(run_benchmark(tree, workload, seed, args.seconds,
                                                    args.trace))
            entries.append({"kind": "workload", "workload": workload, "seeds": seeds,
                            "seconds": args.seconds, "trace": args.trace,
                            "metrics": compare(workload, runs["base"], runs["change"])})
        if args.probe:
            base_rows = run_probe(base_tree, Path(tmp))
            change_rows = run_probe(ROOT, Path(tmp))
            rows = {name: {"base": base_rows[name], "change": change_rows[name]}
                    for name in base_rows}
            for name, row in rows.items():
                print(f"probe   {name:44s} base {row['base']['seconds']:10.4f} s  "
                      f"change {row['change']['seconds']:10.4f} s", flush=True)
            entries.append({"kind": "probe", "rows": rows})
    output = args.output or next_output()
    doc = json.loads(output.read_text()) if output.exists() else {
        "description": DESCRIPTION, "entries": []}
    machine = {"python": platform.python_version(), "machine": platform.machine()}
    for entry in entries:
        doc["entries"].append({"base": base_rev, "change": change, "machine": machine,
                               **entry})
    output.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
