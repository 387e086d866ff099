"""One-shot baseline probe: the ROADMAP "Baseline" rows through the harness.

    python3 benchmarks/probe.py [--output benchmarks/results/baseline.json]

Not a workload and not part of the timed runs.  Each row is timed once
untraced and once more with the tracer installed, for its counters (RREFs,
center and derived calls, search candidates).  Decisions use the library's
default budget, as the ROADMAP rows did.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import run
import gen
import spans

COUNTERS = ("linalg.rref.calls", "core.center.calls", "core.derived.calls",
            "core.bracket.calls", "core.is_isomorphism.calls",
            "isoclinism.iso_search.calls", "isoclinism.iso_search.candidates",
            "isoclinism.iso_search.total_s", "linalg.self_s", "core.self_s",
            "isoclinism.self_s", "factorset.self_s")


def rows(lib):
    """(name, thunk) for every baseline row."""
    def load(name):
        return lib.fileio.load_algebra(os.path.join("corpus", f"{name}.json"))[1]

    def build(alg):
        return lib.fileio.algebra_from_dict(gen.to_dict(alg, "probe"))[1]

    def decide(g):
        return lambda: lib.isoclinism.isoclinic_decide(g, g)[0]

    out = [
        ("decide hs2 Q", decide(load("hs2"))),
        ("decide g22 Q", decide(load("g22"))),
        ("decide g22 F3", decide(load("g22_f3"))),
        ("decide g22 F5", decide(build(gen.g22(5)))),
        ("decide g22 F7", decide(build(gen.g22(7)))),
        ("decide g22+hs F3", decide(build(gen.direct_sum(gen.g22(3), gen.hs(3))))),
    ]
    for p, tag in ((None, "Q"), (3, "F3")):
        g = build(gen.sum_of([gen.g22(p)] * 6))
        w = lib.isoclinism.identity_witness(g)
        out += [
            (f"check_axioms g22^6 {tag}", lambda g=g: lib.core.check_axioms(g).passed),
            (f"verify_isoclinism identity g22^6 {tag}",
             lambda g=g, w=w: lib.isoclinism.verify_isoclinism(g, g, w).passed),
            (f"factor_set_from_complement g22^6 {tag}",
             lambda g=g: lib.factorset.factor_set_from_complement(g)[0] is not None),
        ]
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(run.HERE / "results" / "baseline.json"))
    args = parser.parse_args(argv)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.import_library()
    results = []
    for name, thunk in rows(lib):
        t0 = time.perf_counter()
        verdict = thunk()
        seconds = time.perf_counter() - t0
        tracer = spans.Tracer()
        tracer.install()
        tracer.on = True
        t0 = time.perf_counter()
        try:
            traced_verdict = thunk()
        finally:
            traced = time.perf_counter() - t0
            tracer.on = False
            tracer.uninstall()
        metrics = tracer.metrics(traced)
        row = {"row": name, "seconds": round(seconds, 4), "result": verdict,
               "traced_seconds": round(traced, 4),
               "counters": {k: round(metrics[k][0], 4) for k in COUNTERS}}
        if traced_verdict != verdict:
            raise SystemExit(f"{name}: traced run gave {traced_verdict}, untraced {verdict}")
        print(json.dumps(row), flush=True)
        results.append(row)
    report = {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "rows": results,
    }
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
