"""Self-check of the benchmark.

    python3 benchmarks/selfcheck.py

1. A smoke-size run of every workload, untraced and traced, must print
   exactly the metrics BENCHMARK.json names, each with its unit.
2. For every workload, one deliberately corrupted expected result must
   make the correctness gate fail.

Exits 0 when both hold.  Takes a few minutes (the ladder builds algebras
up to dimension 24).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS, GateFailure


def smoke(spec) -> list:
    problems = []
    for name in WORKLOADS:
        for traced, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", "1", "--seconds", "1", "--trace", str(traced)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=run.ROOT)
            where = f"{name} --trace {traced}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{where}: bad result keys or not correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            print(f"smoke {where}: {len(got)} metrics", flush=True)
    return problems


def _corrupt(request):
    """Flip the expected result of a request that the gate judged ok."""
    if request.kind == "decide" or "--decide" in request.argv:
        request.label = {"isoclinic": "not-isoclinic",
                         "not-isoclinic": "isoclinic"}[request.label]
        return True
    if request.kind in ("center", "derived", "fingerprint"):
        dims = request.extra["dims"]
        dims["center"] = (dims["center"][0] + 1, dims["center"][1])
        dims["derived"] = (dims["derived"][0] + 1, dims["derived"][1])
        return True
    return False


def corrupted_label(lib, name, workdir) -> str:
    """Run one block, corrupt one answered request, replay it; the gate
    must raise."""
    workload = WORKLOADS[name](1, workdir)
    first = next(workload.blocks())
    run.measure(workload, lib, 0, min_requests=0, blocks=1)
    for request in first:
        if request.last == "ok" and _corrupt(request):
            break
    else:
        return f"{name}: no answered request to corrupt"
    workload.blocks = lambda: iter([[request]])
    try:
        run.measure(workload, lib, 0, min_requests=0, blocks=1)
    except GateFailure as exc:
        print(f"corrupted label on {name}: the gate failed as it must ({exc})", flush=True)
        return ""
    return f"{name}: a corrupted label passed the gate"


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.import_library()
    workdir = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        problems = [corrupted_label(lib, name, str(workdir)) for name in WORKLOADS]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for p in problems if p] + smoke(spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
