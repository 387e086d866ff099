#!/usr/bin/env python3
"""Compare the CLI reports of a base commit with those of the working tree.

    python3 scripts/cli_diff.py [--base HEAD]

The base commit is extracted with `git archive`, as scripts/bench.py
does; the working tree is run in place.  Each side runs the same fixed
list of `python -m homsuper.cli` calls in subprocesses, from a scratch
directory holding a copy of its own corpus/ and of the working tree's
tests/golden/cli/inputs/, so that the file names echoed in the reports
agree:

  * check, invariants, stem-decompose (JSON with --output, and text) and
    factorset -> extend -> check, chained through --output files, on every
    corpus file;
  * quotient by each basis vector, by name where the file names its basis
    and by coordinates otherwise;
  * iso-search and isoclinic --decide on every ordered pair of corpus
    files over the same field;
  * check on the inputs that fail the Jacobi identity or multiplicativity
    (one of them a dense transport over Q with its twist doubled), extend
    on the one that fails the cocycle identity, isoclinic --witness on two
    witnesses whose maps do not preserve brackets (one over F_3, one over
    Q whose derived map is doubled) and on two whose maps are isomorphisms
    that break the isoclinism square (hs with mu = 1 and nu = 2) and also
    the coset check (g22 over F_3 with nu swapping f1 and f2), so that
    failure lists count too, and stem-decompose on zc, whose greedy
    abelian part is not twist-invariant;
  * isoclinic --decide on the twist-shift pair over Q and over F_3
    (isoclinic, not isomorphic), on zc against hs, and on g22_hs_dense_q
    against itself, whose center (1, 2/3, -4/3) is spanned by no
    coordinate vector;
  * quotient of g22_hs_dense_q by its center and by its derived
    subalgebra, ideals given by non-coordinate vectors, so that the
    projection has columns off the unit vectors;
  * the top-level help and that of every subcommand, and the usage errors
    of no arguments, an unknown subcommand, every subcommand without its
    arguments, an unrecognized option, isoclinic with both of --witness
    and --decide and with neither, and invariants given the subcommand
    name check as its file;
  * --output on check, invariants, isoclinic --decide and iso-search,
    which construct no object to write.

The calls run with COLUMNS=80, since argparse wraps help and usage to the
terminal width.  Every call whose exit code, stdout, stderr or --output
bytes differ between the two sides is printed, and the script exits 1 if
any differ, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from bench import ROOT, extract

INPUTS = ROOT / "tests" / "golden" / "cli" / "inputs"
#: Calls on invalid inputs under INPUTS (copied to inputs/) whose failure
#: reports they pin.
INVALID = (("check", "inputs/jacobi_dense_q.json"), ("check", "inputs/jacobi_f3.json"),
           ("check", "inputs/multiplicative_f3.json"),
           ("check", "inputs/multiplicative_dense_q.json"),
           ("extend", "inputs/cocycle_g22_hs.json"),
           ("stem-decompose", "inputs/zc.json"),
           ("isoclinic", "corpus/g22_f3.json", "corpus/g22_f3.json",
            "--witness", "inputs/witness_g22_f3_dense.json"),
           ("isoclinic", "inputs/g22_hs_dense_q.json", "inputs/g22_hs_dense_q.json",
            "--witness", "inputs/witness_g22_hs_dense_q_doubled.json"),
           ("isoclinic", "corpus/hs.json", "corpus/hs.json",
            "--witness", "inputs/witness_hs_square.json"),
           ("isoclinic", "corpus/g22_f3.json", "corpus/g22_f3.json",
            "--witness", "inputs/witness_g22_f3_coset.json"))
#: isoclinic --decide on pairs of inputs under INPUTS: the twist-shift pair
#: {x, y, z} with [x, y] = z, theta = id against theta(x) = x + z, over Q
#: and F_3, zc against hs, and g22_hs_dense_q against itself.
DECIDE = tuple(("isoclinic", a, b, "--decide") for a, b in (
    ("inputs/twist_shift_id.json", "inputs/twist_shift.json"),
    ("inputs/twist_shift_id_f3.json", "inputs/twist_shift_f3.json"),
    ("inputs/zc.json", "corpus/hs.json"),
    ("inputs/g22_hs_dense_q.json", "inputs/g22_hs_dense_q.json")))
#: quotient of g22_hs_dense_q by its center and by its derived subalgebra.
QUOTIENT = tuple(("quotient", "inputs/g22_hs_dense_q.json", "--ideal", ideal,
                  "--output", f"out/g22_hs_dense_q.{name}.json") for name, ideal in (
    ("center", "1,2/3,-4/3,0,0,0"),
    ("derived", "1,0,-36/35,0,0,0;0,1,-16/35,0,0,0;0,0,0,1,0,0;0,0,0,0,1,1")))
#: --output on the subcommands that construct no object.
NO_ARTIFACT = (("check", "corpus/g22.json", "--output", "out/check.json"),
               ("invariants", "corpus/g22.json", "--output", "out/invariants.json"),
               ("isoclinic", "corpus/hs.json", "corpus/hs2.json", "--decide",
                "--output", "out/isoclinic.json"),
               ("iso-search", "corpus/hs.json", "corpus/hs.json",
                "--output", "out/iso-search.json"))
SUBCOMMANDS = ("check", "invariants", "quotient", "sum", "factorset", "extend",
               "stem-decompose", "isoclinic", "iso-search")
#: Help and usage calls: argparse prints these and exits.
USAGE = ((), ("--help",), ("nope",), ("check", "corpus/g22.json", "--bogus"),
         ("isoclinic", "corpus/g22.json", "corpus/g22.json",
          "--witness", "inputs/witness_g22_g22.json", "--decide"),
         ("isoclinic", "corpus/g22.json", "corpus/g22.json"), ("invariants", "check"),
         *((name, "--help") for name in SUBCOMMANDS), *((name,) for name in SUBCOMMANDS))


def cases(corpus: Path) -> list:
    """Chains of argv lists.  The calls of a chain run in order, each
    reading the --output file of the one before it."""
    files = {p.stem: json.loads(p.read_text()) for p in sorted(corpus.glob("*.json"))}
    chains = []
    for name, data in files.items():
        path = f"corpus/{name}.json"
        fs, ext = f"out/{name}.factorset.json", f"out/{name}.extension.json"
        chains += [[["check", path]], [["invariants", path]],
                   [["stem-decompose", path, "--output", f"out/{name}.stem.json"]],
                   [["stem-decompose", path, "--format", "text"]],
                   [["factorset", path, "--output", fs], ["extend", fs, "--output", ext],
                    ["check", ext]]]
        dim = data["even_dim"] + data["odd_dim"]
        names = data.get("basis_names")
        for i in range(dim):
            ideal = names[i] if names else ",".join("1" if j == i else "0" for j in range(dim))
            chains.append([["quotient", path, "--ideal", ideal,
                            "--output", f"out/{name}.quotient{i}.json"]])
    for a, da in files.items():
        for b, db in files.items():
            if da["field"] == db["field"]:
                pair = [f"corpus/{a}.json", f"corpus/{b}.json"]
                chains += [[["iso-search", *pair]], [["isoclinic", *pair, "--decide"]]]
    chains += [[list(argv)] for argv in INVALID + DECIDE + QUOTIENT + NO_ARTIFACT + USAGE]
    return chains


def run_side(tree: Path, work: Path, chains: list) -> list:
    """(exit code, stdout, stderr, --output bytes or None) of every call, by
    chain."""
    shutil.copytree(tree / "corpus", work / "corpus")
    shutil.copytree(INPUTS, work / "inputs")
    (work / "out").mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80"}

    def run_chain(chain):
        results = []
        for argv in chain:
            proc = subprocess.run([sys.executable, "-m", "homsuper.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
            out = work / argv[argv.index("--output") + 1] if "--output" in argv else None
            written = out.read_bytes() if out is not None and out.exists() else None
            results.append((proc.returncode, proc.stdout, proc.stderr, written))
        return results

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(run_chain, chains))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)
    chains = cases(ROOT / "corpus")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "tree").mkdir()
        extract(args.base, tmp / "tree")
        base = run_side(tmp / "tree", tmp / "base", chains)
        change = run_side(ROOT, tmp / "change", chains)
    total = differ = 0
    for chain, base_runs, change_runs in zip(chains, base, change):
        for argv, b, c in zip(chain, base_runs, change_runs):
            total += 1
            what = [name for name, x, y
                    in zip(("exit code", "stdout", "stderr", "--output"), b, c) if x != y]
            if what:
                differ += 1
                print(f"{' '.join(argv)}: {', '.join(what)} differ "
                      f"(exit {b[0]} at {args.base}, {c[0]} in the working tree)")
    print(f"{differ} of {total} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
