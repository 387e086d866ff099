"""The three benchmark workloads: decide, ladder and cli.

Each workload turns a seed into blocks of requests.  A request is timed
around one library call (or one in-process `homsuper.cli.main(argv)`);
everything else (generating and writing inputs, loading them, validating
them, judging results) happens outside the timed call.  Every block runs
several times (see run.py), each time on inputs freshly loaded from its
files.

`judge` classifies a finished request as "ok" or "inconclusive", or
raises GateFailure when the result is wrong: a verdict that contradicts
the label that the generator derived from the construction, a witness
that fails an independent check, a round trip that does not rebuild the
algebra, an exit code outside the expected table, stdout that differs
between repeats, or an output file that does not load back.  A request
that raises counts as an error; so does a CLI call that exits 1 with an
error report where exit 0 was expected.  The workloads hold only inputs
on which no request errs: the known stem_decompose failures (t2 with an
abelian pad, the `theta(c) = 2c + z` algebra zc) and the factor sets
whose default complement of the center is not twist-invariant (those, and
dense basis changes of g22 or g21 with a pad over Q) are left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

import gen

#: Search budget of every decision: 3**8, so every F_3 search up to graded
#: dims (2|2) runs to completion, while an exhausted F_5 or Q search stays
#: near a second.
BUDGET = 6561


class GateFailure(Exception):
    """A request produced a wrong result; the run is not correct."""


@dataclass(eq=False)
class Request:
    kind: str
    files: tuple = ()
    label: object = None
    argv: tuple = ()
    after: Optional["Request"] = None
    inputs: tuple = ()
    extra: dict = field(default_factory=dict)
    last: str = ""


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)


class Workload:
    """Common plumbing: file writing, loading through fileio, validation."""

    name = ""
    fixed = True

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.count = 0
        self.first = None
        self.checked = set()

    def _file(self, alg: gen.Alg, tag: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{tag}-{self.count}.json")
        _write(path, gen.to_dict(alg, tag))
        return path

    def blocks(self):
        """Yield request blocks.  The first is made once (set-up loads it);
        a fixed workload repeats it, the others make fresh blocks."""
        if self.first is None:
            self.first = self.make_block()
        yield self.first
        while True:
            yield self.first if self.fixed else self.make_block()

    def make_block(self):
        cells = self.cells()
        self.rng.shuffle(cells)
        return [self.request(cell) for cell in cells]

    def load(self, lib, requests):
        """Load every input file through fileio, into new objects on every
        run of a block, so no run reuses an object an earlier run made."""
        cache = {}
        for r in requests:
            algs = []
            for path in r.files:
                if path not in cache:
                    cache[path] = lib.fileio.load_algebra(path)[1]
                algs.append(cache[path])
            r.inputs = tuple(algs)

    def prepare(self, lib, requests):
        """Every loaded algebra must pass check_axioms before use.

        A check_axioms request is itself that check, and its gate fails
        the run if the algebra does not pass.
        """
        for r in requests:
            for path, g in zip(r.files, r.inputs):
                if path in self.checked or r.kind == "check_axioms":
                    continue
                self.checked.add(path)
                if not lib.core.check_axioms(g).passed:
                    raise GateFailure(f"generated algebra {path} fails check_axioms")

    def ready(self, r: Request) -> bool:
        return True


# ---------------------------------------------------------------------------
# decide

def _base(p, name):
    if name == "hs+hs":
        return gen.direct_sum(gen.hs(p), gen.hs(p))
    return gen.BASES[name](p)


#: (field, base of g, base of h, copies per block).  Equal stem labels make
#: an isoclinic pair; different bases have different stem fingerprints.
#: The mix puts a wide band of one kind of request around each reported
#: percentile, so the percentiles do not jump between kinds from seed to
#: seed: about 32% fast requests (fingerprint mismatches), then 49%
#: decisions on (1|1) and (1|2) stems around the median, 13% F_5 (2|2)
#: searches that spend the budget in about 0.3 s around the 90th
#: percentile, and a top 6% of F_3 (2|2) searches and Q searches that
#: exhaust their restricted family.
DECIDE_MIX = (
    (3, "hs", "t2", 2), (5, "hs", "t2", 2), (None, "hs", "t2", 2),
    (3, "g22", "hs+hs", 2), (5, "g22", "hs+hs", 2), (3, "hs", "hso", 2),
    (3, "t2", "hso", 2), (5, "hso", "hs", 2), (None, "g21", "hso", 2),
    (None, "hs", "hso", 2), (None, "g21", "hs", 2),
    (3, "hs", "hs", 8), (5, "hs", "hs", 8), (None, "hs", "hs", 5),
    (3, "t2", "t2", 2), (5, "t2", "t2", 2), (None, "t2", "t2", 2),
    (3, "hso", "hso", 3), (5, "hso", "hso", 3),
    (5, "g22", "g22", 6), (5, "hs+hs", "hs+hs", 3),
    (3, "g22", "g22", 2), (None, "hso", "hso", 1), (None, "g21", "g21", 1),
)

PADS = ((0, 0), (1, 0), (0, 1), (1, 1))


class Decide(Workload):
    """isoclinic_decide(g, h, BUDGET) on pairs whose stems have dim <= 4.

    Each side is a base stem plus an abelian pad, moved by a random dense
    even change of basis.  The pads rotate through PADS over the copies of
    a pair, so every seed has the same mix of sizes; t2 gets no pad, since
    with one the greedy central complement in stem_decompose is not
    twist-invariant and the decision raises.  The F_5 (2|2) stems get a
    signed permutation instead: their search spends the whole budget
    either way (no even map with a zero first row is invertible, and the
    budget covers only those), and sparse constants keep its cost the same
    from seed to seed.  Every block builds fresh pairs.
    """

    name = "decide"
    fixed = False

    def _side(self, p, base, turn):
        a = _base(p, base)
        pads = PADS[:1] if base == "t2" else PADS
        pad = pads[turn % len(pads)]
        if pad != (0, 0):
            a = gen.direct_sum(a, gen.abelian(p, *pad))
        dense = not (p == 5 and a.stem in ("g22", "hs+hs"))
        return gen.transport(a, gen.random_even(p, a.even, a.odd, self.rng, dense))

    def cells(self):
        return [(p, bg, bh, c) for p, bg, bh, copies in DECIDE_MIX for c in range(copies)]

    def request(self, cell):
        p, bg, bh, c = cell
        g, h = self._side(p, bg, c), self._side(p, bh, c + 1)
        label = "isoclinic" if g.stem == h.stem else "not-isoclinic"
        return Request("decide", (self._file(g, "g"), self._file(h, "h")), label,
                       extra={"cell": cell})

    def call(self, lib, r):
        g, h = r.inputs
        return lib.isoclinism.isoclinic_decide(g, h, BUDGET)

    def judge(self, lib, r, result):
        verdict, witness = result
        if verdict == "inconclusive":
            return "inconclusive"
        if verdict != r.label:
            raise GateFailure(f"decide {r.files}: {verdict}, expected {r.label}")
        if verdict == "isoclinic":
            g, h = r.inputs
            if not lib.isoclinism.verify_isoclinism(g, h, witness).passed:
                raise GateFailure(f"decide {r.files}: witness fails verify_isoclinism")
        return "ok"


# ---------------------------------------------------------------------------
# ladder

LADDER_KINDS = ("check_axioms", "center", "derived", "fingerprint",
                "factor_roundtrip", "stem_decompose", "verify_isoclinism")

#: (dimension, request kinds, copies) for each of Q and F_3.  Small
#: algebras come in three copies, so one block holds more than 100
#: requests; above dimension 16 only the kinds that stay under a second.
#: The dim-20 and dim-24 requests form the top few percent, and the
#: dim-12 and dim-16 ones fill the band around the 90th percentile.  The
#: last row adds fast requests, which put the median in the middle of a
#: band of dim-8 and dim-12 requests of similar cost (check_axioms,
#: fingerprint, verify_isoclinism) instead of at its upper edge.
LADDER_SIZES = (
    (8, LADDER_KINDS, 3), (12, LADDER_KINDS, 3), (16, LADDER_KINDS, 1),
    (20, ("check_axioms", "fingerprint", "stem_decompose"), 1),
    (24, ("check_axioms",), 1), (8, ("center", "derived"), 4),
)

#: Summands that complete g22^k + hs^m, with the graded dims of their stem
#: part, abelian part, center and derived algebra.
LADDER_EXTRAS = (
    ((), (0, 0), (0, 0), (0, 0), (0, 0)),
    ((("pad", 1, 1),), (0, 0), (1, 1), (1, 1), (0, 0)),
    ((("hso",), ("pad", 0, 1)), (1, 2), (0, 1), (1, 1), (1, 0)),
    ((("g21",), ("pad", 1, 0)), (2, 1), (1, 0), (1, 0), (1, 1)),
)


def _add(*dims):
    return (sum(d[0] for d in dims), sum(d[1] for d in dims))


class Ladder(Workload):
    """Single-algebra requests on distinct algebras of dimension 8 to 24.

    Algebras are g22^k + hs^m plus a pad, hso or g21 summand; the summands
    rotate over the cells of a block, so every seed has the same mix.  Over
    Q the basis change is a signed permutation, keeping the structure
    constants sparse; over F_3 it is dense.  Every block builds fresh
    algebras.
    """

    name = "ladder"
    fixed = False

    def _algebra(self, p, dim, turn):
        parts, stem, ab, center, derived = LADDER_EXTRAS[turn % len(LADDER_EXTRAS)]
        extras = [gen.abelian(p, part[1], part[2]) if part[0] == "pad"
                  else gen.BASES[part[0]](p) for part in parts]
        rest = dim - sum(e.dim for e in extras)
        k = rest // 8 + 1
        m = (rest - 4 * k) // 2
        a = gen.sum_of([gen.g22(p)] * k + [gen.hs(p)] * m + extras)
        # g22 has center (0|0) and derived algebra (1|2); hs has (1|0), (1|0).
        dims = {"graded": (a.even, a.odd),
                "stem": _add(stem, (2 * k + m, 2 * k + m)), "abelian": ab,
                "center": _add(center, (m, 0)), "derived": _add(derived, (k + m, 2 * k))}
        pm = gen.random_even(p, a.even, a.odd, self.rng, p is not None)
        return gen.transport(a, pm), dims

    def cells(self):
        return [(p, dim, kind, fi + si + c + LADDER_KINDS.index(kind))
                for fi, p in enumerate((None, 3))
                for si, (dim, kinds, copies) in enumerate(LADDER_SIZES)
                for kind in kinds for c in range(copies)]

    def request(self, cell):
        p, dim, kind, turn = cell
        g, dims = self._algebra(p, dim, turn)
        files = (self._file(g, "g"),)
        extra = {"cell": cell, "dims": dims}
        if kind == "verify_isoclinism":
            pm = gen.random_even(p, g.even, g.odd, self.rng, p is not None)
            files += (self._file(gen.transport(g, pm), "h"),)
            extra["map"] = gen.matrix_strings(p, pm)
        return Request(kind, files, extra=extra)

    def prepare(self, lib, requests):
        super().prepare(lib, requests)
        for r in requests:
            if r.kind == "verify_isoclinism":
                g, h = r.inputs
                n = g.dim
                m = lib.fileio.matrix_from_lists(g.field, r.extra["map"], n, n)
                iso = lib.core.EvenLinearMap(g.space, h.space, m)
                r.extra["witness"] = lib.isoclinism.witness_from_surjection(iso, g, h)

    def call(self, lib, r):
        g = r.inputs[0]
        if r.kind == "check_axioms":
            return lib.core.check_axioms(g)
        if r.kind == "center":
            return lib.core.center(g)
        if r.kind == "derived":
            return lib.core.derived(g)
        if r.kind == "fingerprint":
            return lib.isoclinism.fingerprint(g)
        if r.kind == "factor_roundtrip":
            fs, _, iso = lib.factorset.factor_set_from_complement(g)
            return iso, lib.factorset.validate_factor_set(fs), lib.factorset.extend(fs)
        if r.kind == "stem_decompose":
            return lib.isoclinism.stem_decompose(g)
        return lib.isoclinism.verify_isoclinism(g, r.inputs[1], r.extra["witness"])

    def judge(self, lib, r, result):
        dims = r.extra["dims"]
        g = r.inputs[0]
        if r.kind in ("check_axioms", "verify_isoclinism"):
            ok = result.passed
        elif r.kind == "center":
            ok = result.dims == dims["center"]
        elif r.kind == "derived":
            ok = result.dims == dims["derived"]
        elif r.kind == "fingerprint":
            ok = result[:3] == (dims["graded"], dims["center"], dims["derived"])
        elif r.kind == "factor_roundtrip":
            iso, report, ext = result
            ok = report.passed and lib.core.is_isomorphism(iso, ext.algebra, g)
        else:
            ok = (result.stem_part.space.dims == dims["stem"]
                  and result.abelian_part.space.dims == dims["abelian"])
        if not ok:
            raise GateFailure(f"ladder {r.kind} on {r.files[0]} gave a wrong result")
        return "ok"


# ---------------------------------------------------------------------------
# cli

#: Labels of the bundled corpus: (field, stem).
CORPUS = {
    "a_0_1": (None, ""), "a_1_0": (None, ""), "a_1_1": (None, ""),
    "a_2_1": (None, ""), "hs": (None, "hs"), "hs2": (None, "hs"),
    "t2": (None, "t2"), "g22": (None, "g22"), "a_1_1_f3": (3, ""),
    "hs_f3": (3, "hs"), "hs2_f3": (3, "hs"), "t2_f3": (3, "t2"),
    "g22_f3": (3, "g22"),
}

#: Hom-ideals named by basis element, for the quotient subcommand.
IDEALS = {"hs2": "c", "hs2_f3": "c", "g22": "e2", "g22_f3": "e2"}

#: Generated files: name -> (field, base, pad, dense basis change).
CLI_FILES = {
    "g22_f3_t": (3, "g22", (1, 0), True), "hs_f3_t": (3, "hs", (0, 1), True),
    "hs_f3_p": (3, "hs", (1, 1), True), "g22_f5": (5, "g22", None, False),
    "g22_f5_t": (5, "g22", None, False), "hs_q_t": (None, "hs", (1, 1), True),
    "t2_q_t": (None, "t2", None, True), "g21_q": (None, "g21", None, False),
}

#: Pairs run through `isoclinic --decide` (and `--witness` when isoclinic),
#: with copies per block.  The two small isoclinic pairs repeat ten times:
#: a hot query that fills the band around the 90th percentile, above the
#: single-file commands and below the searches.  No pair searches the
#: (2|2) matrices over F_3: where such a search stops depends on the random
#: basis change, and one of them moved the cost of a block by up to a fifth
#: from seed to seed (decide runs those searches).
CLI_DECIDE = (
    ("g22_f5", "g22_f5_t", 1), ("hs_f3", "t2_f3", 1),
    ("g21_q", "hs_q_t", 1), ("a_1_1", "a_2_1", 1), ("hs_q_t", "t2_q_t", 1),
    ("hs_f3_p", "hs_f3", 1), ("hs", "hs2", 10), ("hs_f3_t", "hs2_f3", 10),
)

#: Pairs run through sum -> stem-decompose -> invariants.
CLI_SUMS = (("hs", "t2"), ("g22_f3", "hs_f3"), ("g21_q", "hs"), ("a_1_1", "g22"))


class Cli(Workload):
    """`homsuper.cli.main(argv)` in-process, stdout captured.

    The files are the corpus plus generated ones.  A block runs check,
    invariants, stem-decompose and factorset -> extend -> check on every
    file, the sum and quotient chains, and the decisions; it is built once
    and repeated, so every argv recurs and its stdout must repeat byte for
    byte.  Constructive calls write --output files that the next call in
    their chain reads.
    """

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.files = {name: (os.path.join("corpus", f"{name}.json"),) + label
                      for name, label in CORPUS.items()}
        for name, (p, base, pad, dense) in CLI_FILES.items():
            a = gen.BASES[base](p)
            if pad:
                a = gen.direct_sum(a, gen.abelian(p, *pad))
            a = gen.transport(a, gen.random_even(p, a.even, a.odd, self.rng, dense))
            self.files[name] = (self._file(a, name), p, a.stem)
        self.stdout = {}
        self.produced = set()

    def _out(self, tag):
        return os.path.join(self.workdir, f"out-{tag}.json")

    def _req(self, argv, expect, after=None, **extra):
        inputs = {entry[0] for entry in self.files.values()}
        files = tuple(a for a in argv if a in inputs)
        return Request("cli", files, expect, tuple(argv), after, extra=extra)

    def make_block(self):
        path = {n: entry[0] for n, entry in self.files.items()}
        chains = []
        for n in sorted(path):
            fs, ext = self._out(f"fs-{n}"), self._out(f"ext-{n}")
            a = self._req(["factorset", path[n], "--output", fs], "factorset")
            b = self._req(["extend", fs, "--output", ext], "algebra", a)
            chains += [[self._req(["check", path[n]], "valid")],
                       [self._req(["invariants", path[n]], "ok")],
                       [self._req(["stem-decompose", path[n], "--output",
                                   self._out(f"sd-{n}")], "stem")],
                       [a, b, self._req(["check", ext], "valid", b)]]
        for x, y in CLI_SUMS:
            s = self._out(f"sum-{x}-{y}")
            a = self._req(["sum", path[x], path[y], "--output", s], "algebra")
            chains.append([a, self._req(["stem-decompose", s, "--output",
                                         self._out(f"sd-sum-{x}-{y}")], "stem", a),
                           self._req(["invariants", s], "ok", a)])
        for n in sorted(IDEALS):
            q = self._out(f"q-{n}")
            a = self._req(["quotient", path[n], "--ideal", IDEALS[n], "--output", q],
                          "algebra")
            chains.append([a, self._req(["check", q], "valid", a)])
        for x, y, copies in CLI_DECIDE:
            label = "isoclinic" if self.files[x][2] == self.files[y][2] else "not-isoclinic"
            w = self._out(f"w-{x}-{y}")
            for _ in range(copies):
                a = self._req(["isoclinic", path[x], path[y], "--decide",
                               "--budget", str(BUDGET)], label, witness=w)
                chain = [a]
                if label == "isoclinic":
                    chain.append(self._req(["isoclinic", path[x], path[y], "--witness", w],
                                           "isoclinic", a))
                chains.append(chain)
        self.rng.shuffle(chains)
        return [r for chain in chains for r in chain]

    def ready(self, r):
        if r.after is None:
            return True
        if r.after.last != "ok":
            return False
        out = r.after.argv[-1] if "--output" in r.after.argv else r.after.extra.get("witness")
        return out in self.produced

    def call(self, lib, r):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = lib.cli.main(list(r.argv))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def judge(self, lib, r, result):
        code, out = result
        seen = self.stdout.setdefault(r.argv, out)
        if seen != out:
            raise GateFailure(f"cli {' '.join(r.argv)}: stdout differs between repeats")
        try:
            report = json.loads(out)
        except ValueError:
            raise GateFailure(f"cli {' '.join(r.argv)}: stdout is not JSON") from None
        where = f"cli {' '.join(r.argv)}"
        if "error" in report:
            if code == 1:
                return "error"
            raise GateFailure(f"{where}: exit {code} with an error report")
        expect = r.label
        if expect in ("isoclinic", "not-isoclinic") and "--decide" in r.argv:
            verdict = report.get("verdict")
            if verdict == "inconclusive" and code == 3:
                return "inconclusive"
            if verdict != expect or code != (0 if expect == "isoclinic" else 1):
                raise GateFailure(f"{where}: {verdict} (exit {code}), expected {expect}")
            if expect == "not-isoclinic" and report.get("isomorphic") is True:
                raise GateFailure(f"{where}: isomorphic but labelled not-isoclinic")
            if expect == "isoclinic":
                _write(r.extra["witness"], report["witness"])
                self.produced.add(r.extra["witness"])
            return "ok"
        if code != 0:
            raise GateFailure(f"{where}: exit {code}, expected 0")
        if expect in ("valid", "isoclinic") and report.get("verdict") != expect:
            raise GateFailure(f"{where}: verdict {report.get('verdict')}, expected {expect}")
        if "--output" in r.argv:
            path = r.argv[-1]
            try:
                if expect == "factorset":
                    lib.fileio.load_factorset(path)
                elif expect == "stem":
                    with open(path, encoding="utf-8") as fh:
                        data = json.load(fh)
                    lib.fileio.algebra_from_dict(data["stem"])
                    lib.fileio.algebra_from_dict(data["abelian"])
                else:
                    lib.fileio.load_algebra(path)
            except lib.errors.FormatError as exc:
                raise GateFailure(f"{where}: output does not load back: {exc}") from None
            self.produced.add(path)
        return "ok"


WORKLOADS = {w.name: w for w in (Decide, Ladder, Cli)}
