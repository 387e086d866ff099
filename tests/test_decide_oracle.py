"""isoclinic_decide against two oracles: transports and brute force.

Transport sweep: g and P.g, for P an even change of basis, are isomorphic,
hence isoclinic.  On every base algebra of benchmarks/gen.py (zc
included), with no pad, a (1|0) or a (0|1) abelian pad, over Q, F_3 and
F_5, seeds 0-2, sparse and dense P, decide must not raise and must not say
not-isoclinic; every witness must verify, and over F_p, where the search
is exhaustive, the verdict must be isoclinic.

Brute force over F_3: the definition itself.  Two algebras are isoclinic
when some pair (mu, nu) of even invertible maps, on the central quotients
and on the derived algebras, passes `verify_isoclinism`.  With quotients
and derived algebras of total dim <= 2 there are at most 48 x 48 pairs to
try, so every pair is tried.
"""

import importlib.util
import itertools
import pathlib
import random
import sys

import pytest

from homsuper.core import EvenLinearMap, HomLieSuperalgebra, SuperSpace, abelian
from homsuper.fileio import algebra_from_dict
from homsuper.isoclinism import (IsoclinismWitness, central_quotient,
                                 derived_algebra, isoclinic_decide,
                                 verify_isoclinism)
from homsuper.linalg import GF, Matrix

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
F3 = GF(3)


def load_gen():
    spec = importlib.util.spec_from_file_location(
        "homsuper_benchmark_gen", REPO_ROOT / "benchmarks" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gen = load_gen()


def library(a):
    return algebra_from_dict(gen.to_dict(a, "g"))[1]


# ---------------------------------------------------------------------------
# transport sweep

@pytest.mark.parametrize("base", sorted(gen.BASES))
def test_decide_on_transports(base):
    for pad, p, seed, dense in itertools.product((None, (1, 0), (0, 1)), (None, 3, 5),
                                                 range(3), (False, True)):
        a = gen.BASES[base](p)
        if pad is not None:
            a = gen.direct_sum(a, gen.abelian(p, *pad))
        b = gen.transport(a, gen.random_even(p, a.even, a.odd, random.Random(seed), dense))
        g, h = library(a), library(b)
        case = (base, pad, p, seed, dense)
        verdict, w = isoclinic_decide(g, h)
        assert verdict != "not-isoclinic", case
        if p is not None:
            assert verdict == "isoclinic", case
        if verdict == "isoclinic":
            assert verify_isoclinism(g, h, w).passed, case


# ---------------------------------------------------------------------------
# brute force over F_3

def even_invertible(space: SuperSpace):
    """Every even invertible matrix on space over F_3."""
    p, q = space.dims
    d = p + q
    for even in itertools.product(range(3), repeat=p * p):
        for odd in itertools.product(range(3), repeat=q * q):
            rows = [[0] * d for _ in range(d)]
            for i, j in itertools.product(range(p), repeat=2):
                rows[i][j] = even[i * p + j]
            for i, j in itertools.product(range(q), repeat=2):
                rows[p + i][p + j] = odd[i * q + j]
            m = Matrix.from_rows(F3, rows, d)
            if m.is_invertible():
                yield m


def brute_force_isoclinic(g1, g2) -> bool:
    q1, _, _ = central_quotient(g1)
    q2, _, _ = central_quotient(g2)
    d1, _ = derived_algebra(g1)
    d2, _ = derived_algebra(g2)
    if q1.space.dims != q2.space.dims or d1.space.dims != d2.space.dims:
        return False  # no even invertible map exists
    assert q1.dim <= 2 and d1.dim <= 2, "too large to enumerate"
    nus = list(even_invertible(d1.space))
    for mu in even_invertible(q1.space):
        for nu in nus:
            w = IsoclinismWitness(EvenLinearMap(q1.space, q2.space, mu),
                                  EvenLinearMap(d1.space, d2.space, nu))
            if verify_isoclinism(g1, g2, w).passed:
                return True
    return False


def twist_shift(shifted: bool):
    """{x, y, z} with [x, y] = z; theta = id, or theta(x) = x + z."""
    rows = [[1, 0, 0], [0, 1, 0], [int(shifted), 0, 1]]
    return HomLieSuperalgebra(SuperSpace(3, 0, ("x", "y", "z")), {(0, 1): {2: 1}},
                              Matrix.from_rows(F3, rows, 3))


def f3_algebras(algebras) -> dict:
    out = {name: g for name, g in algebras.items() if g.field == F3}
    zc, hso = gen.zc(3), gen.hso(3)
    out.update({
        "zc": library(zc),
        "zc+(1|0)": library(gen.direct_sum(zc, gen.abelian(3, 1, 0))),
        "zc+(0|1)": library(gen.direct_sum(zc, gen.abelian(3, 0, 1))),
        "hs": library(gen.hs(3)),
        "t2": library(gen.t2(3)),
        # the relations [f1, f1] = [f2, f2], [f1, f2] = 0 rule out most mu
        "hso": library(hso),
        "hso moved": library(gen.transport(hso, gen.random_even(3, 1, 2, random.Random(0), True))),
        "twist-id": twist_shift(False),
        "twist-shift": twist_shift(True),
        "abelian theta=1": abelian(F3, 1, 0, Matrix.from_rows(F3, [[1]], 1)),
        "abelian theta=2": abelian(F3, 1, 0, Matrix.from_rows(F3, [[2]], 1)),
    })
    return out


def test_decide_agrees_with_brute_force_over_f3(algebras):
    algs = f3_algebras(algebras)
    verdicts = {}
    for (n1, g1), (n2, g2) in itertools.product(sorted(algs.items()), repeat=2):
        q1, _, _ = central_quotient(g1)
        q2, _, _ = central_quotient(g2)
        if q1.dim > 2 and q1.space.dims == q2.space.dims:
            continue  # g22_f3 against itself: too large to enumerate
        verdict, w = isoclinic_decide(g1, g2)
        assert verdict == ("isoclinic" if brute_force_isoclinic(g1, g2)
                           else "not-isoclinic"), (n1, n2)
        if w is not None:
            assert verify_isoclinism(g1, g2, w).passed, (n1, n2)
        verdicts[(n1, n2)] = verdict
    for pair in (("twist-id", "twist-shift"), ("zc", "hs"), ("zc+(0|1)", "hs_f3"),
                 ("hso", "hso moved"),
                 ("abelian theta=1", "abelian theta=2")):
        assert verdicts[pair] == "isoclinic", pair
    assert verdicts[("hs", "t2")] == "not-isoclinic"
