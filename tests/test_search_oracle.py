"""The pruned `iso_search` against the brute-force reference enumerator.

Pairs are generated from small base algebras: reflexive pairs, transports
g -> P.g by seeded random even changes of basis P, and pairs whose twists
share a characteristic polynomial without being conjugate.  Graded dims
stay at most (2|2) over F_3 and F_5 and at most (2|1) or (1|2) over Q.
Every pair runs at every budget in BUDGETS; the two searches must return
the same matrix or None, or raise SearchInconclusive for the same reason.
Over F_5 at (2|2) each even block spans 625 candidates and the first
eleven are singular, so budgets 7, 100, 1000 and 6561 all end inside the
range of a rejected even block.

The default set runs in a few seconds; `pytest --sweep` also runs a larger
sweep with more transports per base algebra.
"""

import random
from fractions import Fraction

import pytest

from reference_search import reference_iso_search

from homsuper.core import HomLieSuperalgebra, SuperSpace, abelian
from homsuper.corpus import g22, hs, hs2, t2
from homsuper.errors import SearchInconclusive
from homsuper.isoclinism import iso_search
from homsuper.linalg import GF, QQ, Matrix

BUDGETS = (0, 1, 7, 100, 1000, 6561)
F3, F5 = GF(3), GF(5)


def hso(field):
    """{z | f1, f2}, [f1, f1] = [f2, f2] = z, identity twist."""
    return HomLieSuperalgebra(SuperSpace(1, 2), {(1, 1): {0: 1}, (2, 2): {0: 1}},
                              Matrix.identity(field, 3))


def g21(field):
    """span(e1, e2 | f1) of g22: [e1, e2] = 2e2, [e1, f1] = f1."""
    twist = (Matrix.identity(field, 3) if field.p is not None else
             Matrix.from_rows(field, [[1, 0, 0], [0, Fraction(3, 4), 0],
                                      [0, 0, Fraction(1, 2)]], 3))
    return HomLieSuperalgebra(SuperSpace(2, 1), {(0, 1): {1: 2}, (0, 2): {2: 1}}, twist)


def unipotent_twist(g):
    """g with the twist I + E_01: same characteristic polynomial as the
    identity twist, never conjugate to it."""
    n = g.dim
    rows = [[1 if i == j or (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
    return HomLieSuperalgebra(g.space, g.brackets, Matrix.from_rows(g.field, rows, n))


def random_even(field, p, q, rng, monomial):
    """A seeded invertible even matrix; over Q with monomial=True a signed
    permutation scaled by entries the restricted search tries."""
    while True:
        if monomial:
            rows = [[0] * (p + q) for _ in range(p + q)]
            for off, n in ((0, p), (p, q)):
                perm = rng.sample(range(n), n)
                for i in range(n):
                    rows[off + perm[i]][off + i] = rng.choice((1, -1, 2, Fraction(1, 2)))
        else:
            vals = range(field.p) if field.p is not None else (-1, 0, 1, 2)
            rows = [[rng.choice(vals) if (i < p) == (j < p) else 0
                     for j in range(p + q)] for i in range(p + q)]
        m = Matrix.from_rows(field, rows, p + q)
        if m.is_invertible():
            return m


def transport(g, pm):
    """The algebra P.g with [x, y]' = P[P^-1 x, P^-1 y], theta' = P theta P^-1."""
    f, d = g.field, g.dim
    pinv = pm.inverse()
    cols = [pinv.col(i) for i in range(d)]
    brackets = {}
    for i in range(d):
        for j in range(i, d):
            v = pm.matvec(g.bracket(cols[i], cols[j]))
            cell = {k: x for k, x in enumerate(v) if x != 0}
            if cell:
                brackets[(i, j)] = cell
    return HomLieSuperalgebra(g.space, brackets, pm @ g.twist @ pinv)


def _pairs(field, bases, transports, seed):
    """Reflexive, transported and (for identity twists with two even basis
    vectors) unipotent-twist pairs for each base algebra."""
    rng = random.Random(seed)
    out = []
    for name, g in bases:
        out.append((f"{name}/refl", g, g))
        for t in range(transports):
            p, q = g.space.dims
            pm = random_even(field, p, q, rng, monomial=field.p is None and t % 2 == 0)
            out.append((f"{name}/transport{t}", g, transport(g, pm)))
        if g.twist == Matrix.identity(field, g.dim) and g.space.even_dim >= 2:
            out.append((f"{name}/unipotent", g, unipotent_twist(g)))
    return out


def _tier1_cases():
    """About two seconds of pairs covering every outcome: found maps,
    None over F_p, both inconclusive reasons, budgets ending inside
    skipped ranges (g22 over F_3 and F_5), exactly at the end of the
    restricted family (hs/scaled over Q: 100 candidates), and empty even
    or odd blocks."""
    def pick(cases, *names):
        return [c for c in cases if c[0] in names]

    f3 = _pairs(F3, [("hs", hs(F3)), ("t2", t2(F3)), ("hs2", hs2(F3)),
                     ("hso", hso(F3)), ("g21", g21(F3)),
                     ("a_2_0", abelian(F3, 2, 0)), ("g22", g22(F3))], 1, 3)
    f5 = _pairs(F5, [("hs", hs(F5)), ("g21", g21(F5)), ("hso", hso(F5)),
                     ("g22", g22(F5))], 1, 5)
    qq = _pairs(QQ, [("hs", hs(QQ)), ("t2", t2(QQ)), ("g21", g21(QQ)),
                     ("hso", hso(QQ))], 1, 7)
    scaled = transport(hs(QQ), Matrix.from_rows(QQ, [[5, 0], [0, 1]], 2))
    cases = (pick(f3, "hs/refl", "t2/transport0", "hs2/unipotent", "hso/transport0",
                  "g21/transport0", "a_2_0/unipotent", "g22/refl")
             + pick(f5, "hs/transport0", "g21/transport0", "hso/refl", "g22/refl")
             + pick(qq, "hs/transport0", "t2/refl", "g21/transport0", "hso/transport0")
             + [("hs/scaled", hs(QQ), scaled)]
             + [(f"a_{e}_{o}/refl", abelian(fl, e, o), abelian(fl, e, o))
                for fl in (F3, QQ) for e, o in ((0, 0), (1, 0), (0, 1), (0, 2))])
    assert len(cases) == 24
    return cases


def _sweep_cases():
    return (_pairs(F3, [("hs", hs(F3)), ("t2", t2(F3)), ("hs2", hs2(F3)),
                        ("hso", hso(F3)), ("g21", g21(F3)),
                        ("a_2_0", abelian(F3, 2, 0)), ("g22", g22(F3))], 4, 13)
            + _pairs(F5, [("hs", hs(F5)), ("t2", t2(F5)), ("hso", hso(F5)),
                          ("g21", g21(F5)), ("g22", g22(F5))], 3, 15)
            + _pairs(QQ, [("hs", hs(QQ)), ("t2", t2(QQ)), ("hs2", hs2(QQ)),
                          ("g21", g21(QQ)), ("hso", hso(QQ))], 4, 17))


def _outcome(search, g1, g2, budget):
    try:
        found = search(g1, g2, budget)
    except SearchInconclusive as exc:
        return ("inconclusive", exc.reason)
    return ("none", None) if found is None else ("map", found.matrix.entries)


def _check_agreement(cases):
    for name, g1, g2 in cases:
        for budget in BUDGETS:
            want = _outcome(reference_iso_search, g1, g2, budget)
            got = _outcome(iso_search, g1, g2, budget)
            assert got == want, (name, budget)


def test_pruned_search_matches_reference():
    _check_agreement(_tier1_cases())


@pytest.mark.sweep
def test_pruned_search_matches_reference_sweep():
    _check_agreement(_sweep_cases())
