"""`iso_search` against the positional reference enumerators.

Pairs are generated from small base algebras: reflexive pairs, transports
g -> P.g by seeded random even changes of basis P, and pairs whose twists
share a characteristic polynomial without being conjugate.  Graded dims
stay at most (2|2) over F_3 and F_5 and at most (2|1) or (1|2) over Q.

At an unbounded budget the search must give what the references give:
the same matrix entries, the same None, or SearchInconclusive for the same
reason.  The brute-force reference checks every pair whose candidate
family has at most BRUTE_FORCE_LIMIT positions, the block-pruned one the
rest.  The references count their budget in positions of the candidate
order and the search in examined nodes, so at a finite budget the search
is checked against its own unbounded result instead: at every budget in
BUDGETS it must give that result or SearchInconclusive("budget"), and
once definitive it must stay definitive at every larger budget.  On
pairs of at most 3^5 candidates, the search's generator must also yield
every isomorphism among the brute-force candidates, in their order.

The default set runs in a few seconds; `pytest --sweep` also runs a larger
sweep with more transports per base algebra.
"""

import math
import random
from fractions import Fraction

import pytest

from reference_search import candidates, pruned_reference_iso_search, reference_iso_search

from homsuper.core import (EvenLinearMap, HomLieSuperalgebra, SuperSpace, abelian, direct_sum,
                           is_isomorphism)
from homsuper.corpus import g22, hs, hs2, t2
from homsuper.errors import SearchInconclusive
from homsuper.isoclinism import DEFAULT_BUDGET, DEFAULT_SCALARS, _Search, iso_search
from homsuper.linalg import GF, QQ, Matrix

BUDGETS = (0, 1, 4, 5, 7, 10, 11, 100, 1000, 6561)
UNBOUNDED = 10 ** 12
BRUTE_FORCE_LIMIT = 10_000
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
    """Pairs covering every outcome: found maps, None over F_p, both
    inconclusive reasons (hs/scaled over Q exhausts its restricted family
    of 100 candidates), pairs the brute-force reference cannot finish
    (g22 over F_5: 5^8 positions), and empty even or odd blocks."""
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


def _positions(g):
    """The size of the candidate family the references walk."""
    p, q = g.space.dims
    if g.field.p is not None:
        return g.field.p ** (p * p + q * q)
    return math.factorial(p) * math.factorial(q) * len(DEFAULT_SCALARS) ** (p + q)


def _check_agreement(cases):
    for name, g1, g2 in cases:
        small = _positions(g1) <= BRUTE_FORCE_LIMIT
        reference = reference_iso_search if small else pruned_reference_iso_search
        want = _outcome(reference, g1, g2, UNBOUNDED)
        assert _outcome(iso_search, g1, g2, UNBOUNDED) == want, name
        definitive = False
        for budget in BUDGETS:
            got = _outcome(iso_search, g1, g2, budget)
            assert got in (want, ("inconclusive", "budget")), (name, budget)
            assert not definitive or got == want, (name, budget)
            definitive = got == want


def test_pruned_search_matches_reference():
    _check_agreement(_tier1_cases())


@pytest.mark.sweep
def test_pruned_search_matches_reference_sweep():
    _check_agreement(_sweep_cases())


def test_search_wall_is_definitive():
    """Dense transports of g22 (+) hs over F_3, (3|3), and of g22 over F_7
    are definitive under the default budget, with the block-pruned
    reference's map.  Counted in positions, both ran out of the budget."""
    rng = random.Random(23)
    for g in (direct_sum(g22(F3), hs(F3)), g22(GF(7))):
        for _ in range(2):
            p, q = g.space.dims
            h = transport(g, random_even(g.field, p, q, rng, monomial=False))
            want = _outcome(pruned_reference_iso_search, g, h, UNBOUNDED)
            assert want[0] == "map"
            assert _outcome(iso_search, g, h, DEFAULT_BUDGET) == want


@pytest.mark.parametrize("name, g, nodes", [("hs/F3", hs(F3), 5), ("g22/F3", g22(F3), 11)])
def test_budget_counts_examined_nodes(name, g, nodes):
    """The budget unit is one examined node, the root included.

    hs over F_3, (1|1): the root, E = 0 (singular), E = 1, O = 0
    (singular), O = 1, which is the identity: 5 nodes.  g22 over F_3,
    (2|2), walked one row at a time: [e1, e2] = 2e2 forces E[0, 1] = 0, a
    linear condition, so E's first row takes two nodes, (0, 0) and (1, 0);
    its second row two more, (0, 0) and (0, 1); O's first row two, (0, 0)
    and (0, 1); and its second row four, (0, 0), (0, 1) and (0, 2), which
    lie in the span of the first row, and (1, 0).  With the root that is 11 nodes, and
    the map found is the identity on the even part and the swap f1 <-> f2
    on the odd part."""
    assert _outcome(iso_search, g, g, nodes)[0] == "map", name
    assert _outcome(iso_search, g, g, nodes - 1) == ("inconclusive", "budget"), name


def test_search_yields_every_isomorphism_in_candidate_order():
    """The search's generator yields exactly the candidates that are
    isomorphisms, in candidate order: every even matrix over F_3, the
    restricted family over Q.  Each pair is a base algebra and a seeded
    transport of it, dense over F_3 and monomial over Q so that the family
    holds isomorphisms, with at most 3^5 candidates."""
    rng = random.Random(31)
    for g in (hs(F3), t2(F3), hso(F3), g21(F3), hs(QQ), t2(QQ)):
        f, (p, q) = g.field, g.space.dims
        h = transport(g, random_even(f, p, q, rng, monomial=f.p is None))
        search = _Search(g, h, UNBOUNDED)
        got = [m.matrix.entries for m in (search.prime_field() if f.p else search.rationals())]
        want = [m.entries for m in candidates(f, p, q)
                if m.is_invertible() and is_isomorphism(EvenLinearMap(g.space, h.space, m), g, h)]
        assert got == want and want, (g, h)
        assert iso_search(g, h, UNBOUNDED).matrix.entries == want[0]
