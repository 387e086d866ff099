"""verify_isoclinism against the dense reference
`reference_witness.reference_verify_isoclinism`: the two reports must be
equal (==), failures, their order and their sides included, on three
kinds of witness.

* The identity witnesses of g and of P.g, and the witness that P induces
  (`witness_from_surjection`), on the transport pairs (g, P.g) of every
  base algebra of benchmarks/gen.py over Q, F_3 and F_5, seeds 0-2,
  sparse and dense P.  These all verify.
* Independent scalings mu = diag(a_i) and nu = b I on hs, hs2, t2 and
  hso.  Their central quotients and derived algebras are abelian, with a
  scalar twist on hso's (0|2) quotient, so both maps are isomorphisms and
  the square fails wherever b differs from a_i^2.
* The identity mu with every even invertible nu on g22' over F_3.  The
  automorphisms of g22' among them reach the square and the coset check,
  and some fail both.
"""

import itertools
import random
from fractions import Fraction

from reference_witness import reference_verify_isoclinism
from test_decide_oracle import even_invertible, gen, library

from homsuper.core import EvenLinearMap, is_isomorphism
from homsuper.isoclinism import (IsoclinismWitness, central_quotient,
                                 derived_algebra, identity_witness,
                                 verify_isoclinism, witness_from_surjection)
from homsuper.linalg import GF, Matrix

F3 = GF(3)

SCALARS = {None: (1, -1, 2, Fraction(1, 2)), 3: (1, 2), 5: (1, 2, 3, 4)}


def same_report(g1, g2, w):
    got = verify_isoclinism(g1, g2, w)
    assert got == reference_verify_isoclinism(g1, g2, w)
    return got


def test_transport_witnesses_agree():
    for base, p, seed, dense in itertools.product(sorted(gen.BASES), (None, 3, 5),
                                                  range(3), (False, True)):
        a = gen.BASES[base](p)
        pm = gen.random_even(p, a.even, a.odd, random.Random(seed), dense)
        g, h = library(a), library(gen.transport(a, pm))
        move = EvenLinearMap(g.space, h.space, Matrix.from_rows(g.field, pm, g.dim))
        for g1, g2, w in ((g, g, identity_witness(g)), (h, h, identity_witness(h)),
                          (g, h, witness_from_surjection(move, g, h))):
            assert same_report(g1, g2, w).passed, (base, p, seed, dense)


def scalings(g):
    """Every witness (diag(a_i), b I) on g with a_i, b in SCALARS."""
    q, _, _ = central_quotient(g)
    d, _ = derived_algebra(g)
    f = g.field
    scalars = SCALARS[f.p]
    for mus in itertools.product(scalars, repeat=q.dim):
        mu = Matrix.from_rows(f, [[mus[i] if i == j else 0 for j in range(q.dim)]
                                  for i in range(q.dim)], q.dim)
        for b in scalars:
            nu = Matrix.from_rows(f, [[b if i == j else 0 for j in range(d.dim)]
                                      for i in range(d.dim)], d.dim)
            yield IsoclinismWitness(EvenLinearMap(q.space, q.space, mu),
                                    EvenLinearMap(d.space, d.space, nu))


def test_scaled_witnesses_agree(algebras):
    algs = [library(gen.BASES[name](p)) for name in ("hs", "t2", "hso") for p in SCALARS]
    algs += [algebras["hs2"], algebras["hs2_f3"]]
    axioms = set()
    for g in algs:
        for w in scalings(g):
            axioms.update(fl.axiom for fl in same_report(g, g, w).failures)
    assert axioms == {"square"}


def test_derived_automorphisms_of_g22_over_f3_agree(algebras):
    g = algebras["g22_f3"]
    q, _, _ = central_quotient(g)
    d, _ = derived_algebra(g)
    mu = EvenLinearMap.identity(F3, q.space)
    kinds = set()
    for nu in even_invertible(d.space):
        nu = EvenLinearMap(d.space, d.space, nu)
        rep = same_report(g, g, IsoclinismWitness(mu, nu))
        if is_isomorphism(nu, d, d):
            kinds.add(tuple(sorted({fl.axiom for fl in rep.failures})))
    assert kinds == {(), ("coset", "square")}
