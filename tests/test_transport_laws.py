"""Transport laws: invariants of g and of P.g for an even change of basis P.

`gen.transport(a, P)` is the algebra that P maps a onto, so P is an
isomorphism a -> P.a and carries the center onto the center and the
derived subalgebra onto the derived subalgebra:

    center(P.g)  = span of P v over the basis vectors v of center(g),
    derived(P.g) = span of P v over the basis vectors v of derived(g),

each built with `GradedSubspace.from_vectors`, which does not go through
`Matrix.nullspace` or `GradedSubspace.from_subspace`.  The fingerprint and
the `check_axioms` verdict are isomorphism invariants, so they agree too.

Inputs: every base algebra of benchmarks/gen.py, with no pad, a (1|0) or
a (0|1) abelian pad, over Q, F_3 and F_5, seeds 0-2, sparse and dense P.
"""

import itertools
import random

import pytest
from test_decide_oracle import gen, library

from homsuper.core import GradedSubspace, center, check_axioms, derived
from homsuper.isoclinism import fingerprint
from homsuper.linalg import Matrix


@pytest.mark.parametrize("base", sorted(gen.BASES))
def test_transport_laws(base):
    for pad, p, seed, dense in itertools.product((None, (1, 0), (0, 1)), (None, 3, 5),
                                                 range(3), (False, True)):
        a = gen.BASES[base](p)
        if pad is not None:
            a = gen.direct_sum(a, gen.abelian(p, *pad))
        pm = gen.random_even(p, a.even, a.odd, random.Random(seed), dense)
        g, h = library(a), library(gen.transport(a, pm))
        f = g.field
        move = Matrix.from_rows(f, pm, g.dim).matvec
        case = (base, pad, p, seed, dense)
        for invariant in (center, derived):
            moved = [move(v) for v in invariant(g).full_basis_vectors()]
            assert invariant(h) == GradedSubspace.from_vectors(f, h.space, moved), \
                (invariant.__name__, case)
        assert fingerprint(h) == fingerprint(g), case
        assert check_axioms(h).passed == check_axioms(g).passed, case
