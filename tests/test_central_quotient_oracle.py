"""central_quotient against the general quotient route.

`central_quotient` reads the quotient by the center off the stored cells,
through one RREF of the center's basis rows with the columns reversed per
parity block.  The general route is `quotient(g, z, reps=w)` with z =
center(g) and w = z.complement_in(), plus the section through w's basis.
The two must agree entry for entry (`==` and `repr`, so the scalar types
and the order of the bracket cells too): the quotient algebra, the
projection matrix and the section matrix.

Inputs: the corpus; transports by benchmarks/gen.py of every base algebra
with no pad or a (1|0), (0|1), (1|1) or (2|1) abelian pad, over Q, F_3 and
F_5, seeds 0-3, by sparse and dense P; dense transports of g22^k + hs^m.
Every corpus center is spanned by coordinate vectors, a dense transport's
center mostly is not.  A center that is not twist-invariant raises the
general route's PreconditionError.
"""

import itertools
import random

import pytest

from homsuper.core import HomLieSuperalgebra, SuperSpace, center, quotient
from homsuper.errors import PreconditionError
from homsuper.isoclinism import central_quotient
from homsuper.linalg import GF, QQ, Matrix
from test_decide_oracle import gen, library


def assert_general_route(g, case):
    z = center(g)
    w = z.complement_in()
    want_q, want_proj = quotient(g, z, reps=w)
    want_sect = Matrix.from_columns(g.field, w.full_basis_vectors(), g.dim)
    q, proj, sect = central_quotient(g)
    for got, want in ((q, want_q), (proj.matrix, want_proj.matrix), (sect.matrix, want_sect)):
        assert got == want, case
        assert repr(got) == repr(want), case


def test_corpus(algebras):
    for name, g in sorted(algebras.items()):
        assert_general_route(g, name)


@pytest.mark.parametrize("base", sorted(gen.BASES))
def test_transports(base):
    for pad, p, seed, dense in itertools.product(
            (None, (1, 0), (0, 1), (1, 1), (2, 1)), (None, 3, 5), range(4), (False, True)):
        a = gen.BASES[base](p)
        if pad is not None:
            a = gen.direct_sum(a, gen.abelian(p, *pad))
        b = gen.transport(a, gen.random_even(p, a.even, a.odd, random.Random(seed), dense))
        assert_general_route(library(b), (base, pad, p, seed, dense))


def test_dense_sums_of_g22_and_hs():
    for k, m, p, seed in itertools.product(range(3), range(3), (None, 3), range(2)):
        if k + m == 0:
            continue
        a = gen.sum_of([gen.g22(p)] * k + [gen.hs(p)] * m)
        b = gen.transport(a, gen.random_even(p, a.even, a.odd, random.Random(seed), True))
        assert_general_route(library(b), (k, m, p, seed))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_center_not_twist_invariant(field):
    """(3|0) with [x, y] = z and theta swapping x and z: the center span(z)
    goes to span(x)."""
    g = HomLieSuperalgebra(SuperSpace(3, 0), {(0, 1): {2: 1}},
                           Matrix.from_rows(field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3))
    with pytest.raises(PreconditionError, match="quotient: subspace is not a Hom-ideal"):
        quotient(g, center(g))
    with pytest.raises(PreconditionError, match="quotient: subspace is not a Hom-ideal"):
        central_quotient(g)
