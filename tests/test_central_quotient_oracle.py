"""quotient and central_quotient against the construction quotient once had.

`quotient` and `central_quotient` both read the quotient off the stored
cells through `core._quotient`, one RREF of the subspace's basis rows with
the columns reversed per parity block.  `reference_quotient` builds it the
old way: the Hom-ideal check, the greedy complement W of `complement_in`,
the projection off the inverse of the basis k | W, and the brackets and
twist images of W's basis projected.  The two must agree entry for entry
(`==` and `repr`, so the scalar types and the order of the bracket cells
too): the quotient algebra and the projection matrix of `quotient(g, k)`
for k the center Z, the derived subalgebra G', Z ∩ G', 0 and the whole
space, and the section matrix of `central_quotient` as well.  An ideal
that is not twist-invariant raises the same PreconditionError from both.

Inputs: the corpus; transports by benchmarks/gen.py of every base algebra
with no pad or a (1|0), (0|1), (1|1) or (2|1) abelian pad, over Q, F_3 and
F_5, seeds 0-3, by sparse and dense P; dense transports of g22^k + hs^m.
Every corpus center is spanned by coordinate vectors, a dense transport's
center mostly is not.
"""

import itertools
import random
import re

import pytest

from homsuper.core import (EvenLinearMap, GradedSubspace, HomLieSuperalgebra, SuperSpace,
                           center, derived, quotient)
from homsuper.errors import PreconditionError
from homsuper.isoclinism import central_quotient
from homsuper.linalg import GF, QQ, Matrix
from reference_kernel import reference_quotient
from test_decide_oracle import gen, library


def assert_same(got, want, case):
    """got and want agree in length and entry for entry, maps compared by
    their matrices."""
    assert len(got) == len(want), case
    for a, b in zip(got, want):
        if isinstance(a, EvenLinearMap):
            a, b = a.matrix, b.matrix
        assert a == b, case
        assert repr(a) == repr(b), case


def assert_reference_route(g, case):
    z, dsub = center(g), derived(g)
    for name, k in (("Z", z), ("G'", dsub), ("Z ∩ G'", z.intersect(dsub)),
                    ("0", GradedSubspace.zero(g.field, g.space)),
                    ("full", GradedSubspace.full(g.field, g.space))):
        try:
            want = reference_quotient(g, k)
        except PreconditionError as exc:
            with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                quotient(g, k)
            if k is z:
                with pytest.raises(PreconditionError, match=re.escape(str(exc))):
                    central_quotient(g)
            continue
        assert_same(quotient(g, k), want[:2], (case, name))
        if k is z:
            assert_same(central_quotient(g), want, (case, name))


def test_corpus(algebras):
    for name, g in sorted(algebras.items()):
        assert_reference_route(g, name)


@pytest.mark.parametrize("base", sorted(gen.BASES))
def test_transports(base):
    for pad, p, seed, dense in itertools.product(
            (None, (1, 0), (0, 1), (1, 1), (2, 1)), (None, 3, 5), range(4), (False, True)):
        a = gen.BASES[base](p)
        if pad is not None:
            a = gen.direct_sum(a, gen.abelian(p, *pad))
        b = gen.transport(a, gen.random_even(p, a.even, a.odd, random.Random(seed), dense))
        assert_reference_route(library(b), (base, pad, p, seed, dense))


def test_dense_sums_of_g22_and_hs():
    for k, m, p, seed in itertools.product(range(3), range(3), (None, 3), range(2)):
        if k + m == 0:
            continue
        a = gen.sum_of([gen.g22(p)] * k + [gen.hs(p)] * m)
        b = gen.transport(a, gen.random_even(p, a.even, a.odd, random.Random(seed), True))
        assert_reference_route(library(b), (k, m, p, seed))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_center_not_twist_invariant(field):
    """(3|0) with [x, y] = z and theta swapping x and z: the center span(z)
    goes to span(x)."""
    g = HomLieSuperalgebra(SuperSpace(3, 0), {(0, 1): {2: 1}},
                           Matrix.from_rows(field, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3))
    with pytest.raises(PreconditionError, match="quotient: subspace is not a Hom-ideal"):
        reference_quotient(g, center(g))
    with pytest.raises(PreconditionError, match="quotient: subspace is not a Hom-ideal"):
        quotient(g, center(g))
    with pytest.raises(PreconditionError, match="quotient: subspace is not a Hom-ideal"):
        central_quotient(g)
