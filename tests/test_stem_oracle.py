"""`stem_decompose` against the reference in reference_kernel.py.

Inputs are generated over Q, F_3 and F_5: the base algebras hs, t2, hso,
g22, g21 and zc, each padded by an abelian summand of graded dims (0|0),
(1|0), (0|1) or (1|1), and moved by the identity, a seeded monomial
(sparse) or a seeded dense even change of basis.  Both sides must give
the same stem part, abelian part and isomorphism, compared through repr
so that entry types count, or both must raise PreconditionError.
"""

import random

import pytest

from reference_kernel import reference_stem_decompose
from test_search_oracle import g21, hso, random_even, transport

from homsuper.core import HomLieSuperalgebra, SuperSpace, abelian, direct_sum
from homsuper.corpus import g22, hs, t2
from homsuper.errors import PreconditionError
from homsuper.isoclinism import stem_decompose
from homsuper.linalg import GF, QQ, Matrix

FIELDS = (QQ, GF(3), GF(5))
PADS = ((0, 0), (1, 0), (0, 1), (1, 1))


def zc(field):
    """{z, c | f}, [f, f] = z, theta(c) = 2c + z: regular, and span(c + z)
    is a twist-invariant complement of the derived subalgebra in the
    center, but the greedy complement span(c) is not."""
    twist = Matrix.from_rows(field, [[1, 1, 0], [0, 2, 0], [0, 0, 1]], 3)
    return HomLieSuperalgebra(SuperSpace(2, 1), {(2, 2): {0: 1}}, twist)


BASES = {"hs": hs, "t2": t2, "hso": hso, "g22": g22, "g21": g21, "zc": zc}


def _cases():
    rng = random.Random(8)
    for field in FIELDS:
        for name, base in BASES.items():
            for pad in PADS:
                g = direct_sum(base(field), abelian(field, *pad))
                p, q = g.space.dims
                yield f"{field.name}/{name}+{pad}/id", g
                for kind, monomial in (("sparse", True), ("dense", False)):
                    pm = random_even(field, p, q, rng, monomial)
                    yield f"{field.name}/{name}+{pad}/{kind}", transport(g, pm)


def _outcome(decompose, g):
    try:
        sd = decompose(g)
    except PreconditionError:
        return "raises"
    return repr((sd.stem_part, sd.abelian_part, sd.iso))


def test_stem_decompose_matches_reference():
    outcomes = []
    for name, g in _cases():
        want = _outcome(reference_stem_decompose, g)
        assert _outcome(stem_decompose, g) == want, name
        outcomes.append(want)
    assert len(outcomes) == 216
    assert 0 < outcomes.count("raises") < len(outcomes)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_greedy_central_complement_not_invariant(field):
    with pytest.raises(PreconditionError, match="^subspace is not twist-invariant$"):
        stem_decompose(zc(field))
