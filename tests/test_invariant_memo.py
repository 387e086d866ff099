"""Invariants memoised per algebra object.

`center`, `derived`, `check_multiplicative`, `check_regular`,
`central_quotient`, `derived_algebra` and `fingerprint` store their value
on the algebra they are called with.  A memoised value must equal the
unmemoised function on a separately loaded equal copy, a second call
must return the same object without any RREF, and the memo must not leak
into the algebra's equality or repr.  A decision on warm algebras must
give the same verdict and witness bytes as one on freshly loaded copies.

Inputs are seeded: corpus stems, optionally with an abelian pad, moved by
a random invertible even change of basis, over Q, F_3 and F_5.
"""

import itertools
import random

import pytest

from test_search_oracle import random_even, transport

from homsuper import core, isoclinism
from homsuper.core import abelian, direct_sum
from homsuper.corpus import corpus, g22, hs, hs2, t2
from homsuper.fileio import algebra_from_dict, algebra_to_dict, dumps_canonical, witness_to_dict
from homsuper.linalg import GF, QQ, Matrix

MEMOISED = (core.center, core.derived, core.check_multiplicative, core.check_regular,
            isoclinism.central_quotient, isoclinism.derived_algebra, isoclinism.fingerprint)


def reload(g):
    """An equal copy of g, read back from its file form."""
    return algebra_from_dict(algebra_to_dict(g, "copy"))[1]


def generated():
    rng = random.Random(20261018)
    out = []
    for field in (QQ, GF(3), GF(5)):
        for base, pad in itertools.product((hs, hs2, t2, g22), ((0, 0), (1, 0), (1, 1))):
            g = base(field)
            if pad != (0, 0):
                g = direct_sum(g, abelian(field, *pad))
            pm = random_even(field, *g.space.dims, rng, monomial=False)
            out.append(pytest.param(transport(g, pm),
                                    id=f"{base.__name__}+{pad}/{field.name}"))
    return out


GENERATED = generated()


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = Matrix.rref

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    return calls


@pytest.mark.parametrize("fn", MEMOISED, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("g", GENERATED)
def test_memo_matches_unmemoised_copy(fn, g):
    copy = reload(g)
    assert copy == g and copy is not g
    assert fn(g) == fn.__wrapped__(copy)
    assert repr(fn(g)) == repr(fn.__wrapped__(copy))


@pytest.mark.parametrize("fn", MEMOISED, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("g", GENERATED)
def test_second_call_is_the_same_object_without_rref(fn, g, rref_calls):
    g = reload(g)
    before_eq, before_repr = reload(g), repr(g)
    first = fn(g)
    assert g == before_eq and before_eq == g
    assert repr(g) == before_repr
    rref_calls.clear()
    assert fn(g) is first
    assert rref_calls == []


def _warm(g):
    for fn in MEMOISED:
        fn(g)
    return g


def _decision(g1, g2):
    verdict, w = isoclinism.isoclinic_decide(g1, g2)
    return verdict, None if w is None else dumps_canonical(witness_to_dict(w, g1, g2))


def test_decide_on_warm_algebras_matches_fresh_copies():
    algebras = corpus()
    pairs = [(a, b) for a, b in itertools.product(sorted(algebras), repeat=2)
             if algebras[a].field == algebras[b].field]
    for a, b in pairs:
        warm = (_warm(reload(algebras[a])), _warm(reload(algebras[b])))
        fresh = (reload(algebras[a]), reload(algebras[b]))
        assert _decision(*warm) == _decision(*fresh), (a, b)
