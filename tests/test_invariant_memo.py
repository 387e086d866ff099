"""Invariants memoised per algebra and per factor-set object.

`center`, `derived`, `check_multiplicative`, `check_regular`,
`central_quotient`, `derived_algebra` and `fingerprint` store their value
on the algebra they are called with, and `validate_factor_set` on the
factor set.  A memoised value must equal the unmemoised function on a
separately loaded equal copy, a second call must return the same object
without any RREF (for `validate_factor_set`, without checking any table,
which every first validation does), and the memo must not leak into
equality or repr.  A decision on
warm algebras must give the same verdict and witness bytes as one on
freshly loaded copies.

Inputs are seeded: corpus stems, optionally with an abelian pad, moved by
a random invertible even change of basis, over Q, F_3 and F_5; the factor
sets are read off those algebras whose default complement of the center
is twist-invariant.
"""

import itertools
import random

import pytest

from test_search_oracle import random_even, transport

from homsuper import core, isoclinism
from homsuper.core import GradedBilinearTable, abelian, direct_sum
from homsuper.corpus import corpus, g22, hs, hs2, t2
from homsuper.errors import PreconditionError
from homsuper.factorset import factor_set_from_complement, validate_factor_set
from homsuper.fileio import (algebra_from_dict, algebra_to_dict, dumps_canonical,
                             factorset_from_dict, factorset_to_dict, witness_to_dict)
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


def _count_calls(monkeypatch, owner, name):
    """The objects the method owner.name is called on, from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def rref_calls(monkeypatch):
    return _count_calls(monkeypatch, Matrix, "rref")


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


def _has_factor_set(g):
    """True when g's default complement of the center gives a factor set;
    asked of a copy, so that the memos of g stay empty."""
    try:
        factor_set_from_complement(reload(g))
    except PreconditionError:
        return False
    return True


FACTOR_SET_ALGEBRAS = [g for g in GENERATED if _has_factor_set(g.values[0])]


def reload_factor_set(fs):
    """An equal copy of fs, read back from its file form."""
    return factorset_from_dict(factorset_to_dict(fs, "copy"))[1]


@pytest.fixture
def validation_calls(monkeypatch):
    """The tables whose graded skew-symmetry is checked: a factor set's
    validation checks its coefficient table first, while the cocycle
    kernel may return at once (on an abelian quotient, say)."""
    return _count_calls(monkeypatch, GradedBilinearTable, "skew_failures")


@pytest.mark.parametrize("g", FACTOR_SET_ALGEBRAS)
def test_factor_set_memo_matches_unmemoised_copy(g):
    fs = reload_factor_set(factor_set_from_complement(g)[0])
    copy = reload_factor_set(fs)
    assert copy == fs and copy is not fs
    assert validate_factor_set(fs) == validate_factor_set.__wrapped__(copy)
    assert repr(validate_factor_set(fs)) == repr(validate_factor_set.__wrapped__(copy))


@pytest.mark.parametrize("g", FACTOR_SET_ALGEBRAS)
def test_second_validation_is_the_same_object_without_kernel_work(g, validation_calls):
    fs = reload_factor_set(factor_set_from_complement(g)[0])
    before_eq, before_repr = reload_factor_set(fs), repr(fs)
    validation_calls.clear()
    first = validate_factor_set(fs)
    assert validation_calls == [fs.table], "the first validation checks the coefficients"
    assert fs == before_eq and before_eq == fs
    assert repr(fs) == before_repr
    validation_calls.clear()
    assert validate_factor_set(fs) is first
    assert validation_calls == []


@pytest.mark.parametrize("g", FACTOR_SET_ALGEBRAS)
def test_factor_set_from_complement_leaves_a_memo_hit(g, validation_calls):
    """factor_set_from_complement validates its factor set (through
    extend), so validating the returned factor set again is free."""
    fs = factor_set_from_complement(reload(g))[0]
    validation_calls.clear()
    assert validate_factor_set(fs).passed
    assert validation_calls == []


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
