"""Kernel routines against independent oracles.

`GradedSubspace.from_subspace` (split by projection) and `Field.of`
(canonical values pass through) are compared with the reference versions
in reference_kernel.py; `Matrix.rref` and `Matrix.nullspace` over Q are
compared with sympy.  Equality of field elements is checked together with
their type, since Fraction(1) == 1.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import reference_field_of, reference_from_subspace

from homsuper.core import GradedSubspace, SuperSpace
from homsuper.linalg import GF, QQ, Matrix, Subspace

FIELDS = (QQ, GF(3), GF(5))


def typed(rows):
    return tuple(tuple((type(x), x) for x in row) for row in rows)


def typed_graded(gs):
    return typed(gs.even.basis_rows()), typed(gs.odd.basis_rows())


def scalars(field):
    if field.p is None:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-2, max_value=2, max_denominator=3))
    return st.integers(-1, field.p)


@st.composite
def subspaces(draw, extra):
    """A subspace of F^(p|q), p, q <= 3, spanned by homogeneous vectors
    plus up to `extra` arbitrary ones (with none, it is graded)."""
    field = draw(st.sampled_from(FIELDS))
    p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def vectors(n, k):
        return draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=k))

    spanning = [e + [0] * q for e in vectors(p, 3)]
    spanning += [[0] * p + o for o in vectors(q, 3)]
    spanning += vectors(p + q, extra)
    return SuperSpace(p, q), Subspace.from_vectors(field, p + q, spanning)


@settings(max_examples=200, deadline=None)
@given(subspaces(extra=0))
def test_from_subspace_matches_reference_on_graded(case):
    space, sub = case
    expected = reference_from_subspace(space, sub)
    got = GradedSubspace.from_subspace(space, sub)
    assert got == expected
    assert typed_graded(got) == typed_graded(expected)
    assert got.dim == sub.dim


@settings(max_examples=200, deadline=None)
@given(subspaces(extra=2))
def test_from_subspace_matches_reference_on_any(case):
    space, sub = case
    try:
        expected = reference_from_subspace(space, sub)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            GradedSubspace.from_subspace(space, sub)
        assert str(info.value) == str(exc)
        return
    got = GradedSubspace.from_subspace(space, sub)
    assert got == expected
    assert typed_graded(got) == typed_graded(expected)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_from_subspace_rejects_mixed_vector(field):
    space = SuperSpace(3, 3)
    sub = Subspace.from_vectors(field, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0]])
    for split in (reference_from_subspace, GradedSubspace.from_subspace):
        with pytest.raises(ValueError, match="subspace is not graded"):
            split(space, sub)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_from_subspace_full_and_zero(field):
    space = SuperSpace(3, 3)
    for sub in (Subspace.full(field, 6), Subspace.zero(field, 6)):
        got = GradedSubspace.from_subspace(space, sub)
        assert got == reference_from_subspace(space, sub)
        assert got.dims == ((3, 3) if sub.dim else (0, 0))


@pytest.mark.parametrize("dim", [0, 1])
def test_from_subspace_rejects_other_ambient(dim):
    sub = Subspace.full(QQ, 5) if dim else Subspace.zero(QQ, 5)
    for split in (reference_from_subspace, GradedSubspace.from_subspace):
        with pytest.raises(ValueError, match="different ambient spaces"):
            split(SuperSpace(3, 3), sub)


# ---------------------------------------------------------------------------
# Field.of

class SubInt(int):
    pass


class SubFraction(Fraction):
    pass


SCALAR_INPUTS = st.one_of(
    st.integers(-30, 30),
    st.booleans(),
    st.fractions(max_denominator=30),
    st.integers(-30, 30).map(str),
    st.fractions(max_denominator=30).map(str),
    st.integers(-30, 30).map(SubInt),
    st.fractions(max_denominator=30).map(SubFraction),
    st.sampled_from(["", "x", "1/0", " 2 ", "-0"]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((QQ, GF(3), GF(5), GF(7))), SCALAR_INPUTS)
def test_field_of_matches_reference(field, x):
    try:
        expected = reference_field_of(field, x)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            field.of(x)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    got = field.of(x)
    assert got == expected
    assert type(got) is type(expected)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_field_of_denominator_vanishing_mod_p_raises(p):
    for x in (Fraction(1, p), Fraction(2, 3 * p), SubFraction(1, p)):
        with pytest.raises(ZeroDivisionError):
            GF(p).of(x)


def test_field_of_returns_canonical_values_unchanged():
    x = Fraction(-7, 11)
    assert QQ.of(x) is x
    assert GF(5).of(4) == 4 and type(GF(5).of(True)) is int
    assert type(QQ.of(SubFraction(1, 2))) is Fraction
    assert GF(5).of(-1) == 4 and GF(5).of(5) == 0


# ---------------------------------------------------------------------------
# rref and nullspace over Q against sympy

@st.composite
def rational_matrices(draw):
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2, max_denominator=4))
    return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)
                          for x in row] for row in rows])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_rref_matches_sympy(rows):
    red, pivots = Matrix.from_rows(QQ, rows).rref()
    s_red, s_pivots = to_sympy(rows).rref()
    assert pivots == tuple(s_pivots)
    assert typed(red.entries) == typed(
        tuple(from_sympy(s_red[i, j]) for j in range(s_red.cols)) for i in range(s_red.rows))


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_nullspace_matches_sympy(rows):
    m = Matrix.from_rows(QQ, rows)
    ker = m.nullspace()
    s_ker = [[from_sympy(x) for x in v] for v in to_sympy(rows).nullspace()]
    assert ker == Subspace.from_vectors(QQ, m.ncols, s_ker)
    assert ker.dim == len(s_ker) == m.ncols - m.rank()
    for v in ker.basis_rows():
        assert all(x == 0 for x in m.matvec(v))
