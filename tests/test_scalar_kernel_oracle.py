"""The sparse scalar kernels of `linalg` against their dense references.

`Matrix.rref`, `Matrix.matvec`, `Matrix.__matmul__`,
`Subspace.coordinates_of` and `Subspace.complement_in` walk nonzero
entries only, sum raw and reduce once per output entry; the references in
reference_kernel.py go through `Field.add`/`Field.mul` on every entry.
Both must give the same values of the same types, so results are compared
through repr (Fraction(0) == 0, but their reprs differ).

Inputs, over Q, F_3 and F_5: matrices from 0 to 5 rows and 0 to 6
columns, dense or sparse, with some rows repeated as combinations of
others so that eliminations cancel; vectors inside and outside the
subspaces they are checked against.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import (reference_complement_in, reference_coordinates_of,
                              reference_matmul, reference_matvec, reference_rref)

from homsuper.errors import PreconditionError
from homsuper.linalg import GF, QQ, Matrix, Subspace, vec, vec_add, vec_scale, zero_vec

FIELDS = (QQ, GF(3), GF(5))
ORACLE = settings(max_examples=300, deadline=None, derandomize=True)


def nonzero(field):
    if field.p is None:
        return st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                                Fraction(-3, 2), Fraction(5, 3)])
    return st.integers(1, field.p - 1)


def rows_of(draw, field, nrows, ncols):
    """nrows rows of length ncols: dense, or sparse with about one entry in
    four nonzero, the last rows possibly combinations of the first ones."""
    zeros = draw(st.integers(0, 3))
    entry = st.sampled_from([0] * zeros + [None])
    rows = [vec(field, [draw(nonzero(field)) if draw(entry) is None else 0
                        for _ in range(ncols)]) for _ in range(nrows)]
    for r in range(1, nrows):
        if draw(st.booleans()):
            row = zero_vec(field, ncols)
            for earlier in rows[:r]:
                row = vec_add(field, row, vec_scale(field, field.of(draw(st.integers(-1, 2))),
                                                    earlier))
            rows[r] = row
    return rows


@st.composite
def matrices(draw, field=None, nrows=None, ncols=None):
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    return Matrix.from_rows(field, rows_of(draw, field, nrows, ncols), ncols)


@st.composite
def subspaces(draw):
    m = draw(matrices())
    return Subspace.from_vectors(m.field, m.ncols, m.entries)


def vector_for(draw, sub):
    """A vector in sub, or a random one (mostly outside)."""
    f, n = sub.field, sub.ambient_dim
    if draw(st.booleans()):
        return rows_of(draw, f, 1, n)[0]
    v = zero_vec(f, n)
    for row in sub.basis_rows():
        v = vec_add(f, v, vec_scale(f, f.of(draw(st.integers(-2, 2))), row))
    return v


@ORACLE
@given(matrices())
def test_rref_matches_reference(m):
    assert repr(m.rref()) == repr(reference_rref(m))


@ORACLE
@given(matrices(), st.data())
def test_matvec_matches_reference(m, data):
    v = rows_of(data.draw, m.field, 1, m.ncols)[0]
    assert repr(m.matvec(v)) == repr(reference_matvec(m, v))


@ORACLE
@given(matrices(), st.data())
def test_matmul_matches_reference(a, data):
    b = data.draw(matrices(field=a.field, nrows=a.ncols))
    assert repr(a @ b) == repr(reference_matmul(a, b))


@ORACLE
@given(subspaces(), st.data())
def test_coordinates_of_matches_reference(sub, data):
    v = vector_for(data.draw, sub)
    assert repr(sub.coordinates_of(v)) == repr(reference_coordinates_of(sub, v))


def complement_outcome(fn, sub, within):
    try:
        return repr(fn(sub, within))
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


@ORACLE
@given(subspaces(), st.data())
def test_complement_in_matches_reference(sub, data):
    """Within the full space, within a space containing sub, and within a
    random space of the same ambient dimension (both raise unless it
    contains sub)."""
    kind = data.draw(st.sampled_from(["full", "containing", "random"]))
    within = None
    if kind != "full":
        other = data.draw(matrices(field=sub.field, ncols=sub.ambient_dim))
        rows = list(other.entries) + (sub.basis_rows() if kind == "containing" else [])
        within = Subspace.from_vectors(sub.field, sub.ambient_dim, rows)
    got = complement_outcome(Subspace.complement_in, sub, within)
    assert got == complement_outcome(reference_complement_in, sub, within)


def test_empty_shapes_match_reference():
    """0 rows, 0 columns and both, over each field."""
    for f in FIELDS:
        for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
            m = Matrix.from_rows(f, [[]] * nrows if ncols == 0 else
                                 [[1] * ncols] * nrows, ncols)
            assert repr(m.rref()) == repr(reference_rref(m))
            v = vec(f, [2] * ncols)
            assert repr(m.matvec(v)) == repr(reference_matvec(m, v))
            for k in (0, 2):
                b = Matrix.from_rows(f, [[1] * k] * ncols, k)
                assert repr(m @ b) == repr(reference_matmul(m, b))
        for n in (0, 3):
            zero = Subspace.zero(f, n)
            assert repr(zero.coordinates_of(zero_vec(f, n))) \
                == repr(reference_coordinates_of(zero, zero_vec(f, n))) == "()"
            for within in (None, zero, Subspace.full(f, n)):
                assert complement_outcome(Subspace.complement_in, zero, within) \
                    == complement_outcome(reference_complement_in, zero, within)
