"""Exact linear algebra: echelon forms, kernels, solving, subspace arithmetic."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_sparse_kernel_oracle import LARGEST_PRIME

from homsuper.errors import FormatError, PreconditionError
from homsuper.fileio import parse_field
from homsuper.linalg import GF, QQ, Field, Matrix, Subspace, _Slots

F3 = GF(3)


def qmat(rows):
    return Matrix.from_rows(QQ, rows, len(rows[0]))


def f3mat(rows):
    return Matrix.from_rows(F3, rows, len(rows[0]))


# strategies: small integer matrices over Q and F_3

def matrices(field, max_dim=4, lo=-3, hi=3):
    def build(draw):
        r = draw(st.integers(1, max_dim))
        c = draw(st.integers(1, max_dim))
        ents = draw(st.lists(
            st.lists(st.integers(lo, hi), min_size=c, max_size=c),
            min_size=r, max_size=r))
        return Matrix.from_rows(field, ents, c)
    return st.composite(build)()


# ---------------------------------------------------------------------------
# scalars

def test_rational_canonical_form():
    assert QQ.parse("4/6") == Fraction(2, 3)
    assert QQ.fmt(Fraction(2, 3)) == "2/3"
    assert QQ.fmt(Fraction(-5)) == "-5"
    assert QQ.parse(QQ.fmt(Fraction(-7, 11))) == Fraction(-7, 11)


def test_prime_field_canonical_range():
    assert F3.parse("5") == 2
    assert F3.of(-1) == 2
    assert F3.fmt(F3.of(7)) == "1"
    assert F3.of(Fraction(1, 2)) == 2  # inverse of 2 is 2 mod 3


def test_bad_scalars_rejected():
    with pytest.raises(FormatError):
        QQ.parse("1/0")
    with pytest.raises(FormatError):
        QQ.parse("x")
    with pytest.raises(FormatError):
        F3.parse("1/2")


def test_bad_fields_rejected():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(2)


def test_large_prime_modulus_parses_fast():
    start = time.perf_counter()
    f = parse_field("Fp:100000000000031")
    assert time.perf_counter() - start < 0.1
    assert f == GF(100000000000031)


@pytest.mark.parametrize("n", [561, 3215031751])
def test_carmichael_modulus_rejected(n):
    # 3215031751 is also a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(ValueError, match="not prime"):
        Field(n)
    with pytest.raises(FormatError, match="not prime"):
        parse_field(f"Fp:{n}")


@given(st.integers(-50, 50), st.integers(1, 50), st.integers(-50, 50), st.integers(1, 50))
def test_exact_arithmetic_roundtrip(an, ad, bn, bd):
    a, b = Fraction(an, ad), Fraction(bn, bd)
    assert QQ.sub(QQ.add(a, b), b) == a
    x, y = F3.of(an), F3.of(bn)
    assert F3.sub(F3.add(x, y), y) == x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([QQ, F3, GF(5), GF(LARGEST_PRIME)]),
       st.one_of(st.integers(0, 40), st.integers(0, 2 ** 200)), st.integers(0, 4), st.data())
def test_slots_hold_every_vector_within_the_bound(field, bound, n, data):
    """Vectors with entries anywhere in [-bound, bound], the extremes and
    multiples of p included, pack into one int that tests zero exactly when
    every entry vanishes in the field, and unpack to the entries divided by
    the scale (Q) or reduced mod p (F_p)."""
    p = field.p
    scale = 1 if p is not None else data.draw(st.integers(1, 10 ** 6))
    entries = [st.sampled_from([-bound, 0, bound]), st.integers(-bound, bound)]
    if p is not None:
        entries.append(st.integers(-(bound // p), bound // p).map(lambda t: t * p))
    v = data.draw(st.lists(st.one_of(entries), min_size=n, max_size=n))
    slots = _Slots(field, n, bound, scale)
    x = slots.pack(enumerate(v))
    want = tuple(Fraction(e, scale) if p is None else e % p for e in v)
    assert repr(slots.unpack(x)) == repr(want)
    assert slots.is_zero(x) == (not any(want))


# ---------------------------------------------------------------------------
# rref / nullspace / solve

def test_rref_identity_is_fixed():
    m = Matrix.identity(QQ, 2)
    red, piv = m.rref()
    assert red == m and piv == (0, 1)


def test_rref_rank_one():
    red, piv = qmat([[2, 4], [1, 2]]).rref()
    assert red == qmat([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_mod3():
    red, piv = f3mat([[1, 1], [1, 2]]).rref()
    assert red == Matrix.identity(F3, 2)
    assert piv == (0, 1)


@given(matrices(QQ))
def test_rref_idempotent_rational(m):
    red, _ = m.rref()
    assert red.rref()[0] == red


@given(matrices(F3, lo=0, hi=2))
def test_rref_idempotent_mod3(m):
    red, _ = m.rref()
    assert red.rref()[0] == red


def test_nullspace_zero_map_is_everything():
    assert Matrix.zero(QQ, 2, 2).nullspace() == Subspace.full(QQ, 2)


def test_nullspace_injective_map_is_trivial():
    assert Matrix.identity(QQ, 2).nullspace() == Subspace.zero(QQ, 2)


def test_nullspace_single_relation():
    # oracle: x + 2y = 0 with x = 1 forces y = -1/2
    ns = qmat([[1, 2]]).nullspace()
    assert ns.basis_rows() == [(Fraction(1), Fraction(-1, 2))]


@given(matrices(QQ))
def test_rank_nullity_rational(m):
    assert m.rank() + m.nullspace().dim == m.ncols


@given(matrices(F3, lo=0, hi=2))
def test_rank_nullity_mod3(m):
    assert m.rank() + m.nullspace().dim == m.ncols


def test_solve_identity():
    b = (Fraction(3), Fraction(-1))
    assert Matrix.identity(QQ, 2).solve(b) == b


def test_solve_underdetermined_first_pivot_convention():
    assert qmat([[1, 1]]).solve((Fraction(2),)) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    assert qmat([[1], [1]]).solve((Fraction(1), Fraction(2))) is None


@given(matrices(QQ), st.data())
def test_solve_is_exact_when_it_returns(m, data):
    b = tuple(Fraction(data.draw(st.integers(-3, 3))) for _ in range(m.nrows))
    x = m.solve(b)
    if x is not None:
        assert m.matvec(x) == b


# ---------------------------------------------------------------------------
# subspaces

def e(n, i):
    return tuple(QQ.one if j == i else QQ.zero for j in range(n))


def test_complement_in_plane():
    w = Subspace.from_vectors(QQ, 2, [e(2, 0)])
    assert w.complement_in() == Subspace.from_vectors(QQ, 2, [e(2, 1)])


def test_intersection_of_coordinate_planes():
    u = Subspace.from_vectors(QQ, 3, [e(3, 0), e(3, 1)])
    v = Subspace.from_vectors(QQ, 3, [e(3, 1), e(3, 2)])
    assert u.intersect(v) == Subspace.from_vectors(QQ, 3, [e(3, 1)])


def test_zero_subspace_contained_in_anything():
    z = Subspace.zero(QQ, 3)
    assert Subspace.from_vectors(QQ, 3, [e(3, 1)]).contains(z)
    assert z.contains(z)


def test_complement_requires_containment():
    w = Subspace.from_vectors(QQ, 2, [e(2, 0)])
    outside = Subspace.from_vectors(QQ, 2, [e(2, 1)])
    with pytest.raises(PreconditionError):
        w.complement_in(outside)


@given(matrices(QQ, max_dim=4))
def test_complement_is_direct(m):
    sub = Subspace.from_vectors(m.field, m.ncols, m.entries)
    comp = sub.complement_in()
    assert sub.dim + comp.dim == m.ncols
    assert sub.intersect(comp).dim == 0
    assert (sub + comp) == Subspace.full(QQ, m.ncols)


@given(matrices(QQ, max_dim=4), matrices(QQ, max_dim=4))
def test_complement_within_subspace(m1, m2):
    n = max(m1.ncols, m2.ncols)
    u = Subspace.from_vectors(QQ, n, [r + (0,) * (n - m1.ncols) for r in m1.entries])
    w0 = Subspace.from_vectors(QQ, n, [r + (0,) * (n - m2.ncols) for r in m2.entries])
    w = w0.intersect(u)
    comp = w.complement_in(u)
    assert w.dim + comp.dim == u.dim
    assert w.intersect(comp).dim == 0
    assert (w + comp) == u


def _scalars(field):
    """Field elements; over Q with numerators and denominators up to 10^6."""
    if field.p is None:
        return st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
    return st.integers(0, field.p - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((QQ, F3, GF(5), GF(LARGEST_PRIME))), st.integers(1, 5), st.data())
def test_intersection_lies_in_both_and_satisfies_the_dimension_formula(field, n, data):
    """U holds the vectors `common`, W combinations of them, so U and W
    meet in at least the span of those combinations."""
    def vectors(length):
        return st.lists(st.lists(_scalars(field), min_size=length, max_size=length),
                        max_size=3)
    common, only_u, only_w = (data.draw(vectors(n)) for _ in range(3))
    shared = [[field.of(sum(c * v[k] for c, v in zip(mix, common))) for k in range(n)]
              for mix in data.draw(vectors(len(common)))]
    u = Subspace.from_vectors(field, n, common + only_u)
    w = Subspace.from_vectors(field, n, shared + only_w)
    both = u.intersect(w)
    assert u.contains(both) and w.contains(both)
    assert both.contains(Subspace.from_vectors(field, n, shared))
    assert u.dim + w.dim == both.dim + (u + w).dim
    assert w.intersect(u) == both


def test_subspace_equality_is_syntactic():
    a = Subspace.from_vectors(QQ, 2, [(2, 4)])
    b = Subspace.from_vectors(QQ, 2, [(1, 2)])
    assert a == b
    assert a.basis.entries == ((Fraction(1), Fraction(2)),)


# ---------------------------------------------------------------------------
# characteristic polynomial (Berkowitz) against a cofactor-expansion oracle

def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _naive_charpoly(m):
    """det(xI - A) by Laplace expansion over polynomial entries."""
    n = m.nrows
    grid = [[[Fraction(-m[i, j]), Fraction(1)] if i == j else [Fraction(-m[i, j])]
             for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not rows:
            return [Fraction(1)]
        r = rows[0]
        total = [Fraction(0)]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = _poly_mul(grid[r][c], minor)
            if pos % 2:
                term = [-x for x in term]
            total = _poly_add(total, term)
        return total

    asc = det(list(range(n)), list(range(n)))
    return tuple(reversed(asc))


@pytest.mark.parametrize("rows", [
    [[2]],
    [[0, 1], [1, 0]],
    [[4, 0], [0, 2]],
    [[1, 2, 3], [0, 1, 4], [5, 6, 0]],
])
def test_charpoly_matches_cofactor_oracle(rows):
    m = qmat(rows)
    assert m.charpoly() == _naive_charpoly(m)


@given(matrices(QQ, max_dim=4))
def test_charpoly_matches_oracle_random(m):
    n = min(m.nrows, m.ncols)
    sq = m.submatrix(range(n), range(n))
    assert sq.charpoly() == _naive_charpoly(sq)


def test_charpoly_empty_matrix():
    assert Matrix.zero(QQ, 0, 0).charpoly() == (Fraction(1),)


def _laplace_det(f, rows):
    """det by cofactor expansion along the first row, in the field f."""
    if not rows:
        return f.one
    total = f.zero
    for c, x in enumerate(rows[0]):
        if x:
            term = f.mul(x, _laplace_det(f, [r[:c] + r[c + 1:] for r in rows[1:]]))
            total = f.sub(total, term) if c % 2 else f.add(total, term)
    return total


def test_det_matches_laplace_expansion():
    """Random matrices over Q, F_3, F_5 and F_7, n = 0 to 6; every other
    one is made singular (its last row is the sum of the others, or 0)."""
    rng = random.Random(0)
    for f in (QQ, GF(3), GF(5), GF(7)):
        for n, k in itertools.product(range(7), range(6)):
            if f.p is None:
                rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)]
            else:
                rows = [[rng.randrange(f.p) for _ in range(n)] for _ in range(n)]
            if k % 2 and n:
                rows[-1] = [sum(col) for col in zip(*rows[:-1])] if n > 1 else [0]
            m = Matrix.from_rows(f, rows, n)
            got, want = m.det(), _laplace_det(f, m.entries)
            assert got == want and type(got) is type(want), (f, rows)
            assert (got != 0) == m.is_invertible()
    with pytest.raises(ValueError, match="determinant of a non-square matrix"):
        Matrix.zero(QQ, 2, 3).det()


def test_inverse_and_det():
    m = qmat([[1, 2], [3, 4]])
    assert m.det() == Fraction(-2)
    assert m @ m.inverse() == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        qmat([[1, 2], [2, 4]]).inverse()
