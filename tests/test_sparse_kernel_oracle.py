"""The sparse structure-constant kernels against their dense references.

`GradedBilinearTable.eval`, `skew_failures`, `check_hom_jacobi`,
`validate_factor_set`, `center` and `derived` walk the table's row index;
the references in reference_kernel.py evaluate every coordinate pair and
check every basis pair and triple.  Both must give the same failure tuples
(compared through repr, so that entry types count: Fraction(0) == 0) and
the same subspaces, or raise the same error.  The same kernels are also
compared with their row-index versions that go through the Field methods
(`field_ops_*`), which isolates the raw sums reduced once per entry.

Inputs, over Q, F_3 and F_5 up to (3|3): valid algebras moved by a random
even change of basis, the same with one bracket value changed or with a
random (dense, mostly non-multiplicative) twist, random tables with or
without parity, and any of these with injected i > j cells.  Factor sets
are read off valid algebras and then perturbed, or drawn at random over
any generated quotient.  The last tests use the shape the ladder workload
of the benchmark runs over Q: signed-permutation transports of g22^(+)2.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_kernel import (field_ops_check_hom_jacobi, field_ops_eval,
                              field_ops_validate_factor_set, reference_center,
                              reference_check_hom_jacobi, reference_derived,
                              reference_eval, reference_skew_failures,
                              reference_validate_factor_set)

from homsuper.core import (HomLieSuperalgebra, SuperSpace, center, check_hom_jacobi,
                           derived, direct_sum)
from homsuper.corpus import g22, hs, hs2, t2
from homsuper.errors import PreconditionError
from homsuper.factorset import FactorSet, factor_set_from_complement, validate_factor_set
from homsuper.linalg import GF, QQ, Matrix

FIELDS = (QQ, GF(3), GF(5))
ORACLE = settings(max_examples=120, deadline=None, derandomize=True)


def hso(field):
    """{z | f1, f2}, [f1, f1] = [f2, f2] = z, identity twist."""
    return HomLieSuperalgebra(SuperSpace(1, 2), {(1, 1): {0: 1}, (2, 2): {0: 1}},
                              Matrix.identity(field, 3))


BASES = {
    "hs": hs, "hs2": hs2, "t2": t2, "g22": g22, "hso": hso,
    "hs+hs": lambda f: direct_sum(hs(f), hs(f)),
    "g22+hs": lambda f: direct_sum(g22(f), hs(f)),
    "hs2+hso": lambda f: direct_sum(hs2(f), hso(f)),
}


def transport(g, pm):
    """The algebra P.g with [x, y]' = P[P^-1 x, P^-1 y], theta' = P theta P^-1."""
    d = g.dim
    pinv = pm.inverse()
    cols = [pinv.col(i) for i in range(d)]
    brackets = {(i, j): dict(enumerate(pm.matvec(reference_eval(g.table, cols[i], cols[j]))))
                for i in range(d) for j in range(i, d)}
    return HomLieSuperalgebra(g.space, brackets, pm @ g.twist @ pinv)


def scalars(field):
    if field.p is None:
        return st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]))
    return st.integers(0, field.p - 1)


def even_matrix(draw, field, p, q, invertible):
    """A random even matrix; with invertible, a random invertible one."""
    d = p + q
    rows = [[draw(scalars(field)) if (i < p) == (j < p) else 0 for j in range(d)]
            for i in range(d)]
    m = Matrix.from_rows(field, rows, d)
    if invertible and not m.is_invertible():
        rows = [[1 if i == j else (x if j < i else 0) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
        m = Matrix.from_rows(field, rows, d)
    return m


def random_cells(draw, field, source, target, lower=False):
    """Random cells on pairs i <= j (i > j with lower), parity kept or not."""
    ds = source.dim
    keep_parity = draw(st.booleans())
    cells = {}
    for _ in range(draw(st.integers(0, 5)) if ds else 0):
        i, j = sorted((draw(st.integers(0, ds - 1)), draw(st.integers(0, ds - 1))),
                      reverse=lower)
        if lower and i == j:
            continue
        want = (source.parity(i) + source.parity(j)) % 2
        ks = [k for k in range(target.dim) if not keep_parity or target.parity(k) == want]
        if ks:
            cells[(i, j)] = {draw(st.sampled_from(ks)): draw(scalars(field))}
    return cells


def with_injected(draw, g):
    """g with up to three extra i > j cells, kept for the validators to flag."""
    if g.dim < 2 or not draw(st.booleans()):
        return g
    extra = random_cells(draw, g.field, g.space, g.space, lower=True)
    return HomLieSuperalgebra(g.space, {**g.brackets, **extra}, g.twist)


@st.composite
def algebras(draw):
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(["valid", "bracket", "twist", "random"]))
    if kind == "random":
        space = SuperSpace(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        g = HomLieSuperalgebra(space, random_cells(draw, field, space, space),
                               even_matrix(draw, field, *space.dims, invertible=False))
    else:
        base = BASES[draw(st.sampled_from(sorted(BASES)))](field)
        p, q = base.space.dims
        g = transport(base, even_matrix(draw, field, p, q, invertible=True))
        if kind == "bracket" and g.brackets:
            (i, j), cell = draw(st.sampled_from(sorted(g.brackets.items())))
            k = draw(st.sampled_from(sorted(cell)))
            g = HomLieSuperalgebra(g.space, {**g.brackets, (i, j): {**cell, k: cell[k] + 1}},
                                   g.twist)
        elif kind == "twist":
            g = HomLieSuperalgebra(g.space, g.brackets,
                                   even_matrix(draw, field, p, q, invertible=False))
    return with_injected(draw, g)


@st.composite
def factor_sets(draw):
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        base = BASES[draw(st.sampled_from(sorted(BASES)))](field)
        try:
            fs = factor_set_from_complement(base)[0]
        except PreconditionError:
            fs = None
        if fs is not None:
            quotient = with_injected(draw, fs.quotient)
            coeffs = dict(fs.coeffs)
            if draw(st.booleans()):
                coeffs.update(random_cells(draw, field, quotient.space, fs.center_space,
                                           lower=draw(st.booleans())))
            twist = fs.center_twist
            if draw(st.booleans()):
                twist = even_matrix(draw, field, *fs.center_space.dims, invertible=False)
            return FactorSet(quotient, fs.center_space, twist, coeffs)
    quotient = draw(algebras())
    zspace = SuperSpace(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    coeffs = random_cells(draw, quotient.field, quotient.space, zspace)
    if quotient.dim >= 2 and draw(st.booleans()):
        coeffs.update(random_cells(draw, quotient.field, quotient.space, zspace, lower=True))
    return FactorSet(quotient, zspace, even_matrix(draw, quotient.field, *zspace.dims,
                                                   invertible=False), coeffs)


def outcome(fn, *args):
    """repr of the result, or the type and text of the ValueError raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_kernels_agree(g):
    jacobi = repr(check_hom_jacobi(g))
    assert jacobi == repr(reference_check_hom_jacobi(g))
    assert jacobi == repr(field_ops_check_hom_jacobi(g))
    assert repr(g.table.skew_failures("s")) == repr(reference_skew_failures(g.table, "s"))
    assert outcome(center, g) == outcome(reference_center, g)
    assert outcome(derived, g) == outcome(reference_derived, g)


@ORACLE
@given(algebras())
def test_algebra_kernels_match_dense_reference(g):
    assert_kernels_agree(g)


@ORACLE
@given(algebras(), st.data())
def test_eval_matches_dense_reference(g, data):
    vectors = st.lists(scalars(g.field), min_size=g.dim, max_size=g.dim)
    x, y = data.draw(vectors), data.draw(vectors)
    got = repr(g.table.eval(x, y))
    assert got == repr(reference_eval(g.table, x, y))
    assert got == repr(field_ops_eval(g.table, x, y))


@ORACLE
@given(factor_sets())
def test_validate_factor_set_matches_dense_reference(fs):
    got = repr(validate_factor_set(fs))
    assert got == repr(reference_validate_factor_set(fs))
    assert got == repr(field_ops_validate_factor_set(fs))


def signed_permutation(field, p, q, rng):
    rows = [[0] * (p + q) for _ in range(p + q)]
    for off, n in ((0, p), (p, q)):
        perm = rng.sample(range(n), n)
        for i in range(n):
            rows[off + perm[i]][off + i] = rng.choice((1, -1))
    return Matrix.from_rows(field, rows, p + q)


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_shape_matches_dense_reference(seed):
    """Signed-permutation transports of g22^(+)2 over Q, as generated, with
    an injected cell, and with the twist replaced by a dense one."""
    rng = random.Random(seed)
    base = direct_sum(g22(QQ), g22(QQ))
    g = transport(base, signed_permutation(QQ, 4, 4, rng))
    assert not reference_check_hom_jacobi(g).failures
    (i, j), cell = sorted(g.brackets.items())[seed]
    injected = HomLieSuperalgebra(g.space, {**g.brackets, (j, i): cell}, g.twist)
    dense = HomLieSuperalgebra(g.space, g.brackets, Matrix.from_rows(
        QQ, [[rng.choice((0, 1, 2)) if (r < 4) == (c < 4) else 0 for c in range(8)]
             for r in range(8)], 8))
    for alg in (g, injected, dense):
        assert_kernels_agree(alg)
    fs = factor_set_from_complement(transport(direct_sum(base, hs(QQ)),
                                              signed_permutation(QQ, 5, 5, rng)))[0]
    assert fs.coeffs
    broken = next(b for b in (FactorSet(fs.quotient, fs.center_space, fs.center_twist,
                                        {**fs.coeffs, (i, j): {0: 1}})
                              for i in range(4) for j in range(i + 1, 4))
                  if reference_validate_factor_set(b).failures)
    for f in (fs, broken):
        got = repr(validate_factor_set(f))
        assert got == repr(reference_validate_factor_set(f))
        assert got == repr(field_ops_validate_factor_set(f))
