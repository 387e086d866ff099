"""The sparse structure-constant kernels against their dense references.

`GradedBilinearTable.eval`, `skew_failures`, `check_hom_jacobi`,
`validate_factor_set`, `center` and `derived` walk the table's row index,
and the bracket-preservation loop behind `check_multiplicative`,
`check_homomorphism` and `check_multiplicative_factor_set` walks it too;
the references in reference_kernel.py evaluate every coordinate pair and
check every basis pair and triple.  Both must give the same failure tuples
(compared through repr, so that entry types count: Fraction(0) == 0) and
the same subspaces, or raise the same error.  The same kernels are also
compared with their row-index versions that go through the Field methods
(`field_ops_*`), which isolates the raw sums reduced once per entry and,
for the two identity kernels, the packed integer sums.

Inputs, over Q, F_3, F_5 and F_P up to (3|3), with P the largest prime
below `linalg._PRIME_LIMIT`; over Q some scalars are dense rationals with
numerators and denominators up to 10^6.  Both make the integer sums of the
identity kernels wide, so that a slot width too small for them shows.  The
inputs are valid algebras moved by a random even change of basis, the same
with one bracket value changed or with a random (dense, mostly
non-multiplicative) twist, random tables with or without parity, and any
of these with injected i > j cells.  Factor sets
are read off valid algebras and then perturbed, or drawn at random over
any generated quotient.  Homomorphisms are checked on random even maps
between two such algebras over one field, square or not, singular or
invertible, and on the transporting map of a transport, which is an
isomorphism when the algebra has no injected cells.  The last tests use
the shapes the ladder workload of the benchmark runs: signed-permutation
transports of g22^(+)2 over Q, and `center` and `derived` on transports of
g22^k (+) hs^m of dim 8 to 24 over every field, dense over F_p and by
signed permutations over Q, on their sums with an abelian part, and on
abelian algebras, which have no cells.
"""

import random
import signal
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from reference_kernel import (field_ops_check_hom_jacobi, field_ops_eval,
                              field_ops_validate_factor_set, reference_center,
                              reference_check_hom_jacobi, reference_check_homomorphism,
                              reference_derived, reference_eval,
                              reference_preservation_failures, reference_skew_failures,
                              reference_validate_factor_set)

from homsuper.core import (EvenLinearMap, HomLieSuperalgebra, SuperSpace,
                           _preservation_failures, abelian, center, check_hom_jacobi,
                           check_homomorphism, check_multiplicative, derived, direct_sum)
from homsuper.corpus import g22, hs, hs2, t2
from homsuper.errors import PreconditionError
from homsuper.factorset import FactorSet, factor_set_from_complement, validate_factor_set
from homsuper.linalg import _PRIME_LIMIT, GF, QQ, Matrix, _is_prime

LARGEST_PRIME = next(n for n in range(_PRIME_LIMIT - 1, 2, -1) if _is_prime(n))
FIELDS = (QQ, GF(3), GF(5), GF(LARGEST_PRIME))
#: Failures are reported unshrunk: the examples still run as drawn, but
#: shrinking those over Q, whose transports carry large denominators, took
#: minutes per failing test.
ORACLE = settings(max_examples=120, deadline=None, derandomize=True,
                  phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
#: Seconds after which a test fails; each takes about a second.
TIME_LIMIT = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT, and again every TIME_LIMIT
    after that, as Hypothesis replays the failing example: an elimination
    that no longer clears a row's lead slot (say, without `_Slots.reduce`)
    loops on that slot forever rather than returning a wrong subspace."""
    def expire(signum, frame):
        raise TimeoutError(f"test ran past {TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT, TIME_LIMIT)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


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
        return st.one_of(st.integers(-2, 2), st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]),
                         st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                   st.integers(1, 10 ** 6)))
    return st.integers(0, field.p - 1)


def even_map_matrix(draw, field, source, target):
    """A random even target.dim x source.dim matrix."""
    rows = [[draw(scalars(field)) if target.parity(i) == source.parity(j) else 0
             for j in range(source.dim)] for i in range(target.dim)]
    return Matrix.from_rows(field, rows, source.dim)


def even_matrix(draw, field, p, q, invertible):
    """A random even matrix; with invertible, a random invertible one."""
    space = SuperSpace(p, q)
    m = even_map_matrix(draw, field, space, space)
    if invertible and not m.is_invertible():
        rows = [[1 if i == j else (x if j < i else 0) for j, x in enumerate(r)]
                for i, r in enumerate(m.entries)]
        m = Matrix.from_rows(field, rows, p + q)
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
def algebras(draw, field=None):
    if field is None:
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
    assert repr(check_multiplicative.__wrapped__(g).failures) == repr(
        reference_preservation_failures("multiplicative", g.table, g.table, g.twist, g.twist))
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
    args = ("factor-multiplicative", fs.table, fs.table, fs.quotient.twist, fs.center_twist)
    assert repr(_preservation_failures(*args)) == repr(reference_preservation_failures(*args))


@st.composite
def homomorphisms(draw):
    """(f, g1, g2) with f an even map g1 -> g2 over one field: a random
    map between two algebras, a random square map of an algebra to itself,
    or the transporting map P of g1 onto P.g1, possibly with one entry
    changed; either algebra may then get injected cells."""
    field = draw(st.sampled_from(FIELDS))
    g1 = draw(algebras(field))
    kind = draw(st.sampled_from(["any", "any", "square", "transport"]))
    if kind == "transport":
        m = even_matrix(draw, field, *g1.space.dims, invertible=True)
        g2 = transport(g1, m)
        if g1.dim and draw(st.booleans()):
            i = draw(st.integers(0, g1.dim - 1))
            j = draw(st.sampled_from([j for j in range(g1.dim)
                                      if g1.space.parity(j) == g1.space.parity(i)]))
            rows = [list(r) for r in m.entries]
            rows[i][j] = draw(scalars(field))
            m = Matrix.from_rows(field, rows, g1.dim)
    elif kind == "square":
        g2 = g1
        m = even_matrix(draw, field, *g1.space.dims, invertible=draw(st.booleans()))
    else:
        g2 = draw(algebras(field))
        m = even_map_matrix(draw, field, g1.space, g2.space)
    g2 = with_injected(draw, g2)
    return EvenLinearMap(g1.space, g2.space, m), g1, g2


@ORACLE
@given(homomorphisms())
def test_check_homomorphism_matches_dense_reference(case):
    f, g1, g2 = case
    assert repr(check_homomorphism(f, g1, g2)) == repr(reference_check_homomorphism(f, g1, g2))


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


def dense_even(field, p, q, rng):
    """A random invertible even matrix with dense blocks over F_p."""
    while True:
        m = Matrix.from_rows(field, [[rng.randrange(field.p) if (r < p) == (c < p) else 0
                                      for c in range(p + q)] for r in range(p + q)], p + q)
        if m.is_invertible():
            return m


def ladder_algebra(field, k, m, pad, rng):
    """g22^k (+) hs^m (+) an abelian (pad|pad), moved by a dense even change
    of basis over F_p and by a signed permutation over Q."""
    parts = [g22(field)] * k + [hs(field)] * m + ([abelian(field, pad, pad)] if pad else [])
    base = parts[0]
    for part in parts[1:]:
        base = direct_sum(base, part)
    p, q = base.space.dims
    move = signed_permutation if field.p is None else dense_even
    return transport(base, move(field, p, q, rng))


def assert_center_derived_agree(g):
    assert outcome(center, g) == outcome(reference_center, g)
    assert outcome(derived, g) == outcome(reference_derived, g)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("k, m", [(1, 2), (2, 2), (2, 4), (2, 6), (3, 6)],
                         ids=lambda x: str(x))
def test_ladder_sizes_center_derived_match_dense_reference(field, k, m):
    """Dim 8, 12, 16, 20 and 24, the sizes the ladder times."""
    g = ladder_algebra(field, k, m, 0, random.Random(4 * k + m))
    assert g.dim == 4 * k + 2 * m
    assert_center_derived_agree(g)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_abelian_center_derived_match_dense_reference(field):
    """Without cells the center is the whole space and the derived
    subalgebra 0; with an abelian summand, or with injected i > j cells
    only (the derived subalgebra reads i <= j cells, the center every row),
    the elimination runs on a partly abelian table."""
    rng = random.Random(7)
    for p, q in ((0, 0), (1, 0), (0, 2), (3, 3)):
        g = abelian(field, p, q)
        assert not g.brackets
        assert_center_derived_agree(g)
    for k, m, pad in ((1, 0, 1), (1, 2, 2), (2, 2, 3)):
        assert_center_derived_agree(ladder_algebra(field, k, m, pad, rng))
    g = abelian(field, 2, 2)
    injected = HomLieSuperalgebra(g.space, {(1, 0): {0: 1}, (3, 2): {1: 1}}, g.twist)
    assert_center_derived_agree(injected)
    assert derived(injected).dim == 0 and center(injected).dim == 2
