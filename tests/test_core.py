"""Data model, axiom validators, invariants, and constructions."""

import itertools
from fractions import Fraction

import pytest

from homsuper.core import (EvenLinearMap, GradedSubspace, HomLieSuperalgebra,
                           SuperSpace, abelian, bracket_span, center,
                           check_axioms, check_graded_skew, check_hom_jacobi,
                           check_homomorphism, check_multiplicative,
                           check_parity, check_regular, derived, direct_sum,
                           direct_sum_with_embeddings, is_hom_ideal,
                           is_isomorphism, is_stem, koszul_sign, quotient,
                           subalgebra_on)
from homsuper.errors import PreconditionError
from homsuper.linalg import GF, QQ, Matrix, basis_vec

F3 = GF(3)


def ev(g, i):
    return basis_vec(g.field, g.dim, i)


# ---------------------------------------------------------------------------
# independent dense oracle: rebuild the full structure tensor and evaluate
# the axioms on every (unordered) index combination with its own loops.

def dense_tensor(g):
    f = g.field
    d = g.dim
    t = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for (i, j), cell in g.brackets.items():
        for k, v in cell.items():
            t[i][j][k] = v
    for i in range(d):
        for j in range(i):
            if (i, j) in g.brackets:
                continue
            if (j, i) in g.brackets:
                s = f.neg(koszul_sign(f, g.space.parity(i), g.space.parity(j)))
                for k, v in g.brackets[(j, i)].items():
                    t[i][j][k] = f.mul(s, v)
    return t


def dense_bracket(g, t, x, y):
    f = g.field
    d = g.dim
    out = [f.zero] * d
    for i in range(d):
        for j in range(d):
            c = f.mul(x[i], y[j])
            if c == 0:
                continue
            for k in range(d):
                out[k] = f.add(out[k], f.mul(c, t[i][j][k]))
    return tuple(out)


def oracle_axioms_ok(g):
    f = g.field
    d = g.dim
    t = dense_tensor(g)
    par = [g.space.parity(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if t[i][j][k] != 0 and par[k] != (par[i] + par[j]) % 2:
                    return False
    for i in range(d):
        for j in range(d):
            s = f.neg(koszul_sign(f, par[i], par[j]))
            for k in range(d):
                if t[i][j][k] != f.mul(s, t[j][i][k]):
                    return False
    theta = [g.twist.col(i) for i in range(d)]
    e = [ev(g, i) for i in range(d)]
    for a, b, c in itertools.product(range(d), repeat=3):
        total = [f.zero] * d
        for (x, y, z), sgn in (((a, b, c), koszul_sign(f, par[a], par[c])),
                               ((c, a, b), koszul_sign(f, par[c], par[b])),
                               ((b, c, a), koszul_sign(f, par[b], par[a]))):
            term = dense_bracket(g, t, theta[x], dense_bracket(g, t, e[y], e[z]))
            total = [f.add(u, f.mul(sgn, w)) for u, w in zip(total, term)]
        if any(x != 0 for x in total):
            return False
    return True


def mutants(g):
    """Each stored structure constant bumped by one, one at a time."""
    f = g.field
    for (i, j) in sorted(g.brackets):
        for k in sorted(g.brackets[(i, j)]):
            table = {pair: dict(cell) for pair, cell in g.brackets.items()}
            table[(i, j)][k] = f.add(table[(i, j)][k], f.one)
            yield (i, j, k), HomLieSuperalgebra(g.space, table, g.twist)


# ---------------------------------------------------------------------------
# bracket evaluation

def test_bracket_structure_constant_lookup(algebras):
    hs = algebras["hs"]
    f, z = ev(hs, 1), ev(hs, 0)
    assert hs.bracket(f, f) == z


def test_bracket_without_stored_constant_is_zero(algebras):
    hs = algebras["hs"]
    assert hs.bracket(ev(hs, 0), ev(hs, 1)) == (QQ.zero, QQ.zero)


def test_abelian_bracket_vanishes(algebras):
    a = algebras["a_1_1"]
    for i in range(2):
        for j in range(2):
            assert a.bracket(ev(a, i), ev(a, j)) == (QQ.zero, QQ.zero)


def test_bracket_handles_non_homogeneous_inputs(algebras):
    hs = algebras["hs"]
    x = (Fraction(2), Fraction(3))  # 2z + 3f
    assert hs.bracket(x, x) == (Fraction(9), Fraction(0))  # 9[f,f] = 9z


# ---------------------------------------------------------------------------
# validators

def test_skew_passes_on_corpus(algebras, corpus_name):
    assert check_graded_skew(algebras[corpus_name]).passed


def test_skew_catches_injected_mirror_entry():
    g = HomLieSuperalgebra(SuperSpace(3, 0),
                           {(0, 1): {2: 1}, (1, 0): {2: 1}},
                           Matrix.identity(QQ, 3))
    rep = check_graded_skew(g)
    assert not rep.passed
    assert rep.failures[0].indices == (1, 0)


def test_skew_forces_even_diagonal_to_vanish():
    g = HomLieSuperalgebra(SuperSpace(2, 0), {(0, 0): {1: 1}},
                           Matrix.identity(QQ, 2))
    rep = check_graded_skew(g)
    assert [fl.indices for fl in rep.failures] == [(0, 0)]


def test_odd_diagonal_is_unconstrained(algebras):
    assert check_graded_skew(algebras["hs"]).passed


def test_jacobi_passes_on_corpus(algebras, corpus_name):
    assert check_hom_jacobi(algebras[corpus_name]).passed


def test_jacobi_catches_injected_constant(algebras):
    hs = algebras["hs"]
    g = HomLieSuperalgebra(hs.space, {(1, 1): {0: 1}, (0, 1): {1: 1}}, hs.twist)
    rep = check_hom_jacobi(g)
    assert not rep.passed
    assert rep.failures[0].indices == (0, 1, 1)
    assert not oracle_axioms_ok(g)


def test_multiplicative_with_identity_twist(algebras):
    assert check_multiplicative(algebras["hs"]).passed


def test_multiplicative_weighted_twist(algebras):
    assert check_multiplicative(algebras["t2"]).passed


def test_multiplicative_detects_wrong_weight(algebras):
    t2 = algebras["t2"]
    g = HomLieSuperalgebra(t2.space, t2.brackets,
                           Matrix.from_rows(QQ, [[2, 0], [0, 2]], 2))
    rep = check_multiplicative(g)
    assert [fl.indices for fl in rep.failures] == [(1, 1)]


def test_regular(algebras):
    assert check_regular(algebras["hs"])
    assert check_regular(algebras["t2"])  # det 8
    assert not check_regular(abelian(QQ, 1, 0, twist=Matrix.zero(QQ, 1, 1)))


def test_parity_validator_flags_bad_constant():
    # even-even bracket landing on an odd index
    g = HomLieSuperalgebra(SuperSpace(2, 1), {(0, 1): {2: 1}},
                           Matrix.identity(QQ, 3))
    rep = check_parity(g)
    assert [fl.indices for fl in rep.failures] == [(0, 1, 2)]


def test_twist_must_be_even():
    with pytest.raises(ValueError):
        HomLieSuperalgebra(SuperSpace(1, 1), {},
                           Matrix.from_rows(QQ, [[0, 1], [1, 0]], 2))


# ---------------------------------------------------------------------------
# mutation kill: validators agree with the dense oracle on every mutant

def test_mutation_harness_agrees_with_oracle(algebras, corpus_name):
    g = algebras[corpus_name]
    assert oracle_axioms_ok(g)
    for where, mutant in mutants(g):
        rep = check_axioms(mutant)
        assert rep.passed == oracle_axioms_ok(mutant), (corpus_name, where)
        if not rep.passed:
            assert all(len(fl.indices) in (2, 3) for fl in rep.failures)


def test_some_mutants_break_and_are_witnessed(algebras):
    g = algebras["g22"]
    killed = 0
    for where, mutant in mutants(g):
        rep = check_axioms(mutant)
        if not rep.passed:
            killed += 1
            assert rep.failures[0].indices
    assert killed > 0


# ---------------------------------------------------------------------------
# center / derived / ideals / stem

def test_center_hs2(algebras):
    z = center(algebras["hs2"])
    assert z.dims == (2, 0)
    assert z.even.basis_rows() == [(1, 0), (0, 1)]


def test_center_abelian_is_everything(algebras):
    a = algebras["a_2_1"]
    assert center(a) == GradedSubspace.full(QQ, a.space)


def test_center_hs(algebras):
    z = center(algebras["hs"])
    assert z.dims == (1, 0)


def test_center_oracle_mod3(algebras):
    # brute force over all 3^d vectors
    g = algebras["hs2_f3"]
    z = center(g)
    zfull = z.to_subspace()
    count = 0
    for coords in itertools.product(range(3), repeat=g.dim):
        if all(all(x == 0 for x in g.bracket(coords, ev(g, j))) for j in range(g.dim)):
            count += 1
            assert zfull.contains_vector(coords)
    assert count == 3 ** z.dim


def test_derived(algebras):
    assert derived(algebras["hs2"]).dims == (1, 0)
    assert derived(algebras["a_1_1"]).dims == (0, 0)
    assert derived(algebras["hs"]).even.basis_rows() == [(1,)]


def test_center_is_hom_ideal(algebras):
    g = algebras["hs2"]
    assert is_hom_ideal(g, center(g))


def test_span_f_is_not_an_ideal(algebras):
    hs = algebras["hs"]
    k = GradedSubspace.from_vectors(QQ, hs.space, [(0, 1)])
    assert not is_hom_ideal(hs, k)


def test_zero_subspace_is_an_ideal(algebras):
    hs = algebras["hs"]
    assert is_hom_ideal(hs, GradedSubspace.zero(QQ, hs.space))


def test_stem_flags(algebras):
    assert is_stem(algebras["hs"])
    assert not is_stem(algebras["hs2"])
    assert not is_stem(algebras["a_1_1"])


def test_twist_preserves_center_and_derived(algebras, corpus_name):
    g = algebras[corpus_name]
    z, d = center(g), derived(g)
    zfull, dfull = z.to_subspace(), d.to_subspace()
    for v in z.full_basis_vectors():
        assert zfull.contains_vector(g.theta(v))
        for j in range(g.dim):
            assert all(x == 0 for x in g.bracket(v, ev(g, j)))
    for v in d.full_basis_vectors():
        assert dfull.contains_vector(g.theta(v))


# ---------------------------------------------------------------------------
# quotient

def test_quotient_hs2_by_pad_is_hs(algebras):
    hs2, hs = algebras["hs2"], algebras["hs"]
    k = GradedSubspace.from_vectors(QQ, hs2.space, [(0, 1, 0)])
    q, proj = quotient(hs2, k)
    match = EvenLinearMap(q.space, hs.space, Matrix.identity(QQ, 2))
    assert check_homomorphism(match, q, hs).passed
    assert is_isomorphism(match, q, hs)
    assert check_homomorphism(proj, hs2, q).passed


def test_quotient_by_zero_ideal_is_the_algebra(algebras, corpus_name):
    g = algebras[corpus_name]
    q, proj = quotient(g, GradedSubspace.zero(g.field, g.space))
    assert is_isomorphism(proj, g, q)


def test_quotient_hs_by_center_is_abelian(algebras):
    hs = algebras["hs"]
    q, _ = quotient(hs, center(hs))
    assert q.space.dims == (0, 1)
    assert not q.brackets


def test_quotient_rejects_non_ideal(algebras):
    hs = algebras["hs"]
    k = GradedSubspace.from_vectors(QQ, hs.space, [(0, 1)])
    with pytest.raises(PreconditionError):
        quotient(hs, k)


def test_is_hom_ideal_rejects_a_subspace_over_another_field(algebras):
    """A subspace of the right dims over another field is not read as the
    algebra's field: it is rejected like a subspace of another space."""
    g22_f3 = algebras["g22_f3"]
    k = GradedSubspace.from_vectors(QQ, g22_f3.space, [ev(g22_f3, 1)])
    with pytest.raises(ValueError, match="subspace does not live in the algebra's space"):
        is_hom_ideal(g22_f3, k)


def test_quotient_rejects_a_subspace_over_another_field():
    a = abelian(F3, 2, 0)
    k = GradedSubspace.from_vectors(QQ, a.space, [(1, Fraction(1, 2))])
    with pytest.raises(ValueError, match="subspace does not live in the algebra's space"):
        quotient(a, k)


def test_quotient_preserves_validity(algebras, corpus_name):
    g = algebras[corpus_name]
    for k in (center(g), derived(g)):
        q, _ = quotient(g, k)
        assert check_axioms(q).passed
        assert check_multiplicative(q).passed


# ---------------------------------------------------------------------------
# direct sum

def test_direct_sum_of_abelians(algebras):
    s = direct_sum(algebras["a_1_0"], algebras["a_0_1"])
    assert s.space.dims == (1, 1)
    assert not s.brackets
    assert s.twist == Matrix.identity(QQ, 2)


def test_hs_plus_line_is_hs2(algebras):
    s = direct_sum(algebras["hs"], algebras["a_1_0"])
    match = EvenLinearMap(s.space, algebras["hs2"].space, Matrix.identity(QQ, 3))
    assert is_isomorphism(match, s, algebras["hs2"])


def test_center_of_sum_splits(algebras):
    for n1, n2 in (("hs", "a_1_0"), ("t2", "hs"), ("g22", "a_1_1")):
        g1, g2 = algebras[n1], algebras[n2]
        s, emb1, emb2 = direct_sum_with_embeddings(g1, g2)
        zs = center(s).to_subspace()
        expect = 0
        for g, emb in ((g1, emb1), (g2, emb2)):
            for v in center(g).full_basis_vectors():
                assert zs.contains_vector(emb(v))
                expect += 1
        assert zs.dim == expect


def test_sum_validity_and_regularity(algebras):
    s = direct_sum(algebras["hs"], algebras["g22"])
    assert check_axioms(s).passed and check_multiplicative(s).passed
    assert check_regular(s)
    bad = abelian(QQ, 1, 0, twist=Matrix.zero(QQ, 1, 1))
    assert not check_regular(direct_sum(algebras["hs"], bad))


def test_sum_requires_matching_fields(algebras):
    with pytest.raises(PreconditionError):
        direct_sum(algebras["hs"], algebras["hs_f3"])


# ---------------------------------------------------------------------------
# homomorphisms

def test_identity_is_a_homomorphism(algebras):
    hs = algebras["hs"]
    ident = EvenLinearMap.identity(QQ, hs.space)
    assert check_homomorphism(ident, hs, hs).passed
    assert is_isomorphism(ident, hs, hs)


def test_projection_hs2_to_hs(algebras):
    hs2, hs = algebras["hs2"], algebras["hs"]
    proj = EvenLinearMap(hs2.space, hs.space,
                         Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 1]], 3))
    assert check_homomorphism(proj, hs2, hs).passed
    assert not is_isomorphism(proj, hs2, hs)


def test_twist_condition_fails_between_hs_and_t2(algebras):
    f = EvenLinearMap.identity(QQ, algebras["hs"].space)
    rep = check_homomorphism(f, algebras["hs"], algebras["t2"])
    assert not rep.passed
    assert any(fl.axiom == "homomorphism-twist" for fl in rep.failures)


def test_homomorphism_check_rejects_a_map_over_another_field(algebras):
    hs, hs_f3 = algebras["hs"], algebras["hs_f3"]
    with pytest.raises(ValueError, match="map field does not match the algebras"):
        check_homomorphism(EvenLinearMap.identity(GF(3), hs.space), hs, hs)
    with pytest.raises(ValueError, match="map field does not match the algebras"):
        check_homomorphism(EvenLinearMap.identity(QQ, hs.space), hs, hs_f3)


def test_isomorphism_transports_regularity(algebras):
    # a rescaled copy of t2: f -> 3f in coordinates scales [f,f] by 9
    t2 = algebras["t2"]
    scaled = HomLieSuperalgebra(t2.space, {(1, 1): {0: 9}}, t2.twist)
    h = EvenLinearMap(t2.space, scaled.space,
                      Matrix.from_rows(QQ, [[1, 0], [0, Fraction(1, 3)]], 2))
    assert is_isomorphism(h, t2, scaled)
    assert check_regular(t2) and check_regular(scaled)


# ---------------------------------------------------------------------------
# induced subalgebras

def test_subalgebra_on_derived(algebras):
    g = algebras["g22"]
    d, incl = subalgebra_on(g, derived(g))
    assert d.space.dims == (1, 2)
    assert check_axioms(d).passed
    assert check_homomorphism(incl, d, g).passed


def test_subalgebra_on_rejects_what_is_not_a_subalgebra(algebras):
    """span(f) in hs2 is twist-invariant, but [f, f] = z leaves it.  In zc,
    {z, c | f} with [f, f] = z and theta(c) = 2c + z, span(c, f) fails
    both tests, and the twist images are checked first."""
    hs2 = algebras["hs2"]
    with pytest.raises(PreconditionError, match="subspace is not closed under the bracket"):
        subalgebra_on(hs2, GradedSubspace.from_vectors(QQ, hs2.space, [ev(hs2, 2)]))
    zc = HomLieSuperalgebra(SuperSpace(2, 1), {(2, 2): {0: 1}},
                            Matrix.from_rows(QQ, [[1, 1, 0], [0, 2, 0], [0, 0, 1]], 3))
    with pytest.raises(PreconditionError, match="subspace is not twist-invariant"):
        subalgebra_on(zc, GradedSubspace.from_vectors(QQ, zc.space, [ev(zc, 1), ev(zc, 2)]))


def test_bracket_span_of_full_space_is_derived(algebras, corpus_name):
    g = algebras[corpus_name]
    full = GradedSubspace.full(g.field, g.space)
    assert bracket_span(g, full, full).dims == derived(g).dims
