"""Factor sets, central extensions, and the extension-isomorphism calculus."""

from fractions import Fraction

import pytest

from reference_factorset import (build_extension_isomorphism,
                                 extension_map_from_witness,
                                 extract_automorphisms, extract_center_shift,
                                 transport_factor_set)
from reference_kernel import reference_eval, reference_matvec
from test_invariant_memo import FACTOR_SET_ALGEBRAS

from homsuper.core import (EvenLinearMap, GradedSubspace, HomLieSuperalgebra,
                           SuperSpace, abelian, center, check_axioms,
                           check_multiplicative, check_regular, derived,
                           is_isomorphism, quotient)
from homsuper.errors import HomSuperError, PreconditionError
from homsuper.factorset import (ComplementSplitting, Extension, FactorSet,
                                check_multiplicative_factor_set, extend,
                                factor_set_from_complement,
                                validate_factor_set)
from homsuper.isoclinism import (IsoclinismWitness, central_quotient,
                                 derived_algebra, iso_search,
                                 verify_isoclinism)
from homsuper.linalg import GF, QQ, Matrix

F3 = GF(3)


def zero_factor_set():
    """Trivial coefficients over a one-dimensional odd quotient and a
    one-dimensional even center, identity twists."""
    return FactorSet(abelian(QQ, 0, 1), SuperSpace(1, 0),
                     Matrix.identity(QQ, 1), {})


def twist_escapes_complement_algebra():
    """(2|1) algebra whose center has no twist-invariant complement:
    basis {z, c | f}, [c, f] = f, twist c -> c + z.

    Every graded complement of the center span{z} must contain some
    c + a*z, whose twist image picks up an extra z, so the complement
    is never twist-invariant even though the algebra is regular and
    multiplicative.
    """
    return HomLieSuperalgebra(
        SuperSpace(2, 1, ("z", "c", "f")),
        {(1, 2): {2: 1}},
        Matrix.from_rows(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3))


# ---------------------------------------------------------------------------
# validation

def test_zero_factor_set_is_valid():
    assert validate_factor_set(zero_factor_set()).passed


def test_constructed_factor_sets_are_valid(algebras, corpus_name):
    fs, _, _ = factor_set_from_complement(algebras[corpus_name])
    assert validate_factor_set(fs).passed


def test_center_twist_must_be_even():
    # the odd center vector may not map onto the even one
    with pytest.raises(ValueError, match=r"nonzero entry at \(0, 1\) crosses parity"):
        FactorSet(abelian(QQ, 1, 0), SuperSpace(1, 1),
                  Matrix.from_rows(QQ, [[1, 1], [0, 1]], 2), {})


def test_odd_odd_skew_sign():
    # on two odd quotient generators the values must agree, not flip sign
    fs = FactorSet(abelian(QQ, 0, 2), SuperSpace(1, 0), Matrix.identity(QQ, 1),
                   {(0, 1): {0: 1}, (1, 0): {0: -1}})
    rep = validate_factor_set(fs)
    assert not rep.passed
    assert any(fl.axiom == "factor-skew" and fl.indices == (1, 0)
               for fl in rep.failures)


def test_even_diagonal_value_must_vanish():
    fs = FactorSet(abelian(QQ, 1, 0), SuperSpace(1, 0), Matrix.identity(QQ, 1),
                   {(0, 0): {0: 1}})
    rep = validate_factor_set(fs)
    assert any(fl.axiom == "factor-skew" and fl.indices == (0, 0)
               for fl in rep.failures)


def test_factor_parity_flagged():
    fs = FactorSet(abelian(QQ, 0, 1), SuperSpace(0, 1), Matrix.identity(QQ, 1),
                   {(0, 0): {0: 1}})  # odd-odd pair needs an even value
    rep = validate_factor_set(fs)
    assert any(fl.axiom == "factor-parity" for fl in rep.failures)


def test_cocycle_identity_failure_detected(algebras):
    # nonzero coefficients over the non-abelian g22 quotient chosen to
    # break the cocycle identity
    g = algebras["g22"]
    s = direct_sum_pad(g)
    fs, _, _ = factor_set_from_complement(s)
    bad_coeffs = dict(fs.coeffs)
    bad_coeffs[(0, 0)] = {}
    bad = FactorSet(fs.quotient, fs.center_space, fs.center_twist,
                    {**bad_coeffs, (0, 1): {0: 1}})
    rep = validate_factor_set(bad)
    assert any(fl.axiom == "factor-cocycle" for fl in rep.failures)


def direct_sum_pad(g):
    from homsuper.core import direct_sum
    return direct_sum(g, abelian(g.field, 1, 0))


# ---------------------------------------------------------------------------
# multiplicativity

def test_identity_twists_are_multiplicative():
    assert check_multiplicative_factor_set(zero_factor_set())


def test_t2_factor_set_is_multiplicative(algebras):
    fs, _, _ = factor_set_from_complement(algebras["t2"])
    assert check_multiplicative_factor_set(fs)


def test_breaking_the_center_twist_breaks_multiplicativity(algebras):
    fs, _, _ = factor_set_from_complement(algebras["t2"])
    broken = FactorSet(fs.quotient, fs.center_space,
                       Matrix.identity(QQ, 1), fs.coeffs)
    assert not check_multiplicative_factor_set(broken)


def test_corpus_factor_sets_are_multiplicative(algebras, corpus_name):
    fs, _, _ = factor_set_from_complement(algebras[corpus_name])
    assert check_multiplicative_factor_set(fs)


def _multiplicative_on_all_ordered_pairs(fs):
    """The definition, r(T b_i, T b_j) = T_Z r(b_i, b_j) on every ordered
    pair, evaluated densely through the table's cells."""
    q, t = fs.quotient, fs.quotient.twist
    return all(reference_eval(fs.table, t.col(i), t.col(j))
               == reference_matvec(fs.center_twist, fs.table.value(i, j))
               for i in range(q.dim) for j in range(q.dim))


def _center_twist_variants(fs):
    """fs, and copies whose center twist is doubled or has one added to its
    last diagonal entry.  Doubling breaks multiplicativity wherever r is
    nonzero; every copy still passes validate_factor_set, which does not
    read the center twist."""
    f, tz = fs.field, fs.center_twist
    n = tz.nrows
    bumped = [[f.add(x, f.one) if i == j == n - 1 else x for j, x in enumerate(row)]
              for i, row in enumerate(tz.entries)]
    twists = (tz, Matrix.from_rows(f, [[f.add(x, x) for x in row] for row in tz.entries], n),
              Matrix.from_rows(f, bumped, n))
    return [FactorSet(fs.quotient, fs.center_space, t, fs.coeffs) for t in twists]


@pytest.mark.parametrize("g", FACTOR_SET_ALGEBRAS)
def test_multiplicative_factor_set_matches_the_ordered_pair_definition(g):
    for fs in _center_twist_variants(factor_set_from_complement(g)[0]):
        assert validate_factor_set(fs).passed
        assert check_multiplicative_factor_set(fs) == _multiplicative_on_all_ordered_pairs(fs)


def test_center_twist_variants_give_both_verdicts():
    verdicts = {check_multiplicative_factor_set(fs)
                for g in FACTOR_SET_ALGEBRAS
                for fs in _center_twist_variants(factor_set_from_complement(g.values[0])[0])}
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# extension

def test_extension_of_zero_factor_set_is_abelian():
    ext = extend(zero_factor_set())
    assert ext.algebra.space.dims == (1, 1)
    assert not ext.algebra.brackets
    assert ext.algebra.twist == Matrix.identity(QQ, 2)


def test_extension_with_single_coefficient_rebuilds_hs(algebras):
    fs = FactorSet(abelian(QQ, 0, 1), SuperSpace(1, 0),
                   Matrix.identity(QQ, 1), {(0, 0): {0: 1}})
    ext = extend(fs)
    ident = EvenLinearMap.identity(QQ, ext.algebra.space)
    assert is_isomorphism(ident, ext.algebra, algebras["hs"])


def test_extension_center_contains_the_center_block(algebras, corpus_name):
    fs, _, _ = factor_set_from_complement(algebras[corpus_name])
    ext = extend(fs)
    z = center(ext.algebra).to_subspace()
    f = fs.field
    for idx in ext.center_indices:
        v = [f.zero] * ext.algebra.dim
        v[idx] = f.one
        assert z.contains_vector(tuple(v))


def test_extension_is_valid_and_regular(algebras, corpus_name):
    fs, _, _ = factor_set_from_complement(algebras[corpus_name])
    ext = extend(fs)
    assert check_axioms(ext.algebra).passed
    assert check_multiplicative(ext.algebra).passed
    assert check_regular(ext.algebra)


def test_extend_rejects_invalid_factor_set():
    fs = FactorSet(abelian(QQ, 0, 2), SuperSpace(1, 0), Matrix.identity(QQ, 1),
                   {(0, 1): {0: 1}, (1, 0): {0: -1}})
    with pytest.raises(PreconditionError):
        extend(fs)


# ---------------------------------------------------------------------------
# factor set from a complement

def test_hs_complement_reads_off_the_central_charge(algebras):
    hs = algebras["hs"]
    w = GradedSubspace.from_vectors(QQ, hs.space, [(0, 1)])
    fs, split, iso = factor_set_from_complement(hs)
    assert fs.table.value(0, 0) == (Fraction(1),)  # r(f, f) = z
    assert split.complement == w
    assert is_isomorphism(iso, extend(fs).algebra, hs)


def test_abelian_complement_gives_zero_factor_set(algebras):
    a = algebras["a_1_1"]
    fs, split, iso = factor_set_from_complement(a)
    assert not fs.coeffs
    assert fs.quotient.dim == 0
    assert iso.matrix == Matrix.identity(QQ, 2)  # identity re-indexing


def test_t2_complement_factor_set(algebras):
    fs, _, _ = factor_set_from_complement(algebras["t2"])
    assert fs.table.value(0, 0) == (Fraction(1),)
    assert fs.center_twist == Matrix.from_rows(QQ, [[4]], 1)
    assert fs.quotient.twist == Matrix.from_rows(QQ, [[2]], 1)
    assert check_multiplicative_factor_set(fs)


def test_roundtrip_on_corpus(algebras, corpus_name):
    g = algebras[corpus_name]
    fs, split, iso = factor_set_from_complement(g)
    ext = extend(fs)
    assert is_isomorphism(iso, ext.algebra, g)
    # twist intertwining as an exact matrix identity
    assert iso.matrix @ ext.algebra.twist == g.twist @ iso.matrix
    # the section splits the projection
    _, proj, _ = central_quotient(g)
    assert proj.matrix @ split.section.matrix \
        == Matrix.identity(g.field, fs.quotient.dim)


def test_factor_set_values_live_in_the_center(algebras, corpus_name):
    g = algebras[corpus_name]
    fs, split, _ = factor_set_from_complement(g)
    z = center(g)
    zfull = z.to_subspace()
    sect = split.section
    q = fs.quotient
    for i in range(q.dim):
        for j in range(q.dim):
            val = g.bracket(sect.matrix.col(i), sect.matrix.col(j))
            val = tuple(g.field.sub(a, b)
                        for a, b in zip(val, sect(q.basis_bracket(i, j))))
            assert zfull.contains_vector(val)


def test_complement_is_the_greedy_complement_of_the_center(algebras, corpus_name):
    """The splitting's complement, the span of the section's columns, is
    the complement `complement_in` chooses."""
    g = algebras[corpus_name]
    _, split, _ = factor_set_from_complement(g)
    assert split.complement == center(g).complement_in()
    assert split.section.matrix == Matrix.from_columns(
        g.field, split.complement.full_basis_vectors(), g.dim)


def test_twist_escape_is_reported_with_witness():
    g = twist_escapes_complement_algebra()
    assert check_axioms(g).passed
    assert check_multiplicative(g).passed
    assert check_regular(g)
    with pytest.raises(PreconditionError, match="twist does not preserve"):
        factor_set_from_complement(g)


def test_non_regular_algebra_rejected():
    g = abelian(QQ, 1, 0, twist=Matrix.zero(QQ, 1, 1))
    with pytest.raises(PreconditionError):
        factor_set_from_complement(g)


# ---------------------------------------------------------------------------
# transport along an isoclinism

def hs_witness(algebras, mu_scale, nu_scale):
    hs = algebras["hs"]
    q, _, _ = central_quotient(hs)
    d, _ = derived_algebra(hs)
    return IsoclinismWitness(
        EvenLinearMap(q.space, q.space, Matrix.from_rows(QQ, [[mu_scale]], 1)),
        EvenLinearMap(d.space, d.space, Matrix.from_rows(QQ, [[nu_scale]], 1)))


def test_identity_transport_is_identity(algebras):
    hs = algebras["hs"]
    fs, _, _ = factor_set_from_complement(hs)
    w = hs_witness(algebras, 1, 1)
    r = transport_factor_set(fs, w, hs, hs)
    assert r.coeffs == fs.coeffs
    assert r.quotient == fs.quotient


def test_scaled_transport_cancels(algebras):
    hs = algebras["hs"]
    fs, _, _ = factor_set_from_complement(hs)
    w = hs_witness(algebras, 2, 4)
    assert verify_isoclinism(hs, hs, w).passed
    r = transport_factor_set(fs, w, hs, hs)
    # r(f, f) = nu^{-1}(s(2f, 2f)) = (1/4) * 4z = z
    assert r.table.value(0, 0) == (Fraction(1),)


def test_transport_rejects_invalid_witness(algebras):
    hs = algebras["hs"]
    fs, _, _ = factor_set_from_complement(hs)
    w = hs_witness(algebras, 2, 2)
    with pytest.raises(PreconditionError, match="witness fails verification"):
        transport_factor_set(fs, w, hs, hs)


def test_transport_requires_stem(algebras):
    hs2 = algebras["hs2"]
    fs, _, _ = factor_set_from_complement(hs2)
    w = hs_witness(algebras, 1, 1)
    with pytest.raises(PreconditionError, match="not stem"):
        transport_factor_set(fs, w, hs2, hs2)


def test_transport_coherence(algebras):
    hs = algebras["hs"]
    fs, _, _ = factor_set_from_complement(hs)
    w = hs_witness(algebras, 2, 4)
    r = transport_factor_set(fs, w, hs, hs)
    beta = extension_map_from_witness(w, r, fs, hs, hs)
    assert is_isomorphism(beta, extend(r).algebra, extend(fs).algebra)


# ---------------------------------------------------------------------------
# the extension-isomorphism calculus

def hs_maps(fs, q_scale, z_scale):
    qm = EvenLinearMap(fs.quotient.space, fs.quotient.space,
                       Matrix.from_rows(QQ, [[q_scale]], 1))
    zm = EvenLinearMap(fs.center_space, fs.center_space,
                       Matrix.from_rows(QQ, [[z_scale]], 1))
    shift = EvenLinearMap(fs.quotient.space, fs.center_space,
                          Matrix.zero(QQ, 1, 1))
    return qm, zm, shift


def test_identity_assembly(algebras):
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    qm, zm, shift = hs_maps(fs, 1, 1)
    beta = build_extension_isomorphism(qm, zm, shift, fs, fs)
    assert beta.matrix == Matrix.identity(QQ, 2)


def test_compatible_scaling_assembles(algebras):
    # quotient f -> 2f forces center z -> 4z through r(f, f) = z
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    qm, zm, shift = hs_maps(fs, 2, 4)
    beta = build_extension_isomorphism(qm, zm, shift, fs, fs)
    ext = extend(fs)
    assert is_isomorphism(beta, ext.algebra, ext.algebra)
    assert beta.matrix @ ext.algebra.twist == ext.algebra.twist @ beta.matrix


def test_incompatible_scaling_rejected(algebras):
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    qm, zm, shift = hs_maps(fs, 2, 2)
    with pytest.raises(PreconditionError, match="compatibility identity"):
        build_extension_isomorphism(qm, zm, shift, fs, fs)


def test_extract_automorphisms_roundtrip(algebras):
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    qm, zm, shift = hs_maps(fs, 2, 4)
    beta = build_extension_isomorphism(qm, zm, shift, fs, fs)
    ext = extend(fs)
    qm2, zm2 = extract_automorphisms(beta, ext, ext)
    assert qm2.matrix == qm.matrix
    assert zm2.matrix == zm.matrix


def test_extract_automorphisms_of_identity(algebras):
    fs, _, _ = factor_set_from_complement(algebras["t2"])
    ext = extend(fs)
    ident = EvenLinearMap.identity(QQ, ext.algebra.space)
    qm, zm = extract_automorphisms(ident, ext, ext)
    assert qm.matrix == Matrix.identity(QQ, 1)
    assert zm.matrix == Matrix.identity(QQ, 1)


def test_center_escape_rejected(algebras):
    # a permutation matrix pushing the central pad into a quotient slot
    g = direct_sum_pad(algebras["g22_f3"])
    fs, _, _ = factor_set_from_complement(g)
    ext = extend(fs)
    f = fs.field
    d = ext.algebra.dim
    pad = ext.center_indices[0]
    other = ext.quotient_indices[0]  # also even
    rows = [[f.one if (r == c and r not in (pad, other))
             or (r, c) in ((pad, other), (other, pad)) else f.zero
             for c in range(d)] for r in range(d)]
    swap = EvenLinearMap(ext.algebra.space, ext.algebra.space,
                         Matrix.from_rows(f, rows, d))
    with pytest.raises(PreconditionError, match="center block"):
        extract_automorphisms(swap, ext, ext)


def test_extract_shift_zero_for_identity(algebras):
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    ext = extend(fs)
    ident = EvenLinearMap.identity(QQ, ext.algebra.space)
    qm, zm = extract_automorphisms(ident, ext, ext)
    shift = extract_center_shift(ident, qm, zm, fs, fs)
    assert not any(any(row) for row in shift.matrix.entries)


def shifted_factor_set(fs, delta):
    """s(n1, n2) = r(n1, n2) + delta([n1, n2]) for an even map delta."""
    f = fs.field
    q = fs.quotient
    coeffs = {}
    for i in range(q.dim):
        for j in range(i, q.dim):
            val = [f.add(a, b) for a, b in zip(fs.table.value(i, j),
                                               delta(q.basis_bracket(i, j)))]
            cell = {k: c for k, c in enumerate(val) if c != 0}
            if cell:
                coeffs[(i, j)] = cell
    return FactorSet(q, fs.center_space, fs.center_twist, coeffs)


def test_nonzero_shift_roundtrip():
    # over F_3 with identity twists, shift the coefficients by a map that
    # hits the even derived generator of the quotient
    from homsuper.corpus import g22
    from homsuper.core import direct_sum
    g = direct_sum(g22(F3), abelian(F3, 1, 0))
    fs, _, _ = factor_set_from_complement(g)
    f = fs.field
    # delta sends the even quotient generator e2 (index 1) to the pad
    delta_m = Matrix.zero(F3, 1, fs.quotient.dim)
    delta_m = Matrix.from_rows(F3, [[0, 1, 0, 0]], 4)
    delta = EvenLinearMap(fs.quotient.space, fs.center_space, delta_m)
    dst = shifted_factor_set(fs, delta)
    assert validate_factor_set(dst).passed
    qm = EvenLinearMap.identity(F3, fs.quotient.space)
    zm = EvenLinearMap.identity(F3, fs.center_space)
    shift = delta
    beta = build_extension_isomorphism(qm, zm, shift, fs, dst)
    recovered = extract_center_shift(beta, qm, zm, fs, dst)
    # e2 lies in the span of quotient brackets, so the shift is recovered there
    assert recovered(q_basis(fs, 1)) == delta(q_basis(fs, 1))
    # off the bracket span (generator e1) the canonical extension is zero
    assert recovered(q_basis(fs, 0)) == (F3.zero,)


def q_basis(fs, i):
    f = fs.field
    return tuple(f.one if j == i else f.zero for j in range(fs.quotient.dim))


def test_extract_shift_agrees_on_bracket_span(algebras):
    fs, _, _ = factor_set_from_complement(algebras["hs"])
    qm, zm, shift = hs_maps(fs, 2, 4)
    beta = build_extension_isomorphism(qm, zm, shift, fs, fs)
    recovered = extract_center_shift(beta, qm, zm, fs, fs)
    q = fs.quotient
    for i in range(q.dim):
        for j in range(i, q.dim):
            br = q.basis_bracket(i, j)
            assert recovered(br) == shift(br)


def test_shift_must_intertwine_twists(algebras):
    # over t2 the only even shift candidate is zero, so fabricate a
    # mismatched center twist instead
    fs, _, _ = factor_set_from_complement(algebras["t2"])
    qm = EvenLinearMap.identity(QQ, fs.quotient.space)
    zm = EvenLinearMap.identity(QQ, fs.center_space)
    shift = EvenLinearMap(fs.quotient.space, fs.center_space,
                          Matrix.zero(QQ, 1, 1))
    beta = build_extension_isomorphism(qm, zm, shift, fs, fs)
    assert beta.matrix == Matrix.identity(QQ, 2)
