"""Isoclinism witnesses, stem decomposition, search, and the decision procedure."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_witness import (chain_witness, compose_witnesses,
                               invert_witness, isoclinism_abelian_sum,
                               isoclinism_quotient)

from homsuper.core import (EvenLinearMap, Failure, GradedSubspace,
                           HomLieSuperalgebra, SuperSpace, abelian, center,
                           check_regular, derived, direct_sum, is_isomorphism,
                           is_stem, quotient)
from homsuper.errors import PreconditionError, SearchInconclusive
from homsuper.isoclinism import (IsoclinismWitness, central_quotient,
                                 derived_algebra, fingerprint,
                                 identity_witness, iso_search,
                                 isoclinic_decide, stem_decompose,
                                 verify_isoclinism, witness_from_surjection)
from homsuper.linalg import GF, QQ, Matrix

F3 = GF(3)
F5 = GF(5)


def scaled_hs_witness(algebras, mu_scale, nu_scale):
    hs = algebras["hs"]
    q, _, _ = central_quotient(hs)
    d, _ = derived_algebra(hs)
    return IsoclinismWitness(
        EvenLinearMap(q.space, q.space, Matrix.from_rows(QQ, [[mu_scale]], 1)),
        EvenLinearMap(d.space, d.space, Matrix.from_rows(QQ, [[nu_scale]], 1)))


# ---------------------------------------------------------------------------
# verification

def test_identity_witness_verifies(algebras, corpus_name):
    g = algebras[corpus_name]
    assert verify_isoclinism(g, g, identity_witness(g)).passed


def test_lemma_style_witness_hs_to_sum(algebras):
    hs = algebras["hs"]
    s = direct_sum(hs, algebras["a_1_0"])
    w = isoclinism_abelian_sum(hs, algebras["a_1_0"])
    rep = verify_isoclinism(hs, s, w)
    assert rep.passed


def test_incompatible_scaling_fails_the_square(algebras):
    hs = algebras["hs"]
    w = scaled_hs_witness(algebras, 2, 2)
    rep = verify_isoclinism(hs, hs, w)
    assert not rep.passed
    # nu([f,f]) = 2z while [2f, 2f] = 4z
    assert any(fl.axiom == "square" and fl.indices == (0, 0)
               for fl in rep.failures)


def test_compatible_scaling_verifies(algebras):
    hs = algebras["hs"]
    assert verify_isoclinism(hs, hs, scaled_hs_witness(algebras, 2, 4)).passed


def test_coset_compatibility_is_checked(algebras):
    # maps that are isomorphisms in isolation but break the square; hs2'
    # lies in the center of hs2, so its coset check cannot fail
    hs2 = algebras["hs2"]
    q, _, _ = central_quotient(hs2)
    d, _ = derived_algebra(hs2)
    w = IsoclinismWitness(
        EvenLinearMap(q.space, q.space, Matrix.identity(QQ, 1)),
        EvenLinearMap(d.space, d.space, Matrix.from_rows(QQ, [[2]], 1)))
    rep = verify_isoclinism(hs2, hs2, w)
    assert not rep.passed
    assert [(fl.axiom, fl.indices) for fl in rep.failures] == [("square", (0, 0))]
    # g22 over F_3 has a zero center: the identity mu and the nu swapping
    # f1 and f2 break the square and, with it, the coset check
    g = algebras["g22_f3"]
    q, _, _ = central_quotient(g)
    d, _ = derived_algebra(g)
    swap = Matrix.from_rows(F3, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], 3)
    w = IsoclinismWitness(EvenLinearMap.identity(F3, q.space),
                          EvenLinearMap(d.space, d.space, swap))
    rep = verify_isoclinism(g, g, w)
    assert rep.failures == (
        Failure("square", (0, 2), (0, 0, 0, 1), (0, 0, 1, 0)),
        Failure("square", (0, 3), (0, 0, 1, 0), (0, 0, 0, 1)),
        Failure("coset", (1,), (0, 0, 1, 0), (0, 0, 0, 1)),
        Failure("coset", (2,), (0, 0, 0, 1), (0, 0, 1, 0)))


def test_shape_mismatch_reported_not_raised(algebras):
    # hs and g22 differ in both invariants: central quotients (0|1) vs (2|2),
    # derived subalgebras (1|0) vs (1|2).  (hs2 = hs (+) a_1_0 would not do:
    # it is isoclinic to hs with witnesses of the same shapes.)
    hs, g22 = algebras["hs"], algebras["g22"]
    # target side differs: an hs -> hs witness checked as hs -> g22
    rep = verify_isoclinism(hs, g22, identity_witness(hs))
    assert not rep.passed
    shape = {fl.axiom: fl for fl in rep.failures}
    assert set(shape) == {"quotient-map-shape", "derived-map-shape"}
    for fl in shape.values():
        assert fl.lhs[:2] == fl.rhs[:2] and fl.lhs[2:] != fl.rhs[2:]
    assert shape["quotient-map-shape"].lhs == (0, 1, 0, 1)
    assert shape["quotient-map-shape"].rhs == (0, 1, 2, 2)
    assert shape["derived-map-shape"].lhs == (1, 0, 1, 0)
    assert shape["derived-map-shape"].rhs == (1, 0, 1, 2)
    # source side differs: a g22 -> g22 witness checked as hs -> g22
    rep = verify_isoclinism(hs, g22, identity_witness(g22))
    assert not rep.passed
    shape = {fl.axiom: fl for fl in rep.failures}
    assert set(shape) == {"quotient-map-shape", "derived-map-shape"}
    for fl in shape.values():
        assert fl.lhs[:2] != fl.rhs[:2] and fl.lhs[2:] == fl.rhs[2:]
    assert shape["quotient-map-shape"].rhs == (0, 1, 2, 2)
    assert shape["derived-map-shape"].rhs == (1, 0, 1, 2)


def test_map_over_another_field_is_reported_not_raised(algebras):
    hs, hs_f3 = algebras["hs"], algebras["hs_f3"]
    rep = verify_isoclinism(hs, hs, identity_witness(hs_f3))
    assert rep.failures == (Failure("quotient-map-field", (), (), ()),
                            Failure("derived-map-field", (), (), ()))
    mixed = IsoclinismWitness(identity_witness(hs).quotient_map,
                              identity_witness(hs_f3).derived_map)
    rep = verify_isoclinism(hs, hs, mixed)
    assert rep.failures == (Failure("derived-map-field", (), (), ()),)


def test_verification_needs_one_field(algebras):
    hs, hs_f3 = algebras["hs"], algebras["hs_f3"]
    with pytest.raises(PreconditionError, match="requires the same scalar field"):
        verify_isoclinism(hs, hs_f3, identity_witness(hs))


def test_verification_needs_regular_inputs(algebras):
    bad = abelian(QQ, 1, 0, twist=Matrix.zero(QQ, 1, 1))
    with pytest.raises(PreconditionError):
        verify_isoclinism(bad, bad, identity_witness(algebras["a_1_0"]))


# ---------------------------------------------------------------------------
# constructions

def test_abelian_sum_witness_hs(algebras):
    w = isoclinism_abelian_sum(algebras["hs"], algebras["a_1_0"])
    assert w.quotient_map.matrix == Matrix.identity(QQ, 1)
    assert w.derived_map.matrix == Matrix.identity(QQ, 1)


def test_abelian_sum_with_zero_summand(algebras):
    w = isoclinism_abelian_sum(algebras["hs"], abelian(QQ, 0, 0))
    assert verify_isoclinism(algebras["hs"],
                             direct_sum(algebras["hs"], abelian(QQ, 0, 0)),
                             w).passed


def test_abelian_sum_of_two_abelians(algebras):
    a, b = algebras["a_1_0"], algebras["a_0_1"]
    w = isoclinism_abelian_sum(a, b)
    assert w.quotient_map.matrix.nrows == 0
    assert w.derived_map.matrix.nrows == 0


def test_abelian_sum_rejects_non_abelian_summand(algebras):
    with pytest.raises(PreconditionError):
        isoclinism_abelian_sum(algebras["hs"], algebras["hs"])


def test_quotient_witness_hs2_by_pad(algebras):
    hs2 = algebras["hs2"]
    k = GradedSubspace.from_vectors(QQ, hs2.space, [(0, 1, 0)])
    w = isoclinism_quotient(hs2, k)
    qalg, _ = quotient(hs2, k)
    assert verify_isoclinism(hs2, qalg, w).passed


def test_quotient_witness_zero_ideal(algebras, corpus_name):
    g = algebras[corpus_name]
    k = GradedSubspace.zero(g.field, g.space)
    w = isoclinism_quotient(g, k)
    qalg, _ = quotient(g, k)
    assert verify_isoclinism(g, qalg, w).passed


def test_quotient_witness_rejects_central_derived_ideal(algebras):
    hs = algebras["hs"]
    k = GradedSubspace.from_vectors(QQ, hs.space, [(1, 0)])  # span{z} = G'
    with pytest.raises(PreconditionError):
        isoclinism_quotient(hs, k)


def test_weak_quotient_witness(algebras):
    # g/K ~ g/(K meet G') through the natural projection
    hs2 = algebras["hs2"]
    k = center(hs2)  # span{z, c}; meets G' in span{z}
    w = isoclinism_quotient(hs2, k, strong=False)
    big, _ = quotient(hs2, k)
    small, _ = quotient(hs2, k.intersect(derived(hs2)))
    assert verify_isoclinism(big, small, w).passed


# ---------------------------------------------------------------------------
# stem decomposition

def test_stem_decompose_hs2(algebras):
    sd = stem_decompose(algebras["hs2"])
    assert sd.stem_part.space.dims == (1, 1)
    assert sd.abelian_part.space.dims == (1, 0)
    assert iso_search(sd.stem_part, algebras["hs"]) is not None


def test_stem_decompose_already_stem(algebras):
    sd = stem_decompose(algebras["hs"])
    assert sd.stem_part.space.dims == (1, 1)
    assert sd.abelian_part.space.dims == (0, 0)


def test_stem_decompose_abelian(algebras):
    sd = stem_decompose(algebras["a_1_1"])
    assert sd.stem_part.space.dims == (0, 0)
    assert sd.abelian_part.space.dims == (1, 1)


def test_stem_decompose_dimensions_and_centrality(algebras, corpus_name):
    g = algebras[corpus_name]
    sd = stem_decompose(g)
    p, q = sd.stem_part.space.dims, sd.abelian_part.space.dims
    assert (p[0] + q[0], p[1] + q[1]) == g.space.dims
    assert is_stem(sd.stem_part)
    assert not sd.abelian_part.brackets
    assert is_isomorphism(sd.iso, g,
                          direct_sum(sd.stem_part, sd.abelian_part))
    # the abelian summand sits inside the center of g
    zfull = center(g).to_subspace()
    inv = sd.iso.inverse()
    s = direct_sum(sd.stem_part, sd.abelian_part)
    f = g.field
    for j in range(sd.abelian_part.dim):
        idx = sd.stem_part.space.even_dim + j if j < sd.abelian_part.space.even_dim \
            else sd.stem_part.dim + j
        col = [f.zero] * s.dim
        # abelian block indices inside the sum
    for v in _abelian_block_vectors(sd, s):
        assert zfull.contains_vector(inv(v))


def _abelian_block_vectors(sd, s):
    from homsuper.core import direct_sum_with_embeddings
    _, _, emb = direct_sum_with_embeddings(sd.stem_part, sd.abelian_part)
    return [emb.matrix.col(j) for j in range(sd.abelian_part.dim)]


# ---------------------------------------------------------------------------
# isomorphism search

def test_search_finds_identity_first(algebras):
    hs = algebras["hs"]
    found = iso_search(hs, hs)
    assert found.matrix == Matrix.identity(QQ, 2)


def test_search_dimension_mismatch_is_definitive(algebras):
    assert iso_search(algebras["hs"], algebras["hs2"]) is None


def test_search_finds_diagonal_rescaling(algebras):
    # same constants with f scaled by 3 in the file: [f, f] = 9z
    t2 = algebras["t2"]
    scaled = HomLieSuperalgebra(t2.space, {(1, 1): {0: 9}}, t2.twist)
    found = iso_search(t2, scaled)
    assert found is not None
    assert is_isomorphism(found, t2, scaled)
    assert found.matrix == Matrix.from_rows(QQ, [[1, 0], [0, Fraction(1, 3)]], 2)


def test_search_budget_zero_is_inconclusive(algebras):
    with pytest.raises(SearchInconclusive):
        iso_search(algebras["t2"], algebras["t2"], budget=0)


def test_search_over_f3_is_sound_and_complete():
    # [f,f] = e with twists diag(1,1) vs diag(1,2): provably non-isomorphic
    def alg(b):
        return HomLieSuperalgebra(SuperSpace(1, 1), {(1, 1): {0: 1}},
                                  Matrix.from_rows(F3, [[1, 0], [0, b]], 2))
    assert iso_search(alg(1), alg(2)) is None
    # [f,f] = e vs [f,f] = 2e with equal twists: isomorphic
    g1 = alg(1)
    g2 = HomLieSuperalgebra(g1.space, {(1, 1): {0: 2}}, g1.twist)
    found = iso_search(g1, g2)
    assert found is not None and is_isomorphism(found, g1, g2)


def test_search_is_deterministic(algebras):
    g = algebras["hs_f3"]
    a = iso_search(g, g)
    b = iso_search(g, g)
    assert a.matrix == b.matrix


def test_search_requires_matching_fields(algebras):
    with pytest.raises(PreconditionError):
        iso_search(algebras["hs"], algebras["hs_f3"])


def test_found_isomorphisms_transport_regularity(algebras):
    t2 = algebras["t2"]
    scaled = HomLieSuperalgebra(t2.space, {(1, 1): {0: 9}}, t2.twist)
    found = iso_search(t2, scaled)
    assert check_regular(t2) and check_regular(scaled)
    assert found is not None


# ---------------------------------------------------------------------------
# witnesses form an equivalence relation (composition / inversion)

def test_witness_inversion_preserves_verification(algebras):
    hs = algebras["hs"]
    s = direct_sum(hs, algebras["a_1_0"])
    w = isoclinism_abelian_sum(hs, algebras["a_1_0"])
    assert verify_isoclinism(s, hs, invert_witness(w)).passed


def test_witness_composition_preserves_verification(algebras):
    hs = algebras["hs"]
    mid = direct_sum(hs, algebras["a_1_0"])
    far = direct_sum(mid, algebras["a_0_1"])
    w1 = isoclinism_abelian_sum(hs, algebras["a_1_0"])
    w2 = isoclinism_abelian_sum(mid, algebras["a_0_1"])
    total = compose_witnesses(w1, w2)
    assert verify_isoclinism(hs, far, total).passed


def test_witness_from_isomorphism(algebras):
    t2 = algebras["t2"]
    scaled = HomLieSuperalgebra(t2.space, {(1, 1): {0: 9}}, t2.twist)
    f = iso_search(t2, scaled)
    w = witness_from_surjection(f, t2, scaled)
    assert verify_isoclinism(t2, scaled, w).passed


def test_witness_from_stem_embedding(algebras):
    # hs -> hs2 = hs (+) span{c} misses the central pad c, so it is onto
    # only modulo the center; the induced witness still verifies.
    hs, hs2 = algebras["hs"], algebras["hs2"]
    emb = EvenLinearMap(hs.space, hs2.space,
                        Matrix.from_columns(QQ, [(1, 0, 0), (0, 0, 1)], 3))
    w = witness_from_surjection(emb, hs, hs2)
    assert verify_isoclinism(hs, hs2, w).passed
    assert w.quotient_map.matrix == Matrix.identity(QQ, 1)
    assert w.derived_map.matrix == Matrix.identity(QQ, 1)


def test_witness_needs_onto_modulo_the_center(algebras):
    # a_1_0 -> hs2 onto the pad c: a homomorphism with zero kernel, but its
    # image plus the center span{z, c} misses the non-central f.
    a, hs2 = algebras["a_1_0"], algebras["hs2"]
    pad = EvenLinearMap(a.space, hs2.space, Matrix.from_columns(QQ, [(0, 1, 0)], 3))
    with pytest.raises(PreconditionError, match="not onto modulo the center"):
        witness_from_surjection(pad, a, hs2)


# ---------------------------------------------------------------------------
# decision procedure

def test_decide_witness_equals_reference_chain(algebras):
    """On every isoclinic same-field ordered corpus pair, the witness induced
    by one homomorphism equals the five-step composite entry for entry."""
    isoclinic = 0
    for (n1, g1), (n2, g2) in itertools.product(sorted(algebras.items()), repeat=2):
        if g1.field != g2.field:
            continue
        verdict, w = isoclinic_decide(g1, g2)
        if verdict == "isoclinic":
            isoclinic += 1
            assert w == chain_witness(g1, g2), (n1, n2)
    assert isoclinic == 29

def test_decide_hs_hs2(algebras):
    verdict, w = isoclinic_decide(algebras["hs"], algebras["hs2"])
    assert verdict == "isoclinic"
    assert verify_isoclinism(algebras["hs"], algebras["hs2"], w).passed


def test_decide_different_stems(algebras):
    verdict, w = isoclinic_decide(algebras["hs"], algebras["a_1_1"])
    assert verdict == "not-isoclinic" and w is None


def test_decide_reflexive(algebras, corpus_name):
    g = algebras[corpus_name]
    verdict, w = isoclinic_decide(g, g)
    assert verdict == "isoclinic"
    assert verify_isoclinism(g, g, w).passed


def test_decide_budget_exhaustion_is_inconclusive(algebras):
    verdict, w = isoclinic_decide(algebras["hs"], algebras["hs"], budget=0)
    assert verdict == "inconclusive" and w is None


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=["F3", "F5", "Q"])
def test_decide_twist_shift_pair_is_isoclinic(field):
    """x, y, z even with [x, y] = z: theta = id against theta(x) = x + z.

    Every intertwiner E of the two twists has a zero x-row, so no
    isomorphism exists, and none of the stem parts either.  The identity
    maps are an isoclinism all the same, and the search over the central
    quotients finds one: decide says isoclinic, with a verified witness."""
    space = SuperSpace(3, 0, ("x", "y", "z"))
    brackets = {(0, 1): {2: 1}}
    g1 = HomLieSuperalgebra(space, brackets, Matrix.identity(field, 3))
    g2 = HomLieSuperalgebra(space, brackets,
                            Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [1, 0, 1]], 3))
    q1, _, _ = central_quotient(g1)
    d1, _ = derived_algebra(g1)
    identity = IsoclinismWitness(EvenLinearMap.identity(field, q1.space),
                                 EvenLinearMap.identity(field, d1.space))
    assert verify_isoclinism(g1, g2, identity).passed
    if field.p is not None:
        assert iso_search(g1, g2) is None
    verdict, w = isoclinic_decide(g1, g2)
    assert verdict == "isoclinic"
    assert verify_isoclinism(g1, g2, w).passed


def test_decide_requires_matching_fields(algebras):
    with pytest.raises(PreconditionError):
        isoclinic_decide(algebras["hs"], algebras["hs_f3"])


# ---------------------------------------------------------------------------
# fingerprints

def test_fingerprint_separates_corpus(algebras):
    assert fingerprint(algebras["hs"]) != fingerprint(algebras["hs2"])
    assert fingerprint(algebras["hs"]) != fingerprint(algebras["t2"])
    assert fingerprint(algebras["hs"]) == fingerprint(algebras["hs"])


def test_fingerprint_includes_derived_series(algebras):
    fp = fingerprint(algebras["g22"])
    series = fp[4]
    assert series[0] == (1, 2)


@st.composite
def even_twists(draw):
    """A field and a random even (p|q) matrix, p, q in 0..4, singular allowed."""
    field = draw(st.sampled_from((QQ, F3, F5)))
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = (st.integers(0, field.p - 1) if field.p is not None else
             st.one_of(st.integers(-3, 3), st.sampled_from((Fraction(1, 2), Fraction(-2, 3)))))
    d = p + q
    rows = [[draw(entry) if (i < p) == (j < p) else 0 for j in range(d)] for i in range(d)]
    return p, q, Matrix.from_rows(field, rows, d)


def _jordan(field, d):
    return Matrix.from_rows(field, [[2 if i == j else int(j == i + 1) for j in range(d)]
                                    for i in range(d)], d)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(even_twists())
@example((2, 0, _jordan(F3, 2)))
@example((0, 2, _jordan(F5, 2)))
@example((0, 0, _jordan(QQ, 0)))
def test_fingerprint_charpoly_is_the_twist_charpoly(case):
    """The block product equals Berkowitz on the whole twist, entry types
    included, on every shape: (p|q), (p|0), (0|q) and (0|0)."""
    p, q, twist = case
    g = abelian(twist.field, p, q, twist)
    assert repr(fingerprint(g)[-1]) == repr(twist.charpoly())
