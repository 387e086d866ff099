"""Reference witness calculus: composition, inversion, the abelian-summand
and quotient witnesses, the five-step witness chain that
`isoclinic_decide` once assembled from them, and the dense verification
of a witness.

Kept as executable oracles: `isoclinic_decide` now builds its witness
from one homomorphism g1 -> g2, and by functoriality of the induced maps
that witness must equal `chain_witness` entry for entry;
`verify_isoclinism` now checks the square with the bracket-preservation
kernel on the commutator maps and the coset compatibility as a matrix
identity, and its report must equal `reference_verify_isoclinism`'s.
"""

from homsuper.core import (EvenLinearMap, Failure, GradedSubspace,
                           HomLieSuperalgebra, ValidationReport,
                           check_homomorphism, derived, direct_sum,
                           direct_sum_with_embeddings, is_hom_ideal, quotient)
from homsuper.errors import PreconditionError
from homsuper.isoclinism import (DEFAULT_BUDGET, IsoclinismWitness,
                                 _require_regular, central_quotient,
                                 derived_algebra, iso_search, stem_decompose,
                                 verify_isoclinism, witness_from_surjection)
from homsuper.linalg import Matrix


def compose_witnesses(w12: IsoclinismWitness, w23: IsoclinismWitness) -> IsoclinismWitness:
    return IsoclinismWitness(w23.quotient_map.compose(w12.quotient_map),
                             w23.derived_map.compose(w12.derived_map))


def invert_witness(w: IsoclinismWitness) -> IsoclinismWitness:
    return IsoclinismWitness(w.quotient_map.inverse(), w.derived_map.inverse())


def isoclinism_abelian_sum(g1: HomLieSuperalgebra,
                           g2: HomLieSuperalgebra) -> IsoclinismWitness:
    """Witness for g1 ~ g1 (+) g2 when g2 is abelian: the quotient map sends
    a coset of m to the coset of (m, 0), the derived map is the identity."""
    if g2.brackets:
        raise PreconditionError("second summand must be abelian")
    _require_regular(g1, "first summand")
    s, emb1, _ = direct_sum_with_embeddings(g1, g2)
    q1, _, sect1 = central_quotient(g1)
    qs, projs, _ = central_quotient(s)
    d1alg, incl1 = derived_algebra(g1)
    dsalg, _ = derived_algebra(s)
    dsfull = derived(s).to_subspace()
    f = g1.field
    mu_cols = [projs(emb1(sect1.matrix.col(i))) for i in range(q1.dim)]
    mu = EvenLinearMap(q1.space, qs.space, Matrix.from_columns(f, mu_cols, qs.dim))
    nu_cols = [dsfull.coordinates_of(emb1(incl1.matrix.col(a)))
               for a in range(d1alg.dim)]
    nu = EvenLinearMap(d1alg.space, dsalg.space, Matrix.from_columns(f, nu_cols, dsalg.dim))
    w = IsoclinismWitness(mu, nu)
    rep = verify_isoclinism(g1, s, w)
    if not rep.passed:
        raise RuntimeError(f"constructed abelian-sum witness failed verification: {rep.failures[:1]}")
    return w


def isoclinism_quotient(g: HomLieSuperalgebra, k: GradedSubspace,
                        strong: bool = True) -> IsoclinismWitness:
    """Witness relating g to its quotient by k.

    strong=True requires k to miss the derived subalgebra and returns a
    witness for g ~ g/k.  strong=False returns a witness for
    g/k ~ g/(k intersect derived) via the natural projection between the
    two quotients.
    """
    if not is_hom_ideal(g, k):
        raise PreconditionError("subspace is not a Hom-ideal")
    k_meet_d = k.intersect(derived(g))
    if strong:
        if k_meet_d.dim != 0:
            raise PreconditionError("ideal meets the derived subalgebra; g ~ g/k unavailable")
        qalg, proj = quotient(g, k)
        w = witness_from_surjection(proj, g, qalg)
        rep = verify_isoclinism(g, qalg, w)
        if not rep.passed:
            raise RuntimeError("constructed quotient witness failed verification")
        return w
    small, _ = quotient(g, k_meet_d)
    big, proj_big = quotient(g, k)
    # natural surjection small -> big: push representatives down.
    f = g.field
    z = k_meet_d.complement_in()
    reps = z.full_basis_vectors()
    cols = [proj_big(v) for v in reps]
    nat = EvenLinearMap(small.space, big.space, Matrix.from_columns(f, cols, big.dim))
    w = witness_from_surjection(nat, small, big)
    rep = verify_isoclinism(small, big, w)
    if not rep.passed:
        raise RuntimeError("constructed quotient witness failed verification")
    return invert_witness(w)


def chain_witness(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                  budget: int = DEFAULT_BUDGET) -> IsoclinismWitness:
    """Witness for g1 ~ g2 composed from five steps through the stem parts:
    g1 -> P1 (+) A1 -> P1 -> P2 -> P2 (+) A2 -> g2.  Raises
    PreconditionError when the stem parts are not isomorphic, and
    SearchInconclusive when the search cannot tell."""
    sd1 = stem_decompose(g1)
    sd2 = stem_decompose(g2)
    f_stem = iso_search(sd1.stem_part, sd2.stem_part, budget)
    if f_stem is None:
        raise PreconditionError("stem parts are not isomorphic")
    s1 = direct_sum(sd1.stem_part, sd1.abelian_part)
    s2 = direct_sum(sd2.stem_part, sd2.abelian_part)
    chain = [
        witness_from_surjection(sd1.iso, g1, s1),
        invert_witness(isoclinism_abelian_sum(sd1.stem_part, sd1.abelian_part)),
        witness_from_surjection(f_stem, sd1.stem_part, sd2.stem_part),
        isoclinism_abelian_sum(sd2.stem_part, sd2.abelian_part),
        witness_from_surjection(sd2.iso.inverse(), s2, g2),
    ]
    total = chain[0]
    for w in chain[1:]:
        total = compose_witnesses(total, w)
    rep = verify_isoclinism(g1, g2, total)
    if not rep.passed:
        raise RuntimeError("composite isoclinism witness failed verification")
    return total


def reference_verify_isoclinism(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                                w: IsoclinismWitness) -> ValidationReport:
    """`verify_isoclinism` with the square checked pair by pair on dense
    brackets of section columns, and the coset compatibility vector by
    vector on a basis of g1'.  For algebras and maps over one field."""
    _require_regular(g1, "first algebra")
    _require_regular(g2, "second algebra")
    q1, proj1, sect1 = central_quotient(g1)
    q2, proj2, sect2 = central_quotient(g2)
    d1sub = derived(g1)
    d1alg, incl1 = derived_algebra(g1)
    d2alg, incl2 = derived_algebra(g2)
    maps = (("quotient-map", w.quotient_map, q1, q2),
            ("derived-map", w.derived_map, d1alg, d2alg))
    fails = []
    for name, fmap, a1, a2 in maps:
        got = fmap.source.dims + fmap.target.dims
        want = a1.space.dims + a2.space.dims
        if got != want:
            fails.append(Failure(f"{name}-shape", (), got, want))
    if fails:
        return ValidationReport(tuple(fails))
    for name, fmap, a1, a2 in maps:
        rep = check_homomorphism(fmap, a1, a2)
        fails.extend(Failure(f"{name}-{fl.axiom}", fl.indices, fl.lhs, fl.rhs)
                     for fl in rep.failures)
        if not fmap.matrix.is_invertible():
            fails.append(Failure(f"{name}-not-invertible", (), (), ()))
    if fails:
        return ValidationReport(tuple(fails))
    # commuting square: brackets of representatives, pushed both ways; the
    # representative sect2(mu e_i) of column i of mu is one per basis vector.
    reps2 = [sect2(w.quotient_map.matrix.col(i)) for i in range(q1.dim)]
    for i in range(q1.dim):
        for j in range(i, q1.dim):
            sig = g1.bracket(sect1.matrix.col(i), sect1.matrix.col(j))
            coords = d1sub.coordinates_of(sig)
            lhs = incl2(w.derived_map(coords))
            rhs = g2.bracket(reps2[i], reps2[j])
            if lhs != rhs:
                fails.append(Failure("square", (i, j), lhs, rhs))
    # coset compatibility on a basis of the derived subalgebra.
    for a in range(d1alg.dim):
        n = incl1.matrix.col(a)
        lhs = w.quotient_map(proj1(n))
        rhs = proj2(incl2(w.derived_map.matrix.col(a)))
        if lhs != rhs:
            fails.append(Failure("coset", (a,), lhs, rhs))
    return ValidationReport(tuple(fails))
