"""Isoclinism of regular Hom-Lie superalgebras.

An isoclinism between two regular Hom-Lie superalgebras is a compatible
pair of isomorphisms: one between the central quotients, one between the
derived subalgebras, making the induced bracket square commute.  The
module provides witness verification, the standard constructions (adding
an abelian summand, quotienting by an ideal missing the derived
subalgebra), stem decomposition, exhaustive/restricted isomorphism
search, and the isoclinism decision procedure that routes through stem
parts.

Witness matrices are always expressed over the deterministic bases:
the greedy graded complement of the center for central quotients, and
the RREF basis of the derived subalgebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (EVEN, ODD, EvenLinearMap, Failure, GradedSubspace,
                   HomLieSuperalgebra, ValidationReport, bracket_span, center,
                   check_homomorphism, check_multiplicative, check_regular,
                   derived, direct_sum, direct_sum_with_embeddings,
                   is_hom_ideal, is_isomorphism, is_stem, quotient,
                   subalgebra_on)
from .errors import (PreconditionError, SearchInconclusive,
                     StemDecompositionError)
from .linalg import Field, Matrix, Subspace, basis_vec

DEFAULT_BUDGET = 200_000

#: Diagonal entries tried by the restricted rational search.
DEFAULT_SCALARS = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2),
                   Fraction(1, 3), Fraction(-1, 3))


@dataclass(frozen=True)
class IsoclinismWitness:
    """quotient_map acts on central quotients, derived_map on derived
    subalgebras; both must be twist-intertwining isomorphisms."""

    quotient_map: EvenLinearMap
    derived_map: EvenLinearMap


def _require_regular(g: HomLieSuperalgebra, label: str):
    if not check_multiplicative(g).passed:
        raise PreconditionError(f"{label} is not multiplicative")
    if not check_regular(g):
        raise PreconditionError(f"{label} is not regular (twist not invertible)")


def central_quotient(g: HomLieSuperalgebra):
    """Quotient by the center over the deterministic graded complement.

    Returns (quotient algebra, projection, section).  The section maps
    quotient coordinates to the chosen representatives inside g.
    """
    z = center(g)
    w = z.complement_in()
    qalg, proj = quotient(g, z, reps=w)
    reps = w.full_basis_vectors()
    sect = EvenLinearMap(qalg.space, g.space,
                         Matrix.from_columns(g.field, reps) if reps
                         else Matrix.zero(g.field, g.dim, 0))
    return qalg, proj, sect


def derived_algebra(g: HomLieSuperalgebra):
    """Induced algebra on the derived subalgebra; returns (algebra, inclusion)."""
    return subalgebra_on(g, derived(g))


def verify_isoclinism(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                      w: IsoclinismWitness) -> ValidationReport:
    """Check a witness: both maps are twist-intertwining isomorphisms, the
    bracket square commutes on all quotient basis pairs, and images of
    derived elements agree with their quotient images modulo the centers
    (the coset compatibility every isoclinism satisfies).

    A witness whose maps do not fit the two algebras is reported, never
    raised: each misfitting map gets a ``quotient-map-shape`` or
    ``derived-map-shape`` failure whose ``lhs`` is the map's source graded
    dims followed by its target graded dims, and whose ``rhs`` is the
    expected graded dims, g1's side followed by g2's side (both flat
    4-tuples of ints)."""
    _require_regular(g1, "first algebra")
    _require_regular(g2, "second algebra")
    q1, proj1, sect1 = central_quotient(g1)
    q2, proj2, sect2 = central_quotient(g2)
    d1sub, d2sub = derived(g1), derived(g2)
    d1alg, incl1 = subalgebra_on(g1, d1sub)
    d2alg, incl2 = subalgebra_on(g2, d2sub)
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
    f = g1.field
    d1full = d1sub.to_subspace()
    # commuting square: brackets of representatives, pushed both ways.
    for i in range(q1.dim):
        for j in range(i, q1.dim):
            sig = g1.bracket(sect1.matrix.col(i), sect1.matrix.col(j))
            coords = d1full.coordinates_of(sig)
            lhs = incl2(w.derived_map(coords))
            rhs = g2.bracket(sect2(w.quotient_map(basis_vec(f, q1.dim, i))),
                             sect2(w.quotient_map(basis_vec(f, q1.dim, j))))
            if lhs != rhs:
                fails.append(Failure("square", (i, j), lhs, rhs))
    # coset compatibility on a basis of the derived subalgebra.
    for a in range(d1alg.dim):
        n = incl1.matrix.col(a)
        lhs = w.quotient_map(proj1(n))
        rhs = proj2(incl2(w.derived_map(basis_vec(f, d1alg.dim, a))))
        if lhs != rhs:
            fails.append(Failure("coset", (a,), lhs, rhs))
    return ValidationReport(tuple(fails))


# ---------------------------------------------------------------------------
# witness constructions

def witness_from_surjection(f: EvenLinearMap, g1: HomLieSuperalgebra,
                            g2: HomLieSuperalgebra) -> IsoclinismWitness:
    """Witness induced by an onto homomorphism whose kernel misses the
    derived subalgebra (an isomorphism is the bijective special case)."""
    if not check_homomorphism(f, g1, g2).passed:
        raise PreconditionError("map is not a homomorphism")
    if f.matrix.rank() != g2.dim:
        raise PreconditionError("map is not onto")
    ker = GradedSubspace.from_subspace(g1.space, f.matrix.nullspace())
    if ker.intersect(derived(g1)).dim != 0:
        raise PreconditionError("kernel meets the derived subalgebra")
    q1, proj1, sect1 = central_quotient(g1)
    q2, proj2, _ = central_quotient(g2)
    d1alg, incl1 = derived_algebra(g1)
    d2alg, _ = derived_algebra(g2)
    d2full = derived(g2).to_subspace()
    fl = g1.field
    mu_cols = [proj2(f(sect1.matrix.col(i))) for i in range(q1.dim)]
    mu = EvenLinearMap(q1.space, q2.space,
                       Matrix.from_columns(fl, mu_cols) if mu_cols
                       else Matrix.zero(fl, q2.dim, 0))
    nu_cols = [d2full.coordinates_of(f(incl1.matrix.col(a))) for a in range(d1alg.dim)]
    if any(c is None for c in nu_cols):
        raise PreconditionError("image of the derived subalgebra escapes the target's")
    nu = EvenLinearMap(d1alg.space, d2alg.space,
                       Matrix.from_columns(fl, nu_cols) if nu_cols
                       else Matrix.zero(fl, d2alg.dim, 0))
    return IsoclinismWitness(mu, nu)


def identity_witness(g: HomLieSuperalgebra) -> IsoclinismWitness:
    q, _, _ = central_quotient(g)
    d, _ = derived_algebra(g)
    return IsoclinismWitness(EvenLinearMap.identity(g.field, q.space),
                             EvenLinearMap.identity(g.field, d.space))


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
    mu = EvenLinearMap(q1.space, qs.space,
                       Matrix.from_columns(f, mu_cols) if mu_cols
                       else Matrix.zero(f, qs.dim, 0))
    nu_cols = [dsfull.coordinates_of(emb1(incl1.matrix.col(a)))
               for a in range(d1alg.dim)]
    nu = EvenLinearMap(d1alg.space, dsalg.space,
                       Matrix.from_columns(f, nu_cols) if nu_cols
                       else Matrix.zero(f, dsalg.dim, 0))
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
    small, proj_small = quotient(g, k_meet_d)
    big, proj_big = quotient(g, k)
    # natural surjection small -> big: push representatives down.
    f = g.field
    z = k_meet_d.complement_in()
    reps = z.full_basis_vectors()
    cols = [proj_big(v) for v in reps]
    nat = EvenLinearMap(small.space, big.space,
                        Matrix.from_columns(f, cols) if cols
                        else Matrix.zero(f, big.dim, 0))
    w = witness_from_surjection(nat, small, big)
    rep = verify_isoclinism(small, big, w)
    if not rep.passed:
        raise RuntimeError("constructed quotient witness failed verification")
    return invert_witness(w)


# ---------------------------------------------------------------------------
# stem decomposition

@dataclass(frozen=True)
class StemDecomposition:
    """g = stem_part (+) abelian_part up to the recorded isomorphism."""

    stem_part: HomLieSuperalgebra
    abelian_part: HomLieSuperalgebra
    iso: EvenLinearMap  # g -> direct_sum(stem_part, abelian_part)


def stem_decompose(g: HomLieSuperalgebra) -> StemDecomposition:
    """Split off a maximal central abelian summand.

    Deterministic strategy: complement Z(G) ∩ G' inside Z(G) to get the
    abelian part A, then extend G' greedily to a complement of A.  Both
    pieces must be twist-invariant; failure of the greedy choice is
    reported rather than repaired.
    """
    _require_regular(g, "algebra")
    f = g.field
    z = center(g)
    dsub = derived(g)
    c = z.intersect(dsub)
    a = c.complement_in(z)
    afull = a.to_subspace()
    for v in a.full_basis_vectors():
        if not afull.contains_vector(g.theta(v)):
            raise StemDecompositionError(
                "greedy central complement is not twist-invariant")
    # extend the derived subalgebra to a complement of A.
    combined = (dsub + a).to_subspace()
    extra = []
    for i in range(g.dim):
        e = basis_vec(f, g.dim, i)
        if not combined.contains_vector(e):
            extra.append(e)
            combined = combined + Subspace.from_vectors(f, g.dim, [e])
    p0 = GradedSubspace.from_vectors(f, g.space, extra) + dsub
    p0full = p0.to_subspace()
    for v in p0.full_basis_vectors():
        if not p0full.contains_vector(g.theta(v)):
            raise StemDecompositionError(
                "greedy stem complement is not twist-invariant")
    stem_part, _ = subalgebra_on(g, p0)
    abelian_part, _ = subalgebra_on(g, a)
    s, emb_p, emb_a = direct_sum_with_embeddings(stem_part, abelian_part)
    basis = Matrix.from_columns(f, p0.full_basis_vectors() + a.full_basis_vectors())
    coords = basis.inverse()
    iso_matrix = emb_p.matrix.hstack(emb_a.matrix) @ coords
    iso = EvenLinearMap(g.space, s.space, iso_matrix)
    if not is_isomorphism(iso, g, s):
        raise RuntimeError("stem decomposition failed to produce an isomorphism")
    if not is_stem(stem_part):
        raise RuntimeError("stem decomposition produced a non-stem part")
    if abelian_part.brackets:
        raise RuntimeError("stem decomposition produced a non-abelian remainder")
    return StemDecomposition(stem_part, abelian_part, iso)


# ---------------------------------------------------------------------------
# fingerprints and isomorphism search

def derived_series_dims(g: HomLieSuperalgebra) -> tuple:
    """Graded dimensions of G', [G', G'], ... until stabilization."""
    cur = derived(g)
    dims = [cur.dims]
    while True:
        nxt = bracket_span(g, cur, cur)
        if nxt.dims == cur.dims:
            break
        dims.append(nxt.dims)
        cur = nxt
    return tuple(dims)


def fingerprint(g: HomLieSuperalgebra) -> tuple:
    """Isomorphism invariants used to prune search: graded dimensions of
    the algebra, its center, derived subalgebra, their intersection, the
    derived series, and the characteristic polynomial of the twist."""
    z = center(g)
    dsub = derived(g)
    return (g.space.dims, z.dims, dsub.dims, z.intersect(dsub).dims,
            derived_series_dims(g), g.twist.charpoly())


def iso_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
               budget: int = DEFAULT_BUDGET,
               scalars: Sequence = DEFAULT_SCALARS) -> Optional[EvenLinearMap]:
    """Search for a twist-intertwining isomorphism g1 -> g2.

    Returns a verified isomorphism, or None when provably none exists.
    Candidates are even maps diag(E, O), walked in a fixed lexicographic
    order.  Over a prime field that order runs over the whole space of
    even matrices, entries of the even block E first, then of the odd
    block O, so None is definitive and the returned map is the
    lexicographically smallest isomorphism.  Over the rationals only
    fingerprint pruning plus a restricted family of maps is tried:
    parity-preserving permutations composed with diagonal scalings drawn
    from `scalars`, ordered by even permutation, odd permutation, even
    diagonal, odd diagonal.  Exhausting that family is not a proof of
    absence, so SearchInconclusive is raised instead of returning None.

    Conditions on one block prune every candidate that shares it.  An
    even block is rejected when E is singular, when E fails the even half
    of twist intertwining, or when E breaks a bracket relation between two
    even basis elements whose bracket in g1 has no odd part; an odd block
    is rejected when O is singular or fails the odd half of twist
    intertwining.  The remaining bracket relations are checked only on
    candidates whose blocks both pass.  Pruning changes neither the result
    nor the budget: the budget counts positions in the candidate order,
    whether a candidate is examined or skipped with a rejected block, and
    SearchInconclusive("budget") is raised once the position passes it.
    """
    if g1.field != g2.field:
        raise PreconditionError("isomorphism search requires the same scalar field")
    if fingerprint(g1) != fingerprint(g2):
        return None
    f = g1.field
    p, q = g1.space.dims
    if f.p is not None:
        elems = tuple(f.elements())
        return _pruned_search(g1, g2, budget, _prime_field_blocks(elems, p, q),
                              len(elems) ** (q * q))
    scalars = tuple(f.of(c) for c in scalars)
    if any(c == 0 for c in scalars):
        raise ValueError("diagonal scalars must be nonzero")
    found = _pruned_search(g1, g2, budget, _monomial_blocks(f, scalars, p, q),
                           len(scalars) ** q)
    if found is None:
        raise SearchInconclusive("restricted-search-exhausted")
    return found


def _prime_field_blocks(elems: tuple, p: int, q: int):
    """Even blocks of all p x p matrices, each with all odd q x q blocks."""
    for even in itertools.product(elems, repeat=p * p):
        yield _square(even, p), _prime_field_odd_blocks(elems, q)


def _prime_field_odd_blocks(elems: tuple, q: int):
    for odd in itertools.product(elems, repeat=q * q):
        yield _square(odd, q)


def _monomial_blocks(f: Field, scalars: tuple, p: int, q: int):
    """Permutation-times-diagonal even blocks, each with its odd blocks."""
    for pe in itertools.permutations(range(p)):
        for po in itertools.permutations(range(q)):
            for de in itertools.product(scalars, repeat=p):
                yield _monomial(f, pe, de), _monomial_odd_blocks(f, scalars, po)


def _monomial_odd_blocks(f: Field, scalars: tuple, po: tuple):
    for do in itertools.product(scalars, repeat=len(po)):
        yield _monomial(f, po, do)


def _square(flat: Sequence, n: int) -> tuple:
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def _monomial(f: Field, perm: Sequence[int], diag: Sequence) -> tuple:
    """Column i holds diag[i] in row perm[i]."""
    rows = [[f.zero] * len(perm) for _ in perm]
    for i, (r, c) in enumerate(zip(perm, diag)):
        rows[r][i] = c
    return tuple(map(tuple, rows))


def _pruned_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                   budget: int, blocks, odd_count: int) -> Optional[EvenLinearMap]:
    """First isomorphism diag(E, O) in block order, or None.

    `blocks` yields each even block E together with the odd blocks that
    follow it in the candidate order, odd_count of them; a rejected E
    advances the position past all of them at once.
    """
    f = g1.field
    mod = f.p
    p, q = g1.space.dims
    d = p + q
    twists = [(g1.twist.submatrix(idx, idx), g2.twist.submatrix(idx, idx))
              for idx in (range(p), range(p, d))]
    table = [[_sparse(g2.basis_bracket(a, b)) for b in range(d)] for a in range(d)]
    even_rel, rest_rel = [], []
    for i in range(d):
        for j in range(i, d):
            rel = (i, j, _sparse(g1.basis_bracket(i, j)))
            pure_even = j < p and all(k < p for k, _ in rel[2])
            (even_rel if pure_even else rest_rel).append(rel)

    def relations_hold(rels, cols):
        for i, j, value in rels:
            acc = [0] * d
            for k, v in value:
                for r, x in cols[k]:
                    acc[r] += v * x
            for a, x in cols[i]:
                for b, y in cols[j]:
                    xy = x * y
                    for k, v in table[a][b]:
                        acc[k] -= xy * v
            if any(x % mod for x in acc) if mod else any(acc):
                return False
        return True

    def block_ok(block, parity):
        """Twist intertwining and invertibility of one diagonal block."""
        m = Matrix.from_rows(f, block)
        t1, t2 = twists[parity]
        return m @ t1 == t2 @ m and m.is_invertible()

    count = 0
    odd_verdicts = {}
    for even, odds in blocks:
        cols = [_block_column(even, i, 0) for i in range(p)] + [None] * q
        if not (relations_hold(even_rel, cols) and block_ok(even, EVEN)):
            count += odd_count
            if count > budget:
                raise SearchInconclusive("budget")
            continue
        for odd in odds:
            count += 1
            if count > budget:
                raise SearchInconclusive("budget")
            ok = odd_verdicts.get(odd)
            if ok is None:
                ok = odd_verdicts[odd] = block_ok(odd, ODD)
            if not ok:
                continue
            for a in range(q):
                cols[p + a] = _block_column(odd, a, p)
            if relations_hold(rest_rel, cols):
                rows = [r + (f.zero,) * q for r in even] \
                    + [(f.zero,) * p + r for r in odd]
                cand = EvenLinearMap(g1.space, g2.space, Matrix.from_rows(f, rows))
                if not is_isomorphism(cand, g1, g2):
                    raise RuntimeError("pruned search accepted a non-isomorphism")
                return cand
    return None


def _sparse(v: Sequence) -> tuple:
    return tuple((k, x) for k, x in enumerate(v) if x != 0)


def _block_column(block: tuple, i: int, off: int) -> tuple:
    """Nonzero entries of column i of a diagonal block placed at offset off."""
    return tuple((off + r, row[i]) for r, row in enumerate(block) if row[i] != 0)


# ---------------------------------------------------------------------------
# the decision procedure

def isoclinic_decide(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                     budget: int = DEFAULT_BUDGET):
    """Decide whether g1 and g2 are isoclinic by reducing to isomorphism
    of their stem parts.

    Returns (verdict, witness) with verdict one of "isoclinic",
    "not-isoclinic", "inconclusive".  The isoclinic verdict carries a
    composite witness that is re-verified before being returned; the
    negative verdict is definitive (fingerprint mismatch of the stem
    parts, or an exhausted finite-field search).
    """
    _require_regular(g1, "first algebra")
    _require_regular(g2, "second algebra")
    if g1.field != g2.field:
        raise PreconditionError("decision requires the same scalar field")
    sd1 = stem_decompose(g1)
    sd2 = stem_decompose(g2)
    try:
        f_stem = iso_search(sd1.stem_part, sd2.stem_part, budget)
    except SearchInconclusive:
        return "inconclusive", None
    if f_stem is None:
        return "not-isoclinic", None
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
    return "isoclinic", total
