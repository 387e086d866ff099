"""Isoclinism of regular Hom-Lie superalgebras.

An isoclinism between two regular Hom-Lie superalgebras is a compatible
pair of isomorphisms: one between the central quotients, one between the
derived subalgebras, making the induced bracket square commute.  The
module verifies witnesses, builds the witness induced by a homomorphism
that is onto modulo the center, splits off a central abelian summand
(stem decomposition), searches for isomorphisms, and decides isoclinism
through an isomorphism of stem parts, whose witness is induced by one
homomorphism between the two algebras.

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
                   HomLieSuperalgebra, ValidationReport, _once, bracket_span, center,
                   check_homomorphism, check_multiplicative, check_regular,
                   derived, direct_sum_with_embeddings, is_isomorphism,
                   is_stem, quotient, subalgebra_on)
from .errors import PreconditionError, SearchInconclusive
from .linalg import Field, Matrix, _sparse_vec, basis_vec

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


@_once
def central_quotient(g: HomLieSuperalgebra):
    """Quotient by the center over the deterministic graded complement.

    Returns (quotient algebra, projection, section).  The section maps
    quotient coordinates to the chosen representatives inside g.
    """
    z = center(g)
    w = z.complement_in()
    qalg, proj = quotient(g, z, reps=w)
    reps = w.full_basis_vectors()
    sect = EvenLinearMap(qalg.space, g.space, Matrix.from_columns(g.field, reps, g.dim))
    return qalg, proj, sect


@_once
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
    f = g1.field
    # commuting square: brackets of representatives, pushed both ways.
    for i in range(q1.dim):
        for j in range(i, q1.dim):
            sig = g1.bracket(sect1.matrix.col(i), sect1.matrix.col(j))
            coords = d1sub.coordinates_of(sig)
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
    """Witness induced by a homomorphism f that is onto modulo the center,
    f(g1) + Z2 = g2, and whose kernel misses the derived subalgebra (an
    isomorphism is the bijective special case).

    The quotient map is x + Z1 -> f(x) + Z2, the derived map f on g1'.
    - f(Z1) lies in Z2: [f(z), f(x) + c] = f([z, x]) = 0 for c in Z2.
    - The quotient map is bijective: it is onto by hypothesis, and f(x) in
      Z2 gives f([x, y]) = 0, so [x, y] lies in ker f meet g1' = 0 for
      every y, and x lies in Z1.
    - f maps g1' onto g2' = [f(g1) + Z2, f(g1) + Z2] = f(g1'), injectively.
    Both maps intertwine the twists and make the bracket square commute
    because f does.
    """
    if not check_homomorphism(f, g1, g2).passed:
        raise PreconditionError("map is not a homomorphism")
    q2, proj2, _ = central_quotient(g2)
    if (proj2.matrix @ f.matrix).rank() != q2.dim:
        raise PreconditionError("map is not onto modulo the center")
    ker = GradedSubspace.from_subspace(g1.space, f.matrix.nullspace())
    if ker.intersect(derived(g1)).dim != 0:
        raise PreconditionError("kernel meets the derived subalgebra")
    q1, _, sect1 = central_quotient(g1)
    d1alg, incl1 = derived_algebra(g1)
    d2sub = derived(g2)
    d2alg, _ = derived_algebra(g2)
    fl = g1.field
    mu_cols = [proj2(f(sect1.matrix.col(i))) for i in range(q1.dim)]
    mu = EvenLinearMap(q1.space, q2.space, Matrix.from_columns(fl, mu_cols, q2.dim))
    nu_cols = [d2sub.coordinates_of(f(incl1.matrix.col(a))) for a in range(d1alg.dim)]
    nu = EvenLinearMap(d1alg.space, d2alg.space, Matrix.from_columns(fl, nu_cols, d2alg.dim))
    return IsoclinismWitness(mu, nu)


def identity_witness(g: HomLieSuperalgebra) -> IsoclinismWitness:
    q, _, _ = central_quotient(g)
    d, _ = derived_algebra(g)
    return IsoclinismWitness(EvenLinearMap.identity(g.field, q.space),
                             EvenLinearMap.identity(g.field, d.space))


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
    abelian part A, then extend G' by the greedy complement of G' + A to
    get the stem part P.  Both pieces must be twist-invariant: when a
    greedy choice is not, `subalgebra_on` raises PreconditionError
    ("subspace is not twist-invariant"), A checked first; the choice is
    reported rather than repaired.
    """
    _require_regular(g, "algebra")
    f = g.field
    z = center(g)
    dsub = derived(g)
    a = z.intersect(dsub).complement_in(z)
    p0 = (dsub + a).complement_in() + dsub
    abelian_part, _ = subalgebra_on(g, a)
    stem_part, _ = subalgebra_on(g, p0)
    s, emb_p, emb_a = direct_sum_with_embeddings(stem_part, abelian_part)
    basis = Matrix.from_columns(f, p0.full_basis_vectors() + a.full_basis_vectors(), g.dim)
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


@_once
def fingerprint(g: HomLieSuperalgebra) -> tuple:
    """Isomorphism invariants used to prune search: graded dimensions of
    the algebra, its center, derived subalgebra, their intersection, the
    derived series, and the characteristic polynomial of the twist."""
    z = center(g)
    dsub = derived(g)
    return (g.space.dims, z.dims, dsub.dims, z.intersect(dsub).dims,
            derived_series_dims(g), _twist_charpoly(g))


def _twist_charpoly(g: HomLieSuperalgebra) -> tuple:
    """det(xI - theta), leading coefficient first, as the product of the
    even and odd blocks' polynomials: an even twist is block-diagonal by
    parity."""
    p, d = g.space.even_dim, g.dim
    even = g.twist.submatrix(range(p), range(p)).charpoly()
    odd = g.twist.submatrix(range(p, d), range(p, d)).charpoly()
    f = g.field
    prod = [f.zero] * (len(even) + len(odd) - 1)
    for i, a in enumerate(even):
        for j, b in enumerate(odd):
            prod[i + j] = f.add(prod[i + j], f.mul(a, b))
    return tuple(prod)


def iso_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
               budget: int = DEFAULT_BUDGET) -> Optional[EvenLinearMap]:
    """Search for a twist-intertwining isomorphism g1 -> g2.

    Returns a verified isomorphism, or None when provably none exists.
    Candidates are even maps diag(E, O), walked in a fixed lexicographic
    order.  Over a prime field that order runs over the whole space of
    even matrices, entries of the even block E first, then of the odd
    block O, so None is definitive and the returned map is the
    lexicographically smallest isomorphism.  Over the rationals only
    fingerprint pruning plus a restricted family of maps is tried:
    parity-preserving permutations composed with diagonal scalings drawn
    from DEFAULT_SCALARS, ordered by even permutation, odd permutation, even
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
    scalars = tuple(f.of(c) for c in DEFAULT_SCALARS)
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
    table = [[_sparse_vec(g2.basis_bracket(a, b)) for b in range(d)] for a in range(d)]
    even_rel, rest_rel = [], []
    for i in range(d):
        for j in range(i, d):
            rel = (i, j, _sparse_vec(g1.basis_bracket(i, j)))
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
        m = Matrix.from_rows(f, block, len(block))
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
                cand = EvenLinearMap(g1.space, g2.space, Matrix.from_rows(f, rows, d))
                if not is_isomorphism(cand, g1, g2):
                    raise RuntimeError("pruned search accepted a non-isomorphism")
                return cand
    return None


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
    "not-isoclinic", "inconclusive".  The isoclinic verdict carries the
    witness induced by the homomorphism
    g1 -> P1 (+) A1 -> P1 -> P2 -> P2 (+) A2 -> g2
    through the stem decompositions (P the stem part, A the central abelian
    summand) and the stem isomorphism P1 -> P2.  It is onto modulo the
    center, and its kernel, the copy of A1 in g1, misses g1'.  The
    witness is re-verified before being returned; the negative verdict is
    definitive (fingerprint mismatch of the stem parts, or an exhausted
    finite-field search).
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
    _, emb1, _ = direct_sum_with_embeddings(sd1.stem_part, sd1.abelian_part)
    _, emb2, _ = direct_sum_with_embeddings(sd2.stem_part, sd2.abelian_part)
    onto_stem1 = EvenLinearMap(emb1.target, emb1.source, emb1.matrix.transpose())
    phi = sd2.iso.inverse().compose(emb2).compose(f_stem).compose(onto_stem1).compose(sd1.iso)
    w = witness_from_surjection(phi, g1, g2)
    rep = verify_isoclinism(g1, g2, w)
    if not rep.passed:
        raise RuntimeError("isoclinism witness failed verification")
    return "isoclinic", w
