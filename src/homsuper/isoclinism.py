"""Isoclinism of regular Hom-Lie superalgebras.

An isoclinism between two regular Hom-Lie superalgebras is a compatible
pair of isomorphisms: one, mu, between the central quotients, one, nu,
between the derived subalgebras, with nu(kappa1(a, b)) = kappa2(mu a, mu b)
for the commutator maps kappa (`_commutator_map`).  The module verifies
witnesses, builds the witness induced by a homomorphism that is onto
modulo the center, splits off a central abelian summand (stem
decomposition), enumerates isomorphisms, and decides isoclinism by the
definition: it searches the isomorphisms mu of the central quotients
that carry every linear relation among the values of kappa1 to kappa2,
and for the first such mu the square forces nu (see `isoclinic_decide`).

Witness matrices are always expressed over the deterministic bases:
the greedy graded complement of the center for central quotients, which
`central_quotient` takes from `core._quotient`, the one owner of that
convention, and the RREF basis of the derived subalgebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import (EvenLinearMap, Failure, GradedBilinearTable, GradedSubspace,
                   HomLieSuperalgebra, ValidationReport, _once,
                   _preservation_failures, _quotient, bracket_span, center,
                   check_homomorphism, check_multiplicative, check_regular,
                   derived, direct_sum_with_embeddings, is_isomorphism,
                   is_stem, subalgebra_on)
from .errors import PreconditionError, SearchInconclusive
from .linalg import Matrix, _dense_vec, _sparse_vec

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
    """Quotient by the center over its greedy graded complement, read off
    the stored cells of g by `core._quotient`, whose docstring gives the
    argument.

    Returns (quotient algebra, projection, section).  The section maps
    quotient coordinates to the chosen representatives inside g.  The
    center absorbs every bracket, so `_quotient`'s twist check is the
    whole Hom-ideal check: a center that theta does not preserve raises
    PreconditionError ("quotient: subspace is not a Hom-ideal").
    `witness_from_surjection` reaches this function without the
    regularity check, so the check stays.
    """
    return _quotient(g, center(g))


@_once
def derived_algebra(g: HomLieSuperalgebra):
    """Induced algebra on the derived subalgebra; returns (algebra, inclusion)."""
    return subalgebra_on(g, derived(g))


@_once
def _commutator_map(g: HomLieSuperalgebra) -> GradedBilinearTable:
    """kappa: G/Z x G/Z -> G', (x + Z, y + Z) -> [x, y], as a table over the
    central quotient's basis e valued in the coordinates of G''s RREF basis.
    Cell (a, b) is [s e_a, s e_b] for the section s of `central_quotient`
    (the center drops out, so any lifts give it), and as the columns of s
    are the unit vectors e_C[a], C increasing, it is the stored cell
    (C[a], C[b]).  i > j values come from graded skew-symmetry, which
    `check_multiplicative` already presumes."""
    f = g.field
    q, _, sect = central_quotient(g)
    dsub = derived(g)
    kept = [sect.matrix.col(a).index(f.one) for a in range(q.dim)]
    cells = {(a, b): dict(enumerate(dsub.coordinates_of(_dense_vec(f, g.dim, cell))))
             for a, c in enumerate(kept) for b in range(a, q.dim)
             if (cell := g.brackets.get((c, kept[b])))}
    return GradedBilinearTable(f, q.space, derived_algebra(g)[0].space, cells)


def verify_isoclinism(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                      w: IsoclinismWitness) -> ValidationReport:
    """Check a witness (mu, nu): both maps are twist-intertwining
    isomorphisms, the square nu(kappa1(a, b)) = kappa2(mu a, mu b) of the
    commutator maps holds on the quotient basis pairs a <= b (bracket
    preservation; a failure's sides are mapped into g2), and so does the
    coset compatibility mu pi1 iota1 = pi2 iota2 nu, pi the projections and
    iota the inclusions of the derived subalgebras.  Once mu preserves
    brackets the square implies the coset check, mu pi1 kappa1 = pi2
    kappa2 (mu x mu), which is kept as the witness comes from outside.

    Algebras over different fields raise PreconditionError.  A witness
    whose maps do not fit the two algebras is reported, never raised:
    each misfitting map gets a ``quotient-map-shape`` or
    ``derived-map-shape`` failure whose ``lhs`` is the map's source graded
    dims followed by its target graded dims, and whose ``rhs`` is the
    expected graded dims, g1's side followed by g2's side (both flat
    4-tuples of ints); a map over another field gets a
    ``quotient-map-field`` or ``derived-map-field`` failure, sides empty."""
    _require_regular(g1, "first algebra")
    _require_regular(g2, "second algebra")
    if g1.field != g2.field:
        raise PreconditionError("verification requires the same scalar field")
    q1, proj1, _ = central_quotient(g1)
    q2, proj2, _ = central_quotient(g2)
    d1alg, incl1 = derived_algebra(g1)
    d2alg, incl2 = derived_algebra(g2)
    mu, nu = w.quotient_map, w.derived_map
    maps = (("quotient-map", mu, q1, q2), ("derived-map", nu, d1alg, d2alg))
    fails = []
    for name, fmap, a1, a2 in maps:
        got = fmap.source.dims + fmap.target.dims
        want = a1.space.dims + a2.space.dims
        if got != want:
            fails.append(Failure(f"{name}-shape", (), got, want))
        if fmap.field != g1.field:
            fails.append(Failure(f"{name}-field", (), (), ()))
    if fails:
        return ValidationReport(tuple(fails))
    for name, fmap, a1, a2 in maps:
        fails.extend(Failure(f"{name}-{fl.axiom}", fl.indices, fl.lhs, fl.rhs)
                     for fl in check_homomorphism(fmap, a1, a2).failures)
        if not fmap.matrix.is_invertible():
            fails.append(Failure(f"{name}-not-invertible", (), (), ()))
    if fails:
        return ValidationReport(tuple(fails))
    fails = [Failure("square", fl.indices, incl2(fl.lhs), incl2(fl.rhs))
             for fl in _preservation_failures("square", _commutator_map(g1),
                                              _commutator_map(g2), mu.matrix, nu.matrix)]
    left = mu.matrix @ proj1.matrix @ incl1.matrix
    right = proj2.matrix @ incl2.matrix @ nu.matrix
    fails.extend(Failure("coset", (a,), left.col(a), right.col(a))
                 for a in range(d1alg.dim) if left.col(a) != right.col(a))
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
    mu = EvenLinearMap(q1.space, q2.space, proj2.matrix @ f.matrix @ sect1.matrix)
    nu_cols = [d2sub.coordinates_of(f(incl1.matrix.col(a))) for a in range(d1alg.dim)]
    nu = EvenLinearMap(d1alg.space, d2alg.space, Matrix.from_columns(g1.field, nu_cols, d2alg.dim))
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

    Returns the first isomorphism in a fixed candidate order, verified by
    `is_isomorphism`.  Candidates are even maps diag(E, O).  Over a prime
    field the order is lexicographic over all even matrices, the entries
    of E row by row, then those of O, so the map returned is the
    lexicographically smallest isomorphism.  Over the rationals only a
    restricted family is tried: parity-preserving permutations composed
    with diagonal scalings drawn from DEFAULT_SCALARS, ordered by even
    permutation, odd permutation, even diagonal, odd diagonal.

    None is definitive: it is returned when the fingerprints differ, or
    when a prime-field search has examined every candidate.  A rational
    search that exhausts its family proves nothing and raises
    SearchInconclusive("restricted-search-exhausted").

    The search is depth-first (see `_Search`), stops at the first
    isomorphism, and generates only candidates that satisfy the linear
    conditions on them, skipping whole ranges of the order unseen.  The
    budget counts search nodes: every partial map the search examines,
    the empty map at the root included.  Budget 0 therefore examines
    nothing, and once a search would examine node budget + 1 it raises
    SearchInconclusive("budget").  A larger budget never turns a
    definitive result into an inconclusive one, nor changes it.
    """
    if g1.field != g2.field:
        raise PreconditionError("isomorphism search requires the same scalar field")
    if fingerprint(g1) != fingerprint(g2):
        return None
    search = _Search(g1, g2, budget)
    prime = g1.field.p is not None
    found = next(search.prime_field() if prime else search.rationals(), None)
    if found is None and not prime:
        raise SearchInconclusive("restricted-search-exhausted")
    return found


def _equations(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra) -> list:
    """The conditions on an even map X: g1 -> g2 to be a twist-intertwining
    homomorphism, as polynomial equations in its entries x[r * d + c].

    One equation per twist column c and row k, (X theta1 - theta2 X)[k, c]
    = 0, and one per bracket pair i <= j and row k,
    (X [b_i, b_j] - [X b_i, X b_j])[k] = 0.  Each is a pair (lin, quad) of
    linear terms (coefficient, entry) and quadratic terms (coefficient,
    entry, entry), with like terms merged and zero terms dropped; entries
    off the parity blocks are zero and appear in no term.
    """
    d = g1.dim
    even = g1.space.even_dim

    def block(i):
        return range(even) if i < even else range(even, d)

    raw = []
    theta2 = [_sparse_vec(r) for r in g2.twist.entries]
    for c in range(d):
        theta1 = _sparse_vec(g1.twist.col(c))
        for k in block(c):
            lin = {}
            for m, t in theta1:
                _add_term(lin, k * d + m, t)
            for l, t in theta2[k]:
                _add_term(lin, l * d + c, -t)
            raw.append((lin, {}))
    rows2 = g2.table.rows
    for i in range(d):
        for j in range(i, d):
            eqs = {}
            for m, v in g1.table.cell(i, j).items():
                for k in block(m):
                    eqs.setdefault(k, ({}, {}))[0][k * d + m] = v
            for a in block(i):
                for b, (s, cell) in rows2[a].items():
                    if (b < even) != (j < even):
                        continue
                    key = (min(a * d + i, b * d + j), max(a * d + i, b * d + j))
                    for k, v in cell.items():
                        _add_term(eqs.setdefault(k, ({}, {}))[1], key, -v if s > 0 else v)
            raw.extend(eqs.values())
    return _terms(raw, g1.field.p)


def _relation_equations(lifts1: list, g2: HomLieSuperalgebra, sect2: EvenLinearMap) -> list:
    """The conditions on an even map X: Q1 -> Q2 of central quotients to
    carry every linear relation among the values of g1's commutator map to
    g2.

    lifts1 holds (i, j, kappa1(e_i, e_j)) for the pairs i <= j of quotient
    basis vectors e, in g1' coordinates (`_commutator_map`), the pairs of
    equal even vectors left out (their bracket vanishes on both sides).
    For each relation sum r_ij kappa1(e_i, e_j) = 0 in a basis of them,
    and each coordinate k of g2, one equation sum r_ij [s2 X e_i, s2 X
    e_j][k] = 0, s2 = sect2 the section of g2.  It is quadratic in the entries x[a * n + i] of X:
    [s2 X e_i, s2 X e_j] is the sum over a, b of x[a * n + i] x[b * n + j]
    [s2 e_a, s2 e_b], a of the parity of i and b of that of j.  Terms are
    merged as in `_equations`.
    """
    if not lifts1:
        return []
    rels = Matrix.from_columns(g2.field, [v for _, _, v in lifts1], len(lifts1[0][2])).nullspace()
    if not rels.dim:
        return []
    n, even = sect2.source.dim, sect2.source.even_dim
    cols = [sect2.matrix.col(a) for a in range(n)]
    lifts2 = [[_sparse_vec(g2.bracket(ca, cb)) for cb in cols] for ca in cols]

    def block(i):
        return range(even) if i < even else range(even, n)

    raw = []
    for r in rels.basis_rows():
        eqs = {}
        for (i, j, _), c in zip(lifts1, r):
            if not c:
                continue
            for a, b in itertools.product(block(i), block(j)):
                key = (min(a * n + i, b * n + j), max(a * n + i, b * n + j))
                for k, v in lifts2[a][b]:
                    _add_term(eqs.setdefault(k, {}), key, c * v)
        raw.extend(({}, quad) for quad in eqs.values())
    return _terms(raw, g2.field.p)


def _terms(raw: list, mod: Optional[int]) -> list:
    """(lin, quad) dicts of entry -> coefficient as tuples of terms, reduced
    mod p over F_p, zero terms and empty equations dropped."""
    out = []
    for lin, quad in raw:
        if mod:
            lin = {i: c % mod for i, c in lin.items()}
            quad = {ij: c % mod for ij, c in quad.items()}
        lin = tuple((c, i) for i, c in lin.items() if c)
        quad = tuple((c, i, j) for (i, j), c in quad.items() if c)
        if lin or quad:
            out.append((lin, quad))
    return out


def _add_term(acc: dict, key, c):
    if key in acc:
        acc[key] += c
    else:
        acc[key] = c


def _entries(eq) -> list:
    lin, quad = eq
    return [i for _, i in lin] + [i for _, a, b in quad for i in (a, b)]


class _Search:
    """Depth-first search: `prime_field` and `rationals` yield the
    isomorphisms g1 -> g2 in candidate order, one leaf of `walk` each.

    A level of the search fixes some entries of the map: over a prime
    field one row of a parity block, over the rationals first the two
    permutations, then one column scalar.  Every child a level generates
    is a node: it is charged one unit of budget, and it is examined by
    testing the equations of `_equations` whose entries are all fixed for
    the first time at that level.  A child that fails is not expanded, so
    no completion of it is ever generated.  Children come in candidate
    order, and so do the leaves.

    Over a prime field the linear equations are solved instead of tested.
    E is walked inside the solutions of the equations that are linear in
    E alone (even twist intertwining, and bracket rows without quadratic
    terms), and for each E that passes, O inside the solutions of those
    that become linear in O once E is fixed (odd twist intertwining and
    the [even, odd] relations).  Both are nullspaces with a basis in
    reduced echelon form.  Two solutions first differ at a pivot, where
    their entries are their coefficients, so the coefficients walked in
    field order, a pivot's coefficient at the level of its row, give the
    lexicographic order of the solutions.  A row that lies in the span of
    the block's earlier rows makes the block singular and fails its node.
    """

    def __init__(self, g1: HomLieSuperalgebra, g2: HomLieSuperalgebra, budget: int,
                 extra: list = ()):
        self.g1, self.g2, self.budget = g1, g2, budget
        self.field = g1.field
        self.mod = self.field.p
        self.p, self.q = g1.space.dims
        self.d = g1.dim
        self.x = [self.field.zero] * (self.d * self.d)
        self.nodes = 0
        self.equations = _equations(g1, g2) + list(extra)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchInconclusive(
                "budget", f"the budget of {self.budget} search nodes ran out")

    def holds(self, eqs) -> bool:
        x, mod = self.x, self.mod
        for lin, quad in eqs:
            s = 0
            for c, i in lin:
                xi = x[i]
                if xi:
                    s += c * xi
            for c, i, j in quad:
                xi = x[i]
                if xi:
                    xj = x[j]
                    if xj:
                        s += c * xi * xj
            if s % mod if mod else s:
                return False
        return True

    def walk(self, levels: list, k: int = 0, state=None):
        """Yield the state of each leaf below a node at depth k, a child of
        the last level, once every level has fixed its entries; without
        levels, the root's state.  levels[k] is (children, checks):
        children(state) writes each child's entries into self.x and yields
        its state, or None for a child that already failed."""
        if not levels:
            yield state
            return
        children, checks = levels[k]
        last = k + 1 == len(levels)
        for child in children(state):
            self.tick()
            if child is not None and self.holds(checks):
                if last:
                    yield child
                else:
                    yield from self.walk(levels, k + 1, child)

    def candidate(self, _state) -> EvenLinearMap:
        d, x = self.d, self.x
        m = Matrix.from_rows(self.field, [x[r * d:(r + 1) * d] for r in range(d)], d)
        cand = EvenLinearMap(self.g1.space, self.g2.space, m)
        if not is_isomorphism(cand, self.g1, self.g2):
            raise RuntimeError("isomorphism search accepted a non-isomorphism")
        return cand

    # -- prime fields -------------------------------------------------------

    def prime_field(self) -> Iterator[EvenLinearMap]:
        p, q, d = self.p, self.q, self.d
        even_lin, even_checks = [], [[] for _ in range(p)]
        odd_lin, odd_checks = [], [[] for _ in range(q)]
        for eq in self.equations:
            lin, quad = eq
            row = max(_entries(eq)) // d
            if row < p:
                (even_checks[row] if quad else even_lin).append(eq)
            elif (all(i // d >= p for _, i in lin)
                  and all((i // d >= p) != (j // d >= p) for _, i, j in quad)):
                odd_lin.append(eq)
            else:
                odd_checks[row - p].append(eq)
        self.tick()
        for _ in self.walk(self.block_levels(even_lin, 0, p, even_checks)):
            odd = self.block_levels(odd_lin, p, q, odd_checks)
            yield from map(self.candidate, self.walk(odd))

    def unknown(self, i: int, off: int, m: int) -> int:
        """The index of entry x[i] among the row-major entries of the
        m x m block at offset off."""
        r, c = divmod(i, self.d)
        return (r - off) * m + c - off

    def block_levels(self, lin_eqs: list, off: int, m: int, checks: list) -> list:
        """One level per row of the m x m block at offset off, walking the
        solutions of `lin_eqs`.  Each term of those equations holds one
        entry of the block; a quadratic term also holds one of an earlier
        block, now fixed in self.x.  A level's state is the block's entries
        so far, as a solution vector, and the echelon rows of the block's
        rows so far; the first level takes the state None."""
        mod, d, x = self.mod, self.d, self.x
        n = m * m
        rows = []
        for lin, quad in lin_eqs:
            row = [0] * n
            for c, i in lin:
                row[self.unknown(i, off, m)] += c
            for c, i, j in quad:
                if j // d >= off:
                    i, j = j, i
                row[self.unknown(i, off, m)] += c * x[j]
            rows.append(tuple(c % mod for c in row))
        basis = Matrix(self.field, len(rows), n, tuple(rows)).nullspace().basis_rows()
        elems = range(mod)

        def level(r):
            lo = r * m
            mine = [v for v in basis if next(u for u, c in enumerate(v) if c) // m == r]
            dest = range((off + r) * d + off, (off + r) * d + off + m)

            def children(state):
                y, echelon = state or ([0] * n, ())
                for cs in itertools.product(elems, repeat=len(mine)):
                    z = list(y)
                    for c, v in zip(cs, mine):
                        if c:
                            for u in range(lo, n):
                                z[u] += c * v[u]
                    for u in range(lo, n):
                        z[u] %= mod
                    row = z[lo:lo + m]
                    grown = _grow_echelon(echelon, row, mod)
                    if grown is None:
                        yield None
                        continue
                    for t, val in zip(dest, row):
                        x[t] = val
                    yield z, grown

            return children

        return [(level(r), checks[r]) for r in range(m)]

    # -- the rationals ------------------------------------------------------

    def rationals(self) -> Iterator[EvenLinearMap]:
        p, d, x, f = self.p, self.d, self.x, self.field
        checks = [[] for _ in range(d)]
        for eq in self.equations:
            checks[max(i % d for i in _entries(eq))].append(eq)
        scalars = tuple(f.of(c) for c in DEFAULT_SCALARS)

        def perms(block):
            def children(perm):
                for pm in itertools.permutations(block):
                    yield perm + pm
            return children

        def column(c, block):
            def children(perm):
                for r in block:
                    x[r * d + c] = f.zero
                cell = perm[c] * d + c
                for s in scalars:
                    x[cell] = s
                    yield perm
            return children

        even, odd = range(p), range(p, d)
        levels = [(perms(even), ()), (perms(odd), ())]
        levels += [(column(c, even if c < p else odd), checks[c]) for c in range(d)]
        self.tick()
        yield from map(self.candidate, self.walk(levels, 0, ()))


def _grow_echelon(echelon: tuple, row: list, mod: int) -> Optional[tuple]:
    """echelon plus row, as (pivot, row) pairs with 1 at each pivot, or
    None when row lies in the span of echelon."""
    v = row
    for pc, e in echelon:
        c = v[pc]
        if c:
            v = [(a - c * b) % mod for a, b in zip(v, e)]
    for pc, c in enumerate(v):
        if c:
            inv = pow(c, -1, mod)
            return echelon + ((pc, [a * inv % mod for a in v]),)
    return None


# ---------------------------------------------------------------------------
# the decision procedure

def isoclinic_decide(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                     budget: int = DEFAULT_BUDGET):
    """Decide whether g1 and g2 are isoclinic, by searching for the
    isomorphism mu of the central quotients Q1 -> Q2 that a witness needs.

    Returns (verdict, witness) with verdict one of "isoclinic",
    "not-isoclinic", "inconclusive".

    Negatives before any search.  An isoclinism (mu, nu) has nu an
    isomorphism g1' -> g2' that intertwines the twists, and mu an
    isomorphism Q1 -> Q2 of Hom-Lie superalgebras.  So differing graded
    dims of the derived algebras, differing `fingerprint`s of the quotient
    algebras (isomorphism invariants), or differing characteristic
    polynomials of the twists on the derived algebras each rule one out:
    the verdict is "not-isoclinic".

    The search.  Write s1, s2 for the sections of the central quotients,
    e_i for the quotient basis and kappa for the commutator maps.  The
    values kappa1(e_i, e_j) = [s1 e_i, s1 e_j], i <= j, span g1'.  The
    square of an isoclinism forces nu(kappa1(e_i, e_j)) = kappa2(mu e_i,
    mu e_j) = [s2 mu e_i, s2 mu e_j], so every linear relation among the
    former holds among the latter.  The
    search is `_Search` on the quotients, over the isomorphisms Q1 -> Q2 that
    intertwine the induced twists, with those relations added to its
    equations (`_relation_equations`).  The added equations are sound, as
    just shown, and complete: once they hold, the formula above is a well
    defined linear map nu on g1', and (mu, nu) is an isoclinism:
    - nu is onto g2', which the brackets of the lifts s2 mu e_i span as mu
      is onto, and so bijective, the graded dims being equal;
    - by bilinearity nu([x, y]) = [x~, y~] for all x, y in g1, with x~ any
      lift of mu(x + Z1): the centers drop out of both sides;
    - coset compatibility: for n = sum r_ij [s1 e_i, s1 e_j] in g1',
      mu(n + Z1) = sum r_ij [mu e_i, mu e_j] in Q2, as mu preserves the
      quotient brackets, which is nu(n) + Z2;
    - nu preserves brackets: for n, m in g1' the lifts of mu(n + Z1) and
      mu(m + Z1) may be taken to be nu(n) and nu(m), so nu([n, m]) =
      [nu(n), nu(m)];
    - nu intertwines the twists: theta1 [x, y] = [theta1 x, theta1 y]
      (multiplicativity), mu intertwines the induced twists, and theta2
      of a lift of mu(x + Z1) lifts mu(theta1 x + Z1), as theta2 maps Z2
      into itself (g2 is regular), so nu(theta1 [x, y]) = [theta2 x~,
      theta2 y~] = theta2 nu([x, y]).
    So the first leaf is a witness.  nu is read off one RREF of the rows
    kappa1(e_i, e_j) | kappa2(mu e_i, mu e_j), and the witness is
    re-verified before it is returned.

    Verdicts of the search.  Over a prime field the search walks every
    even map, so an exhausted search proves that no isoclinism exists:
    "not-isoclinic".  Over the rationals it walks a restricted family, so
    an exhausted family proves nothing; that, and a spent budget, give
    "inconclusive".  The budget counts search nodes as in `iso_search`.

    Isoclinic algebras need not be isomorphic, nor need their stem parts
    be once the twists differ by a central shift: x, y, z even with
    [x, y] = z, theta = id against theta(x) = x + z, are isoclinic by the
    identity maps, yet no isomorphism intertwines the two twists.
    """
    _require_regular(g1, "first algebra")
    _require_regular(g2, "second algebra")
    if g1.field != g2.field:
        raise PreconditionError("decision requires the same scalar field")
    q1, _, _ = central_quotient(g1)
    q2, _, sect2 = central_quotient(g2)
    d1alg, _ = derived_algebra(g1)
    d2alg, _ = derived_algebra(g2)
    if (d1alg.space.dims != d2alg.space.dims or fingerprint(q1) != fingerprint(q2)
            or _twist_charpoly(d1alg) != _twist_charpoly(d2alg)):
        return "not-isoclinic", None
    n, even = q1.dim, q1.space.even_dim
    kappa1 = _commutator_map(g1)
    lifts1 = [(i, j, kappa1.value(i, j))
              for i in range(n) for j in range(i, n) if i != j or i >= even]
    search = _Search(q1, q2, budget, _relation_equations(lifts1, g2, sect2))
    prime = g1.field.p is not None
    try:
        mu = next(search.prime_field() if prime else search.rationals(), None)
    except SearchInconclusive:
        return "inconclusive", None
    if mu is None:
        return ("not-isoclinic" if prime else "inconclusive"), None
    w = IsoclinismWitness(mu, _forced_derived_map(g1, g2, lifts1, mu))
    if not verify_isoclinism(g1, g2, w).passed:
        raise RuntimeError("isoclinism witness failed verification")
    return "isoclinic", w


def _forced_derived_map(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra, lifts1: list,
                        mu: EvenLinearMap) -> EvenLinearMap:
    """The map nu: g1' -> g2' with nu(kappa1(e_i, e_j)) = kappa2(mu e_i,
    mu e_j) on the pairs lifts1 of `isoclinic_decide`, read off one RREF of
    the rows kappa1(e_i, e_j) | kappa2(mu e_i, mu e_j) (`_commutator_map`);
    raises RuntimeError when those rows are inconsistent."""
    f = g1.field
    kappa1, kappa2 = _commutator_map(g1), _commutator_map(g2)
    m, n = kappa1.target.dim, kappa2.target.dim
    rows = [v + kappa2.eval(mu.matrix.col(i), mu.matrix.col(j)) for i, j, v in lifts1]
    red, pivots = Matrix.from_rows(f, rows, m + n).rref()
    if pivots != tuple(range(m)):
        raise RuntimeError("the lifted brackets do not determine a derived map")
    cols = [red.row(a)[m:] for a in range(m)]
    return EvenLinearMap(kappa1.target, kappa2.target, Matrix.from_columns(f, cols, n))
