"""Reference implementations of kernel routines, kept as oracles.

`reference_from_subspace` splits a subspace into parity parts by
intersecting it with the even and odd coordinate blocks;
`reference_field_of` coerces every scalar afresh, canonical or not.
`GradedSubspace.from_subspace` and `Field.of` in `homsuper` must give
equal results, of the same type, and raise the same errors.

The dense structure-constant kernels below evaluate a bilinear table
through `GradedBilinearTable.cell` on every coordinate pair and check the
axioms on every basis pair and triple, without the table's row index:
`reference_eval`, `reference_skew_failures`, `reference_check_hom_jacobi`,
`reference_validate_factor_set`, `reference_center` and
`reference_derived`.  The sparse versions in `homsuper` must give the same
failure tuples, entry types included, and the same subspaces.

`reference_stem_decompose` extends the derived subalgebra by its own
greedy walk over the standard basis, checks twist invariance with its own
loops, and builds the induced algebras through `reference_subalgebra_on`,
which checks membership and then computes coordinates over the full-space
RREF of the subspace.  `stem_decompose` must give the same stem part,
abelian part and isomorphism, or raise PreconditionError when it does.
"""

from fractions import Fraction

from homsuper.core import (EVEN, EvenLinearMap, Failure, GradedSubspace,
                           HomLieSuperalgebra, SuperSpace, ValidationReport, center,
                           derived, direct_sum_with_embeddings, is_isomorphism,
                           is_stem, koszul_sign)
from homsuper.errors import PreconditionError
from homsuper.isoclinism import StemDecomposition, _require_regular
from homsuper.linalg import (Field, Matrix, Subspace, basis_vec, vec_add, vec_is_zero,
                             vec_scale, vec_sub, zero_vec)


def reference_from_subspace(space: SuperSpace, sub: Subspace) -> GradedSubspace:
    """Split a full-space subspace into parity parts; fails when the
    subspace is not graded."""
    f = sub.field
    p, q = space.dims
    even_block = Subspace.from_vectors(f, space.dim,
                                       [basis_vec(f, space.dim, i) for i in range(p)])
    odd_block = Subspace.from_vectors(f, space.dim,
                                      [basis_vec(f, space.dim, p + i) for i in range(q)])
    e_full = sub.intersect(even_block)
    o_full = sub.intersect(odd_block)
    if e_full.dim + o_full.dim != sub.dim:
        raise ValueError("subspace is not graded")
    evens = [row[:p] for row in e_full.basis_rows()]
    odds = [row[p:] for row in o_full.basis_rows()]
    return GradedSubspace(Subspace.from_vectors(f, p, evens),
                          Subspace.from_vectors(f, q, odds))


def reference_field_of(field: Field, x):
    """Coerce an int, Fraction, or string to a canonical field element."""
    if isinstance(x, str):
        return field.parse(x)
    if field.p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        if x.denominator % field.p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {field.p}")
        return x.numerator * pow(x.denominator, -1, field.p) % field.p
    return int(x) % field.p


# ---------------------------------------------------------------------------
# dense structure-constant kernels

def reference_eval(table, x, y) -> tuple:
    """Bilinear extension of a table to whole source-coordinate vectors."""
    f = table.field
    out = [f.zero] * table.target.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            cell = table.cell(i, j)
            if not cell:
                continue
            c = f.mul(xi, yj)
            for k, v in cell.items():
                out[k] = f.add(out[k], f.mul(c, v))
    return tuple(out)


def reference_skew_failures(table, axiom: str) -> tuple:
    """Pairs breaking t(i, j) = -(-1)^{|i||j|} t(j, i), derived values
    included; even diagonal values are forced to vanish."""
    f = table.field
    zero = zero_vec(f, table.target.dim)
    fails = []
    for i in range(table.source.dim):
        for j in range(i + 1):
            if i == j:
                if table.source.parity(i) == EVEN:
                    v = table.value(i, i)
                    if not vec_is_zero(v):
                        fails.append(Failure(axiom, (i, i), v, zero))
                continue
            lhs = table.value(i, j)
            s = f.neg(koszul_sign(f, table.source.parity(i), table.source.parity(j)))
            rhs = vec_scale(f, s, table.value(j, i))
            if lhs != rhs:
                fails.append(Failure(axiom, (i, j), lhs, rhs))
    return tuple(fails)


def reference_check_hom_jacobi(g) -> ValidationReport:
    """Twisted Jacobi identity on all ordered basis triples i <= j <= k."""
    f = g.field
    d = g.dim
    zero = zero_vec(f, d)
    theta_col = [g.twist.col(i) for i in range(d)]
    e = [basis_vec(f, d, i) for i in range(d)]
    fails = []
    for i in range(d):
        for j in range(i, d):
            for k in range(j, d):
                pi, pj, pk = (g.space.parity(t) for t in (i, j, k))
                total = zero
                for (a, b, c), sgn in (((i, j, k), koszul_sign(f, pi, pk)),
                                       ((k, i, j), koszul_sign(f, pk, pj)),
                                       ((j, k, i), koszul_sign(f, pj, pi))):
                    inner = reference_eval(g.table, e[b], e[c])
                    term = reference_eval(g.table, theta_col[a], inner)
                    total = vec_add(f, total, vec_scale(f, sgn, term))
                if not vec_is_zero(total):
                    fails.append(Failure("hom-jacobi", (i, j, k), total, zero))
    return ValidationReport(tuple(fails))


def reference_validate_factor_set(fs) -> ValidationReport:
    """Parity, graded skew-symmetry and the twist-compatible cocycle
    identity on all ordered basis triples, by bilinear expansion."""
    f = fs.field
    q = fs.quotient
    dq = q.dim
    fails = list(fs.table.parity_failures("factor-parity")
                 + reference_skew_failures(fs.table, "factor-skew"))
    tw = [q.twist.col(i) for i in range(dq)]
    e = [basis_vec(f, dq, i) for i in range(dq)]

    def r(u, v):
        return reference_eval(fs.table, u, v)

    def br(u, v):
        return reference_eval(q.table, u, v)

    for i in range(dq):
        for j in range(dq):
            sgn = koszul_sign(f, q.space.parity(i), q.space.parity(j))
            for k in range(dq):
                lhs = r(q.basis_bracket(i, j), tw[k])
                rhs = vec_sub(f, r(tw[i], br(e[j], e[k])),
                              vec_scale(f, sgn, r(tw[j], br(e[i], e[k]))))
                if lhs != rhs:
                    fails.append(Failure("factor-cocycle", (i, j, k), lhs, rhs))
    return ValidationReport(tuple(fails))


def reference_center(g) -> GradedSubspace:
    """Z(G) as the kernel of the stacked adjoint maps x -> [x, b_j], every
    row assembled, zero rows included."""
    f = g.field
    d = g.dim
    rows = []
    for j in range(d):
        cols = [g.basis_bracket(i, j) for i in range(d)]
        for k in range(d):
            rows.append([cols[i][k] for i in range(d)])
    m = Matrix.from_rows(f, rows, d)
    return GradedSubspace.from_subspace(g.space, m.nullspace())


def reference_derived(g) -> GradedSubspace:
    """Span of the brackets of all basis pairs i <= j, split by parity."""
    vecs = [g.basis_bracket(i, j) for i in range(g.dim) for j in range(i, g.dim)]
    sub = Subspace.from_vectors(g.field, g.dim, vecs)
    return GradedSubspace.from_subspace(g.space, sub)


# ---------------------------------------------------------------------------
# stem decomposition

def reference_subalgebra_on(g, k: GradedSubspace):
    """Induced algebra on a bracket-closed, twist-invariant graded subspace,
    with coordinates over the full-space RREF basis of k."""
    f = g.field
    kf = k.to_subspace()
    vecs = k.full_basis_vectors()
    for v in vecs:
        if not kf.contains_vector(g.theta(v)):
            raise PreconditionError("subspace is not twist-invariant")
    for a, va in enumerate(vecs):
        for vb in vecs[a:]:
            if not kf.contains_vector(g.bracket(va, vb)):
                raise PreconditionError("subspace is not closed under the bracket")
    space = SuperSpace(k.even.dim, k.odd.dim)
    brackets = {(a, b): dict(enumerate(kf.coordinates_of(g.bracket(vecs[a], vecs[b]))))
                for a in range(len(vecs)) for b in range(a, len(vecs))}
    twist = Matrix.from_columns(f, [kf.coordinates_of(g.theta(v)) for v in vecs], k.dim)
    alg = HomLieSuperalgebra(space, brackets, twist)
    incl = EvenLinearMap(space, g.space, Matrix.from_columns(f, vecs, g.dim))
    return alg, incl


def reference_stem_decompose(g) -> StemDecomposition:
    """Complement Z(G) ∩ G' inside Z(G) to get the abelian part A, then
    extend G' greedily over the standard basis to a complement of A; both
    pieces must be twist-invariant."""
    _require_regular(g, "algebra")
    f = g.field
    z = center(g)
    dsub = derived(g)
    a = z.intersect(dsub).complement_in(z)
    afull = a.to_subspace()
    for v in a.full_basis_vectors():
        if not afull.contains_vector(g.theta(v)):
            raise PreconditionError("greedy central complement is not twist-invariant")
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
            raise PreconditionError("greedy stem complement is not twist-invariant")
    stem_part, _ = reference_subalgebra_on(g, p0)
    abelian_part, _ = reference_subalgebra_on(g, a)
    s, emb_p, emb_a = direct_sum_with_embeddings(stem_part, abelian_part)
    basis = Matrix.from_columns(f, p0.full_basis_vectors() + a.full_basis_vectors(), g.dim)
    iso = EvenLinearMap(g.space, s.space,
                        emb_p.matrix.hstack(emb_a.matrix) @ basis.inverse())
    assert is_isomorphism(iso, g, s)
    assert is_stem(stem_part)
    assert not abelian_part.brackets
    return StemDecomposition(stem_part, abelian_part, iso)
