"""Reference implementations of kernel routines, kept as oracles.

`reference_nullspace` takes the kernel in two reductions: one vector per
free column of `reference_rref`, then a second RREF of those vectors
through `reference_from_vectors`.  `reference_from_subspace`
splits a subspace into parity parts by intersecting it with the even and
odd coordinate blocks, each intersection the kernel of the stacked bases
through `reference_nullspace`; `reference_field_of` coerces every scalar
afresh, canonical or not.  `Matrix.nullspace`,
`GradedSubspace.from_subspace` and `Field.of` in `homsuper` must give
equal results, of the same type, and raise the same errors.

The dense structure-constant kernels below evaluate a bilinear table
through `GradedBilinearTable.cell` on every coordinate pair and check the
axioms on every basis pair and triple, without the table's row index:
`reference_eval`, `reference_skew_failures`, `reference_check_hom_jacobi`,
`reference_validate_factor_set`, `reference_center` and
`reference_derived`.  The last two end in `reference_nullspace` and
`reference_from_subspace`, so they touch neither the library's kernel
(`Matrix.nullspace`) nor its split (`GradedSubspace.from_subspace`).  The
sparse versions in `homsuper` must give the same failure tuples, entry
types included, and the same subspaces.
`reference_preservation_failures` checks bracket preservation pair by
pair through `reference_matvec` and `reference_eval`, and
`reference_check_homomorphism` adds the twist intertwining through
`reference_matmul`.

`reference_quotient` is the construction `quotient` once had: the
Hom-ideal check of `is_hom_ideal`, the greedy complement W of
`complement_in`, the projection read off the inverse of the basis k | W,
and brackets and twist images of W's basis vectors sent through it.
`quotient` and `central_quotient` must give the same quotient algebra,
projection and section, entry for entry.

`reference_stem_decompose` extends the derived subalgebra by its own
greedy walk over the standard basis, checks twist invariance with its own
loops, and builds the induced algebras through `reference_subalgebra_on`,
which checks membership and then computes coordinates over the full-space
RREF of the subspace.  `stem_decompose` must give the same stem part,
abelian part and isomorphism, or raise PreconditionError when it does.

The dense scalar kernels go through `Field.add`/`Field.mul` on every
entry: `reference_rref` updates whole rows, `reference_matvec` and
`reference_matmul` take a dot product per output entry over every entry
pair, `reference_coordinates_of` finds each basis row's pivot by a scan
and subtracts whole rows, and `reference_complement_in` walks the
enclosing basis greedily with one RREF per kept vector.
`field_ops_eval`, `field_ops_check_hom_jacobi` and
`field_ops_validate_factor_set` walk the row index like the versions in
`homsuper` but reduce every product and sum through the field methods.
The kernels in `homsuper` must give the same values of the same types.
"""

from fractions import Fraction

from homsuper.core import (EVEN, EvenLinearMap, Failure, GradedSubspace,
                           HomLieSuperalgebra, SuperSpace, ValidationReport, center,
                           derived, direct_sum_with_embeddings, is_hom_ideal,
                           is_isomorphism, is_stem, koszul_sign)
from homsuper.errors import PreconditionError
from homsuper.isoclinism import StemDecomposition, _require_regular
from homsuper.linalg import (Field, Matrix, Subspace, _dense_vec, _sparse_vec, basis_vec,
                             vec_is_zero, vec_scale, vec_sub, zero_vec)


def vec_add(field: Field, a, b) -> tuple:
    return tuple(field.add(x, y) for x, y in zip(a, b))


def reference_from_subspace(space: SuperSpace, sub: Subspace) -> GradedSubspace:
    """Split a full-space subspace into parity parts; fails when the
    subspace is not graded."""
    if sub.ambient_dim != space.dim:
        raise ValueError("subspaces live in different ambient spaces")
    f = sub.field
    p, q = space.dims
    even_block = [basis_vec(f, space.dim, i) for i in range(p)]
    odd_block = [basis_vec(f, space.dim, p + i) for i in range(q)]
    e_full = reference_intersect(sub, reference_from_vectors(f, space.dim, even_block))
    o_full = reference_intersect(sub, reference_from_vectors(f, space.dim, odd_block))
    if e_full.dim + o_full.dim != sub.dim:
        raise ValueError("subspace is not graded")
    evens = [row[:p] for row in e_full.basis_rows()]
    odds = [row[p:] for row in o_full.basis_rows()]
    return GradedSubspace(reference_from_vectors(f, p, evens),
                          reference_from_vectors(f, q, odds))


def reference_nullspace(matrix: Matrix) -> Subspace:
    """The kernel: per free column of the RREF, the vector with 1 there and
    the negated reduced entries at the pivots; then the RREF of those."""
    f = matrix.field
    red, pivots = reference_rref(matrix)
    basis = []
    for fc in range(matrix.ncols):
        if fc in pivots:
            continue
        v = [f.zero] * matrix.ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r, fc])
        basis.append(v)
    return reference_from_vectors(f, matrix.ncols, basis)


def reference_intersect(u: Subspace, w: Subspace) -> Subspace:
    """u ∩ w: x U + y W = 0 for the basis matrices U and W puts x U in both
    subspaces, and every common vector arises so."""
    f = u.field
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(f, u.ambient_dim)
    ker = reference_nullspace(u.basis.vstack(w.basis).transpose()).basis
    xs = ker.submatrix(range(ker.nrows), range(u.dim))
    return reference_from_vectors(f, u.ambient_dim, reference_matmul(xs, u.basis).entries)


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


def reference_preservation_failures(axiom: str, t1, t2, a: Matrix, b: Matrix) -> tuple:
    """Pairs i <= j breaking b(t1(b_i, b_j)) = t2(a b_i, a b_j)."""
    fails = []
    for i in range(t1.source.dim):
        for j in range(i, t1.source.dim):
            lhs = reference_matvec(b, t1.value(i, j))
            rhs = reference_eval(t2, a.col(i), a.col(j))
            if lhs != rhs:
                fails.append(Failure(axiom, (i, j), lhs, rhs))
    return tuple(fails)


def reference_check_homomorphism(f: EvenLinearMap, g1, g2) -> ValidationReport:
    """Bracket preservation on the basis pairs i <= j, then twist
    intertwining column by column."""
    m = f.matrix
    fails = list(reference_preservation_failures("homomorphism-bracket", g1.table, g2.table,
                                                 m, m))
    left, right = reference_matmul(m, g1.twist), reference_matmul(g2.twist, m)
    for i in range(g1.dim):
        if left.col(i) != right.col(i):
            fails.append(Failure("homomorphism-twist", (i,), left.col(i), right.col(i)))
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
    return reference_from_subspace(g.space, reference_nullspace(m))


def reference_derived(g) -> GradedSubspace:
    """Span of the brackets of all basis pairs i <= j, split by parity."""
    vecs = [g.basis_bracket(i, j) for i in range(g.dim) for j in range(i, g.dim)]
    sub = reference_from_vectors(g.field, g.dim, vecs)
    return reference_from_subspace(g.space, sub)


# ---------------------------------------------------------------------------
# quotient

def reference_quotient(g, k: GradedSubspace):
    """(quotient algebra, projection, section) over the greedy complement W
    of the Hom-ideal k: the projection is the W rows of the inverse of the
    basis k | W, the section W's basis, and the quotient's twist and
    brackets are the projected twist images and brackets of that basis."""
    if not is_hom_ideal(g, k):
        raise PreconditionError("quotient: subspace is not a Hom-ideal")
    f = g.field
    w = k.complement_in()
    reps = w.full_basis_vectors()
    basis = Matrix.from_columns(f, k.full_basis_vectors() + reps, g.dim)
    proj = basis.inverse().submatrix(range(k.dim, g.dim), range(g.dim))
    space = SuperSpace(w.even.dim, w.odd.dim)
    twist = Matrix.from_columns(f, [proj.matvec(g.theta(v)) for v in reps], w.dim)
    brackets = {(a, b): dict(enumerate(proj.matvec(g.bracket(reps[a], reps[b]))))
                for a in range(w.dim) for b in range(a, w.dim)}
    qalg = HomLieSuperalgebra(space, brackets, twist)
    return (qalg, EvenLinearMap(g.space, space, proj),
            EvenLinearMap(space, g.space, Matrix.from_columns(f, reps, g.dim)))


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


# ---------------------------------------------------------------------------
# dense scalar kernels

def _reference_dot(field: Field, a, b):
    s = field.zero
    for x, y in zip(a, b):
        if x and y:
            s = field.add(s, field.mul(x, y))
    return s


def reference_rref(matrix: Matrix) -> tuple:
    """Unique reduced row-echelon form and its pivot columns."""
    f = matrix.field
    m = [list(r) for r in matrix.entries]
    pivots = []
    pr = 0
    for pc in range(matrix.ncols):
        if pr == matrix.nrows:
            break
        hit = next((r for r in range(pr, matrix.nrows) if m[r][pc] != 0), None)
        if hit is None:
            continue
        m[pr], m[hit] = m[hit], m[pr]
        inv = f.inv(m[pr][pc])
        m[pr] = [f.mul(inv, x) for x in m[pr]]
        for r in range(matrix.nrows):
            if r != pr and m[r][pc] != 0:
                c = m[r][pc]
                m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
    return Matrix.from_rows(f, m, matrix.ncols), tuple(pivots)


def reference_matvec(matrix: Matrix, v) -> tuple:
    if len(v) != matrix.ncols:
        raise ValueError("vector length does not match column count")
    f = matrix.field
    return tuple(_reference_dot(f, r, v) for r in matrix.entries)


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field or a.ncols != b.nrows:
        raise ValueError("incompatible shapes for product")
    f = a.field
    ot = b.transpose().entries
    rows = []
    for r in a.entries:
        rows.append(tuple(
            _reference_dot(f, r, c) for c in ot))
    return Matrix(f, a.nrows, b.ncols, tuple(rows))


def reference_from_vectors(field: Field, ambient_dim: int, vectors) -> Subspace:
    """Subspace.from_vectors through reference_rref."""
    red, pivots = reference_rref(Matrix.from_rows(field, vectors, ambient_dim))
    return Subspace(ambient_dim,
                    Matrix(field, len(pivots), ambient_dim, red.entries[:len(pivots)]))


def reference_coordinates_of(sub: Subspace, v):
    """Coefficients of v over the basis rows; None when v is outside."""
    f = sub.field
    rest = list(v)
    coeffs = []
    for r in range(sub.dim):
        c = rest[next(j for j, x in enumerate(sub.basis.row(r)) if x != 0)]
        coeffs.append(c)
        if c != 0:
            rest = [f.sub(x, f.mul(c, y)) for x, y in zip(rest, sub.basis.row(r))]
    if not vec_is_zero(rest):
        return None
    return tuple(coeffs)


def reference_complement_in(sub: Subspace, within=None) -> Subspace:
    """Greedy pivot extension: walk the enclosing space's RREF basis and
    keep each vector that enlarges the span."""
    f = sub.field
    amb = Subspace.full(f, sub.ambient_dim) if within is None else within
    if any(reference_coordinates_of(amb, r) is None for r in sub.basis_rows()):
        raise PreconditionError("complement: subspace is not contained in the enclosing space")
    current = sub
    added = []
    for row in amb.basis_rows():
        if reference_coordinates_of(current, row) is None:
            added.append(row)
            current = reference_from_vectors(f, sub.ambient_dim,
                                             current.basis_rows() + [row])
    return reference_from_vectors(f, sub.ambient_dim, added)


# ---------------------------------------------------------------------------
# sparse structure-constant kernels through the field methods

def field_ops_eval(table, x, y) -> tuple:
    """Bilinear extension to whole source-coordinate vectors."""
    f = table.field
    add, mul = f.add, f.mul
    rows = table.rows
    out = [f.zero] * table.target.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, (s, cell) in rows[i].items():
            yj = y[j]
            if not yj:
                continue
            c = mul(mul(xi, yj), s)
            for k, v in cell.items():
                out[k] = add(out[k], mul(c, v))
    return tuple(out)


def field_ops_check_hom_jacobi(g) -> ValidationReport:
    """Twisted Jacobi identity on all ordered basis triples i <= j <= k,
    over the nonzero cells of the row index and sparse twist columns."""
    f = g.field
    add, mul = f.add, f.mul
    d = g.dim
    rows = g.table.rows
    par = [g.space.parity(t) for t in range(d)]
    theta_col = [_sparse_vec(g.twist.col(a)) for a in range(d)]
    fails = []
    for i in range(d):
        for j in range(i, d):
            ij = rows[i].get(j)
            for k in range(j, d):
                jk = rows[j].get(k)
                ki = rows[k].get(i)
                if ij is None and jk is None and ki is None:
                    continue
                total = {}
                for a, inner, sgn in ((i, jk, koszul_sign(f, par[i], par[k])),
                                      (k, ij, koszul_sign(f, par[k], par[j])),
                                      (j, ki, koszul_sign(f, par[j], par[i]))):
                    if inner is None:
                        continue
                    s_in, cell_in = inner
                    s_in = mul(sgn, s_in)
                    for m, v in cell_in.items():
                        sv = mul(s_in, v)
                        for l, t in theta_col[a]:
                            outer = rows[l].get(m)
                            if outer is None:
                                continue
                            s_out, cell_out = outer
                            c = mul(mul(t, sv), s_out)
                            for n, u in cell_out.items():
                                total[n] = add(total.get(n, f.zero), mul(c, u))
                if any(total.values()):
                    fails.append(Failure("hom-jacobi", (i, j, k),
                                         _dense_vec(f, d, total), zero_vec(f, d)))
    return ValidationReport(tuple(fails))


def field_ops_validate_factor_set(fs) -> ValidationReport:
    """Parity, graded skew-symmetry and the cocycle identity, expanded over
    the nonzero cells of the row indexes and sparse twist columns."""
    f = fs.field
    add, mul = f.add, f.mul
    q = fs.quotient
    dq, dz = q.dim, fs.center_space.dim
    qrows, rrows = q.table.rows, fs.table.rows
    fails = list(fs.table.parity_failures("factor-parity")
                 + fs.table.skew_failures("factor-skew"))
    tw = [_sparse_vec(q.twist.col(i)) for i in range(dq)]

    def expand(acc, c, bracket, twisted, bracket_left):
        """acc += c * r(bracket, T(b_twisted)), or c * r(T(b_twisted), bracket)
        when bracket_left is false."""
        s_in, cell_in = bracket
        for m, v in cell_in.items():
            cv = mul(mul(c, s_in), v)
            for l, t in tw[twisted]:
                hit = rrows[m].get(l) if bracket_left else rrows[l].get(m)
                if hit is None:
                    continue
                s_r, cell_r = hit
                coef = mul(mul(cv, t), s_r)
                for n, u in cell_r.items():
                    acc[n] = add(acc.get(n, f.zero), mul(coef, u))

    one = f.one
    for i in range(dq):
        for j in range(dq):
            ij = qrows[i].get(j)
            sgn = koszul_sign(f, q.space.parity(i), q.space.parity(j))
            for k in range(dq):
                jk, ik = qrows[j].get(k), qrows[i].get(k)
                if ij is None and jk is None and ik is None:
                    continue
                lhs, rhs = {}, {}
                if ij is not None:
                    expand(lhs, one, ij, k, True)
                if jk is not None:
                    expand(rhs, one, jk, i, False)
                if ik is not None:
                    expand(rhs, f.neg(sgn), ik, j, False)
                if any(lhs.get(n, f.zero) != rhs.get(n, f.zero) for n in {**lhs, **rhs}):
                    fails.append(Failure("factor-cocycle", (i, j, k),
                                         _dense_vec(f, dz, lhs), _dense_vec(f, dz, rhs)))
    return ValidationReport(tuple(fails))
