"""Factor sets and central extensions of regular Hom-Lie superalgebras.

A factor set is a graded skew-symmetric bilinear map from the central
quotient into the center satisfying a twist-compatible cocycle identity.
It is exactly the data needed to rebuild an algebra from its center and
central quotient: the extension carries the bracket
[(g1, n1), (g2, n2)] = (r(n1, n2), [n1, n2]) and the blockwise twist.

The module also implements the map calculus between two extensions over
the same base data: reading the induced automorphisms off an extension
isomorphism, building an extension isomorphism from compatible
automorphisms plus a center-valued shift, and transporting a factor set
along an isoclinism witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .core import (EvenLinearMap, Failure, GradedBilinearTable, GradedSubspace,
                   HomLieSuperalgebra, SuperSpace, ValidationReport, abelian,
                   center, check_multiplicative, check_regular, derived,
                   is_isomorphism, is_stem, koszul_sign, quotient)
from .errors import HomSuperError, PreconditionError
from .isoclinism import (IsoclinismWitness, central_quotient, derived_algebra,
                         verify_isoclinism)
from .linalg import (Field, Matrix, Subspace, basis_vec, vec_add, vec_scale,
                     vec_sub)


@dataclass(frozen=True)
class FactorSet:
    """Coefficient table of a bilinear map quotient x quotient -> center.

    coeffs maps quotient index pairs (i, j) to {k: scalar} over the center
    basis; it is the cells dict of `table`, stored and derived like the
    structure constants of an algebra.
    """

    quotient: HomLieSuperalgebra
    center_space: SuperSpace
    center_twist: Matrix
    coeffs: dict
    table: GradedBilinearTable = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.center_twist.nrows, self.center_twist.ncols) \
                != (self.center_space.dim, self.center_space.dim):
            raise ValueError("center twist shape does not match the center space")
        table = GradedBilinearTable(self.field, self.quotient.space,
                                    self.center_space, self.coeffs)
        object.__setattr__(self, "coeffs", table.cells)
        object.__setattr__(self, "table", table)

    @property
    def field(self) -> Field:
        return self.quotient.field

    def value(self, i: int, j: int) -> tuple:
        """r(q_i, q_j) as a center-coordinate vector."""
        return self.table.value(i, j)

    def eval(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear extension to arbitrary quotient-coordinate vectors."""
        return self.table.eval(u, v)


def validate_factor_set(fs: FactorSet) -> ValidationReport:
    """Parity of every coefficient, graded skew-symmetry (derived entries
    included), and the twist-compatible cocycle identity
    r([n1, n2], T(n3)) = r(T(n1), [n2, n3]) - (-1)^{|n1||n2|} r(T(n2), [n1, n3])
    on all ordered basis triples, by bilinear expansion."""
    f = fs.field
    q = fs.quotient
    dq = q.dim
    fails = list(fs.table.parity_failures("factor-parity")
                 + fs.table.skew_failures("factor-skew"))
    tw = [q.twist.col(i) for i in range(dq)]
    e = [basis_vec(f, dq, i) for i in range(dq)]
    for i in range(dq):
        for j in range(dq):
            sgn = koszul_sign(f, q.space.parity(i), q.space.parity(j))
            for k in range(dq):
                lhs = fs.eval(q.basis_bracket(i, j), tw[k])
                rhs = vec_sub(f,
                              fs.eval(tw[i], q.bracket(e[j], e[k])),
                              vec_scale(f, sgn, fs.eval(tw[j], q.bracket(e[i], e[k]))))
                if lhs != rhs:
                    fails.append(Failure("factor-cocycle", (i, j, k), lhs, rhs))
    return ValidationReport(tuple(fails))


def check_multiplicative_factor_set(fs: FactorSet) -> bool:
    """r(T(n1), T(n2)) = twist_Z(r(n1, n2)) on all basis pairs."""
    q = fs.quotient
    for i in range(q.dim):
        for j in range(q.dim):
            lhs = fs.eval(q.twist.col(i), q.twist.col(j))
            rhs = fs.center_twist.matvec(fs.value(i, j))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# extension

@dataclass(frozen=True)
class Extension:
    """The algebra built on center (+) quotient coordinates.

    Coordinates are ordered center-even, quotient-even, center-odd,
    quotient-odd so that the result keeps the even-block-first
    convention; center_indices / quotient_indices record where each
    block landed.  embedding, when set, is the isomorphism onto the
    algebra the factor set was read from.
    """

    algebra: HomLieSuperalgebra
    center_indices: tuple
    quotient_indices: tuple
    factor_set: FactorSet
    embedding: Optional[EvenLinearMap] = None


def extend(fs: FactorSet) -> Extension:
    """Build the central extension determined by a valid factor set."""
    rep = validate_factor_set(fs)
    if not rep.passed:
        raise PreconditionError(
            f"invalid factor set: {rep.failures[0].axiom} at {rep.failures[0].indices}")
    f = fs.field
    pz, qz = fs.center_space.dims
    pq, qq = fs.quotient.space.dims
    center_idx = tuple(range(pz)) + tuple(range(pz + pq, pz + pq + qz))
    quotient_idx = tuple(range(pz, pz + pq)) \
        + tuple(range(pz + pq + qz, pz + pq + qz + qq))
    d = pz + pq + qz + qq
    space = SuperSpace(pz + pq, qz + qq)
    brackets = {}
    for i in range(fs.quotient.dim):
        for j in range(i, fs.quotient.dim):
            cell = {center_idx[k]: v for k, v in fs.table.cell(i, j).items()}
            cell.update((quotient_idx[k], v)
                        for k, v in fs.quotient.table.cell(i, j).items())
            brackets[(quotient_idx[i], quotient_idx[j])] = cell
    twist = Matrix.from_blocks(f, d, d, [(center_idx, center_idx, fs.center_twist),
                                         (quotient_idx, quotient_idx, fs.quotient.twist)])
    return Extension(HomLieSuperalgebra(space, brackets, twist), center_idx, quotient_idx, fs)


# ---------------------------------------------------------------------------
# factor set from a complement of the center

@dataclass(frozen=True)
class ComplementSplitting:
    """A graded complement W of the center, G = W (+) Z(G), with the
    section sending quotient coordinates to representatives in W and the
    projection extracting center coordinates along W."""

    complement: GradedSubspace
    section: EvenLinearMap
    projection_to_center: EvenLinearMap


def factor_set_from_complement(g: HomLieSuperalgebra,
                               w: Optional[GradedSubspace] = None):
    """Read a factor set off a complement of the center.

    With Psi the section through the complement, the factor set is
    r(m, n) = [Psi(m), Psi(n)] - Psi([m, n]); every value is checked to
    lie in the center.  Returns (factor set, splitting, iso) where iso
    maps the rebuilt extension back onto g.
    """
    if not check_multiplicative(g).passed:
        raise PreconditionError("algebra is not multiplicative")
    if not check_regular(g):
        raise PreconditionError("algebra is not regular")
    f = g.field
    z = center(g)
    if w is None:
        w = z.complement_in()
    else:
        if w.ambient_dims != g.space.dims or z.intersect(w).dim != 0 \
                or z.dim + w.dim != g.dim:
            raise PreconditionError("supplied subspace is not a complement of the center")
    wfull = w.to_subspace()
    for v in w.full_basis_vectors():
        tv = g.theta(v)
        if not wfull.contains_vector(tv):
            raise PreconditionError(
                "twist does not preserve the complement; witness vector "
                + str([f.fmt(x) for x in tv]))
    qalg, proj = quotient(g, z, reps=w)
    reps = w.full_basis_vectors()
    sect = EvenLinearMap(qalg.space, g.space, Matrix.from_columns(f, reps, g.dim))
    zvecs = z.full_basis_vectors()
    basis = Matrix.from_columns(f, zvecs + reps, g.dim)
    proj_z_matrix = basis.inverse().submatrix(range(z.dim), range(g.dim))
    center_sp = SuperSpace(z.even.dim, z.odd.dim)
    proj_z = EvenLinearMap(g.space, center_sp, proj_z_matrix)
    zfull = z.to_subspace()
    tw_cols = []
    for zv in zvecs:
        tzv = g.theta(zv)
        if not zfull.contains_vector(tzv):
            raise PreconditionError("twist does not preserve the center")
        tw_cols.append(zfull.coordinates_of(tzv))
    center_twist = Matrix.from_columns(f, tw_cols, z.dim)
    coeffs = {}
    for a in range(qalg.dim):
        for b in range(a, qalg.dim):
            val = vec_sub(f, g.bracket(reps[a], reps[b]),
                          sect(qalg.basis_bracket(a, b)))
            coords = zfull.coordinates_of(val)
            if coords is None:
                raise HomSuperError("factor set value escaped the center")
            coeffs[(a, b)] = dict(enumerate(coords))
    fs = FactorSet(qalg, center_sp, center_twist, coeffs)
    ext = extend(fs)
    cols = [None] * ext.algebra.dim
    for k, idx in enumerate(ext.center_indices):
        cols[idx] = zvecs[k]
    for a, idx in enumerate(ext.quotient_indices):
        cols[idx] = reps[a]
    iso = EvenLinearMap(ext.algebra.space, g.space, Matrix.from_columns(f, cols, g.dim))
    if not is_isomorphism(iso, ext.algebra, g):
        raise HomSuperError("extension did not rebuild the algebra")
    return fs, ComplementSplitting(w, sect, proj_z), iso


# ---------------------------------------------------------------------------
# transport along an isoclinism

def transport_factor_set(s: FactorSet, witness: IsoclinismWitness,
                         g1: HomLieSuperalgebra,
                         g2: HomLieSuperalgebra) -> FactorSet:
    """Pull a factor set over g2's data back to g1's along an isoclinism.

    Both algebras must be stem (center inside derived subalgebra) so the
    derived-subalgebra map restricts to an invertible map of centers;
    the transported coefficients are its inverse applied to s evaluated
    on quotient-map images.  The result is validated and the blockwise
    map between the two extensions is checked to be an isomorphism.
    """
    for g, label in ((g1, "first algebra"), (g2, "second algebra")):
        if not is_stem(g):
            raise PreconditionError(f"{label} is not stem")
    rep = verify_isoclinism(g1, g2, witness)
    if not rep.passed:
        raise PreconditionError(
            f"witness fails verification: {rep.failures[0].axiom} at {rep.failures[0].indices}")
    f = g1.field
    q1alg, _, _ = central_quotient(g1)
    q2alg, _, _ = central_quotient(g2)
    if s.quotient != q2alg or s.center_space.dims != center(g2).dims:
        raise PreconditionError("factor set is not over the target algebra's data")
    nu_z = _center_restriction(witness, g1, g2)
    if not nu_z.is_invertible():
        raise PreconditionError("derived-subalgebra map is not invertible on the centers")
    nu_z_inv = nu_z.inverse()
    dq = q1alg.dim
    images = [witness.quotient_map(basis_vec(f, dq, a)) for a in range(dq)]
    coeffs = {(a, b): dict(enumerate(nu_z_inv.matvec(s.eval(images[a], images[b]))))
              for a in range(dq) for b in range(a, dq)}
    z1 = center(g1)
    z1full = z1.to_subspace()
    tw_cols = [z1full.coordinates_of(g1.theta(zv)) for zv in z1.full_basis_vectors()]
    center_twist = Matrix.from_columns(f, tw_cols, z1.dim)
    fs = FactorSet(q1alg, SuperSpace(z1.even.dim, z1.odd.dim), center_twist, coeffs)
    vrep = validate_factor_set(fs)
    if not vrep.passed:
        raise HomSuperError("transported factor set failed validation")
    beta = extension_map_from_witness(witness, fs, s, g1, g2)
    if not is_isomorphism(beta, extend(fs).algebra, extend(s).algebra):
        raise HomSuperError("transport did not produce isomorphic extensions")
    return fs


def _center_restriction(witness: IsoclinismWitness, g1, g2) -> Matrix:
    """The derived-subalgebra map restricted to centers, in center bases."""
    d1full = derived(g1).to_subspace()
    _, incl2 = derived_algebra(g2)
    z2full = center(g2).to_subspace()
    cols = []
    for zv in center(g1).full_basis_vectors():
        coords = d1full.coordinates_of(zv)
        if coords is None:
            raise PreconditionError("center is not inside the derived subalgebra")
        img = incl2(witness.derived_map(coords))
        coords2 = z2full.coordinates_of(img)
        if coords2 is None:
            raise PreconditionError("derived-subalgebra map does not preserve the centers")
        cols.append(coords2)
    return Matrix.from_columns(g1.field, cols, z2full.dim)


def extension_map_from_witness(witness: IsoclinismWitness, fs_src: FactorSet,
                               fs_dst: FactorSet, g1: HomLieSuperalgebra,
                               g2: HomLieSuperalgebra) -> EvenLinearMap:
    """Blockwise map between two extensions: the center restriction of the
    derived map on center coordinates, the quotient map on the rest."""
    src = extend(fs_src)
    dst = extend(fs_dst)
    f = fs_src.field
    nu_z = _center_restriction(witness, g1, g2)
    m = Matrix.from_blocks(f, dst.algebra.dim, src.algebra.dim, [
        (dst.center_indices, src.center_indices, nu_z),
        (dst.quotient_indices, src.quotient_indices, witness.quotient_map.matrix)])
    return EvenLinearMap(src.algebra.space, dst.algebra.space, m)


# ---------------------------------------------------------------------------
# map calculus between two extensions over the same data

def extract_automorphisms(iso: EvenLinearMap, ext_src: Extension,
                          ext_dst: Extension):
    """Read the induced quotient and center automorphisms off an extension
    isomorphism mapping the center block onto the center block.

    Returns (quotient_map, center_map), both verified against the
    quotient algebra and the abelian center algebra respectively.
    """
    f = iso.field
    # center block must be hit exactly: center columns stay in the center
    # block and the induced square block is invertible.
    for k in ext_src.center_indices:
        for rix in ext_dst.quotient_indices:
            if iso.matrix[rix, k] != 0:
                raise PreconditionError(
                    "isomorphism does not map the center block onto the center block")
    zblock = iso.matrix.submatrix(ext_dst.center_indices, ext_src.center_indices)
    if not zblock.is_invertible():
        raise PreconditionError(
            "isomorphism does not map the center block onto the center block")
    if not is_isomorphism(iso, ext_src.algebra, ext_dst.algebra):
        raise PreconditionError("map is not an isomorphism of the extensions")
    qblock = iso.matrix.submatrix(ext_dst.quotient_indices, ext_src.quotient_indices)
    quotient_map = EvenLinearMap(ext_src.factor_set.quotient.space,
                                 ext_dst.factor_set.quotient.space, qblock)
    center_map = EvenLinearMap(ext_src.factor_set.center_space,
                               ext_dst.factor_set.center_space, zblock)
    zsrc = abelian(f, *ext_src.factor_set.center_space.dims,
                   twist=ext_src.factor_set.center_twist)
    zdst = abelian(f, *ext_dst.factor_set.center_space.dims,
                   twist=ext_dst.factor_set.center_twist)
    if not is_isomorphism(quotient_map, ext_src.factor_set.quotient,
                          ext_dst.factor_set.quotient):
        raise HomSuperError("induced quotient map is not an isomorphism")
    if not is_isomorphism(center_map, zsrc, zdst):
        raise HomSuperError("induced center map is not an isomorphism")
    return quotient_map, center_map


def build_extension_isomorphism(quotient_map: EvenLinearMap,
                                center_map: EvenLinearMap,
                                shift: EvenLinearMap,
                                fs_src: FactorSet,
                                fs_dst: FactorSet) -> EvenLinearMap:
    """Assemble (g, n) -> (center_map(g) + shift(n), quotient_map(n)).

    Requires the compatibility identity
    center_map(r(n1, n2) + shift([n1, n2])) = s(quotient_map(n1), quotient_map(n2))
    on all basis pairs and shift to intertwine the twists; both are
    checked and rejected with a witness.  The assembled map is verified
    to be an isomorphism of the two extensions before being returned.
    """
    f = fs_src.field
    q = fs_src.quotient
    for i in range(q.dim):
        for j in range(q.dim):
            lhs = center_map(vec_add(f, fs_src.value(i, j),
                                     shift(q.basis_bracket(i, j))))
            rhs = fs_dst.eval(quotient_map(basis_vec(f, q.dim, i)),
                              quotient_map(basis_vec(f, q.dim, j)))
            if lhs != rhs:
                raise PreconditionError(
                    f"compatibility identity fails at pair ({i}, {j}): "
                    f"{[f.fmt(x) for x in lhs]} != {[f.fmt(x) for x in rhs]}")
    left = shift.matrix @ q.twist
    right = fs_src.center_twist @ shift.matrix
    if left != right:
        raise PreconditionError("shift does not intertwine the twists")
    src = extend(fs_src)
    dst = extend(fs_dst)
    m = Matrix.from_blocks(f, dst.algebra.dim, src.algebra.dim, [
        (dst.center_indices, src.center_indices, center_map.matrix),
        (dst.center_indices, src.quotient_indices, shift.matrix),
        (dst.quotient_indices, src.quotient_indices, quotient_map.matrix)])
    iso = EvenLinearMap(src.algebra.space, dst.algebra.space, m)
    if not is_isomorphism(iso, src.algebra, dst.algebra):
        raise HomSuperError("assembled map is not an extension isomorphism")
    return iso


def extract_center_shift(iso: EvenLinearMap, quotient_map: EvenLinearMap,
                         center_map: EvenLinearMap, fs_src: FactorSet,
                         fs_dst: FactorSet) -> EvenLinearMap:
    """Recover the center-valued shift from an extension isomorphism.

    The raw shift is the center block of iso on quotient coordinates; it
    is then restricted to the span of quotient brackets and extended by
    zero on the deterministic graded complement, which keeps the result
    canonical.  The compatibility identity is re-verified before
    returning; failure signals that iso was not a valid extension
    isomorphism inducing the supplied pair of automorphisms.
    """
    src = extend(fs_src)
    dst = extend(fs_dst)
    qm, zm = extract_automorphisms(iso, src, dst)
    if qm.matrix != quotient_map.matrix or zm.matrix != center_map.matrix:
        raise PreconditionError("isomorphism does not induce the supplied automorphisms")
    f = fs_src.field
    raw = iso.matrix.submatrix(dst.center_indices, src.quotient_indices)
    q = fs_src.quotient
    bracket_vecs = [q.basis_bracket(i, j)
                    for i in range(q.dim) for j in range(i, q.dim)]
    dspan = GradedSubspace.from_subspace(
        q.space, Subspace.from_vectors(f, q.dim, bracket_vecs))
    comp = dspan.complement_in()
    basis = Matrix.from_columns(f, dspan.full_basis_vectors() + comp.full_basis_vectors(),
                                q.dim)
    coords = basis.inverse()
    span_embed = Matrix.from_columns(f, dspan.full_basis_vectors(), q.dim)
    onto_span = span_embed @ coords.submatrix(range(dspan.dim), range(q.dim))
    shift = EvenLinearMap(q.space, fs_src.center_space, raw @ onto_span)
    for i in range(q.dim):
        for j in range(q.dim):
            lhs = center_map(vec_add(f, fs_src.value(i, j),
                                     shift(q.basis_bracket(i, j))))
            rhs = fs_dst.eval(quotient_map(basis_vec(f, q.dim, i)),
                              quotient_map(basis_vec(f, q.dim, j)))
            if lhs != rhs:
                raise HomSuperError(
                    "identity cannot be satisfied; the map was not a valid extension isomorphism")
    return shift
