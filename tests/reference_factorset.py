"""Reference extension calculus over factor sets: transport along an
isoclinism witness, the blockwise map between two extensions, and the
isomorphism calculus between extensions over the same base data (reading
the induced automorphisms off an extension isomorphism, assembling one
from compatible automorphisms plus a center-valued shift, and recovering
that shift).

Kept as executable oracles for the paper's factor-set theorems; the
library itself only builds, validates and extends factor sets.
"""

from reference_kernel import vec_add

from homsuper.core import (EvenLinearMap, GradedSubspace, HomLieSuperalgebra,
                           SuperSpace, abelian, center, derived,
                           is_isomorphism, is_stem)
from homsuper.errors import HomSuperError, PreconditionError
from homsuper.factorset import Extension, FactorSet, extend, validate_factor_set
from homsuper.isoclinism import (IsoclinismWitness, central_quotient,
                                 derived_algebra, verify_isoclinism)
from homsuper.linalg import Matrix, Subspace, basis_vec


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
    coeffs = {(a, b): dict(enumerate(nu_z_inv.matvec(s.table.eval(images[a], images[b]))))
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
            lhs = center_map(vec_add(f, fs_src.table.value(i, j),
                                     shift(q.basis_bracket(i, j))))
            rhs = fs_dst.table.eval(quotient_map(basis_vec(f, q.dim, i)),
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
            lhs = center_map(vec_add(f, fs_src.table.value(i, j),
                                     shift(q.basis_bracket(i, j))))
            rhs = fs_dst.table.eval(quotient_map(basis_vec(f, q.dim, i)),
                                    quotient_map(basis_vec(f, q.dim, j)))
            if lhs != rhs:
                raise HomSuperError(
                    "identity cannot be satisfied; the map was not a valid extension isomorphism")
    return shift
