"""Factor sets and central extensions of regular Hom-Lie superalgebras.

A factor set is a graded skew-symmetric bilinear map from the central
quotient into the center satisfying a twist-compatible cocycle identity.
It is exactly the data needed to rebuild an algebra from its center and
central quotient: the extension carries the bracket
[(g1, n1), (g2, n2)] = (r(n1, n2), [n1, n2]) and the blockwise twist.

The module validates factor sets, builds their central extensions, and
reads the factor set off a complement of the center of an algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .core import (EvenLinearMap, Failure, GradedBilinearTable, GradedSubspace,
                   HomLieSuperalgebra, SuperSpace, ValidationReport,
                   _check_even_matrix, center, check_multiplicative,
                   check_regular, is_isomorphism, koszul_sign, quotient)
from .errors import HomSuperError, PreconditionError
from .linalg import Field, Matrix, _dense_vec, _sparse_vec, vec_sub


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
        _check_even_matrix(self.center_space, self.center_space, self.center_twist)
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
    on all ordered basis triples, by bilinear expansion.

    Both sides vanish on a triple whose brackets [n_i, n_j], [n_j, n_k]
    and [n_i, n_k] all vanish, so only the other triples are expanded,
    over the nonzero cells of the row indexes and sparse twist columns."""
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
    block landed.
    """

    algebra: HomLieSuperalgebra
    center_indices: tuple
    quotient_indices: tuple
    factor_set: FactorSet


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
    section sending quotient coordinates to representatives in W."""

    complement: GradedSubspace
    section: EvenLinearMap


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
    for v in w.full_basis_vectors():
        tv = g.theta(v)
        if not w.contains_vector(tv):
            raise PreconditionError(
                "twist does not preserve the complement; witness vector "
                + str([f.fmt(x) for x in tv]))
    qalg, proj = quotient(g, z, reps=w)
    reps = w.full_basis_vectors()
    sect = EvenLinearMap(qalg.space, g.space, Matrix.from_columns(f, reps, g.dim))
    zvecs = z.full_basis_vectors()
    center_sp = SuperSpace(z.even.dim, z.odd.dim)
    tw_cols = []
    for zv in zvecs:
        coords = z.coordinates_of(g.theta(zv))
        if coords is None:
            raise PreconditionError("twist does not preserve the center")
        tw_cols.append(coords)
    center_twist = Matrix.from_columns(f, tw_cols, z.dim)
    coeffs = {}
    for a in range(qalg.dim):
        for b in range(a, qalg.dim):
            val = vec_sub(f, g.bracket(reps[a], reps[b]),
                          sect(qalg.basis_bracket(a, b)))
            coords = z.coordinates_of(val)
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
    return fs, ComplementSplitting(w, sect), iso
