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

from .core import (ODD, EvenLinearMap, Failure, GradedBilinearTable, GradedSubspace,
                   HomLieSuperalgebra, SuperSpace, ValidationReport, _check_even_matrix,
                   _int_forms, _once, _packed_rows, _preservation_failures, _quotient,
                   _sum_layout, _twisted_adjoint, center, check_multiplicative,
                   check_regular, is_isomorphism, subalgebra_on)
from .errors import HomSuperError, PreconditionError
from .linalg import Field, Matrix, Subspace, _Slots, vec_sub


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


@_once
def validate_factor_set(fs: FactorSet) -> ValidationReport:
    """Parity of every coefficient, graded skew-symmetry (derived entries
    included), and the twist-compatible cocycle identity
    r([n1, n2], T(n3)) = r(T(n1), [n2, n3]) - (-1)^{|n1||n2|} r(T(n2), [n1, n3])
    on all ordered basis triples, by bilinear expansion.

    Both sides vanish on a triple whose brackets [n_i, n_j], [n_j, n_k]
    and [n_i, n_k] all vanish, so only the other triples are expanded, and
    none when the quotient has no brackets or r no coefficients.  The
    sides are summed over ints (see `_Slots`): quotient brackets scaled by
    L, coefficients by R and the twist by M, which scales every term by
    L R M; r(b_m, T b_k) and r(T b_k, b_m) are one packed int each.  The
    slots hold 3 x (largest bracket cell sum) x (largest twist column sum)
    x (largest coefficient) of the scaled ints.

    With D(i, j, k) = lhs - rhs, D(j, i, k) = -(-1)^{|i||j|} D(i, j, k)
    whenever the quotient's brackets are graded skew-symmetric as stored,
    that is, without injected i > j cells.  Then only the triples with
    i <= j are summed, unless one fails: the failures are listed from the
    walk over all ordered triples.  The report is memoised on the factor
    set."""
    f = fs.field
    q = fs.quotient
    dq, dz = q.dim, fs.center_space.dim
    fails = list(fs.table.parity_failures("factor-parity")
                 + fs.table.skew_failures("factor-skew"))
    if not q.table.cells or not fs.table.cells:
        return ValidationReport(tuple(fails))
    (scale_q, qrows, _, _, qsum), (scale_r, rrows, rcells, rentry, _), \
        (scale_t, twist_cols, twist_bound, _) = _int_forms(q.table, fs.table, q.twist)
    slots = _Slots(f, dz, 3 * qsum * twist_bound * rentry, scale_q * scale_r * scale_t)
    packed = _packed_rows(rrows, rcells, slots)
    transposed = [{} for _ in range(dq)]
    for m, row in enumerate(packed):
        for l, x in row.items():
            transposed[l][m] = x
    left = _twisted_adjoint(transposed, twist_cols)   # r(b_m, T b_k)
    right = _twisted_adjoint(packed, twist_cols)      # r(T b_k, b_m)
    odd = [q.space.parity(i) == ODD for i in range(dq)]

    def expand(entry, table):
        """sum_m [n, n'][m] * table[m] for the row entry (sign, cell) of the
        bracket [n, n'], 0 for a vanishing bracket."""
        if entry is None:
            return 0
        sgn, cell = entry
        total = 0
        for m, v in cell.items():
            total += v * table[m]
        return total if sgn > 0 else -total

    def walk(ordered):
        out = []
        for i in range(dq):
            for j in range(dq) if ordered else range(i, dq):
                ij = qrows[i].get(j)
                eps = -1 if odd[i] and odd[j] else 1
                for k in range(dq):
                    jk, ik = qrows[j].get(k), qrows[i].get(k)
                    if ij is None and jk is None and ik is None:
                        continue
                    lhs = expand(ij, left[k])
                    rhs = expand(jk, right[i]) - eps * expand(ik, right[j])
                    if not slots.is_zero(lhs - rhs):
                        out.append(Failure("factor-cocycle", (i, j, k),
                                           slots.unpack(lhs), slots.unpack(rhs)))
        return out

    ordered = any(i > j for i, j in q.table.cells)
    cocycle = walk(ordered)
    if cocycle and not ordered:
        cocycle = walk(True)
    return ValidationReport(tuple(fails + cocycle))


def check_multiplicative_factor_set(fs: FactorSet) -> bool:
    """r(T(n1), T(n2)) = twist_Z(r(n1, n2)) on the basis pairs i <= j, T the
    twist of the quotient.  That walk suffices for any factor set that
    passes `validate_factor_set`: r is then graded skew-symmetric, derived
    entries included, and T is even, so both sides on (j, i) are those on
    (i, j) times -(-1)^{|i||j|}."""
    return not _preservation_failures("factor-multiplicative", fs.table, fs.table,
                                      fs.quotient.twist, fs.center_twist)


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
    """Build the central extension of a valid factor set r: the direct sum
    Z (+) Q of the center space and the quotient, laid out by
    `core._sum_layout` with Z unnamed, plus the cocycle, so that
    [(z1, n1), (z2, n2)] = (r(n1, n2), [n1, n2]); the twist is blockwise."""
    rep = validate_factor_set(fs)
    if not rep.passed:
        raise PreconditionError(
            f"invalid factor set: {rep.failures[0].axiom} at {rep.failures[0].indices}")
    f = fs.field
    q = fs.quotient
    space, center_idx, quotient_idx = _sum_layout(SuperSpace(*fs.center_space.dims), q.space)
    brackets = {}
    for i in range(q.dim):
        for j in range(i, q.dim):
            cell = {center_idx[k]: v for k, v in fs.table.cell(i, j).items()}
            cell.update((quotient_idx[k], v) for k, v in q.table.cell(i, j).items())
            brackets[(quotient_idx[i], quotient_idx[j])] = cell
    d = space.dim
    twist = Matrix.from_blocks(f, d, d, [(center_idx, center_idx, fs.center_twist),
                                         (quotient_idx, quotient_idx, q.twist)])
    return Extension(HomLieSuperalgebra(space, brackets, twist), center_idx, quotient_idx, fs)


# ---------------------------------------------------------------------------
# factor set from a complement of the center

@dataclass(frozen=True)
class ComplementSplitting:
    """A graded complement W of the center, G = W (+) Z(G), with the
    section sending quotient coordinates to representatives in W."""

    complement: GradedSubspace
    section: EvenLinearMap


def factor_set_from_complement(g: HomLieSuperalgebra):
    """Read a factor set off the greedy graded complement of the center.

    With Psi the section through the complement that `core._quotient`
    chooses, the factor set is r(m, n) = [Psi(m), Psi(n)] - Psi([m, n]);
    every value is checked to lie in the center.  The complement is the
    span of the section's columns, unit vectors in increasing order, so
    they are its RREF basis.  Any section gives a cohomologous factor set.
    Returns (factor set, splitting, iso) where iso maps the rebuilt
    extension back onto g.
    """
    if not check_multiplicative(g).passed:
        raise PreconditionError("algebra is not multiplicative")
    if not check_regular(g):
        raise PreconditionError("algebra is not regular")
    f = g.field
    z = center(g)
    # theta(Z) lies in Z: [theta(z), y] = theta([z, theta^-1(y)]) = 0, so
    # `_quotient` cannot fail its Hom-ideal check
    qalg, _, sect = _quotient(g, z)
    w = GradedSubspace.from_subspace(g.space, Subspace(g.dim, sect.matrix.transpose()))
    reps = w.full_basis_vectors()
    for v in reps:
        tv = g.theta(v)
        if not w.contains_vector(tv):
            raise PreconditionError(
                "twist does not preserve the complement; witness vector "
                + str([f.fmt(x) for x in tv]))
    zalg, zincl = subalgebra_on(g, z)
    coeffs = {}
    for a in range(qalg.dim):
        for b in range(a, qalg.dim):
            val = vec_sub(f, g.bracket(reps[a], reps[b]),
                          sect(qalg.basis_bracket(a, b)))
            coords = z.coordinates_of(val)
            if coords is None:
                raise HomSuperError("factor set value escaped the center")
            coeffs[(a, b)] = dict(enumerate(coords))
    fs = FactorSet(qalg, zalg.space, zalg.twist, coeffs)
    ext = extend(fs)
    cols = [None] * ext.algebra.dim
    for k, idx in enumerate(ext.center_indices):
        cols[idx] = zincl.matrix.col(k)
    for a, idx in enumerate(ext.quotient_indices):
        cols[idx] = reps[a]
    iso = EvenLinearMap(ext.algebra.space, g.space, Matrix.from_columns(f, cols, g.dim))
    if not is_isomorphism(iso, ext.algebra, g):
        raise HomSuperError("extension did not rebuild the algebra")
    return fs, ComplementSplitting(w, sect), iso
