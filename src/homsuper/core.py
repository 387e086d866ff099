"""Hom-Lie superalgebras given by structure constants.

A Hom-Lie superalgebra is a Z2-graded space with a graded skew-symmetric
bracket and an even linear twist map satisfying the twisted (Hom-)Jacobi
identity.  This module holds the data model, the axiom validators, the
structural invariants (center, derived subalgebra, stem property), and
the quotient / direct-sum / homomorphism constructions.  One function,
`_quotient`, builds every quotient over the greedy graded complement of
the subspace: `quotient` by a Hom-ideal, and the quotient by the center
that `isoclinism.central_quotient` memoises and
`factorset.factor_set_from_complement` reads its section off.

Conventions used throughout the package:
  * basis indices 0..p-1 are even, p..p+q-1 are odd;
  * structure constants and factor-set coefficients are both sparse graded
    skew-symmetric bilinear tables, and GradedBilinearTable is the one
    owner of their storage convention: cells for index pairs i <= j only,
    zeros dropped, the remaining values recovered through graded
    skew-symmetry (validators tolerate and flag explicitly injected
    i > j entries);
  * all values are immutable and all operations are pure.  The
    invariants of an algebra (center, derived subalgebra, the
    multiplicativity and regularity checks and, in isoclinism, the
    central quotient, derived algebra and fingerprint) are memoised on the
    algebra object on first use, and the validation report of a factor set
    (`factorset.validate_factor_set`) on the factor set, so neither may be
    mutated after construction: a memo would keep answering for the old
    structure constants or coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, wraps
from math import lcm
from typing import Optional, Sequence

from .errors import PreconditionError
from .linalg import (Field, Matrix, Subspace, _Slots, _accumulate, _dense_vec,
                     _eliminate, _reduced_vec, basis_vec, vec_is_zero, vec_scale, zero_vec)

EVEN, ODD = 0, 1


def _once(fn):
    """Memoise the invariant fn(g) in the instance dict of g, an algebra or
    a factor set, keyed by the public function, as cached_property caches
    GradedBilinearTable.rows: a memo lives and dies with its object, and
    equality and repr, which read the dataclass fields only, ignore it."""
    @wraps(fn)
    def once(g):
        memo = g.__dict__
        if once in memo:
            return memo[once]
        value = memo[once] = fn(g)
        return value
    return once


def koszul_sign(field: Field, pa: int, pb: int):
    """(-1)^{pa * pb} as a field scalar."""
    return field.neg(field.one) if pa == ODD and pb == ODD else field.one


@dataclass(frozen=True)
class SuperSpace:
    """A Z2-graded coordinate space of graded dimension (even_dim | odd_dim)."""

    even_dim: int
    odd_dim: int
    basis_names: Optional[tuple] = None

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise ValueError("negative dimension")
        if self.basis_names is not None:
            names = tuple(self.basis_names)
            if len(names) != self.dim:
                raise ValueError("basis_names length does not match dimension")
            object.__setattr__(self, "basis_names", names)

    @property
    def dim(self) -> int:
        return self.even_dim + self.odd_dim

    @property
    def dims(self) -> tuple:
        return (self.even_dim, self.odd_dim)

    def parity(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return EVEN if i < self.even_dim else ODD

    def name(self, i: int) -> str:
        if self.basis_names is not None:
            return self.basis_names[i]
        return f"e{i}" if i < self.even_dim else f"f{i - self.even_dim}"


def _check_even_matrix(space_rows: SuperSpace, space_cols: SuperSpace, m: Matrix):
    if (m.nrows, m.ncols) != (space_rows.dim, space_cols.dim):
        raise ValueError("matrix shape does not match the graded spaces")
    pc = space_cols.even_dim
    for i, row in enumerate(m.entries):
        for j in range(pc, m.ncols) if i < space_rows.even_dim else range(pc):
            if row[j] != 0:
                raise ValueError(
                    f"map is not even: nonzero entry at ({i}, {j}) crosses parity")


@dataclass(frozen=True)
class GradedBilinearTable:
    """A sparse graded skew-symmetric bilinear map source x source -> target.

    cells maps (i, j) -> {k: scalar}, meaning the value on the basis pair
    (i, j) is sum_k c t_k.  Only i <= j is stored and zeros are dropped;
    an i > j value derives from (j, i) by graded skew-symmetry, unless an
    i > j cell was injected, which is kept for the validators to flag.

    `rows` is the row index the kernels walk: rows[i] maps every j with a
    nonzero value on (i, j) to (sign, cell), and that value is sign * cell,
    the sign being the int 1 or -1.  The index refers to the stored cell
    dicts and never copies them: a stored cell appears with sign 1, a
    derived i > j value as the (j, i) dict with its sign -(-1)^{|i||j|},
    and an injected i > j cell as itself, as `cell` reads it.  It is built
    on first use.
    """

    field: Field
    source: SuperSpace
    target: SuperSpace
    cells: dict

    def __post_init__(self):
        f = self.field
        ds, dt = self.source.dim, self.target.dim
        norm = {}
        for (i, j), cell in self.cells.items():
            if not (0 <= i < ds and 0 <= j < ds):
                raise ValueError(f"cell index ({i}, {j}) out of range")
            clean = {}
            for k, v in cell.items():
                if not 0 <= k < dt:
                    raise ValueError(f"value index {k} out of range")
                cv = f.of(v)
                if cv:
                    clean[k] = cv
            if clean:
                norm[(i, j)] = clean
        object.__setattr__(self, "cells", norm)

    @cached_property
    def rows(self) -> tuple:
        par = self.source.parity
        rows = [{} for _ in range(self.source.dim)]
        for (i, j), cell in self.cells.items():
            rows[i][j] = (1, cell)
            if i < j and (j, i) not in self.cells:
                rows[j][i] = (1 if par(i) == par(j) == ODD else -1, cell)
        return tuple({j: row[j] for j in sorted(row)} for row in rows)

    def cell(self, i: int, j: int) -> dict:
        """The sparse value on the pair (i, j)."""
        if (i, j) in self.cells:
            return self.cells[(i, j)]
        if i > j and (j, i) in self.cells:
            f = self.field
            s = f.neg(koszul_sign(f, self.source.parity(i), self.source.parity(j)))
            return {k: f.mul(s, v) for k, v in self.cells[(j, i)].items()}
        return {}

    def value(self, i: int, j: int) -> tuple:
        """The value on the pair (i, j) as a target-coordinate vector."""
        return _dense_vec(self.field, self.target.dim, self.cell(i, j))

    def eval(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension to whole source-coordinate vectors, summed
        raw over the nonzero terms and reduced once per entry."""
        rows = self.rows
        acc = {}
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, (s, cell) in rows[i].items():
                yj = y[j]
                if yj:
                    _accumulate(acc, cell.items(), xi * yj if s > 0 else -(xi * yj))
        return _reduced_vec(self.field, self.target.dim, acc)

    def _int_rows(self) -> tuple:
        """(scale, rows, cells, entry bound, cell bound) for the integer
        kernels.  Over Q, scale is the lcm of the stored values'
        denominators, cells holds every stored cell once as a {k: value *
        scale} int dict, and rows is the row index with those dicts in place
        of the cell dicts it refers to.  Over F_p the residues are ints
        already: the scale is 1, and rows and cells are the table's own.
        The bounds are the largest absolute entry and cell sum of cells."""
        cells = self.cells.values()
        if self.field.p is None:
            scale = lcm(*{v.denominator for cell in cells for v in cell.values()})
            ints = {id(cell): {k: v.numerator * (scale // v.denominator)
                               for k, v in cell.items()} for cell in cells}
            rows = [{j: (s, ints[id(cell)]) for j, (s, cell) in row.items()}
                    for row in self.rows]
            cells = ints.values()
        else:
            scale, rows = 1, self.rows
        entry = total = 0
        for cell in cells:
            cell_sum = 0
            for v in cell.values():
                v = abs(v)
                cell_sum += v
                if v > entry:
                    entry = v
            if cell_sum > total:
                total = cell_sum
        return scale, rows, tuple(cells), entry, total

    def parity_failures(self, axiom: str) -> tuple:
        """Stored values off the parity |i| + |j|."""
        f = self.field
        fails = []
        for (i, j) in sorted(self.cells):
            want = (self.source.parity(i) + self.source.parity(j)) % 2
            for k in sorted(self.cells[(i, j)]):
                if self.target.parity(k) != want:
                    fails.append(Failure(axiom, (i, j, k),
                                         (self.cells[(i, j)][k],), (f.zero,)))
        return tuple(fails)

    def skew_failures(self, axiom: str) -> tuple:
        """Pairs breaking t(i, j) = -(-1)^{|i||j|} t(j, i), derived values
        included; even diagonal values are forced to vanish.  Only a stored
        even diagonal cell or an injected i > j cell can break it, so only
        the stored pairs i >= j are visited, in the order (i, j)."""
        f = self.field
        par = self.source.parity
        fails = []
        for (i, j) in sorted(key for key in self.cells if key[0] >= key[1]):
            if i == j:
                if par(i) == EVEN:
                    fails.append(Failure(axiom, (i, i), self.value(i, i),
                                         zero_vec(f, self.target.dim)))
                continue
            lhs = self.value(i, j)
            s = f.neg(koszul_sign(f, par(i), par(j)))
            rhs = vec_scale(f, s, self.value(j, i))
            if lhs != rhs:
                fails.append(Failure(axiom, (i, j), lhs, rhs))
        return tuple(fails)


@dataclass(frozen=True)
class HomLieSuperalgebra:
    """Structure constants plus an even twist matrix.

    brackets maps (i, j) -> {k: scalar}, meaning [b_i, b_j] = sum_k c b_k;
    it is the cells dict of `table`, which owns the storage convention.
    """

    space: SuperSpace
    brackets: dict
    twist: Matrix
    table: GradedBilinearTable = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.space.dim
        if (self.twist.nrows, self.twist.ncols) != (d, d):
            raise ValueError("twist shape does not match the space")
        _check_even_matrix(self.space, self.space, self.twist)
        table = GradedBilinearTable(self.field, self.space, self.space, self.brackets)
        object.__setattr__(self, "brackets", table.cells)
        object.__setattr__(self, "table", table)

    @property
    def field(self) -> Field:
        return self.twist.field

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_bracket(self, i: int, j: int) -> tuple:
        return self.table.value(i, j)

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bilinear extension of the structure constants to whole vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match the algebra dimension")
        return self.table.eval(x, y)

    def theta(self, v: Sequence) -> tuple:
        return self.twist.matvec(v)


# ---------------------------------------------------------------------------
# validation reports

@dataclass(frozen=True)
class Failure:
    axiom: str
    indices: tuple
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True)
class ValidationReport:
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def check_parity(g: HomLieSuperalgebra) -> ValidationReport:
    """Every stored constant must respect parity additivity."""
    return ValidationReport(g.table.parity_failures("parity"))


def check_graded_skew(g: HomLieSuperalgebra) -> ValidationReport:
    """[b_i, b_j] = -(-1)^{|i||j|} [b_j, b_i] on all pairs, derived entries
    included; even diagonal brackets are forced to vanish."""
    return ValidationReport(g.table.skew_failures("graded-skew"))


def _int_map(m: Matrix) -> tuple:
    """(scale, cols, column bound, entry bound) of a map for the integer
    kernels: its sparse columns ((l, x), ...) as ints scaled by the lcm of
    their denominators (over F_p the residues as they are, scale 1), the
    largest absolute column sum and the largest absolute entry of those.
    The columns are read off the sparse rows, which the matrix keeps, so
    that no transpose is kept on it."""
    rows = m._sparse_rows
    scale = 1
    if m.field.p is None:
        scale = lcm(*{x.denominator for row in rows for _, x in row})
        rows = [[(a, x.numerator * (scale // x.denominator)) for a, x in row] for row in rows]
    cols = [[] for _ in range(m.ncols)]
    sums = [0] * m.ncols
    entry = 0
    for l, row in enumerate(rows):
        for a, x in row:
            cols[a].append((l, x))
            x = abs(x)
            sums[a] += x
            if x > entry:
                entry = x
    return scale, cols, max(sums, default=0), entry


def _int_forms(*parts) -> list:
    """The integer form of each table (`GradedBilinearTable._int_rows`) and
    matrix (`_int_map`) among parts, for the integer kernels; an object
    passed twice in a row is converted once."""
    forms = []
    for k, x in enumerate(parts):
        if k and x is parts[k - 1]:
            forms.append(forms[-1])
        else:
            forms.append(x._int_rows() if isinstance(x, GradedBilinearTable) else _int_map(x))
    return forms


def _packed_rows(rows: list, cells: tuple, slots: _Slots, factor: int = 1) -> list:
    """The int rows of `GradedBilinearTable._int_rows` with every cell packed
    once, times factor, and each entry's sign applied to the packed int."""
    packed = {id(cell): slots.pack(cell.items()) * factor for cell in cells}
    return [{j: s * packed[id(cell)] for j, (s, cell) in row.items()} for row in rows]


def _twisted_adjoint(packed_rows: list, map_cols: list) -> list:
    """adj[a][m] = sum_l A[l, a] * packed_rows[l][m] for the int columns
    A[:, a] = ((l, A[l, a]), ...) of a map A: with packed_rows the packed
    row index of a table t, adj[a][m] is the packed t(A b_a, b_m).  Built
    from the nonzero cells of the row index, one multiply-add per cell and
    map entry."""
    n = len(packed_rows)
    adj = []
    for col in map_cols:
        out = [0] * n
        for l, t in col:
            for m, x in packed_rows[l].items():
                out[m] += t * x
        adj.append(out)
    return adj


def check_hom_jacobi(g: HomLieSuperalgebra) -> ValidationReport:
    """Twisted Jacobi identity on all ordered basis triples i <= j <= k
    (sufficient given trilinearity and graded skew-symmetry).

    The triple's sum is sgn * [theta(b_a), [b_b, b_c]] over its three
    cyclic terms; a triple whose inner brackets [b_j, b_k], [b_i, b_j] and
    [b_k, b_i] all vanish is zero and skipped, so an algebra without
    brackets passes at once.  The rest is summed over ints (see `_Slots`):
    the structure constants are scaled by L and the twist by M, which
    scales every term by L^2 M, and [theta(b_a), b_m] is one packed int,
    so each inner bracket entry costs one multiply-add.  The slots hold
    3 x (largest cell sum) x (largest twist column sum) x (largest entry)
    of the scaled ints."""
    if not g.table.cells:
        return ValidationReport(())
    f = g.field
    d = g.dim
    (scale_b, rows, cells, entry_bound, cell_bound), (scale_t, twist_cols, twist_bound, _) = \
        _int_forms(g.table, g.twist)
    slots = _Slots(f, d, 3 * cell_bound * twist_bound * entry_bound,
                   scale_b * scale_b * scale_t)
    adj = _twisted_adjoint(_packed_rows(rows, cells, slots), twist_cols)
    odd = [g.space.parity(t) == ODD for t in range(d)]
    is_zero = slots.is_zero
    fails = []
    for i in range(d):
        for j in range(i, d):
            ij = rows[i].get(j)
            for k in range(j, d):
                jk = rows[j].get(k)
                ki = rows[k].get(i)
                if ij is None and jk is None and ki is None:
                    continue
                total = 0
                for a, inner, c in ((i, jk, k), (k, ij, j), (j, ki, i)):
                    if inner is None:
                        continue
                    sgn, cell = inner
                    out = adj[a]
                    term = 0
                    for m, v in cell.items():
                        term += v * out[m]
                    total += -term if (sgn < 0) != (odd[a] and odd[c]) else term
                if not is_zero(total):
                    fails.append(Failure("hom-jacobi", (i, j, k), slots.unpack(total),
                                         zero_vec(f, d)))
    return ValidationReport(tuple(fails))


def _preservation_failures(axiom: str, t1: GradedBilinearTable, t2: GradedBilinearTable,
                           a: Matrix, b: Matrix) -> tuple:
    """Pairs i <= j breaking b(t1(b_i, b_j)) = t2(a b_i, a b_j): the maps
    a on the source and b on the target carry the table t1 to t2.  For
    even a and graded skew-symmetric tables the pair (j, i) holds exactly
    when (i, j) does.  Both sides vanish when neither table has a cell.

    The sides are summed over ints (see `_Slots`).  With t1, t2, a and b
    scaled by s1, s2, sa and sb, the left side comes out scaled by s1 sb
    and the right side by s2 sa^2; the packed columns of b carry the
    factor s2 sa^2 and the packed cells of t2 the factor s1 sb, so both
    sides are their values times s1 s2 sa^2 sb and one zero test compares
    them.  The left side of (i, j) is sum_m t1(b_i, b_j)[m] (column m of
    b), its entries at most (largest t1 cell sum) x (largest b entry) x
    s2 sa^2 in absolute value; the right side is sum_m a[m, j] t2(a b_i,
    b_m) from the packed t2(a b_i, b_m) built once per i, its entries at
    most (largest a column sum)^2 x (largest t2 entry) x s1 sb.  The slots
    hold the sum of the two bounds.  Only failing pairs are unpacked."""
    if not t1.cells and not t2.cells:
        return ()
    (s1, rows1, _, _, sum1), (s2, rows2, cells2, entry2, _), (sa, acols, acol, _), \
        (sb, bcols, _, bentry) = _int_forms(t1, t2, a, b)
    left, right = s2 * sa * sa, s1 * sb
    slots = _Slots(t1.field, b.nrows, sum1 * bentry * left + acol * acol * entry2 * right,
                   left * right)
    packed_b = [slots.pack(col) * left for col in bcols]
    adj = _twisted_adjoint(_packed_rows(rows2, cells2, slots, right), acols)
    is_zero = slots.is_zero
    fails = []
    d = a.ncols
    for i in range(d):
        row1, adj_i = rows1[i], adj[i]
        for j in range(i, d):
            rhs = 0
            for m, x in acols[j]:
                rhs += x * adj_i[m]
            lhs = 0
            entry = row1.get(j)
            if entry is not None:
                sgn, cell = entry
                for m, v in cell.items():
                    lhs += v * packed_b[m]
                if sgn < 0:
                    lhs = -lhs
            if not is_zero(lhs - rhs):
                fails.append(Failure(axiom, (i, j), slots.unpack(lhs), slots.unpack(rhs)))
    return tuple(fails)


@_once
def check_multiplicative(g: HomLieSuperalgebra) -> ValidationReport:
    """theta([b_i, b_j]) = [theta(b_i), theta(b_j)] on all pairs i <= j."""
    return ValidationReport(
        _preservation_failures("multiplicative", g.table, g.table, g.twist, g.twist))


@_once
def check_regular(g: HomLieSuperalgebra) -> bool:
    """True when the twist matrix is invertible."""
    return g.twist.is_invertible()


def check_axioms(g: HomLieSuperalgebra) -> ValidationReport:
    """Parity, graded skew-symmetry, and the twisted Jacobi identity.

    Multiplicativity is reported separately (see check_multiplicative): it
    is an extra property of the twist, not part of the defining axioms.
    """
    fails = (check_parity(g).failures + check_graded_skew(g).failures
             + check_hom_jacobi(g).failures)
    return ValidationReport(fails)


# ---------------------------------------------------------------------------
# graded subspaces

@dataclass(frozen=True)
class GradedSubspace:
    """A parity-homogeneous subspace, stored as its even and odd parts.

    The even part lives in the even coordinate block (ambient even_dim),
    the odd part in the odd block; both bases are in RREF.  They are the
    even and odd rows of the full-space RREF basis cut to their blocks,
    so `from_subspace` reads them off without a new reduction.
    Membership, coordinates and complements are answered block by block,
    so no question about the subspace needs a full-space RREF.
    """

    even: Subspace
    odd: Subspace

    @staticmethod
    def zero(field: Field, space: SuperSpace) -> "GradedSubspace":
        return GradedSubspace(Subspace.zero(field, space.even_dim),
                              Subspace.zero(field, space.odd_dim))

    @staticmethod
    def full(field: Field, space: SuperSpace) -> "GradedSubspace":
        return GradedSubspace(Subspace.full(field, space.even_dim),
                              Subspace.full(field, space.odd_dim))

    @staticmethod
    def from_vectors(field: Field, space: SuperSpace, vectors: Sequence[Sequence]) -> "GradedSubspace":
        """Build from parity-homogeneous full-space vectors."""
        p, q = space.dims
        evens, odds = [], []
        for v in vectors:
            v = tuple(field.of(x) for x in v)
            ve, vo = v[:p], v[p:]
            if vec_is_zero(vo):
                evens.append(ve)
            elif vec_is_zero(ve):
                odds.append(vo)
            else:
                raise ValueError("spanning vector is not parity-homogeneous")
        return GradedSubspace(Subspace.from_vectors(field, p, evens),
                              Subspace.from_vectors(field, q, odds))

    @staticmethod
    def from_subspace(space: SuperSpace, sub: Subspace) -> "GradedSubspace":
        """Split a full-space subspace into parity parts by splitting its
        RREF rows; fails when the subspace is not graded.

        Let S = S0 ⊕ S1 be graded, even coordinates first.  Its RREF rows
        with a pivot in the odd block span S ∩ V1 = S1 and vanish on the
        even block.  A row with an even pivot has its odd part in S1, and
        that part vanishes at every odd pivot, so it is 0.  Hence a graded
        S has only pure rows, already in RREF within each block; a mixed
        row means S is not graded, and pure rows clearly mean it is.
        """
        if sub.ambient_dim != space.dim:
            raise ValueError("subspaces live in different ambient spaces")
        f = sub.field
        p, q = space.dims
        evens, odds = [], []
        for row in sub.basis.entries:
            if vec_is_zero(row[p:]):
                evens.append(row[:p])
            elif vec_is_zero(row[:p]):
                odds.append(row[p:])
            else:
                raise ValueError("subspace is not graded")
        return GradedSubspace(Subspace(p, Matrix(f, len(evens), p, tuple(evens))),
                              Subspace(q, Matrix(f, len(odds), q, tuple(odds))))

    @property
    def field(self) -> Field:
        return self.even.field

    @property
    def dims(self) -> tuple:
        return (self.even.dim, self.odd.dim)

    @property
    def dim(self) -> int:
        return self.even.dim + self.odd.dim

    @property
    def ambient_dims(self) -> tuple:
        return (self.even.ambient_dim, self.odd.ambient_dim)

    def full_basis_vectors(self) -> list:
        """Embedded spanning vectors, even rows first then odd rows."""
        f = self.field
        p, q = self.ambient_dims
        out = [row + zero_vec(f, q) for row in self.even.basis_rows()]
        out += [zero_vec(f, p) + row for row in self.odd.basis_rows()]
        return out

    def to_subspace(self) -> Subspace:
        p, q = self.ambient_dims
        return Subspace.from_vectors(self.field, p + q, self.full_basis_vectors())

    def contains_vector(self, v: Sequence) -> bool:
        p, q = self.ambient_dims
        return self.even.contains_vector(v[:p]) and self.odd.contains_vector(v[p:])

    def coordinates_of(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v over full_basis_vectors(), even ones first;
        None when v lies outside.

        full_basis_vectors() is already the RREF basis of the embedded
        subspace (even pivots precede odd ones, and each block is in RREF),
        so these are the coordinates over to_subspace() without its RREF.
        """
        p = self.even.ambient_dim
        even = self.even.coordinates_of(v[:p])
        if even is None:
            return None
        odd = self.odd.coordinates_of(v[p:])
        if odd is None:
            return None
        return even + odd

    def contains(self, other: "GradedSubspace") -> bool:
        return self.even.contains(other.even) and self.odd.contains(other.odd)

    def __add__(self, other: "GradedSubspace") -> "GradedSubspace":
        return GradedSubspace(self.even + other.even, self.odd + other.odd)

    def intersect(self, other: "GradedSubspace") -> "GradedSubspace":
        return GradedSubspace(self.even.intersect(other.even),
                              self.odd.intersect(other.odd))

    def complement_in(self, within: Optional["GradedSubspace"] = None) -> "GradedSubspace":
        """Deterministic graded complement, computed per parity block."""
        return GradedSubspace(
            self.even.complement_in(None if within is None else within.even),
            self.odd.complement_in(None if within is None else within.odd))


# ---------------------------------------------------------------------------
# even linear maps

@dataclass(frozen=True)
class EvenLinearMap:
    """A parity-preserving linear map, acting on column vectors."""

    source: SuperSpace
    target: SuperSpace
    matrix: Matrix

    def __post_init__(self):
        _check_even_matrix(self.target, self.source, self.matrix)

    @staticmethod
    def identity(field: Field, space: SuperSpace) -> "EvenLinearMap":
        return EvenLinearMap(space, space, Matrix.identity(field, space.dim))

    @property
    def field(self) -> Field:
        return self.matrix.field

    def __call__(self, v: Sequence) -> tuple:
        return self.matrix.matvec(v)

    def compose(self, other: "EvenLinearMap") -> "EvenLinearMap":
        """self after other."""
        if other.target.dims != self.source.dims:
            raise ValueError("maps do not compose")
        return EvenLinearMap(other.source, self.target, self.matrix @ other.matrix)

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "EvenLinearMap":
        return EvenLinearMap(self.target, self.source, self.matrix.inverse())


# ---------------------------------------------------------------------------
# structural invariants

@_once
def center(g: HomLieSuperalgebra) -> GradedSubspace:
    """Z(G) = {x : [x, y] = 0 for all y}, the left kernel of the d x d^2
    matrix whose row i is ad(b_i), with [b_i, b_j] in the slots d j to
    d j + d - 1, read off one elimination over the stored cells.

    `_eliminate` inserts the rows ad(b_i) (+) e_i straight from the row
    index, signs of derived i > j values included, for i from d - 1 down
    to 0.  The kept rows have distinct lead slots, so they are independent
    and their number r is the rank of ad.  A kept row's e-part involves
    only kept indices: it starts as its own e_k and only kept rows reduce
    it.  So a row i whose adjoint part reduces to zero leaves the e-part
    e_i plus kept indices above i, inserted before it: a kernel vector
    with 1 at i, 0 at every other such index and nothing below i.  These
    d - r independent vectors span the kernel, of dimension d - r, and
    listed by increasing i they are its unique RREF basis, with no second
    reduction.  Without brackets the center is the whole space."""
    f = g.field
    d = g.dim
    if not g.table.cells:
        return GradedSubspace.full(f, g.space)
    one = {0: f.one}
    rows = g.table.rows
    adjoint = ([(d * j, s, cell) for j, (s, cell) in rows[i].items()] + [(d * d + i, 1, one)]
               for i in reversed(range(d)))
    kernel = tuple(reversed(_eliminate(f, d * d, adjoint, d)[1]))
    return GradedSubspace.from_subspace(g.space, Subspace(d, Matrix(f, len(kernel), d, kernel)))


@_once
def derived(g: HomLieSuperalgebra) -> GradedSubspace:
    """G' = [G, G], the span of the stored cells on pairs i <= j (an i > j
    value is the negated (j, i) cell or an injected cell, which the
    validators flag), split by parity; its canonical basis is one RREF of
    at most d cells.

    With more than d cells, `_eliminate` first runs on the transposed
    layout: row k holds coordinate k of every cell, one slot per cell.
    The lead slots of its echelon are the pivot columns of that d x N
    matrix, the cells independent of the cells before them, so those
    r <= d cells are a basis of the span.  Without cells G' is 0."""
    f = g.field
    d = g.dim
    cells = [cell for (i, j), cell in g.brackets.items() if i <= j]
    if not cells:
        return GradedSubspace.zero(f, g.space)
    if len(cells) > d:
        coords = [{} for _ in range(d)]
        for c, cell in enumerate(cells):
            for k, v in cell.items():
                coords[k][c] = v
        leads, _ = _eliminate(f, len(cells), (((0, 1, row),) for row in coords))
        cells = [cells[c] for c in leads]
    vecs = tuple(_dense_vec(f, d, cell) for cell in cells)
    red, pivots = Matrix(f, len(vecs), d, vecs).rref()
    r = len(pivots)
    return GradedSubspace.from_subspace(g.space, Subspace(d, Matrix(f, r, d, red.entries[:r])))


def bracket_span(g: HomLieSuperalgebra, u: GradedSubspace, v: GradedSubspace) -> GradedSubspace:
    """Span of [u, v] over spanning vectors of the two subspaces."""
    vecs = [g.bracket(a, b)
            for a in u.full_basis_vectors() for b in v.full_basis_vectors()]
    return GradedSubspace.from_subspace(
        g.space, Subspace.from_vectors(g.field, g.dim, vecs))


def is_hom_ideal(g: HomLieSuperalgebra, k: GradedSubspace) -> bool:
    """True when k is twist-invariant and absorbs brackets with all of g.
    A subspace of another space or over another field raises ValueError."""
    if k.field != g.field or k.ambient_dims != g.space.dims:
        raise ValueError("subspace does not live in the algebra's space")
    f = g.field
    for v in k.full_basis_vectors():
        if not k.contains_vector(g.theta(v)):
            return False
        for j in range(g.dim):
            if not k.contains_vector(g.bracket(v, basis_vec(f, g.dim, j))):
                return False
    return True


def is_stem(g: HomLieSuperalgebra) -> bool:
    """True when the center is contained in the derived subalgebra."""
    return derived(g).contains(center(g))


# ---------------------------------------------------------------------------
# constructions

def quotient(g: HomLieSuperalgebra, k: GradedSubspace):
    """Quotient by a Hom-ideal over the greedy graded complement of k, as
    `_quotient` reads it off the stored cells.

    Returns (quotient algebra, projection map).
    """
    if not is_hom_ideal(g, k):
        raise PreconditionError("quotient: subspace is not a Hom-ideal")
    return _quotient(g, k)[:2]


def _quotient(g: HomLieSuperalgebra, k: GradedSubspace):
    """The quotient by a graded subspace k with [k, g] in k over the greedy
    graded complement of k, read off the stored cells of g.

    Returns (quotient algebra, projection, section).  The section maps
    quotient coordinates to the chosen representatives inside g.  No basis
    inverse and no dense bracket is needed, because:

    * The complement.  Take, per parity block, the RREF of k's basis rows
      with the columns reversed, and reverse its rows back: each row r_i
      has 1 at its trailing pivot t_i, 0 at every other trailing pivot
      and after t_i.  `complement_in` keeps the coordinate vector e_c
      exactly when e_c lies outside k + span(e_{<c}), that is, when no
      vector of k has its last nonzero entry at c, that is, when c is no
      t_i.  So the greedy complement is spanned by the e_c with c in C,
      the coordinates outside the t_i, and the section is those unit
      columns, in increasing order, even ones first.
    * The projection.  proj(v) = (v - sum_i v[t_i] r_i) restricted to C:
      the difference vanishes at every t_i, so it lies in span(e_C), and
      v minus it lies in k.  Column e_c of proj is a unit vector and
      column e_{t_i} is -r_i restricted to C, so no inverse is needed.
    * Brackets and twist.  The quotient bracket of (a, b) is proj of the
      stored cell (C[a], C[b]); C is increasing, so a <= b reads the
      i <= j cells that `bracket` reads.  Twist column a is proj of
      theta's column C[a].  Each is summed raw and reduced once, so the
      entries are canonical.
    * The twist check.  theta(k) in k, that is, proj(theta r_i) = 0 for
      every i; otherwise PreconditionError ("quotient: subspace is not a
      Hom-ideal") is raised.  Brackets are not checked: `quotient` checks
      `is_hom_ideal` first, and the center absorbs them by definition, so
      for it this check is the whole Hom-ideal check.

    `Matrix.nullspace` rests on the same fact about the RREF with the
    columns reversed."""
    f = g.field
    d = g.dim
    kept, dims, tails = [], [], {}     # C, its graded dims, t_i -> r_i on C
    for sub, off in ((k.even, 0), (k.odd, g.space.even_dim)):
        n = sub.ambient_dim
        red, pivots = Matrix(f, sub.dim, n, tuple(r[::-1] for r in sub.basis.entries)).rref()
        for row, pc in zip(red.entries, pivots):
            tails[off + n - 1 - pc] = [(off + n - 1 - j, x)
                                       for j, x in enumerate(row) if x and j != pc]
        kept += [off + c for c in range(n) if off + c not in tails]
        dims.append(n - sub.dim)
    pos = {c: a for a, c in enumerate(kept)}
    tails = {t: tuple((pos[c], x) for c, x in tail) for t, tail in tails.items()}
    dq = len(kept)

    def proj(terms) -> dict:
        """proj(v) as raw sums, v given by its (index, value) terms."""
        acc = {}
        for i, x in terms:
            a = pos.get(i)
            if a is None:
                _accumulate(acc, tails[i], -x)
            else:
                acc[a] = acc.get(a, 0) + x
        return acc

    images = [proj(col) for col in g.twist._sparse_cols]
    for t, tail in tails.items():
        acc = dict(images[t])
        for a, x in tail:
            _accumulate(acc, images[kept[a]].items(), x)
        if any(_reduced_vec(f, dq, acc)):
            raise PreconditionError("quotient: subspace is not a Hom-ideal")
    twist = [_reduced_vec(f, dq, images[c]) for c in kept]
    brackets = {}
    for a in range(dq):
        for b in range(a, dq):
            cell = g.brackets.get((kept[a], kept[b]))
            if cell:
                brackets[(a, b)] = dict(enumerate(_reduced_vec(f, dq, proj(cell.items()))))
    space = SuperSpace(*dims)
    qalg = HomLieSuperalgebra(space, brackets, Matrix(f, dq, dq, tuple(zip(*twist))))
    pm = [[f.zero] * d for _ in range(dq)]
    sm = [[f.zero] * dq for _ in range(d)]
    for a, c in enumerate(kept):
        pm[a][c] = sm[c][a] = f.one
    for t, tail in tails.items():
        for a, x in tail:
            pm[a][t] = f.neg(x)
    return (qalg, EvenLinearMap(g.space, space, Matrix(f, dq, d, tuple(map(tuple, pm)))),
            EvenLinearMap(space, g.space, Matrix(f, d, dq, tuple(map(tuple, sm)))))


def _sum_layout(s1: SuperSpace, s2: SuperSpace) -> tuple:
    """(space, idx1, idx2) of s1 (+) s2 with the coordinates of s1 even, s2
    even, s1 odd, s2 odd, so that the even ones come first; the i-th basis
    vector of s1 (of s2) lands at idx1[i] (at idx2[i]).  The sum is named
    when both summands are."""
    (p1, q1), (p2, q2) = s1.dims, s2.dims
    idx1 = tuple(range(p1)) + tuple(range(p1 + p2, p1 + p2 + q1))
    idx2 = tuple(range(p1, p1 + p2)) + tuple(range(p1 + p2 + q1, p1 + p2 + q1 + q2))
    n1, n2 = s1.basis_names, s2.basis_names
    names = None if n1 is None or n2 is None else n1[:p1] + n2[:p2] + n1[p1:] + n2[p2:]
    return SuperSpace(p1 + p2, q1 + q2, names), idx1, idx2


def direct_sum_with_embeddings(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra):
    """Componentwise direct sum, laid out by `_sum_layout`.

    Returns (sum algebra, embedding of g1, embedding of g2).
    """
    if g1.field != g2.field:
        raise PreconditionError("direct sum requires the same scalar field")
    f = g1.field
    space, idx1, idx2 = _sum_layout(g1.space, g2.space)
    brackets = {}
    for g, idx in ((g1, idx1), (g2, idx2)):
        for (i, j), cell in g.brackets.items():
            brackets[(idx[i], idx[j])] = {idx[k]: v for k, v in cell.items()}
    d = space.dim
    twist = Matrix.from_blocks(f, d, d, [(idx1, idx1, g1.twist), (idx2, idx2, g2.twist)])
    alg = HomLieSuperalgebra(space, brackets, twist)
    emb1, emb2 = (EvenLinearMap(g.space, space,
                                Matrix.from_columns(f, [basis_vec(f, d, i) for i in idx], d))
                  for g, idx in ((g1, idx1), (g2, idx2)))
    return alg, emb1, emb2


def direct_sum(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra) -> HomLieSuperalgebra:
    return direct_sum_with_embeddings(g1, g2)[0]


def abelian(field: Field, even_dim: int, odd_dim: int,
            twist: Optional[Matrix] = None,
            basis_names: Optional[tuple] = None) -> HomLieSuperalgebra:
    """Trivial bracket; the twist defaults to the identity."""
    space = SuperSpace(even_dim, odd_dim, basis_names)
    if twist is None:
        twist = Matrix.identity(field, space.dim)
    return HomLieSuperalgebra(space, {}, twist)


def subalgebra_on(g: HomLieSuperalgebra, k: GradedSubspace):
    """Induced algebra on a bracket-closed, twist-invariant graded subspace.

    Returns (subalgebra, inclusion map).  The algebra's twist and brackets
    are g's in the coordinates of the RREF basis of k, even vectors first,
    each twist image and bracket of basis vectors computed once, the twist
    images first.  One that leaves k raises PreconditionError.
    """
    vecs = k.full_basis_vectors()
    twist = []
    for v in vecs:
        col = k.coordinates_of(g.theta(v))
        if col is None:
            raise PreconditionError("subspace is not twist-invariant")
        twist.append(col)
    brackets = {}
    for a, va in enumerate(vecs):
        for b in range(a, len(vecs)):
            col = k.coordinates_of(g.bracket(va, vecs[b]))
            if col is None:
                raise PreconditionError("subspace is not closed under the bracket")
            brackets[(a, b)] = dict(enumerate(col))
    alg = HomLieSuperalgebra(SuperSpace(*k.dims), brackets,
                             Matrix.from_columns(g.field, twist, k.dim))
    return alg, EvenLinearMap(alg.space, g.space,
                              Matrix.from_columns(g.field, vecs, g.dim))


# ---------------------------------------------------------------------------
# homomorphisms

def check_homomorphism(f: EvenLinearMap, g1: HomLieSuperalgebra,
                       g2: HomLieSuperalgebra) -> ValidationReport:
    """Bracket preservation on the basis pairs i <= j plus twist
    intertwining (f . twist_1 = twist_2 . f) as a matrix identity."""
    if f.source.dims != g1.space.dims or f.target.dims != g2.space.dims:
        raise ValueError("map endpoints do not match the algebras")
    if f.field != g1.field or f.field != g2.field:
        raise ValueError("map field does not match the algebras")
    fails = list(_preservation_failures("homomorphism-bracket", g1.table, g2.table,
                                        f.matrix, f.matrix))
    left = f.matrix @ g1.twist
    right = g2.twist @ f.matrix
    if left.entries != right.entries:
        for i in range(g1.dim):
            if left.col(i) != right.col(i):
                fails.append(Failure("homomorphism-twist", (i,), left.col(i), right.col(i)))
    return ValidationReport(tuple(fails))


def is_isomorphism(f: EvenLinearMap, g1: HomLieSuperalgebra,
                   g2: HomLieSuperalgebra) -> bool:
    if g1.space.dims != g2.space.dims:
        return False
    return check_homomorphism(f, g1, g2).passed and f.matrix.is_invertible()
