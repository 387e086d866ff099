"""Hom-Lie superalgebras given by structure constants.

A Hom-Lie superalgebra is a Z2-graded space with a graded skew-symmetric
bracket and an even linear twist map satisfying the twisted (Hom-)Jacobi
identity.  This module holds the data model, the axiom validators, the
structural invariants (center, derived subalgebra, stem property), and
the quotient / direct-sum / homomorphism constructions.

Conventions used throughout the package:
  * basis indices 0..p-1 are even, p..p+q-1 are odd;
  * structure constants and factor-set coefficients are both sparse graded
    skew-symmetric bilinear tables, and GradedBilinearTable is the one
    owner of their storage convention: cells for index pairs i <= j only,
    zeros dropped, the remaining values recovered through graded
    skew-symmetry (validators tolerate and flag explicitly injected
    i > j entries);
  * all values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

from .errors import PreconditionError
from .linalg import (Field, Matrix, Subspace, _accumulate, _dense_vec, _reduced_vec,
                     _sparse_vec, basis_vec, vec_is_zero, vec_scale, zero_vec)

EVEN, ODD = 0, 1


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


def check_hom_jacobi(g: HomLieSuperalgebra) -> ValidationReport:
    """Twisted Jacobi identity on all ordered basis triples i <= j <= k
    (sufficient given trilinearity and graded skew-symmetry).

    The triple's sum is sgn * [theta(b_a), [b_b, b_c]] over its three
    cyclic terms; a triple whose inner brackets [b_j, b_k], [b_i, b_j] and
    [b_k, b_i] all vanish is zero and skipped.  The rest is summed raw over
    the nonzero cells of the row index and sparse twist columns, with the
    signs as ints, and reduced once per entry."""
    f = g.field
    p = f.p
    d = g.dim
    rows = g.table.rows
    odd = [g.space.parity(t) == ODD for t in range(d)]
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
                for a, inner, sgn in ((i, jk, -1 if odd[i] and odd[k] else 1),
                                      (k, ij, -1 if odd[k] and odd[j] else 1),
                                      (j, ki, -1 if odd[j] and odd[i] else 1)):
                    if inner is None:
                        continue
                    s_in, cell_in = inner
                    s_in *= sgn
                    for m, v in cell_in.items():
                        sv = v if s_in > 0 else -v
                        for l, t in theta_col[a]:
                            outer = rows[l].get(m)
                            if outer is not None:
                                s_out, cell_out = outer
                                _accumulate(total, cell_out.items(),
                                            t * sv if s_out > 0 else -(t * sv))
                if any(total.values()) if p is None else any(x % p for x in total.values()):
                    fails.append(Failure("hom-jacobi", (i, j, k),
                                         _reduced_vec(f, d, total), zero_vec(f, d)))
    return ValidationReport(tuple(fails))


def check_multiplicative(g: HomLieSuperalgebra) -> ValidationReport:
    """theta([b_i, b_j]) = [theta(b_i), theta(b_j)] on all pairs i <= j."""
    f = g.field
    d = g.dim
    fails = []
    for i in range(d):
        for j in range(i, d):
            lhs = g.theta(g.basis_bracket(i, j))
            rhs = g.bracket(g.twist.col(i), g.twist.col(j))
            if lhs != rhs:
                fails.append(Failure("multiplicative", (i, j), lhs, rhs))
    return ValidationReport(tuple(fails))


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
    the odd part in the odd block; both bases are in RREF.  Membership,
    coordinates and complements are answered block by block, so no
    question about the subspace needs a full-space RREF.
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
        """Split a full-space subspace into parity parts; fails when the
        subspace is not graded.

        The kernel of the even projection on S is S∩V1 and that of the odd
        projection is S∩V0, so dim proj0(S) + dim proj1(S) = 2·dim S −
        dim(S∩V0) − dim(S∩V1), and proj0(S) ⊇ S∩V0, proj1(S) ⊇ S∩V1.
        Hence S is graded iff the projections' dims add up to dim S, and
        then the projections are its parts.
        """
        if sub.ambient_dim != space.dim:
            raise ValueError("subspaces live in different ambient spaces")
        f = sub.field
        p = space.even_dim
        rows = sub.basis_rows()
        even = Subspace.from_vectors(f, p, [row[:p] for row in rows])
        odd = Subspace.from_vectors(f, space.odd_dim, [row[p:] for row in rows])
        if even.dim + odd.dim != sub.dim:
            raise ValueError("subspace is not graded")
        return GradedSubspace(even, odd)

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

def center(g: HomLieSuperalgebra) -> GradedSubspace:
    """Z(G) = {x : [x, y] = 0 for all y}, as the kernel of the stacked
    adjoint maps x -> [x, b_j]; only their nonzero rows are assembled."""
    f = g.field
    d = g.dim
    rows = {}
    for i, row in enumerate(g.table.rows):
        for j, (s, cell) in row.items():
            for k, v in cell.items():
                rows.setdefault((j, k), [f.zero] * d)[i] = v if s > 0 else f.neg(v)
    m = Matrix.from_rows(f, [rows[jk] for jk in sorted(rows)], d)
    return GradedSubspace.from_subspace(g.space, m.nullspace())


def derived(g: HomLieSuperalgebra) -> GradedSubspace:
    """Span of all brackets of basis pairs, split by parity."""
    f = g.field
    vecs = [_dense_vec(f, g.dim, cell)
            for i, row in enumerate(g.table.rows)
            for j, (_, cell) in row.items() if i <= j]
    sub = Subspace.from_vectors(f, g.dim, vecs)
    return GradedSubspace.from_subspace(g.space, sub)


def bracket_span(g: HomLieSuperalgebra, u: GradedSubspace, v: GradedSubspace) -> GradedSubspace:
    """Span of [u, v] over spanning vectors of the two subspaces."""
    vecs = [g.bracket(a, b)
            for a in u.full_basis_vectors() for b in v.full_basis_vectors()]
    return GradedSubspace.from_subspace(
        g.space, Subspace.from_vectors(g.field, g.dim, vecs))


def is_hom_ideal(g: HomLieSuperalgebra, k: GradedSubspace) -> bool:
    """True when k is twist-invariant and absorbs brackets with all of g."""
    if k.ambient_dims != g.space.dims:
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

def quotient(g: HomLieSuperalgebra, k: GradedSubspace,
             reps: Optional[GradedSubspace] = None):
    """Quotient by a Hom-ideal, with structure constants expressed over a
    deterministic graded complement of k (or the supplied one).

    Returns (quotient algebra, projection map).
    """
    if not is_hom_ideal(g, k):
        raise PreconditionError("quotient: subspace is not a Hom-ideal")
    f = g.field
    if reps is None:
        w = k.complement_in()
    else:
        w = reps
        if k.intersect(w).dim != 0 or k.dim + w.dim != g.dim \
                or w.ambient_dims != g.space.dims:
            raise PreconditionError("quotient: supplied representatives do not complement the ideal")
    k_vecs = k.full_basis_vectors()
    w_vecs = w.full_basis_vectors()
    basis = Matrix.from_columns(f, k_vecs + w_vecs, g.dim)
    proj = basis.inverse().submatrix(range(k.dim, g.dim), range(g.dim))
    qspace = SuperSpace(w.even.dim, w.odd.dim)
    brackets = {(a, b): dict(enumerate(proj.matvec(g.bracket(w_vecs[a], w_vecs[b]))))
                for a in range(len(w_vecs)) for b in range(a, len(w_vecs))}
    twist = Matrix.from_columns(f, [proj.matvec(g.theta(wv)) for wv in w_vecs], w.dim)
    qalg = HomLieSuperalgebra(qspace, brackets, twist)
    return qalg, EvenLinearMap(g.space, qspace, proj)


def direct_sum_with_embeddings(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra):
    """Componentwise direct sum, re-sorted to keep even coordinates first.

    Returns (sum algebra, embedding of g1, embedding of g2).
    """
    if g1.field != g2.field:
        raise PreconditionError("direct sum requires the same scalar field")
    f = g1.field
    p1, q1 = g1.space.dims
    p2, q2 = g2.space.dims
    space = SuperSpace(p1 + p2, q1 + q2, _merged_names(g1.space, g2.space))

    def m1(i):
        return i if i < p1 else p1 + p2 + (i - p1)

    def m2(i):
        return p1 + i if i < p2 else p1 + p2 + q1 + (i - p2)

    brackets = {}
    for g, mp in ((g1, m1), (g2, m2)):
        for (i, j), cell in g.brackets.items():
            brackets[(mp(i), mp(j))] = {mp(k): v for k, v in cell.items()}
    d = space.dim
    idx1 = [m1(i) for i in range(g1.dim)]
    idx2 = [m2(i) for i in range(g2.dim)]
    twist = Matrix.from_blocks(f, d, d, [(idx1, idx1, g1.twist), (idx2, idx2, g2.twist)])
    alg = HomLieSuperalgebra(space, brackets, twist)
    emb1 = EvenLinearMap(g1.space, space,
                         Matrix.from_columns(f, [basis_vec(f, d, i) for i in idx1], d))
    emb2 = EvenLinearMap(g2.space, space,
                         Matrix.from_columns(f, [basis_vec(f, d, i) for i in idx2], d))
    return alg, emb1, emb2


def _merged_names(s1: SuperSpace, s2: SuperSpace):
    if s1.basis_names is None or s2.basis_names is None:
        return None
    return tuple(s1.basis_names[:s1.even_dim]) + tuple(s2.basis_names[:s2.even_dim]) \
        + tuple(s1.basis_names[s1.even_dim:]) + tuple(s2.basis_names[s2.even_dim:])


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

    Returns (subalgebra, inclusion map).  The coordinates are the RREF
    basis of k, even vectors first.  Each twist image and bracket of basis
    vectors is computed once and expressed in those coordinates; one that
    leaves k raises PreconditionError, the twist images checked first.
    """
    f = g.field
    vecs = k.full_basis_vectors()
    tw_cols = []
    for v in vecs:
        coords = k.coordinates_of(g.theta(v))
        if coords is None:
            raise PreconditionError("subspace is not twist-invariant")
        tw_cols.append(coords)
    brackets = {}
    for a, va in enumerate(vecs):
        for b in range(a, len(vecs)):
            coords = k.coordinates_of(g.bracket(va, vecs[b]))
            if coords is None:
                raise PreconditionError("subspace is not closed under the bracket")
            brackets[(a, b)] = dict(enumerate(coords))
    space = SuperSpace(k.even.dim, k.odd.dim)
    alg = HomLieSuperalgebra(space, brackets, Matrix.from_columns(f, tw_cols, k.dim))
    incl = EvenLinearMap(space, g.space, Matrix.from_columns(f, vecs, g.dim))
    return alg, incl


# ---------------------------------------------------------------------------
# homomorphisms

def check_homomorphism(f: EvenLinearMap, g1: HomLieSuperalgebra,
                       g2: HomLieSuperalgebra) -> ValidationReport:
    """Bracket preservation on all basis pairs plus twist intertwining
    (f . twist_1 = twist_2 . f) as matrix identities."""
    if f.source.dims != g1.space.dims or f.target.dims != g2.space.dims:
        raise ValueError("map endpoints do not match the algebras")
    fl = g1.field
    fails = []
    for i in range(g1.dim):
        for j in range(i, g1.dim):
            lhs = f(g1.basis_bracket(i, j))
            rhs = g2.bracket(f.matrix.col(i), f.matrix.col(j))
            if lhs != rhs:
                fails.append(Failure("homomorphism-bracket", (i, j), lhs, rhs))
    left = f.matrix @ g1.twist
    right = g2.twist @ f.matrix
    for i in range(g1.dim):
        if left.col(i) != right.col(i):
            fails.append(Failure("homomorphism-twist", (i,), left.col(i), right.col(i)))
    return ValidationReport(tuple(fails))


def is_isomorphism(f: EvenLinearMap, g1: HomLieSuperalgebra,
                   g2: HomLieSuperalgebra) -> bool:
    if g1.space.dims != g2.space.dims:
        return False
    return check_homomorphism(f, g1, g2).passed and f.matrix.is_invertible()
