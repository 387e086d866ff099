"""Exact linear algebra over the rationals and odd prime fields.

Everything downstream (axiom validation, factor sets, isoclinism search)
reduces to the primitives here: reduced row-echelon forms, kernels, exact
solving, and deterministic subspace arithmetic.  Scalars are either
`fractions.Fraction` (rationals, always in lowest terms with positive
denominator) or plain ints reduced to [0, p) (prime fields).  All values
are immutable and all operations are pure, so they are safe to share.

Kernel contract.  The scalar kernels (`Matrix.matvec`, `Matrix.__matmul__`,
`Matrix.rref`, `Subspace.coordinates_of`, and the bilinear-table loops of
`core` and `factorset`) take canonical values: `Field.of` output, which is
what every `Matrix`, `Subspace` and algebra holds.  They visit only nonzero
entries, multiply and add with plain `*`, `+` and `-` instead of the
`Field` methods, and reduce once per output entry: `% p` over F_p, nothing
over Q, where `Fraction` arithmetic is already canonical.  An entry that
receives no term is the field's zero.  The results are the values, of the
same types, that reducing after every operation would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import FormatError, PreconditionError


#: Miller-Rabin with the first 13 primes as bases decides primality
#: exactly below _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Scalar field tag: the rationals (p is None) or the prime field F_p.

    Elements are not wrapped; the field object supplies the arithmetic.
    Characteristic 2 is rejected because graded skew-symmetry no longer
    forces even diagonal brackets to vanish there.
    """

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None:
            if self.p >= _PRIME_LIMIT:
                raise ValueError(f"modulus {self.p} is too large: must be below {_PRIME_LIMIT}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")
            if self.p == 2:
                raise ValueError("characteristic 2 is not supported")

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @cached_property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @cached_property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def of(self, x):
        """Coerce an int, Fraction, or string to a canonical field element.

        A value that is already canonical (exactly a Fraction over Q, an
        int in [0, p) over F_p) is returned as it is.
        """
        if self.p is None:
            if type(x) is Fraction:
                return x
        elif type(x) is int and 0 <= x < self.p:
            return x
        if isinstance(x, str):
            return self.parse(x)
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def parse(self, text: str):
        """Parse "a" or "a/b" (rationals) or a decimal string (prime fields)."""
        try:
            if self.p is None:
                return Fraction(text)
            return int(text) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad scalar {text!r} for field {self.name}: {exc}") from None

    def fmt(self, a) -> str:
        """Canonical string form; inverse of parse on canonical elements."""
        if self.p is None:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a)

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return 1 / a if self.p is None else pow(a, -1, self.p)

    def elements(self):
        """All field elements in canonical order; only finite fields."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        return range(self.p)


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)


# ---------------------------------------------------------------------------
# plain-tuple vectors

def vec(field: Field, xs: Iterable) -> tuple:
    return tuple(map(field.of, xs))


def zero_vec(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def basis_vec(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(field: Field, a: Sequence, b: Sequence) -> tuple:
    return tuple(field.add(x, y) for x, y in zip(a, b))


def vec_sub(field: Field, a: Sequence, b: Sequence) -> tuple:
    return tuple(field.sub(x, y) for x, y in zip(a, b))


def vec_scale(field: Field, c, a: Sequence) -> tuple:
    return tuple(field.mul(c, x) for x in a)


def vec_is_zero(a: Sequence) -> bool:
    return not any(a)


def _sparse_vec(a: Sequence) -> tuple:
    """The nonzero entries of a as (index, value) pairs."""
    return tuple((k, x) for k, x in enumerate(a) if x)


def _dense_vec(field: Field, n: int, entries: dict) -> tuple:
    """The length-n vector with the given {index: value} entries."""
    out = [field.zero] * n
    for k, x in entries.items():
        out[k] = x
    return tuple(out)


def _reduced_vec(field: Field, n: int, acc: dict) -> tuple:
    """The length-n vector of raw sums {index: sum}, each reduced once."""
    p = field.p
    return _dense_vec(field, n, acc if p is None else {k: x % p for k, x in acc.items()})


def _accumulate(acc: dict, terms: tuple, c):
    """acc[k] += c * x for the (k, x) in terms, as raw sums."""
    for k, x in terms:
        if k in acc:
            acc[k] += c * x
        else:
            acc[k] = c * x


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; all entries share one field tag and are
    canonical.  The products walk nonzero entries only: a matrix finds
    those of its rows and columns on first use and keeps them."""

    field: Field
    nrows: int
    ncols: int
    entries: tuple

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence], ncols: int) -> "Matrix":
        rows = tuple(vec(field, r) for r in rows)
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def from_columns(field: Field, cols: Sequence[Sequence], nrows: int) -> "Matrix":
        cols = [vec(field, c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise ValueError("ragged columns")
        return Matrix(field, nrows, len(cols),
                      tuple(tuple(c[i] for c in cols) for i in range(nrows)))

    @staticmethod
    def from_blocks(field: Field, nrows: int, ncols: int, blocks) -> "Matrix":
        """Zero matrix with blocks placed in it: each (rows, cols, block)
        puts block[r, c] at (rows[r], cols[c])."""
        out = [[field.zero] * ncols for _ in range(nrows)]
        for rows, cols, block in blocks:
            for r, i in enumerate(rows):
                for c, j in enumerate(cols):
                    out[i][j] = block[r, c]
        return Matrix.from_rows(field, out, ncols)

    @staticmethod
    def zero(field: Field, nrows: int, ncols: int) -> "Matrix":
        return Matrix(field, nrows, ncols, tuple((field.zero,) * ncols for _ in range(nrows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, n, n,
                      tuple(tuple(field.one if i == j else field.zero for j in range(n))
                            for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return self._cols[j]

    @cached_property
    def _cols(self) -> tuple:
        return tuple(zip(*self.entries)) if self.nrows else ((),) * self.ncols

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.of(c)
        return Matrix(f, self.nrows, self.ncols,
                      tuple(vec_scale(f, c, r) for r in self.entries))

    @cached_property
    def _sparse_rows(self) -> tuple:
        return tuple(_sparse_vec(r) for r in self.entries)

    @cached_property
    def _sparse_cols(self) -> tuple:
        return tuple(_sparse_vec(c) for c in self._cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError("incompatible shapes for product")
        f = self.field
        orows = other._sparse_rows
        rows = []
        for r in self._sparse_rows:
            acc = {}
            for k, x in r:
                _accumulate(acc, orows[k], x)
            rows.append(_reduced_vec(f, other.ncols, acc))
        return Matrix(f, self.nrows, other.ncols, tuple(rows))

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        cols = self._sparse_cols
        acc = {}
        for j, x in enumerate(v):
            if x:
                _accumulate(acc, cols[j], x)
        return _reduced_vec(self.field, self.nrows, acc)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.ncols, self.nrows, self._cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.field != other.field:
            raise ValueError("incompatible shapes for hstack")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols or self.field != other.field:
            raise ValueError("incompatible shapes for vstack")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols,
                      self.entries + other.entries)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix(self.field, len(rows), len(cols),
                      tuple(tuple(self.entries[i][j] for j in cols) for i in rows))

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def rref(self) -> tuple:
        """Unique reduced row-echelon form and its pivot columns.

        Rows at and below the pivot row vanish left of the pivot column, so
        the pivot row's nonzero entries lie in columns >= pc, and each row
        update touches only those columns."""
        f = self.field
        p = f.p
        nrows, ncols = self.nrows, self.ncols
        m = [list(r) for r in self.entries]
        pivots = []
        pr = 0
        for pc in range(ncols):
            if pr == nrows:
                break
            hit = next((r for r in range(pr, nrows) if m[r][pc]), None)
            if hit is None:
                continue
            m[pr], m[hit] = m[hit], m[pr]
            row = m[pr]
            inv = f.inv(row[pc])
            if p is None:
                nz = [(j, inv * row[j]) for j in range(pc, ncols) if row[j]]
            else:
                nz = [(j, inv * row[j] % p) for j in range(pc, ncols) if row[j]]
            for j, y in nz:
                row[j] = y
            for r in range(nrows):
                other = m[r]
                c = other[pc]
                if r == pr or not c:
                    continue
                if p is None:
                    for j, y in nz:
                        other[j] = other[j] - c * y
                else:
                    for j, y in nz:
                        other[j] = (other[j] - c * y) % p
            pivots.append(pc)
            pr += 1
        return Matrix(f, nrows, ncols, tuple(map(tuple, m))), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Subspace":
        """The kernel {x : self @ x = 0}, dimension ncols - rank."""
        f = self.field
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red[r, fc])
            basis.append(v)
        return Subspace.from_vectors(f, self.ncols, basis)

    def solve(self, b: Sequence) -> Optional[tuple]:
        """One solution of self @ x = b, free variables set to zero;
        None when the system is inconsistent."""
        if len(b) != self.nrows:
            raise ValueError("right-hand side length does not match row count")
        f = self.field
        aug = self.hstack(Matrix.from_columns(f, [b], self.nrows))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [f.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red[r, self.ncols]
        return tuple(x)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        f = self.field
        n = self.nrows
        red, pivots = self.hstack(Matrix.identity(f, n)).rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return red.submatrix(range(n), range(n, 2 * n))

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        f = self.field
        n = self.nrows
        m = [list(r) for r in self.entries]
        d = f.one
        for c in range(n):
            hit = next((r for r in range(c, n) if m[r][c] != 0), None)
            if hit is None:
                return f.zero
            if hit != c:
                m[c], m[hit] = m[hit], m[c]
                d = f.neg(d)
            d = f.mul(d, m[c][c])
            inv = f.inv(m[c][c])
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    k = f.mul(m[r][c], inv)
                    m[r] = [f.sub(x, f.mul(k, y)) for x, y in zip(m[r], m[c])]
        return d

    def charpoly(self) -> tuple:
        """Coefficients of det(xI - A), leading coefficient first.

        Berkowitz recursion: division-free, so it is exact over any field.
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        f = self.field
        n = self.nrows
        if n == 0:
            return (f.one,)
        a = self.entries
        poly = [f.one, f.neg(a[0][0])]
        for k in range(1, n):
            # leading (k+1)x(k+1) block, partitioned around entry (k, k)
            corner = a[k][k]
            row = [a[k][j] for j in range(k)]
            col = [a[i][k] for i in range(k)]
            block = [[a[i][j] for j in range(k)] for i in range(k)]
            t = [f.one, f.neg(corner)]
            w = list(col)
            for step in range(k):
                t.append(f.neg(_dot(f, row, w)))
                if step < k - 1:
                    w = [_dot(f, br, w) for br in block]
            new = []
            for i in range(k + 2):
                s = f.zero
                for j, pj in enumerate(poly):
                    if 0 <= i - j < len(t):
                        s = f.add(s, f.mul(t[i - j], pj))
                new.append(s)
            poly = new
        return tuple(poly)


def _dot(field: Field, a: Sequence, b: Sequence):
    return field.of(sum(x * y for x, y in zip(a, b) if x and y))


@dataclass(frozen=True)
class Subspace:
    """Row-span in reduced echelon form.

    The RREF basis is canonical, so two subspaces are equal exactly when
    their basis matrices are entry-identical (dataclass equality).
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("vector length does not match ambient dimension")
        red, pivots = Matrix.from_rows(field, vectors, ambient_dim).rref()
        return Subspace(ambient_dim,
                        Matrix(field, len(pivots), ambient_dim, red.entries[:len(pivots)]))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zero(field, 0, ambient_dim))

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim))

    @property
    def field(self) -> Field:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def basis_rows(self) -> list:
        return [self.basis.row(i) for i in range(self.dim)]

    def coordinates_of(self, v: Sequence) -> Optional[tuple]:
        """Coefficients of v over the basis rows; None when v is outside.

        Every other basis row vanishes in a row's pivot column, so the
        coefficient of a row is v's entry there.  The rows' nonzero entries
        are subtracted from v as raw sums and the remainder reduced once."""
        rest = list(v)
        coeffs = []
        for r in self.basis._sparse_rows:
            c = rest[r[0][0]]
            coeffs.append(c)
            if c:
                for j, y in r:
                    rest[j] -= c * y
        p = self.field.p
        if any(rest) if p is None else any(x % p for x in rest):
            return None
        return tuple(coeffs)

    def contains_vector(self, v: Sequence) -> bool:
        return self.coordinates_of(v) is not None

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis_rows())

    def __add__(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace.from_vectors(self.field, self.ambient_dim,
                                     self.basis_rows() + other.basis_rows())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked basis constraints."""
        self._compat(other)
        f = self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(f, self.ambient_dim)
        stacked = self.basis.vstack(-other.basis)
        ker = stacked.transpose().nullspace()
        vecs = []
        for x in ker.basis_rows():
            v = zero_vec(f, self.ambient_dim)
            for c, row in zip(x[:self.dim], self.basis_rows()):
                v = vec_add(f, v, vec_scale(f, c, row))
            vecs.append(v)
        return Subspace.from_vectors(f, self.ambient_dim, vecs)

    def complement_in(self, within: Optional["Subspace"] = None) -> "Subspace":
        """A deterministic complement C with (within) = self ⊕ C.

        Greedy pivot extension: walk the enclosing space's RREF basis (the
        standard coordinate vectors when `within` is the full ambient) and
        keep each vector that enlarges the span.  Those are the pivot
        columns of one RREF, of self's basis rows followed by the enclosing
        ones laid down as columns.  Rows of an RREF basis are again in RREF,
        so the kept rows are the complement's basis as they stand.
        """
        f = self.field
        n = self.ambient_dim
        amb = Subspace.full(f, n) if within is None else within
        if not amb.contains(self):
            raise PreconditionError("complement: subspace is not contained in the enclosing space")
        if amb.dim == self.dim:
            return Subspace.zero(f, n)
        rows = amb.basis_rows()
        cols = self.basis_rows() + rows
        _, pivots = Matrix(f, len(cols), n, tuple(cols)).transpose().rref()
        kept = tuple(rows[c - self.dim] for c in pivots if c >= self.dim)
        return Subspace(n, Matrix(f, len(kept), n, kept))

    def _compat(self, other: "Subspace"):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient spaces")
