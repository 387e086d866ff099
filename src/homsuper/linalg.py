"""Exact linear algebra over the rationals and odd prime fields.

Everything downstream (axiom validation, factor sets, isoclinism search)
reduces to the primitives here: reduced row-echelon forms, kernels, exact
solving, and deterministic subspace arithmetic.  Scalars are either
`fractions.Fraction` (rationals, always in lowest terms with positive
denominator) or plain ints reduced to [0, p) (prime fields).  All values
are immutable and all operations are pure, so they are safe to share.

Kernel contract.  The scalar kernels (`Matrix.matvec`, `Matrix.__matmul__`,
`Matrix.rref`, `Subspace.coordinates_of` and `core.GradedBilinearTable.eval`)
take canonical values: `Field.of` output, which is what every `Matrix`,
`Subspace` and algebra holds.  They visit only nonzero entries, multiply
and add with plain `*`, `+` and `-` instead of the `Field` methods, and
reduce once per output entry: `% p` over F_p, nothing over Q, where
`Fraction` arithmetic is already canonical.  An entry that receives no
term is the field's zero.  The results are the values, of the same types,
that reducing after every operation would give.

The three integer kernels, `core.check_hom_jacobi`, the cocycle walk of
`factorset.validate_factor_set` and `core._preservation_failures` (the
bracket-preservation loop of `check_multiplicative`, `check_homomorphism`
and `check_multiplicative_factor_set`, which no longer goes through
`eval`), run on ints over both fields:
  * setup: `core._int_forms` converts each table and map once per call
    (an object passed twice in a row once).  Over Q it clears
    denominators, multiplying the cells of a table (or the entries of a
    map) by the lcm of their denominators.  Every term of the Hom-Jacobi
    or cocycle identity has the same degree in each of these scales, so
    the scaled sum is the true one times one known scale; the two sides
    of bracket preservation differ in degree, so each is also multiplied
    by the scales that only the other carries.  Over F_p the residues
    are ints already and are used as they are, with scale 1.  A kernel
    with no cells to sum returns at once;
  * packing (`_Slots`): a target-coordinate vector is one int, entry k in
    the slot at bit w * k.  The tables [theta(b_a), b_m], r(b_m, T b_k)
    and r(T b_k, b_m), or t2(a b_i, b_m) and the columns of b, are built
    packed from the row index, so each inner term is one big-int
    multiply-add;
  * slot width: each call bounds the absolute entries of any sum it tests
    by products of the largest cell sums, column sums and entries of its
    scaled ints (each kernel's docstring gives its bound), and derives w
    from that bound, so no slot carries into the next;
  * zero test: over Q the packed sum is 0.  Over F_p every slot must
    vanish mod p; an offset that is a multiple of p makes the slots
    nonnegative, and one multiply, shift and mask by a constant yields all
    their quotients by p (see `_Slots`);
  * records: a failing triple's or pair's sums are unpacked from the same
    slots, each entry divided by the scale as a `Fraction` over Q or
    reduced mod p over F_p, so a `Failure` holds the same values, of the
    same types, as the scalar kernels would give.

The elimination `_eliminate`, behind `core.center` and `core.derived`,
inserts rows one at a time into an echelon keyed by lead slots, with no
dense matrix and no `Matrix.from_rows`:
  * rows: each is assembled from (offset, sign, cell) blocks, such as the
    cells of the row index.  Over Q it is a sparse {slot: Fraction} dict.
    Over F_p it is one packed int in the `_Slots` layout, scale 1, bound
    (p - 1)^2: a kept row's slots are residues in [0, p), so a row
    operation x - c * row with c in [0, p) leaves every slot in
    [-(p - 1)^2, p - 1], and `_Slots.reduce`, one multiply, shift and mask
    on the whole row, brings them back to residues without a carry;
  * leads: a row's lead is its lowest nonzero slot, over F_p the slot of
    its lowest set bit, since every slot is a residue.  Each kept row has
    its own lead, and a new row is reduced at its lead by the kept row
    there, one row operation each, until its main part is zero or has a
    lead no kept row holds;
  * kernel: with a tail that starts as e_i on row i, a row operation
    keeps every row equal to sum c_k (main_k | e_k) for its tail c, so a
    row whose main part reduces to zero leaves a tail c with
    sum c_k main_k = 0, a left-kernel vector.  The r kept rows, whose
    leads differ, are independent, so r is the rank.  The d - r tails are
    independent too, each having 1 at its own row and 0 at every other
    row that left a tail, since only kept rows reduce a row; so they are
    a basis of the left kernel, of dimension d - r.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
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


#: CPython's default limit on the digits of an int read from a string: a
#: rational scalar whose numerator or denominator has more is refused.
_MAX_DIGITS = 4300
#: The exponent of a decimal scalar, spelled as `Fraction` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(text: str) -> Fraction:
    """Fraction(text), refusing a value of more than _MAX_DIGITS digits.

    Without an exponent a value has no more digits than its text has
    characters, so a short text is read as it is.  `Fraction` applies an
    exponent e by building 10**|e|, which takes seconds once |e| runs into
    the millions.  A nonzero value whose |e| exceeds _MAX_DIGITS plus the
    length of its text has more digits than _MAX_DIGITS, so only its
    mantissa, the text with exponent 0, is read: to refuse the value, or
    to return 0."""
    if len(text) <= _MAX_DIGITS and "e" not in text and "E" not in text:
        return Fraction(text)
    m = _EXPONENT.search(text)
    if m and abs(int(m[1])) > _MAX_DIGITS + len(text):
        try:
            value = Fraction(text[:m.start(1)] + "0" + text[m.end(1):])
        except ValueError:
            value = Fraction(text)  # malformed too, so refused before 10**|e| is built
        if not value:
            return value
    else:
        value = Fraction(text)
        if max(abs(value.numerator), value.denominator) < 10 ** _MAX_DIGITS:
            return value
    raise ValueError(f"value has more than {_MAX_DIGITS} digits")


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
        """Parse "a" or "a/b" (rationals) or a decimal string (prime fields).
        A value whose numerator or denominator has more than _MAX_DIGITS
        digits is refused, exponent notation included (see `_rational`)."""
        try:
            if self.p is None:
                return _rational(text)
            return int(text) % self.p
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad scalar {text!r} for field {self.name}: {exc}") from None

    def fmt(self, a) -> str:
        """Canonical string form; inverse of parse on canonical elements of
        at most _MAX_DIGITS digits.  Longer values, which only computations
        make, are printed in full too."""
        if self.p is None:
            try:
                return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
            except ValueError:  # past the int-string digit limit, which Decimal does not have
                n, d = str(Decimal(a.numerator)), str(Decimal(a.denominator))
                return n if a.denominator == 1 else f"{n}/{d}"
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


class _Slots:
    """Integer vectors of length n packed into one int, entry k in the slot
    at bit w * k, for the integer kernels of `core` and `factorset`.

    Packing is linear over the ints, so a kernel sums packed values with one
    big-int multiply-add per term.  Every vector it tests or unpacks must
    have entries of absolute value at most `bound`; the width w is derived
    from that bound, so no slot carries into the next.  Over Q the packed
    vectors are `scale` times the field vectors; over F_p they are lifts of
    the residues (scale 1), reduced only in `reduce`, `is_zero` and
    `unpack`.
    """

    def __init__(self, field: Field, n: int, bound: int, scale: int):
        p = field.p
        self.p, self.n, self.scale = p, n, scale
        if p is None:
            # |entry| < 2^(w-1): the signed slots are unique, and zero only
            # when every entry is
            self.w = bound.bit_length() + 1
            return
        # Shifted by c, a multiple of p, the entries lie in [0, 2c].  For
        # such u, (u * m) >> s = u // p (Granlund-Montgomery, 2^s >= (2c + 1) p),
        # and u * m < 2^w, so one product, shift and mask give every slot's
        # quotient by p at once.
        c = -(-bound // p) * p
        self._shift = s = ((2 * c + 1) * p).bit_length()
        self._magic = m = -(-(1 << s) // p)
        self.w = w = max(s + 1, (2 * c * m).bit_length())
        ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)
        self._offset = c * ones
        self._low = ((1 << (w - s)) - 1) * ones

    def pack(self, entries) -> int:
        """The packed vector with the given (index, int) entries."""
        w = self.w
        return sum(v << (w * k) for k, v in entries)

    def reduce(self, x: int) -> int:
        """Over F_p, the packed vector of the residues in [0, p) of x's
        entries: x shifted by the offset, less p times every slot's
        quotient."""
        u = x + self._offset
        return u - self.p * (((u * self._magic) >> self._shift) & self._low)

    def is_zero(self, x: int) -> bool:
        """True when the packed vector x is zero in the field: over F_p,
        when `reduce` would give 0, tested without forming the difference."""
        p = self.p
        if p is None:
            return not x
        u = x + self._offset
        return u == p * (((u * self._magic) >> self._shift) & self._low)

    def unpack(self, x: int) -> tuple:
        """The field vector of x: each entry divided by the scale over Q,
        reduced mod p over F_p."""
        w = self.w
        mask, half = (1 << w) - 1, 1 << (w - 1)
        out = []
        for _ in range(self.n):
            v = x & mask
            if v >= half:
                v -= mask + 1
            out.append(v)
            x = (x - v) >> w
        p = self.p
        if p is None:
            return tuple(Fraction(v, self.scale) for v in out)
        return tuple(v % p for v in out)


def _eliminate(field: Field, main: int, rows, tail: int = 0) -> tuple:
    """(leads, tails): the lead slots, in increasing order, of the echelon
    that rows inserted one at a time build, and the tail of every row whose
    main part reduces to zero, in the order of the rows.

    A row has main + tail slots, the main part first, and is given as
    (offset, sign, cell) blocks at distinct slots: the entry sign * v at
    slot offset + k for each (k, v) in the {k: canonical value} dict cell,
    sign being 1 or -1.  A tail is a tuple of tail canonical values.  Over
    F_p a row is one packed int (`_Slots`, scale 1) and over Q a sparse
    {slot: Fraction} dict; see the Kernel contract."""
    p = field.p
    n = main + tail
    leads, tails = {}, []
    if p is None:
        zero = field.zero
        for blocks in rows:
            x = {(off + k): (v if s > 0 else -v) for off, s, cell in blocks
                 for k, v in cell.items()}
            while True:
                lead = min(x, default=n)
                if lead >= main:
                    tails.append(tuple(x.get(k, zero) for k in range(main, n)))
                    break
                piv = leads.get(lead)
                if piv is None:
                    inv = 1 / x[lead]
                    leads[lead] = tuple((k, inv * v) for k, v in x.items())
                    break
                c = x[lead]
                for k, v in piv:
                    y = x.get(k, 0) - c * v
                    if y:
                        x[k] = y
                    else:
                        del x[k]
        return sorted(leads), tails
    slots = _Slots(field, n, (p - 1) ** 2, 1)
    w = slots.w
    mask = (1 << w) - 1
    packed = {}
    for blocks in rows:
        x = 0
        for off, s, cell in blocks:
            c = packed.get(id(cell))
            if c is None:
                c = packed[id(cell)] = slots.pack(cell.items())
            x += (c if s > 0 else -c) << (w * off)
        x = slots.reduce(x)
        while True:
            lead = ((x & -x).bit_length() - 1) // w if x else n
            if lead >= main:
                t = x >> (w * main)
                tails.append(tuple((t >> (w * k)) & mask for k in range(tail)))
                break
            v = (x >> (w * lead)) & mask
            piv = leads.get(lead)
            if piv is None:
                leads[lead] = (x, pow(v, -1, p))
                break
            row, inv = piv
            x = slots.reduce(x - v * inv % p * row)
    return sorted(leads), tails


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
        """The kernel {x : self @ x = 0}, dimension ncols - rank, its RREF
        basis read off one RREF of self with the columns reversed.

        Row r of that RREF has its entries only at and after its pivot pc.
        So the kernel vector of a free reversed column rc (1 there, the
        negated reduced entries at the pivots) is nonzero only at original
        column n-1-rc, where it is 1, and at original pivot columns
        n-1-pc > n-1-rc.  Its leading 1 sits at its own free column and it
        vanishes at every other free column, so these vectors, listed by
        increasing original free column, are the kernel's unique RREF."""
        f, n = self.field, self.ncols
        red, pivots = Matrix(f, self.nrows, n, tuple(r[::-1] for r in self.entries)).rref()
        taken = set(pivots)
        basis = []
        for rc in reversed(range(n)):
            if rc in taken:
                continue
            v = [f.zero] * n
            v[n - 1 - rc] = f.one
            for row, pc in zip(red.entries, pivots):
                v[n - 1 - pc] = f.neg(row[rc])
            basis.append(tuple(v))
        return Subspace(n, Matrix(f, len(basis), n, tuple(basis)))

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
        """(-1)^n times the constant term of `charpoly`, det(xI - A) at 0."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        c = self.charpoly()[-1]
        return self.field.neg(c) if self.nrows % 2 else c

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
        """Intersection via the kernel of the stacked bases: x U + y W = 0
        for the basis matrices U and W puts x U in both subspaces, and every
        common vector arises so."""
        self._compat(other)
        f = self.field
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(f, self.ambient_dim)
        ker = self.basis.vstack(other.basis).transpose().nullspace().basis
        xs = ker.submatrix(range(ker.nrows), range(self.dim))
        return Subspace.from_vectors(f, self.ambient_dim, (xs @ self.basis).entries)

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
