"""Seeded generator of Hom-Lie superalgebra inputs, independent of homsuper.

Algebras are built three ways: even changes of basis (the transport
[x, y]' = P[P^-1 x, P^-1 y], theta' = P theta P^-1), direct sums, and
abelian pads.  Everything is plain Python over `Fraction` (the rationals)
or ints mod p, so the generator neither calls the library it feeds nor
changes cost when the library does.  Algebras leave the generator as dicts
in the library's JSON file format.

Every base algebra carries a `stem` label: two algebras built from bases
with the same label are isoclinic (they differ by basis changes and
abelian pads), and bases with different labels have different stem
fingerprints, so they are not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Alg:
    """Structure constants for i <= j, an even twist, and the stem label."""

    p: object  # None for the rationals, else the prime
    even: int
    odd: int
    brackets: dict  # (i, j) -> {k: scalar}
    twist: tuple  # rows
    stem: str

    @property
    def dim(self):
        return self.even + self.odd

    def parity(self, i):
        return 0 if i < self.even else 1


def _of(p, x):
    return Fraction(x) if p is None else int(x) % p


def _fmt(p, x):
    if p is None:
        return str(x)
    return str(x % p)


def _inv(p, x):
    return 1 / Fraction(x) if p is None else pow(x, p - 2, p)


def _make(p, even, odd, brackets, twist, stem):
    d = even + odd
    norm = {}
    for (i, j), cell in brackets.items():
        cell = {k: _of(p, v) for k, v in cell.items() if _of(p, v) != 0}
        if cell:
            norm[(i, j)] = cell
    rows = tuple(tuple(_of(p, twist[i][j]) for j in range(d)) for i in range(d))
    return Alg(p, even, odd, norm, rows, stem)


# ---------------------------------------------------------------------------
# base algebras (the same structure constants as the bundled corpus)

def _diag(*xs):
    return [[xs[i] if i == j else 0 for j in range(len(xs))] for i in range(len(xs))]


def hs(p):
    """{z | f}, [f, f] = z, identity twist."""
    return _make(p, 1, 1, {(1, 1): {0: 1}}, _diag(1, 1), "hs")


def t2(p):
    """hs with the twist diag(4, 2)."""
    return _make(p, 1, 1, {(1, 1): {0: 1}}, _diag(4, 2), "t2")


def hso(p):
    """{z | f1, f2}, [f1, f1] = [f2, f2] = z, identity twist."""
    return _make(p, 1, 2, {(1, 1): {0: 1}, (2, 2): {0: 1}}, _diag(1, 1, 1), "hso")


def g22(p):
    """(2|2) solvable algebra; diagonal twist over Q, identity mod p."""
    brackets = {(0, 1): {1: 2}, (0, 2): {2: 1}, (0, 3): {3: 1}, (2, 3): {1: 1}}
    if p is None:
        twist = _diag(1, Fraction(3, 4), Fraction(1, 2), Fraction(3, 2))
    else:
        twist = _diag(1, 1, 1, 1)
    return _make(p, 2, 2, brackets, twist, "g22")


def g21(p):
    """The subalgebra span(e1, e2 | f1) of g22: [e1, e2] = 2e2, [e1, f1] = f1."""
    brackets = {(0, 1): {1: 2}, (0, 2): {2: 1}}
    if p is None:
        twist = _diag(1, Fraction(3, 4), Fraction(1, 2))
    else:
        twist = _diag(1, 1, 1)
    return _make(p, 2, 1, brackets, twist, "g21")


def zc(p):
    """{z, c | f}, [f, f] = z, theta(c) = 2c + z.

    span(c + z) is a twist-invariant complement of the derived algebra in
    the center, so the stem part is hs with the identity twist.
    """
    return _make(p, 2, 1, {(2, 2): {0: 1}},
                 [[1, 1, 0], [0, 2, 0], [0, 0, 1]], "hs")


def abelian(p, even, odd):
    d = even + odd
    return _make(p, even, odd, {}, _diag(*([1] * d)), "")


BASES = {"hs": hs, "t2": t2, "hso": hso, "g22": g22, "g21": g21, "zc": zc}


# ---------------------------------------------------------------------------
# constructions

def direct_sum(a: Alg, b: Alg) -> Alg:
    """Componentwise sum with even coordinates first, as the library orders it."""
    if a.p != b.p:
        raise ValueError("direct sum over different fields")
    pa, qa, pb = a.even, a.odd, b.even

    def ma(i):
        return i if i < pa else pa + pb + (i - pa)

    def mb(i):
        return pa + i if i < pb else pa + pb + qa + (i - pb)

    brackets = {}
    for alg, mp in ((a, ma), (b, mb)):
        for (i, j), cell in alg.brackets.items():
            brackets[(mp(i), mp(j))] = {mp(k): v for k, v in cell.items()}
    d = a.dim + b.dim
    rows = [[0] * d for _ in range(d)]
    for alg, mp in ((a, ma), (b, mb)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                rows[mp(i)][mp(j)] = alg.twist[i][j]
    stem = "+".join(sorted(s for s in (a.stem, b.stem) if s))
    return _make(a.p, a.even + b.even, a.odd + b.odd, brackets, rows, stem)


def sum_of(parts):
    out = parts[0]
    for part in parts[1:]:
        out = direct_sum(out, part)
    return out


def bracket(a: Alg, u, v):
    """Bilinear extension of the structure constants of a to vectors."""
    p = a.p
    out = [_of(p, 0)] * a.dim
    for (i, j), cell in a.brackets.items():
        c = u[i] * v[j]
        if i != j:
            sign = -1 if a.parity(i) and a.parity(j) else 1
            c = c - sign * u[j] * v[i]
        if p is not None:
            c %= p
        if c == 0:
            continue
        for k, val in cell.items():
            out[k] = out[k] + c * val
    if p is not None:
        out = [x % p for x in out]
    return out


def matmul(p, x, y):
    n, m, k = len(x), len(y), len(y[0]) if y else 0
    out = [[sum(x[i][t] * y[t][j] for t in range(m)) for j in range(k)] for i in range(n)]
    return [[_of(p, v) for v in row] for row in out] if p is not None else out


def inverse(p, m):
    """Gauss-Jordan inverse; None when m is singular."""
    n = len(m)
    aug = [[_of(p, x) for x in row] + [_of(p, 1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        hit = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if hit is None:
            return None
        aug[c], aug[hit] = aug[hit], aug[c]
        inv = _inv(p, aug[c][c])
        aug[c] = [_of(p, inv * x) if p is not None else inv * x for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
                if p is not None:
                    aug[r] = [x % p for x in aug[r]]
    return [row[n:] for row in aug]


def transport(a: Alg, pm) -> Alg:
    """The algebra on the same space that pm maps a onto isomorphically."""
    d = a.dim
    pinv = inverse(a.p, pm)
    if pinv is None:
        raise ValueError("basis change is singular")
    cols = [[pinv[r][i] for r in range(d)] for i in range(d)]
    pcols = [[pm[r][i] for r in range(d)] for i in range(d)]
    brackets = {}
    for i in range(d):
        for j in range(i, d):
            img = [0] * d
            for t, x in enumerate(bracket(a, cols[i], cols[j])):
                if x != 0:
                    img = [y + x * c for y, c in zip(img, pcols[t])]
            brackets[(i, j)] = dict(enumerate(img))
    twist = matmul(a.p, matmul(a.p, pm, [list(r) for r in a.twist]), pinv)
    return _make(a.p, a.even, a.odd, brackets, twist, a.stem)


def _block(p, n, rng, dense):
    if dense:
        while True:
            if p is None:
                m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            else:
                m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if inverse(p, m) is not None:
                return m
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)]
            for i in range(n)]


def random_even(p, even, odd, rng: random.Random, dense: bool):
    """A random invertible even matrix: dense blocks, or a signed permutation."""
    e = _block(p, even, rng, dense)
    o = _block(p, odd, rng, dense)
    d = even + odd
    rows = [[0] * d for _ in range(d)]
    for i in range(even):
        for j in range(even):
            rows[i][j] = e[i][j]
    for i in range(odd):
        for j in range(odd):
            rows[even + i][even + j] = o[i][j]
    return [[_of(p, x) for x in row] for row in rows]


def field_name(p):
    return "Q" if p is None else f"Fp:{p}"


def to_dict(a: Alg, name: str) -> dict:
    """The algebra in the library's JSON file format."""
    brackets = [{"i": i, "j": j,
                 "result": {str(k): _fmt(a.p, v) for k, v in sorted(cell.items())}}
                for (i, j), cell in sorted(a.brackets.items())]
    return {
        "name": name,
        "field": field_name(a.p),
        "even_dim": a.even,
        "odd_dim": a.odd,
        "theta": [[_fmt(a.p, x) for x in row] for row in a.twist],
        "brackets": brackets,
    }


def matrix_strings(p, m):
    return [[_fmt(p, x) for x in row] for row in m]
