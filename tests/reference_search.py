"""Reference implementations of `iso_search`: two positional enumerators
over the same candidates, in the same order.

`reference_iso_search` examines every candidate of `candidates` in turn.
`pruned_reference_iso_search` rejects whole parity blocks at once and is
fast enough for the cases the brute-force one cannot finish.  Both count
their budget in positions of the candidate order, not in search nodes,
so they are oracles for the result of `homsuper.isoclinism.iso_search`
at an unbounded budget: the same matrix, the same None, or
SearchInconclusive with the same reason.
"""

import itertools
from typing import Optional, Sequence

from homsuper.core import EvenLinearMap, HomLieSuperalgebra, is_isomorphism
from homsuper.errors import PreconditionError, SearchInconclusive
from homsuper.isoclinism import DEFAULT_BUDGET, DEFAULT_SCALARS, fingerprint
from homsuper.linalg import Field, Matrix, _sparse_vec


def reference_iso_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                         budget: int = DEFAULT_BUDGET,
                         scalars: Sequence = DEFAULT_SCALARS) -> Optional[EvenLinearMap]:
    if g1.field != g2.field:
        raise PreconditionError("isomorphism search requires the same scalar field")
    if fingerprint(g1) != fingerprint(g2):
        return None
    f = g1.field
    for count, m in enumerate(candidates(f, *g1.space.dims, scalars), 1):
        if count > budget:
            raise SearchInconclusive("budget")
        cand = EvenLinearMap(g1.space, g2.space, m)
        if m.is_invertible() and is_isomorphism(cand, g1, g2):
            return cand
    if f.p is None:
        raise SearchInconclusive("restricted-search-exhausted")
    return None


def candidates(f: Field, p: int, q: int, scalars: Sequence = DEFAULT_SCALARS):
    """The candidate matrices diag(E, O) of the search, in its order: over
    a prime field every even matrix, lexicographically in the entries of E
    row by row, then those of O; over the rationals the restricted family,
    by even permutation, odd permutation, then diagonal."""
    if f.p is not None:
        for flat in itertools.product(f.elements(), repeat=p * p + q * q):
            yield _even_matrix_from_blocks(f, p, q, flat[:p * p], flat[p * p:])
        return
    scalars = tuple(f.of(c) for c in scalars)
    if any(c == 0 for c in scalars):
        raise ValueError("diagonal scalars must be nonzero")
    for pe in itertools.permutations(range(p)):
        for po in itertools.permutations(range(q)):
            for diag in itertools.product(scalars, repeat=p + q):
                cols = []
                for i in range(p):
                    cols.append([diag[i] if r == pe[i] else f.zero for r in range(p)]
                                + [f.zero] * q)
                for i in range(q):
                    cols.append([f.zero] * p
                                + [diag[p + i] if r == po[i] else f.zero for r in range(q)])
                yield Matrix.from_columns(f, cols, p + q)


def _even_matrix_from_blocks(f: Field, p: int, q: int,
                             even_flat: Sequence, odd_flat: Sequence) -> Matrix:
    rows = []
    for i in range(p):
        rows.append(list(even_flat[i * p:(i + 1) * p]) + [f.zero] * q)
    for i in range(q):
        rows.append([f.zero] * p + list(odd_flat[i * q:(i + 1) * q]))
    return Matrix.from_rows(f, rows, p + q)


def pruned_reference_iso_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                                budget: int = DEFAULT_BUDGET) -> Optional[EvenLinearMap]:
    """The block-pruned positional enumerator: the candidates and order of
    `reference_iso_search`, with conditions on one parity block rejecting
    every candidate that shares it.

    An even block is rejected when E is singular, fails the even half of
    twist intertwining, or breaks a bracket relation between two even
    basis elements; an odd block when O is singular or fails the odd half
    of twist intertwining.  The budget counts positions in the candidate
    order, so a rejected even block charges all the odd blocks behind it
    at once; it gives the same result as the brute-force enumerator at
    every budget, in a fraction of its time.
    """
    if g1.field != g2.field:
        raise PreconditionError("isomorphism search requires the same scalar field")
    if fingerprint(g1) != fingerprint(g2):
        return None
    f = g1.field
    p, q = g1.space.dims
    if f.p is not None:
        elems = tuple(f.elements())
        return _pruned_search(g1, g2, budget, _prime_field_blocks(elems, p, q),
                              len(elems) ** (q * q))
    scalars = tuple(f.of(c) for c in DEFAULT_SCALARS)
    found = _pruned_search(g1, g2, budget, _monomial_blocks(f, scalars, p, q),
                           len(scalars) ** q)
    if found is None:
        raise SearchInconclusive("restricted-search-exhausted")
    return found


def _prime_field_blocks(elems: tuple, p: int, q: int):
    """Even blocks of all p x p matrices, each with all odd q x q blocks."""
    for even in itertools.product(elems, repeat=p * p):
        yield _square(even, p), _prime_field_odd_blocks(elems, q)


def _prime_field_odd_blocks(elems: tuple, q: int):
    for odd in itertools.product(elems, repeat=q * q):
        yield _square(odd, q)


def _monomial_blocks(f: Field, scalars: tuple, p: int, q: int):
    """Permutation-times-diagonal even blocks, each with its odd blocks."""
    for pe in itertools.permutations(range(p)):
        for po in itertools.permutations(range(q)):
            for de in itertools.product(scalars, repeat=p):
                yield _monomial(f, pe, de), _monomial_odd_blocks(f, scalars, po)


def _monomial_odd_blocks(f: Field, scalars: tuple, po: tuple):
    for do in itertools.product(scalars, repeat=len(po)):
        yield _monomial(f, po, do)


def _square(flat: Sequence, n: int) -> tuple:
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def _monomial(f: Field, perm: Sequence[int], diag: Sequence) -> tuple:
    """Column i holds diag[i] in row perm[i]."""
    rows = [[f.zero] * len(perm) for _ in perm]
    for i, (r, c) in enumerate(zip(perm, diag)):
        rows[r][i] = c
    return tuple(map(tuple, rows))


def _pruned_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                   budget: int, blocks, odd_count: int) -> Optional[EvenLinearMap]:
    """First isomorphism diag(E, O) in block order, or None.

    `blocks` yields each even block E together with the odd blocks that
    follow it in the candidate order, odd_count of them; a rejected E
    advances the position past all of them at once.
    """
    f = g1.field
    mod = f.p
    p, q = g1.space.dims
    d = p + q
    twists = [(g1.twist.submatrix(idx, idx), g2.twist.submatrix(idx, idx))
              for idx in (range(p), range(p, d))]
    table = [[_sparse_vec(g2.basis_bracket(a, b)) for b in range(d)] for a in range(d)]
    even_rel, rest_rel = [], []
    for i in range(d):
        for j in range(i, d):
            rel = (i, j, _sparse_vec(g1.basis_bracket(i, j)))
            pure_even = j < p and all(k < p for k, _ in rel[2])
            (even_rel if pure_even else rest_rel).append(rel)

    def relations_hold(rels, cols):
        for i, j, value in rels:
            acc = [0] * d
            for k, v in value:
                for r, x in cols[k]:
                    acc[r] += v * x
            for a, x in cols[i]:
                for b, y in cols[j]:
                    xy = x * y
                    for k, v in table[a][b]:
                        acc[k] -= xy * v
            if any(x % mod for x in acc) if mod else any(acc):
                return False
        return True

    def block_ok(block, parity):
        """Twist intertwining and invertibility of one diagonal block."""
        m = Matrix.from_rows(f, block, len(block))
        t1, t2 = twists[parity]
        return m @ t1 == t2 @ m and m.is_invertible()

    count = 0
    odd_verdicts = {}
    for even, odds in blocks:
        cols = [_block_column(even, i, 0) for i in range(p)] + [None] * q
        if not (relations_hold(even_rel, cols) and block_ok(even, 0)):
            count += odd_count
            if count > budget:
                raise SearchInconclusive("budget")
            continue
        for odd in odds:
            count += 1
            if count > budget:
                raise SearchInconclusive("budget")
            ok = odd_verdicts.get(odd)
            if ok is None:
                ok = odd_verdicts[odd] = block_ok(odd, 1)
            if not ok:
                continue
            for a in range(q):
                cols[p + a] = _block_column(odd, a, p)
            if relations_hold(rest_rel, cols):
                rows = [r + (f.zero,) * q for r in even] \
                    + [(f.zero,) * p + r for r in odd]
                cand = EvenLinearMap(g1.space, g2.space, Matrix.from_rows(f, rows, d))
                if not is_isomorphism(cand, g1, g2):
                    raise RuntimeError("pruned search accepted a non-isomorphism")
                return cand
    return None


def _block_column(block: tuple, i: int, off: int) -> tuple:
    """Nonzero entries of column i of a diagonal block placed at offset off."""
    return tuple((off + r, row[i]) for r, row in enumerate(block) if row[i] != 0)
