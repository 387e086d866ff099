"""Reference implementation of `iso_search`: the brute-force enumerator
that examines every candidate in turn, without block pruning.

Kept as an oracle for the pruned search in `homsuper.isoclinism`, which
must return the same matrix, the same None, or raise SearchInconclusive
with the same reason, for every budget.
"""

import itertools
from typing import Optional, Sequence

from homsuper.core import EvenLinearMap, HomLieSuperalgebra, is_isomorphism
from homsuper.errors import PreconditionError, SearchInconclusive
from homsuper.isoclinism import DEFAULT_BUDGET, DEFAULT_SCALARS, fingerprint
from homsuper.linalg import Field, Matrix


def reference_iso_search(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra,
                         budget: int = DEFAULT_BUDGET,
                         scalars: Sequence = DEFAULT_SCALARS) -> Optional[EvenLinearMap]:
    if g1.field != g2.field:
        raise PreconditionError("isomorphism search requires the same scalar field")
    if fingerprint(g1) != fingerprint(g2):
        return None
    f = g1.field
    p, q = g1.space.dims
    count = 0
    if f.p is not None:
        for flat in itertools.product(f.elements(), repeat=p * p + q * q):
            count += 1
            if count > budget:
                raise SearchInconclusive("budget")
            m = _even_matrix_from_blocks(f, p, q,
                                         flat[:p * p], flat[p * p:])
            if not m.is_invertible():
                continue
            cand = EvenLinearMap(g1.space, g2.space, m)
            if is_isomorphism(cand, g1, g2):
                return cand
        return None
    scalars = tuple(f.of(c) for c in scalars)
    if any(c == 0 for c in scalars):
        raise ValueError("diagonal scalars must be nonzero")
    for pe in itertools.permutations(range(p)):
        for po in itertools.permutations(range(q)):
            for diag in itertools.product(scalars, repeat=p + q):
                count += 1
                if count > budget:
                    raise SearchInconclusive("budget")
                cols = []
                for i in range(p):
                    cols.append([diag[i] if r == pe[i] else f.zero for r in range(p)]
                                + [f.zero] * q)
                for i in range(q):
                    cols.append([f.zero] * p
                                + [diag[p + i] if r == po[i] else f.zero for r in range(q)])
                cand = EvenLinearMap(g1.space, g2.space, Matrix.from_columns(f, cols, p + q))
                if is_isomorphism(cand, g1, g2):
                    return cand
    raise SearchInconclusive("restricted-search-exhausted")


def _even_matrix_from_blocks(f: Field, p: int, q: int,
                             even_flat: Sequence, odd_flat: Sequence) -> Matrix:
    rows = []
    for i in range(p):
        rows.append(list(even_flat[i * p:(i + 1) * p]) + [f.zero] * q)
    for i in range(q):
        rows.append([f.zero] * p + list(odd_flat[i * q:(i + 1) * q]))
    return Matrix.from_rows(f, rows, p + q)
