"""Reference implementations of two kernel routines, kept as oracles.

`reference_from_subspace` splits a subspace into parity parts by
intersecting it with the even and odd coordinate blocks;
`reference_field_of` coerces every scalar afresh, canonical or not.
`GradedSubspace.from_subspace` and `Field.of` in `homsuper` must give
equal results, of the same type, and raise the same errors.
"""

from fractions import Fraction

from homsuper.core import GradedSubspace, SuperSpace
from homsuper.linalg import Field, Subspace, basis_vec


def reference_from_subspace(space: SuperSpace, sub: Subspace) -> GradedSubspace:
    """Split a full-space subspace into parity parts; fails when the
    subspace is not graded."""
    f = sub.field
    p, q = space.dims
    even_block = Subspace.from_vectors(f, space.dim,
                                       [basis_vec(f, space.dim, i) for i in range(p)])
    odd_block = Subspace.from_vectors(f, space.dim,
                                      [basis_vec(f, space.dim, p + i) for i in range(q)])
    e_full = sub.intersect(even_block)
    o_full = sub.intersect(odd_block)
    if e_full.dim + o_full.dim != sub.dim:
        raise ValueError("subspace is not graded")
    evens = [row[:p] for row in e_full.basis_rows()]
    odds = [row[p:] for row in o_full.basis_rows()]
    return GradedSubspace(Subspace.from_vectors(f, p, evens),
                          Subspace.from_vectors(f, q, odds))


def reference_field_of(field: Field, x):
    """Coerce an int, Fraction, or string to a canonical field element."""
    if isinstance(x, str):
        return field.parse(x)
    if field.p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        if x.denominator % field.p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {field.p}")
        return x.numerator * pow(x.denominator, -1, field.p) % field.p
    return int(x) % field.p
