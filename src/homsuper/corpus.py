"""Bundled example algebras.

These small algebras exercise every construction in the package and
double as golden inputs for the CLI test-suite:

  * a_p_q  -- abelian algebras with identity twist;
  * hs     -- basis {z | f}, [f, f] = z, identity twist (stem);
  * hs2    -- basis {z, c | f}, [f, f] = z: hs plus a central pad;
  * t2     -- hs with the weighted twist diag(4, 2);
  * g22    -- a (2|2) solvable algebra with nontrivial even-even,
              even-odd, and odd-odd brackets.

Finite-field variants reduce the same structure constants mod 3; the
rational g22 carries a non-identity twist whose weights do not survive
reduction mod 3, so its F_3 variant uses the identity twist.
"""

from __future__ import annotations

from fractions import Fraction

from .core import HomLieSuperalgebra, SuperSpace, abelian
from .linalg import GF, QQ, Field, Matrix


def hs(field: Field = QQ) -> HomLieSuperalgebra:
    return HomLieSuperalgebra(
        SuperSpace(1, 1, ("z", "f")),
        {(1, 1): {0: 1}},
        Matrix.identity(field, 2))


def hs2(field: Field = QQ) -> HomLieSuperalgebra:
    return HomLieSuperalgebra(
        SuperSpace(2, 1, ("z", "c", "f")),
        {(2, 2): {0: 1}},
        Matrix.identity(field, 3))


def t2(field: Field = QQ) -> HomLieSuperalgebra:
    return HomLieSuperalgebra(
        SuperSpace(1, 1, ("z", "f")),
        {(1, 1): {0: 1}},
        Matrix.from_rows(field, [[4, 0], [0, 2]], 2))


def g22(field: Field = QQ) -> HomLieSuperalgebra:
    space = SuperSpace(2, 2, ("e1", "e2", "f1", "f2"))
    brackets = {(0, 1): {1: 2}, (0, 2): {2: 1}, (0, 3): {3: 1}, (2, 3): {1: 1}}
    if field.p is None:
        twist = Matrix.from_rows(field, [
            [1, 0, 0, 0],
            [0, Fraction(3, 4), 0, 0],
            [0, 0, Fraction(1, 2), 0],
            [0, 0, 0, Fraction(3, 2)]], 4)
    else:
        twist = Matrix.identity(field, 4)
    return HomLieSuperalgebra(space, brackets, twist)


def corpus() -> dict:
    """All bundled algebras, keyed by their file names."""
    f3 = GF(3)
    return {
        "a_1_0": abelian(QQ, 1, 0),
        "a_0_1": abelian(QQ, 0, 1),
        "a_1_1": abelian(QQ, 1, 1),
        "a_2_1": abelian(QQ, 2, 1),
        "hs": hs(),
        "hs2": hs2(),
        "t2": t2(),
        "g22": g22(),
        "a_1_1_f3": abelian(f3, 1, 1),
        "hs_f3": hs(f3),
        "hs2_f3": hs2(f3),
        "t2_f3": t2(f3),
        "g22_f3": g22(f3),
    }
