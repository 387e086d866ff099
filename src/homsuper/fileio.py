"""JSON file formats for algebras, factor sets, and isoclinism witnesses.

All scalars are encoded as strings: "a" or "a/b" with b > 0 and
gcd(|a|, b) = 1 over the rationals, decimal strings in [0, p) over a
prime field.  Non-canonical but well-formed inputs (say "4/6", or "1e3"
over the rationals) are accepted and canonicalized, so parse -> serialize
-> parse is the identity on canonical files.  A scalar whose value has
more than 4,300 digits in its numerator or denominator, CPython's default
limit for int strings, is a FormatError however it is spelled: "1e5000"
is refused as promptly as a 5,000-digit literal.  Only bracket entries
with i <= j are accepted; a redundant i > j entry is a load-time error,
keeping one canonical source of truth per structure constant.
"""

from __future__ import annotations

import json

from .core import (EvenLinearMap, GradedBilinearTable, HomLieSuperalgebra,
                   SuperSpace)
from .errors import FormatError
from .factorset import FactorSet
from .isoclinism import IsoclinismWitness, central_quotient, derived_algebra
from .linalg import GF, QQ, Field, Matrix


def parse_field(text) -> Field:
    if text == "Q":
        return QQ
    if isinstance(text, str) and text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise FormatError(f"bad field tag {text!r}") from None
        try:
            return GF(p)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    raise FormatError(f"bad field tag {text!r}; expected \"Q\" or \"Fp:<prime>\"")


def _scalar(field: Field, value):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise FormatError(f"scalar must be a string or integer, got {value!r}")
    if isinstance(value, int):
        return field.of(value)
    return field.parse(value)


def matrix_to_lists(m: Matrix) -> list:
    return [[m.field.fmt(x) for x in m.row(i)] for i in range(m.nrows)]


def matrix_from_lists(field: Field, data, nrows: int, ncols: int) -> Matrix:
    if not isinstance(data, list) or len(data) != nrows \
            or any(not isinstance(r, list) or len(r) != ncols for r in data):
        raise FormatError(f"expected a {nrows}x{ncols} matrix")
    return Matrix.from_rows(field, [[_scalar(field, x) for x in r] for r in data], ncols)


def _even_square(field: Field, data, space: SuperSpace, noun: str) -> Matrix:
    """A parity-even square matrix on space: theta, or a center twist."""
    m = matrix_from_lists(field, data, space.dim, space.dim)
    for i in range(space.dim):
        for j in range(space.dim):
            if space.parity(i) != space.parity(j) and m[i, j] != 0:
                raise FormatError(
                    f"{noun} must be parity-even: nonzero entry at ({i}, {j})")
    return m


def _expect(data: dict, key: str):
    if key not in data:
        raise FormatError(f"missing key {key!r}")
    return data[key]


def _dim(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"{key} must be a non-negative integer")
    return value


def _table_to_list(table: GradedBilinearTable) -> list:
    f = table.field
    return [{"i": i, "j": j, "result": {str(k): f.fmt(cell[k]) for k in sorted(cell)}}
            for (i, j), cell in sorted(table.cells.items())]


def _table_from_list(field: Field, raw, source: SuperSpace, target: SuperSpace,
                     noun: str) -> dict:
    """Cells of a bilinear table from its file entries, i <= j only."""
    if not isinstance(raw, list):
        raise FormatError(f"{noun}s must be a list")
    cells = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError(f"each {noun} entry must be an object")
        i = _dim(_expect(entry, "i"), "i")
        j = _dim(_expect(entry, "j"), "j")
        if i >= source.dim or j >= source.dim:
            raise FormatError(f"{noun} index ({i}, {j}) out of range")
        if i > j:
            raise FormatError(
                f"redundant {noun} entry ({i}, {j}): only i <= j is stored")
        if (i, j) in cells:
            raise FormatError(f"duplicate {noun} entry ({i}, {j})")
        result = _expect(entry, "result")
        if not isinstance(result, dict):
            raise FormatError(f"{noun} result must be an object")
        cell = {}
        want = (source.parity(i) + source.parity(j)) % 2
        for ks, vs in result.items():
            try:
                k = int(ks)
            except (TypeError, ValueError):
                raise FormatError(f"bad result index {ks!r}") from None
            if not 0 <= k < target.dim:
                raise FormatError(f"result index {k} out of range")
            v = _scalar(field, vs)
            if v != 0 and target.parity(k) != want:
                raise FormatError(
                    f"parity violation: [{i}, {j}] has a component on index {k}")
            cell[k] = v
        cells[(i, j)] = cell
    return cells


# ---------------------------------------------------------------------------
# algebra files

def algebra_to_dict(g: HomLieSuperalgebra, name: str) -> dict:
    out = {
        "name": name,
        "field": g.field.name,
        "even_dim": g.space.even_dim,
        "odd_dim": g.space.odd_dim,
        "theta": matrix_to_lists(g.twist),
        "brackets": _table_to_list(g.table),
    }
    if g.space.basis_names is not None:
        out["basis_names"] = list(g.space.basis_names)
    return out


def algebra_from_dict(data: dict):
    """Parse and validate an algebra file; returns (name, algebra)."""
    if not isinstance(data, dict):
        raise FormatError("algebra file must be a JSON object")
    field = parse_field(_expect(data, "field"))
    p = _dim(_expect(data, "even_dim"), "even_dim")
    q = _dim(_expect(data, "odd_dim"), "odd_dim")
    d = p + q
    names = data.get("basis_names")
    if names is not None:
        if not isinstance(names, list) or len(names) != d \
                or any(not isinstance(n, str) for n in names):
            raise FormatError("basis_names must be a list of p+q strings")
        names = tuple(names)
    space = SuperSpace(p, q, names)
    theta = _even_square(field, _expect(data, "theta"), space, "theta")
    brackets = _table_from_list(field, _expect(data, "brackets"), space, space, "bracket")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    return name, HomLieSuperalgebra(space, brackets, theta)


def load_algebra(path: str):
    return algebra_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# factor-set files

def factorset_to_dict(fs: FactorSet, name: str) -> dict:
    return {
        "name": name,
        "field": fs.field.name,
        "quotient": algebra_to_dict(fs.quotient, f"{name}.quotient"),
        "center": {
            "even_dim": fs.center_space.even_dim,
            "odd_dim": fs.center_space.odd_dim,
            "twist": matrix_to_lists(fs.center_twist),
        },
        "coeffs": _table_to_list(fs.table),
    }


def factorset_from_dict(data: dict):
    if not isinstance(data, dict):
        raise FormatError("factor-set file must be a JSON object")
    field = parse_field(_expect(data, "field"))
    _, qalg = algebra_from_dict(_expect(data, "quotient"))
    if qalg.field != field:
        raise FormatError("quotient field does not match the file field")
    cdata = _expect(data, "center")
    if not isinstance(cdata, dict):
        raise FormatError("center must be an object")
    pz = _dim(_expect(cdata, "even_dim"), "center even_dim")
    qz = _dim(_expect(cdata, "odd_dim"), "center odd_dim")
    center_space = SuperSpace(pz, qz)
    center_twist = _even_square(field, _expect(cdata, "twist"), center_space, "center twist")
    coeffs = _table_from_list(field, _expect(data, "coeffs"), qalg.space, center_space,
                              "coefficient")
    try:
        fs = FactorSet(qalg, center_space, center_twist, coeffs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return data.get("name", ""), fs


def load_factorset(path: str):
    return factorset_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# witness files

def witness_to_dict(w: IsoclinismWitness, g1: HomLieSuperalgebra,
                    g2: HomLieSuperalgebra) -> dict:
    """Serialize a witness together with the deterministic basis
    conventions (central-quotient representatives and derived bases) the
    matrices refer to."""
    conventions, _ = _conventions(g1, g2)
    return {
        "field": g1.field.name,
        "quotient_map": matrix_to_lists(w.quotient_map.matrix),
        "derived_map": matrix_to_lists(w.derived_map.matrix),
        "conventions": conventions,
    }


def _conventions(g1: HomLieSuperalgebra, g2: HomLieSuperalgebra):
    """The basis conventions of a witness between g1 and g2, keyed as in the
    file, and the (central quotient, derived algebra) pair of each side."""
    conventions, algebras = {}, []
    for tag, g in (("g1", g1), ("g2", g2)):
        q, _, sect = central_quotient(g)
        d, incl = derived_algebra(g)
        conventions[f"{tag}_quotient_reps"] = matrix_to_lists(sect.matrix.transpose())
        conventions[f"{tag}_derived_basis"] = matrix_to_lists(incl.matrix.transpose())
        algebras.append((q, d))
    return conventions, algebras


def witness_from_dict(data: dict, g1: HomLieSuperalgebra,
                      g2: HomLieSuperalgebra) -> IsoclinismWitness:
    if not isinstance(data, dict):
        raise FormatError("witness file must be a JSON object")
    field = parse_field(_expect(data, "field"))
    if field != g1.field or field != g2.field:
        raise FormatError("witness field does not match the algebras")
    conv = _expect(data, "conventions")
    if not isinstance(conv, dict):
        raise FormatError("conventions must be an object")
    expected, ((q1, d1), (q2, d2)) = _conventions(g1, g2)
    for key, want in expected.items():
        if conv.get(key) != want:
            raise FormatError(
                f"witness conventions do not match the deterministic bases ({key})")
    mu = matrix_from_lists(field, _expect(data, "quotient_map"), q2.dim, q1.dim)
    nu = matrix_from_lists(field, _expect(data, "derived_map"), d2.dim, d1.dim)
    try:
        return IsoclinismWitness(EvenLinearMap(q1.space, q2.space, mu),
                                 EvenLinearMap(d1.space, d2.space, nu))
    except ValueError as exc:
        raise FormatError(f"witness matrices are not even maps: {exc}") from None


def load_witness(path: str, g1, g2) -> IsoclinismWitness:
    return witness_from_dict(_load_json(path), g1, g2)


# ---------------------------------------------------------------------------
# shared helpers

def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer literal past the digit limit, invalid
        # UTF-8 (all ValueErrors) or nesting past the recursion limit
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def dumps_canonical(obj) -> str:
    """Byte-deterministic JSON used for all reports and emitted objects."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path: str, obj):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(obj))
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None
