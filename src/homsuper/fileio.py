"""JSON file formats for algebras, factor sets, and isoclinism witnesses.

All scalars are encoded as strings: "a" or "a/b" with b > 0 and
gcd(|a|, b) = 1 over the rationals, decimal strings in [0, p) over a
prime field.  Non-canonical but well-formed inputs (say "4/6") are
accepted and canonicalized, so parse -> serialize -> parse is the
identity on canonical files.  Only bracket entries with i <= j are
accepted; a redundant i > j entry is a load-time error, keeping one
canonical source of truth per structure constant.
"""

from __future__ import annotations

import json

from .core import EvenLinearMap, HomLieSuperalgebra, SuperSpace
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
    return Matrix.from_rows(field, [[_scalar(field, x) for x in r] for r in data]) \
        if nrows else Matrix.zero(field, 0, ncols)


def _expect(data: dict, key: str):
    if key not in data:
        raise FormatError(f"missing key {key!r}")
    return data[key]


def _dim(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FormatError(f"{key} must be a non-negative integer")
    return value


# ---------------------------------------------------------------------------
# algebra files

def algebra_to_dict(g: HomLieSuperalgebra, name: str) -> dict:
    f = g.field
    brackets = []
    for (i, j) in sorted(g.brackets):
        cell = g.brackets[(i, j)]
        brackets.append({"i": i, "j": j,
                         "result": {str(k): f.fmt(cell[k]) for k in sorted(cell)}})
    out = {
        "name": name,
        "field": f.name,
        "even_dim": g.space.even_dim,
        "odd_dim": g.space.odd_dim,
        "theta": matrix_to_lists(g.twist),
        "brackets": brackets,
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
    theta = matrix_from_lists(field, _expect(data, "theta"), d, d)
    for i in range(d):
        for j in range(d):
            if space.parity(i) != space.parity(j) and theta[i, j] != 0:
                raise FormatError(
                    f"theta must be parity-even: nonzero entry at ({i}, {j})")
    raw = _expect(data, "brackets")
    if not isinstance(raw, list):
        raise FormatError("brackets must be a list")
    brackets = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError("each bracket entry must be an object")
        i = _dim(_expect(entry, "i"), "i")
        j = _dim(_expect(entry, "j"), "j")
        if i >= d or j >= d:
            raise FormatError(f"bracket index ({i}, {j}) out of range")
        if i > j:
            raise FormatError(
                f"redundant bracket entry ({i}, {j}): only i <= j is stored")
        if (i, j) in brackets:
            raise FormatError(f"duplicate bracket entry ({i}, {j})")
        result = _expect(entry, "result")
        if not isinstance(result, dict):
            raise FormatError("bracket result must be an object")
        cell = {}
        want = (space.parity(i) + space.parity(j)) % 2
        for ks, vs in result.items():
            try:
                k = int(ks)
            except (TypeError, ValueError):
                raise FormatError(f"bad result index {ks!r}") from None
            if not 0 <= k < d:
                raise FormatError(f"result index {k} out of range")
            v = _scalar(field, vs)
            if v != 0 and space.parity(k) != want:
                raise FormatError(
                    f"parity violation: [{i}, {j}] has a component on index {k}")
            cell[k] = v
        brackets[(i, j)] = cell
    name = data.get("name", "")
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    return name, HomLieSuperalgebra(space, brackets, theta)


def load_algebra(path: str):
    return algebra_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# factor-set files

def factorset_to_dict(fs: FactorSet, name: str) -> dict:
    f = fs.field
    coeffs = []
    for (i, j) in sorted(fs.coeffs):
        cell = fs.coeffs[(i, j)]
        coeffs.append({"i": i, "j": j,
                       "result": {str(k): f.fmt(cell[k]) for k in sorted(cell)}})
    return {
        "name": name,
        "field": f.name,
        "quotient": algebra_to_dict(fs.quotient, f"{name}.quotient"),
        "center": {
            "even_dim": fs.center_space.even_dim,
            "odd_dim": fs.center_space.odd_dim,
            "twist": matrix_to_lists(fs.center_twist),
        },
        "coeffs": coeffs,
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
    center_twist = matrix_from_lists(field, _expect(cdata, "twist"),
                                     pz + qz, pz + qz)
    raw = _expect(data, "coeffs")
    if not isinstance(raw, list):
        raise FormatError("coeffs must be a list")
    coeffs = {}
    dq, dz = qalg.dim, pz + qz
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError("each coefficient entry must be an object")
        i = _dim(_expect(entry, "i"), "i")
        j = _dim(_expect(entry, "j"), "j")
        if i >= dq or j >= dq:
            raise FormatError(f"coefficient index ({i}, {j}) out of range")
        if i > j:
            raise FormatError(f"redundant coefficient entry ({i}, {j})")
        if (i, j) in coeffs:
            raise FormatError(f"duplicate coefficient entry ({i}, {j})")
        result = _expect(entry, "result")
        if not isinstance(result, dict):
            raise FormatError("coefficient result must be an object")
        cell = {}
        want = (qalg.space.parity(i) + qalg.space.parity(j)) % 2
        for ks, vs in result.items():
            try:
                k = int(ks)
            except (TypeError, ValueError):
                raise FormatError(f"bad result index {ks!r}") from None
            if not 0 <= k < dz:
                raise FormatError(f"center index {k} out of range")
            v = _scalar(field, vs)
            if v != 0 and center_space.parity(k) != want:
                raise FormatError(
                    f"parity violation in coefficient ({i}, {j}) at center index {k}")
            cell[k] = v
        coeffs[(i, j)] = cell
    name = data.get("name", "")
    try:
        fs = FactorSet(qalg, center_space, center_twist, coeffs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return name, fs


def load_factorset(path: str):
    return factorset_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# witness files

def _map_to_lists(m: EvenLinearMap) -> list:
    return matrix_to_lists(m.matrix)


def witness_to_dict(w: IsoclinismWitness, g1: HomLieSuperalgebra,
                    g2: HomLieSuperalgebra) -> dict:
    """Serialize a witness together with the deterministic basis
    conventions (central-quotient representatives and derived bases) the
    matrices refer to."""
    return {
        "field": g1.field.name,
        "quotient_map": _map_to_lists(w.quotient_map),
        "derived_map": _map_to_lists(w.derived_map),
        "conventions": {
            "g1_quotient_reps": _convention_reps(g1),
            "g1_derived_basis": _convention_derived(g1),
            "g2_quotient_reps": _convention_reps(g2),
            "g2_derived_basis": _convention_derived(g2),
        },
    }


def _convention_reps(g: HomLieSuperalgebra) -> list:
    _, _, sect = central_quotient(g)
    return matrix_to_lists(sect.matrix.transpose())


def _convention_derived(g: HomLieSuperalgebra) -> list:
    _, incl = derived_algebra(g)
    return matrix_to_lists(incl.matrix.transpose())


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
    expected = {
        "g1_quotient_reps": _convention_reps(g1),
        "g1_derived_basis": _convention_derived(g1),
        "g2_quotient_reps": _convention_reps(g2),
        "g2_derived_basis": _convention_derived(g2),
    }
    for key, want in expected.items():
        if conv.get(key) != want:
            raise FormatError(
                f"witness conventions do not match the deterministic bases ({key})")
    q1, _, _ = central_quotient(g1)
    q2, _, _ = central_quotient(g2)
    d1, _ = derived_algebra(g1)
    d2, _ = derived_algebra(g2)
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from None


def dumps_canonical(obj) -> str:
    """Byte-deterministic JSON used for all reports and emitted objects."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
