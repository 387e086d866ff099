"""Fuzzing of the file readers: mutated corpus files either parse or raise
FormatError, never anything else; a factor set that parses extends or is
rejected as invalid.

Inputs are the corpus algebra files, the factor sets that `factorset
--output` writes for them and the witness files under tests/golden/cli.
A mutation replaces, deletes or inserts one value anywhere in the JSON
tree, or puts a nonzero entry off the parity blocks of theta or of a
center twist.

The whole-CLI fuzz runs `cli.main` in-process on such files with one
value replaced by hostile JSON text: integer literals of thousands of
digits, arrays and objects nested far past the recursion limit, exponent
strings, NaN and Infinity, and values of the wrong type.  Every call must
exit 0, 1, 2 or 3 (never 4, an internal error) and print no traceback.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homsuper import cli
from homsuper.errors import FormatError, PreconditionError
from homsuper.factorset import extend
from homsuper.fileio import (algebra_from_dict, factorset_from_dict,
                             load_algebra, witness_from_dict)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden" / "cli"
NAMES = sorted(p.stem for p in (REPO_ROOT / "corpus").glob("*.json"))
ALGEBRAS = {n: json.loads((REPO_ROOT / "corpus" / f"{n}.json").read_text()) for n in NAMES}
FACTORSETS = {n: json.loads((GOLDEN / f"factorset_{n}.artifact.json").read_text())
              for n in NAMES}
WITNESSES = {("hs", "hs2"): "witness_hs_hs2.json", ("g22", "g22"): "witness_g22_g22.json"}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.integers(-10**12, 10**12),
    st.floats(allow_nan=True), st.sampled_from(
        ["0", "1", "-1", "2", "1/2", "4/6", "1/0", "2/-4", "x", "", " 1", "3.5",
         "Q", "Fp:3", "Fp:5", "Fp:4", "Fp:2", "Fp:x", "i", "j", "result"]))
KEYS = st.sampled_from(["i", "j", "result", "0", "1", "2", "-1", "x", "even_dim",
                        "odd_dim", "twist", "theta", "brackets", "coeffs", "field"])
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(KEYS, inner, max_size=3), max_leaves=6)


def paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from paths(child, prefix + (i,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def crossing_cells(node, prefix=()):
    """(path, i, j) for every parity-crossing cell of a theta or center twist."""
    if not isinstance(node, dict):
        return
    for key, child in node.items():
        if isinstance(child, dict):
            yield from crossing_cells(child, prefix + (key,))
    for key in ("theta", "twist"):
        if key in node:
            p, d = node["even_dim"], node["even_dim"] + node["odd_dim"]
            for i in range(d):
                for j in range(d):
                    if (i < p) != (j < p):
                        yield prefix + (key,), i, j


def mutate(data, draw):
    data = copy.deepcopy(data)
    kind = draw(st.sampled_from(["replace", "delete", "insert", "cross"]))
    if kind == "cross":
        cells = list(crossing_cells(data))
        if cells:
            path, i, j = draw(st.sampled_from(cells))
            at(data, path)[i][j] = draw(st.sampled_from(["1", "-1", "2", "1/2", 1]))
            return data
        kind = "replace"
    path = draw(st.sampled_from(list(paths(data))))
    if not path:
        return draw(VALUES) if kind == "replace" else data
    parent, last = at(data, path[:-1]), path[-1]
    if kind == "replace":
        parent[last] = draw(VALUES)
    elif kind == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, draw(VALUES))
    else:
        parent[draw(KEYS)] = draw(VALUES)
    return data


def parses_or_format_error(read):
    try:
        read()
    except FormatError:
        pass


FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.sampled_from(NAMES), st.data())
def test_algebra_from_dict_fuzz(name, data):
    mutated = mutate(ALGEBRAS[name], data.draw)
    parses_or_format_error(lambda: algebra_from_dict(mutated))


@FUZZ
@given(st.sampled_from(NAMES), st.data())
def test_factorset_from_dict_fuzz(name, data):
    """A factor set that parses can also be extended, or is rejected as
    invalid (a cocycle failure, say), the way `homsuper extend` does."""
    mutated = mutate(FACTORSETS[name], data.draw)
    try:
        _, fs = factorset_from_dict(mutated)
    except FormatError:
        return
    try:
        extend(fs)
    except PreconditionError:
        pass


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(WITNESSES)), st.data())
def test_witness_from_dict_fuzz(pair, data):
    g1 = load_algebra(str(REPO_ROOT / "corpus" / f"{pair[0]}.json"))[1]
    g2 = load_algebra(str(REPO_ROOT / "corpus" / f"{pair[1]}.json"))[1]
    raw = json.loads((GOLDEN / "inputs" / WITNESSES[pair]).read_text())
    mutated = mutate(raw, data.draw)
    parses_or_format_error(lambda: witness_from_dict(mutated, g1, g2))


READERS = [(f"algebra-{n}", ALGEBRAS[n], algebra_from_dict) for n in NAMES] \
    + [(f"factorset-{n}", FACTORSETS[n], factorset_from_dict) for n in NAMES]


@pytest.mark.parametrize("raw, read", [r[1:] for r in READERS], ids=[r[0] for r in READERS])
def test_crossing_entry_is_a_format_error(raw, read):
    """Every parity-crossing cell of theta (a factor set's quotient too) and
    of a center twist is rejected with its position."""
    for path, i, j in crossing_cells(raw):
        data = copy.deepcopy(raw)
        at(data, path)[i][j] = "1"
        noun = "theta" if path[-1] == "theta" else "center twist"
        with pytest.raises(FormatError,
                           match=rf"^{noun} must be parity-even: nonzero entry at \({i}, {j}\)$"):
            read(data)


#: Raw JSON text put in place of one value of an input file.
HOSTILE = (
    "1" + "0" * 5000, "-" + "7" * 4301, '"' + "9" * 5000 + '"', '"1/' + "3" * 4400 + '"',
    "[" * 100000 + "]" * 100000, '{"a": ' * 50000 + "1" + "}" * 50000,
    "[" * 500 + '"1"' + "]" * 500,
    '"1e5000"', '"1e-5000"', '"-2.5E+4301"', '"1e100000000"', '"1e4300"', '"3e2"', '"1e-3"',
    "NaN", "Infinity", "-Infinity", "1e400", '"NaN"', '"inf"', "1.5", "-0.0",
    "true", "false", "null", "{}", "[]", '""', '"x"', "-1", "0", "3", "100000", '"Fp:4"',
)
CLI_ALGEBRAS = ("a_1_1", "g22", "g22_f3", "hs", "hs2_f3", "t2")


def cli_calls(kind, name, path):
    """The argv lists run on one hostile file."""
    if kind == "factorset":
        return [["extend", path]]
    if kind == "witness":
        g1, g2 = (str(REPO_ROOT / "corpus" / f"{n}.json") for n in name)
        return [["isoclinic", g1, g2, "--witness", path]]
    dim = ALGEBRAS[name]["even_dim"] + ALGEBRAS[name]["odd_dim"]
    other = str(REPO_ROOT / "corpus" / f"{name}.json")
    return [["check", path], ["invariants", path], ["stem-decompose", path],
            ["factorset", path], ["sum", path, other],
            ["quotient", path, "--ideal", ",".join(["1"] + ["0"] * (dim - 1))],
            ["iso-search", path, other, "--budget", "50"],
            ["isoclinic", path, other, "--decide", "--budget", "50"]]


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["algebra"] * 3 + ["factorset", "witness"]), st.data())
def test_cli_survives_hostile_json(cli_workdir, kind, data):
    if kind == "witness":
        name = data.draw(st.sampled_from(sorted(WITNESSES)))
        raw = json.loads((GOLDEN / "inputs" / WITNESSES[name]).read_text())
    else:
        name = data.draw(st.sampled_from(CLI_ALGEBRAS))
        raw = copy.deepcopy(ALGEBRAS[name] if kind == "algebra" else FACTORSETS[name])
    path = data.draw(st.sampled_from(list(paths(raw))))
    if path:
        at(raw, path[:-1])[path[-1]] = "<hostile>"
        text = json.dumps(raw).replace('"<hostile>"', data.draw(st.sampled_from(HOSTILE)))
    else:
        text = data.draw(st.sampled_from(HOSTILE))
    file = cli_workdir / "input.json"
    file.write_text(text)
    for argv in cli_calls(kind, name, str(file)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_FALSE, cli.EXIT_INPUT, cli.EXIT_INCONCLUSIVE), \
            (argv, out.getvalue())
        assert "Traceback" not in err.getvalue()
        json.loads(out.getvalue())
