"""The command-line front end: golden reports, malformed input, budgets.

The golden files under tests/golden/cli hold the stdout and exit code of
each command in manifest.json, run from the repository root; the reports
must stay byte-identical.  A case marked "artifact" is also run with
--output, and the written file must equal <slug>.artifact.json; later
cases read those files, so each --output is fed back into the next
command.  Hand-written inputs (witness files) live in inputs/.
"""

import json
import pathlib

import pytest

from homsuper import cli, isoclinism
from homsuper.core import Failure, ValidationReport
from homsuper.fileio import algebra_from_dict, save_json, witness_to_dict
from homsuper.isoclinism import identity_witness

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden" / "cli"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("slug", sorted(MANIFEST))
def test_golden_report(slug, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(REPO_ROOT)
    case = MANIFEST[slug]
    artifact = tmp_path / "artifact.json"
    extra = ["--output", str(artifact)] if case.get("artifact") else []
    code, out = run(case["argv"] + extra, capsys)
    assert out == (GOLDEN / f"{slug}.out").read_text()
    assert code == case["exit"]
    if extra:
        assert artifact.read_text() == (GOLDEN / f"{slug}.artifact.json").read_text()


def assert_input_error(argv, capsys, message):
    code, out = run(argv, capsys)
    assert code == cli.EXIT_INPUT
    report = json.loads(out)
    assert message in report["error"]


@pytest.fixture
def hs_factorset(tmp_path, corpus_dir, capsys):
    path = tmp_path / "fs.json"
    code, _ = run(["factorset", str(corpus_dir / "hs.json"), "--output", str(path)], capsys)
    assert code == cli.EXIT_OK
    data = json.loads(path.read_text())
    assert data["coeffs"], "hs has a nonzero factor set"
    return path, data


def test_factorset_coeff_entry_not_an_object(hs_factorset, capsys):
    path, data = hs_factorset
    data["coeffs"] = [5]
    save_json(str(path), data)
    assert_input_error(["extend", str(path)], capsys, "coefficient entry must be an object")


def test_factorset_result_not_an_object(hs_factorset, capsys):
    path, data = hs_factorset
    data["coeffs"][0]["result"] = ["1"]
    save_json(str(path), data)
    assert_input_error(["extend", str(path)], capsys, "coefficient result must be an object")


def test_factorset_center_twist_crossing_parity(tmp_path, capsys):
    """A center twist with a nonzero odd-to-even entry is bad input (exit 2),
    checked like theta, not a construction error."""
    data = {"name": "x", "field": "Q",
            "quotient": {"name": "q", "field": "Q", "even_dim": 1, "odd_dim": 0,
                         "theta": [["1"]], "brackets": []},
            "center": {"even_dim": 1, "odd_dim": 1, "twist": [["1", "1"], ["0", "1"]]},
            "coeffs": []}
    path = tmp_path / "fs.json"
    save_json(str(path), data)
    assert_input_error(["extend", str(path)], capsys,
                       "center twist must be parity-even: nonzero entry at (0, 1)")


def test_witness_conventions_not_an_object(tmp_path, corpus_dir, algebras, capsys):
    hs = algebras["hs"]
    data = witness_to_dict(identity_witness(hs), hs, hs)
    data["conventions"] = []
    path = tmp_path / "w.json"
    save_json(str(path), data)
    hs_file = str(corpus_dir / "hs.json")
    assert_input_error(["isoclinic", hs_file, hs_file, "--witness", str(path)],
                       capsys, "conventions must be an object")


@pytest.mark.parametrize("command", [["iso-search"], ["isoclinic", "--decide"]])
def test_negative_budget_is_an_input_error(command, corpus_dir, capsys):
    hs_file = str(corpus_dir / "hs.json")
    argv = command[:1] + [hs_file, hs_file] + command[1:] + ["--budget", "-1"]
    assert_input_error(argv, capsys, "--budget must be non-negative")


#: An even (3|0) algebra that passes parity but fails Jacobi:
#: [a,b]=c, [b,c]=a, [a,c]=a, identity twist.
NOT_JACOBI = {
    "name": "not-jacobi", "field": "Q", "even_dim": 3, "odd_dim": 0,
    "basis_names": ["a", "b", "c"],
    "brackets": [{"i": 0, "j": 1, "result": {"2": "1"}},
                 {"i": 1, "j": 2, "result": {"0": "1"}},
                 {"i": 0, "j": 2, "result": {"0": "1"}}],
    "theta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}


def test_sum_rejects_invalid_input(tmp_path, corpus_dir, capsys):
    path = tmp_path / "bad.json"
    save_json(str(path), NOT_JACOBI)
    assert_input_error(["sum", str(path), str(corpus_dir / "a_1_0.json")], capsys,
                       f"{path} is not a valid algebra")


@pytest.mark.parametrize("command", [
    ["stem-decompose", "{bad}"], ["factorset", "{bad}"],
    ["quotient", "{bad}", "--ideal", "a"], ["iso-search", "{bad}", "{bad}"],
    ["isoclinic", "{bad}", "{bad}", "--decide"],
    ["isoclinic", "{bad}", "{bad}", "--witness", "{witness}"],
], ids=lambda c: " ".join(c[:1] + [a for a in c[1:] if a.startswith("--")]))
def test_invalid_algebra_is_an_input_error(command, tmp_path, capsys):
    """Every command but check rejects an algebra failing the axioms as bad
    input, before computing anything with it."""
    bad = tmp_path / "bad.json"
    save_json(str(bad), NOT_JACOBI)
    _, g = algebra_from_dict(NOT_JACOBI)
    witness = tmp_path / "w.json"
    save_json(str(witness), witness_to_dict(identity_witness(g), g, g))
    argv = [a.format(bad=bad, witness=witness) for a in command]
    assert_input_error(argv, capsys, f"{bad} is not a valid algebra")


#: {z, c | f} with [f, f] = z and theta(c) = 2c + z: the greedy complement
#: span(c) of the derived subalgebra in the center is not twist-invariant.
ZC = {
    "name": "zc", "field": "Q", "even_dim": 2, "odd_dim": 1,
    "basis_names": ["z", "c", "f"],
    "brackets": [{"i": 2, "j": 2, "result": {"0": "1"}}],
    "theta": [["1", "1", "0"], ["0", "2", "0"], ["0", "0", "1"]],
}


def test_stem_decompose_failed_precondition_exits_1(tmp_path, capsys):
    path = tmp_path / "zc.json"
    save_json(str(path), ZC)
    code, out = run(["stem-decompose", str(path)], capsys)
    assert code == cli.EXIT_FALSE == 1
    assert json.loads(out) == {"command": ["stem-decompose", f"file={path}"],
                               "error": "subspace is not twist-invariant"}


def test_oversized_modulus_is_an_input_error(tmp_path, capsys):
    # 2^89 - 1 is prime, but primality is decided only below 3.3e24
    data = {"name": "big", "field": f"Fp:{2 ** 89 - 1}", "even_dim": 1, "odd_dim": 0,
            "brackets": [], "theta": [["1"]]}
    path = tmp_path / "big.json"
    save_json(str(path), data)
    assert_input_error(["check", str(path)], capsys, "is too large")


def test_internal_error_exits_4(monkeypatch, corpus_dir, capsys):
    """A construction that returns an invalid algebra is an internal fault:
    a direct sum that breaks Jacobi fails re-validation and is reported as
    JSON with exit code 4."""
    _, bad = algebra_from_dict(NOT_JACOBI)
    monkeypatch.setattr(cli, "direct_sum_with_embeddings", lambda g1, g2: (bad, None, None))
    a = str(corpus_dir / "a_1_0.json")
    code, out = run(["sum", a, a], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    report = json.loads(out)
    assert report == {"command": ["sum", f"file_a={a}", f"file_b={a}"],
                      "error": "direct sum failed re-validation"}


def test_decide_witness_failing_verification_exits_4(monkeypatch, corpus_dir, capsys):
    """isoclinic_decide verifies its own witness; the CLI does not verify it
    again, so a witness failing inside decide must still reach the report
    as an internal fault: JSON with exit code 4."""
    failing = ValidationReport((Failure("twist-intertwine", (0,), (), ()),))
    monkeypatch.setattr(isoclinism, "verify_isoclinism", lambda g1, g2, w: failing)
    hs = str(corpus_dir / "hs.json")
    code, out = run(["isoclinic", hs, hs, "--decide"], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    report = json.loads(out)
    assert report == {"command": ["isoclinic", f"file_a={hs}", f"file_b={hs}",
                                  "budget=200000", "decide"],
                      "error": "isoclinism witness failed verification"}


@pytest.mark.parametrize("name", ["a_1_0", "a_0_1"])
def test_quotient_of_unnamed_dim_one_algebra_by_coordinates(name, corpus_dir, capsys):
    """A dimension-1 algebra without basis names takes its ideal as a single
    coordinate; the quotient by the whole space is 0-dimensional."""
    path = str(corpus_dir / f"{name}.json")
    code, out = run(["quotient", path, "--ideal", "1"], capsys)
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert (report["algebra"]["even_dim"], report["algebra"]["odd_dim"]) == (0, 0)
    assert report["projection"] == []
    assert_input_error(["quotient", path, "--ideal", "x"], capsys,
                       "unknown basis name 'x' in --ideal")
