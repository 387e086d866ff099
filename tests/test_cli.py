"""The command-line front end: golden reports, malformed input, budgets.

The golden files under tests/golden/cli hold the stdout and exit code of
each command in manifest.json, run from the repository root; the reports
must stay byte-identical.
"""

import json
import pathlib

import pytest

from homsuper import cli
from homsuper.fileio import save_json, witness_to_dict
from homsuper.isoclinism import identity_witness

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden" / "cli"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("slug", sorted(MANIFEST))
def test_golden_report(slug, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    case = MANIFEST[slug]
    code, out = run(case["argv"], capsys)
    assert out == (GOLDEN / f"{slug}.out").read_text()
    assert code == case["exit"]


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


def test_internal_error_exits_4(tmp_path, corpus_dir, capsys):
    """An even (3|0) algebra that passes parity but fails Jacobi
    ([a,b]=c, [b,c]=a, [a,c]=a, identity twist) breaks the re-validation
    of a direct sum; that is reported as JSON with exit code 4."""
    bad = {
        "name": "not-jacobi", "field": "Q", "even_dim": 3, "odd_dim": 0,
        "basis_names": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "result": {"2": "1"}},
                     {"i": 1, "j": 2, "result": {"0": "1"}},
                     {"i": 0, "j": 2, "result": {"0": "1"}}],
        "theta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "bad.json"
    save_json(str(path), bad)
    code, out = run(["sum", str(path), str(corpus_dir / "a_1_0.json")], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    report = json.loads(out)
    assert report == {"command": ["sum", f"file_a={path}", f"file_b={corpus_dir / 'a_1_0.json'}"],
                      "error": "direct sum failed re-validation"}
