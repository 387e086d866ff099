"""The command-line front end: golden reports, malformed input, budgets.

The golden files under tests/golden/cli hold the stdout and exit code of
each command in manifest.json, run from the repository root with
COLUMNS=80 (argparse wraps help and usage to the terminal width); the
reports must stay byte-identical.  A case marked "stderr" also pins its
stderr in <slug>.err: the help and usage cases, where argparse exits
through SystemExit.  A case marked "artifact" is also run with
--output, and the written file must equal <slug>.artifact.json; later
cases read those files, so each --output is fed back into the next
command.  Hand-written inputs live in inputs/: witness files (one over F_3
whose maps fail to preserve brackets, and one whose derived map is doubled
on g22_hs_dense_q, a dense transport of g22 + hs over Q, whose center
(1, 2/3, -4/3) is spanned by no coordinate vector and whose reflexive
decide is pinned too, as are its quotients by that center and by its
derived subalgebra, so that the projection has columns off the unit
vectors; and two whose maps are isomorphisms that break the isoclinism
square, on hs with mu = 1 and nu = 2, and on g22 over F_3 with nu
swapping f1 and f2, which also breaks the coset check), two algebras that
fail the Jacobi identity (a dense transport over Q with one bracket value
changed, so the failing sums are fractional, and one over F_3), two dense
transports with their twist doubled, so that only multiplicativity fails
(over F_3, and g22_hs_dense_q over Q, whose failing sums are fractional), a
factor set that fails the cocycle identity, zc, {z, c | f} with [f, f] = z
and theta(c) = 2c + z, which stem-decompose refuses because its greedy
abelian part span(c) is not twist-invariant (decide against hs says
isoclinic), and the twist-shift pair {x, y, z} with [x, y] = z, theta = id
against theta(x) = x + z, over Q and F_3, which are isoclinic but not
isomorphic.  The help of the hyphenated subcommands, the isoclinic errors
for both and neither of --witness and --decide, and invariants given the
subcommand name check as its file pin the bytes that must not change when
only the dispatched subcommand's parser is built.
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
    monkeypatch.setenv("COLUMNS", "80")
    case = MANIFEST[slug]
    artifact = tmp_path / "artifact.json"
    extra = ["--output", str(artifact)] if case.get("artifact") else []
    try:
        code = cli.main(case["argv"] + extra)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{slug}.out").read_text()
    if case.get("stderr"):
        assert err == (GOLDEN / f"{slug}.err").read_text()
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


def test_extend_rejects_invalid_quotient(tmp_path, capsys):
    """A factor-set file whose quotient fails the axioms is bad input (exit
    2), rejected on load like an algebra file, not an extension that fails
    re-validation (exit 4).  The center is 0, so the factor set itself is
    valid."""
    data = json.loads((GOLDEN / "factorset_g22.artifact.json").read_text())
    cell = next(c for c in data["quotient"]["brackets"] if (c["i"], c["j"]) == (0, 1))
    cell["result"] = {"1": "3"}
    path = tmp_path / "fs.json"
    save_json(str(path), data)
    assert_input_error(["extend", str(path)], capsys,
                       f"the quotient in {path} is not a valid algebra")


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


def test_stem_decompose_failed_precondition_exits_1(capsys):
    path = GOLDEN / "inputs" / "zc.json"
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


def test_zero_budget_is_echoed(corpus_dir, capsys):
    """--budget 0 is a value, not an absent flag: the echo keeps it, so the
    echoed command re-runs with the same budget and not the default."""
    hs = str(corpus_dir / "hs.json")
    code, out = run(["isoclinic", hs, hs, "--decide", "--budget", "0"], capsys)
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(out)["command"] == ["isoclinic", f"file_a={hs}", f"file_b={hs}",
                                          "budget=0", "decide"]


@pytest.mark.parametrize("argv", [["check", "corpus/g22.json"],
                                  ["extend", "tests/golden/cli/factorset_g22.artifact.json"]])
def test_field_mismatch_is_an_input_error(argv, monkeypatch, capsys):
    """--field is checked on algebra and factor-set files alike."""
    monkeypatch.chdir(REPO_ROOT)
    assert_input_error(argv + ["--field", "Fp:3"], capsys,
                       f"{argv[1]} is over Q, but --field Fp:3 was required")


def test_docstring_lists_the_subcommands_of_the_table():
    listed = [line.split()[0] for line in cli.__doc__.splitlines() if line.startswith("  ")]
    assert listed == [row[0] for row in cli._COMMANDS]


@pytest.mark.parametrize("theta, message", [
    (b"[[" + b"1" * 5000 + b"]]", "Exceeds the limit (4300 digits)"),
    (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    (b'[["\xff"]]', "'utf-8' codec can't decode byte 0xff"),
], ids=["long-literal", "deep-nesting", "invalid-utf-8"])
def test_hostile_json_is_an_input_error(theta, message, tmp_path, capsys):
    """An integer literal past Python's digit limit, nesting past the
    recursion limit and bytes that are not UTF-8 are invalid JSON (exit 2),
    not a traceback or an internal error."""
    path = tmp_path / "hostile.json"
    path.write_bytes(b'{"name": "x", "field": "Q", "even_dim": 1, "odd_dim": 0, '
                     b'"brackets": [], "theta": ' + theta + b"}")
    assert_input_error(["check", str(path)], capsys, f"invalid JSON in {path}: {message}")


@pytest.mark.parametrize("scalar", ["1e5000", "-2.5e-5000"])
def test_scalar_past_the_digit_limit_is_an_input_error(scalar, tmp_path, capsys):
    """An exponent makes a short string a value of more digits than the
    limit on int strings; it is refused as bad input (exit 2) before the
    value is built, as a literal of that many digits is."""
    path = tmp_path / "huge.json"
    save_json(str(path), {"name": "e", "field": "Q", "even_dim": 1, "odd_dim": 0,
                          "theta": [[scalar]], "brackets": []})
    assert_input_error(["check", str(path)], capsys,
                       f"bad scalar {scalar!r} for field Q: value has more than 4300 digits")


def test_huge_report_values_print_in_full(tmp_path, capsys):
    """Values past the int-string digit limit that the computations make
    from inputs under it are printed in full, not raised as a traceback.
    The abelian (2|0) algebra with theta = 10^3000 I is valid, and its
    twist's characteristic polynomial ends in 10^6000.  [x0, x1] = x0 with
    theta = 10^2500 I is not multiplicative: theta([x0, x1]) is 10^2500 x0,
    [theta x0, theta x1] is 10^5000 x0."""
    def write(name, brackets, scale):
        path = tmp_path / f"{name}.json"
        save_json(str(path), {"name": name, "field": "Q", "even_dim": 2, "odd_dim": 0,
                              "theta": [[scale, "0"], ["0", scale]], "brackets": brackets})
        return str(path)

    code, out = run(["invariants", write("abelian", [], "1e3000")], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["fingerprint"]["twist_charpoly"] == [
        "1", "-2" + "0" * 3000, "1" + "0" * 6000]
    bracket = [{"i": 0, "j": 1, "result": {"0": "1"}}]
    code, out = run(["check", write("x01", bracket, "1e2500")], capsys)
    assert code == cli.EXIT_FALSE
    failure, = json.loads(out)["checks"]["multiplicative"]["failures"]
    assert (failure["lhs"], failure["rhs"]) == (["1" + "0" * 2500, "0"], ["1" + "0" * 5000, "0"])


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unwritable_output_is_an_input_error(target, tmp_path, monkeypatch, capsys):
    """An --output path that cannot be written is bad input (exit 2): the
    report is the error alone, with no success report before it and no
    traceback after it."""
    monkeypatch.chdir(REPO_ROOT)
    out = str(tmp_path / "missing" / "x.json") if target == "missing" else str(tmp_path)
    code, stdout = run(["factorset", "corpus/g22.json", "--output", out], capsys)
    assert code == cli.EXIT_INPUT
    report = json.loads(stdout)
    assert report["command"] == ["factorset", "file=corpus/g22.json"]
    assert report["error"].startswith(f"cannot write {out}: ")
    assert set(report) == {"command", "error"}


@pytest.mark.parametrize("argv", [
    ["check", "corpus/g22.json"], ["invariants", "corpus/g22.json"],
    ["isoclinic", "corpus/hs.json", "corpus/hs2.json", "--decide"],
    ["iso-search", "corpus/hs.json", "corpus/hs.json"]])
def test_output_without_an_artifact_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    """The four subcommands whose handler constructs no object reject
    --output as an unrecognized argument (exit 2), print no report and
    write no file."""
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--output", str(out)])
    stdout, stderr = capsys.readouterr()
    assert exc.value.code == cli.EXIT_INPUT
    assert stdout == ""
    assert stderr.endswith(f"error: unrecognized arguments: --output {out}\n")
    assert not out.exists()


def test_parser_builds_only_the_dispatched_subcommand(monkeypatch):
    """_parser(["check", "x"]) constructs the top-level parser and the check
    parser, and no parser for the other eight subcommands."""
    progs = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    args = cli._parser(["check", "x"]).parse_args(["check", "x"])
    assert progs == ["homsuper", "homsuper check"]
    assert (args.subcommand, args.file, args.handler) == ("check", "x", cli.cmd_check)


def test_main_in_sequence_prints_golden_bytes(monkeypatch, capsys):
    """Calls of main in one process, on different subcommands and on help
    and usage errors, each print their golden bytes: no parser state carries
    over from one call to the next.  A handler rebound on the module is the
    one called."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    calls = []

    def traced_check(args):
        calls.append(args.file)
        return handler(args)

    handler = cli.cmd_check
    monkeypatch.setattr(cli, "cmd_check", traced_check)
    slugs = ["check_g22", "help", "usage_isoclinic_no_mode", "invariants_hs2",
             "help_stem_decompose", "check_hs_f3", "usage_quotient_no_ideal",
             "invariants_subcommand_name", "help_check", "check_g22"]
    for slug in slugs:
        case = MANIFEST[slug]
        try:
            code = cli.main(list(case["argv"]))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (case["exit"], (GOLDEN / f"{slug}.out").read_text()), slug
        if case.get("stderr"):
            assert err == (GOLDEN / f"{slug}.err").read_text(), slug
    assert calls == ["corpus/g22.json", "corpus/hs_f3.json", "corpus/g22.json"]
