"""Command-line front end.

Subcommands wrap every library capability; the table _COMMANDS gives
their arguments:

  check            axiom, multiplicativity, and regularity validation
  invariants       center, derived subalgebra, stem flag, fingerprint
  quotient         quotient by a Hom-ideal given as --ideal
  sum              direct sum of two algebras
  factorset        read a factor set off a complement of the center
  extend           rebuild the central extension of a factor-set file
  stem-decompose   split off a maximal central abelian summand
  isoclinic        verify a witness file or decide isoclinism
  iso-search       search for a twist-intertwining isomorphism

Each call builds a subcommand parser only for the names in argv, the only
ones argparse can dispatch to; the others keep their name and help line,
from which argparse formats the top-level help and usage, so those bytes
are the same as with every parser built.

Exit codes: 0 success/true, 1 checked-false or failed precondition,
2 input error (every command but check also rejects an algebra file that
fails the axioms, and extend a factor-set file whose quotient does, and
--output rejects a path that cannot be written),
3 inconclusive, 4 internal error (a constructed object
failed re-validation, or an input the checks let through broke a
construction).  Reports are byte-deterministic JSON
(or --format text).  The subcommands that construct an object (quotient,
sum, factorset, extend, stem-decompose) take --output, which writes it so
it can be fed back into other commands; the others reject it (exit 2).
"""

from __future__ import annotations

import argparse
import sys

from .core import (GradedSubspace, HomLieSuperalgebra, center, check_axioms,
                   check_graded_skew, check_hom_jacobi, check_multiplicative,
                   check_parity, check_regular, derived,
                   direct_sum_with_embeddings, is_stem, quotient)
from .errors import (FormatError, HomSuperError, PreconditionError,
                     SearchInconclusive)
from .factorset import (check_multiplicative_factor_set, extend,
                        factor_set_from_complement, validate_factor_set)
from .fileio import (algebra_to_dict, dumps_canonical, factorset_to_dict,
                     load_algebra, load_factorset, load_witness,
                     matrix_to_lists, save_json, witness_to_dict)
from .isoclinism import (DEFAULT_BUDGET, fingerprint, iso_search,
                         isoclinic_decide, stem_decompose, verify_isoclinism)
from .linalg import basis_vec, vec

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def main(argv=None) -> int:
    """Run one subcommand; its handler's report, or the exit code and report
    of the error it raised, is emitted under the one command echo."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv).parse_args(argv)
    try:
        code, report, artifact = args.handler(args)
        if getattr(args, "output", None):
            save_json(args.output, artifact)
    except FormatError as exc:
        code, report = EXIT_INPUT, {"error": str(exc)}
    except PreconditionError as exc:
        code, report = EXIT_FALSE, {"error": str(exc)}
    except SearchInconclusive as exc:
        code, report = EXIT_INCONCLUSIVE, {"verdict": "inconclusive", "reason": exc.reason}
    except (HomSuperError, RuntimeError) as exc:
        code, report = EXIT_INTERNAL, {"error": str(exc)}
    _emit(args, {"command": _echo(args), **report})
    return code


_BUDGET = ("--budget", {"type": int, "default": DEFAULT_BUDGET,
                        "help": "search nodes to examine (default %(default)s)"})
#: Only the subcommands whose handler returns an artifact have this option.
_OUTPUT = ("--output", {"help": "write the primary constructed object (JSON) here"})

#: Name, help, handler, positionals, required mutually exclusive group and other
#: options of each subcommand; an option is a (flag, add_argument keywords) pair.
#: Handlers are named, so that wrappers rebound on this module are the ones called.
_COMMANDS = (
    ("check", "validate an algebra file", "cmd_check", ("file",), (), ()),
    ("invariants", "center, derived subalgebra, stem flag, fingerprint", "cmd_invariants",
     ("file",), (), ()),
    ("quotient", "quotient by a Hom-ideal", "cmd_quotient", ("file",), (),
     (("--ideal", {"required": True, "help": "generators, ';'-separated: "
                   "basis names or comma-separated coordinates"}), _OUTPUT)),
    ("sum", "direct sum of two algebras", "cmd_sum", ("file_a", "file_b"), (), (_OUTPUT,)),
    ("factorset", "factor set from a complement of the center", "cmd_factorset",
     ("file",), (), (_OUTPUT,)),
    ("extend", "central extension of a factor-set file", "cmd_extend", ("file",), (),
     (_OUTPUT,)),
    ("stem-decompose", "split off a maximal central abelian summand", "cmd_stem_decompose",
     ("file",), (), (_OUTPUT,)),
    ("isoclinic", "verify a witness or decide isoclinism", "cmd_isoclinic", ("file_a", "file_b"),
     (("--witness", {"help": "witness file to verify"}),
      ("--decide", {"action": "store_true", "help": "run the decision procedure"})), (_BUDGET,)),
    ("iso-search", "search for an isomorphism", "cmd_iso_search", ("file_a", "file_b"), (),
     (_BUDGET,)),
)


def _parser(argv) -> argparse.ArgumentParser:
    """Only the subcommands named in argv get a parser; the others get None
    and keep only the name and help line that add_parser records.  argparse
    dispatches only to a name in argv and formats the top-level help and
    usage from those names and help lines, so no help or usage byte
    changes.  add_parser calls the factory with prog="homsuper <name>"."""
    top = argparse.ArgumentParser(
        prog="homsuper",
        description="Exact computations with finite-dimensional Hom-Lie superalgebras")

    def subparser(prog, **kwargs):
        return argparse.ArgumentParser(prog=prog, **kwargs) if prog.split()[-1] in argv else None

    sub = top.add_subparsers(dest="subcommand", required=True, parser_class=subparser)
    for name, help_, handler, positionals, group, options in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        if p is None:
            continue
        for positional in positionals:
            p.add_argument(positional)
        if group:
            mode = p.add_mutually_exclusive_group(required=True)
            for flag, kwargs in group:
                mode.add_argument(flag, **kwargs)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--field", help="require inputs to be over this field (Q or Fp:<p>)")
        p.set_defaults(handler=globals()[handler])
    return top


# ---------------------------------------------------------------------------
# report plumbing

def _echo(args) -> list:
    echo = [args.subcommand]
    for key in ("file", "file_a", "file_b", "ideal", "witness", "budget", "field"):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            echo.append(f"{key}={val}")
    if getattr(args, "decide", False):
        echo.append("decide")
    return echo


def _emit(args, report: dict):
    if args.format == "text":
        for line in _text_lines(report, ""):
            print(line)
    else:
        sys.stdout.write(dumps_canonical(report))


def _text_lines(obj, prefix):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, item in enumerate(obj):
            yield from _text_lines(item, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {obj}"


def _load(args, path) -> HomLieSuperalgebra:
    """Read an algebra file; every command but `check` also requires the
    axioms, so an invalid algebra is an input error (exit 2)."""
    name, g = load_algebra(path)
    _check_field(args, path, g.field)
    if args.subcommand != "check" and not check_axioms(g).passed:
        raise FormatError(f"{path} is not a valid algebra")
    return g


def _check_field(args, path, field):
    if args.field and field.name != args.field:
        raise FormatError(f"{path} is over {field.name}, but --field {args.field} was required")


def _failures_json(field, report) -> list:
    out = []
    for fl in report.failures:
        out.append({
            "axiom": fl.axiom,
            "indices": list(fl.indices),
            "lhs": [field.fmt(x) for x in fl.lhs],
            "rhs": [field.fmt(x) for x in fl.rhs],
        })
    return out


def _graded_json(gs: GradedSubspace) -> dict:
    return {
        "dims": list(gs.dims),
        "even": matrix_to_lists(gs.even.basis),
        "odd": matrix_to_lists(gs.odd.basis),
    }


def _fingerprint_json(g) -> dict:
    dims, zdims, ddims, zddims, series, char = fingerprint(g)
    return {
        "graded_dims": list(dims),
        "center_dims": list(zdims),
        "derived_dims": list(ddims),
        "center_meet_derived_dims": list(zddims),
        "derived_series": [list(t) for t in series],
        "twist_charpoly": [g.field.fmt(c) for c in char],
    }


# ---------------------------------------------------------------------------
# commands

def cmd_check(args):
    g = _load(args, args.file)
    f = g.field
    checks = {
        "parity": check_parity(g),
        "graded_skew": check_graded_skew(g),
        "hom_jacobi": check_hom_jacobi(g),
        "multiplicative": check_multiplicative(g),
    }
    regular = check_regular(g)
    report = {"checks": {}, "regular": regular}
    ok = regular
    for name, rep in checks.items():
        report["checks"][name] = {
            "passed": rep.passed,
            "failures": _failures_json(f, rep),
        }
        ok = ok and rep.passed
    report["verdict"] = "valid" if ok else "invalid"
    return (EXIT_OK if ok else EXIT_FALSE), report, None


def cmd_invariants(args):
    g = _load(args, args.file)
    if not (check_multiplicative(g).passed and check_regular(g)):
        raise FormatError(f"{args.file} is not a valid multiplicative regular algebra")
    report = {
        "graded_dims": list(g.space.dims),
        "center": _graded_json(center(g)),
        "derived": _graded_json(derived(g)),
        "stem": is_stem(g),
        "fingerprint": _fingerprint_json(g),
    }
    return EXIT_OK, report, None


def _parse_ideal(g: HomLieSuperalgebra, spec: str) -> GradedSubspace:
    """Generators separated by ";", each a basis name or g.dim coordinates
    separated by ","; a single coordinate serves an algebra of dimension 1."""
    f = g.field
    names = g.space.basis_names or ()
    vectors = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if part in names:
            vectors.append(basis_vec(f, g.dim, names.index(part)))
            continue
        entries = [x.strip() for x in part.split(",")]
        unknown = FormatError(f"unknown basis name {part!r} in --ideal")
        if len(entries) != g.dim:
            if len(entries) == 1:
                raise unknown
            raise FormatError(
                f"ideal generator {part!r} has {len(entries)} coordinates, expected {g.dim}")
        try:
            vectors.append(vec(f, entries))
        except FormatError:
            if len(entries) == 1:
                raise unknown from None
            raise
    if not vectors:
        raise FormatError("--ideal named no generators")
    try:
        return GradedSubspace.from_vectors(f, g.space, vectors)
    except ValueError as exc:
        raise FormatError(f"bad ideal generators: {exc}") from None


def cmd_quotient(args):
    g = _load(args, args.file)
    k = _parse_ideal(g, args.ideal)
    qalg, proj = quotient(g, k)
    if not check_axioms(qalg).passed:
        raise HomSuperError("quotient failed re-validation")
    payload = algebra_to_dict(qalg, "quotient")
    report = {
        "algebra": payload,
        "projection": matrix_to_lists(proj.matrix),
    }
    return EXIT_OK, report, payload


def cmd_sum(args):
    g1 = _load(args, args.file_a)
    g2 = _load(args, args.file_b)
    s, emb1, emb2 = direct_sum_with_embeddings(g1, g2)
    if not check_axioms(s).passed:
        raise HomSuperError("direct sum failed re-validation")
    payload = algebra_to_dict(s, "sum")
    report = {
        "algebra": payload,
        "embedding_a": matrix_to_lists(emb1.matrix),
        "embedding_b": matrix_to_lists(emb2.matrix),
    }
    return EXIT_OK, report, payload


def cmd_factorset(args):
    g = _load(args, args.file)
    fs, split, iso = factor_set_from_complement(g)
    rep = validate_factor_set(fs)
    if not rep.passed:
        raise HomSuperError("constructed factor set failed re-validation")
    payload = factorset_to_dict(fs, "factorset")
    report = {
        "factorset": payload,
        "multiplicative": check_multiplicative_factor_set(fs),
        "complement": _graded_json(split.complement),
        "section": matrix_to_lists(split.section.matrix),
        "rebuild_iso": matrix_to_lists(iso.matrix),
    }
    return EXIT_OK, report, payload


def cmd_extend(args):
    _, fs = load_factorset(args.file)
    _check_field(args, args.file, fs.field)
    if not check_axioms(fs.quotient).passed:
        raise FormatError(f"the quotient in {args.file} is not a valid algebra")
    ext = extend(fs)
    if not check_axioms(ext.algebra).passed:
        raise HomSuperError("extension failed re-validation")
    payload = algebra_to_dict(ext.algebra, "extension")
    report = {
        "algebra": payload,
        "center_indices": list(ext.center_indices),
        "quotient_indices": list(ext.quotient_indices),
    }
    return EXIT_OK, report, payload


def cmd_stem_decompose(args):
    g = _load(args, args.file)
    sd = stem_decompose(g)
    p_payload = algebra_to_dict(sd.stem_part, "stem")
    q_payload = algebra_to_dict(sd.abelian_part, "abelian")
    payload = {"stem": p_payload, "abelian": q_payload,
               "iso": matrix_to_lists(sd.iso.matrix)}
    return EXIT_OK, payload, payload


def _check_budget(args):
    if args.budget < 0:
        raise FormatError(f"--budget must be non-negative, got {args.budget}")


def cmd_isoclinic(args):
    if args.decide:
        _check_budget(args)
    g1 = _load(args, args.file_a)
    g2 = _load(args, args.file_b)
    if args.witness:
        w = load_witness(args.witness, g1, g2)
        rep = verify_isoclinism(g1, g2, w)
        report = {
            "verdict": "isoclinic" if rep.passed else "not-verified",
            "failures": _failures_json(g1.field, rep),
        }
        return (EXIT_OK if rep.passed else EXIT_FALSE), report, None
    verdict, w = isoclinic_decide(g1, g2, args.budget)
    report = {"verdict": verdict}
    if w is not None:
        report["witness"] = witness_to_dict(w, g1, g2)
    if g1.space.dims == g2.space.dims:
        try:
            found = iso_search(g1, g2, args.budget)
            report["isomorphic"] = found is not None
            if found is not None:
                report["isomorphism"] = matrix_to_lists(found.matrix)
        except SearchInconclusive:
            report["isomorphic"] = "inconclusive"
    code = {"isoclinic": EXIT_OK, "not-isoclinic": EXIT_FALSE,
            "inconclusive": EXIT_INCONCLUSIVE}[verdict]
    return code, report, None


def cmd_iso_search(args):
    _check_budget(args)
    g1 = _load(args, args.file_a)
    g2 = _load(args, args.file_b)
    found = iso_search(g1, g2, args.budget)
    if found is None:
        return EXIT_FALSE, {"verdict": "no-isomorphism"}, None
    report = {"verdict": "isomorphic", "isomorphism": matrix_to_lists(found.matrix)}
    return EXIT_OK, report, None


if __name__ == "__main__":
    sys.exit(main())
