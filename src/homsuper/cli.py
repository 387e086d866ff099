"""Command-line front end.

Subcommands wrap every library capability:

  check            axiom, multiplicativity, and regularity validation
  invariants       center, derived subalgebra, stem flag, fingerprint
  quotient         quotient by a Hom-ideal given as --ideal
  sum              direct sum of two algebras
  factorset        read a factor set off a complement of the center
  extend           rebuild the central extension of a factor-set file
  stem-decompose   split off a maximal central abelian summand
  isoclinic        verify a witness file or decide isoclinism
  iso-search       search for a twist-intertwining isomorphism

Exit codes: 0 success/true, 1 checked-false or failed precondition,
2 input error (every command but check also rejects an algebra file that
fails the axioms), 3 inconclusive, 4 internal error (a constructed object
failed re-validation, or an input the checks let through broke a
construction).  Reports are byte-deterministic JSON
(or --format text); --output writes the primary constructed object so
it can be fed back into other commands.
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
    args = _parser().parse_args(argv)
    try:
        code, report, artifact = args.handler(args)
    except FormatError as exc:
        _emit(args, {"command": _echo(args), "error": str(exc)})
        return EXIT_INPUT
    except PreconditionError as exc:
        _emit(args, {"command": _echo(args), "error": str(exc)})
        return EXIT_FALSE
    except SearchInconclusive as exc:
        _emit(args, {"command": _echo(args), "verdict": "inconclusive",
                     "reason": exc.reason})
        return EXIT_INCONCLUSIVE
    except (HomSuperError, RuntimeError) as exc:
        _emit(args, {"command": _echo(args), "error": str(exc)})
        return EXIT_INTERNAL
    _emit(args, report)
    if args.output and artifact is not None:
        save_json(args.output, artifact)
    return code


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="homsuper",
        description="Exact computations with finite-dimensional Hom-Lie superalgebras")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", help="write the primary constructed object (JSON) here")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--field", help="require inputs to be over this field (Q or Fp:<p>)")

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("invariants", help="center, derived subalgebra, stem flag, fingerprint")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("quotient", help="quotient by a Hom-ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True,
                   help="generators, ';'-separated: basis names or comma-separated coordinates")
    common(p)
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("sum", help="direct sum of two algebras")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(handler=cmd_sum)

    p = sub.add_parser("factorset", help="factor set from a complement of the center")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_factorset)

    p = sub.add_parser("extend", help="central extension of a factor-set file")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("stem-decompose", help="split off a maximal central abelian summand")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_stem_decompose)

    p = sub.add_parser("isoclinic", help="verify a witness or decide isoclinism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--witness", help="witness file to verify")
    mode.add_argument("--decide", action="store_true", help="run the decision procedure")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(handler=cmd_isoclinic)

    p = sub.add_parser("iso-search", help="search for an isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p)
    p.set_defaults(handler=cmd_iso_search)

    return top


# ---------------------------------------------------------------------------
# report plumbing

def _echo(args) -> list:
    echo = [args.subcommand]
    for key in ("file", "file_a", "file_b", "ideal", "witness", "budget", "field"):
        val = getattr(args, key, None)
        if val not in (None, False):
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
    if args.field and g.field.name != args.field:
        raise FormatError(
            f"{path} is over {g.field.name}, but --field {args.field} was required")
    if args.subcommand != "check" and not check_axioms(g).passed:
        raise FormatError(f"{path} is not a valid algebra")
    return g


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
    report = {"command": _echo(args), "checks": {}, "regular": regular}
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
        "command": _echo(args),
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
        "command": _echo(args),
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
        "command": _echo(args),
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
        "command": _echo(args),
        "factorset": payload,
        "multiplicative": check_multiplicative_factor_set(fs),
        "complement": _graded_json(split.complement),
        "section": matrix_to_lists(split.section.matrix),
        "rebuild_iso": matrix_to_lists(iso.matrix),
    }
    return EXIT_OK, report, payload


def cmd_extend(args):
    _, fs = load_factorset(args.file)
    if args.field and fs.field.name != args.field:
        raise FormatError(
            f"{args.file} is over {fs.field.name}, but --field {args.field} was required")
    ext = extend(fs)
    if not check_axioms(ext.algebra).passed:
        raise HomSuperError("extension failed re-validation")
    payload = algebra_to_dict(ext.algebra, "extension")
    report = {
        "command": _echo(args),
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
    report = {"command": _echo(args), **payload}
    return EXIT_OK, report, payload


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
            "command": _echo(args),
            "verdict": "isoclinic" if rep.passed else "not-verified",
            "failures": _failures_json(g1.field, rep),
        }
        return (EXIT_OK if rep.passed else EXIT_FALSE), report, None
    verdict, w = isoclinic_decide(g1, g2, args.budget)
    report = {"command": _echo(args), "verdict": verdict}
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
        report = {"command": _echo(args), "verdict": "no-isomorphism"}
        return EXIT_FALSE, report, None
    report = {"command": _echo(args), "verdict": "isomorphic",
              "isomorphism": matrix_to_lists(found.matrix)}
    return EXIT_OK, report, None


if __name__ == "__main__":
    sys.exit(main())
