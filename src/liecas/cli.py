"""Command-line front end.

Subcommands:

    validate     check a bracket table: Jacobi, Levi closure, radical ideal
    count        number of functionally independent invariants (bb or bb1)
    mc           structure equations d w_k of the dual one-forms
    verify-copy  test a dressing against every copy condition exactly
    casimirs     char-poly coefficients of the dressed rotation block
    contract     weighted contraction, with or without a dressing
    catalog      list the built-in families, or dump one as JSON

Algebras come from the built-in catalog (--family, plus --N or --alpha
where the family is parametric) or from a JSON file (--algebra) in the
schema of algebra_to_json; dressings travel with the family or come from
--spec in the schema of emit_spec.  A flag the request would ignore is
refused: --N or --alpha without --family, --spec with it.  User-supplied
algebras are validated on load, so every subcommand but validate rejects
a non-Lie bracket table up front.

Exit status: 0 on success; 1 when the requested verification fails
(validate finds violations, verify-copy does not pass, a dressing fails
its check before casimirs or contract run, a derived result fails an
internal check); 2 on input the command cannot take, including bracket
tables that violate Jacobi, contractions whose limit does not exist,
algebras the operation does not apply to and requests that run out of
memory; BROKEN_PIPE when stdout is closed early (a pipe into head), with
empty stderr.  Each error class declares its kind and status, and its
payload is the rest of its document (see errors).  All documents, error
documents included, go to stdout; with --format json they are
machine-readable, errors as {"error": <kind>, ...}.  That holds for
flags argparse rejects too; in text or latex format those keep
argparse's usage message on stderr.

Each handler imports the modules it runs when it runs, so a request
loads only its own layers.  validate and mc need lie_core alone, mc
reading the stored bracket rows; count adds invariants and linalg, and
contract adds contraction.  The catalog loads only for --family or the
catalog command, enveloping and virtual_copy only for a dressing, and
casimir_gen only for casimirs, which loads neither invariants nor linalg.

The output format is text unless --format names another.  Randomized
rank probes (count) take --seed and --trials; one seed always reproduces
the same bytes.
"""

import argparse
import json
import os
import sys

from .errors import LiecasError, MalformedInputError, OutOfMemoryError
from .lie_core import algebra_from_json, algebra_to_json
from .naming import latex_name, plain_number, signed_join, signed_term
from .sparse import exact

FORMATS = ("json", "text", "latex")
BROKEN_PIPE = 141     # 128 + SIGPIPE, as a shell reports the signal

def _rational(text):
    # argparse answers an ArgumentTypeError as a usage error; a
    # MalformedInputError here would end the request in a traceback
    try:
        return exact(text)
    except MalformedInputError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _decode(text, what):
    """The one json.loads of outside input, a str or a file's UTF-8 bytes.
    Bytes that are not UTF-8, bad JSON, a number past the int-string limit
    and nesting past the recursion limit are malformed input under what."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise MalformedInputError("%s: %s" % (what, err)) from None


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise MalformedInputError("cannot read %s: %s" % (path, err)) from None
    return _decode(raw, "bad JSON in %s" % path)


def _validated(algebra):
    report = algebra.validate()
    if report.ok:
        return algebra
    payload = report.to_json()
    del payload["ok"]
    raise MalformedInputError(
        "bracket table fails validation: %s" % report.headline(), **payload)


def _read_algebra(path):
    """(algebra, embedded spec document or None) from an algebra file or a
    catalog dump {"algebra": ..., "spec": ...-or-null}; not validated."""
    doc = _load_json(path)
    embedded = None
    if isinstance(doc, dict) and "algebra" in doc and "names" not in doc:
        embedded = doc.get("spec")
        doc = doc["algebra"]
    return algebra_from_json(doc), embedded


def _select(args, want_spec=False, raw=False):
    """(algebra, spec-or-None) from --family or --algebra [+ --spec], the
    one reader of the selection flags.  With raw, an --algebra file is
    taken as it stands: not validated, its embedded dressing unread."""
    family, path = args.family, getattr(args, "algebra", None)
    spec_path = getattr(args, "spec", None)
    if family is not None and path is not None:
        raise MalformedInputError("give --family or --algebra, not both")
    if family is None and (args.N is not None or args.alpha is not None):
        raise MalformedInputError("--N and --alpha only combine with --family")
    if family is not None:
        if spec_path is not None:
            raise MalformedInputError("--spec only combines with --algebra")
        from .catalog import build
        algebra, spec = build(family, args.N, args.alpha)
    elif path is not None:
        algebra, doc = _read_algebra(path)
        if raw:
            return algebra, None
        algebra = _validated(algebra)
        if spec_path is not None:
            doc = _load_json(spec_path)
        spec = None
        if spec_path is not None or doc is not None:
            from .virtual_copy import parse_spec
            spec = parse_spec(algebra, doc)
    else:
        raise MalformedInputError("need --family or --algebra")
    if want_spec and spec is None:
        raise MalformedInputError(
            "no dressing: give --spec with --algebra, or pick a family "
            "that carries one (see catalog)")
    return algebra, spec


def _parse_weights(raw):
    # inline when it opens as an object, list, string or number would
    if raw.lstrip().startswith(tuple('{["-0123456789')):
        table = _decode(raw, "bad inline weights JSON")
    else:
        table = _load_json(raw)
    if not isinstance(table, dict):
        raise MalformedInputError(
            "weights must be a JSON object mapping names to integers")
    return table


# ---- shared renderers --------------------------------------------------------


def _bracket_lines(algebra, latex=False):
    names = ([latex_name(m) for m in algebra.names] if latex
             else algebra.names)
    return ["[%s, %s] = %s" % (names[i], names[j], signed_join(
                signed_term(c, names[k], latex)
                for k, c in sorted(algebra.brackets[(i, j)].items())))
            for (i, j) in sorted(algebra.brackets)]


def _spec_lines(spec, latex=False):
    names = spec.algebra.names
    lines = ["f = %s" % spec.f.render(latex=latex)]
    for i in sorted(spec.P):
        lines.append("P[%s] = %s" % (names[i], spec.P[i].render(latex=latex)))
    return lines


def _poly_json(poly):
    # the one place a word is spelled out as a dense exponent list
    out = []
    for w, c in poly.monomials():
        exps = [0] * poly.nvars
        for t in w:
            exps[t] += 1
        out.append({"exps": exps, "coeff": plain_number(c)})
    return out


# ---- subcommands -------------------------------------------------------------
#
# A handler takes (args, fmt) and returns (exit status, output), where the
# output is the document when fmt is "json" and the text to print otherwise;
# it renders only that one format.  Latex falls back to the text where a
# command has no latex form.


def _report_out(fmt, report):
    return report.to_json() if fmt == "json" else report.describe()


def _cmd_validate(args, fmt):
    algebra, _spec = _select(args, raw=True)
    report = algebra.validate()
    return (0 if report.ok else 1), _report_out(fmt, report)


def _cmd_count(args, fmt):
    from .invariants import invariant_count
    algebra, _spec = _select(args)
    report = invariant_count(algebra, trials=args.trials, seed=args.seed,
                             method=args.method)
    if fmt == "latex":
        return 0, "N(\\mathfrak{g}) = %d" % report.count
    if not args.verbose:
        return 0, ({"count": report.count} if fmt == "json"
                   else "count: %d" % report.count)
    if fmt == "json":
        return 0, {
            "count": report.count,
            "generic_rank": report.generic_rank,
            "method": report.method,
            "seed": args.seed,
            "witness_point": [str(x) for x in report.witness_point],
        }
    return 0, ("count: %d\nmethod: %s\ngeneric rank: %d\nwitness: %s"
               % (report.count, report.method, report.generic_rank,
                  " ".join(str(x) for x in report.witness_point)))


def _cmd_mc(args, fmt):
    algebra, _spec = _select(args)
    names = algebra.names
    # d w_k = sum_{i<j} C_ij^k w_i ^ w_j: the bracket rows grouped by k
    forms = [[] for _ in names]
    for i, j in sorted(algebra.brackets):
        for k, c in algebra.brackets[(i, j)].items():
            forms[k].append((i, j, c))
    if fmt == "json":
        return 0, {"forms": [
            {"k": names[k],
             "terms": [{"i": names[i], "j": names[j], "c": plain_number(c)}
                       for i, j, c in form]}
            for k, form in enumerate(forms)]}
    latex = fmt == "latex"
    w = (["\\omega_{%s}" % latex_name(m) for m in names] if latex
         else ["w_{%s}" % m for m in names])
    head, wedge = ("d%s = %s", " \\wedge ") if latex else ("d %s = %s", "^")
    return 0, "\n".join(
        head % (w[k], signed_join(
            signed_term(c, w[i] + wedge + w[j], latex) for i, j, c in form))
        for k, form in enumerate(forms))


def _cmd_verify_copy(args, fmt):
    from .virtual_copy import verify
    algebra, spec = _select(args, want_spec=True)
    report = verify(algebra, spec)
    if report.passed:
        return 0, {"passed": True} if fmt == "json" else "passed"
    return 1, _report_out(fmt, report)


def _cmd_casimirs(args, fmt):
    from .casimir_gen import UCHECK_DEGREE_CAP, casimir_set
    from .enveloping import emit_pbw
    algebra, spec = _select(args, want_spec=True)
    cs = casimir_set(algebra, spec)
    names = algebra.names
    ls = sorted(cs.coefficients)
    if fmt == "json":
        return 0, {"N": cs.N, "casimirs": [
            {"l": l, "degree": cs.coefficients[l].degree(),
             "coefficient": _poly_json(cs.coefficients[l]),
             "symmetrized": emit_pbw(cs.symmetrized[l]),
             "checked": cs.checked[l]}
            for l in ls]}
    if fmt == "latex" and ls:
        return 0, "\n".join(
            line for l in ls for line in (
                "C_{%d} = %s" % (2 * l,
                                 cs.coefficients[l].render(names, latex=True)),
                "\\operatorname{Sym} C_{%d} = %s"
                % (2 * l, cs.symmetrized[l].render(latex=True))))
    lines = ["N = %d" % cs.N]
    for l in ls:
        poly = cs.coefficients[l]
        lines.append("C_%d = %s" % (2 * l, poly.render(names)))
        lines.append("sym C_%d = %s" % (2 * l, cs.symmetrized[l].render()))
        if not cs.checked[l]:
            lines.append("(unchecked in U(g): degree %d > %d)"
                         % (poly.degree(), UCHECK_DEGREE_CAP))
    if not ls:
        lines.append("(no even coefficients: rotation block below 2)")
    return 0, "\n".join(lines)


def _cmd_contract(args, fmt):
    from .contraction import (ContractionWeights, contract_algebra,
                              contract_copy)
    algebra, spec = _select(args)
    weights = ContractionWeights(algebra, _parse_weights(args.weights))
    names = algebra.names
    shown = weights.describe()
    weight_line = "weights: %s" % (
        ", ".join("%s=%d" % (n, shown[n]) for n in sorted(shown))
        if shown else "all zero")

    if spec is None:
        prime = contract_algebra(algebra, weights)
        if fmt == "json":
            return 0, {"weights": shown,
                       "contracted_algebra": algebra_to_json(prime)}
        if fmt == "latex":
            return 0, "\n".join(_bracket_lines(prime, latex=True))
        return 0, "\n".join([weight_line, "contracted bracket table:"]
                            + _bracket_lines(prime))

    from .enveloping import emit_pbw
    from .virtual_copy import emit_spec
    outcome = contract_copy(algebra, spec, weights)
    prime = outcome.algebra_prime
    code = 0
    if outcome.verify_report is not None and not outcome.verify_report.passed:
        code = 1
    if fmt == "json":
        return code, {
            "weights": shown,
            "f_top_weight": outcome.M0,
            "p_top_weights": {names[i]: m for i, m in outcome.Mi.items()},
            "operator_top_weights": {names[i]: n
                                     for i, n in outcome.Ni.items()},
            "copy_compatible": outcome.copy_compatible,
            "f_leading": emit_pbw(outcome.f0),
            "p_leading": {names[i]: emit_pbw(p)
                          for i, p in outcome.P0.items() if not p.is_zero()},
            "contracted_algebra": algebra_to_json(prime),
            "operators": {names[i]: emit_pbw(op)
                          for i, op in outcome.operators_prime.items()},
            "contracted_dressing": (emit_spec(outcome.spec_prime)
                                    if outcome.spec_prime is not None
                                    else None),
            "verify": (outcome.verify_report.to_json()
                       if outcome.verify_report is not None else None),
        }
    lines = [weight_line,
             "top weight of f: %d" % outcome.M0]
    for i in sorted(outcome.Mi):
        lines.append("top weight of P[%s]: %d" % (names[i], outcome.Mi[i]))
    lines.append("copy compatible: %s"
                 % ("yes" if outcome.copy_compatible else "no"))
    lines.append("contracted bracket table:")
    lines.extend(_bracket_lines(prime))
    lines.append("limit operators:")
    for i in sorted(outcome.operators_prime):
        lines.append("%s'' = %s" % (names[i],
                                    outcome.operators_prime[i].render()))
    if outcome.verify_report is not None:
        lines.append("contracted dressing verifies: %s"
                     % ("yes" if outcome.verify_report.passed else "no"))
    return code, "\n".join(lines)


def _cmd_catalog(args, fmt):
    if args.family is None and args.N is None and args.alpha is None:
        from .catalog import FAMILIES
        if fmt == "json":
            return 0, {"families": [
                {"name": name, "parameter": fam.parameter,
                 "min_parameter": fam.least, "max_parameter": fam.most,
                 "carries_dressing": fam.dressed, "about": fam.about}
                for name, fam in FAMILIES.items()]}
        lines = []
        for name, fam in FAMILIES.items():
            if fam.most is not None:
                head = "%s in %d..%d" % (fam.parameter, fam.least, fam.most)
            elif fam.parameter == "alpha":
                head = "alpha rational, default 1"
            else:
                head = "fixed"
            lines.append("%s: %s; %s; %s"
                         % (name, head,
                            "with dressing" if fam.dressed else "no dressing",
                            fam.about))
        return 0, "\n".join(lines)

    from .virtual_copy import emit_spec
    algebra, spec = _select(args)
    if fmt == "json":
        return 0, {"algebra": algebra_to_json(algebra),
                   "spec": emit_spec(spec) if spec is not None else None}
    latex = fmt == "latex"
    names = algebra.names
    lines = [] if latex else [
        "%s  dim %d" % (args.family, algebra.dim),
        "generators: %s" % ", ".join(names),
        "levi: %s" % ", ".join(names[i] for i in sorted(algebra.levi)),
        "radical: %s" % ", ".join(names[i] for i in sorted(algebra.radical))]
    lines.extend(_bracket_lines(algebra, latex))
    if spec is not None:
        lines.extend(_spec_lines(spec, latex))
    return 0, "\n".join(lines)


_HANDLERS = {
    "validate": _cmd_validate,
    "count": _cmd_count,
    "mc": _cmd_mc,
    "verify-copy": _cmd_verify_copy,
    "casimirs": _cmd_casimirs,
    "contract": _cmd_contract,
    "catalog": _cmd_catalog,
}


# ---- wiring ------------------------------------------------------------------


def _add_selection(sub, with_spec=False, with_algebra=True):
    sub.add_argument("--family", metavar="NAME",
                     help="built-in family (see catalog)")
    sub.add_argument("--N", type=int, metavar="N",
                     help="size parameter for parametric families")
    sub.add_argument("--alpha", type=_rational, metavar="Q",
                     help="rational parameter of boson_example")
    if with_algebra:
        sub.add_argument("--algebra", metavar="PATH",
                         help="algebra JSON file (validated on load)")
    if with_spec:
        sub.add_argument("--spec", metavar="PATH",
                         help="dressing JSON file (with --algebra)")
    sub.add_argument("--format", choices=FORMATS, default="text",
                     help="output format (default text)")


class _UsageError(MalformedInputError):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so main can answer it in the requested
    format; the subcommand parsers share the class."""

    def error(self, message):
        raise _UsageError(self, message)


def _usage_format(argv):
    """The --format a request that argparse rejected asked for, if any."""
    pre = _Parser(add_help=False)
    pre.add_argument("--format")
    try:
        return pre.parse_known_args(argv)[0].format
    except _UsageError:
        return None


def _build_parser():
    parser = _Parser(
        prog="liecas",
        description="exact invariants of Lie algebras through dressed "
                    "Levi copies")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("validate", help="check a bracket table")
    _add_selection(sub)

    sub = subs.add_parser("count",
                          help="number of functionally independent invariants")
    _add_selection(sub)
    sub.add_argument("--method", choices=("bb", "bb1"), default="bb",
                     help="rank of A(g) at random points (bb, 3 trials), "
                          "or 2 x the half-rank of the structure 2-form "
                          "pencil, the same matrix (bb1, 5 trials)")
    sub.add_argument("--seed", type=int, default=1729,
                     help="seed for the random rank probes (default 1729)")
    sub.add_argument("--trials", type=int, default=None,
                     help="number of probe points (defaults per method)")
    sub.add_argument("--verbose", action="store_true",
                     help="include rank, method and witness in the output")

    sub = subs.add_parser("mc", help="structure equations of the dual forms")
    _add_selection(sub)

    sub = subs.add_parser("verify-copy",
                          help="test a dressing against the copy conditions")
    _add_selection(sub, with_spec=True)

    sub = subs.add_parser("casimirs",
                          help="char-poly coefficients of the dressed "
                               "rotation block")
    _add_selection(sub, with_spec=True)

    sub = subs.add_parser("contract", help="weighted contraction")
    _add_selection(sub, with_spec=True)
    sub.add_argument("--weights", required=True, metavar="JSON|PATH",
                     help="name -> integer weight table, inline or a file")

    sub = subs.add_parser("catalog",
                          help="list built-in families or dump one")
    _add_selection(sub, with_algebra=False)

    return parser


def _render(fmt, out):
    return json.dumps(out, sort_keys=True) if fmt == "json" else out


def _refuse(fmt, err):
    """Print the answer to a LiecasError; return its exit status."""
    report = getattr(err, "report", None)
    if report is not None:
        # a dressing that fails its check prints the whole report
        print(_render(fmt, _report_out(fmt, report)))
        return 1
    print(_render(fmt, {"error": err.kind, **err.payload} if fmt == "json"
                  else "error: %s" % err))
    return err.status


def main(argv=None):
    try:
        code = _answer(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at exit would raise again: send the rest to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


def _answer(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except _UsageError as err:
        if _usage_format(argv) == "json":
            return _refuse("json", err)
        # argparse's own answer: usage and message on stderr
        err.parser.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (err.parser.prog, err))
        return err.status
    fmt = args.format
    try:
        code, out = _HANDLERS[args.subcommand](args, fmt)
        text = _render(fmt, out)
    except LiecasError as err:
        return _refuse(fmt, err)
    except MemoryError:
        # the request's data and frames go when this clause ends
        code = out = None
    if code is None:
        return _refuse(fmt, OutOfMemoryError("out of memory"))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
