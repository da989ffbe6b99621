"""Command line front end.

Exit codes: 0 success, 1 domain failure (invalid/non-elliptic model, violated
identity, mismatching comparison), 2 I/O or usage error, 3 exactness breach
or internal inconsistency.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import is_dataclass
from json.encoder import encode_basestring_ascii as _json_str

from . import dsl, invariants
from .errors import (CompositionNotZero, EllipticaError, ExactnessFailure,
                     InternalInconsistency, ModelSyntaxError,
                     UnknownCatalogEntry, ValidationError)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_EXACTNESS = 3


def _load(spec: str):
    """A model argument is either a .rhm file path or a catalog spec."""
    if spec.endswith(".rhm") or os.path.sep in spec or os.path.exists(spec):
        try:
            return dsl.parse_file(spec)
        except OSError as exc:
            raise _Usage(f"cannot read {spec!r}: {exc.strerror or exc}")
        except UnicodeDecodeError as exc:
            raise _Usage(f"cannot read {spec!r}: not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})")
    return dsl.catalog_spec(spec)


class _Usage(Exception):
    pass


def _json(v, nl: str = "\n") -> str:
    """The JSON text of ``v``, byte for byte what ``json.dumps(...,
    indent=2, sort_keys=True)`` writes, in one walk; ``nl`` is a newline and
    the indent of the line ``v`` starts on.

    Lists and tuples are arrays; a dict's keys are ``str()``'d (the last
    value wins where two keys collide) and sorted as strings; a record
    (dataclass) is the dict of its fields; any other value is its ``str()``.
    Strings are ASCII-escaped, ints are ``int.__repr__``.  Exact types are
    tried first, then subclasses in that order."""
    t = type(v)
    if t is str:
        return _json_str(v)
    if t is int:
        return int.__repr__(v)
    if t is dict:
        return _json_object(v, nl)
    if t is list or t is tuple:
        return _json_array(v, nl)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return _json_array(v, nl)
    if isinstance(v, dict):
        return _json_object(v, nl)
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, int):      # IntEnum: its value, as json writes it
        return int.__repr__(v)
    if is_dataclass(v):
        return _json(vars(v), nl)
    return _json_str(str(v))


def _json_array(v, nl: str) -> str:
    if not v:
        return "[]"
    inner = nl + "  "
    return ("[" + inner + ("," + inner).join([_json(x, inner) for x in v])
            + nl + "]")


def _json_object(v, nl: str) -> str:
    items = {str(k): x for k, x in v.items()}
    if not items:
        return "{}"
    inner = nl + "  "
    return ("{" + inner + ("," + inner).join(
        [_json_str(k) + ": " + _json(items[k], inner) for k in sorted(items)])
        + nl + "}")


def _emit(args, lines: list[str], tables, model=None, bound=None,
          ledger=(), status: str = "ok") -> int:
    """Print the text lines, or the JSON report, whose tables are a dict or
    a record; the exit code of its status."""
    if args.json:
        # one write: json.dump with indent writes each token on its own
        sys.stdout.write(_json({
            "model": model, "bound": bound, "tables": tables,
            "ledger": ledger, "status": status,
        }) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK if status == "ok" else EXIT_DOMAIN


def _report(args, model, lines: list[str], tables: dict, status="ok",
            **payload) -> int:
    """A report on one model: its label, ``lines``, then the status."""
    return _emit(args, [f"model: {_model_label(model)}", *lines,
                        f"status: {status}"],
                 tables, model=model.name, status=status, **payload)


def _model_label(model) -> str:
    gens = ", ".join(f"{g.name}:{g.degree}" for g in model.generators)
    return f"{model.name or 'unnamed'} ({model.kind}; {gens})"


def _analysis(args):
    return invariants.analysis(_load(args.model), args.max_degree)


# --- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    try:
        model, issues = _load(args.model).require_valid(), ()
    except ValidationError as exc:
        model, issues = exc.model, exc.report.issues
    return _report(args, model, [f"FAIL {i}" for i in issues],
                   {"issues": issues}, status="invalid" if issues else "ok")


def cmd_cohomology(args) -> int:
    a = _analysis(args)
    lines = [f"{a.h_label}{i} = {d}" for i, d in a.betti.items()
             if d or args.verbose]
    return _report(args, a.model, lines, {"betti": a.betti}, bound=a.bound)


def cmd_invariants(args) -> int:
    a = _analysis(args)
    tables, lines = a.invariants(args.verbose)
    return _report(args, a.model, lines, tables, bound=a.bound)


def cmd_whitehead(args) -> int:
    a = _analysis(args)
    rep = a.whitehead()
    lines = [*rep.lines(args.verbose),
             f"exact up to degree {rep.max_degree}: yes"]
    return _report(args, a.model, lines,
                   {"nodes": rep.nodes, "exact": rep.exact},
                   bound=rep.max_degree)


_MARKS = {"verified": "PASS", "violated": "FAIL", "not-applicable": "SKIP"}


def cmd_verify(args) -> int:
    a = _analysis(args)
    ledger = a.ledger()
    lines = [f"{_MARKS[e.status]} {e.claim}"
             + (f"  {e.witness}" if args.verbose and e.witness else "")
             for e in ledger.entries]
    return _report(args, a.model, lines, {}, bound=a.bound,
                   ledger=ledger.entries,
                   status="ok" if ledger.all_verified else "violated")


def cmd_compare(args) -> int:
    s = _load(args.sullivan)
    q = _load(args.quillen)
    if s.kind != "sullivan" or q.kind != "quillen":
        raise _Usage("compare expects a sullivan model then a quillen model")
    rep = invariants.compare_models(s, q, args.max_degree)
    lines = [f"sullivan: {_model_label(s)}", f"quillen: {_model_label(q)}",
             f"rho = {rep.rho}", f"eta = {rep.eta}"]
    for k, (lk, gk) in rep.l_vs_gamma.items():
        if args.verbose or lk or gk:
            lines.append(f"dim L^{k} = {lk}   dim Gamma_{k - 2} = {gk}")
    lines += [f"MISMATCH {m}" for m in rep.mismatches]
    status = "ok" if rep.matches else "mismatch"
    return _emit(args, [*lines, f"status: {status}"], rep,
                 model=f"{s.name}|{q.name}", status=status)


def cmd_catalog(args) -> int:
    if not args.spec:
        return _emit(args, dsl.CATALOG_NAMES, {"names": dsl.CATALOG_NAMES})
    model = dsl.catalog_spec(args.spec)
    text = dsl.serialize(model)
    return _emit(args, text.splitlines(), {"source": text}, model=model.name)


# --- driver ------------------------------------------------------------------

def _degree(text: str) -> int:
    """A --max-degree value: nonempty ASCII digits, as in .rhm text and
    catalog specs; int() would also read a sign, spaces, underscores and
    non-ASCII digits."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {d}")
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not ASCII digits: {text!r}")
    return d


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``elliptica`` argument parser, built on the first call and
    shared by every later one: ``main`` may run any number of times in one
    process without rebuilding it.  Parsing leaves the parser as it was, so
    calls do not see each other's options; callers must not mutate it."""
    ap = argparse.ArgumentParser(
        prog="elliptica",
        description="Exact rational-homotopy invariants of Sullivan and "
                    "Quillen models.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model_arg=True):
        if model_arg:
            p.add_argument("model", help=".rhm file or catalog spec")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        p.add_argument("--max-degree", type=_degree, default=None, metavar="D",
                       help="override the degree window")
        p.add_argument("--verbose", action="store_true",
                       help="include zero rows and witnesses")

    common(sub.add_parser("check", help="validate a model"))
    common(sub.add_parser("cohomology", help="Betti / homology table"))
    common(sub.add_parser("invariants", help="chi, rho / eta, classifiers"))
    common(sub.add_parser("whitehead", help="Whitehead exact sequence"))
    common(sub.add_parser("verify", help="check the structure identities"))
    pc = sub.add_parser("compare", help="Sullivan vs Quillen duality report")
    pc.add_argument("sullivan", help="sullivan .rhm file or catalog spec")
    pc.add_argument("quillen", help="quillen .rhm file or catalog spec")
    common(pc, model_arg=False)
    pk = sub.add_parser("catalog", help="list or show built-in models")
    pk.add_argument("spec", nargs="?", default=None,
                    help="catalog spec, e.g. cpn_sullivan(2)")
    pk.add_argument("--json", action="store_true")
    return ap


_HANDLERS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "invariants": cmd_invariants,
    "whitehead": cmd_whitehead,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ExactnessFailure, CompositionNotZero, InternalInconsistency) as exc:
        print(f"exactness breach: {exc}", file=sys.stderr)
        return EXIT_EXACTNESS
    except ModelSyntaxError as exc:
        print(f"syntax error{exc.where}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except (_Usage, UnknownCatalogEntry) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EllipticaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
