"""Command line front end.

Exit codes: 0 success, 1 domain failure (invalid/non-elliptic model, violated
identity, mismatching comparison), 2 I/O or usage error, 3 exactness breach
or internal inconsistency.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import dsl, invariants, quillen, sullivan
from .errors import (BadParameter, CompositionNotZero, EllipticaError,
                     ExactnessFailure, InternalInconsistency,
                     ModelSyntaxError, NotEllipticWithinBound, UnboundedGamma,
                     UnknownCatalogEntry, ValidationError)
from .quillen import DGLModel
from .sullivan import SullivanModel

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
    return dsl.catalog_spec(spec)


class _Usage(Exception):
    pass


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _bound(args, model) -> int:
    """The degree window: ``--max-degree`` if given, else the model's default."""
    if args.max_degree is not None:
        return args.max_degree
    if isinstance(model, SullivanModel):
        return invariants.default_bound(model)
    return quillen.default_bound(model)


def _model_label(model) -> str:
    kind = "sullivan" if isinstance(model, SullivanModel) else "quillen"
    gens = ", ".join(f"{g.name}:{g.degree}" for g in model.generators)
    return f"{model.name or 'unnamed'} ({kind}; {gens})"


# --- subcommands -------------------------------------------------------------

def cmd_check(args) -> int:
    model = _load(args.model)
    report = model.validate()
    lines = [f"model: {_model_label(model)}"]
    for issue in report.issues:
        lines.append(f"FAIL {issue.check} ({issue.generator}): {issue.message}")
    lines.append("status: ok" if report.ok else "status: invalid")
    _emit(args, {
        "model": model.name,
        "bound": None,
        "tables": {"issues": [{"check": i.check, "generator": i.generator,
                               "message": i.message} for i in report.issues]},
        "ledger": [],
        "status": "ok" if report.ok else "invalid",
    }, lines)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_cohomology(args) -> int:
    model = _load(args.model)
    bound = _bound(args, model)
    if isinstance(model, SullivanModel):
        cx = model.complex()
        table = {i: cx.betti(i) for i in range(0, bound + 1)}
        label = "dim H^"
    else:
        table = quillen.homology_table(model, bound)
        label = "dim H_"
    lines = [f"model: {_model_label(model)}"]
    for i, d in table.items():
        if d or args.verbose:
            lines.append(f"{label}{i} = {d}")
    lines.append("status: ok")
    _emit(args, {
        "model": model.name,
        "bound": bound,
        "tables": {"betti": {str(i): d for i, d in table.items()}},
        "ledger": [],
        "status": "ok",
    }, lines)
    return EXIT_OK


def cmd_invariants(args) -> int:
    model = _load(args.model)
    lines = [f"model: {_model_label(model)}"]
    if isinstance(model, SullivanModel):
        a = invariants.SullivanAnalysis(model, args.max_degree)
        a.require_elliptic()
        rep = invariants.invariant_report(model, args.max_degree, analysis=a)
        tables = {
            "chi_h": rep.chi_h,
            "chi_v": rep.chi_v,
            "rho": rep.rho,
            "formal_dimension": rep.formal_dimension,
            "f0": rep.f0,
            "odd_sphere": rep.odd_sphere,
            "l_window": {str(i): d for i, d in a.l_window().items()},
        }
        bound = a.bound
        lines += [
            f"formal dimension = {rep.formal_dimension}",
            f"chi_H = {rep.chi_h}",
            f"chi_V = {rep.chi_v}",
            f"rho = {rep.rho}",
            f"F0-space: {'yes' if rep.f0 else 'no'}",
            f"odd sphere: {'yes' if rep.odd_sphere else 'no'}",
        ]
        if args.verbose:
            for i, d in a.l_window().items():
                lines.append(f"dim L^{i} = {d}")
    else:
        bound = _bound(args, model)
        e = quillen.eta(model, bound)
        top = max(model.max_generator_degree(), 2)
        gtable = quillen.gamma_table(model, 2 * top)
        tables = {
            "eta": e,
            "eta_sequence_readout": 2 - e,
            "gamma": {str(i): d for i, d in gtable.items()},
        }
        lines += [
            f"eta (alternating Gamma sum, algebra degrees) = {e}",
            f"eta (literal sequence readout) = {2 - e}",
        ]
        if args.verbose:
            for i, d in gtable.items():
                lines.append(f"dim Gamma_{i} = {d}")
    lines.append("status: ok")
    _emit(args, {
        "model": model.name,
        "bound": bound,
        "tables": tables,
        "ledger": [],
        "status": "ok",
    }, lines)
    return EXIT_OK


def cmd_whitehead(args) -> int:
    model = _load(args.model)
    lines = [f"model: {_model_label(model)}"]
    bound = _bound(args, model)
    if isinstance(model, SullivanModel):
        rep = sullivan.whitehead_sequence(model, bound)
        rows = [{"degree": n.degree, "dim_v": n.dim_v,
                 "dim_l_next": n.dim_l_next, "dim_h_next": n.dim_h_next,
                 "rank_b": n.rank_b, "rank_incl": n.rank_incl}
                for n in rep.nodes]
        for n in rep.nodes:
            if args.verbose or n.dim_v or n.dim_l_next or n.dim_h_next:
                lines.append(
                    f"i={n.degree}: dim V^{n.degree}={n.dim_v} "
                    f"dim L^{n.degree + 1}={n.dim_l_next} "
                    f"dim H^{n.degree + 1}={n.dim_h_next} "
                    f"rank b={n.rank_b} rank incl={n.rank_incl}")
    else:
        rep = quillen.whitehead_sequence_dgl(model, bound)
        rows = [{"degree": n.degree, "dim_w": n.dim_w,
                 "dim_gamma": n.dim_gamma, "dim_h": n.dim_h,
                 "rank_b": n.rank_b, "rank_incl": n.rank_incl}
                for n in rep.nodes]
        for n in rep.nodes:
            if args.verbose or n.dim_w or n.dim_gamma or n.dim_h:
                lines.append(
                    f"i={n.degree}: dim W_{n.degree}={n.dim_w} "
                    f"dim Gamma_{n.degree}={n.dim_gamma} "
                    f"dim H_{n.degree}={n.dim_h} "
                    f"rank b={n.rank_b} rank incl={n.rank_incl}")
    lines.append(f"exact up to degree {rep.max_degree}: yes")
    lines.append("status: ok")
    _emit(args, {
        "model": model.name,
        "bound": rep.max_degree,
        "tables": {"nodes": rows, "exact": rep.exact},
        "ledger": [],
        "status": "ok",
    }, lines)
    return EXIT_OK


def _ledger_payload(ledger):
    return [{"claim": e.claim, "status": e.status,
             "witness": {k: _jsonable(v) for k, v in e.witness.items()}}
            for e in ledger.entries]


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return str(v)


def cmd_verify(args) -> int:
    model = _load(args.model)
    if not isinstance(model, SullivanModel):
        raise _Usage("verify expects a sullivan model")
    a = invariants.SullivanAnalysis(model, args.max_degree)
    ledger = invariants.full_ledger(model, args.max_degree, analysis=a)
    lines = [f"model: {_model_label(model)}"]
    for e in ledger.entries:
        mark = {"verified": "PASS", "violated": "FAIL",
                "not-applicable": "SKIP"}[e.status]
        extra = f"  {e.witness}" if (args.verbose and e.witness) else ""
        lines.append(f"{mark} {e.claim}{extra}")
    ok = ledger.all_verified
    lines.append("status: ok" if ok else "status: violated")
    _emit(args, {
        "model": model.name,
        "bound": a.bound,
        "tables": {},
        "ledger": _ledger_payload(ledger),
        "status": "ok" if ok else "violated",
    }, lines)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_compare(args) -> int:
    s = _load(args.sullivan)
    q = _load(args.quillen)
    if not isinstance(s, SullivanModel) or not isinstance(q, DGLModel):
        raise _Usage("compare expects a sullivan model then a quillen model")
    rep = invariants.compare_models(s, q, args.max_degree)
    lines = [f"sullivan: {_model_label(s)}", f"quillen: {_model_label(q)}",
             f"rho = {rep.rho}", f"eta = {rep.eta}"]
    for k, (lk, gk) in rep.l_vs_gamma.items():
        if args.verbose or lk or gk:
            lines.append(f"dim L^{k} = {lk}   dim Gamma_{k - 2} = {gk}")
    for m in rep.mismatches:
        lines.append(f"MISMATCH {m}")
    lines.append("status: ok" if rep.matches else "status: mismatch")
    _emit(args, {
        "model": f"{s.name}|{q.name}",
        "bound": None,
        "tables": {
            "rho": rep.rho,
            "eta": rep.eta,
            "l_vs_gamma": {str(k): list(v) for k, v in rep.l_vs_gamma.items()},
            "homology_pairing": {str(k): list(v)
                                 for k, v in rep.homology_pairing.items()},
            "homotopy_pairing": {str(k): list(v)
                                 for k, v in rep.homotopy_pairing.items()},
            "mismatches": list(rep.mismatches),
        },
        "ledger": [],
        "status": "ok" if rep.matches else "mismatch",
    }, lines)
    return EXIT_OK if rep.matches else EXIT_DOMAIN


def cmd_catalog(args) -> int:
    if not args.spec:
        lines = list(dsl.CATALOG_NAMES)
        _emit(args, {
            "model": None,
            "bound": None,
            "tables": {"names": list(dsl.CATALOG_NAMES)},
            "ledger": [],
            "status": "ok",
        }, lines)
        return EXIT_OK
    model = dsl.catalog_spec(args.spec)
    text = dsl.serialize(model)
    _emit(args, {
        "model": model.name,
        "bound": None,
        "tables": {"source": text},
        "ledger": [],
        "status": "ok",
    }, text.splitlines())
    return EXIT_OK


# --- driver ------------------------------------------------------------------

def _degree(text: str) -> int:
    """A --max-degree value: an integer >= 0."""
    try:
        d = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {d}")
    return d


def build_parser() -> argparse.ArgumentParser:
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
        loc = f" (line {exc.line}" + (f", col {exc.col}" if exc.col else "") + ")" \
            if exc.line else ""
        print(f"syntax error{loc}: {exc.message}", file=sys.stderr)
        return EXIT_USAGE
    except (_Usage, UnknownCatalogEntry) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, NotEllipticWithinBound, UnboundedGamma,
            BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except EllipticaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
