"""Command line front end.

    homsuper verify <files...> --suite <name> [--report json|text]
    homsuper construct <file> --target akivis|ly --out <file>
    homsuper prove <target> [--report json|text]
    homsuper search --dims E,O --coeffs <list> --suite <name>
                    [--alpha id|diag:<list>] [--max N] [--budget-ms T]
                    [--out-dir DIR] [--report json|text]

Exit codes: 0 everything passed, 1 some law failed (or a proof stayed
inconclusive, or a construction precondition failed), 2 usage or I/O error.
Reports stream line by line to stdout, deterministically ordered; --report
json emits one JSON record per line.  HOMSUPER_WORKERS > 1 verifies files
(and scans search chunks) in parallel without changing the output order.
"""

import argparse
import json
import sys
from pathlib import Path

from . import constructions, freealg, identities, search, serialize
from .kernel import scalar


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (serialize.DocumentError, search.SearchSpaceError,
            identities.UnknownSuite, identities.MissingOpSlot) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homsuper",
        description="exact checks, constructions and proofs for twisted "
                    "graded algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check law suites on algebra files")
    p.add_argument("files", nargs="+")
    p.add_argument("--suite", default="all",
                   help="suite or identity name (default: all applicable)")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct",
                       help="derive a binary-ternary algebra from a file")
    p.add_argument("file")
    p.add_argument("--target", choices=("akivis", "ly"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("prove",
                       help="certify an identity over the free graded magma")
    p.add_argument("target", help="one of: %s" % ", ".join(freealg.PROOF_TARGETS))
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("search",
                       help="enumerate small algebras passing a suite")
    p.add_argument("--dims", required=True, metavar="E,O")
    p.add_argument("--coeffs", default="-1,0,1")
    p.add_argument("--suite", default="leibniz")
    p.add_argument("--alpha", default="id", metavar="id|diag:<list>")
    p.add_argument("--max", type=int, default=100, dest="max_results")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_search)
    return parser


def _emit(record, text, mode):
    if mode == "json":
        print(json.dumps(record, ensure_ascii=False))
    else:
        print(text)


# --------------------------------------------------------------------------
# verify

def _verify_file(path, suite):
    """Load one file and run the suite; returns (records, failed, error)."""
    try:
        algebra = serialize.load_algebra(path)
    except serialize.DocumentError as exc:
        return [], False, str(exc)
    reports = identities.check_suite(suite, algebra)
    records = []
    failed = False
    for report in reports:
        record = {"file": str(path)}
        record.update(report.to_dict())
        records.append((record, "%s: %s" % (path, report.summary())))
        failed = failed or not report.passed
    return records, failed, None


def _verify_file_args(args):
    return _verify_file(*args)


def cmd_verify(args):
    workers = search.worker_count()
    jobs = [(path, args.suite) for path in args.files]
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_file_args, jobs))
    else:
        results = [_verify_file(*job) for job in jobs]
    any_failed = False
    any_error = False
    for (path, _), (records, failed, error) in zip(jobs, results):
        if error is not None:
            print("error: %s" % error, file=sys.stderr)
            any_error = True
            continue
        for record, text in records:
            _emit(record, text, args.report)
        any_failed = any_failed or failed
    if any_error:
        return 2
    return 1 if any_failed else 0


# --------------------------------------------------------------------------
# construct

def cmd_construct(args):
    algebra = serialize.load_algebra(args.file)
    try:
        if args.target == "akivis":
            derived = constructions.build_hom_akivis(algebra, verify=False)
            suite = "akivis"
        else:
            derived = constructions.build_hom_ly(algebra, verify=False)
            suite = "ly"
    except constructions.PreconditionError as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return 1
    reports = identities.check_suite(suite, derived)
    verdicts = {r.name: r.passed for r in reports}
    metadata = {
        "source": algebra.name or str(args.file),
        "target": args.target,
        "verdicts": verdicts,
        "expected": {suite: all(verdicts.values())},
    }
    if args.target == "akivis":
        # The Leibniz-specific collapse of the bracket Jacobian, recorded
        # against the source algebra: true exactly when the source product
        # is left Leibniz.
        source_form = identities.check_identity(
            identities.REGISTRY["AKIVIS_LEIBNIZ_FORM"], algebra,
            name="AKIVIS_LEIBNIZ_FORM")
        metadata["akivis_leibniz_form_source"] = source_form.passed
    derived.metadata = metadata
    serialize.save_algebra(derived, args.out)
    for report in reports:
        record = {"file": str(args.out)}
        record.update(report.to_dict())
        _emit(record, "%s: %s" % (args.out, report.summary()), args.report)
    _emit({"written": str(args.out), "expected": metadata["expected"]},
          "wrote %s" % args.out, args.report)
    return 0 if all(verdicts.values()) else 1


# --------------------------------------------------------------------------
# prove

def cmd_prove(args):
    try:
        report = freealg.prove_identity_free(args.target)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    record = report.to_dict()
    verdict = report.extra["verdict"]
    text = "%s %s (%d parity assignments)" % (verdict, report.name,
                                              report.checked)
    if not report.passed:
        for survivor in report.counterexamples[:4]:
            text += "\n  parities %s: %s" % (survivor["parities"],
                                             ", ".join(survivor["surviving"]))
    _emit(record, text, args.report)
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# search

def _parse_rational_list(text, what):
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise search.SearchSpaceError("empty %s list" % what)
    for item in items:
        try:
            scalar(item)
        except (ValueError, ZeroDivisionError):
            raise search.SearchSpaceError(
                "%s %r is not a rational number" % (what, item)) from None
    return items


def cmd_search(args):
    try:
        even, odd = (int(part) for part in args.dims.split(","))
    except ValueError:
        print("error: --dims expects E,O", file=sys.stderr)
        return 2
    if args.alpha == "id":
        alpha = "id"
    elif args.alpha.startswith("diag:"):
        alpha = _parse_rational_list(args.alpha[len("diag:"):], "diagonal")
    else:
        print("error: --alpha expects id or diag:<list>", file=sys.stderr)
        return 2
    spec = search.SearchSpec(
        (even, odd), _parse_rational_list(args.coeffs, "coefficient"),
        alpha, args.suite, args.max_results, args.budget_ms)
    spec.checks()  # an unknown suite fails before any output
    _emit({"space_size": spec.space_size(), "slots": len(spec.slots)},
          "search space: %d candidates (%d free constants)"
          % (spec.space_size(), len(spec.slots)), args.report)
    outcome = search.run_search(spec)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for doc in outcome.documents:
        _emit(doc, "found %s" % doc["name"], args.report)
        if out_dir is not None:
            path = out_dir / ("%s.json" % doc["name"])
            path.write_text(serialize.canonical_text(doc), encoding="utf-8")
    summary = {"found": len(outcome.documents), "examined": outcome.examined,
               "partial": outcome.partial}
    _emit(summary, "found %d of %d examined%s"
          % (summary["found"], summary["examined"],
             " (partial)" if outcome.partial else ""), args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
