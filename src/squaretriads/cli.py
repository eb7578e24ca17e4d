"""Command-line front end with machine-readable output.

Exit codes: 0 success, 1 mathematical negative or degeneracy, 2 usage
error, 3 internal error (a failed certificate check).  All numeric JSON
fields are decimal strings so arbitrary-precision values survive any
consumer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import ecurve, families, search
from .errors import CompositionError, DomainError, VerificationError
from .exactnum import is_perfect_square
from .multipoly import Poly, RatFunc, exact_sqrt, var
from .quartic import QuarticPoint, choudhry_compose, euler_quartic, fermat_ascend
from .triads import Triad, elementary_symmetric, is_sum_two_rational_squares, triad_json, verify_triad

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a decimal integer" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError("expected a positive integer, got %s" % text)
    return value


def _any_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a decimal integer" % text)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("%r is not a rational number" % text)


def _format_flag(p: argparse.ArgumentParser, top: bool = False) -> None:
    p.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json" if top else argparse.SUPPRESS,
        help="output format (default: json)" if top else argparse.SUPPRESS,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squaretriads",
        description="Construct and certify triads of positive integers whose "
        "sum, pairwise-product sum and product are all perfect squares.",
    )
    _format_flag(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify one triad")
    _format_flag(p)
    p.add_argument("a", type=_positive_int)
    p.add_argument("b", type=_positive_int)
    p.add_argument("c", type=_positive_int)

    p = sub.add_parser("family", help="evaluate a registered family at integer parameters")
    _format_flag(p)
    p.add_argument("name")
    p.add_argument("params", nargs="+", type=_any_int)

    p = sub.add_parser("family-list", help="list the registered families")
    _format_flag(p)

    p = sub.add_parser("family-check", help="symbolically verify families")
    _format_flag(p)
    p.add_argument("name", nargs="?", help="family name (default: all)")

    p = sub.add_parser("generate", help="generate a family from the k-th curve point")
    _format_flag(p)
    p.add_argument("k", type=_positive_int)

    p = sub.add_parser("search", help="exhaustive verified search up to a bound")
    _format_flag(p)
    p.add_argument("bound", nargs="?", type=_positive_int, help="search bound (or use --bound)")
    p.add_argument("--bound", dest="bound_flag", type=_positive_int, help="search bound")
    p.add_argument("--primitive", action="store_true", help="emit primitive triads only")
    p.add_argument("--workers", type=_positive_int, default=1)

    p = sub.add_parser("table1", help="reproduce the 21-row numerical table")
    _format_flag(p)
    p = sub.add_parser("corpus", help="verify the historical corpus triads")
    _format_flag(p)

    p = sub.add_parser("two-squares", help="two-rational-squares witness for a positive rational")
    _format_flag(p)
    p.add_argument("value", type=_rational)

    p = sub.add_parser("fermat", help="quartic ascent on the parametric model")
    _format_flag(p)
    p.add_argument("--side", choices=("constant", "leading", "both"), default="both")
    p.add_argument("--at", nargs=2, type=_rational, metavar=("S", "T"), help="evaluate numerically")

    p = sub.add_parser("compose", help="compose the trivial point with an ascent point")
    _format_flag(p)
    p.add_argument("--with", dest="with_side", choices=("constant", "leading"), default="constant")
    p.add_argument("--at", nargs=2, type=_rational, metavar=("S", "T"), help="evaluate numerically")

    return parser


def _emit(payload, fmt: str, csv_rows=None, text_lines=None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv" and csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    elif fmt == "text" and text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True))


def _cmd_verify(args) -> int:
    triad = Triad(args.a, args.b, args.c)
    cert = verify_triad(triad)
    if cert is None:
        e1, e2, e3 = elementary_symmetric(triad)
        failed = "e1" if is_perfect_square(e1) is None else ("e2" if is_perfect_square(e2) is None else "e3")
        names = {"e1": "sum", "e2": "pairwise-product sum", "e3": "product"}
        _emit(
            {"error": "%s is not a perfect square" % names[failed], "failed": failed},
            args.format,
            csv_rows=[["failed", failed]],
            text_lines=["FAIL: %s (%s) is not a perfect square" % (failed, names[failed])],
        )
        return 1
    payload = triad_json(triad, cert)
    _emit(
        payload,
        args.format,
        csv_rows=[["a", "b", "c", "f", "g", "h"], [triad.a, triad.b, triad.c, cert.f, cert.g, cert.h]],
        text_lines=[
            "triad (%d, %d, %d): f = %d, g = %d, h = %d" % (triad.a, triad.b, triad.c, cert.f, cert.g, cert.h)
        ],
    )
    return 0


def _provenance(name: str, params) -> str:
    fam = families.get_family(name)
    inner = ", ".join(fam.params)
    vals = ", ".join(str(v) for v in params)
    return "family %s with (%s) = (%s)" % (name, inner, vals)


def _cmd_family(args) -> int:
    triad, cert = families.evaluate_family(args.name, tuple(args.params))
    payload = {
        "family": args.name,
        "params": {k: str(v) for k, v in zip(families.get_family(args.name).params, args.params)},
        "triad": triad_json(triad),
        "certificate": {"f": str(cert.f), "g": str(cert.g), "h": str(cert.h)},
        "provenance": _provenance(args.name, args.params),
    }
    _emit(
        payload,
        args.format,
        csv_rows=[["a", "b", "c", "f", "g", "h"], [triad.a, triad.b, triad.c, cert.f, cert.g, cert.h]],
        text_lines=["%s -> (%d, %d, %d)" % (payload["provenance"], triad.a, triad.b, triad.c)],
    )
    return 0


def _cmd_family_list(args) -> int:
    rows = []
    for fam in families.registry():
        rows.append(
            {
                "name": fam.name,
                "params": list(fam.params),
                "classification": fam.classification,
                "degree": str(fam.a.total_degree()),
            }
        )
    _emit(
        rows,
        args.format,
        csv_rows=[["name", "params", "classification", "degree"]]
        + [[r["name"], " ".join(r["params"]), r["classification"], r["degree"]] for r in rows],
        text_lines=["%-10s params=(%s) %s, degree %s" % (r["name"], ",".join(r["params"]), r["classification"], r["degree"]) for r in rows],
    )
    return 0


def _cmd_family_check(args) -> int:
    fams = [families.get_family(args.name)] if args.name else list(families.registry())
    reports = [families.verify_family_symbolic(f) for f in fams]
    payload = [
        {
            "name": r.name,
            "ok": r.ok,
            "square_members": str(r.square_members),
            "messages": list(r.messages),
        }
        for r in reports
    ]
    _emit(
        payload,
        args.format,
        csv_rows=[["name", "ok", "square_members"]] + [[r.name, r.ok, r.square_members] for r in reports],
        text_lines=["%-10s %s" % (r.name, "ok" if r.ok else "FAILED: " + "; ".join(r.messages)) for r in reports],
    )
    return 0 if all(r.ok for r in reports) else 1


def _cmd_generate(args) -> int:
    fam = ecurve.generate_family(args.k)
    payload = families.family_to_json(fam)
    _emit(
        payload,
        args.format,
        csv_rows=[["name", "a", "b", "c"], [payload["name"], payload["a"], payload["b"], payload["c"]]],
        text_lines=[
            "%s (%s)" % (payload["name"], payload["classification"]),
            "a = %s" % payload["a"],
            "b = %s" % payload["b"],
            "c = %s" % payload["c"],
        ],
    )
    return 0


def _cmd_search(args) -> int:
    bound = args.bound if args.bound is not None else args.bound_flag
    if bound is None:
        print("search: a bound is required (positional or --bound)", file=sys.stderr)
        return 2
    if args.bound is not None and args.bound_flag is not None and args.bound != args.bound_flag:
        print("search: conflicting bounds given", file=sys.stderr)
        return 2
    cfg = search.SearchConfig(bound, primitive_only=args.primitive, workers=args.workers)
    t0 = time.perf_counter()
    results = search.search_triads(cfg)
    elapsed = time.perf_counter() - t0
    if args.format == "csv":
        print("a,b,c,f,g,h")
        for triad, cert in results:
            print("%d,%d,%d,%d,%d,%d" % (triad.a, triad.b, triad.c, cert.f, cert.g, cert.h))
    else:
        for triad, cert in results:
            print(json.dumps(triad_json(triad, cert), sort_keys=True))
    print(
        json.dumps({"count": str(len(results)), "bound": str(bound), "elapsed_s": "%.3f" % elapsed}, sort_keys=True),
        file=sys.stderr,
    )
    return 0


def _cmd_table1(args) -> int:
    report = search.reproduce_table1()
    payload = {
        "ok": report.ok,
        "rows": [
            {
                "family": name,
                "params": [str(p) for p in params],
                "expected": [str(x) for x in want],
                "got": [str(x) for x in got],
                "match": match,
            }
            for name, params, want, got, match in report.rows
        ],
        "elapsed_s": "%.3f" % report.elapsed,
    }
    lines = [
        "%-9s %-8s %-30s %s"
        % (name, str(params), str(want), "ok" if match else "MISMATCH got %s" % (got,))
        for name, params, want, got, match in report.rows
    ]
    lines.append("%d/%d rows matched" % (sum(r[-1] for r in report.rows), len(report.rows)))
    _emit(payload, args.format, csv_rows=None, text_lines=lines)
    return 0 if report.ok else 1


def _cmd_corpus(args) -> int:
    report = search.verify_corpus()
    payload = {
        "ok": report.ok,
        "entries": [
            {
                "triad": [str(x) for x in members],
                "certified": cert is not None,
                "certificate": None if cert is None else {"f": str(cert.f), "g": str(cert.g), "h": str(cert.h)},
            }
            for members, cert in report.entries
        ],
        "elapsed_s": "%.3f" % report.elapsed,
    }
    lines = [
        "%-45s %s" % (str(members), "certified" if cert is not None else "FAILED")
        for members, cert in report.entries
    ]
    _emit(payload, args.format, csv_rows=None, text_lines=lines)
    return 0 if report.ok else 1


def _cmd_two_squares(args) -> int:
    if args.value <= 0:
        _emit({"error": "value must be positive"}, args.format, text_lines=["value must be positive"])
        return 1
    witness = is_sum_two_rational_squares(args.value)
    if witness is None:
        _emit(
            {"error": "not a sum of two rational squares", "value": str(args.value)},
            args.format,
            text_lines=["%s is not a sum of two rational squares" % args.value],
        )
        return 1
    payload = {"value": str(witness.value), "p": str(witness.p), "q": str(witness.q)}
    _emit(
        payload,
        args.format,
        csv_rows=[["value", "p", "q"], [witness.value, witness.p, witness.q]],
        text_lines=["%s = (%s)^2 + (%s)^2" % (witness.value, witness.p, witness.q)],
    )
    return 0


def _parametric_model():
    s, t = var("s"), var("t")
    return euler_quartic(RatFunc(s), RatFunc(t))


def _cmd_fermat(args) -> int:
    sides = ("constant", "leading") if args.side == "both" else (args.side,)
    out = []
    for side in sides:
        if args.at is not None:
            q = euler_quartic(args.at[0], args.at[1])
        else:
            q = _parametric_model()
        pt = fermat_ascend(q, side)
        out.append({"side": side, "u": str(pt.u), "v": str(pt.v)})
    _emit(
        out,
        args.format,
        csv_rows=[["side", "u", "v"]] + [[o["side"], o["u"], o["v"]] for o in out],
        text_lines=["%s: u = %s, v = %s" % (o["side"], o["u"], o["v"]) for o in out],
    )
    return 0


def _cmd_compose(args) -> int:
    if args.at is not None:
        q = euler_quartic(args.at[0], args.at[1])
        anchor = QuarticPoint(Fraction(0), exact_sqrt(q.a4))
    else:
        q = _parametric_model()
        s, t = var("s"), var("t")
        anchor = QuarticPoint(RatFunc(Poly.zero()), RatFunc(s * s + t * t))
    other = fermat_ascend(q, args.with_side)
    try:
        composed = choudhry_compose(q, anchor, other)
    except CompositionError:
        # the composition can degenerate for one sign of the square root
        composed = choudhry_compose(q, anchor, QuarticPoint(other.u, -other.v))
    payload = {
        "with": args.with_side,
        "u1": str(anchor.u),
        "u2": str(other.u),
        "u12": str(composed.u),
        "v12": str(composed.v),
    }
    _emit(
        payload,
        args.format,
        csv_rows=[["u12", "v12"], [payload["u12"], payload["v12"]]],
        text_lines=["u12 = %s" % payload["u12"], "v12 = %s" % payload["v12"]],
    )
    return 0


_DISPATCH = {
    "verify": _cmd_verify,
    "family": _cmd_family,
    "family-list": _cmd_family_list,
    "family-check": _cmd_family_check,
    "generate": _cmd_generate,
    "search": _cmd_search,
    "table1": _cmd_table1,
    "corpus": _cmd_corpus,
    "two-squares": _cmd_two_squares,
    "fermat": _cmd_fermat,
    "compose": _cmd_compose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, ZeroDivisionError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    except VerificationError as exc:
        # a failed internal certificate is a bug, not a mathematical "no"
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
