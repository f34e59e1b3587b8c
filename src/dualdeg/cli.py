"""Command-line interface: degree reports, enumerations, identity checks,
Hilbert series, and the verification harness, with JSON/CSV/text output."""

import argparse
import csv
import json
import os
import sys

from . import degree, diagrams, dualpair, jellyfish, posets


def parse_partition(text):
    """Parse a comma-separated partition like '3,2,1' (empty means zero)."""
    if text is None or text.strip() == "":
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}")
    return parts


def setting_from_args(args):
    family = args.family
    k = getattr(args, "k", 0) or 0
    if family == dualpair.UPQ:
        if not args.p or not args.q:
            raise ValueError("family upq needs --p and --q")
        return dualpair.Setting(family, k=k, p=args.p, q=args.q)
    if family in (dualpair.E6, dualpair.E7):
        return dualpair.Setting(family, k=k)
    if not args.n:
        raise ValueError(f"family {family} needs --n")
    return dualpair.Setting(family, k=k, n=args.n)


def sigma_from_args(setting, args):
    if setting.family == dualpair.UPQ:
        return (parse_partition(args.sigma_plus), parse_partition(args.sigma_minus))
    return parse_partition(args.sigma)


def tableau_rows(T):
    return [list(row) for row in T.rows]


def serialize_tableau(setting, T):
    if setting.family == dualpair.UPQ:
        plus, minus = T
        return {"plus": tableau_rows(plus), "minus": tableau_rows(minus)}
    return {"rows": tableau_rows(T)}


def serialize_pp(pp):
    return {"boxes": [[r, c, v] for (r, c), v in sorted(pp.entries.items())]}


def serialize_points(points):
    return sorted([r, c] for r, c in points)


def degree_payload(report):
    s = report.setting
    return {
        "family": s.family,
        "p": s.p,
        "q": s.q,
        "n": s.n,
        "k": s.k,
        "sigma": repr(report.sigma),
        "q_count": report.q_count,
        "p_count": report.p_count,
        "degree": report.degree,
        "regime": report.regime,
        "conjectural": report.conjectural,
        "cross_checks": [
            {"name": c.name, "status": c.status, "detail": c.detail}
            for c in report.cross_checks
        ],
    }


# report fields holding big integers, serialized as decimal strings
COUNT_KEYS = frozenset(
    {"q_count", "p_count", "degree", "expected", "dim_u", "dimension", "facet_count"}
)


def _stringify_counts(obj):
    """Replace the COUNT_KEYS integers in a payload by decimal strings, in place."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in COUNT_KEYS and isinstance(value, int):
                obj[key] = str(value)
            else:
                _stringify_counts(value)
    elif isinstance(obj, list):
        for x in obj:
            _stringify_counts(x)


def emit(payload, fmt, out=None):
    """Print a payload as JSON, CSV or text; its count fields become strings."""
    out = out or sys.stdout
    _stringify_counts(payload)
    if fmt == "json":
        print(json.dumps(payload, indent=2), file=out)
        return
    rows = payload if isinstance(payload, list) else [payload]
    flat_rows = [_flatten(r) for r in rows]
    if fmt == "csv":
        keys = list(dict.fromkeys(k for r in flat_rows for k in r))
        writer = csv.DictWriter(out, fieldnames=keys)
        writer.writeheader()
        for r in flat_rows:
            writer.writerow(r)
        return
    for r in flat_rows:
        for key, value in r.items():
            print(f"{key}: {value}", file=out)
        print(file=out)


def _flatten(obj, prefix=""):
    flat = {}
    if not isinstance(obj, dict):
        return {prefix or "value": obj}
    for key, value in obj.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def cmd_degree(args):
    setting = setting_from_args(args)
    sigma = sigma_from_args(setting, args)
    report = degree.bernstein_degree(setting, sigma, limit=args.limit)
    emit(degree_payload(report), args.format)
    return 0 if report.ok() else 1


def cmd_enumerate(args):
    setting = setting_from_args(args)
    kind = args.object
    if kind == "q":
        sigma = sigma_from_args(setting, args)
        objects = dualpair.enumerate_Q(setting, sigma)
        serialize = lambda T: serialize_tableau(setting, T)
    elif kind == "p":
        objects = diagrams.enumerate_P(setting, setting.k)
        serialize = serialize_pp
    elif kind == "facets":
        objects = posets.enumerate_facets(setting, setting.k)
        serialize = lambda f: {"points": serialize_points(f.points)}
    else:  # jellyfish
        sigma = sigma_from_args(setting, args)
        objects = jellyfish.enumerate_jellyfish(setting, sigma)
        serialize = lambda j: {
            "tableau": serialize_tableau(setting, j.tableau),
            "facet": serialize_points(j.family.points),
        }
    count = len(objects)
    items = [serialize(x) for x in (objects if args.limit is None else objects[: args.limit])]
    del objects  # the full listing need not outlive the serialized items
    emit({"count": count, "truncated": len(items) < count, "items": items}, args.format)
    return 0


def cmd_check(args):
    setting = setting_from_args(args)
    limit = degree.DEFAULT_LIMIT if args.limit is None else args.limit
    if args.identity == "not":
        sigma = sigma_from_args(setting, args)
        report = degree.not_identity_check(setting, sigma, limit=limit)
    elif args.identity == "collapse":
        sigma = sigma_from_args(setting, args)
        report = dualpair.q_collapse_check(setting, sigma, limit=limit)
    elif args.identity == "theta":
        p_count, facet_count, failures = degree.theta_check(setting, setting.k, limit=limit)
        report = {"p_count": p_count, "facet_count": facet_count, "ok": not failures}
    elif args.identity == "conjecture":
        if setting.family != dualpair.MP:
            raise ValueError("the conjecture probe applies to the mp family")
        if args.sigma is not None:
            sigmas = [parse_partition(args.sigma)]
        else:
            sigmas = list(degree.iter_sigmas(setting, 2))
        report = degree.mp_conjecture_probe(setting.n, setting.k, sigmas, limit=limit)
        report["ok"] = all(e["checks_ok"] for e in report["entries"])
    else:  # exceptional
        report = degree.exceptional_check(5)
    emit(report, args.format)
    return 0 if report.get("ok", True) else 1


def cmd_hilbert(args):
    setting = setting_from_args(args)
    emit(degree.hilbert_report(setting, setting.k), args.format)
    return 0


def cmd_verify(args):
    report = degree.verify_all(only=args.only, seed=args.seed)
    emit(report, args.format)
    return 0 if report["ok"] else 1


def _add_common(parser, need_sigma=True):
    parser.add_argument("--family", required=True, choices=dualpair.ALL_FAMILIES)
    parser.add_argument("--p", type=int, default=0)
    parser.add_argument("--q", type=int, default=0)
    parser.add_argument("--n", type=int, default=0)
    parser.add_argument("--k", type=int, default=0)
    if need_sigma:
        parser.add_argument("--sigma", default=None, help="partition, e.g. 3,2,1")
        parser.add_argument("--sigma-plus", default=None)
        parser.add_argument("--sigma-minus", default=None)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualdeg",
        description="Exact Bernstein-degree combinatorics for the dual-pair families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_degree = sub.add_parser("degree", help="degree report for one module")
    _add_common(p_degree)
    p_degree.add_argument("--limit", type=int, default=degree.DEFAULT_LIMIT)
    p_degree.set_defaults(func=cmd_degree)

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects")
    p_enum.add_argument("object", choices=("q", "p", "facets", "jellyfish"))
    _add_common(p_enum)
    p_enum.add_argument("--limit", type=int, default=degree.DEFAULT_LIMIT)
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check", help="run one identity check")
    p_check.add_argument(
        "identity", choices=("not", "theta", "collapse", "conjecture", "exceptional")
    )
    _add_common(p_check)
    # None when not given: check exceptional takes no --limit
    p_check.add_argument("--limit", type=int, default=None)
    p_check.set_defaults(func=cmd_check)

    p_hilbert = sub.add_parser("hilbert", help="Hilbert series of an orbit closure")
    _add_common(p_hilbert, need_sigma=False)
    p_hilbert.set_defaults(func=cmd_hilbert)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--only", default=None)
    p_verify.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _sigma_flags_read(args, what):
    """The dests of the sigma flags the call reads: the subcommands that take
    a label read upq's pair or the other families' single partition; check
    conjecture reads --sigma alone."""
    if what == "conjecture":
        return ("sigma",)
    if args.command == "degree" or what in ("q", "jellyfish", "not", "collapse"):
        return ("sigma_plus", "sigma_minus") if args.family == dualpair.UPQ else ("sigma",)
    return ()


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    what = getattr(args, "object", None) or getattr(args, "identity", None)
    call = f"{args.command} {what}" if what else args.command
    if what == "exceptional" and args.limit is not None:
        parser.error(f"{call} takes no --limit")
    read = _sigma_flags_read(args, what)
    for dest in ("sigma", "sigma_plus", "sigma_minus"):
        if getattr(args, dest, None) is not None and dest not in read:
            where = f"{call} --family {args.family}" if read else call
            parser.error(f"{where} takes no --{dest.replace('_', '-')}")
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe.  Exit as a process killed by SIGPIPE
        # would (1 is kept for a failed cross-check), with stdout on devnull
        # so that the flush at interpreter shutdown cannot raise again.
        sys.stdout = open(os.devnull, "w")
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
