"""Command-line interface: degree reports, enumerations, identity checks,
Hilbert series, and the verification harness, with JSON/CSV/text output."""

import argparse
import itertools
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import degree, diagrams, dualpair, jellyfish, posets, repdims
from .tableaux import refuse

# the most objects enumerate lists: the dim F_lambda tableaux of T(sigma) for
# q and jellyfish, then the jellyfish themselves, the #P_k plane partitions or
# facets of a dual pair for p and facets
LISTING_BUDGET = 10**6


def parse_partition(text):
    """Parse a comma-separated partition like '3,2,1' (empty means zero)."""
    if text is None or text.strip() == "":
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}")
    return parts


def nonnegative_int(text):
    """The value of --limit: an integer >= 0, else argparse exits 2 naming the flag."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def setting_from_args(args):
    family = args.family
    k = getattr(args, "k", 0) or 0
    read = dualpair.FAMILIES[family].flags
    if any(getattr(args, dest) is None for dest in read):
        raise ValueError(f"family {family} needs " + " and ".join(f"--{dest}" for dest in read))
    return dualpair.Setting(family, k=k, **{dest: getattr(args, dest) for dest in read})


def sigma_from_args(setting, args):
    if setting.family == dualpair.UPQ:
        return (parse_partition(args.sigma_plus), parse_partition(args.sigma_minus))
    return parse_partition(args.sigma)


def serialize_tableau(setting, T):
    if setting.family == dualpair.UPQ:
        plus, minus = T
        return {"plus": [list(row) for row in plus], "minus": [list(row) for row in minus]}
    return {"rows": [list(row) for row in T]}


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


def to_json(obj, indent=2, depth=0):
    """obj, whose dict keys are strings, as json.dumps(obj, indent=indent)
    writes it (on one line for indent None), except that an int under a
    COUNT_KEYS key is written as its decimal string.  json.dumps with an
    indent runs the pure-Python encoder; here a list of ints, or of int lists
    of one length, is one % of a cached template."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        start, sep, end = _layout(depth, indent)
        fields = sep.join(
            encode_basestring_ascii(key)
            + ": "
            + to_json(str(value) if key in COUNT_KEYS and isinstance(value, int) else value, indent, depth + 1)
            for key, value in obj.items()
        )
        return "{" + start + fields + end + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            return _int_list_template(depth, len(obj), indent) % tuple(obj)
        width = len(obj[0]) if isinstance(obj[0], (list, tuple)) else 0
        if width and all(
            isinstance(x, (list, tuple)) and len(x) == width and all(type(v) is int for v in x) for x in obj
        ):
            return _int_list_template(depth, len(obj), indent, width) % tuple([v for x in obj for v in x])
        start, sep, end = _layout(depth, indent)
        return "[" + start + sep.join(to_json(x, indent, depth + 1) for x in obj) + end + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return json.dumps(obj)


def _layout(depth, indent):
    """What follows the opening bracket of a container at this depth, what
    separates its items, and what precedes its closing bracket."""
    if indent is None:
        return "", ", ", ""
    inner = "\n" + " " * (indent * (depth + 1))
    return inner, "," + inner, "\n" + " " * (indent * depth)


@cache
def _int_list_template(depth, length, indent, width=0):
    """A list of length ints at depth, or with a width, of length lists of width ints."""
    item = _int_list_template(depth + 1, width, indent) if width else "%d"
    start, sep, end = _layout(depth, indent)
    return "[" + start + sep.join([item] * length) + end + "]"


def emit(payload, fmt, out=None):
    """Print a payload as JSON, CSV or text, its count fields as decimal
    strings; the payload itself is left as it is."""
    out = out or sys.stdout
    if fmt == "json":
        print(to_json(payload), file=out)
        return
    rows = payload if isinstance(payload, list) else [payload]
    flat_rows = [_flatten(r) for r in rows]
    if fmt == "csv":
        import csv  # only CSV output needs it; every call pays for a top-level import

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
            flat[name] = to_json(value, indent=None)
        else:
            flat[name] = value
    return flat


def cmd_degree(args):
    setting = setting_from_args(args)
    sigma = sigma_from_args(setting, args)
    report = degree.bernstein_degree(setting, sigma, limit=args.limit)
    emit(degree_payload(report), args.format)
    return 0 if report.ok() else 1


def _check_listing_size(setting, sigma=None):
    """ValueError naming the size, before anything is listed, above LISTING_BUDGET:
    dim F_lambda for T(sigma), else #P_k for a dual pair.  Returns the size
    it read.  A label that is no nonzero label passes, and so does any other
    family, with None: the listing reports them."""
    if sigma is None:
        if setting.family not in dualpair.DUAL_PAIR_FAMILIES:
            return None
        name, size = "#P_k", diagrams.count_P_product(setting, setting.k)
    else:
        label = dualpair.normalize_sigma(setting, sigma)
        if dualpair._classify(setting, label) != dualpair.IN_SIGMA:
            return None
        name, size = "dim F_lambda", repdims._dim_F(setting, label)
    refuse(name, size, LISTING_BUDGET, "listing budget")
    return size


def cmd_enumerate(args):
    setting = setting_from_args(args)
    kind = args.object
    count = None  # the whole listing is counted unless a count is read first
    if kind == "q":
        if setting.k < 1:
            raise ValueError("k must be >= 1")
        sigma = sigma_from_args(setting, args)
        _check_listing_size(setting, sigma)
        objects = dualpair.enumerate_Q(setting, sigma)
        serialize = lambda T: serialize_tableau(setting, T)
    elif kind == "p":
        # #P_k from the product formula for a dual pair, which the listing
        # would count; None for the other families
        count = _check_listing_size(setting)
        objects = diagrams.iter_P(setting, setting.k)
        serialize = serialize_pp
    elif kind == "facets":
        count = _check_listing_size(setting)  # theta makes the facets as many as P_k
        objects = posets.iter_facets(setting, setting.k)
        serialize = lambda f: {"points": serialize_points(f.points)}
    else:  # jellyfish
        sigma = sigma_from_args(setting, args)
        if setting.family in jellyfish.FAMILIES:  # else count_jellyfish names the family
            _check_listing_size(setting, sigma)
        # the exact count, one path-count determinant per endpoint datum, so
        # only the printed jellyfish are listed
        count = jellyfish.count_jellyfish(setting, sigma)
        refuse("#jellyfish", count, LISTING_BUDGET, "listing budget")
        objects = jellyfish.iter_jellyfish(setting, sigma)
        serialize = lambda j: {
            "tableau": serialize_tableau(setting, j.tableau),
            "facet": serialize_points(j.family.points),
        }
    # serialize and keep only what is printed
    objects = iter(objects)
    items = [serialize(x) for x in itertools.islice(objects, args.limit)]
    if count is None:
        count = len(items) + sum(1 for _ in objects)
    emit({"count": count, "truncated": len(items) < count, "items": items}, args.format)
    return 0


def cmd_check(args):
    if args.identity == "exceptional":
        report = degree.exceptional_check(5)
        emit(report, args.format)
        return 0 if report["ok"] else 1
    setting = setting_from_args(args)
    limit = degree.DEFAULT_LIMIT if args.limit is None else args.limit
    if args.identity == "not":
        sigma = sigma_from_args(setting, args)
        if setting.k > dualpair.real_rank(setting):
            raise ValueError("identity only applies for k <= r")
        # #Q from the path count, dim U_sigma from the report
        d, q_count, failures = degree.path_count_check(setting, sigma, limit=limit)
        report = {"q_count": q_count, "dim_u": d.q_count, "p_count": d.p_count,
                  "degree": q_count * d.p_count, "ok": not failures}
    elif args.identity == "collapse":
        sigma = sigma_from_args(setting, args)
        report = degree.q_collapse_check(setting, sigma, limit=limit)
    elif args.identity == "theta":
        p_count, facet_count, failures = degree.theta_check(setting, setting.k, limit=limit)
        report = {"p_count": p_count, "facet_count": facet_count, "ok": not failures}
    elif args.identity == "conjecture":
        if setting.family != dualpair.MP:
            raise ValueError("the conjecture probe applies to the mp family")
        if not degree.is_conjectural(setting):
            r, s = dualpair.real_rank(setting), dualpair.free_threshold(setting)
            empty = f"no k lies in the window r < k < s: r = {r}, s = {s}"
            raise ValueError(f"k must lie in the window [{r + 1}, {s - 1}]" if r + 1 < s else empty)
        sigmas = degree.iter_sigmas(setting, 2) if args.sigma is None else [parse_partition(args.sigma)]
        entries = []
        for sigma in sigmas:
            d = degree.bernstein_degree(setting, sigma, limit=limit)
            entries.append({"sigma": dualpair.normalize_sigma(setting, sigma), "q_count": d.q_count,
                            "p_count": d.p_count, "degree": d.degree, "checks_ok": d.ok()})
        ok = all(e["checks_ok"] for e in entries)
        report = {"n": setting.n, "k": setting.k, "conjectural": True, "entries": entries, "ok": ok}
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


def _add_common(parser, need_sigma=True, need_family=True):
    parser.add_argument("--family", required=need_family, choices=dualpair.ALL_FAMILIES)
    # None when not given, so that a flag the call does not read is an error
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
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
    p_degree.add_argument("--limit", type=nonnegative_int, default=degree.DEFAULT_LIMIT)
    p_degree.set_defaults(func=cmd_degree)

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects")
    p_enum.add_argument("object", choices=("q", "p", "facets", "jellyfish"))
    _add_common(p_enum)
    p_enum.add_argument("--limit", type=nonnegative_int, default=degree.DEFAULT_LIMIT)
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check", help="run one identity check")
    p_check.add_argument(
        "identity", choices=("not", "theta", "collapse", "conjecture", "exceptional")
    )
    # check exceptional reads no family; main asks the other checks for one
    _add_common(p_check, need_family=False)
    # None when not given: check exceptional takes no --limit
    p_check.add_argument("--limit", type=nonnegative_int, default=None)
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
    if hasattr(sys, "set_int_max_str_digits"):  # absent, with no limit, before Python 3.10.7
        sys.set_int_max_str_digits(0)  # print counts of any length, as #P_k can be
    parser = build_parser()
    args = parser.parse_args(argv)
    what = getattr(args, "object", None) or getattr(args, "identity", None)
    call = f"{args.command} {what}" if what else args.command
    if what == "exceptional":
        # the e6/e7 table reads no setting, so a family other than those
        # two, a shape flag, --k or --limit would be dropped
        if args.family not in (None, dualpair.E6, dualpair.E7):
            parser.error(f"{call} takes no --family {args.family}")
        if args.limit is not None:
            parser.error(f"{call} takes no --limit")
    elif args.command == "check" and args.family is None:
        parser.error(f"{call} needs --family")
    elif args.command == "verify" and args.seed is not None and args.only not in (None, degree.RANDOM_SUITE):
        parser.error(f"verify --only {args.only} takes no --seed")
    if args.command != "verify":
        where = f"{call} --family {args.family}" if args.family else call
        read = () if what == "exceptional" else (*dualpair.FAMILIES[args.family].flags, "k")
        for dest in ("p", "q", "n", "k"):
            if getattr(args, dest) is not None and dest not in read:
                parser.error(f"{where} takes no --{dest}")
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
