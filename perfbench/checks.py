"""Checks of dualdeg's outputs against refs.py and against properties the
method must have.  Each check returns a list of problems, empty when the
output is right."""

import json

import refs


def params(op):
    return {"p": op["p"], "q": op["q"], "n": op["n"]}


def sigma_of(op):
    s = op["sigma"]
    return (tuple(s[0]), tuple(s[1])) if op["family"] == refs.UPQ else tuple(s)


def _conjectural(op):
    return op["family"] == refs.MP and op["n"] + 1 <= op["k"] <= 2 * op["n"] - 2


def check_degree(op, out):
    """out: q_count, p_count, degree, regime, conjectural, checks [[name, status]]."""
    fam, k, pr = op["family"], op["k"], params(op)
    want = refs.expected_degree(fam, k, sigma_of(op), **pr)
    problems = []
    if int(out["degree"]) != want:
        problems.append(f"degree {out['degree']} != {want}")
    if int(out["q_count"]) * int(out["p_count"]) != int(out["degree"]):
        problems.append("degree != q_count * p_count")
    if int(out["p_count"]) != refs.count_P(fam, k, **pr):
        problems.append(f"p_count {out['p_count']} != {refs.count_P(fam, k, **pr)}")
    if out["regime"] != refs.regime(fam, k, **pr):
        problems.append(f"regime {out['regime']}")
    if out["conjectural"] != _conjectural(op):
        problems.append("conjectural flag")
    problems += [f"cross-check {name} failed" for name, status in out["checks"] if status == "fail"]
    return problems


def check_hilbert(op, out):
    """out: numerator (rendered), exponent, p_count, series."""
    fam, k, pr = op["family"], op["k"], params(op)
    coeffs = refs.parse_polynomial(out["numerator"])
    problems = []
    if coeffs != refs.hilbert_numerator(fam, k, **pr):
        problems.append(f"numerator {out['numerator']}")
    if any(c < 0 for c in coeffs):
        problems.append("negative coefficient")
    if int(out["p_count"]) != sum(coeffs):
        problems.append("p_count is not the numerator at t = 1")
    if fam in (refs.UPQ, refs.MP, refs.OSTAR) and sum(coeffs) != refs.count_P(fam, k, **pr):
        problems.append(f"numerator at 1 is {sum(coeffs)}, #P_k is {refs.count_P(fam, k, **pr)}")
    if out["exponent"] != refs.orbit_dim(fam, k, **pr):
        problems.append(f"exponent {out['exponent']} != {refs.orbit_dim(fam, k, **pr)}")
    if (fam == refs.OSTAR or (fam == refs.UPQ and op["p"] == op["q"])) and coeffs != coeffs[::-1]:
        problems.append("numerator is not palindromic")
    if f"/(1-t)^{out['exponent']}" not in out["series"]:
        problems.append("series does not match the exponent")
    return problems


def check_theta(op, out):
    """out: plane partitions, facets, round_trip, facet_match, corner_hist."""
    fam, k, pr = op["family"], op["k"], params(op)
    want = refs.count_P(fam, k, **pr)
    problems = []
    if out["plane_partitions"] != want or out["facets"] != want:
        problems.append(f"{out['plane_partitions']} plane partitions, {out['facets']} facets, #P_k {want}")
    if not out["round_trip"]:
        problems.append("theta_inverse(theta(pp)) != pp")
    if not out["facet_match"]:
        problems.append("theta images are not the facets")
    # corners of theta(pp) are distributed as the c statistic
    if out["corner_hist"] != refs.pp_numerator(refs.diagram(fam, k, **pr), k):
        problems.append("corner counts are not distributed as the c statistic")
    return problems


def check_verify(op, out):
    bad = [s["suite"] for s in out["suites"] if not s["ok"]]
    return [f"suites failed: {bad}"] if bad or not out["ok"] else []


def _ints(payload, *keys):
    return {key: int(payload[key]) for key in keys}


def check_cli(op, out):
    """out: the JSON a `python -m dualdeg.cli` call printed."""
    fam, k, pr = op.get("family"), op.get("k"), params(op) if "family" in op else {}
    command = op["command"]
    if command == "degree":
        statuses = [[c["name"], c["status"]] for c in out["cross_checks"]]
        return check_degree(op, dict(out, checks=statuses))
    if command == "hilbert":
        return check_hilbert(op, out)
    if command == "verify":
        return check_verify(op, out)
    if command == "enumerate p":
        want = refs.count_P(fam, k, **pr)
        return [] if int(out["count"]) == want == len(out["items"]) else [f"count {out['count']} != #P_k {want}"]
    if command == "enumerate q":
        want = refs.count_Q_definition(fam, k, sigma_of(op), **pr)
        rows = [json.dumps(item, sort_keys=True) for item in out["items"]]
        shapes_ok = all(_shape(item, fam) == sigma_of(op) for item in out["items"])
        if int(out["count"]) != want or len(set(rows)) != want or not shapes_ok:
            return [f"count {out['count']}, {len(set(rows))} distinct, #Q_k by definition {want}"]
        return []
    if command == "enumerate facets":
        want = refs.count_P(fam, k, **pr)
        return [] if int(out["count"]) == want == len(out["items"]) else [f"{out['count']} facets, #P_k {want}"]
    if command == "enumerate jellyfish":
        sizes = [len(item["facet"]) for item in out["items"]]
        maximal = sum(1 for size in sizes if size == max(sizes, default=0))
        want = refs.expected_degree(fam, k, sigma_of(op), **pr)
        return [] if maximal == want else [f"{maximal} maximal jellyfish, degree {want}"]
    if command == "check not":
        got = _ints(out, "dim_u", "q_count", "degree")
        want = {"dim_u": refs.dim_U(fam, k, sigma_of(op)), "q_count": refs.dim_U(fam, k, sigma_of(op)),
                "degree": refs.expected_degree(fam, k, sigma_of(op), **pr)}
        return [] if got == want and out["ok"] else [f"check not: {got} != {want}"]
    if command == "check collapse":
        sigma = sigma_of(op)
        want = refs.dim_U(fam, k, sigma) if k <= refs.real_rank(fam, **pr) else refs.dim_F(fam, sigma, **pr)
        got = _ints(out, "q_count", "expected")
        return [] if got == {"q_count": want, "expected": want} and out["ok"] else [f"check collapse: {got}, want {want}"]
    if command == "check theta":
        want = refs.count_P(fam, k, **pr)
        got = _ints(out, "p_count", "facet_count")
        return [] if got == {"p_count": want, "facet_count": want} and out["ok"] else [f"check theta: {got}, #P_k {want}"]
    if command == "check conjecture":
        problems = [] if out["conjectural"] and out["ok"] else ["conjecture probe not ok"]
        for entry in out["entries"]:
            want = refs.expected_degree(fam, k, tuple(entry["sigma"]), **pr)
            if int(entry["degree"]) != want:
                problems.append(f"sigma {entry['sigma']}: degree {entry['degree']} != {want}")
        return problems
    raise ValueError(f"no check for {command!r}")


def _shape(item, family):
    if family == refs.UPQ:
        return tuple(len(r) for r in item["plus"]), tuple(len(r) for r in item["minus"])
    return tuple(len(r) for r in item["rows"])


CHECKS = {"degree": check_degree, "hilbert": check_hilbert, "theta": check_theta, "verify": check_verify, "cli": check_cli}


def check(op, out):
    return CHECKS[op["kind"]](op, out)
