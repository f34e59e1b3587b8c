"""Runs one sweep of a workload in a fresh interpreter.

Reads {"ops": [...], "trace": bool, "spans": path or null} as JSON on stdin,
calls dualdeg on each operation, then checks every output and prints one
JSON line: per-operation wall times and calibration factors, the peak
resident set, failures, check problems and, when traced, per-layer totals.
Memo tables start empty, as in a new session.
"""

import json
import resource
import sys
import time

import calib
import checks


def _setting(dualdeg, op):
    return dualdeg.Setting(op["family"], k=op["k"], p=op["p"], q=op["q"], n=op["n"])


def run_op(op):
    """Call dualdeg for one operation and keep only a small summary."""
    import dualdeg
    from dualdeg import diagrams, posets

    kind = op["kind"]
    if kind == "degree":
        r = dualdeg.bernstein_degree(_setting(dualdeg, op), checks.sigma_of(op))
        return {
            "q_count": r.q_count, "p_count": r.p_count, "degree": r.degree, "regime": r.regime,
            "conjectural": r.conjectural, "checks": [[c.name, c.status] for c in r.cross_checks],
        }
    if kind == "hilbert":
        return dualdeg.hilbert_report(_setting(dualdeg, op), op["k"])
    if kind == "theta":
        s, k = _setting(dualdeg, op), op["k"]
        pps = diagrams.enumerate_P(s, k)
        facets = posets.enumerate_facets(s, k)
        images, round_trip, hist = set(), True, {}
        for pp in pps:
            f = posets.theta(s, k, pp)
            images.add(f.points)
            round_trip = round_trip and posets.theta_inverse(s, k, f) == pp
            c = len(posets.corners(s, k, f))
            hist[c] = hist.get(c, 0) + 1
        return {
            "plane_partitions": len(pps), "facets": len(facets), "round_trip": round_trip,
            "facet_match": images == {f.points for f in facets},
            "corner_hist": [hist.get(e, 0) for e in range(max(hist) + 1)],
        }
    if kind == "verify":
        return dualdeg.verify_all(seed=op["seed"])
    raise ValueError(f"unknown operation kind {kind!r}")


def main():
    job = json.load(sys.stdin)
    import dualdeg  # noqa: F401  (import time is set-up, not sweep time)

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    clock = calib.Clock()
    records = []
    for i, op in enumerate(job["ops"]):
        clock.maybe_sample()
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
        t1 = time.perf_counter()
        if t1 - t0 >= calib.INTERVAL_S:
            clock.sample()
        records.append((t0, t1, out))
    clock.sample()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = [clock.factor(t0, t1) for t0, t1, _ in records]
    failed, problems = 0, []
    for op, (_, _, out) in zip(job["ops"], records):
        if "error" in out:
            failed += 1
            print(f"operation failed: {op}: {out['error']}", file=sys.stderr)
            continue
        for problem in checks.check(op, out):
            problems.append(f"{op}: {problem}")
    result = {
        "raw_s": [t1 - t0 for t0, t1, _ in records],
        "factors": factors,
        "peak_rss_mb": peak_mb,
        "failed": failed,
        "problems": problems,
    }
    if tracer:
        result["layers"] = tracer.stats(factors)
        if job.get("spans"):
            tracer.write(job["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
