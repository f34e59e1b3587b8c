"""Instance lists for the four workloads, drawn from a seed.

Each workload is a list of cost classes.  A class holds every candidate
instance of about the same cost; the seed shuffles each class, and sweep i
takes the i-th slice of every class, so each sweep does about the same work
and no instance repeats within a sweep.  Across the sweeps of a run the
slices move on through the shuffled class and wrap around only when it runs
out, which the small classes do (e6/e7, the verify suites, the tall labels
and the one failing CLI call).  Each sweep runs in a fresh worker, so a
repeat across sweeps finds no memo table filled.
"""

import itertools
import random

import checks
import refs

LIMIT = 5000  # dualdeg.degree.DEFAULT_LIMIT: the oracle gates open at or below it
MAX_SWEEPS = 12


def partitions(max_size, max_len, max_part, min_part=1):
    """Partitions with at most max_len parts in [min_part, max_part]."""
    out = [()] if min_part <= 1 else []

    def rec(remaining, cap, prefix):
        for part in range(min(cap, remaining), min_part - 1, -1):
            nxt = prefix + (part,)
            out.append(nxt)
            if len(nxt) < max_len:
                rec(remaining - part, part, nxt)

    rec(max_size, max_part, ())
    return out


def _cols12(sigma):
    cols = refs.conjugate(sigma)
    return (cols[0] if cols else 0) + (cols[1] if len(cols) > 1 else 0)


def admissible(family, k, sigma, p=0, q=0, n=0):
    """sigma labels a nonzero module of the setting (dualpair.IN_SIGMA)."""
    if family == refs.UPQ:
        plus, minus = sigma
        return len(plus) + len(minus) <= k and len(plus) <= q and len(minus) <= p
    if family == refs.MP:
        return _cols12(sigma) <= k and len(sigma) <= n
    return len(sigma) <= k and len(sigma) <= n


def degree_op(family, k, sigma, p=0, q=0, n=0):
    if family == refs.UPQ:
        sigma = [list(sigma[0]), list(sigma[1])]
    else:
        sigma = list(sigma)
    return {"kind": "degree", "family": family, "p": p, "q": q, "n": n, "k": k, "sigma": sigma}


def _settings(family, ranges):
    """(params dict, k) pairs for the dual-pair family over the given ranges."""
    if family == refs.UPQ:
        ps, qs, ks = ranges
        for p, q in itertools.product(ps, qs):
            for k in ks(p, q):
                yield {"p": p, "q": q}, k
    else:
        ns, ks = ranges
        for n in ns:
            for k in ks(n):
                yield {"n": n}, k


def _labels(family, k, params, size, length, part):
    if family == refs.UPQ:
        small = partitions(size, length, part)
        for plus, minus in itertools.product(small, repeat=2):
            if len(plus) + len(minus) <= k and sum(plus) + sum(minus) <= size:
                yield (plus, minus)
    else:
        yield from partitions(size, length, part)


def degree_class(family, ranges, size, length, part, keep):
    """Every admissible (setting, sigma) over the ranges that `keep` accepts."""
    out = []
    for params, k in _settings(family, ranges):
        for sigma in _labels(family, k, params, size, length, part):
            if admissible(family, k, sigma, **params) and keep(family, k, sigma, params):
                out.append(degree_op(family, k, sigma, **params))
    return out


def gates_closed(family, k, sigma, params):
    """The q-enumeration and jellyfish gates are shut (dim F_lambda > LIMIT);
    so is the p-enumeration gate wherever D_k is non-empty."""
    if refs.dim_F(family, sigma, **params) <= LIMIT:
        return False
    boxes = len(refs.diagram(family, k, **params))
    return boxes == 0 or boxes > 12 or refs.count_P(family, k, **params) > LIMIT


def small(family, k, sigma, params):
    """The q- and p-enumeration gates are open (jellyfish too, where it
    applies) and the oracles stay small: dim F_lambda <= 1000, #P_k <= 500."""
    return refs.dim_F(family, sigma, **params) <= 1000 and refs.count_P(family, k, **params) <= 500


def mid_size(family, k, sigma, params):
    """As `small`, with 1000 < dim F_lambda <= 2500 tableaux to list."""
    return 1000 < refs.dim_F(family, sigma, **params) <= 2500 and refs.count_P(family, k, **params) <= 500


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


class Plan:
    """Shuffled cost classes; sweep(i) returns the i-th slice of each."""

    def __init__(self, rng, classes, lead=0):
        self.lead = lead  # ops of the first `lead` classes open each sweep, in class order
        self.classes = []
        for name, candidates, per_sweep in classes:
            pool = list(candidates)
            rng.shuffle(pool)
            if len(pool) < per_sweep:
                raise ValueError(f"class {name} has {len(pool)} candidates, a sweep takes {per_sweep}")
            self.classes.append((pool, per_sweep))
        self.rng = rng

    def sweep(self, i):
        ops = [pool[(i * per_sweep + j) % len(pool)] for pool, per_sweep in self.classes for j in range(per_sweep)]
        head = sum(per_sweep for _, per_sweep in self.classes[: self.lead])
        rest = ops[head:]
        self.rng.shuffle(rest)
        return ops[:head] + rest


# --- degree: closed forms only ------------------------------------------------


def _mp_ladder():
    """mp(n, 2m) with c1 = c2 = m: the first-column sum runs over C(2m, m)
    subsets.  One class per m; the seed picks n and parts in [2, 4].  The
    m = 6 class is a tenth of the sweep, so the 90th percentile falls in it."""
    per_sweep = {4: 2, 5: 2, 6: 9, 7: 2, 8: 1}
    classes = []
    for m, count in per_sweep.items():
        k = 2 * m
        cands = [
            degree_op(refs.MP, k, sigma, n=n)
            for n in (k + 5, k + 6, k + 7)
            for sigma in partitions(4 * m, m, 4, min_part=2)
            if len(sigma) == m
        ]
        classes.append((f"mp-ladder-{m}", cands, count))
    return classes


# Fixed settings, three regimes per family: (family, params, k, sigma size, rows, part).
DEGREE_GRID = [
    (refs.UPQ, {"p": 12, "q": 13}, 6, 6, 4, 3),
    (refs.UPQ, {"p": 10, "q": 10}, 4, 6, 4, 3),
    (refs.UPQ, {"p": 4, "q": 5}, 6, 12, 4, 6),
    (refs.UPQ, {"p": 5, "q": 5}, 7, 10, 4, 5),
    (refs.UPQ, {"p": 3, "q": 4}, 30, 14, 3, 8),
    (refs.UPQ, {"p": 4, "q": 4}, 25, 12, 3, 8),
    (refs.MP, {"n": 16}, 6, 10, 4, 5),
    (refs.MP, {"n": 14}, 8, 8, 5, 4),
    (refs.MP, {"n": 5}, 7, 16, 5, 7),
    (refs.MP, {"n": 6}, 9, 12, 6, 5),
    (refs.MP, {"n": 5}, 30, 14, 5, 8),
    (refs.MP, {"n": 6}, 25, 12, 6, 6),
    (refs.OSTAR, {"n": 20}, 6, 8, 6, 4),
    (refs.OSTAR, {"n": 18}, 4, 8, 4, 5),
    (refs.OSTAR, {"n": 8}, 5, 9, 5, 5),
    (refs.OSTAR, {"n": 9}, 6, 9, 6, 5),
    (refs.OSTAR, {"n": 6}, 30, 12, 6, 6),
    (refs.OSTAR, {"n": 7}, 25, 10, 7, 5),
]


def _grid_class(family, params, k, size, rows, part):
    """Labels for one fixed setting with every gate shut; in the interpolation
    range dim F_lambda stays <= 200,000 so the definition count is quick."""
    middle = refs.regime(family, k, **params) == "r<k<s"
    return [
        degree_op(family, k, sigma, **params)
        for sigma in _labels(family, k, params, size, rows, part)
        if admissible(family, k, sigma, **params)
        and gates_closed(family, k, sigma, params)
        and not (middle and refs.dim_F(family, sigma, **params) > 200_000)
    ]


def degree_plan(seed):
    grid = [(f"{f}-{k}", _grid_class(f, prm, k, *spec), 4) for f, prm, k, *spec in DEGREE_GRID]
    return Plan(_rng("degree", seed), _mp_ladder() + grid)


# --- hilbert: plane-partition enumeration ---------------------------------------


def hilbert_op(family, k, p=0, q=0, n=0):
    return {"kind": "hilbert", "family": family, "p": p, "q": q, "n": n, "k": k}


def _hilbert_candidates():
    """(work, op) for the dual-pair settings, work = #P_k * |D_k| fillings-boxes."""
    out = []
    for p, q in itertools.product(range(1, 13), repeat=2):
        for k in range(1, min(p, q) + 1):
            out.append((refs.count_P(refs.UPQ, k, p=p, q=q) * max(1, (p - k) * (q - k)), hilbert_op(refs.UPQ, k, p=p, q=q)))
    for n in range(1, 16):
        for k in range(1, n + 1):
            out.append((refs.count_P(refs.MP, k, n=n) * max(1, len(refs.diagram(refs.MP, k, n=n))), hilbert_op(refs.MP, k, n=n)))
    for n in range(2, 20):
        for k in range(1, n // 2 + 1):
            out.append((refs.count_P(refs.OSTAR, k, n=n) * max(1, len(refs.diagram(refs.OSTAR, k, n=n))), hilbert_op(refs.OSTAR, k, n=n)))
    return out


def hilbert_plan(seed):
    cands = _hilbert_candidates()

    def band(lo, hi):
        return [op for work, op in cands if lo <= work < hi]

    so = [hilbert_op(f, k, n=n) for f in (refs.SO_EVEN, refs.SO_ODD) for n in range(3, 41) for k in (1, 2)]
    exceptional = [hilbert_op(refs.E6, k) for k in (1, 2)] + [hilbert_op(refs.E7, k) for k in (1, 2, 3)]
    largest = hilbert_op(refs.UPQ, 2, p=7, q=7)  # 19,404 fillings: sets the sweep's peak memory
    classes = [
        ("largest", [largest], 1),
        ("heavy", [op for op in band(290_000, 500_000) if op != largest], 1),
        ("mid", band(40_000, 150_000), 10),
        ("light", band(4_000, 40_000), 8),
        ("small", band(1_000, 4_000), 12),
        ("tiny", band(0, 1_000), 10),
        ("so", so, 4),
        ("exceptional", exceptional, 2),
    ]
    return Plan(_rng("hilbert", seed), classes, lead=1)


# --- oracle: small instances with every gate open ---------------------------


def theta_op(family, k, p=0, q=0, n=0):
    return {"kind": "theta", "family": family, "p": p, "q": q, "n": n, "k": k}


def _theta_candidates():
    """Round-trips of size about check theta: #P_k in [250, 700], k <= r."""
    out = []
    for p, q in itertools.product(range(2, 9), repeat=2):
        for k in range(1, min(p, q)):
            if 250 <= refs.count_P(refs.UPQ, k, p=p, q=q) <= 700:
                out.append(theta_op(refs.UPQ, k, p=p, q=q))
    for n in range(2, 12):
        for k in range(1, n):
            if 250 <= refs.count_P(refs.MP, k, n=n) <= 700:
                out.append(theta_op(refs.MP, k, n=n))
        for k in range(1, n // 2):
            if 250 <= refs.count_P(refs.OSTAR, k, n=n) <= 700:
                out.append(theta_op(refs.OSTAR, k, n=n))
    return out


def _tall_ladder():
    """mp(L+1, k >= 2L+1) with L rows of parts 2 and 1: the tableau oracle
    searches the tall shape; one class per L <= 10."""
    classes = []
    for L in range(1, 11):
        labels = [(2,) * a + (1,) * (L - a) for a in range(max(0, L - 2), L + 1)]
        cands = [degree_op(refs.MP, k, s, n=L + 1) for s in labels for k in range(2 * L + 1, 2 * L + 4)]
        classes.append((f"tall-{L}", cands, 1))
    return classes


def oracle_plan(seed):
    U, M, O = refs.UPQ, refs.MP, refs.OSTAR
    tall = _tall_ladder()
    tall_ops = [op for _, cands, _ in tall for op in cands]
    mp_small = degree_class(M, (range(1, 6), lambda n: range(1, 2 * n + 2)), 6, 5, 4, small)
    classes = [
        ("upq-small", degree_class(U, (range(1, 5), range(1, 5), lambda p, q: range(1, p + q + 1)), 5, 4, 3, small), 130),
        ("mp-small", [op for op in mp_small if op not in tall_ops], 60),
        ("ostar-small", degree_class(O, (range(2, 9), lambda n: range(1, n + 1)), 6, 5, 4, small), 60),
        # a tenth of the sweep, heavier than every small call: the 90th percentile falls among them
        ("mid", degree_class(U, (range(2, 6), range(2, 6), lambda p, q: range(1, p + q + 1)), 6, 4, 4, mid_size)
         + degree_class(M, (range(3, 7), lambda n: range(1, 2 * n + 2)), 7, 5, 4, mid_size)
         + degree_class(O, (range(4, 10), lambda n: range(1, n + 1)), 7, 5, 4, mid_size), 26),
        ("theta", _theta_candidates(), 2),
    ] + tall
    plan = Plan(_rng("oracle", seed), classes)
    base = plan.sweep

    def sweep(i):
        return base(i) + [{"kind": "verify", "seed": seed * 1000 + i}]

    plan.sweep = sweep
    return plan


# --- cli: one `python -m dualdeg.cli` child per call ---------------------------


def _flags(op):
    args = ["--family", op["family"], "--k", str(op["k"])]
    if op["family"] == refs.UPQ:
        args += ["--p", str(op["p"]), "--q", str(op["q"])]
    elif op["family"] not in (refs.E6, refs.E7):
        args += ["--n", str(op["n"])]
    if "sigma" in op:
        if op["family"] == refs.UPQ:
            args += ["--sigma-plus", ",".join(map(str, op["sigma"][0])), "--sigma-minus", ",".join(map(str, op["sigma"][1]))]
        else:
            args += ["--sigma", ",".join(map(str, op["sigma"]))]
    return args


def cli_op(command, base):
    """A CLI call whose checks read the instance fields of `base`."""
    return dict(base, kind="cli", command=command, argv=command.split() + _flags(base))


# fails every time: cmd_enumerate reports the --limit cut (5000) as the count (19,404)
KNOWN_FAULT = dict(cli_op("enumerate p", hilbert_op(refs.UPQ, 2, p=7, q=7)), fault="count is the --limit cut")


def _setting_ops(family, ranges, keep):
    return [hilbert_op(family, k, **prm) for prm, k in _settings(family, ranges) if keep(family, k, prm)]


def cli_plan(seed):
    U, M, O = refs.UPQ, refs.MP, refs.OSTAR
    small_ops = (
        degree_class(U, (range(1, 5), range(1, 5), lambda p, q: range(1, p + q + 1)), 4, 3, 3, small)
        + degree_class(M, (range(1, 5), lambda n: range(1, 2 * n + 2)), 4, 3, 3, small)
        + degree_class(O, (range(2, 8), lambda n: range(1, n + 1)), 4, 3, 3, small)
    )
    rank = lambda o: refs.real_rank(o["family"], **checks.params(o))
    s_of = lambda o: refs.free_threshold(o["family"], **checks.params(o))
    low = [o for o in small_ops if o["k"] <= rank(o)]
    ends = [o for o in small_ops if o["k"] <= rank(o) or o["k"] >= s_of(o)]
    jelly = [o for o in small_ops if o["family"] in (U, O) and o["k"] < s_of(o) and refs.dim_F(o["family"], checks.sigma_of(o), **checks.params(o)) <= 200]
    window = [o for o in degree_class(M, (range(3, 5), lambda n: range(n + 1, 2 * n - 1)), 3, 3, 3, small)]
    few_pp = lambda f, k, prm: refs.count_P(f, k, **prm) <= 100
    settings = (
        _setting_ops(U, (range(1, 6), range(1, 6), lambda p, q: range(1, p + q)), few_pp)
        + _setting_ops(M, (range(1, 7), lambda n: range(1, 2 * n)), few_pp)
        + _setting_ops(O, (range(2, 9), lambda n: range(1, n)), few_pp)
    )
    # round-trips of 200-400 plane partitions: the heaviest calls after the known fault, a tenth
    # of the sweep, so the 90th percentile falls among them
    mid_pp = lambda f, k, prm: 200 <= refs.count_P(f, k, **prm) <= 400
    theta_ok = (
        _setting_ops(U, (range(1, 9), range(1, 9), lambda p, q: range(1, min(p, q))), mid_pp)
        + _setting_ops(M, (range(1, 11), lambda n: range(1, n)), mid_pp)
        + _setting_ops(O, (range(2, 13), lambda n: range(1, n // 2)), mid_pp)
    )
    hilb = [op for work, op in _hilbert_candidates() if work < 4_000]
    hilb += [hilbert_op(f, k, n=n) for f in (refs.SO_EVEN, refs.SO_ODD) for n in range(3, 30) for k in (1, 2)]
    suites = ["criterion", "product", "theta", "jellyfish", "collapse", "width", "exceptional", "pinned", "conjecture"]
    classes = [
        ("degree", [cli_op("degree", o) for o in small_ops], 5),
        ("enumerate-q", [cli_op("enumerate q", o) for o in small_ops], 4),
        ("enumerate-facets", [cli_op("enumerate facets", o) for o in settings], 3),
        ("enumerate-jellyfish", [cli_op("enumerate jellyfish", o) for o in jelly], 2),
        ("check-not", [cli_op("check not", o) for o in low], 3),
        ("check-collapse", [cli_op("check collapse", o) for o in ends], 3),
        ("check-theta", [cli_op("check theta", o) for o in theta_ok], 4),
        ("check-conjecture", [cli_op("check conjecture", o) for o in window], 1),
        ("hilbert", [cli_op("hilbert", o) for o in hilb], 5),
        ("verify", [dict(kind="cli", command="verify", argv=["verify", "--only", s]) for s in suites], 3),
        ("known-fault", [KNOWN_FAULT], 1),
    ]
    return Plan(_rng("cli", seed), classes)


def plan(workload, seed):
    return {"degree": degree_plan, "hilbert": hilbert_plan, "oracle": oracle_plan, "cli": cli_plan}[workload](seed)
