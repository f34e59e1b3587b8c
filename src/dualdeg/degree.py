"""Bernstein degrees, boundary-identity checks, exceptional-family degrees,
Hilbert reports, and the cross-validation harness."""

import random
from collections import namedtuple
from functools import cache

from . import diagrams, dualpair, jellyfish, posets, repdims
from .dualpair import IN_SIGMA, MP, UPQ
from .tableaux import IntPolynomial, exact_quotient, gate, refuse

# The default --limit: the largest set an oracle or a listing check enumerates.
DEFAULT_LIMIT = 5000


@cache
def partitions_up_to(max_size):
    """All partitions with total size at most max_size, smallest first."""
    out = [()]
    for total in range(1, max_size + 1):
        def build(remaining, cap, prefix):
            if remaining == 0:
                out.append(tuple(prefix))
                return
            for part in range(min(cap, remaining), 0, -1):
                build(remaining - part, part, prefix + [part])

        build(total, total, [])
    return tuple(out)


def iter_sigmas(setting, max_size):
    """All admissible nonzero-module labels of total size at most max_size."""
    if setting.family == UPQ:
        for plus in partitions_up_to(max_size):
            for minus in partitions_up_to(max_size - sum(plus)):
                if dualpair.sigma_admissible(setting, (plus, minus)) == IN_SIGMA:
                    yield (plus, minus)
    else:
        for sigma in partitions_up_to(max_size):
            if dualpair.sigma_admissible(setting, sigma) == IN_SIGMA:
                yield sigma


class CrossCheck(namedtuple("CrossCheck", "name status detail", defaults=("",))):
    """One cross-check of a degree: its status is "pass", "fail" or "skipped"."""

    __slots__ = ()


class DegreeReport(
    namedtuple(
        "DegreeReport",
        "setting sigma q_count p_count degree regime conjectural cross_checks",
        defaults=((),),
    )
):
    """#Q_k(sigma), #P_k and their product; regime is "k<=r", "r<k<s" or
    "k>=s"; cross_checks is a tuple of CrossCheck, empty by default."""

    __slots__ = ()

    def ok(self):
        return all(c.status != "fail" for c in self.cross_checks)


def classify_regime(setting):
    k, r, s = setting.k, dualpair.real_rank(setting), dualpair.free_threshold(setting)
    if k <= r:
        return "k<=r"
    return "k>=s" if k >= s else "r<k<s"


def is_conjectural(setting):
    """True in the metaplectic window where the product formula is unproven."""
    return setting.family == MP and classify_regime(setting) == "r<k<s"


def _jellyfish_gate(setting, t_size, limit):
    """The first gate of the jellyfish oracle that the instance fails, or ""."""
    k = setting.k
    if setting.family not in jellyfish.FAMILIES:
        return f"no jellyfish for family {setting.family}"
    s = dualpair.free_threshold(setting)
    if k >= s:
        return f"k={k} >= s={s}"
    return (
        gate("k", k, 2, "")
        or gate("|poset|", diagrams.dim_p_plus(setting), 20, "")  # the boxes of D_0 for upq and ostar
        or gate("dim F_lambda", t_size, limit)
    )


def _collapse(setting, label, t_size):
    """The regime and #Q_k(sigma) by its collapse: dim U_sigma at k <= r,
    t_size = dim F_lambda at k >= s, and None for r < k < s."""
    regime = classify_regime(setting)
    if regime == "k<=r":
        return regime, repdims._dim_U(setting, label)
    return regime, t_size if regime == "k>=s" else None


def bernstein_degree(setting, sigma, limit=DEFAULT_LIMIT):
    """Degree of the module labeled by sigma as #Q_k(sigma) * #P_k, with
    oracle cross-checks on instances small enough to enumerate.

    #Q_k(sigma) is read from its collapse where there is one, _collapse.
    Only r < k < s runs the path count, count_Q_determinant;
    path_count_check compares it with the collapses.  The q-enumeration
    oracle, count_Q_enumeration, applies the definition to each column
    class of T(sigma), sized by one flagged determinant, and lists no
    tableau but the class heads.  It shares that kernel, the entry formula
    tableaux._flag_column and tableaux.determinant, with the path count;
    the tests hold the kernel to listings that take no determinant.

    sigma is validated once, here; the closed forms take the normalized
    label.  The path count and the oracles are called through their public
    entries, which the benchmark's tracer times, and check it again."""
    if setting.family not in dualpair.DUAL_PAIR_FAMILIES:
        raise ValueError("degrees are computed for the dual-pair families only")
    if setting.k < 1:
        raise ValueError("k must be >= 1")
    label = dualpair.nonzero_label(setting, sigma)
    t_size = repdims._dim_F(setting, label)
    regime, q_count = _collapse(setting, label, t_size)
    if q_count is None:
        q_count = dualpair.count_Q_determinant(setting, label)
    p_count = diagrams.count_P_product(setting, setting.k)
    checks = []

    if t_size <= limit:
        brute = dualpair.count_Q_enumeration(setting, label)
        status = "pass" if brute == q_count else "fail"
        checks.append(CrossCheck("q-enumeration", status, f"determinant {q_count}, enumeration {brute}"))
    else:
        checks.append(CrossCheck("q-enumeration", "skipped", gate("dim F_lambda", t_size, limit)))

    d_size = diagrams._d_size(*diagrams._dual_pair_shape(setting, setting.k))
    if p_count <= limit and d_size <= 12:
        brute = len(diagrams.enumerate_P(setting, setting.k))
        status = "pass" if brute == p_count else "fail"
        checks.append(CrossCheck("p-enumeration", status, f"product {p_count}, enumeration {brute}"))
    else:
        gates = filter(None, (gate("#P_k", p_count, limit), gate("|D_k|", d_size, 12, "")))
        checks.append(CrossCheck("p-enumeration", "skipped", "; ".join(gates)))

    jellyfish_gate = _jellyfish_gate(setting, t_size, limit)
    if not jellyfish_gate:
        m = jellyfish.multiplicity_from_jellyfish(setting, label)
        status = "pass" if m == q_count * p_count else "fail"
        checks.append(CrossCheck("jellyfish", status, f"maximal jellyfish {m}"))
    else:
        checks.append(CrossCheck("jellyfish", "skipped", jellyfish_gate))

    return DegreeReport(
        setting=setting,
        sigma=sigma,
        q_count=q_count,
        p_count=p_count,
        degree=q_count * p_count,
        regime=regime,
        conjectural=is_conjectural(setting),
        cross_checks=tuple(checks),
    )


def path_count_check(setting, sigma, limit=DEFAULT_LIMIT):
    """The path count against the collapse bernstein_degree reads #Q_k(sigma)
    from, dim U_sigma at k <= r and dim F_lambda at k >= s, and every
    cross-check of that report (limit gates its oracles).  Returns the
    report, the path count and the names of the failed checks; raises
    ValueError for r < k < s, where there is no collapse."""
    if classify_regime(setting) == "r<k<s":
        raise ValueError("no collapse of #Q_k(sigma) for r < k < s")
    report = bernstein_degree(setting, sigma, limit=limit)
    q_count = dualpair.count_Q_determinant(setting, sigma)
    failures = [c.name for c in report.cross_checks if c.status == "fail"]
    if q_count != report.q_count:
        failures.append("path-count")
    return report, q_count, failures


def q_collapse_check(setting, sigma, limit=DEFAULT_LIMIT):
    """The class count of Q_k(sigma), count_Q_enumeration, against its
    collapse, _collapse: at k >= s it must be dim F_lambda, so Q_k(sigma),
    which is cut out of T(sigma), is the whole of it.  For r < k < s no
    collapse is asserted.  Above limit = dim F_lambda it raises ValueError
    instead, naming that size."""
    if setting.k < 1:
        raise ValueError("k must be >= 1")
    label = dualpair.nonzero_label(setting, sigma)
    t_size = repdims._dim_F(setting, label)
    refuse("dim F_lambda", t_size, limit)
    q_count = dualpair.count_Q_enumeration(setting, label)
    k, r, s = setting.k, dualpair.real_rank(setting), dualpair.free_threshold(setting)
    report = {"k": k, "r": r, "s": s, "q_count": q_count}
    regime, expected = _collapse(setting, label, t_size)
    if expected is None:
        report.update(regime="interpolation range, no collapse asserted", ok=True)
    else:
        report.update(regime=regime, expected=expected, ok=q_count == expected)
    return report


class ExceptionalRow(namedtuple("ExceptionalRow", "group k h_system nparams")):
    """One non-Wallach exceptional family: group, level, the rank-k side
    root system with its label pattern, and the closed-form dimension
    polynomial; the orbit degree is read from the Hilbert numerator."""

    __slots__ = ()

    @property
    @cache
    def deg_orbit(self):
        """#P_k at the row's level, N(1) of the Hilbert numerator; once per row."""
        return diagrams.numerator_polynomial(dualpair.Setting(self.group), self.k).evaluate(1)

    def sigma(self, a, b=0):
        if self.h_system == "B3":
            return (a, 0, 0)
        if self.h_system == "G2":
            return (a, 0)
        if self.h_system == "B4":
            return (a, 0, 0, 0)
        return (0, 0, a, b)  # F4

    def dimension_polynomial(self, a, b=0):
        if self.h_system in ("B3", "G2"):
            num = (a + 1) * (a + 2) * (a + 3) * (a + 4) * (2 * a + 5)
            den = 120
        elif self.h_system == "B4":
            num = (2 * a + 7)
            for i in range(1, 7):
                num *= a + i
            den = 5040
        else:  # F4
            num = (
                (a + 1) * (a + 2) * (a + 3) ** 2 * (a + 4) * (a + 5)
                * (b + 1)
                * (a + b + 2) * (a + b + 3) * (a + b + 4) ** 2 * (a + b + 5) * (a + b + 6)
                * (2 * a + b + 5) * (2 * a + b + 6) * (2 * a + b + 7) ** 2
                * (2 * a + b + 8) * (2 * a + b + 9)
                * (3 * a + b + 10)
                * (3 * a + 2 * b + 11)
            )
            den = 12070840320000
        return exact_quotient(num, den)


EXCEPTIONAL_ROWS = (
    ExceptionalRow("e6", 2, "B3", 1),
    ExceptionalRow("e6", 2, "G2", 1),
    ExceptionalRow("e7", 2, "B4", 1),
    ExceptionalRow("e7", 3, "F4", 2),
)


def exceptional_degree(row, a, b=0):
    """Degree for an exceptional-family row: dim of the labeled irrep times
    the orbit degree, cross-checked against the closed-form polynomial."""
    if a < 0 or b < 0:
        raise ValueError("parameters must be nonnegative")
    if row.nparams == 1 and b != 0:
        raise ValueError("this row takes a single parameter")
    dim = repdims.dim_weyl(row.h_system, row.sigma(a, b))
    poly = row.dimension_polynomial(a, b)
    if dim != poly:
        raise AssertionError(
            f"Weyl dimension {dim} disagrees with closed form {poly}"
        )
    return dim * row.deg_orbit


def exceptional_check(bound):
    """exceptional_degree on every row for parameters a, b < bound (b = 0 on
    one-parameter rows): each case with its degree, or with the error where
    the Weyl dimension and the closed form disagree."""
    entries = []
    for row in EXCEPTIONAL_ROWS:
        for a in range(bound):
            for b in range(bound if row.nparams == 2 else 1):
                entry = {"group": row.group, "h_system": row.h_system, "a": a, "b": b}
                try:
                    entry["degree"] = exceptional_degree(row, a, b)
                except AssertionError as exc:
                    entry["error"] = str(exc)
                entries.append(entry)
    return {"ok": all("error" not in e for e in entries), "entries": entries}


def hilbert_report(setting, k):
    """Hilbert series of the k-th orbit closure, rendered and with #P_k."""
    num, exponent = diagrams.hilbert_series_orbit(setting, k)
    num_str = str(num)
    if num == (1,):
        rendered = f"1/(1-t)^{exponent}"
    else:
        rendered = f"({num_str})/(1-t)^{exponent}"
    return {
        "numerator": num_str,
        "exponent": exponent,
        "p_count": num.evaluate(1),
        "series": rendered,
    }


def _suite_criterion():
    failures = []
    for setting0 in _small_settings():
        for k in range(1, dualpair.free_threshold(setting0) + 2):
            setting = setting0._replace(k=k)
            for sigma in iter_sigmas(setting, 3):
                failures += [(setting, sigma, f) for f in criterion_check(setting, sigma)]
    return failures


def _small_settings():
    return (
        dualpair.upq(2, 2, 0),
        dualpair.upq(2, 3, 0),
        dualpair.upq(3, 3, 0),
        dualpair.mp(2, 0),
        dualpair.mp(3, 0),
        dualpair.ostar(4, 0),
        dualpair.ostar(5, 0),
    )


def _suite_product():
    """#P_k by the product formula, and the numerator polynomial, against
    the listed fillings and their c statistics."""
    failures = []
    for setting in _small_settings():
        r = dualpair.real_rank(setting)
        for k in range(1, r + 1):
            if len(diagrams.diagram_D(setting, k)) > 10:
                continue
            stats = [diagrams.c_statistic(pp) for pp in diagrams.iter_P(setting, k)]
            if diagrams.count_P_product(setting, k) != len(stats):
                failures.append((setting, k, "count"))
            coeffs = [0] * (max(stats) + 1)
            for c in stats:
                coeffs[c] += 1
            if diagrams.numerator_polynomial(setting, k) != tuple(coeffs):
                failures.append((setting, k, "numerator"))
    return failures


def criterion_check(setting, sigma):
    """Q_k(sigma) by its definition, _q_test, against the case-by-case
    criterion, _in_Q_criteria, on T(sigma), and the number of T the
    definition admits against the path count.  Both read only the first
    column of T (of T+ and T- for upq, the first two for mp), so each is
    applied once per column class of T(sigma), dualpair._T_classes, to its
    key, and the class adds its size to the count.  Returns the failures:
    ("criterion", key) for each class the two decide differently, one entry
    however many T it holds, and ("path-count", admitted, count) if the
    counts differ.  The class sizes are flagged determinants, the kernel of
    count_Q_determinant, so the path-count comparison does not check that
    kernel; _suite_random's len(enumerate_Q) and the listing tests do."""
    label = dualpair.nonzero_label(setting, sigma)
    in_Q = dualpair._q_test(setting)
    failures = []
    admitted = 0
    for key, size in dualpair._T_classes(setting, label):
        verdict = in_Q(key)
        if verdict != dualpair._in_Q_criteria(setting, label, key):
            failures.append(("criterion", key))
        admitted += verdict * size
    count = dualpair.count_Q_determinant(setting, label)
    if admitted != count:
        failures.append(("path-count", admitted, count))
    return failures


def jellyfish_check(setting, sigma):
    """The maximal jellyfish of sigma are Q_k(sigma) x the maximal path
    families, as sets of (tableau, point set) pairs.  Returns the pairs on
    one side only: ("missing", pair) for a product pair that is no maximal
    jellyfish, ("extra", pair) for a maximal jellyfish outside the product."""
    got = {(j.tableau, j.family.points) for j in jellyfish.enumerate_maximal_jellyfish(setting, sigma)}
    maximal_F = jellyfish.enumerate_maximal_F(setting, setting.k)
    want = {(T, f.points) for T in dualpair.enumerate_Q(setting, sigma) for f in maximal_F}
    return [("missing", x) for x in want - got] + [("extra", x) for x in got - want]


def theta_check(setting, k, limit=DEFAULT_LIMIT):
    """Round-trip theta over every plane partition on D_k: theta_inverse undoes
    it, corners count the c statistic, and the images are distinct and are
    exactly the facets.  Returns #P_k, the facet count and the failed checks.
    The check lists the #P_k plane partitions; it raises ValueError instead
    for a family without facets, then above limit, naming #P_k."""
    posets._require_dual_pair(setting)
    p_count = diagrams.count_P_product(setting, k)
    refuse("#P_k", p_count, limit)
    pps = diagrams.enumerate_P(setting, k)
    facets = posets.enumerate_facets(setting, k)
    images = set()
    failures = []
    for pp in pps:
        f = posets.theta(setting, k, pp)
        images.add(f.points)
        if posets.theta_inverse(setting, k, f) != pp:
            failures.append("round-trip")
        if len(posets.corners(setting, k, f)) != diagrams.c_statistic(pp):
            failures.append("corners")
    if images != {f.points for f in facets}:
        failures.append("facet-match")
    if len(images) != len(pps):
        failures.append("injective")
    return len(pps), len(facets), failures


def _suite_theta():
    failures = []
    for setting in _small_settings():
        if diagrams.dim_p_plus(setting) > 21:  # the boxes of D_0
            continue
        for k in range(1, min(2, dualpair.real_rank(setting)) + 1):
            failures += [(setting, k, name) for name in theta_check(setting, k)[2]]
    return failures


def _suite_jellyfish():
    cases = [
        (dualpair.ostar(5, 1), [(), (1,)]),
        (dualpair.upq(2, 2, 1), [((), ()), ((1,), ()), ((), (1,))]),
        (dualpair.upq(3, 3, 2), [((), ()), ((1,), (1,))]),
    ]
    return [(setting, sigma) for setting, sigmas in cases for sigma in sigmas if jellyfish_check(setting, sigma)]


def _suite_collapse():
    failures = []
    for setting0 in _small_settings():
        r = dualpair.real_rank(setting0)
        s = dualpair.free_threshold(setting0)
        for k in list(range(1, r + 1)) + [s, s + 1]:
            setting = setting0._replace(k=k)
            for sigma in iter_sigmas(setting, 2):
                if not q_collapse_check(setting, sigma)["ok"]:
                    failures.append((setting, sigma))
    return failures


def _suite_width():
    return [s for s in _small_settings() if posets.width(diagrams.diagram_D(s, 0)) != dualpair.real_rank(s)]


def _suite_exceptional():
    return [e for e in exceptional_check(3)["entries"] if "error" in e]


def _suite_pinned():
    failures = []
    for n in (3, 4, 5):
        num, exponent = diagrams.hilbert_series_orbit(dualpair.Setting("so-odd", n=n), 1)
        if num != IntPolynomial([1, 1]) or exponent != 2 * n - 2:
            failures.append(("so-odd", n))
    pinned = [(dualpair.Setting("e6"), 2, 1), (dualpair.Setting("e7"), 2, 3), (dualpair.Setting("e7"), 3, 1)]
    for setting, k, expected in pinned:
        if len(diagrams.enumerate_P(setting, k)) != expected:
            failures.append((setting.family, k))
    return failures


def _suite_conjecture():
    """path_count_check at the proven ends k = r and k = s of the
    metaplectic window, r < k < s, for n = 3, 4 and |sigma| <= 2."""
    windows = [dualpair.mp(n, 0) for n in (3, 4)]
    ends = [w._replace(k=k) for w in windows for k in (dualpair.real_rank(w), dualpair.free_threshold(w))]
    return [(end, sigma) for end in ends for sigma in iter_sigmas(end, 2) if path_count_check(end, sigma)[2]]


def _suite_random(seed):
    rng = random.Random(seed)
    failures = []
    for _ in range(10):
        family = rng.choice(list(dualpair.DUAL_PAIR_FAMILIES))
        if family == UPQ:
            setting = dualpair.upq(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5))
        elif family == MP:
            setting = dualpair.mp(rng.randint(1, 3), rng.randint(1, 5))
        else:
            setting = dualpair.ostar(rng.randint(2, 5), rng.randint(1, 4))
        sigmas = list(iter_sigmas(setting, 3))
        if not sigmas:
            continue
        sigma = rng.choice(sigmas)
        counts = {dualpair.count_Q_determinant(setting, sigma), dualpair.count_Q_enumeration(setting, sigma),
                  len(dualpair.enumerate_Q(setting, sigma))}
        if len(counts) != 1:
            failures.append((setting, sigma))
    return failures


SUITES = {
    "criterion": _suite_criterion,
    "product": _suite_product,
    "theta": _suite_theta,
    "jellyfish": _suite_jellyfish,
    "collapse": _suite_collapse,
    "width": _suite_width,
    "exceptional": _suite_exceptional,
    "pinned": _suite_pinned,
    "conjecture": _suite_conjecture,
}
RANDOM_SUITE = "random-determinant"  # runs after SUITES, the one suite that reads a seed


def verify_all(only=None, seed=None):
    """Run the verification suites, or only the one named; returns a summary
    report.  Where the random suite runs, the report names its seed, drawn
    here if none is given, so that the run can be replayed."""
    if only not in (None, RANDOM_SUITE, *SUITES):
        raise ValueError(f"unknown suite {only!r}; choose from {sorted([*SUITES, RANDOM_SUITE])}")
    names = [only] if only else [*SUITES, RANDOM_SUITE]
    seeded = RANDOM_SUITE in names
    if seed is not None and not seeded:
        raise ValueError(f"suite {only!r} reads no seed")
    if seeded and seed is None:
        seed = random.randrange(2**32)
    results = []
    for name in names:
        failures = _suite_random(seed) if name == RANDOM_SUITE else SUITES[name]()
        results.append({"suite": name, "ok": not failures, "failures": len(failures)})
    report = {"ok": all(r["ok"] for r in results), "suites": results}
    if seeded:
        report["seed"] = seed
    return report
