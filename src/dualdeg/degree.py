"""Bernstein degrees, boundary-identity checks, the metaplectic window probe,
exceptional-family degrees, Hilbert reports, and the cross-validation harness."""

import itertools
import random
from dataclasses import dataclass, field
from functools import cache

from . import diagrams, dualpair, jellyfish, posets, repdims
from .dualpair import DEFAULT_LIMIT, IN_SIGMA, MP, OSTAR, UPQ
from .repdims import dim_U_sigma


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


@dataclass
class CrossCheck:
    name: str
    status: str  # "pass", "fail", or "skipped"
    detail: str = ""


@dataclass
class DegreeReport:
    setting: object
    sigma: object
    q_count: int
    p_count: int
    degree: int
    regime: str  # "k<=r", "r<k<s", or "k>=s"
    conjectural: bool
    cross_checks: list = field(default_factory=list)

    def ok(self):
        return all(c.status != "fail" for c in self.cross_checks)


def classify_regime(setting):
    k, r, s = setting.k, dualpair.real_rank(setting), dualpair.free_threshold(setting)
    if k <= r:
        return "k<=r"
    return "k>=s" if k >= s else "r<k<s"


def is_conjectural(setting):
    """True in the metaplectic window where the product formula is unproven."""
    return setting.family == MP and setting.n + 1 <= setting.k <= 2 * setting.n - 2


def _jellyfish_gate(setting, t_size, limit):
    """The first gate of the jellyfish oracle that the instance fails, or None."""
    k = setting.k
    if setting.family not in (UPQ, OSTAR):
        return f"no jellyfish for family {setting.family}"
    s = dualpair.free_threshold(setting)
    if k >= s:
        return f"k={k} >= s={s}"
    if k > 2:
        return f"k={k} > 2"
    points = len(posets.build_poset(setting).points)
    if points > 20:
        return f"|poset|={points} > 20"
    if t_size > limit:
        return f"dim F_lambda={t_size} > limit {limit}"
    return None


def bernstein_degree(setting, sigma, limit=DEFAULT_LIMIT):
    """Degree of the module labeled by sigma as #Q_k(sigma) * #P_k, with
    oracle cross-checks on instances small enough to enumerate.

    #Q_k(sigma) is read from its collapse where there is one: dim U_sigma
    for k <= r and dim F_lambda for k >= s.  Only r < k < s runs the path
    count, count_Q_determinant; not_identity_check and
    mp_window_boundary_check compare it with the collapses.

    sigma is validated once, here; the closed forms take the normalized
    label.  The path count and the oracles are called through their public
    entries, which the benchmark's tracer times, and check it again."""
    if setting.family not in dualpair.DUAL_PAIR_FAMILIES:
        raise ValueError("degrees are computed for the dual-pair families only")
    if setting.k < 1:
        raise ValueError("k must be >= 1")
    label = dualpair.nonzero_label(setting, sigma)
    regime = classify_regime(setting)
    t_size = repdims._dim_F(setting, label)
    if regime == "k<=r":
        q_count = repdims._dim_U(setting, label)
    elif regime == "k>=s":
        q_count = t_size
    else:
        q_count = dualpair.count_Q_determinant(setting, label)
    p_count = diagrams.count_P_product(setting, setting.k)
    checks = []

    if t_size <= limit:
        brute = len(dualpair.enumerate_Q(setting, label))
        checks.append(
            CrossCheck(
                "q-enumeration",
                "pass" if brute == q_count else "fail",
                f"determinant {q_count}, enumeration {brute}",
            )
        )
    else:
        checks.append(CrossCheck("q-enumeration", "skipped", f"dim F_lambda={t_size} > limit {limit}"))

    d_size = len(diagrams.diagram_D_closed_form(setting, setting.k))
    if p_count <= limit and d_size <= 12:
        brute = len(diagrams.enumerate_P(setting, setting.k))
        checks.append(
            CrossCheck(
                "p-enumeration",
                "pass" if brute == p_count else "fail",
                f"product {p_count}, enumeration {brute}",
            )
        )
    else:
        gates = []
        if p_count > limit:
            gates.append(f"#P_k={p_count} > limit {limit}")
        if d_size > 12:
            gates.append(f"|D_k|={d_size} > 12")
        checks.append(CrossCheck("p-enumeration", "skipped", "; ".join(gates)))

    jellyfish_gate = _jellyfish_gate(setting, t_size, limit)
    if jellyfish_gate is None:
        m = jellyfish.multiplicity_from_jellyfish(setting, label)
        checks.append(
            CrossCheck(
                "jellyfish",
                "pass" if m == q_count * p_count else "fail",
                f"maximal jellyfish {m}",
            )
        )
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
        cross_checks=checks,
    )


def not_identity_check(setting, sigma, limit=DEFAULT_LIMIT):
    """For k <= r, check degree = dim U_sigma * #P_k via #Q = dim U_sigma,
    with #Q from the path count (bernstein_degree itself returns dim U_sigma
    there); limit gates the oracles of the degree report."""
    if setting.k > dualpair.real_rank(setting):
        raise ValueError("identity only applies for k <= r")
    report = bernstein_degree(setting, sigma, limit=limit)
    q_count = dualpair.count_Q_determinant(setting, sigma)
    expected = dim_U_sigma(setting, sigma)
    return {
        "q_count": q_count,
        "dim_u": expected,
        "p_count": report.p_count,
        "degree": q_count * report.p_count,
        "ok": q_count == expected and report.ok(),
    }


def mp_conjecture_probe(n, k, sigma_list, limit=DEFAULT_LIMIT):
    """Degrees in the unproven metaplectic window, flagged as conjectural."""
    if not n + 1 <= k <= 2 * n - 2:
        raise ValueError(f"k must lie in the window [{n + 1}, {2 * n - 2}]")
    entries = []
    for sigma in sigma_list:
        setting = dualpair.mp(n, k)
        report = bernstein_degree(setting, sigma, limit=limit)
        entries.append(
            {
                "sigma": dualpair.normalize_sigma(setting, sigma),
                "q_count": report.q_count,
                "p_count": report.p_count,
                "degree": report.degree,
                "checks_ok": report.ok(),
            }
        )
    return {"n": n, "k": k, "conjectural": True, "entries": entries}


def mp_window_boundary_check(n, sigma_list):
    """At the proven endpoints k = n and k = 2n-1, the general evaluation (the
    path count times #P_k) must match the collapse-regime value (dim U_sigma
    resp. dim F_lambda, times #P_k)."""
    results = []
    for k in (n, 2 * n - 1):
        setting = dualpair.mp(n, k)
        for sigma in sigma_list:
            if dualpair.sigma_admissible(setting, sigma) != IN_SIGMA:
                continue
            report = bernstein_degree(setting, sigma)
            degree = dualpair.count_Q_determinant(setting, sigma) * report.p_count
            if k == n:
                expected = dim_U_sigma(setting, sigma) * report.p_count
            else:
                expected = repdims.dim_F_lambda(setting, sigma) * report.p_count
            results.append(
                {
                    "k": k,
                    "sigma": dualpair.normalize_sigma(setting, sigma),
                    "degree": degree,
                    "expected": expected,
                    "ok": degree == expected and report.ok(),
                }
            )
    return {"n": n, "ok": all(r["ok"] for r in results), "entries": results}


@dataclass(frozen=True)
class ExceptionalRow:
    """One non-Wallach exceptional family: group, level, orbit degree, the
    rank-k side root system with its label pattern, and the closed-form
    dimension polynomial."""

    group: str
    k: int
    deg_orbit: int
    h_system: str
    nparams: int

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
        assert num % den == 0
        return num // den


EXCEPTIONAL_ROWS = (
    ExceptionalRow("e6", 2, 1, "B3", 1),
    ExceptionalRow("e6", 2, 1, "G2", 1),
    ExceptionalRow("e7", 2, 3, "B4", 1),
    ExceptionalRow("e7", 3, 1, "F4", 2),
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
    if num.coeffs == (1,):
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
        s = dualpair.free_threshold(setting0)
        for k in range(1, s + 2):
            setting = dualpair.Setting(setting0.family, k=k, p=setting0.p, q=setting0.q, n=setting0.n)
            in_Q = dualpair._q_test(setting)
            for sigma in iter_sigmas(setting, 3):
                label = dualpair.nonzero_label(setting, sigma)
                brute = 0
                for T in dualpair._enumerate_T(setting, label):
                    a = in_Q(T)
                    b = dualpair._in_Q_criteria(setting, label, T)
                    if a != b:
                        failures.append((setting, sigma, T))
                    brute += a
                if brute != dualpair.count_Q_determinant(setting, label):
                    failures.append((setting, sigma, "determinant"))
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
    failures = []
    for setting in _small_settings():
        r = dualpair.real_rank(setting)
        for k in range(1, r + 1):
            if len(diagrams.diagram_D(setting, k)) > 10:
                continue
            if diagrams.count_P_product(setting, k) != len(diagrams.enumerate_P(setting, k)):
                failures.append((setting, k))
    return failures


def theta_check(setting, k, limit=DEFAULT_LIMIT):
    """Round-trip theta over every plane partition on D_k: theta_inverse undoes
    it, corners count the c statistic, and the images are distinct and are
    exactly the facets.  Returns #P_k, the facet count and the failed checks.
    The check lists the #P_k plane partitions; above limit it raises
    ValueError instead, naming #P_k."""
    p_count = diagrams.count_P_product(setting, k)
    if p_count > limit:
        raise ValueError(f"#P_k={p_count} > limit {limit}")
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
        if len(posets.build_poset(setting).points) > 21:
            continue
        for k in range(1, min(2, dualpair.real_rank(setting)) + 1):
            failures += [(setting, k, name) for name in theta_check(setting, k)[2]]
    return failures


def _suite_jellyfish():
    failures = []
    cases = [
        (dualpair.ostar(5, 1), [(), (1,)]),
        (dualpair.upq(2, 2, 1), [((), ()), ((1,), ()), ((), (1,))]),
        (dualpair.upq(3, 3, 2), [((), ()), ((1,), (1,))]),
    ]
    for setting, sigmas in cases:
        maximal_F = jellyfish.enumerate_maximal_F(setting, setting.k)
        for sigma in sigmas:
            got = {
                (j.tableau, j.family.points)
                for j in jellyfish.enumerate_maximal_jellyfish(setting, sigma)
            }
            want = {
                (T, f.points)
                for T in dualpair.enumerate_Q(setting, sigma)
                for f in maximal_F
            }
            if got != want:
                failures.append((setting, sigma))
    return failures


def _suite_collapse():
    failures = []
    for setting0 in _small_settings():
        r = dualpair.real_rank(setting0)
        s = dualpair.free_threshold(setting0)
        for k in list(range(1, r + 1)) + [s, s + 1]:
            setting = dualpair.Setting(setting0.family, k=k, p=setting0.p, q=setting0.q, n=setting0.n)
            for sigma in iter_sigmas(setting, 2):
                if not dualpair.q_collapse_check(setting, sigma)["ok"]:
                    failures.append((setting, sigma))
    return failures


def _suite_width():
    failures = []
    for setting in _small_settings():
        poset = posets.build_poset(setting)
        if posets.width(poset) != dualpair.real_rank(setting):
            failures.append(setting)
    return failures


def _suite_exceptional():
    return [e for e in exceptional_check(3)["entries"] if "error" in e]


def _suite_pinned():
    from .tableaux import IntPolynomial

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
    failures = []
    for n in (3, 4):
        sigmas = list(iter_sigmas(dualpair.mp(n, n), 2))
        if not mp_window_boundary_check(n, sigmas)["ok"]:
            failures.append(n)
    return failures


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
        if dualpair.count_Q_determinant(setting, sigma) != len(dualpair.enumerate_Q(setting, sigma)):
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


def verify_all(only=None, seed=None):
    """Run the cross-module verification suites; returns a summary report."""
    names = [only] if only else list(SUITES)
    if only and only not in SUITES:
        raise ValueError(f"unknown suite {only!r}; choose from {sorted(SUITES)}")
    results = []
    for name in names:
        failures = SUITES[name]()
        results.append({"suite": name, "ok": not failures, "failures": len(failures)})
    if not only:
        if seed is None:  # drawn here, so that the report can name it for a replay
            seed = random.randrange(2**32)
        failures = _suite_random(seed)
        results.append({"suite": "random-determinant", "ok": not failures, "failures": len(failures)})
    report = {"ok": all(r["ok"] for r in results), "suites": results}
    if not only:
        report["seed"] = seed
    return report
