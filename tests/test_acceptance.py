"""Acceptance gate: each test sweeps one headline identity and prints a
pass/fail line for it.  The identities with a checker in dualdeg.degree
are checked by calling it case by case over the sweeps below."""

from functools import cache

from dualdeg import diagrams, posets
from dualdeg.degree import (
    SUITES,
    bernstein_degree,
    criterion_check,
    exceptional_check,
    is_conjectural,
    iter_sigmas,
    jellyfish_check,
    path_count_check,
    theta_check,
)
from dualdeg.dualpair import free_threshold, mp, ostar, real_rank, upq


def _report(number, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number}: {status}")
    assert not failures, failures[:5]


def _sweep_settings():
    out = []
    for p in range(1, 5):
        for q in range(1, 5):
            out.append(upq(p, q, 0))
    out += [mp(n, 0) for n in range(1, 5)]
    out += [ostar(n, 0) for n in range(2, 7)]
    return out


@cache
def _criterion_failures():
    """criterion_check over the sweep, |sigma| <= 4, run once for criteria 1 and 2."""
    failures = []
    for base in _sweep_settings():
        for k in range(1, free_threshold(base) + 2):
            setting = base._replace(k=k)
            for sigma in iter_sigmas(setting, 4):
                failures += [(setting, sigma, *f) for f in criterion_check(setting, sigma)]
    return failures


def test_criterion_1_membership_criteria():
    _report(1, [f for f in _criterion_failures() if f[2] == "criterion"])


def test_criterion_2_determinant_counts():
    _report(2, [f for f in _criterion_failures() if f[2] == "path-count"])


def test_criterion_3_product_counts():
    failures = []
    for base in _sweep_settings():
        for k in range(1, real_rank(base) + 1):
            if len(diagrams.diagram_D(base, k)) > 12:
                continue
            if diagrams.count_P_product(base, k) != len(diagrams.enumerate_P(base, k)):
                failures.append((base, k))
    _report(3, failures)


def _theta_sweep():
    out = []
    for p in range(1, 8):
        for q in range(p, 8):
            if p * q <= 28:
                out.append(upq(p, q, 0))
    out += [mp(n, 0) for n in range(2, 8)]
    out += [ostar(n, 0) for n in range(3, 9)]
    return out


@cache
def _theta_failures():
    """theta_check over the theta sweep, k <= min(3, r), run once for criteria 4 and 5."""
    return [
        (base, k, name)
        for base in _theta_sweep()
        for k in range(1, min(3, real_rank(base)) + 1)
        for name in theta_check(base, k)[2]
    ]


def test_criterion_4_theta_bijection():
    _report(4, [f for f in _theta_failures() if f[2] != "corners"])


def test_criterion_5_corner_statistic():
    _report(5, [f for f in _theta_failures() if f[2] == "corners"])


def test_theta_paths_are_the_canonical_decomposition():
    # posets.corners reads the paths a facet carries instead of decomposing
    # its points, so theta's and enumerate_facets' paths must be decompose's
    failures = []
    for base in _theta_sweep():
        for k in range(1, min(3, real_rank(base) - 1) + 1):
            families = posets.enumerate_facets(base, k)
            families += [posets.theta(base, k, pp) for pp in diagrams.enumerate_P(base, k)]
            failures += [(base, k, f) for f in families if f.paths != posets.decompose(base, k, f.points)]
    assert not failures, failures[:5]


def test_disjoint_segment_choices_are_distinct_facets():
    # iter_facets yields one facet per choice of disjoint free segments and
    # drops none as a repeat: the choices number #P_k and their point sets
    # are pairwise distinct, as the east-first peeling argument says
    failures = []
    for base in _theta_sweep():
        for k in range(1, min(3, real_rank(base)) + 1):
            points = [f.points for f in posets.iter_facets(base, k)]
            if len(points) != diagrams.count_P_product(base, k) or len(set(points)) != len(points):
                failures.append((base, k, len(points), len(set(points))))
    assert not failures, failures[:5]


def test_criterion_6_jellyfish_factorization():
    failures = []
    cases = []
    for p in range(1, 6):
        for q in range(1, 6):
            if p * q <= 20:
                cases.append(upq(p, q, 0))
    cases += [ostar(n, 0) for n in range(3, 8) if n * (n - 1) // 2 <= 20]
    for base in cases:
        for k in range(1, min(2, free_threshold(base) - 1) + 1):
            setting = base._replace(k=k)
            for sigma in iter_sigmas(setting, 3):
                if jellyfish_check(setting, sigma):
                    failures.append((setting, sigma))
    _report(6, failures)


def test_criterion_7_collapse_endpoints():
    # the path count against the collapse bernstein_degree reads at k <= r
    # (dim U_sigma) and at k >= s (dim F_lambda), with every oracle open
    failures = []
    for base in _sweep_settings():
        r, s = real_rank(base), free_threshold(base)
        for k in sorted(set(list(range(1, r + 1)) + [s, s + 1])):
            setting = base._replace(k=k)
            for sigma in iter_sigmas(setting, 3):
                failures += [(setting, sigma, name) for name in path_count_check(setting, sigma)[2]]
    _report(7, failures)


def test_criterion_8_pinned_series():
    _report(8, SUITES["pinned"]())


def test_criterion_9_exceptional_polynomials():
    _report(9, [e for e in exceptional_check(5)["entries"] if "error" in e])


def test_criterion_10_poset_width():
    failures = []
    for base in _sweep_settings():
        if posets.width(diagrams.diagram_D(base, 0)) != real_rank(base):
            failures.append(base)
    _report(10, failures)


def test_criterion_11_metaplectic_window():
    # inside the window every degree is flagged conjectural and passes its
    # oracles; the proven ends k = r and k = s are criterion 7's
    failures = []
    for n in (3, 4):
        for k in range(n + 1, 2 * n - 1):
            setting = mp(n, k)
            if not is_conjectural(setting):
                failures.append(("flag", n, k))
            for sigma in iter_sigmas(setting, 3):
                report = bernstein_degree(setting, sigma)
                if not report.conjectural or not report.ok():
                    failures.append(("probe", n, k, sigma))
    _report(11, failures)
