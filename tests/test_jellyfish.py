"""Tests for the boundary-anchored path families and jellyfish counting."""

from functools import cache
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import degree, diagrams, dualpair, jellyfish, posets
from dualdeg.degree import bernstein_degree, iter_sigmas
from dualdeg.dualpair import OSTAR, enumerate_Q, free_threshold, mp, ostar, upq
from dualdeg.jellyfish import (
    Endpoints,
    end_map,
    enumerate_jellyfish,
    enumerate_maximal_F,
    enumerate_maximal_jellyfish,
    max_family_size,
    multiplicity_from_jellyfish,
    split_k,
)
from dualdeg.posets import PathFamily, disjoint_products, lattice_paths
from dualdeg.tableaux import Tableau, determinant


# The reference listing of every path family, grouped by endpoint key, that
# the LGV determinants and the paired builder _families_ending_at replace.
def _endpoint_keys(setting, endpoints):
    """Endpoint classifications of a path tuple; two when a corner endpoint
    could lie on either edge."""
    if setting.family == OSTAR:
        return [Endpoints(east=tuple(sorted(i for i, _ in endpoints)))]
    p, q = setting.p, setting.q
    south = sorted(j for i, j in endpoints if i == p and j < q)
    east = sorted(i for i, j in endpoints if j == q and i < p)
    if (p, q) not in endpoints:
        return [Endpoints(south=tuple(south), east=tuple(east))]
    return [
        Endpoints(south=tuple(sorted(south + [q])), east=tuple(east)),
        Endpoints(south=tuple(south), east=tuple(sorted(east + [p]))),
    ]


@cache
def _families_by_endpoints(setting, k):
    """Read-only map from endpoint data to the tuple of path families
    realizing it; the result is cached, so callers must not change it.
    Each start takes one path to the outer edge, row p or column q for upq
    and column n for ostar.  No key lists a family twice: disjoint
    east/south paths from fixed starts to a key's ends never cross, so
    their union fixes the paths (see posets.iter_facets); a family ending
    at the corner (p, q) is listed under both its keys."""
    geometry = jellyfish._geometry(setting, k)
    if setting.family == OSTAR:
        outer = {x for x in geometry.points if x[1] == setting.n}
    else:
        outer = {x for x in geometry.points if x[0] == setting.p or x[1] == setting.q}
    candidates = [lattice_paths(start, geometry.points, outer) for start in geometry.starts]
    grouped = {}
    for combo, pts in disjoint_products(candidates):
        if not pts.isdisjoint(geometry.fixed):
            raise AssertionError(f"a path family of {setting} k={k} meets the fixed region")
        family = PathFamily(pts | geometry.fixed, combo)
        for key in _endpoint_keys(setting, [path[-1] for path in combo]):
            grouped.setdefault(key, []).append(family)
    return MappingProxyType({key: tuple(families) for key, families in grouped.items()})


def test_family_restrictions():
    with pytest.raises(ValueError):
        end_map(mp(5, 2), (), Tableau([]))
    # k at or past the free threshold is rejected
    with pytest.raises(ValueError):
        end_map(ostar(5, 4), (), Tableau([]))
    with pytest.raises(ValueError):
        end_map(upq(2, 3, 0), ((), ()), (Tableau([]), Tableau([])))


_FAMILY_ONLY = "jellyfish exist only for the upq and ostar families"


def _public_entries(setting, sigma):
    """Each public jellyfish entry, called on setting at its own k."""
    T = (Tableau([]), Tableau([])) if setting.family == "upq" else Tableau([])
    k = setting.k
    return {
        "end_map": lambda: end_map(setting, sigma, T),
        "max_family_size": lambda: max_family_size(setting, k),
        "enumerate_maximal_F": lambda: enumerate_maximal_F(setting, k),
        "iter_jellyfish": lambda: jellyfish.iter_jellyfish(setting, sigma),
        "enumerate_jellyfish": lambda: enumerate_jellyfish(setting, sigma),
        "count_jellyfish": lambda: jellyfish.count_jellyfish(setting, sigma),
        "multiplicity_from_jellyfish": lambda: multiplicity_from_jellyfish(setting, sigma),
    }


@pytest.mark.parametrize("setting, sigma, message", [
    (mp(5, 2), (), _FAMILY_ONLY),
    (ostar(5, 0), (), "k must satisfy 1 <= k < 4"),
    (ostar(5, 4), (), "k must satisfy 1 <= k < 4"),
    (upq(2, 3, 0), ((), ()), "k must satisfy 1 <= k < 4"),
    (upq(2, 3, 4), ((), ()), "k must satisfy 1 <= k < 4"),
    # s = 1: the range 1 <= k < s holds no k
    (ostar(2, 1), (), "no k satisfies 1 <= k < s: s = 1"),
    (upq(1, 1, 1), ((), ()), "no k satisfies 1 <= k < s: s = 1"),
])
def test_every_public_entry_refuses_a_setting_without_jellyfish(setting, sigma, message):
    for name, call in _public_entries(setting, sigma).items():
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message, name


def test_the_family_is_refused_before_the_label_is_read():
    # (9,)*7 is no admissible label of mp(5) at k = 2, yet the family is named
    for call in (jellyfish.iter_jellyfish, jellyfish.count_jellyfish):
        with pytest.raises(ValueError, match="^jellyfish exist only for the upq and ostar families$"):
            call(mp(5, 2), (9,) * 7)


def test_boundary_golden_ostar():
    starts = jellyfish._geometry(ostar(11, 4), 4).starts
    assert tuple(j for _, j in starts) == (9, 8, 7, 6)
    assert starts == ((1, 9), (2, 8), (3, 7), (4, 6))
    # an empty first column reaches the maximal east endpoints i_hat
    assert end_map(ostar(11, 4), (), Tableau([])).east == (4, 6, 8, 10)
    b_list = tuple(j for _, j in jellyfish._geometry(ostar(11, 7), 7).starts)
    assert b_list[:4] == (11, 11, 11, 11)
    assert b_list[4:] == (11, 10, 9)


def test_boundary_golden_upq():
    setting = upq(7, 10, 8)
    sigma = ((3, 2, 1, 1, 1), (2, 1, 1))
    assert split_k(setting, 8, sigma) == (5, 3)


def test_end_map_golden_ostar():
    setting = ostar(11, 4)
    T = Tableau([[2], [8], [9]])
    ends = end_map(setting, (1, 1, 1), T)
    assert ends.east == (2, 6, 8, 10)


def test_end_map_golden_upq():
    setting = upq(7, 10, 8)
    sigma = ((3, 2, 1, 1, 1), (2, 1, 1))
    t_plus = Tableau([[3], [4], [7], [9], [10]])
    t_minus = Tableau([[1], [4], [7]])
    ends = end_map(setting, sigma, (t_plus, t_minus))
    # the u = 1 southern endpoint is pinned to column 1 since 1 <= k - p
    assert ends.south == (1, 4, 7, 9, 10)
    assert ends.east == (1, 3, 5)


def test_end_map_transposed_orientation():
    # swapping p <-> q and sigma+/sigma- mirrors the endpoint data
    narrow = upq(2, 4, 3)
    wide = upq(4, 2, 3)
    sigma = ((1,), (1,))
    for T in dualpair.enumerate_T(narrow, sigma):
        ends = end_map(narrow, sigma, T)
        flipped = end_map(wide, (sigma[1], sigma[0]), (T[1], T[0]))
        assert flipped.south == ends.east and flipped.east == ends.south


def test_no_endpoint_key_lists_a_family_twice():
    # _families_by_endpoints keeps no seen set: disjoint east/south paths
    # from fixed starts never cross, so a key's families have distinct point
    # sets; upq p, q <= 5 and ostar n <= 9 at every 1 <= k < s
    settings_ = [upq(p, q, 0) for p in range(1, 6) for q in range(1, 6)] + [ostar(n, 0) for n in range(1, 10)]
    families = keys = 0
    for setting in settings_:
        for k in range(1, free_threshold(setting)):
            for ends, fams in _families_by_endpoints(setting, k).items():
                assert len({f.points for f in fams}) == len(fams), (setting, k, ends)
                families += len(fams)
                keys += 1
    assert (families, keys) == (39_400, 2_260)


def test_equal_cardinality_within_endpoint_class():
    for setting, k in [(upq(3, 3, 2), 2), (ostar(6, 2), 2), (upq(2, 4, 2), 2)]:
        grouped = _families_by_endpoints(setting, k)
        for ends, fams in grouped.items():
            sizes = {len(f) for f in fams}
            assert len(sizes) == 1, (setting, ends, sizes)


def test_jellyfish_count_sigma_zero():
    # with the empty label there is one tableau, so #J-hat = #F-hat
    for setting in [upq(2, 3, 2), ostar(5, 1)]:
        sigma = ((), ()) if setting.family == "upq" else ()
        got = multiplicity_from_jellyfish(setting, sigma)
        assert got == len(enumerate_maximal_F(setting, setting.k))


def test_factorization_small():
    cases = [
        (upq(2, 2, 1), 2),
        (upq(2, 3, 2), 2),
        (upq(3, 2, 1), 2),  # wide orientation
        (ostar(5, 1), 2),
        (ostar(6, 2), 2),
    ]
    for setting, max_sigma in cases:
        maximal = enumerate_maximal_F(setting, setting.k)
        for sigma in iter_sigmas(setting, max_sigma):
            got = {
                (j.tableau, j.family.points)
                for j in enumerate_maximal_jellyfish(setting, sigma)
            }
            want = {
                (T, f.points)
                for T in enumerate_Q(setting, sigma)
                for f in maximal
            }
            assert got == want, (setting, sigma)


def test_multiplicity_matches_degree():
    for setting in [upq(2, 2, 1), upq(2, 3, 2), upq(4, 2, 2), ostar(5, 1), ostar(6, 2)]:
        for sigma in iter_sigmas(setting, 2):
            report = bernstein_degree(setting, sigma)
            assert multiplicity_from_jellyfish(setting, sigma) == report.degree, (
                setting,
                sigma,
            )


def test_jellyfish_components():
    setting = ostar(5, 1)
    for j in enumerate_jellyfish(setting, (1,)):
        assert end_map(setting, (1,), j.tableau) is not None
        assert j.family.points >= jellyfish._geometry(setting, 1).fixed


def test_cached_helpers_hold_frozensets():
    for setting in [upq(3, 3, 2), upq(4, 2, 2), ostar(6, 2)]:
        k = setting.k
        points = jellyfish._points(setting)
        assert isinstance(points, frozenset) and jellyfish._points(setting) is points  # one cached value
        geometry = jellyfish._geometry(setting, k)
        assert jellyfish._geometry(setting, k) is geometry and geometry.points is points
        assert isinstance(geometry.fixed, frozenset)
        assert isinstance(geometry.starts, tuple) and all(isinstance(x, tuple) for x in geometry.starts)
        assert geometry.fixed.union(geometry.starts) <= points
        assert max_family_size(setting, k) == max_family_size_by_listing(setting, k)


# upq with pq <= 20 and ostar with n <= 6, at 1 <= k <= min(2, s - 1), with
# their labels of size <= 3
JELLYFISH_CASES = [
    (setting, sigma)
    for base in [upq(p, q, 0) for p in range(1, 21) for q in range(1, 20 // p + 1)] + [ostar(n, 0) for n in range(2, 7)]
    for k in range(1, min(2, free_threshold(base) - 1) + 1)
    for setting in [base._replace(k=k)]
    for sigma in iter_sigmas(setting, 3)
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(JELLYFISH_CASES))
def test_multiplicity_counts_the_listed_maximal_jellyfish(case):
    # the class count against the listing it replaced
    setting, sigma = case
    assert multiplicity_from_jellyfish(setting, sigma) == len(enumerate_maximal_jellyfish(setting, sigma)), case


def _first_column(t):
    return Tableau([row[:1] for row in t])


def test_end_map_reads_only_the_first_column():
    # the premise of the class count: end(T) is end of T's first column
    for setting, sigma in JELLYFISH_CASES[::7]:
        label = dualpair.normalize_sigma(setting, sigma)
        ends = jellyfish._end_map(setting, label)
        for T in dualpair.enumerate_T(setting, label):
            head = tuple(map(_first_column, T)) if setting.family == dualpair.UPQ else _first_column(T)
            assert ends(T) == ends(head), (setting, sigma, T)


# the listing oracles that the path-count determinants replaced: d_k as the
# largest listed family, and a key's maximal families by tally
def max_family_size_by_listing(setting, k):
    return max(len(f) for families in _families_by_endpoints(setting, k).values() for f in families)


def maximal_families_by_listing(setting, k, end, d):
    return sum(len(f) == d for f in _families_by_endpoints(setting, k).get(end, ()))


# upq p <= 5, q <= 6 and ostar n <= 9, at every 1 <= k < s
LGV_LEVELS = [
    (base._replace(k=k), k)
    for base in [upq(p, q, 0) for p in range(1, 6) for q in range(1, 7)] + [ostar(n, 0) for n in range(2, 10)]
    for k in range(1, free_threshold(base))
]


def test_path_count_determinants_match_the_listing():
    # every endpoint key: the LGV count of all its families and of its
    # maximal ones, and the families built from its own paths, in order
    keys = 0
    for setting, k in LGV_LEVELS:
        d = max_family_size_by_listing(setting, k)
        assert max_family_size(setting, k) == d, (setting, k)
        for end, families in _families_by_endpoints(setting, k).items():
            number = jellyfish._family_number(setting, k, end)
            assert number == len(families), (setting, k, end)
            assert {len(f) for f in families} == {jellyfish._family_size(setting, k, end)}, (setting, k, end)
            maximal = number if jellyfish._family_size(setting, k, end) == d else 0
            assert maximal == maximal_families_by_listing(setting, k, end, d), (setting, k, end)
            assert jellyfish._families_ending_at(setting, k, end) == families, (setting, k, end)
            keys += 1
    assert keys == 4_046


def test_maximal_families_match_poset_facets():
    # at every level, the listing's largest families are enumerate_maximal_F
    # and the facets of posets, whose box (r, c) of D_0 is the root (r, c)
    # for upq and (r, c + 1) for ostar
    total = 0
    for setting, k in LGV_LEVELS:
        d = max_family_size_by_listing(setting, k)
        listed = {f.points for fams in _families_by_endpoints(setting, k).values() for f in fams if len(f) == d}
        maximal = [f.points for f in enumerate_maximal_F(setting, k)]
        shift = setting.family == OSTAR
        facets = {frozenset((r, c + shift) for r, c in f.points) for f in posets.iter_facets(setting, k)}
        assert len(set(maximal)) == len(maximal) and set(maximal) == listed == facets, (setting, k)
        total += len(listed)
    assert (len(LGV_LEVELS), total) == (163, 3_144)


def test_the_jellyfish_suite_sees_a_dropped_ostar_shift(monkeypatch):
    # the maximal families come from the facets, not from _points, so root
    # labels without the ostar shift move the jellyfish side alone
    def unshifted(setting):
        return frozenset(diagrams.diagram_D(setting, 0))

    jellyfish._geometry.cache_clear()
    jellyfish._path_counts.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(jellyfish, "_points", unshifted)
            assert degree.jellyfish_check(ostar(5, 1), ())
    finally:
        jellyfish._geometry.cache_clear()
        jellyfish._path_counts.cache_clear()


def test_path_counts_in_the_row_order_of_starts_miss_the_sign():
    # the pairing by r - c is what makes the determinant a count: upq(3, 4)
    # at k = 2 has its starts (1, 2), (2, 1) in row order, and (1, 2) first
    # by r - c; its one family joins (1, 2) to (1, 4) and (2, 1) to (3, 1)
    setting, k = upq(3, 4, 2), 2
    assert jellyfish._geometry(setting, k).starts == ((1, 2), (2, 1))
    counts = jellyfish._path_counts(setting, k)
    end = Endpoints(south=(1,), east=(1,))
    rows = [counts[1, 4], counts[3, 1]]  # the ends by r - c
    assert rows == [(1, 0), (0, 1)]
    assert jellyfish._family_number(setting, k, end) == len(_families_by_endpoints(setting, k)[end]) == 1
    assert determinant([row[::-1] for row in rows]) == -1  # starts in row order


def test_count_jellyfish_matches_the_listing_on_small_labels():
    # every label of size <= 4 of upq p <= 4, q <= 5 and ostar n <= 8 at every k < s
    labels = 0
    for base in [upq(p, q, 0) for p in range(1, 5) for q in range(1, 6)] + [ostar(n, 0) for n in range(2, 9)]:
        for k in range(1, free_threshold(base)):
            setting = base._replace(k=k)
            d = max_family_size(setting, k)
            for sigma in iter_sigmas(setting, 4):
                listed = enumerate_jellyfish(setting, sigma)
                assert jellyfish.count_jellyfish(setting, sigma) == len(listed), (setting, sigma)
                maximal = sum(len(j.family) == d for j in listed)
                assert multiplicity_from_jellyfish(setting, sigma) == maximal, (setting, sigma)
                labels += 1
    assert labels == 1_881


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(JELLYFISH_CASES))
def test_jellyfish_listing_keeps_the_order_of_the_endpoint_map(case):
    # built per endpoint key, the listing is the one the cached endpoint map gave
    setting, sigma = case
    label = dualpair.nonzero_label(setting, sigma)
    grouped = _families_by_endpoints(setting, setting.k)
    ends = jellyfish._end_map(setting, label)
    want = [(T, f) for T in dualpair._enumerate_T(setting, label) for f in grouped.get(ends(T), ())]
    assert enumerate_jellyfish(setting, sigma) == want, case


def _refuse_listing(monkeypatch):
    def refuse(*args):
        raise RuntimeError("listed a path family")

    for name in ("boxed_paths", "iter_facets"):
        monkeypatch.setattr(jellyfish, name, refuse)
    monkeypatch.setattr(posets, "lattice_paths", refuse)


def test_jellyfish_check_lists_no_path_family(monkeypatch):
    _refuse_listing(monkeypatch)
    with pytest.raises(RuntimeError):
        enumerate_jellyfish(ostar(5, 1), (1,))
    for setting, sigma in ((upq(2, 3, 2), ((1,), (1,))), (upq(4, 2, 2), ((1,), ())), (ostar(6, 2), (2, 1))):
        checks = {c.name: c for c in bernstein_degree(setting, sigma).cross_checks}
        assert checks["jellyfish"].status == "pass", (setting, checks["jellyfish"])
    # the count that the enumerate jellyfish gate reads
    assert jellyfish.count_jellyfish(upq(7, 7, 3), ((1,), ())) == 165_816
    assert jellyfish.count_jellyfish(upq(8, 8, 4), ((1,), ())) == 2_345_112


@pytest.mark.parametrize(
    "setting, sigma",
    [(upq(12, 12, 6), ((2, 1), (1,))), (upq(20, 20, 10), ((3, 1), (2,))), (ostar(30, 10), (3, 2, 1))],
    ids=["upq-12-12-k6", "upq-20-20-k10", "ostar-30-k10"],
)
def test_jellyfish_count_reaches_past_the_gate(monkeypatch, setting, sigma):
    # k > 2 and |poset| > 20 shut the jellyfish gate of bernstein_degree; the
    # path-count determinants still give the degree, listing no path family
    _refuse_listing(monkeypatch)
    report = bernstein_degree(setting, sigma)
    assert {c.name: c.status for c in report.cross_checks}["jellyfish"] == "skipped"
    assert multiplicity_from_jellyfish(setting, sigma) == report.degree


def test_path_count_cache_cannot_be_corrupted():
    setting, k = upq(3, 3, 2), 2
    counts = jellyfish._path_counts(setting, k)
    before = dict(counts)
    with pytest.raises(TypeError):
        counts[3, 3] = (0, 0)
    with pytest.raises(AttributeError):
        counts.clear()
    with pytest.raises(TypeError):
        counts[3, 3][0] = 0
    assert isinstance(jellyfish._geometry(setting, k).starts, tuple)
    assert isinstance(jellyfish._geometry(setting, k).fixed, frozenset)
    assert jellyfish._path_counts(setting, k) is counts and dict(counts) == before


def test_jellyfish_read_the_root_labels_only_through_the_geometry(monkeypatch):
    # once _geometry is warm, the families and counts read no D_0 of their own
    levels = [(upq(3, 4, 2), 2), (upq(4, 3, 3), 3), (ostar(7, 2), 2)]

    def values():
        return [
            (
                enumerate_maximal_F(setting, k),
                [
                    (jellyfish.count_jellyfish(setting, sigma), multiplicity_from_jellyfish(setting, sigma),
                     list(jellyfish.iter_jellyfish(setting, sigma)))
                    for sigma in iter_sigmas(setting, 2)
                ],
            )
            for setting, k in levels
        ]

    want = values()
    for setting, k in levels:
        jellyfish._geometry(setting, k)
    jellyfish._path_counts.cache_clear()

    def refuse(*args):
        raise RuntimeError("read the root labels outside _geometry")

    monkeypatch.setattr(jellyfish, "_points", refuse)
    assert values() == want


def test_iter_jellyfish_checks_at_the_call():
    with pytest.raises(ValueError):
        jellyfish.iter_jellyfish(mp(5, 2), ())
    with pytest.raises(ValueError):
        jellyfish.iter_jellyfish(ostar(4, 1), (1, 1))
    assert list(jellyfish.iter_jellyfish(ostar(5, 1), (1,))) == enumerate_jellyfish(ostar(5, 1), (1,))
