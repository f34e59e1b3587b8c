"""Tests for the boundary-anchored path families and jellyfish counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import dualpair, jellyfish, posets
from dualdeg.degree import bernstein_degree, iter_sigmas
from dualdeg.dualpair import enumerate_Q, free_threshold, mp, ostar, upq
from dualdeg.jellyfish import (
    Endpoints,
    end_map,
    enumerate_F,
    enumerate_jellyfish,
    enumerate_maximal_F,
    enumerate_maximal_jellyfish,
    max_family_size,
    multiplicity_from_jellyfish,
    split_k,
)
from dualdeg.tableaux import Tableau


def test_family_restrictions():
    with pytest.raises(ValueError):
        end_map(mp(5, 2), (), Tableau([]))
    # k at or past the free threshold is rejected
    with pytest.raises(ValueError):
        end_map(ostar(5, 4), (), Tableau([]))
    with pytest.raises(ValueError):
        end_map(upq(2, 3, 0), ((), ()), (Tableau([]), Tableau([])))


def test_boundary_golden_ostar():
    assert jellyfish._ostar_b_list(11, 4) == (9, 8, 7, 6)
    assert jellyfish._starts(ostar(11, 4), 4) == ((1, 9), (2, 8), (3, 7), (4, 6))
    # an empty first column reaches the maximal east endpoints i_hat
    assert end_map(ostar(11, 4), (), Tableau([])).east == (4, 6, 8, 10)
    b_list = jellyfish._ostar_b_list(11, 7)
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


def test_families_partition_by_endpoints():
    setting = ostar(5, 1)
    all_families = {f.points for f in enumerate_F(setting, 1)}
    grouped = jellyfish._families_by_endpoints(setting, 1)
    by_ends = set()
    for i in range(1, 5):
        for f in grouped.get(Endpoints(east=(i,)), ()):
            by_ends.add(f.points)
    assert by_ends == all_families
    assert Endpoints(east=(99,)) not in grouped


def test_no_endpoint_key_lists_a_family_twice():
    # _families_by_endpoints keeps no seen set: disjoint east/south paths
    # from fixed starts never cross, so a key's families have distinct point
    # sets; upq p, q <= 5 and ostar n <= 9 at every 1 <= k < s
    settings_ = [upq(p, q, 0) for p in range(1, 6) for q in range(1, 6)] + [ostar(n, 0) for n in range(1, 10)]
    families = keys = 0
    for setting in settings_:
        for k in range(1, free_threshold(setting)):
            for ends, fams in jellyfish._families_by_endpoints(setting, k).items():
                assert len({f.points for f in fams}) == len(fams), (setting, k, ends)
                families += len(fams)
                keys += 1
    assert (families, keys) == (39_400, 2_260)


def test_equal_cardinality_within_endpoint_class():
    for setting, k in [(upq(3, 3, 2), 2), (ostar(6, 2), 2), (upq(2, 4, 2), 2)]:
        grouped = jellyfish._families_by_endpoints(setting, k)
        for ends, fams in grouped.items():
            sizes = {len(f) for f in fams}
            assert len(sizes) == 1, (setting, ends, sizes)


def test_families_by_endpoints_cache_cannot_be_corrupted():
    setting = upq(3, 3, 2)
    first = jellyfish._families_by_endpoints(setting, 2)
    sizes = {ends: len(fams) for ends, fams in first.items()}
    key = next(iter(first))
    with pytest.raises(TypeError):
        first[key] = ()
    with pytest.raises(AttributeError):
        first.clear()
    with pytest.raises(AttributeError):
        first[key].clear()
    again = jellyfish._families_by_endpoints(setting, 2)
    assert {ends: len(fams) for ends, fams in again.items()} == sizes
    assert len(again[key]) == sizes[key]


def test_maximal_families_match_poset_facets():
    for setting, k in [(upq(3, 3, 1), 1), (upq(2, 4, 2), 2), (ostar(5, 1), 1), (ostar(6, 2), 2)]:
        # the box (r, c) of D_0 is the root (r, c) for upq and (r, c + 1) for ostar
        shift = 1 if setting.family == "ostar" else 0
        facet_pts = {frozenset((r, c + shift) for r, c in f.points) for f in posets.enumerate_facets(setting, k)}
        maximal_pts = {f.points for f in enumerate_maximal_F(setting, k)}
        assert maximal_pts == facet_pts, (setting, k)
        assert max_family_size(setting, k) == len(next(iter(facet_pts)))


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
        assert j.family.points >= jellyfish._region(setting, 1) - set(
            jellyfish._starts(setting, 1)
        )


def test_cached_helpers_hold_frozensets():
    for setting in [upq(3, 3, 2), upq(4, 2, 2), ostar(6, 2)]:
        k = setting.k
        for helper, args in [
            (jellyfish._points, (setting,)),
            (jellyfish._region, (setting, k)),
            (jellyfish._outer, (setting,)),
        ]:
            value = helper(*args)
            assert isinstance(value, frozenset), helper.__name__
            assert helper(*args) is value, helper.__name__  # one cached value
        assert jellyfish._region(setting, k) <= jellyfish._points(setting)
        d = max_family_size(setting, k)
        assert d == max(len(f) for f in enumerate_F(setting, k))


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
