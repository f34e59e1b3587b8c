"""Tests for the boundary-anchored path families and jellyfish counting."""

import pytest

from dualdeg import dualpair, jellyfish, posets
from dualdeg.degree import bernstein_degree, iter_sigmas
from dualdeg.dualpair import enumerate_Q, mp, ostar, upq
from dualdeg.jellyfish import (
    Endpoints,
    boundary_data,
    end_map,
    enumerate_F,
    enumerate_F_E,
    enumerate_jellyfish,
    enumerate_maximal_F,
    enumerate_maximal_jellyfish,
    max_family_size,
    multiplicity_from_jellyfish,
    split_k,
)
from dualdeg.tableaux import Tableau


def test_family_restrictions():
    try:
        boundary_data(mp(5, 2), 2)
        assert False
    except ValueError:
        pass
    # k at or past the free threshold is rejected
    try:
        boundary_data(ostar(5, 4), 4)
        assert False
    except ValueError:
        pass
    try:
        boundary_data(upq(2, 3, 0), 0)
        assert False
    except ValueError:
        pass


def test_boundary_golden_ostar():
    data = boundary_data(ostar(11, 4), 4)
    assert data.b_list == (9, 8, 7, 6)
    assert data.i_hat == (4, 6, 8, 10)
    assert data.starts == ((1, 9), (2, 8), (3, 7), (4, 6))
    data = boundary_data(ostar(11, 7), 7)
    assert data.b_list[:4] == (11, 11, 11, 11)
    assert data.b_list[4:] == (11, 10, 9)


def test_boundary_golden_upq():
    setting = upq(7, 10, 8)
    sigma = ((3, 2, 1, 1, 1), (2, 1, 1))
    assert split_k(setting, 8, sigma) == (5, 3)
    data = boundary_data(setting, 8, sigma)
    assert data.k_plus == 5 and data.k_minus == 3
    assert data.a_list == (7, 7, 6, 5, 4, 3, 2, 1)
    assert data.b_list == (8, 7, 6, 5, 4, 3, 2, 1)


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
    by_ends = set()
    for i in range(1, 5):
        try:
            fams = enumerate_F_E(setting, 1, Endpoints(east=(i,)))
        except ValueError:
            continue
        for f in fams:
            by_ends.add(f.points)
    assert by_ends == all_families
    try:
        enumerate_F_E(setting, 1, Endpoints(east=(99,)))
        assert False
    except ValueError:
        pass


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
    assert len(enumerate_F_E(setting, 2, key)) == sizes[key]


def test_maximal_families_match_poset_facets():
    for setting, k in [(upq(3, 3, 1), 1), (upq(2, 4, 2), 2), (ostar(5, 1), 1), (ostar(6, 2), 2)]:
        poset = posets.build_poset(setting)
        facet_pts = {
            frozenset(poset.label(p) for p in f.points)
            for f in posets.enumerate_facets(setting, k)
        }
        maximal_pts = {f.points for f in enumerate_maximal_F(setting, k)}
        assert maximal_pts == facet_pts, (setting, k)
        d0 = len(poset.points)
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
