"""Tests for diagrams, plane partitions, and Hilbert-series numerators."""

import hashlib
from fractions import Fraction
from importlib import resources

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualdeg import diagrams
from dualdeg.diagrams import (
    PlanePartition,
    c_statistic,
    count_P_product,
    diagram_D,
    diagram_D0,
    diagram_D_closed_form,
    dim_p_plus,
    enumerate_P,
    hilbert_series_orbit,
    interior,
    numerator_polynomial,
    rectangle,
    shifted_staircase,
    staircase,
)
from dualdeg.dualpair import Setting, free_threshold, mp, ostar, real_rank, upq
from dualdeg.tableaux import IntPolynomial

DATA_SHA256 = {
    "e6_d0.txt": "3bd023c60eec131a419bd038e0a96b98427f9c2dc95fbd0c890de8735ddf2fbc",
    "e7_d0.txt": "59c38b19eaa1d1099955b7e428c092413c485da65eda8fb727e80be2474bb011",
    "root_systems.txt": "0a5900ee7c52b405249abd0beae93b6b126dd90fac32403a442da07d0728ef64",
}


def test_data_files_pinned():
    for name, digest in DATA_SHA256.items():
        raw = resources.files("dualdeg.data").joinpath(name).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name


def test_builders():
    assert rectangle(2, 3) == frozenset(
        {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}
    )
    assert staircase(2) == frozenset({(1, 1), (1, 2), (2, 1)})
    assert shifted_staircase(2) == frozenset({(1, 1), (1, 2), (2, 2)})
    assert rectangle(0, 3) == frozenset()


def test_interior():
    assert interior(rectangle(2, 3)) == rectangle(1, 2)
    assert interior(staircase(3)) == staircase(2)
    assert interior(shifted_staircase(3)) == shifted_staircase(1)
    assert interior(frozenset()) == frozenset()


def test_closed_forms_match_recursion():
    # bernstein_degree reads |D_k| from the closed form at every k >= 1
    for setting in [upq(3, 5, 0), upq(4, 4, 0), mp(4, 0), ostar(7, 0), ostar(8, 0)]:
        for k in range(0, free_threshold(setting) + 3):
            assert diagram_D(setting, k) == diagram_D_closed_form(setting, k), (
                setting,
                k,
            )


def test_D_r_empty():
    for setting in [
        upq(3, 4, 0),
        mp(3, 0),
        ostar(7, 0),
        Setting("so-even", n=5),
        Setting("so-odd", n=4),
        Setting("e6"),
        Setting("e7"),
    ]:
        r = real_rank(setting)
        assert diagram_D(setting, r) == frozenset(), setting.family
        assert diagram_D(setting, r - 1) != frozenset(), setting.family


def test_d0_sizes_match_dim_p_plus():
    for setting in [
        upq(3, 4, 0),
        mp(4, 0),
        ostar(6, 0),
        Setting("so-even", n=5),
        Setting("e6"),
        Setting("e7"),
    ]:
        assert len(diagram_D0(setting)) == dim_p_plus(setting)
    # the odd orthogonal diagram is smaller than dim p+: its single interior
    # box carries weight 2, which the Hilbert exponent accounts for
    assert len(diagram_D0(Setting("so-odd", n=4))) == 5
    assert dim_p_plus(Setting("so-odd", n=4)) == 7


def test_exceptional_interiors():
    # hand-checked interiors of the exceptional diagrams
    e6 = Setting("e6")
    assert diagram_D(e6, 1) == frozenset(
        {(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)}
    )
    e7 = Setting("e7")
    assert len(diagram_D(e7, 1)) == 10
    assert diagram_D(e7, 2) == frozenset({(1, 1)})


def test_plane_partition_type():
    diagram = rectangle(2, 2)
    pp = PlanePartition(diagram, {(1, 1): 2, (1, 2): 2, (2, 1): 0, (2, 2): 1})
    assert pp.is_monotone()
    assert pp.bound() == 2
    assert pp[(9, 9)] == 0
    bad = PlanePartition(diagram, {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 0})
    assert not bad.is_monotone()
    try:
        PlanePartition(diagram, {(1, 1): 1})
        assert False
    except ValueError:
        pass


def test_enumerate_P_golden():
    # single box bounded by k has k+1 fillings
    assert len(enumerate_P(Setting("e7"), 2)) == 3
    # empty diagram has exactly the empty filling
    assert len(enumerate_P(mp(3, 0), 3)) == 1
    # pinned counts
    assert len(enumerate_P(upq(4, 5, 0), 2)) == 50
    assert len(enumerate_P(mp(3, 0), 1)) == 4
    assert len(enumerate_P(ostar(6, 0), 1)) == 14


def test_product_formula_matches_enumeration():
    for setting in [upq(3, 3, 0), upq(4, 5, 0), mp(3, 0), mp(4, 0), ostar(6, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting) + 1):
            if len(diagram_D(setting, k)) > 12:
                continue
            assert count_P_product(setting, k) == len(enumerate_P(setting, k)), (
                setting,
                k,
            )


def test_c_statistic():
    diagram = rectangle(1, 2)
    pp = PlanePartition(diagram, {(1, 1): 1, (1, 2): 2})
    # increments: 1 over nothing, then 2 over the western neighbor 1
    assert c_statistic(pp) == 2
    empty = PlanePartition(frozenset(), {})
    assert c_statistic(empty) == 0


def test_hilbert_series():
    for n in (3, 4, 5):
        num, exponent = hilbert_series_orbit(Setting("so-odd", n=n), 1)
        assert num == IntPolynomial([1, 1])
        assert exponent == 2 * n - 2
    num, exponent = hilbert_series_orbit(Setting("e6"), 2)
    assert num == IntPolynomial([1])
    assert exponent == 16
    num, exponent = hilbert_series_orbit(Setting("e7"), 2)
    assert num == IntPolynomial([1, 1, 1])
    assert exponent == 26
    # numerator at t=1 counts the plane partitions
    for setting, k in [(upq(3, 4, 0), 2), (mp(3, 0), 1), (ostar(6, 0), 2)]:
        num, _ = hilbert_series_orbit(setting, k)
        assert num.evaluate(1) == len(enumerate_P(setting, k))


def from_histogram(values):
    """Polynomial whose t^m coefficient counts occurrences of m in values."""
    values = list(values)
    coeffs = [0] * (max(values) + 1 if values else 0)
    for v in values:
        coeffs[v] += 1
    return IntPolynomial(coeffs)


def _numerator_by_enumeration(setting, k):
    return from_histogram(c_statistic(p) for p in enumerate_P(setting, k))


def _within_enumeration_budget(setting, k):
    return len(diagram_D(setting, k)) <= 12 or count_P_product(setting, k) <= 5000


@st.composite
def dual_pair_orbits(draw):
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(1, 8)), draw(st.integers(1, 8)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(1, 9)), 0)
    else:
        setting = ostar(draw(st.integers(2, 13)), 0)
    k = draw(st.integers(1, real_rank(setting)))
    assume(_within_enumeration_budget(setting, k))
    return setting, k


@settings(max_examples=100, deadline=None)
@given(dual_pair_orbits())
def test_transfer_matrix_numerator_matches_enumeration(orbit):
    setting, k = orbit
    assert numerator_polynomial(setting, k) == _numerator_by_enumeration(setting, k)


def test_transfer_matrix_numerator_matches_enumeration_other_types():
    so = [Setting(family, n=n) for family in ("so-even", "so-odd") for n in range(3, 41)]
    for setting in so + [Setting("e6"), Setting("e7")]:
        for k in range(1, real_rank(setting) + 1):
            assert numerator_polynomial(setting, k) == _numerator_by_enumeration(setting, k), (setting, k)


def test_numerator_polynomial_pinned():
    # computed by listing all 226,512 plane partitions
    num = numerator_polynomial(upq(8, 8, 0), 2)
    assert list(num.coeffs) == [1, 36, 666, 5300, 22275, 51192, 67572, 51192, 22275, 5300, 666, 36, 1]
    assert num.evaluate(1) == count_P_product(upq(8, 8, 0), 2) == 226_512
    # the empty diagram D_r has the empty filling alone
    assert numerator_polynomial(upq(3, 5, 0), 3) == IntPolynomial([1])


def _count_P_fraction(setting, k):
    """#P_k by the product formulas as one normalised Fraction per factor."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = setting.family
    result = Fraction(1)
    if f == "upq":
        for i in range(1, setting.p - k + 1):
            for j in range(1, setting.q - k + 1):
                result *= Fraction(k + i + j - 1, i + j - 1)
    elif f == "mp":
        m = setting.n - k
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                result *= Fraction(k + i + j - 1, i + j - 1)
    elif f == "ostar":
        m = setting.n - 2 * k - 1
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                result *= Fraction(2 * k + i + j, i + j)
    else:
        raise ValueError(f"no product formula for family {f!r}")
    assert result.denominator == 1
    return int(result)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(upq, st.integers(1, 14), st.integers(1, 14), st.integers(1, 16)),
        st.builds(mp, st.integers(1, 16), st.integers(1, 34)),
        st.builds(ostar, st.integers(1, 24), st.integers(1, 25)),
    )
)
def test_count_P_product_matches_fraction_product(setting):
    assert count_P_product(setting, setting.k) == _count_P_fraction(setting, setting.k)
