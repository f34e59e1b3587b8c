"""Tests for the dimension formulas, against the Fraction products and the
tableau counts they replaced."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualdeg.cli import main
from dualdeg.degree import iter_sigmas, partitions_up_to
from dualdeg.dualpair import count_Q_determinant, mp, ostar, real_rank, upq
from dualdeg.repdims import (
    _dim_gl_partition,
    dim_F_lambda,
    dim_gl,
    dim_gl_rational,
    dim_o,
    dim_sp,
    dim_U_sigma,
    dim_weyl,
    root_system,
)
from dualdeg.tableaux import conjugate, enumerate_ssyt, pad


def first_two_columns(t):
    """Entries of the first two columns of t as a sorted multiset."""
    return sorted(t.column(1) + t.column(2))


def _dim_gl_fraction(n, weight):
    """The hook-content product as one normalised Fraction per factor."""
    weight = tuple(weight)
    if len(weight) != n or any(weight[i] < weight[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be a weakly decreasing n-tuple")
    result = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            result *= Fraction(weight[i] - weight[j] + j - i, j - i)
    assert result.denominator == 1
    return int(result)


def _dim_weyl_fraction(name, weight):
    """Weyl's formula over the generated roots as one Fraction per root."""
    lengths, roots = root_system(name)
    weight = tuple(weight)
    if len(weight) != len(lengths):
        raise ValueError(f"{name} weight needs {len(lengths)} coordinates")
    if any(x < 0 for x in weight):
        raise ValueError("weight must be dominant (nonnegative coordinates)")
    result = Fraction(1)
    for c in roots:
        num = sum((weight[i] + 1) * c[i] * lengths[i] for i in range(len(c)))
        den = sum(c[i] * lengths[i] for i in range(len(c)))
        result *= Fraction(num, den)
    assert result.denominator == 1
    return int(result)


def _dim_o_tableaux(k, sigma):
    """Dimension of the O_k irrep labeled by sigma, as the number of
    orthogonal tableaux: U in SSYT(sigma, k) whose first two columns contain
    at most i entries <= i, for every i <= k."""
    sigma = tuple(sigma)
    conj = conjugate(sigma)
    c1 = conj[0] if len(conj) >= 1 else 0
    c2 = conj[1] if len(conj) >= 2 else 0
    if c1 + c2 > k:
        raise ValueError("sigma is not an O_k label")
    count = 0
    for u in enumerate_ssyt(sigma, k):
        cols = first_two_columns(u)
        if all(sum(1 for x in cols if x <= i) <= i for i in range(1, k + 1)):
            count += 1
    return count


def _dim_sp_tableaux(two_k, sigma):
    """Dimension of the Sp_{2k} irrep with highest weight sigma, as the number
    of symplectic tableaux: U in SSYT(sigma, 2k) whose first column contains
    at most i entries <= 2i, for every i <= k."""
    if two_k % 2 != 0:
        raise ValueError("rank must be even")
    k = two_k // 2
    sigma = tuple(sigma)
    if len(sigma) > k:
        raise ValueError("sigma is not an Sp_2k highest weight")
    count = 0
    for u in enumerate_ssyt(sigma, 2 * k):
        col = u.column(1)
        if all(sum(1 for x in col if x <= 2 * i) <= i for i in range(1, k + 1)):
            count += 1
    return count


def test_dim_gl_golden():
    assert dim_gl(2, (1, 0)) == 2
    assert dim_gl(3, (2, 1, 0)) == 8
    assert dim_gl(4, (3, 3, 3, 3)) == 1
    assert dim_gl(3, (1, 0, -1)) == 8  # adjoint of GL_3 mod center


def test_dim_gl_matches_ssyt_counts():
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3, 2), (2, 2, 1)]
    for n in range(1, 5):
        for shape in shapes:
            if len(shape) > n:
                continue
            padded = shape + (0,) * (n - len(shape))
            assert dim_gl(n, padded) == len(enumerate_ssyt(shape, n)), (n, shape)


def test_dim_gl_rational():
    assert dim_gl_rational(2, (1,), (1,)) == 3  # adjoint of SU(2) dimension
    assert dim_gl_rational(3, (1,), ()) == 3
    assert dim_gl_rational(1, (), ()) == 1
    try:
        dim_gl_rational(1, (1,), (1,))
        assert False
    except ValueError:
        pass


def test_dim_o_golden():
    assert dim_o(1, (1,)) == 1
    assert dim_o(2, (1,)) == 2
    assert dim_o(3, (1,)) == 3  # defining rep of O_3
    assert dim_o(3, ()) == 1
    assert dim_o(2, (1, 1)) == 1  # determinant character of O_2
    try:
        dim_o(1, (1, 1))
        assert False
    except ValueError:
        pass


def test_dim_sp_golden():
    assert dim_sp(2, (1,)) == 2
    assert dim_sp(4, (1,)) == 4
    assert dim_sp(4, (1, 1)) == 5
    assert dim_sp(6, (2,)) == 21  # symmetric square minus invariant for Sp_6
    try:
        dim_sp(3, (1,))
        assert False
    except ValueError:
        pass
    try:
        dim_sp(2, (1, 1))
        assert False
    except ValueError:
        pass


def _to_fundamental(sigma, rank, last=1):
    """Partition (epsilon coordinates) to fundamental coordinates for C_rank,
    or for B_rank with last=2: the last fundamental weight of B_rank is half
    of e_1 + ... + e_rank."""
    padded = tuple(sigma) + (0,) * (rank - len(sigma))
    return tuple(padded[i] - padded[i + 1] for i in range(rank - 1)) + (last * padded[-1],)


def test_dim_sp_matches_weyl():
    # the generated C_k and B_m roots against the epsilon-coordinate products
    # of dim_sp and dim_o: fixed shapes, then seeded random labels
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]
    rng = random.Random(19)
    for k in range(1, 7):
        labels = shapes + [
            tuple(sorted(rng.choices(range(1, 6), k=rng.randint(1, k)), reverse=True))
            for _ in range(12)
        ]
        for sigma in labels:
            if len(sigma) > k:
                continue
            assert dim_sp(2 * k, sigma) == dim_weyl(f"C{k}", _to_fundamental(sigma, k)), (
                k,
                sigma,
            )
            assert dim_o(2 * k + 1, sigma) == dim_weyl(f"B{k}", _to_fundamental(sigma, k, 2)), (
                k,
                sigma,
            )


def test_root_tables():
    # positive-root counts per Cartan type
    assert len(root_system("B3")[1]) == 9
    assert len(root_system("B4")[1]) == 16
    assert len(root_system("G2")[1]) == 6
    assert len(root_system("F4")[1]) == 24
    assert len(root_system("C3")[1]) == 9
    # the roots come in order of height, so the highest root is the last
    for name, highest in [
        ("B3", (1, 2, 2)),
        ("B4", (1, 2, 2, 2)),
        ("C3", (2, 2, 1)),
        ("C4", (2, 2, 2, 1)),
        ("G2", (3, 2)),
        ("F4", (2, 3, 4, 2)),
    ]:
        assert root_system(name)[1][-1] == highest, name
    for name in ["Z9", "B0", "G3", "F5", "E6"]:
        with pytest.raises(ValueError):
            root_system(name)


def test_dim_weyl_golden():
    assert dim_weyl("G2", (0, 0)) == 1
    assert dim_weyl("F4", (0, 0, 0, 0)) == 1
    assert dim_weyl("B3", (1, 0, 0)) == 7
    assert dim_weyl("G2", (1, 0)) == 7  # short-root fundamental rep of G2
    assert dim_weyl("G2", (0, 1)) == 14  # adjoint rep of G2
    assert dim_weyl("B4", (0, 0, 0, 1)) == 16  # spin rep of so(9)
    assert dim_weyl("F4", (0, 0, 0, 1)) == 26
    # adjoint reps: the highest weight is the highest root
    assert dim_weyl("B3", (0, 1, 0)) == 21
    assert dim_weyl("B4", (0, 1, 0, 0)) == 36
    assert dim_weyl("C4", (2, 0, 0, 0)) == 36
    assert dim_weyl("F4", (1, 0, 0, 0)) == 52
    try:
        dim_weyl("B3", (1, 0))
        assert False
    except ValueError:
        pass
    try:
        dim_weyl("B3", (-1, 0, 0))
        assert False
    except ValueError:
        pass


def test_dim_F_lambda():
    assert dim_F_lambda(ostar(3, 1), (1,)) == 3
    assert dim_F_lambda(mp(3, 2), (2,)) == 6
    assert dim_F_lambda(upq(2, 3, 2), ((1,), (1,))) == 6
    assert dim_F_lambda(upq(4, 4, 1), ((), ())) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(-6, 9), min_size=n, max_size=n)))
def test_dim_gl_matches_fraction_product(weight):
    weight = sorted(weight, reverse=True)
    assert dim_gl(len(weight), weight) == _dim_gl_fraction(len(weight), weight)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, 9), max_size=min(n, 8)).map(lambda x: sorted(x, reverse=True))
        )
    )
)
def test_dim_gl_partition_matches_dim_gl(case):
    n, lam = case
    assert _dim_gl_partition(n, tuple(lam)) == dim_gl(n, pad(lam, n))


def test_dim_F_lambda_pinned_at_mp23():
    # 23 parts after padding: 253 pair factors in dim_gl, |sigma| cells by hook content
    for setting, sigma, want in [
        (mp(23, 12), (4, 3, 3, 2, 2, 1), 13_090_864_644_000),
        (mp(23, 22), (2,) * 11, 281_248_448_936),
    ]:
        assert dim_F_lambda(setting, sigma) == dim_gl(23, pad(sigma, 23)) == want


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["C1", "C2", "C3", "C4", "B3", "B4", "G2", "F4"]).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(st.integers(0, 7), min_size=len(root_system(name)[0]), max_size=len(root_system(name)[0])),
        )
    )
)
def test_dim_weyl_matches_fraction_product(case):
    name, weight = case
    assert dim_weyl(name, weight) == _dim_weyl_fraction(name, weight)


# (k, sigma) labels the exhaustive sweep below checks, pinned so that the
# sweep cannot shrink unnoticed
O_LABELS_UP_TO_6, SP_LABELS_UP_TO_6 = 100, 132


def test_dim_o_and_dim_sp_match_tableau_counts():
    o_cases = sp_cases = 0
    try:
        for k in range(1, 7):
            for sigma in partitions_up_to(6):
                conj = conjugate(sigma)
                if sum(conj[:2]) <= k:
                    assert dim_o(k, sigma) == _dim_o_tableaux(k, sigma), (k, sigma)
                    o_cases += 1
                if len(sigma) <= k:
                    assert dim_sp(2 * k, sigma) == _dim_sp_tableaux(2 * k, sigma), (k, sigma)
                    sp_cases += 1
    finally:
        enumerate_ssyt.cache_clear()  # the listings are large and not needed again
    assert (o_cases, sp_cases) == (O_LABELS_UP_TO_6, SP_LABELS_UP_TO_6)


def _dim_gl_rational_tableaux(k, plus, minus):
    """Dimension of the GL_k irrep labeled by (plus, minus), as the number of
    SSYT with entries <= k of its highest weight shifted by minus[0]."""
    m = minus[0] if minus else 0
    weight = pad(plus, k - len(minus)) + tuple(-x for x in reversed(minus))
    return len(enumerate_ssyt(tuple(x + m for x in weight if x + m), k))


@st.composite
def rank_k_labels(draw):
    """A upq, mp or ostar setting with k <= r and one of its labels of size
    at most 8, with dim F_lambda <= 5000 so that the tableau count is cheap."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        setting = upq(p, q, draw(st.integers(1, min(p, q))))
    elif family == "mp":
        n = draw(st.integers(1, 12))
        setting = mp(n, draw(st.integers(1, n)))
    else:
        n = draw(st.integers(2, 16))
        setting = ostar(n, draw(st.integers(1, n // 2)))
    sigmas = list(iter_sigmas(setting, 8))
    sigma = draw(st.sampled_from(sigmas))
    assume(dim_F_lambda(setting, sigma) <= 5000)
    return setting, sigma


@settings(max_examples=100, deadline=None)
@given(rank_k_labels())
def test_dim_U_sigma_matches_tableau_counts(case):
    setting, sigma = case
    assert setting.k <= real_rank(setting)
    if setting.family == "upq":
        count = _dim_gl_rational_tableaux(setting.k, *sigma)
    elif setting.family == "mp":
        count = _dim_o_tableaux(setting.k, sigma)
    else:
        count = _dim_sp_tableaux(2 * setting.k, sigma)
    assert dim_U_sigma(setting, sigma) == count == count_Q_determinant(setting, sigma)


# labels at the k <= r settings of the degree benchmark workload, with its
# mp ladder mp(2m + 5, 2m), c1 = c2 = m, at m = 6 and 8; each count equals
# perfbench/refs.dim_U
WORKLOAD_K_LE_R = [
    (upq(12, 13, 6), ((3, 2, 1), (3, 2)), 145_530),
    (upq(10, 10, 4), ((3, 2), (3,)), 630),
    (mp(16, 6), (3, 3, 2), 378),
    (mp(14, 8), (3, 3, 2, 2), 7392),
    (ostar(20, 6), (4, 3, 3, 2, 2, 1), 64_443_600),
    (ostar(18, 4), (5, 3, 2, 1), 205_920),
    (mp(17, 12), (4, 3, 3, 2, 2, 2), 36_808_200),
    (mp(21, 16), (4, 4, 3, 3, 2, 2, 2, 2), 233_988_267_240),
]


def test_path_count_is_dim_U_sigma_at_workload_sizes():
    for setting, sigma, want in WORKLOAD_K_LE_R:
        assert setting.k <= real_rank(setting)
        assert count_Q_determinant(setting, sigma) == dim_U_sigma(setting, sigma) == want, (setting, sigma)


def test_weyl_products_pinned():
    # 371,800 symplectic tableaux, far too many to list in a test
    assert dim_sp(12, (3, 2, 2, 1)) == 371_800
    assert dim_sp(10, (3, 2, 2, 1)) == 66_066  # as many symplectic tableaux, listed once
    out = io.StringIO()
    with redirect_stdout(out):
        assert main("check not --family ostar --n 14 --k 6 --sigma 3,3,2,2,1".split()) == 0
    assert json.loads(out.getvalue()) == {
        "q_count": "3675672",
        "dim_u": "3675672",
        "p_count": "7",
        "degree": "25729704",
        "ok": True,
    }
    # the associate and the doubled labels of O_k
    assert dim_o(5, (1, 1, 1)) == dim_o(5, (1, 1)) == 10
    assert dim_o(4, (1, 1)) == 6 and dim_o(4, (2, 2)) == _dim_o_tableaux(4, (2, 2)) == 10
