"""Tests for the dual-pair settings, Q_k(sigma), and its counting formulas."""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualdeg import dualpair
from dualdeg.degree import iter_sigmas
from dualdeg.dualpair import (
    IN_HHAT_NOT_SIGMA,
    IN_SIGMA,
    MP,
    NOT_IN_HHAT,
    UPQ,
    Setting,
    _count_Q_mp,
    alpha,
    count_Q_determinant,
    enumerate_Q,
    enumerate_T,
    free_threshold,
    in_Q_criteria,
    in_Q_definition,
    mp,
    normalize_sigma,
    ostar,
    q_collapse_check,
    real_rank,
    sigma_admissible,
    upq,
)
from dualdeg.repdims import dim_F_lambda
from dualdeg.tableaux import Tableau, binomial, conjugate, determinant, pad


def test_parameters():
    assert real_rank(upq(3, 5, 1)) == 3
    assert real_rank(mp(4, 1)) == 4
    assert real_rank(ostar(7, 1)) == 3
    assert real_rank(Setting("so-even", n=6)) == 2
    assert real_rank(Setting("e6")) == 2
    assert real_rank(Setting("e7")) == 3
    assert free_threshold(upq(3, 5, 1)) == 7
    assert free_threshold(mp(4, 1)) == 7
    assert free_threshold(ostar(7, 1)) == 6


def test_setting_validation():
    try:
        Setting("nope")
        assert False
    except ValueError:
        pass
    try:
        upq(0, 3, 1)
        assert False
    except ValueError:
        pass
    try:
        mp(3, -1)
        assert False
    except ValueError:
        pass


def test_admissibility():
    s = upq(2, 3, 2)
    assert sigma_admissible(s, ((1,), (1,))) == IN_SIGMA
    assert sigma_admissible(s, ((1, 1), (1,))) == NOT_IN_HHAT
    assert sigma_admissible(upq(2, 3, 4), ((1, 1, 1, 1), ())) == IN_HHAT_NOT_SIGMA
    assert sigma_admissible(mp(3, 4), (2, 2)) == IN_SIGMA
    assert sigma_admissible(mp(3, 2), (2, 2)) == NOT_IN_HHAT
    assert sigma_admissible(mp(3, 2), (1, 1, 1)) == NOT_IN_HHAT
    assert sigma_admissible(mp(2, 4), (1, 1, 1)) == IN_HHAT_NOT_SIGMA
    assert sigma_admissible(ostar(4, 2), (3, 1)) == IN_SIGMA
    assert sigma_admissible(ostar(4, 1), (3, 1)) == NOT_IN_HHAT
    assert sigma_admissible(ostar(2, 4), (1, 1, 1)) == IN_HHAT_NOT_SIGMA


def highest_weight(setting, sigma):
    """The highest weight labeling the module attached to sigma.

    For upq the result is a pair of blocks of lengths p and q; for mp a single
    block of half-integers (Fractions); for ostar a single integer block.
    """
    if sigma_admissible(setting, sigma) != IN_SIGMA:
        raise ValueError("sigma is not an admissible nonzero label")
    sigma = normalize_sigma(setting, sigma)
    k = setting.k
    if setting.family == UPQ:
        plus, minus = sigma
        left = tuple(-x - k for x in reversed(pad(minus, setting.p)))
        right = pad(plus, setting.q)
        return (left, right)
    if setting.family == MP:
        shift = Fraction(k, 2)
        return tuple(-x - shift for x in reversed(pad(sigma, setting.n)))
    return tuple(-x - k for x in reversed(pad(sigma, setting.n)))


def test_highest_weight():
    # ostar: -reversed(padded sigma) - k
    assert highest_weight(ostar(3, 1), (1,)) == (-1, -1, -2)
    assert highest_weight(ostar(4, 2), (2, 1)) == (-2, -2, -3, -4)
    # mp: half-integral shift by k/2
    assert highest_weight(mp(2, 1), (1,)) == (
        Fraction(-1, 2),
        Fraction(-3, 2),
    )
    assert highest_weight(mp(2, 2), ()) == (-1, -1)
    # upq: block of length p, then block of length q
    left, right = highest_weight(upq(2, 3, 2), ((1,), (1,)))
    assert left == (-2, -3)
    assert right == (1, 0, 0)


def test_enumerate_T_sizes():
    assert len(enumerate_T(ostar(3, 1), (1,))) == 3
    assert len(enumerate_T(mp(3, 2), (1, 1))) == 3
    assert len(enumerate_T(upq(2, 3, 2), ((1,), (1,)))) == 6
    assert enumerate_T(upq(2, 3, 1), ((1, 1, 1, 1), ())) == []


def test_alpha_counts():
    # ostar(4), k=1: alpha_1 counts first-column entries < n-1-2k+2 = 3
    s = ostar(4, 1)
    assert alpha(s, Tableau([[1]]), 1) == 1
    assert alpha(s, Tableau([[3]]), 1) == 0
    # mp(3), k=1: alpha_1 counts all first-two-column entries < n-k+1 = 3
    s = mp(3, 1)
    assert alpha(s, Tableau([[1, 1]]), 1) == 2
    assert alpha(s, Tableau([[3, 3]]), 1) == 0
    # upq(2,2), k=1: entries of T+ < q-k+1 = 2 plus entries of T- < p-k+1 = 2
    s = upq(2, 2, 1)
    t = (Tableau([[1]]), Tableau([[2]]))
    assert alpha(s, t, 1) == 1


def test_Q_golden():
    # ostar(3), k=1, sigma=(1): criteria T_{1,1} >= n+2(1-k)-1 = 2
    q = enumerate_Q(ostar(3, 1), (1,))
    assert [t.rows for t in q] == [((2,),), ((3,),)]
    # mp(2), k=1, sigma=(1): T_{1,1} >= n-k+1 = 2
    q = enumerate_Q(mp(2, 1), (1,))
    assert [t.rows for t in q] == [((2,),)]
    # sigma = 0 always gives the single empty tableau
    assert len(enumerate_Q(mp(3, 2), ())) == 1
    assert len(enumerate_Q(upq(2, 2, 1), ((), ()))) == 1


def test_criteria_equivalence_small():
    settings = [upq(2, 2, 0), upq(2, 3, 0), mp(3, 0), ostar(4, 0)]
    for s0 in settings:
        for k in range(1, free_threshold(s0) + 2):
            s = Setting(s0.family, k=k, p=s0.p, q=s0.q, n=s0.n)
            for sigma in iter_sigmas(s, 3):
                for t in enumerate_T(s, sigma):
                    assert in_Q_definition(s, sigma, t) == in_Q_criteria(s, sigma, t)


def test_determinant_counts():
    settings = [upq(2, 3, 0), upq(3, 3, 0), mp(3, 0), ostar(5, 0)]
    for s0 in settings:
        for k in range(1, free_threshold(s0) + 2):
            s = Setting(s0.family, k=k, p=s0.p, q=s0.q, n=s0.n)
            for sigma in iter_sigmas(s, 3):
                assert count_Q_determinant(s, sigma) == len(enumerate_Q(s, sigma))


def test_Q_monotone_in_k():
    # growing k only relaxes the constraints
    for family, params in [("upq", dict(p=2, q=3)), ("mp", dict(n=3)), ("ostar", dict(n=4))]:
        for k in range(1, 7):
            lo = Setting(family, k=k, **params)
            hi = Setting(family, k=k + 1, **params)
            for sigma in iter_sigmas(lo, 2):
                q_lo = set(enumerate_Q(lo, sigma))
                q_hi = set(enumerate_Q(hi, sigma))
                assert q_lo <= q_hi, (family, k, sigma)


def test_collapse_boundaries():
    for s0 in [upq(2, 3, 0), mp(3, 0), ostar(4, 0)]:
        r, s_thr = real_rank(s0), free_threshold(s0)
        for k in list(range(1, r + 1)) + [s_thr, s_thr + 1]:
            s = Setting(s0.family, k=k, p=s0.p, q=s0.q, n=s0.n)
            for sigma in iter_sigmas(s, 2):
                report = q_collapse_check(s, sigma)
                assert report["ok"], (s, sigma, report)


def _count_Q_mp_by_first_columns(n, k, sigma):
    """#Q_k(sigma) for mp as a sum over every first column C, a c1-subset of
    [n-k+1, n] with entries >= 1, of one c2 x c2 determinant whose column j
    has the flag a_j = max(C_j, L_j), L the rest of the interval."""
    conj = conjugate(sigma)
    c1 = conj[0] if len(conj) >= 1 else 0
    c2 = conj[1] if len(conj) >= 2 else 0
    interval = list(range(n - k + 1, n + 1))
    total = 0
    for comb in itertools.combinations(range(max(1, n - k + 1), n + 1), c1):
        leftover = sorted(set(interval) - set(comb))
        mat = []
        for i in range(1, c2 + 1):
            row = []
            for j in range(1, c2 + 1):
                a_j = max(comb[j - 1], leftover[j - 1])
                e = sigma[i - 1] - i + j - 1
                row.append(binomial(e + n - a_j, e))
            mat.append(row)
        total += determinant(mat)
    return total


def test_mp_scan_matches_first_column_sum():
    # every admissible label of size <= 9, over all three regimes
    cases = 0
    for n in range(1, 9):
        for k in range(1, 2 * n + 3):
            s = mp(n, k)
            for sigma in iter_sigmas(s, 9):
                assert count_Q_determinant(s, sigma) == _count_Q_mp_by_first_columns(n, k, sigma), (n, k, sigma)
                cases += 1
    assert cases == 4934


@st.composite
def mp_labels(draw):
    n = draw(st.integers(1, 8))
    regime = draw(st.sampled_from(["k<=r", "r<k<s", "k>=s"]))
    if regime == "k<=r":
        k = draw(st.integers(1, n))
    elif regime == "r<k<s":
        assume(n >= 3)
        k = draw(st.integers(n + 1, 2 * n - 2))
    else:
        k = draw(st.integers(2 * n - 1, 2 * n + 2))
    sigma = tuple(sorted(draw(st.lists(st.integers(1, 5), max_size=min(n, k))), reverse=True))
    setting = mp(n, k)
    assume(sigma_admissible(setting, sigma) == IN_SIGMA)
    assume(dim_F_lambda(setting, sigma) <= 5000)
    return setting, sigma


@settings(max_examples=100, deadline=None)
@given(mp_labels())
def test_mp_scan_matches_enumeration(label):
    setting, sigma = label
    assert count_Q_determinant(setting, sigma) == len(enumerate_Q(setting, sigma))


def test_mp_scan_pinned():
    # k <= r: the dimension of the O_k irrep labeled by sigma
    assert count_Q_determinant(mp(24, 18), (2,) * 9) == 81_662_152
    assert count_Q_determinant(mp(28, 22), (3,) * 9) == 230_925_065_751_380
    # the metaplectic window: counted from the defining inequalities
    assert count_Q_determinant(mp(10, 14), (4, 3, 3, 2, 2, 1)) == 14_147_550
    assert count_Q_determinant(mp(12, 16), (3, 3, 3, 2, 2, 2, 1)) == 46_998_016


def _alpha_literal(setting, T, i):
    """alpha_i(T) transcribed from the docstring of dualpair.alpha."""
    k = setting.k
    if setting.family == "upq":
        t_plus, t_minus = T
        return sum(1 for x in t_plus.column(1) if x < setting.q - k + i) + sum(
            1 for y in t_minus.column(1) if y < setting.p - k + i
        )
    if setting.family == "mp":
        return sum(1 for x in T.column(1) + T.column(2) if x < setting.n - k + i)
    return sum(1 for x in T.column(1) if x < setting.n - 1 - 2 * k + 2 * i)


def _check_definition(setting, sigma):
    """in_Q_definition and alpha against the transcription on every tableau
    of sigma: T is in Q_k(sigma) iff alpha_i(T) < i for k - r < i <= k."""
    k, r = setting.k, real_rank(setting)
    tableaux = enumerate_T(setting, sigma)
    for T in tableaux:
        literal = [_alpha_literal(setting, T, i) for i in range(1, k + 1)]
        assert [alpha(setting, T, i) for i in range(1, k + 1)] == literal, (setting, sigma, T)
        member = all(literal[i - 1] < i for i in range(1, k + 1) if i > k - r)
        assert in_Q_definition(setting, sigma, T) == member, (setting, sigma, T)
    return len(tableaux)


# (setting, sigma, T) triples the exhaustive sweep below visits, pinned so the
# sweep cannot shrink unnoticed
CASES_UP_TO_4 = 72_219


def test_in_Q_definition_matches_transcription():
    settings_ = (
        [upq(p, q, k) for p in range(1, 5) for q in range(1, 5) for k in range(1, p + q + 2)]
        + [mp(n, k) for n in range(1, 6) for k in range(1, 2 * n + 3)]
        + [ostar(n, k) for n in range(1, 9) for k in range(1, n + 2)]
    )
    cases = sum(_check_definition(s, sigma) for s in settings_ for sigma in iter_sigmas(s, 4))
    assert cases == CASES_UP_TO_4


@st.composite
def larger_labels(draw):
    """A dual-pair setting from wider ranges than the exhaustive test's and
    one of its labels of size at most 6, with dim F_lambda <= 5000."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        setting = upq(p, q, draw(st.integers(1, p + q + 1)))
    elif family == "mp":
        n = draw(st.integers(1, 8))
        setting = mp(n, draw(st.integers(1, 2 * n + 2)))
    else:
        n = draw(st.integers(1, 14))
        setting = ostar(n, draw(st.integers(1, n + 1)))
    sigmas = list(iter_sigmas(setting, 6))
    assume(sigmas)
    sigma = draw(st.sampled_from(sigmas))
    assume(dim_F_lambda(setting, sigma) <= 5000)
    return setting, sigma


@settings(max_examples=60, deadline=None)
@given(larger_labels())
def test_in_Q_definition_matches_transcription_larger(case):
    _check_definition(*case)


def _count_Q_full_k(setting, sigma):
    """#Q_k(sigma) at the setting's own k: the k x k lattice-path determinant
    for upq and ostar, the scan of [n-k+1, n] for mp, never moved to a
    smaller k in the free range."""
    if sigma_admissible(setting, sigma) != IN_SIGMA:
        raise ValueError("sigma is not an admissible nonzero label")
    sigma = normalize_sigma(setting, sigma)
    k = setting.k
    if setting.family == UPQ:
        plus, minus = sigma
        p, q = setting.p, setting.q
        if p > q:
            p, q = q, p
            plus, minus = minus, plus
        r, big = p, q
        minus1 = minus[0] if minus else 0
        # the weakly decreasing k-tuple: plus parts, zeros, negated reversed minus
        full = list(plus) + [0] * (k - len(plus) - len(minus)) + [-x for x in reversed(minus)]
        mat = []
        for i in range(1, k + 1):
            row = []
            for j in range(1, k + 1):
                c = 0 if j <= k - r else minus1
                d = -1 + (big if j <= k - r else min(k, r))
                e = full[i - 1] - i + j + c
                row.append(binomial(e + d, e))
            mat.append(row)
        return determinant(mat)
    if setting.family == MP:
        return _count_Q_mp(setting.n, k, sigma)
    # ostar
    n = setting.n
    full = pad(sigma, k)
    mat = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            a_j = max(1, n + 2 * (j - k) - 1)
            e = full[i - 1] - i + j
            row.append(binomial(e + n - a_j, e))
        mat.append(row)
    return determinant(mat)


def test_free_range_matches_full_k_determinant():
    # k >= s: the count at k' equals the full k x k determinant (the k-scan
    # for mp) and dim F_lambda, for k up to s + 12
    cases = 0
    settings_ = (
        [upq(p, q, 0) for p in range(1, 5) for q in range(1, 5)]
        + [mp(n, 0) for n in range(1, 6)]
        + [ostar(n, 0) for n in range(2, 9)]
    )
    for s0 in settings_:
        s_thr = free_threshold(s0)
        for k in range(s_thr, s_thr + 13):
            s = Setting(s0.family, k=k, p=s0.p, q=s0.q, n=s0.n)
            for sigma in iter_sigmas(s, 6):
                got = count_Q_determinant(s, sigma)
                assert got == _count_Q_full_k(s, sigma) == dim_F_lambda(s, sigma), (s, sigma)
                cases += 1
    assert cases == 21_482


def _perfbench_refs():
    """perfbench/refs.py, which computes dim F_lambda without dualdeg."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "refs.py"
    spec = importlib.util.spec_from_file_location("perfbench_refs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_free_range_at_benchmark_sizes():
    refs = _perfbench_refs()
    pinned = [
        (upq(3, 4, 30), ((7, 2), (4, 1)), 12_960),
        (upq(4, 4, 25), ((5, 1), (6, 2)), 50_400),
        (ostar(6, 30), (9, 4, 1), 244_608),
        (ostar(7, 25), (8, 4, 2), 1_513_512),
        (mp(5, 30), (9, 4, 1), 32_760),
    ]
    for setting, big, expected in pinned:
        params = dict(p=setting.p, q=setting.q, n=setting.n)
        for sigma in [big] + list(iter_sigmas(setting, 6)):
            got = count_Q_determinant(setting, sigma)
            assert got == _count_Q_full_k(setting, sigma), (setting, sigma)
            assert got == refs.dim_F(setting.family, sigma, **params), (setting, sigma)
        assert count_Q_determinant(setting, big) == expected


def test_free_range_boundary():
    # labels first admissible at k = s + 1: not admissible at s, then counted
    # at k' = s + 1 for every larger k
    for s0, sigma in [
        (upq(2, 3, 0), ((2, 1, 1), (2, 1))),
        (mp(3, 0), (3, 2, 2)),
        (ostar(5, 0), (2, 2, 1, 1, 1)),
    ]:
        s_thr = free_threshold(s0)
        at = lambda k: Setting(s0.family, k=k, p=s0.p, q=s0.q, n=s0.n)
        assert sigma_admissible(at(s_thr), sigma) == NOT_IN_HHAT
        with pytest.raises(ValueError):
            count_Q_determinant(at(s_thr), sigma)
        expected = dim_F_lambda(at(s_thr + 1), sigma)
        for k in (s_thr + 1, s_thr + 2, s_thr + 7):
            assert dualpair._evaluation_k(at(k), sigma) == s_thr + 1
            assert count_Q_determinant(at(k), sigma) == _count_Q_full_k(at(k), sigma) == expected
    # a label admissible at s is counted at k below s and at s from s on
    sigma = ((2, 1), (1,))
    assert [dualpair._evaluation_k(upq(2, 3, k), sigma) for k in range(3, 8)] == [3, 4, 4, 4, 4]



def test_enumerate_Q_interleaved_settings_keep_their_own_test():
    # the membership test is cached per setting: settings that differ only in
    # k, or in p versus q, called in turn, each filter T by their own bounds
    labels = {"upq": ((1, 1), ()), "mp": (2,), "ostar": (1, 1)}
    settings_ = (
        [upq(3, 5, k) for k in range(2, 7)]
        + [upq(5, 3, k) for k in range(2, 7)]
        + [mp(4, k) for k in range(2, 7)]
        + [ostar(7, k) for k in range(2, 6)]
    )
    order = settings_[::2] + settings_[1::2] + settings_[::-1]
    for setting in order:
        sigma = labels[setting.family]
        k, r = setting.k, real_rank(setting)
        tableaux = enumerate_T(setting, sigma)
        assert tableaux, setting
        want = [
            T for T in tableaux
            if all(_alpha_literal(setting, T, i) < i for i in range(max(1, k - r + 1), k + 1))
        ]
        assert enumerate_Q(setting, sigma) == want, setting
