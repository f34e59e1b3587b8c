"""The three dual-pair settings, admissibility, and Q_k(sigma)."""

import bisect
import itertools
from dataclasses import dataclass
from functools import cache

from .tableaux import (
    Tableau,
    binomial,
    check_partition,
    conjugate,
    determinant,
    enumerate_ssyt,
    pad,
)

# Family tags. The first three are the dual-pair settings; the rest are the
# additional Hermitian types that only carry diagram/Hilbert-series data.
UPQ = "upq"
MP = "mp"
OSTAR = "ostar"
SO_EVEN = "so-even"
SO_ODD = "so-odd"
E6 = "e6"
E7 = "e7"

DUAL_PAIR_FAMILIES = (UPQ, MP, OSTAR)
ALL_FAMILIES = (UPQ, MP, OSTAR, SO_EVEN, SO_ODD, E6, E7)

# The default --limit: the largest set an oracle or a listing check enumerates.
DEFAULT_LIMIT = 5000

# sigma_admissible results
NOT_IN_HHAT = "not-in-hhat"
IN_HHAT_NOT_SIGMA = "in-hhat-not-sigma"
IN_SIGMA = "in-sigma"


@dataclass(frozen=True)
class Setting:
    """One Hermitian family with its parameters and the dual-pair rank k."""

    family: str
    k: int = 0
    p: int = 0
    q: int = 0
    n: int = 0

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == UPQ and (self.p < 1 or self.q < 1):
            raise ValueError("upq needs p, q >= 1")
        if self.family in (MP, OSTAR, SO_EVEN, SO_ODD) and self.n < 1:
            raise ValueError(f"{self.family} needs n >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")


def upq(p, q, k):
    return Setting(UPQ, k=k, p=p, q=q)


def mp(n, k):
    return Setting(MP, k=k, n=n)


def ostar(n, k):
    return Setting(OSTAR, k=k, n=n)


def real_rank(setting):
    """The real rank r of the family."""
    f = setting.family
    if f == UPQ:
        return min(setting.p, setting.q)
    if f == MP:
        return setting.n
    if f == OSTAR:
        return setting.n // 2
    if f in (SO_EVEN, SO_ODD):
        return 2
    if f == E6:
        return 2
    return 3  # E7


def free_threshold(setting):
    """The threshold s beyond which every module in the family is free."""
    f = setting.family
    if f == UPQ:
        return setting.p + setting.q - 1
    if f == MP:
        return 2 * setting.n - 1
    if f == OSTAR:
        return setting.n - 1
    raise ValueError(f"free threshold undefined for family {f!r}")


def normalize_sigma(setting, sigma):
    """Validate sigma: a pair of partitions for upq, else a single partition."""
    if setting.family == UPQ:
        plus, minus = sigma
        return (check_partition(plus) if plus else (), check_partition(minus) if minus else ())
    if setting.family in (MP, OSTAR):
        return check_partition(sigma) if sigma else ()
    raise ValueError(f"sigma labels only exist for dual-pair families, not {setting.family!r}")


def sigma_admissible(setting, sigma):
    """Classify sigma against the label set of H(k) and the nonzero-module set."""
    return _classify(setting, normalize_sigma(setting, sigma))


def nonzero_label(setting, sigma):
    """sigma as normalize_sigma returns it, or ValueError unless it labels a
    nonzero module (sigma_admissible is IN_SIGMA).  The public entries that
    need such a label validate it here once and hand the result on."""
    sigma = normalize_sigma(setting, sigma)
    if _classify(setting, sigma) != IN_SIGMA:
        raise ValueError("sigma is not an admissible nonzero label")
    return sigma


def _classify(setting, sigma):
    """sigma_admissible of a label normalize_sigma has returned."""
    k = setting.k
    if setting.family == UPQ:
        plus, minus = sigma
        in_hhat = len(plus) + len(minus) <= k
        in_big = len(plus) <= setting.q and len(minus) <= setting.p
    elif setting.family == MP:
        conj = conjugate(sigma)
        c1 = conj[0] if len(conj) >= 1 else 0
        c2 = conj[1] if len(conj) >= 2 else 0
        in_hhat = c1 + c2 <= k
        in_big = len(sigma) <= setting.n
    else:  # OSTAR
        in_hhat = len(sigma) <= k
        in_big = len(sigma) <= setting.n
    if not in_hhat:
        return NOT_IN_HHAT
    return IN_SIGMA if in_big else IN_HHAT_NOT_SIGMA


def enumerate_T(setting, sigma):
    """The base tableau set attached to sigma: a list of tableaux, or of
    (T_plus, T_minus) pairs for upq, empty if sigma is not a nonzero label."""
    sigma = normalize_sigma(setting, sigma)
    if _classify(setting, sigma) != IN_SIGMA:
        return []
    return _enumerate_T(setting, sigma)


def _enumerate_T(setting, sigma):
    """enumerate_T of a label nonzero_label has returned."""
    if setting.family == UPQ:
        plus, minus = sigma
        return list(
            itertools.product(
                enumerate_ssyt(plus, setting.q), enumerate_ssyt(minus, setting.p)
            )
        )
    return list(enumerate_ssyt(sigma, setting.n))


@cache
def _alpha_keys(setting):
    """The function of T that lists the entries alpha counts, each moved by
    its i-independent offset so that it counts toward alpha_i exactly when
    its key is below i; sorted."""
    k = setting.k
    if setting.family == UPQ:
        dq, dp = k - setting.q, k - setting.p

        def keys(T):
            t_plus, t_minus = T
            return sorted(
                [row[0] + dq for row in t_plus.rows] + [row[0] + dp for row in t_minus.rows]
            )

    elif setting.family == MP:
        d = k - setting.n

        def keys(T):
            return sorted([x + d for row in T.rows for x in row[:2]])

    else:  # x < n - 1 - 2k + 2i exactly when (x - n + 1 + 2k) // 2 < i
        d = 1 + 2 * k - setting.n

        def keys(T):
            return sorted([(row[0] + d) // 2 for row in T.rows])

    return keys


def alpha(setting, T, i):
    """The count of small initial-column entries entering the i-th constraint:
    for upq, the entries x of the first column of T+ with x < q - k + i plus
    the entries y of the first column of T- with y < p - k + i; for mp, the
    entries x of the first two columns of T with x < n - k + i; for ostar,
    the entries x of the first column of T with x < n - 1 - 2k + 2i."""
    return bisect.bisect_left(_alpha_keys(setting)(T), i)


@cache
def _q_test(setting):
    """Membership in Q_k(sigma) as a predicate on T, for every label of the
    setting: the constraints alpha_i(T) < i for k - r < i <= k.  On the
    sorted keys, alpha_i(T) >= i exactly when keys[i-1] < i, so each
    constraint is one comparison; one with i above the number of keys holds."""
    k = setting.k
    low = max(1, k - real_rank(setting) + 1)
    keys_of = _alpha_keys(setting)

    def test(T):
        keys = keys_of(T)
        for i in range(low, min(k, len(keys)) + 1):
            if keys[i - 1] < i:
                return False
        return True

    return test


def in_Q_definition(setting, sigma, T):
    """Membership in Q_k(sigma) straight from the defining constraints
    alpha_i(T) < i for k - r < i <= k.  The columns of T are read once and
    every constraint is evaluated; the test depends on the setting alone."""
    return _q_test(setting)(T)


def _upq_criteria(p, q, k, sigma_big, t_big, t_small):
    """Criterion kernel for upq assuming the first block has the smaller rank:
    p <= q, t_big is the tableau with entries bounded by q."""
    bar_big_col = [x + (k - q) for x in t_big.column(1)]
    bar_small_col = [y + (k - p) for y in t_small.column(1)]
    if bar_small_col and bar_small_col[0] < 1:
        return False
    complement = sorted(set(range(1, k + 1)) - set(bar_small_col))
    for j in range(max(1, k - p + 1), len(sigma_big) + 1):
        if bar_big_col[j - 1] < complement[j - 1]:
            return False
    return True


def in_Q_criteria(setting, sigma, T):
    """Membership in Q_k(sigma) via the explicit case-by-case criterion."""
    return _in_Q_criteria(setting, normalize_sigma(setting, sigma), T)


def _in_Q_criteria(setting, sigma, T):
    """in_Q_criteria with sigma as normalize_sigma returns it."""
    k = setting.k
    if setting.family == UPQ:
        plus, minus = sigma
        t_plus, t_minus = T
        if setting.p <= setting.q:
            return _upq_criteria(setting.p, setting.q, k, plus, t_plus, t_minus)
        return _upq_criteria(setting.q, setting.p, k, minus, t_minus, t_plus)
    if setting.family == MP:
        n = setting.n
        if sigma and T.entry(1, 1) < n - k + 1:
            return False
        interval = range(n - k + 1, n + 1)
        leftover = sorted(set(interval) - T.first_column())
        conj = conjugate(sigma)
        c2 = conj[1] if len(conj) >= 2 else 0
        for j in range(1, c2 + 1):
            if T.entry(j, 2) < leftover[j - 1]:
                return False
        return True
    # ostar
    n, ell = setting.n, len(sigma)
    return all(T.entry(j, 1) >= n + 2 * (j - k) - 1 for j in range(1, ell + 1))


def enumerate_Q(setting, sigma):
    """All elements of Q_k(sigma), in the base enumeration order."""
    test = _q_test(setting)
    return [T for T in enumerate_T(setting, sigma) if test(T)]


def _count_Q_mp(n, k, sigma):
    """#Q_k(sigma) for mp: a sum over first columns C of the interval
    I = [n-k+1, n] of c2 x c2 path determinants whose column j has the flag
    a_j = max(C_j, L_j), L = I minus C, evaluated as one scan of I.

    Each v in I joins C (only if v >= 1) or L; the state is (#C, #L) so far.
    a_j is the v at which min(#C, #L) reaches j, so column j is wedged in at
    that step.  A state holds its exterior-power vector as a map from the
    bitmask of rows used to an integer coefficient; the determinant is the
    full-mask coefficient at (c1, k - c1).
    """
    conj = conjugate(sigma)
    c1 = conj[0] if len(conj) >= 1 else 0
    c2 = conj[1] if len(conj) >= 2 else 0
    states = {(0, 0): {0: 1}}
    for v in range(n - k + 1, n + 1):
        nxt = {}
        for (x, y), vec in states.items():
            for x2, y2 in ((x + 1, y), (x, y + 1)):
                if x2 > c1 or y2 > k - c1 or (x2 > x and v < 1):
                    continue
                j = min(x2, y2)
                if min(x, y) < j <= c2:
                    # column j with flag a_j = v; rows i = 1..c2
                    col = [binomial(sigma[i] - i + j - 2 + n - v, sigma[i] - i + j - 2) for i in range(c2)]
                    out = {}
                    for mask, coeff in vec.items():
                        for i, w in enumerate(col):
                            if w and not mask >> i & 1:
                                # e_i moves left past every used row below it
                                term = -coeff * w if (mask >> (i + 1)).bit_count() & 1 else coeff * w
                                out[mask | 1 << i] = out.get(mask | 1 << i, 0) + term
                else:
                    out = vec
                acc = nxt.setdefault((x2, y2), {})
                for mask, coeff in out.items():
                    acc[mask] = acc.get(mask, 0) + coeff
        states = {}
        for key, vec in nxt.items():
            vec = {mask: coeff for mask, coeff in vec.items() if coeff}
            if vec:
                states[key] = vec
    return states.get((c1, k - c1), {}).get((1 << c2) - 1, 0)


def _evaluation_k(setting, sigma):
    """The k at which count_Q_determinant evaluates #Q_k(sigma): k itself up
    to s, and max(s, the least k at which sigma is admissible) beyond it.

    For k >= s every constraint alpha_i(T) < i, k - r < i <= k, is vacuous,
    so Q_k(sigma) is all of T(sigma), which depends on sigma and p, q, n
    only; both k and k' then count the same set.  A column's entries are
    distinct and >= 1, so for k >= s:
    - upq (s = p+q-1): alpha_i(T) <= max(0, min(i-p, q-1))
      + max(0, min(i-q, p-1)) < i;
    - mp (s = 2n-1): a value fills at most two cells of the first two
      columns, so alpha_i(T) <= max(0, min(2(i-n), 2n-2)) < i;
    - ostar (s = n-1): alpha_i(T) <= max(0, n-2-2k+2i) <= max(0, 2i-k-1) < i.
    The least admissible k is l(sigma+) + l(sigma-) for upq, c1 + c2 for mp
    and l(sigma) for ostar, so k' is at most p+q, 2n and n respectively.
    """
    k, s = setting.k, free_threshold(setting)
    if k <= s:
        return k
    if setting.family == UPQ:
        least = len(sigma[0]) + len(sigma[1])
    elif setting.family == MP:
        conj = conjugate(sigma)
        least = sum(conj[:2])
    else:  # OSTAR
        least = len(sigma)
    return max(s, least)


def count_Q_determinant(setting, sigma):
    """#Q_k(sigma) via the family-specific nonintersecting-path determinant,
    evaluated at k' = _evaluation_k(setting, sigma), whose count is the same."""
    sigma = nonzero_label(setting, sigma)
    k = _evaluation_k(setting, sigma)
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


def q_collapse_check(setting, sigma, limit=DEFAULT_LIMIT):
    """Check the boundary collapses of #Q_k(sigma).

    For k <= r it must equal the dimension of the H(k)-irrep labeled by sigma;
    for k >= s, Q_k(sigma) is the whole base tableau set and its size is the
    dimension of the K-irrep with the attached highest weight.  The check
    lists the dim F_lambda tableaux of T(sigma); above limit it raises
    ValueError instead, naming that size.
    """
    from . import repdims

    sigma = nonzero_label(setting, sigma)
    t_size = repdims._dim_F(setting, sigma)
    if t_size > limit:
        raise ValueError(f"dim F_lambda={t_size} > limit {limit}")
    k, r, s = setting.k, real_rank(setting), free_threshold(setting)
    q_list = enumerate_Q(setting, sigma)
    report = {"k": k, "r": r, "s": s, "q_count": len(q_list)}
    if k <= r:
        expected = repdims._dim_U(setting, sigma)
        report.update(regime="k<=r", expected=expected, ok=len(q_list) == expected)
    elif k >= s:
        full = _enumerate_T(setting, sigma)
        report.update(
            regime="k>=s",
            expected=t_size,
            ok=q_list == full and len(q_list) == t_size,
        )
    else:
        report.update(regime="interpolation range, no collapse asserted", ok=True)
    return report
