"""The three dual-pair settings, admissibility, and Q_k(sigma)."""

import bisect
import itertools
import operator
from collections import namedtuple
from functools import cache
from math import comb

from .tableaux import _flag_column, _flagged_determinant, check_partition, column_classes, conjugate, enumerate_ssyt, refuse

# Family tags. The first three are the dual-pair settings; the rest are the
# additional Hermitian types that only carry diagram/Hilbert-series data.
UPQ = "upq"
MP = "mp"
OSTAR = "ostar"
SO_EVEN = "so-even"
SO_ODD = "so-odd"
E6 = "e6"
E7 = "e7"

# sigma_admissible results
NOT_IN_HHAT = "not-in-hhat"
IN_HHAT_NOT_SIGMA = "in-hhat-not-sigma"
IN_SIGMA = "in-sigma"


class Family(namedtuple("Family", "flags least rank dim_p_plus threshold edges step runs",
                        defaults=(None, None, 0, None))):
    """The fixed data of one Hermitian family: flags, the shape fields of
    Setting it reads, each at least least; rank and dim_p_plus, r and the
    number of positive noncompact roots as functions of a setting.  The dual
    pairs also carry threshold, the free threshold s; edges, the edges (a, b)
    of D_0; and step, by which both edges of D_k fall per unit of k.  The
    others carry runs, D_0 as (row, first column, last column) runs, one per row."""

    __slots__ = ()


# so-even n is so(2, 2n-2) and so-odd n is so(2, 2n-1).  so(2, 2) is not
# simple, and for so(2, 1), which is mp(1), the so-odd D_0 would put a box in
# column 0.
FAMILIES = {
    UPQ: Family(flags=("p", "q"), least=1, rank=lambda s: min(s.p, s.q), dim_p_plus=lambda s: s.p * s.q,
                threshold=lambda s: s.p + s.q - 1, edges=lambda s: (s.p, s.q), step=1),
    MP: Family(flags=("n",), least=1, rank=lambda s: s.n, dim_p_plus=lambda s: s.n * (s.n + 1) // 2,
               threshold=lambda s: 2 * s.n - 1, edges=lambda s: (s.n, s.n), step=1),
    OSTAR: Family(flags=("n",), least=1, rank=lambda s: s.n // 2, dim_p_plus=lambda s: s.n * (s.n - 1) // 2,
                  threshold=lambda s: s.n - 1, edges=lambda s: (s.n - 1, s.n - 1), step=2),
    SO_EVEN: Family(flags=("n",), least=3, rank=lambda s: 2, dim_p_plus=lambda s: 2 * s.n - 2,
                    runs=lambda s: [(1, 1, s.n - 1), (2, s.n - 2, s.n - 1)]
                    + [(r, s.n - 1, s.n - 1) for r in range(3, s.n)]),
    # D_0 has n + 1 boxes while dim p+ = 2n - 1 (the B_n roots form a chain);
    # as r = 2, only its D_1 and D_2 are read, which diagrams.diagram_D writes down
    SO_ODD: Family(flags=("n",), least=2, rank=lambda s: 2, dim_p_plus=lambda s: 2 * s.n - 1,
                   runs=lambda s: [(1, 1, s.n), (2, s.n - 1, s.n - 1)]),
    E6: Family(flags=(), least=0, rank=lambda s: 2, dim_p_plus=lambda s: 16,
               runs=lambda s: [(1, 1, 5), (2, 3, 5), (3, 4, 6), (4, 4, 8)]),
    E7: Family(flags=(), least=0, rank=lambda s: 3, dim_p_plus=lambda s: 27,
               runs=lambda s: [(1, 1, 6), (2, 4, 6), (3, 5, 7), (4, 5, 9), (5, 5, 9), (6, 8, 9),
                               (7, 9, 9), (8, 9, 9), (9, 9, 9)]),
}
ALL_FAMILIES = tuple(FAMILIES)
DUAL_PAIR_FAMILIES = tuple(f for f in ALL_FAMILIES if FAMILIES[f].step)


class Setting(namedtuple("Setting", "family k p q n", defaults=(0, 0, 0, 0))):
    """One Hermitian family with its parameters and the dual-pair rank k; unread shape fields are 0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        family = FAMILIES[self.family]
        for field, value in zip(self._fields[2:], self[2:]):  # the shape fields p, q, n
            if field not in family.flags:
                if value:
                    raise ValueError(f"{self.family} takes no {field}")
            elif value < family.least:
                raise ValueError(f"{self.family} needs {', '.join(family.flags)} >= {family.least}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        return self

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)


def upq(p, q, k):
    return Setting(UPQ, k=k, p=p, q=q)


def mp(n, k):
    return Setting(MP, k=k, n=n)


def ostar(n, k):
    return Setting(OSTAR, k=k, n=n)


def real_rank(setting):
    """The real rank r of the family."""
    return FAMILIES[setting.family].rank(setting)


def free_threshold(setting):
    """The threshold s beyond which every module in the family is free."""
    threshold = FAMILIES[setting.family].threshold
    if threshold is None:
        raise ValueError(f"free threshold undefined for family {setting.family!r}")
    return threshold(setting)


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


def _least_k(setting, sigma):
    """The least k at which a label normalize_sigma has returned lies in the
    label set of H(k): l(sigma+) + l(sigma-) for upq, c1 + c2 for mp and
    l(sigma) for ostar."""
    if setting.family == UPQ:
        return len(sigma[0]) + len(sigma[1])
    if setting.family == MP:
        return sum(conjugate(sigma)[:2])
    return len(sigma)


def _classify(setting, sigma):
    """sigma_admissible of a label normalize_sigma has returned."""
    if _least_k(setting, sigma) > setting.k:
        return NOT_IN_HHAT
    if setting.family == UPQ:
        plus, minus = sigma
        in_big = len(plus) <= setting.q and len(minus) <= setting.p
    else:
        in_big = len(sigma) <= setting.n
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
        return list(itertools.product(enumerate_ssyt(plus, setting.q), enumerate_ssyt(minus, setting.p)))
    return list(enumerate_ssyt(sigma, setting.n))


@cache
def _alpha_keys(setting):
    """(keys, step, base): keys is the function of T that lists the entries
    alpha counts, sorted, and an entry counts toward alpha_i exactly when it
    is below step * i + base.  For upq each entry y of T- is moved by q - p,
    since y < p - k + i exactly when y + q - p < q - k + i."""
    k = setting.k
    if setting.family == UPQ:
        shift = setting.q - setting.p

        def keys(T):
            t_plus, t_minus = T
            return sorted([row[0] for row in t_plus] + [row[0] + shift for row in t_minus])

        return keys, 1, setting.q - k
    if setting.family == MP:

        def keys(T):
            return sorted([x for row in T for x in row[:2]])

        return keys, 1, setting.n - k
    # ostar: the first column strictly increases, so it is its own sorted keys
    return _first_column, 2, setting.n - 1 - 2 * k


def alpha(setting, T, i):
    """The count of small initial-column entries entering the i-th constraint:
    for upq, the entries x of the first column of T+ with x < q - k + i plus
    the entries y of the first column of T- with y < p - k + i; for mp, the
    entries x of the first two columns of T with x < n - k + i; for ostar,
    the entries x of the first column of T with x < n - 1 - 2k + 2i."""
    keys, step, base = _alpha_keys(setting)
    return bisect.bisect_left(keys(T), step * i + base)


@cache
def _q_test(setting):
    """Membership in Q_k(sigma) as a predicate on T, for every label of the
    setting: the constraints alpha_i(T) < i for k - r < i <= k.  On the
    sorted keys, alpha_i(T) >= i exactly when keys[i-1] is below the bound
    of constraint i, so each constraint is one comparison; one with i above
    the number of keys holds, as the slice of keys stops there."""
    k = setting.k
    low = max(1, k - real_rank(setting) + 1)
    keys_of, step, base = _alpha_keys(setting)
    bounds = range(step * low + base, step * k + base + 1, step)

    def test(T):
        return all(map(operator.ge, keys_of(T)[low - 1 : k], bounds))

    return test


def in_Q_definition(setting, sigma, T):
    """Membership in Q_k(sigma) straight from the defining constraints
    alpha_i(T) < i for k - r < i <= k.  The columns of T are read once and
    the constraints are compared in turn up to the first that fails; the
    test depends on the setting alone.
    It reads only the first columns of T+ and T- (upq), the first two
    columns of T (mp) or the first column of T (ostar), so enumerate_Q
    applies it once per class of tableaux that agree on those columns."""
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


def _in_Q_criteria(setting, sigma, T):
    """Membership in Q_k(sigma) via the explicit case-by-case criterion, for
    sigma as normalize_sigma returns it."""
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
        leftover = sorted(set(interval) - set(T.column(1)))
        conj = conjugate(sigma)
        c2 = conj[1] if len(conj) >= 2 else 0
        for j in range(1, c2 + 1):
            if T.entry(j, 2) < leftover[j - 1]:
                return False
        return True
    # ostar
    n, ell = setting.n, len(sigma)
    return all(T.entry(j, 1) >= n + 2 * (j - k) - 1 for j in range(1, ell + 1))


def _first_column(T):
    return tuple([row[0] for row in T])


def _first_two_columns(T):
    return tuple([row[:2] for row in T])


def enumerate_Q(setting, sigma):
    """All elements of Q_k(sigma), in the base enumeration order.

    Membership is decided by the definition, _q_test(setting), once per
    column class, and every T of the class shares that verdict.  The class
    of T is what _alpha_keys reads of it, so the grouping is exact: the
    first columns of T+ and T- for upq, the first two columns of T for mp,
    the first column of T for ostar.  For upq the T- are grouped by their
    first column too, and each T+ takes its passing T- in the order of
    itertools.product(T+, T-), without building that product."""
    sigma = normalize_sigma(setting, sigma)
    if _classify(setting, sigma) != IN_SIGMA:
        return []
    test = _q_test(setting)
    out = []
    if setting.family == UPQ:
        plus, minus = sigma
        minus_list = enumerate_ssyt(minus, setting.p)
        minus_keys = [_first_column(t_minus) for t_minus in minus_list]
        minus_reps = dict(zip(minus_keys, minus_list))
        passing = {}  # first column of T+ -> the T- that pass with it
        for t_plus in enumerate_ssyt(plus, setting.q):
            key = _first_column(t_plus)
            kept = passing.get(key)
            if kept is None:
                ok = {km: test((t_plus, t_minus)) for km, t_minus in minus_reps.items()}
                kept = passing[key] = [t for t, km in zip(minus_list, minus_keys) if ok[km]]
            out.extend([(t_plus, t_minus) for t_minus in kept])
        return out
    key_of = _first_two_columns if setting.family == MP else _first_column
    verdict = {}
    for T in enumerate_ssyt(sigma, setting.n):
        key = key_of(T)
        ok = verdict.get(key)
        if ok is None:
            ok = verdict[key] = test(T)
        if ok:
            out.append(T)
    return out


def _T_classes(setting, sigma):
    """T(sigma) by column class, for a label nonzero_label has returned: a
    sequence of (key, size) in the order of _enumerate_T.  The key is the
    head its tableaux share, their first column (first two for mp), or the
    pair of heads of T+ and T- for upq, whose size is the product a * b of
    the two class sizes.  A head is a Tableau, so every predicate that reads
    no more of T than its head, as _q_test and _in_Q_criteria do, takes the
    key for each T of its class."""
    if setting.family == UPQ:
        plus, minus = sigma
        minus_classes = column_classes(minus, setting.p, 1)
        return [((kp, km), a * b) for kp, a in column_classes(plus, setting.q, 1) for km, b in minus_classes]
    return column_classes(sigma, setting.n, 2 if setting.family == MP else 1)


def count_Q_enumeration(setting, sigma):
    """len(enumerate_Q(setting, sigma)), listing only the class heads: the
    definition, _q_test(setting), decides each column class of T(sigma),
    _T_classes, once, and tableaux.column_classes sizes the class by one
    flagged determinant of the rest of its tableaux.  Each T has _least_k
    keys, and a constraint with i above that number holds, so where the
    window (max(0, k - r), min(k, _least_k)] is empty every class is
    admitted untested."""
    sigma = normalize_sigma(setting, sigma)
    if _classify(setting, sigma) != IN_SIGMA:
        return 0
    classes = _T_classes(setting, sigma)
    k = setting.k
    if max(0, k - real_rank(setting)) >= min(k, _least_k(setting, sigma)):
        return sum(size for _, size in classes)
    test = _q_test(setting)
    return sum(size for key, size in classes if test(key))


# The (state, row-mask) pairs _count_Q_mp's scan may hold, summed over its
# steps, above which it refuses.  A pair costs 5-7.5 us: random 18-20 row
# labels at a bound of 4.7e5-4.9e5 took 2.4-3.5 s on one core of an x86 VM
# under Python 3.11, and the staircase (c+1, ..., 2) at c = 18 (2.3e5) 0.37 s.
_MP_SCAN_PAIRS = 5 * 10**5


def _count_Q_mp(n, k, sigma):
    """#Q_k(sigma) for mp: a sum over first columns C of the interval
    I = [n-k+1, n] of c2 x c2 path determinants whose column j has the flag
    a_j = max(C_j, L_j), L = I minus C, evaluated as one scan of I.  Each is
    _flagged_determinant of sigma less its first column, rows 1..c2, with
    widths n + 1 - a_j, and the scan builds column j of it at a_j.

    Each v in I joins C (only if v >= 1) or L; the state is (#C, #L) so far.
    a_j is the v at which min(#C, #L) reaches j, so column j is wedged in at
    that step.  A state holds its exterior-power vector as a map from the
    bitmask of rows used to an integer coefficient; the determinant is the
    full-mask coefficient at (c1, k - c1).

    Before the scan it bounds the pairs of a state and a mask, summed over
    the steps, and raises ValueError above _MP_SCAN_PAIRS.  A state (x, y)
    has wedged m = min(x, y, c2) columns; column j reads only the rows i
    (from 0) with sigma_i - i + j - 2 >= 0, the first u_j rows, so the state
    holds at most C(u_m, m) masks.
    """
    conj = conjugate(sigma)
    c1 = conj[0] if len(conj) >= 1 else 0
    c2 = conj[1] if len(conj) >= 2 else 0
    bound = -1  # the start state (0, 0) is not counted
    for m in range(min(c1, k - c1) + 1):  # k - 2m + 1 states (x, y) have min(x, y) = m
        j = min(m, c2)
        bound += comb(sum(sigma[i] - i + j - 2 >= 0 for i in range(c2)), j) * (k - 2 * m + 1)
    refuse("mp path-scan bound", bound, _MP_SCAN_PAIRS)
    diffs = [sigma[i] - 1 - i for i in range(c2)]  # rows 1..c2 of sigma less its first column
    states = {(0, 0): {0: 1}}
    for v in range(n - k + 1, n + 1):
        nxt = {}
        for (x, y), vec in states.items():
            for x2, y2 in ((x + 1, y), (x, y + 1)):
                if x2 > c1 or y2 > k - c1 or (x2 > x and v < 1):
                    continue
                j = min(x2, y2)
                if min(x, y) < j <= c2:
                    col = _flag_column(diffs, j - 1, n + 1 - v)  # flag a_j = v
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
    The least admissible k (_least_k) is at most p+q, 2n and n respectively,
    and so is k'.
    """
    k, s = setting.k, free_threshold(setting)
    if k <= s:
        return k
    return max(s, _least_k(setting, sigma))


def count_Q_determinant(setting, sigma):
    """#Q_k(sigma) via the family-specific nonintersecting-path determinant,
    evaluated at k' = _evaluation_k(setting, sigma), whose count is the same:
    _flagged_determinant for upq and ostar, the scan of _count_Q_mp for mp."""
    sigma = nonzero_label(setting, sigma)
    k = _evaluation_k(setting, sigma)
    if setting.family == UPQ:
        plus, minus = sigma
        p, q = setting.p, setting.q
        if p > q:
            p, q = q, p
            plus, minus = minus, plus
        # the k-tuple (sigma+, zeros, -reversed sigma-); width q and shift 0 on the
        # (k - p)+ free columns, width min(k, p) and shift sigma-_1 on the rest
        full = list(plus) + [0] * (k - len(plus) - len(minus)) + [-x for x in reversed(minus)]
        free, shift = max(k - p, 0), (minus[0] if minus else 0)
        return _flagged_determinant(full, [q] * free + [min(k, p)] * (k - free), [0] * free + [shift] * (k - free))
    if setting.family == MP:
        return _count_Q_mp(setting.n, k, sigma)
    # the rows of sigma alone: the zero rows of pad(sigma, k) add an upper unitriangular block
    n = setting.n
    return _flagged_determinant(sigma, [n + 1 - max(1, n + 2 * (j - k) - 1) for j in range(1, len(sigma) + 1)],
                                [0] * len(sigma))
