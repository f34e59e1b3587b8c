"""Diagrams D_k for the seven Hermitian types, bounded plane partitions,
product counting formulas, and Hilbert-series numerators: a transfer over
level fillings, or for the dual pairs packed determinants where the level
work would exceed a multiple of the determinants' size cubed."""

from collections import namedtuple
from functools import cache, lru_cache
from math import comb
from operator import itemgetter, le
from types import MappingProxyType

from .dualpair import DUAL_PAIR_FAMILIES, FAMILIES, MP, OSTAR, SO_EVEN, SO_ODD, UPQ, real_rank
from .tableaux import IntPolynomial, binomial, determinant, exact_quotient, refuse


def normalize(boxes):
    """Shift a box set so its minimal row and column are 1."""
    boxes = frozenset(boxes)
    if not boxes:
        return boxes
    dr = min(r for r, _ in boxes) - 1
    dc = min(c for _, c in boxes) - 1
    return frozenset((r - dr, c - dc) for r, c in boxes)


def interior(boxes):
    """Boxes having a box of the diagram directly to their southwest,
    renormalized to the origin."""
    return normalize(_southwest_interior(frozenset(boxes)))


def _southwest_interior(boxes):
    """interior without the renormalization; its test reads only the
    difference of two boxes, so translating the boxes commutes with it."""
    return frozenset((r, c) for r, c in boxes if (r + 1, c - 1) in boxes)


def rectangle(rows, cols):
    if rows <= 0 or cols <= 0:
        return frozenset()
    return frozenset((r, c) for r in range(1, rows + 1) for c in range(1, cols + 1))


def staircase(n):
    """Left-justified rows of lengths n, n-1, ..., 1."""
    return frozenset((r, c) for r in range(1, n + 1) for c in range(1, n - r + 2))


def shifted_staircase(n):
    """Row i occupies columns i through n, for i = 1..n."""
    return frozenset((r, c) for r in range(1, n + 1) for c in range(r, n + 1))


def _dual_pair_shape(setting, k):
    """The shape of D_k for the three dual-pair types, (family, a, b): the
    edges of D_0 less step * k, clipped at 0.  D_k is the a x b rectangle
    for upq, staircase(a) for mp and shifted_staircase(a) for ostar, b = a."""
    family = FAMILIES[setting.family]
    if not family.step:
        raise ValueError(f"no closed form for family {setting.family!r}")
    (a, b), fall = family.edges(setting), family.step * k
    return setting.family, max(a - fall, 0), max(b - fall, 0)


def _level_work(setting, k):
    """#filters * |D_k| * k, the work the level transfer reads, for the three
    dual-pair types from the shape of D_k, without its boxes: the a x b
    rectangle has C(a+b, a) filters, staircase(a) has 2^a and
    shifted_staircase(a) the Catalan number C(2a+2, a+1) / (a+2)."""
    f, a, b = _dual_pair_shape(setting, k)
    if f == UPQ:
        return binomial(a + b, a) * a * b * k
    filters = 2**a if f == MP else binomial(2 * a + 2, a + 1) // (a + 2)
    return filters * a * (a + 1) // 2 * k


@cache
def diagram_D(setting, k):
    """D_k, the k-fold interior of D_0, a frozenset of boxes: the closed form
    for the dual pairs, built in O(|D_k|) from the shape _dual_pair_shape
    reads, and for so at k >= 1, else k interior passes over the D_0 that
    the family record's runs lay out; cached, and immutable so that no
    caller can change the cached copy."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if setting.family in DUAL_PAIR_FAMILIES:
        f, a, b = _dual_pair_shape(setting, k)
        if f == UPQ:
            return rectangle(a, b)
        return staircase(a) if f == MP else shifted_staircase(a)
    if setting.family in (SO_EVEN, SO_ODD) and k:
        # r = 2: D_1 is the box (1, n - 1) of D_0, (1, n) for so-odd, and D_2 is empty
        return frozenset({(1, 1)} if k == 1 else ())
    runs = FAMILIES[setting.family].runs(setting)
    boxes = frozenset((r, c) for r, first, last in runs for c in range(first, last + 1))
    for _ in range(min(k, len(boxes))):  # each pass drops the last row: D_k is empty from k = |D_0|
        boxes = _southwest_interior(boxes)
    return normalize(boxes)


def dim_p_plus(setting):
    """Number of positive noncompact roots of the Hermitian type."""
    return FAMILIES[setting.family].dim_p_plus(setting)


class PlanePartition(namedtuple("PlanePartition", "diagram entries")):
    """A filling of a diagram with entries in [0, k], weakly increasing left
    to right within rows and bottom to top within columns.  entries is a
    read-only view of the box -> value map, so a hashed value cannot change."""

    __slots__ = ()

    def __new__(cls, diagram, entries):
        diagram, entries = frozenset(diagram), dict(entries)
        if set(entries) != diagram:
            raise ValueError("entries must cover exactly the diagram")
        return super().__new__(cls, diagram, MappingProxyType(entries))

    @classmethod
    def _make(cls, iterable):  # and so _replace: through the checks of __new__
        return cls(*iterable)

    def __getnewargs__(self):  # a mappingproxy does not pickle
        return (self.diagram, dict(self.entries))

    def __hash__(self):
        return hash((self.diagram, frozenset(self.entries.items())))

    def bound(self):
        return max(self.entries.values(), default=0)

    def is_monotone(self):
        values, lower, upper = _neighbour_pairs(self.diagram)
        entries = values(self.entries)
        return all(map(le, lower(entries), upper(entries)))


def _getter(keys):
    """itemgetter that returns a tuple for any number of keys."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda items: tuple(items[key] for key in keys)


@lru_cache(maxsize=256)  # bounded: a caller may build plane partitions on any diagram
def _neighbour_pairs(diagram):
    """The (lower, upper) neighbour pairs that a plane partition on the
    diagram orders: a box and its east neighbour, a box's south neighbour
    and the box.  Returned as getters: the first reads the entries of every
    box, in a fixed order, from the entries mapping, and the other two read
    the lower and the upper end of each pair from that tuple."""
    boxes = tuple(diagram)
    pos = {box: i for i, box in enumerate(boxes)}
    pairs = [
        (pos[low], pos[high])
        for r, c in boxes
        for low, high in (((r, c), (r, c + 1)), ((r + 1, c), (r, c)))
        if low in pos and high in pos
    ]
    return _getter(boxes), _getter([i for i, _ in pairs]), _getter([j for _, j in pairs])


def enumerate_P(setting, k):
    """All plane partitions bounded by k in the diagram D_k, as a list."""
    return list(iter_P(setting, k))


def iter_P(setting, k):
    """The plane partitions bounded by k in the diagram D_k, one at a time,
    so that a caller that counts or cuts the listing holds one filling."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _fillings(diagram_D(setting, k), k)


def _fillings(diagram, k):
    """The fillings of the diagram with entries in [0, k], in lexicographic
    order of their values read bottom to top and left to right.  In that
    order both lower-bound neighbours of a box (below it and to its left)
    come before it, so the least value of a box is read from fixed values.
    The next filling raises the last value below k and resets every later
    value to its least one."""
    order = sorted(diagram, key=lambda box: (-box[0], box[1]))
    pos = {box: i for i, box in enumerate(order)}
    # the positions of the south and west neighbours, or -1 for one absent,
    # where the sentinel values[-1] = 0 is read
    south = [pos.get((r + 1, c), -1) for r, c in order]
    west = [pos.get((r, c - 1), -1) for r, c in order]
    values = [0] * (len(order) + 1)
    start = 0
    while True:
        for i in range(start, len(order)):
            values[i] = max(values[south[i]], values[west[i]])
        # built without the checks of __new__: the boxes are the diagram's
        entries = MappingProxyType(dict(zip(order, values)))
        yield tuple.__new__(PlanePartition, (diagram, entries))
        start = len(order) - 1
        while start >= 0 and values[start] == k:
            start -= 1
        if start < 0:
            return
        values[start] += 1
        start += 1


def count_P_product(setting, k):
    """#P_k for the three dual-pair types, by MacMahon's box formula: the
    product over the boxes of D_k of (h + step k) / h, h = i + j - 1 over
    the a x b rectangle for upq, and over 1 <= i <= j <= a, plus step - 1,
    for the staircases of mp and ostar.  It reads the shape of D_k, never
    its boxes, and _count_P takes the product once per shape."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f, a, b = _dual_pair_shape(setting, k)
    return _count_P(f, a, b, FAMILIES[f].step * k)


@cache
def _count_P(family, a, b, shift):
    """The box product of count_P_product, one binomial ratio per row of D_k.
    Row i holds the hooks x, ..., x + n - 1, x = i and n = b for upq and
    x = 2i + step - 2 and n = a - i + 1 for the staircases, so its factor
    rising(x + shift, n) / rising(x, n) is C(x + shift + n - 1, n) /
    C(x + n - 1, n) = C(x + n + shift - 1, shift) / C(x + shift - 1, shift):
    the pair with the lower index min(n, shift), then one exact division."""
    if family == UPQ:
        rows = [(i, b) for i in range(1, a + 1)]
    else:
        step = FAMILIES[family].step
        rows = [(2 * i + step - 2, a - i + 1) for i in range(1, a + 1)]
    num = den = 1
    for x, n in rows:
        if n <= shift:
            num *= comb(x + shift + n - 1, n)
            den *= comb(x + n - 1, n)
        else:
            num *= comb(x + n + shift - 1, shift)
            den *= comb(x + shift - 1, shift)
    return exact_quotient(num, den)


def c_statistic(pp):
    """Sum over boxes of the local increment over the south and west
    neighbors (absent neighbors read as 0)."""
    entries = pp.entries
    total = 0
    for (r, c), v in entries.items():
        total += v - max(entries.get((r + 1, c), 0), entries.get((r, c - 1), 0))
    return total


def numerator_polynomial(setting, k):
    """Generating polynomial N(t) of the c statistic over P_k, so that
    N(1) = #P_k.  so-even, so-odd, e6 and e7 take the level transfer.  For
    upq, mp and ostar one rule, read before any work, orders the two exact
    routes: the level transfer first where its work #filters |D_k| k, read
    by _level_work from the shape of D_k, is at most
    min(_LEVEL_WORK, _LEVEL_PER_CUBE s^3), s the size of the largest
    determinant block (k, or floor(k/2) for mp), else the packed
    determinants of _numerator_by_determinant first.  Each route runs at
    most once; the second runs only if the first refuses its budget, and if
    both refuse, the ValueError names both bounds, so that `dualdeg hilbert`
    exits 2.  Either route raises AssertionError unless N(0) = 1 and
    N(1) = count_P_product.  The level transfer, the column transfer of the
    tests and enumerate_P with c_statistic are the test oracles."""
    r = real_rank(setting)
    if not 1 <= k <= r:
        raise ValueError(f"k must satisfy 1 <= k <= {r}" if r else "no k satisfies 1 <= k <= r: r = 0")
    if setting.family not in DUAL_PAIR_FAMILIES:
        return _numerator_by_levels(setting, k)
    work = _level_work(setting, k)
    if not work:
        return IntPolynomial([1])  # the one filling of the empty D_k
    block = k // 2 if setting.family == MP else k
    routes = [_numerator_by_determinant, _numerator_by_levels]
    if work <= min(_LEVEL_WORK, _LEVEL_PER_CUBE * block**3):
        routes.reverse()
    refusals = []
    for route in routes:
        try:
            return route(setting, k)
        except ValueError as refusal:
            refusals.append(str(refusal))
    raise ValueError("; ".join(refusals))


# The route rule's exchange rate: the level transfer takes about 0.06 us per
# unit of #filters * |D_k| * k and the determinants about 1.3 us per s^3
# (total time over total units, the 683 non-trivial dual-pair settings of
# the `hilbert` benchmark candidates, one core of an x86 VM, Python 3.11);
# 5 rather than about 20 leaves the level transfer only the settings where
# it wins by a wide margin
_LEVEL_PER_CUBE = 5

# The packed route's budget: size^3 bits^2 bounds the bit operations of the
# size^3 schoolbook products and quotients of Bareiss on a size x size
# determinant of at most bits bits.  upq(33,33) k=11 (1.85e13) takes 1.2 s
# and mp(40) k=14 (1.0e13) 0.8 s on one core of an x86 VM under Python 3.11
_PACKED_COST = 2 * 10**13


def _check_ends(num, count, setting, k, route):
    """num, unless N(0) != 1 or N(1) != count: then AssertionError, so that a
    wrong identity or transfer cannot pass as a numerator."""
    if num[:1] != (1,):
        raise AssertionError(f"{route} for {setting} k={k} give N(0) = {num.evaluate(0)}, not 1")
    if sum(num) != count:
        raise AssertionError(f"{route} for {setting} k={k} give N(1) = {sum(num)}, not #P_k = {count}")
    return num


def _numerator_by_determinant(setting, k):
    """N(t) for upq, mp and ostar from the blocks of _determinant_blocks at
    t = 2^B, B = (s #P_k).bit_length() + 1, with s = 2 for mp, whose quotient
    is 2 N(t^2), else 1: each coefficient of the quotient, in [0, s #P_k],
    is one balanced base-2^B digit.  Evaluation at 2^B is a ring map, so the
    sum of factor * det(matrix) is divided once and unpacked.  Before the
    first determinant it raises ValueError if the sum over the blocks of
    size^3 bits^2, bits = size * the widest entry's bit length, exceeds
    _PACKED_COST.  It raises AssertionError on a remainder, a quotient <= 0,
    for mp an odd power of t or odd coefficient of 2N, and unless N(0) = 1
    and N(1) = count_P_product, so that a wrong identity cannot unpack."""
    count = count_P_product(setting, k)
    if count == 1:
        # D_k is empty: a nonempty D_k has the all-0 and the all-k fillings
        return IntPolynomial([1])
    scale = 2 if setting.family == MP else 1
    width = (scale * count).bit_length() + 1
    blocks, divisor = _determinant_blocks(setting, k, width)
    cost = sum(len(m) ** 5 * max((e.bit_length() for row in m for e in row), default=0) ** 2 for _, m in blocks)
    refuse("packed bit-operation bound", cost, _PACKED_COST)
    quotient, rest = divmod(sum(factor * determinant(matrix) for factor, matrix in blocks), divisor)
    if rest or quotient <= 0:
        raise AssertionError(f"determinant sum for {setting} k={k} is not a positive multiple of its divisor")
    num = _unpack(quotient, width)
    if scale == 2:
        if any(num[1::2]) or any(c & 1 for c in num[::2]):
            raise AssertionError(f"Molien series for {setting} k={k} is not 2 N(t^2)")
        num = IntPolynomial(c >> 1 for c in num[::2])
    return _check_ends(num, count, setting, k, "determinants")


def _determinant_blocks(setting, k, width):
    """The blocks (factor, matrix) and the divisor whose quotient
    sum factor * det(matrix) / divisor is N(t) for upq and ostar, and 2 N(t^2)
    for mp, each entry a polynomial packed at t = 2^width.

    The orbit closures of upq and ostar are the generic determinantal and
    Pfaffian varieties, whose h-polynomials are k x k determinants of
    one-path turn polynomials (Abhyankar; Conca-Herzog 1994;
    Ghorpade-Krattenthaler 2004):

        upq:    t^C(k,2) N(t) = det_{1<=i,j<=k} sum_l C(p-i, l) C(q-j, l) t^l
        ostar:  t^C(k,2) N(t) = det_{1<=i,j<=k} sum_l [C(M, l)^2
                                - C(M, l+1) C(M, l-1)] t^l,  M = n-1-i-j,

    the second a Hankel matrix of Narayana polynomials: one block, and the
    divisor t^C(k,2).

    For mp, by the first fundamental theorem for O(k), the orbit closure's
    ring is C[M_{n x k}]^{O(k)}, graded by s = t^2, so its Hilbert series H
    is the Molien-Weyl average of det(1 - t g)^(-n) over O(k): half the sum
    of the averages over SO(k) and over its other coset O-(k).  Baik-Rains
    (Duke 2001) write each as a Toeplitz +- Hankel determinant of size
    m = floor(k/2) in the series a_j = sum_x C(n-1+x, x) C(n-1+x+j, x+j)
    t^(2x+j), and Euler's transformation of 2F1 makes each series a
    polynomial over one power of (1 - t^2):

        a_j = A_j / (1-t^2)^(2n-1),  A_j = sum_{i<n} C(n-1+j, n-1-i) C(n-1-j, i) t^(2i+j).

    Only A_0 .. A_(k-2) are read, and k <= n, so every binomial is an
    ordinary one.  With S and R the two determinants of the A_j,

        k even:  S = det_{0<=i,j<m} [A_i if j = 0, else A_|i-j| + A_(i+j)]
                 R = det_{0<=i,j<m-1} [A_|i-j| - A_(i+j+2)]
                 2 N(t^2) (1-t^2)^(k(k-2)/2) = S + (1-t^2)^(n-1) R
        k odd:   S = det_{0<=i,j<m} [A_|i-j| - A_(i+j+1)]   (SO(k))
                 R = det_{0<=i,j<m} [A_|i-j| + A_(i+j+1)]   (O-(k))
                 2 N(t^2) (1-t^2)^((k-1)^2/2) = (1+t)^n S + (1-t)^n R

    clearing the denominators of N(s) = H (1-s)^d, d = kn - C(k,2): two
    blocks, and the divisor (1-t^2)^e.  At k = 1 both determinants are 0 x 0
    and 2 N(t^2) = (1+t)^n + (1-t)^n, the Veronese numerator.
    """
    t, n = 1 << width, setting.n
    if setting.family == UPQ:
        p, q = setting.p, setting.q
        rows = [[binomial(p - i, l) for l in range(p - i + 1)] for i in range(1, k + 1)]
        cols = [[binomial(q - j, l) for l in range(q - j + 1)] for j in range(1, k + 1)]
        matrix = [[_pack([a * b for a, b in zip(row, col)], width) for col in cols] for row in rows]
        return [(1, matrix)], t ** (k * (k - 1) // 2)
    if setting.family == OSTAR:
        # hankel[i + j - 2] is the entry in row i and column j
        hankel = [
            _pack([binomial(m, l) ** 2 - binomial(m, l + 1) * binomial(m, l - 1) for l in range(m + 1)], width)
            for m in range(n - 3, n - 2 * k - 2, -1)
        ]
        return [(1, [hankel[i : i + k] for i in range(k)])], t ** (k * (k - 1) // 2)
    m = k // 2
    # entry[j] = A_j, the numerator of a_j over (1 - t^2)^(2n-1)
    entry = [
        _pack([binomial(n - 1 + j, n - 1 - i) * binomial(n - 1 - j, i) for i in range(n)], 2 * width) << width * j
        for j in range(k - 1)
    ]
    # a block (size, offset, sign, factor) is factor times the determinant of
    # the entries A_|i-j| + sign * A_(i+j+offset), but column 0 of SO(k) at
    # even k (offset 0) holds A_i alone
    if k % 2:  # SO(k), O-(k): the eigenvalue 1, -1 beside m pairs
        shapes = [(m, 1, -1, (1 + t) ** n), (m, 1, 1, (1 - t) ** n)]
        power = (k - 1) ** 2 // 2
    else:  # SO(k): m pairs; O-(k): the eigenvalues 1 and -1 beside m - 1 pairs
        shapes = [(m, 0, 1, 1), (m - 1, 2, -1, (1 - t * t) ** (n - 1))]
        power = k * (k - 2) // 2
    blocks = []
    for size, offset, sign, factor in shapes:
        matrix = [[entry[abs(i - j)] + sign * entry[i + j + offset] for j in range(size)] for i in range(size)]
        if offset == 0:
            for i, row in enumerate(matrix):
                row[0] = entry[i]
        blocks.append((factor, matrix))
    return blocks, (1 - t * t) ** power


# Budgets of the level transfer: on #filters * |D_k| * k, a bound on the
# level steps' pair updates, and on that times (k c_max + 1) B, a bound on
# the bits those updates add, which grows with the packed width.  upq(23,40)
# k=19 (2.0e7, 6.6e11 bits) takes about 2 s and 86 MB; ostar(88) k=39
# (2.9e7, 2.8e12 bits) would take 16 s and 280 MB, one core of an x86 VM
# under Python 3.11
_LEVEL_WORK = 3 * 10**7
_LEVEL_BITS = 10**12


def _numerator_by_levels(setting, k):
    """N(t) over the level fillings, for so, e6, e7 and the dual-pair
    settings routed to it.  pi -> (pi>=1, ..., pi>=k), pi>=l = [pi(b) >= l],
    is a bijection onto the nested chains of filters of D_k (closed under
    north and east steps), and c is additive over the levels, since
    v - max(s, w) = sum_l [v>=l] - max([s>=l], [w>=l]): N = sum prod t^c(F_l).

    For a dual pair the call raises ValueError where #filters * |D_k| * k,
    read by _level_work, exceeds _LEVEL_WORK, before D_k is built; D_k of
    so, e6 and e7 has at most 10 boxes at every 1 <= k <= r.  The filters
    are listed box by box in the order of _fillings: a box is in when its
    south or west neighbour is, else free, adding 1 to c if chosen.  Each
    of the k - 1 steps is the superset sum vec[F] += vec[F + b], box by box
    in that order (the north and east neighbours of b come later), then the
    factor t^c(F).  Packed as in _pack at B = |D_k| * (k+1).bit_length() + 2,
    a coefficient counts fillings, at most (k+1)^|D_k| < 2^(B-1), so it
    never carries.  Each sum has degree at most k c_max, c_max the largest
    c(F), so once the filters are listed the call also raises ValueError,
    before any level step, where #filters * |D_k| * k * (k c_max + 1) B
    exceeds _LEVEL_BITS.  A dual pair's N(t) passes _check_ends."""
    dual_pair = setting.family in DUAL_PAIR_FAMILIES
    work = _level_work(setting, k) if dual_pair else 0
    refuse("level-transfer work bound", work, _LEVEL_WORK)
    order = sorted(diagram_D(setting, k), key=lambda box: (-box[0], box[1]))
    bit = {box: 1 << i for i, box in enumerate(order)}
    one, filters = 1 << len(order), [0]  # a filter is one int: its boxes' bits, plus c times one
    for r, c in order:
        b, below = bit[r, c], bit.get((r + 1, c), 0) | bit.get((r, c - 1), 0)
        filters = [f | b if f & below else f for f in filters] + [f + b + one for f in filters if not f & below]
    width = len(order) * (k + 1).bit_length() + 2
    shifts = [(f >> len(order)) * width for f in filters]
    bits = len(filters) * len(order) * k * (k * max(shifts) + width)
    refuse("level-transfer bit bound", bits, _LEVEL_BITS)
    vec = [1 << s for s in shifts]
    if k > 1:
        index = {f % one: i for i, f in enumerate(filters)}
        pairs = []
        for r, c in order:
            b, above = bit[r, c], bit.get((r - 1, c), 0) | bit.get((r, c + 1), 0)
            pairs += [(i, index[f % one | b]) for i, f in enumerate(filters) if f & (b | above) == above]
        for _ in range(k - 1):
            _level_step(vec, pairs, shifts)
    num = _unpack(sum(vec), width)
    return _check_ends(num, count_P_product(setting, k), setting, k, "level fillings") if dual_pair else num


def _level_step(vec, pairs, shifts):
    """One level, in place: the superset sums, then the factor t^c(F)."""
    for i, j in pairs:
        vec[i] += vec[j]
    for i, shift in enumerate(shifts):
        vec[i] <<= shift


def _pack(coeffs, width):
    """The polynomial with the given coefficients at t = 2^width, an int."""
    return sum(c << width * j for j, c in enumerate(coeffs))


def _unpack(value, width):
    """The polynomial whose coefficient of t^j is the j-th balanced
    base-2^width digit of the int value, each in [-2^(width-1), 2^(width-1));
    the inverse of _pack on such coefficients, for width >= 2."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    coeffs = []
    while value:
        digit = ((value & mask) ^ half) - half
        coeffs.append(digit)
        value >>= width
        if digit < 0:
            value += 1
    return IntPolynomial(coeffs)


def hilbert_series_orbit(setting, k):
    """Hilbert series data of the k-th orbit closure: (numerator polynomial,
    denominator exponent).

    The exponent is dim p+ - |D_k|, and |D_k| is the t-coefficient of the
    numerator: a filling with c = 1 is 1 on the boxes reached from one box by
    north and east steps and 0 elsewhere, so there is one per box of D_k."""
    num = numerator_polynomial(setting, k)
    return num, dim_p_plus(setting) - (num[1] if len(num) > 1 else 0)
