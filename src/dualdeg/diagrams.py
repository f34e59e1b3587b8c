"""Diagrams D_k for the seven Hermitian types, bounded plane partitions,
product counting formulas, and Hilbert-series numerators."""

from functools import cache
from importlib import resources

from .dualpair import E6, E7, MP, OSTAR, SO_EVEN, SO_ODD, UPQ, real_rank
from .tableaux import IntPolynomial, exact_quotient


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
    boxes = frozenset(boxes)
    return normalize((r, c) for r, c in boxes if (r + 1, c - 1) in boxes)


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


@cache
def _load_d0(name):
    text = resources.files("dualdeg.data").joinpath(f"{name}_d0.txt").read_text()
    boxes = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        r, c = line.split()
        boxes.add((int(r), int(c)))
    return frozenset(boxes)


def diagram_D0(setting):
    """The full diagram D_0 of the Hermitian type."""
    f = setting.family
    if f == UPQ:
        return rectangle(setting.p, setting.q)
    if f == MP:
        return staircase(setting.n)
    if f == OSTAR:
        return shifted_staircase(setting.n - 1)
    if f == SO_EVEN:
        n = setting.n
        boxes = {(1, c) for c in range(1, n)}
        boxes |= {(2, n - 2), (2, n - 1)}
        boxes |= {(r, n - 1) for r in range(3, n)}
        return frozenset(boxes)
    if f == SO_ODD:
        n = setting.n
        return frozenset({(1, c) for c in range(1, n + 1)} | {(2, n - 1)})
    return _load_d0(f)  # e6 / e7


def diagram_D_closed_form(setting, k):
    """Closed-form D_k for the three dual-pair types, for every k >= 0;
    diagram_D builds the same boxes as the k-fold interior of D_0."""
    f = setting.family
    if f == UPQ:
        return rectangle(setting.p - k, setting.q - k)
    if f == MP:
        return staircase(setting.n - k) if setting.n - k > 0 else frozenset()
    if f == OSTAR:
        m = setting.n - 2 * k - 1
        return shifted_staircase(m) if m > 0 else frozenset()
    raise ValueError(f"no closed form for family {setting.family!r}")


@cache
def diagram_D(setting, k):
    """D_k as the k-fold interior of D_0, a frozenset of boxes; cached, and
    immutable so that no caller can change the cached copy."""
    if k < 0:
        raise ValueError("k must be >= 0")
    boxes = normalize(diagram_D0(setting))
    for _ in range(k):
        boxes = interior(boxes)
    return boxes


def dim_p_plus(setting):
    """Number of positive noncompact roots of the Hermitian type."""
    f = setting.family
    if f == UPQ:
        return setting.p * setting.q
    if f == MP:
        return setting.n * (setting.n + 1) // 2
    if f == OSTAR:
        return setting.n * (setting.n - 1) // 2
    if f == SO_EVEN:
        return 2 * setting.n - 2
    if f == SO_ODD:
        return 2 * setting.n - 1
    return 16 if f == E6 else 27


class PlanePartition:
    """A filling of a diagram with entries in [0, k], weakly increasing left
    to right within rows and bottom to top within columns."""

    __slots__ = ("diagram", "entries")

    def __init__(self, diagram, entries):
        self.diagram = frozenset(diagram)
        self.entries = dict(entries)
        if set(self.entries) != self.diagram:
            raise ValueError("entries must cover exactly the diagram")

    def __getitem__(self, box):
        return self.entries.get(box, 0)

    def bound(self):
        return max(self.entries.values(), default=0)

    def is_monotone(self):
        for (r, c), v in self.entries.items():
            if (r, c + 1) in self.entries and self.entries[(r, c + 1)] < v:
                return False
            if (r + 1, c) in self.entries and self.entries[(r + 1, c)] > v:
                return False
        return True

    def key(self):
        return tuple(sorted(self.entries.items()))

    def __eq__(self, other):
        return isinstance(other, PlanePartition) and self.key() == other.key() and self.diagram == other.diagram

    def __hash__(self):
        return hash((self.diagram, self.key()))

    def __repr__(self):
        return f"PlanePartition({self.key()})"


def enumerate_P(setting, k):
    """All plane partitions bounded by k in the diagram D_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    diagram = diagram_D(setting, k)
    if not diagram:
        return [PlanePartition(frozenset(), {})]
    # Assign bottom-to-top, left-to-right so both lower-bound neighbors
    # (below and to the left) are already fixed.
    order = sorted(diagram, key=lambda box: (-box[0], box[1]))
    out = []
    entries = {}

    def fill(pos):
        if pos == len(order):
            out.append(PlanePartition(diagram, dict(entries)))
            return
        r, c = order[pos]
        low = max(entries.get((r + 1, c), 0), entries.get((r, c - 1), 0))
        for v in range(low, k + 1):
            entries[(r, c)] = v
            fill(pos + 1)
        del entries[(r, c)]

    fill(0)
    return out


def count_P_product(setting, k):
    """#P_k for the three dual-pair types, by the exact product formulas."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = setting.family
    # one factor (h + shift) / h per box (i, j) of D_k
    if f == UPQ:
        hooks = [i + j - 1 for i in range(1, setting.p - k + 1) for j in range(1, setting.q - k + 1)]
        shift = k
    elif f == MP:
        m = setting.n - k
        hooks = [i + j - 1 for i in range(1, m + 1) for j in range(i, m + 1)]
        shift = k
    elif f == OSTAR:
        m = setting.n - 2 * k - 1
        hooks = [i + j for i in range(1, m + 1) for j in range(i, m + 1)]
        shift = 2 * k
    else:
        raise ValueError(f"no product formula for family {f!r}")
    num = den = 1
    for h in hooks:
        num *= h + shift
        den *= h
    return exact_quotient(num, den)


def c_statistic(pp):
    """Sum over boxes of the local increment over the south and west
    neighbors (absent neighbors read as 0)."""
    total = 0
    for (r, c), v in pp.entries.items():
        total += v - max(pp[(r + 1, c)], pp[(r, c - 1)])
    return total


def numerator_polynomial(setting, k):
    """Generating polynomial of the c statistic over P_k, by a column
    transfer matrix over D_k (enumerate_P with c_statistic is its oracle).

    The columns are filled from left to right.  A state is the filling of
    the previous column on the rows the current column shares with it, the
    only entries the current column reads; it carries the coefficient list
    of t^c summed over the fillings of the columns so far.
    """
    r = real_rank(setting)
    if not 1 <= k <= r:
        raise ValueError(f"k must satisfy 1 <= k <= {r}")
    columns = {}
    for row, col in diagram_D(setting, k):
        columns.setdefault(col, []).append(row)
    states = {(): [1]}
    west_rows = ()
    for col in sorted(columns):
        rows = sorted(columns[col], reverse=True)  # bottom to top
        keep = tuple(row for row in sorted(columns.get(col + 1, ())) if row in rows)
        step = {}
        for state, poly in states.items():
            west = dict(zip(west_rows, state))
            for key, weight in _column_fillings(rows, west, keep, k):
                acc = step.setdefault(key, [])
                if len(acc) < len(poly) + weight:
                    acc.extend([0] * (len(poly) + weight - len(acc)))
                for power, coeff in enumerate(poly, weight):
                    acc[power] += coeff
        states, west_rows = step, keep
    # the last column shares no rows with a next one, so one state is left
    return IntPolynomial(states[()])


def _column_fillings(rows, west, keep, k):
    """The fillings of one column of D_k, rows listed bottom to top, bounded
    by k, weakly increasing upward and at least the west neighbor (absent
    neighbors read as 0).  Each comes as (its entries on the rows in keep,
    the column's share of the c statistic)."""
    fillings = [((), 0)]
    for pos, row in enumerate(rows):
        floor = west.get(row, 0)
        stacked = pos > 0 and rows[pos - 1] == row + 1
        fillings = [
            (values + (v,), weight + v - low)
            for values, weight in fillings
            for low in (max(values[-1], floor) if stacked else floor,)
            for v in range(low, k + 1)
        ]
    index = [rows.index(row) for row in keep]
    return [(tuple(values[i] for i in index), weight) for values, weight in fillings]


def hilbert_series_orbit(setting, k):
    """Hilbert series data of the k-th orbit closure: (numerator polynomial,
    denominator exponent)."""
    num = numerator_polynomial(setting, k)
    return num, dim_p_plus(setting) - len(diagram_D(setting, k))
