"""Partitions, semistandard Young tableaux, and exact integer kernels."""

import bisect
import math
import operator
from functools import cache


def is_partition(parts):
    """True if parts is a weakly decreasing sequence of positive integers."""
    parts = tuple(parts)
    ints = all(isinstance(x, int) for x in parts)
    return ints and all(map(operator.ge, parts, parts[1:])) and (not parts or parts[-1] >= 1)


def check_partition(parts):
    """Return parts as a tuple, raising ValueError if not a partition."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def conjugate(parts):
    """Conjugate partition: column counts of the Young diagram of the weakly
    decreasing parts, trailing zeros allowed.  One pass, from the longest
    column down: the columns past len(conj) up to parts[i - 1] have length i."""
    parts = tuple(parts)
    conj = []
    for i in range(len(parts), 0, -1):
        conj += [i] * (parts[i - 1] - len(conj))
    return tuple(conj)


def pad(parts, length):
    """Pad a partition with zeros on the right to the given length."""
    parts = tuple(parts)
    if len(parts) > length:
        raise ValueError(f"partition {parts!r} longer than {length}")
    return parts + (0,) * (length - len(parts))


class Tableau(tuple):
    """A semistandard filling of a Young diagram: the tuple of its rows, each
    a tuple, longest first.  Equality, hashing, ordering, copying and
    pickling are tuple ones; within one shape, tuple order is the
    lexicographic order of the row-major entries."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(row) for row in rows if len(row) > 0)
        shape = tuple(len(row) for row in rows)
        if not is_partition(shape) and shape != ():
            raise ValueError(f"rows do not form a Young diagram: {shape}")
        return super().__new__(cls, rows)

    @property
    def shape(self):
        return tuple(map(len, self))

    def entry(self, j, ell):
        """Entry in row j, column ell (1-based)."""
        return self[j - 1][ell - 1]

    def column(self, ell):
        """Column ell (1-based) as a tuple, top to bottom."""
        return tuple(row[ell - 1] for row in self if len(row) >= ell)

    def __repr__(self):
        return f"Tableau({list(map(list, self))})"


@cache
def enumerate_ssyt(shape, max_entry):
    """All semistandard tableaux of the given shape with entries in [1, max_entry].

    Returned as a tuple, so the cached result cannot be changed by a caller,
    in lexicographic order of the row-major entry vector: the blocks of
    _ssyt_blocks, each flattened.
    """
    # the rows built there are nonempty tuples whose lengths are shape, so
    # each tableau is made as a bare tuple, skipping Tableau's checks
    trusted = tuple.__new__
    out = [trusted(Tableau, (*above, row)) for above, rows in _ssyt_blocks(shape, max_entry) for row in rows]
    return tuple(out) if shape else (Tableau(()),)


@cache
def column_classes(shape, max_entry, width):
    """The tableaux of enumerate_ssyt(shape, max_entry) by class, as a tuple
    of (key, count) in the order of enumerate_ssyt: key is the Tableau of
    each row's first width entries, its head.  The keys are the tableaux of
    enumerate_ssyt(cut, max_entry), cut the shape cut to width columns, so
    every shape with that cut shares one cached listing.  The rest of a
    class is an SSYT of the tail, shape[i] - width over the rows longer than
    width, whose row i holds entries in [key[i][-1], max_entry]: one flagged
    determinant, taken once per tuple of flags, whose column j reads only j
    and the flag of row j and is built once per call.  Repeating each flag
    along its row fills the tail, so no class is empty; no tableau of the
    shape is built."""
    if width < 1:
        raise ValueError("width must be >= 1")
    shape = check_partition(shape) if shape else ()
    tail = [x - width for x in shape if x > width]
    diffs = [x - i for i, x in enumerate(tail)]
    m = len(tail)
    columns = {}  # (j, flag) -> column j of the class matrix
    sizes = {}
    out = []
    for key in enumerate_ssyt(tuple([min(x, width) for x in shape]), max_entry):
        flags = tuple([row[-1] for row in key[:m]])
        size = sizes.get(flags)
        if size is None:
            cols = []
            for j, a in enumerate(flags):
                col = columns.get((j, a))
                if col is None:
                    col = columns[j, a] = _flag_column(diffs, j, max_entry + 1 - a)
                cols.append(col)
            size = sizes[flags] = determinant(list(zip(*cols)))
        out.append((key, size))
    return tuple(out)


def _ssyt_blocks(shape, max_entry):
    """The tableaux of enumerate_ssyt(shape, max_entry), in its order, as
    blocks (rows above the last, the list of last rows under them); nothing
    for the empty shape, whose one tableau has no last row.

    A tableau is one choice of row per level, each admissible under the
    row above it.  The rows under a row depend only on its entries above
    them; they are listed once per call for each such part and reused.  The
    levels are walked with an explicit stack, so no recursion deepens with
    the number of cells or rows.
    """
    shape = check_partition(shape) if shape else ()
    if max_entry < 0:
        raise ValueError("max_entry must be >= 0")
    if not shape or len(shape) > max_entry:
        return
    # column j holds heights[j] cells, so cell (i, j) leaves room for the
    # heights[j] - 1 - i strictly larger entries below it
    heights = conjugate(shape)
    high = [
        tuple(max_entry - (heights[j] - 1 - i) for j in range(rowlen))
        for i, rowlen in enumerate(shape)
    ]
    below = {}

    def rows_under(i, up):
        # up[j] + 1 is at most high[i][j], so every row has a row under it
        # and no branch of the walk is a dead end
        key = (i, up[: shape[i]])
        rows = below.get(key)
        if rows is None:
            rows = below[key] = _bounded_rows(tuple(x + 1 for x in key[1]), high[i])
        return rows

    top = _bounded_rows((1,) * shape[0], high[0])
    last = len(shape) - 1
    if last == 0:
        yield (), top
        return
    # stack[-1] walks a level under the rows in chosen; under each row of
    # the level above the last, the last level is yielded whole
    chosen = []
    stack = [iter(top)]
    while stack:
        row = next(stack[-1], None)
        if row is None:
            stack.pop()
            if chosen:
                chosen.pop()
        elif len(stack) < last:
            chosen.append(row)
            stack.append(iter(rows_under(len(stack), row)))
        else:
            yield (*chosen, row), rows_under(last, row)


def _bounded_rows(low, high):
    """The weakly increasing rows r with low[j] <= r[j] <= high[j], in
    lexicographic order, for weakly increasing low <= high.

    The first row is low itself.  Each next row raises the rightmost entry
    below its bound by one and refills the rest with the least values
    allowed: that entry's new value, up to the first bound in low above it.
    Since high is weakly increasing, the refill always fits."""
    out = [low]
    row = low
    while True:
        j = len(low) - 1
        while j >= 0 and row[j] == high[j]:
            j -= 1
        if j < 0:
            return out
        v = row[j] + 1
        t = bisect.bisect_right(low, v, j + 1)
        row = row[:j] + (v,) * (t - j) + low[t:]
        out.append(row)


def binomial(a, b):
    """Binomial coefficient, zero when a or b is negative or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def exact_quotient(num, den):
    """num // den for integers where den divides num, checked."""
    quotient, remainder = divmod(num, den)
    if remainder:  # raised, not asserted, so that python -O keeps the check
        raise AssertionError(f"{num}/{den} is not an integer")
    return quotient


def gate(name, value, bound, unit="limit"):
    """The wording of every size gate: "name=value > unit bound" (without
    the unit when it is empty) where value exceeds bound, else ""."""
    if value <= bound:
        return ""
    return f"{name}={value} > {unit} {bound}" if unit else f"{name}={value} > {bound}"


def refuse(name, value, bound, unit="limit"):
    """Raise ValueError with the text of gate when that text is not empty."""
    if text := gate(name, value, bound, unit):
        raise ValueError(text)


def determinant(matrix):
    """Exact determinant of an integer matrix via fraction-free (Bareiss)
    elimination: each quotient is a minor of the matrix, so each division
    is exact.  A step skips the rows with 0 in its column, so a matrix that
    is 0 more than b places below the diagonal costs O(n^2 (b + 1)).

    The Hilbert numerators run it on packed polynomials, each entry a
    polynomial in Z[t] taken at t = 2^B.  Evaluation at 2^B is a ring map
    Z[t] -> Z, so the result is the polynomial determinant taken at 2^B,
    for any B; B only decides whether the caller can read the coefficients
    back as base-2^B digits."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    # step t divides by divisors[t], the pivot of step t - 1.  On a row with
    # 0 in the pivot column a step only rescales by pivot / divisor, and
    # these rescalings telescope: the row is skipped, stage keeps the step
    # it was last brought to, and its next elimination divides by the
    # divisor of that step instead
    divisors = [1]
    stage = [0] * n
    for col in range(n - 1):
        if m[col][col] == 0:
            for row in range(col + 1, n):
                if m[row][col] != 0:
                    m[col], m[row] = m[row], m[col]
                    stage[col], stage[row] = stage[row], stage[col]
                    sign = -sign
                    break
            else:
                return 0
        top = m[col]
        if stage[col] != col:
            top[col:] = [x * divisors[col] // divisors[stage[col]] for x in top[col:]]
        pivot = top[col]
        for row in range(col + 1, n):
            lead = m[row][col]
            if lead != 0:
                r, prev = m[row], divisors[stage[row]]
                for j in range(col + 1, n):
                    r[j] = (pivot * r[j] - lead * top[j]) // prev
                r[col] = 0
                stage[row] = col + 1
        divisors.append(pivot)
    last = n - 1
    return sign * m[last][last] * divisors[last] // divisors[stage[last]]


def _flag_column(diffs, offset, width):
    """A column of a flagged Jacobi-Trudi matrix, the one entry formula of
    _flagged_determinant, column_classes and the mp scan: C(e + width - 1, e)
    for e = diffs[i] + offset, diffs[i] = parts[i] - i, 0 for e < 0 or
    width < 1; h_e in width variables.  Column j of _flagged_determinant
    has offset j + shifts[j]."""
    if width < 1:
        return [0] * len(diffs)
    w = width - 1
    return [math.comb(e + w, e) if (e := d + offset) >= 0 else 0 for d in diffs]


def _flagged_determinant(parts, widths, shifts):
    """det[C(e + w_j - 1, e)], i, j from 0, e = parts[i] - i + j + shifts[j], w_j = widths[j]:
    a flagged Jacobi-Trudi determinant of h_e in w_j variables, 0 for e < 0 or w_j < 1, built
    column by column with _flag_column.  With no shifts and widths N + 1 - a_j, a weakly
    increasing, it counts the SSYT of shape parts with entries <= N whose row i holds only
    entries >= a_i, as nonintersecting paths (Wachs 1985)."""
    diffs = [part - i for i, part in enumerate(parts)]
    cols = [_flag_column(diffs, j + shift, width) for j, (width, shift) in enumerate(zip(widths, shifts))]
    return determinant(list(zip(*cols)))


class IntPolynomial(tuple):
    """A polynomial in one variable with integer coefficients: the tuple of
    its coefficients (index = power), trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return super().__new__(cls, coeffs)

    def evaluate(self, x):
        return sum(c * x**i for i, c in enumerate(self))

    def __str__(self):
        if not self:
            return "0"
        terms = []
        for i, c in enumerate(self):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(terms)

    def __repr__(self):
        return f"IntPolynomial({list(self)})"
