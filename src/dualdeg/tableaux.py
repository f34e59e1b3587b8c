"""Partitions, semistandard Young tableaux, and exact integer kernels."""

import math
from functools import cache, total_ordering


def is_partition(parts):
    """True if parts is a weakly decreasing sequence of positive integers."""
    parts = tuple(parts)
    return all(isinstance(x, int) and x >= 1 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts):
    """Return parts as a tuple, raising ValueError if not a partition."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def conjugate(parts):
    """Conjugate partition: column counts of the Young diagram."""
    parts = tuple(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def pad(parts, length):
    """Pad a partition with zeros on the right to the given length."""
    parts = tuple(parts)
    if len(parts) > length:
        raise ValueError(f"partition {parts!r} longer than {length}")
    return parts + (0,) * (length - len(parts))


@total_ordering
class Tableau:
    """A semistandard filling of a Young diagram, stored as a tuple of rows.
    Immutable, since enumerate_ssyt shares its cached instances."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows if len(row) > 0)
        shape = tuple(len(row) for row in rows)
        if not is_partition(shape) and shape != ():
            raise ValueError(f"rows do not form a Young diagram: {shape}")
        Tableau.rows.__set__(self, rows)
        Tableau.shape.__set__(self, shape)

    @classmethod
    def _trusted(cls, rows, shape):
        """A tableau from nonempty row tuples whose lengths are the partition
        shape, skipping the checks: for fillings enumerate_ssyt builds itself."""
        t = cls.__new__(cls)
        Tableau.rows.__set__(t, rows)
        Tableau.shape.__set__(t, shape)
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"Tableau is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Tableau is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle through the constructor
        return (Tableau, (self.rows,))

    def entry(self, j, ell):
        """Entry in row j, column ell (1-based)."""
        return self.rows[j - 1][ell - 1]

    def column(self, ell):
        """Column ell (1-based) as a tuple, top to bottom."""
        return tuple(row[ell - 1] for row in self.rows if len(row) >= ell)

    def first_column(self):
        """The initial column as a set of entries."""
        return set(self.column(1))

    def entries(self):
        """All entries in row-major order."""
        return tuple(x for row in self.rows for x in row)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __lt__(self, other):
        return (self.shape, self.entries()) < (other.shape, other.entries())

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({list(map(list, self.rows))})"


@cache
def enumerate_ssyt(shape, max_entry):
    """All semistandard tableaux of the given shape with entries in [1, max_entry].

    Returned as a tuple, so the cached result cannot be changed by a caller,
    in lexicographic order of the row-major entry vector.
    """
    shape = check_partition(shape) if shape else ()
    if max_entry < 0:
        raise ValueError("max_entry must be >= 0")
    if not shape:
        return (Tableau(()),)
    if len(shape) > max_entry:
        return ()
    cells = [(i, j) for i, rowlen in enumerate(shape) for j in range(rowlen)]
    rows = [[0] * rowlen for rowlen in shape]
    # column j holds heights[j] cells, so cell (i, j) leaves room for the
    # heights[j] - 1 - i strictly larger entries below it
    heights = [sum(1 for rowlen in shape if rowlen > j) for j in range(shape[0])]
    out = []

    def fill(pos):
        if pos == len(cells):
            out.append(Tableau._trusted(tuple(map(tuple, rows)), shape))
            return
        i, j = cells[pos]
        low = 1
        if j > 0:
            low = max(low, rows[i][j - 1])
        if i > 0:
            low = max(low, rows[i - 1][j] + 1)
        high = max_entry - (heights[j] - 1 - i)
        for v in range(low, high + 1):
            rows[i][j] = v
            fill(pos + 1)

    fill(0)
    return tuple(out)


def binomial(a, b):
    """Binomial coefficient, zero when a or b is negative or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def exact_quotient(num, den):
    """num // den for integers where den divides num, checked."""
    quotient, remainder = divmod(num, den)
    assert remainder == 0, f"{num}/{den} is not an integer"
    return quotient


def determinant(matrix):
    """Exact determinant of an integer matrix via fraction-free elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for row in range(col + 1, n):
                if m[row][col] != 0:
                    m[col], m[row] = m[row], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for row in range(col + 1, n):
            for j in range(col + 1, n):
                m[row][j] = (m[col][col] * m[row][j] - m[row][col] * m[col][j]) // prev
            m[row][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


class IntPolynomial:
    """A polynomial in one variable with integer coefficients (index = power)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def evaluate(self, x):
        return sum(c * x**i for i, c in enumerate(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                terms.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(terms)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"
