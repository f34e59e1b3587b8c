"""References computed apart from dualdeg: Weyl dimension formulas, product
formulas and a transfer-matrix count for bounded plane partitions, orbit
closure dimensions, classical Hilbert series, and #Q_k(sigma) counted from
its defining inequalities.

Nothing here imports dualdeg; test_refs.py checks each reference against
brute force on tiny cases.
"""

import itertools
from functools import lru_cache

UPQ, MP, OSTAR, SO_EVEN, SO_ODD, E6, E7 = "upq", "mp", "ostar", "so-even", "so-odd", "e6", "e7"


def conjugate(parts):
    parts = tuple(parts)
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1))


def pad(parts, length):
    return tuple(parts) + (0,) * (length - len(parts))


def _ratio(num, den):
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


# --- Weyl dimension formulas -------------------------------------------------


def dim_gl(n, weight):
    """GL_n irrep with a weakly decreasing integer n-tuple as highest weight."""
    num = den = 1
    for i, j in itertools.combinations(range(n), 2):
        num *= weight[i] - weight[j] + j - i
        den *= j - i
    return _ratio(num, den)


def dim_gl_pair(k, plus, minus):
    """GL_k irrep with highest weight (plus, 0, ..., 0, -reversed(minus))."""
    zeros = (0,) * (k - len(plus) - len(minus))
    return dim_gl(k, tuple(plus) + zeros + tuple(-x for x in reversed(minus)))


def dim_sp(k, sigma):
    """Sp_2k irrep with highest weight sigma (type C_k)."""
    lam = pad(sigma, k)
    l = [lam[i] + k - i for i in range(k)]
    r = [k - i for i in range(k)]
    num = den = 1
    for i in range(k):
        num *= l[i]
        den *= r[i]
        for j in range(i + 1, k):
            num *= l[i] * l[i] - l[j] * l[j]
            den *= r[i] * r[i] - r[j] * r[j]
    return _ratio(num, den)


def dim_o(n, sigma):
    """O_n irrep labeled by a partition whose first two columns sum to <= n.

    A label with more than n/2 rows is first replaced by its associate (first
    column c1 -> n - c1), which has the same dimension.  Then the SO_n
    formula applies (type B or D); for n even a label with n/2 rows restricts
    to two conjugate SO_n irreps, so its dimension doubles.
    """
    cols = list(conjugate(sigma))
    if 2 * (cols[0] if cols else 0) > n:
        cols[0] = n - cols[0]
        sigma = conjugate(tuple(c for c in cols if c))
    m = n // 2
    lam = pad(sigma, m)
    num = den = 1
    if n % 2:  # B_m, coordinates doubled so rho is integral
        l = [2 * lam[i] + 2 * (m - i) - 1 for i in range(m)]
        r = [2 * (m - i) - 1 for i in range(m)]
        for i in range(m):
            num *= l[i]
            den *= r[i]
    else:  # D_m
        l = [lam[i] + m - i - 1 for i in range(m)]
        r = [m - i - 1 for i in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        num *= l[i] * l[i] - l[j] * l[j]
        den *= r[i] * r[i] - r[j] * r[j]
    d = _ratio(num, den)
    return 2 * d if n % 2 == 0 and m and len(sigma) == m else d


# --- Settings ----------------------------------------------------------------


def real_rank(family, p=0, q=0, n=0):
    return {UPQ: min(p, q), MP: n, OSTAR: n // 2}.get(family, 3 if family == E7 else 2)


def free_threshold(family, p=0, q=0, n=0):
    return {UPQ: p + q - 1, MP: 2 * n - 1, OSTAR: n - 1}[family]


def regime(family, k, p=0, q=0, n=0):
    if k <= real_rank(family, p, q, n):
        return "k<=r"
    return "k>=s" if k >= free_threshold(family, p, q, n) else "r<k<s"


def dim_F(family, sigma, p=0, q=0, n=0):
    """Dimension of the K-type attached to sigma (the size of the tableau set)."""
    if family == UPQ:
        plus, minus = sigma
        return dim_gl(p, pad(minus, p)) * dim_gl(q, pad(plus, q))
    return dim_gl(n, pad(sigma, n))


def dim_U(family, k, sigma):
    """Dimension of the rank-k group irrep labeled by sigma: GL_k, O_k or Sp_2k."""
    if family == UPQ:
        return dim_gl_pair(k, *sigma)
    return dim_o(k, sigma) if family == MP else dim_sp(k, sigma)


# --- Diagrams, plane partitions and Hilbert series ---------------------------


def diagram(family, k, p=0, q=0, n=0):
    """D_k for the dual-pair families as (row, column) boxes, row 1 on top:
    a (p-k) x (q-k) rectangle, the staircase with rows n-k, ..., 1, or the
    shifted staircase whose row i spans columns i..n-2k-1."""
    if family == UPQ:
        return frozenset(itertools.product(range(1, p - k + 1), range(1, q - k + 1)))
    if family == MP:
        m = n - k
        return frozenset((r, c) for r in range(1, m + 1) for c in range(1, m - r + 2))
    m = n - 2 * k - 1
    return frozenset((r, c) for r in range(1, m + 1) for c in range(r, m + 1))


def count_pp_box(a, b, c):
    """MacMahon: plane partitions in an a x b box with entries at most c."""
    num = den = 1
    for i, j, l in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        num *= i + j + l - 1
        den *= i + j + l - 2
    return _ratio(num, den)


def count_pp_staircase(m, k):
    """Fillings of the m-row staircase bounded by k (symmetric plane
    partitions in an m x m box bounded by k, Andrews' product)."""
    num = den = 1
    for i in range(1, m + 1):
        num *= k + 2 * i - 1
        den *= 2 * i - 1
        for j in range(i + 1, m + 1):
            num *= k + i + j - 1
            den *= i + j - 1
    return _ratio(num, den)


def count_pp_shifted(m, k):
    """Fillings of the m-row shifted staircase bounded by k (Proctor)."""
    num = den = 1
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            num *= 2 * k + i + j
            den *= i + j
    return _ratio(num, den)


def count_P(family, k, p=0, q=0, n=0):
    """#P_k by the product formula for the diagram's shape."""
    if family == UPQ:
        return count_pp_box(max(p - k, 0), max(q - k, 0), k)
    if family == MP:
        return count_pp_staircase(max(n - k, 0), k)
    return count_pp_shifted(max(n - 2 * k - 1, 0), k)


def pp_numerator(boxes, k):
    """Coefficients of sum over fillings of t^c, by a column transfer matrix.

    A filling takes values in [0, k], weakly increases to the east and to the
    north (row r is north of row r+1); c adds v - max(south, west) over the
    boxes, an absent neighbour reading 0.  Columns are swept west to east and
    the state is the filling of the last column, so no filling is listed.
    """
    if not boxes:
        return [1]
    columns = sorted({c for _, c in boxes})
    prev_rows, states = (), {(): {0: 1}}
    for col in columns:
        rows = sorted((r for r, c in boxes if c == col), reverse=True)  # south first
        new = {}
        for prev, poly in states.items():
            west = dict(zip(prev_rows, prev))
            for fill, weight in _column_fillings(rows, west, k):
                acc = new.setdefault(fill, {})
                for e, cnt in poly.items():
                    acc[e + weight] = acc.get(e + weight, 0) + cnt
        prev_rows, states = rows, new
    total = {}
    for poly in states.values():
        for e, cnt in poly.items():
            total[e] = total.get(e, 0) + cnt
    return [total.get(e, 0) for e in range(max(total) + 1)]


def _column_fillings(rows, west, k):
    """Fillings of one column (rows listed south to north) compatible with
    the western column, each with its weight sum v - max(south, west)."""
    out = []

    def rec(i, vals, weight):
        if i == len(rows):
            out.append((tuple(vals), weight))
            return
        r = rows[i]
        south = vals[-1] if i and rows[i - 1] == r + 1 else 0
        low = max(south, west.get(r, 0))
        for v in range(low, k + 1):
            vals.append(v)
            rec(i + 1, vals, weight + v - low)
            vals.pop()

    rec(0, [], 0)
    return out


def dim_p_plus(family, p=0, q=0, n=0):
    return {UPQ: p * q, MP: n * (n + 1) // 2, OSTAR: n * (n - 1) // 2,
            SO_EVEN: 2 * n - 2, SO_ODD: 2 * n - 1, E6: 16, E7: 27}[family]


def orbit_dim(family, k, p=0, q=0, n=0):
    """Dimension of the k-th orbit closure in p+: p x q matrices of rank <= k,
    symmetric n x n of rank <= k, skew n x n of rank <= 2k; for the
    rank-two so families the null cone of a quadric and then all of p+; for
    e6 and e7 the cones over the spinor variety S_10 (11) and the Cayley
    plane (17), the Freudenthal cubic (26), and all of p+."""
    if family == UPQ:
        return k * (p + q - k)
    if family == MP:
        return k * n - k * (k - 1) // 2
    if family == OSTAR:
        return k * (2 * n - 2 * k - 1)
    full = dim_p_plus(family, p, q, n)
    if family in (SO_EVEN, SO_ODD):
        return full - 1 if k == 1 else full
    return {(E6, 1): 11, (E7, 1): 17, (E7, 2): 26}.get((family, k), full)


# Hilbert numerators of the non-dual-pair orbit closures that the paper pins:
# the quadric cone (1 + t), the spinor variety S_10 (degree 12), the Cayley
# plane (degree 78) and the Freudenthal cubic (1 + t + t^2).
CLASSICAL_NUMERATORS = {
    (E6, 1): [1, 5, 5, 1],
    (E6, 2): [1],
    (E7, 1): [1, 10, 28, 28, 10, 1],
    (E7, 2): [1, 1, 1],
    (E7, 3): [1],
}


def hilbert_numerator(family, k, p=0, q=0, n=0):
    """Coefficient list of the Hilbert-series numerator of the k-th orbit closure."""
    if family in (SO_EVEN, SO_ODD):
        return [1, 1] if k == 1 else [1]
    if family in (E6, E7):
        return CLASSICAL_NUMERATORS[(family, k)]
    return pp_numerator(diagram(family, k, p, q, n), k)


def parse_polynomial(text):
    """Coefficient list of a rendering like '1 + 3*t + t^2'."""
    coeffs = {}
    for term in text.split(" + "):
        if "t" not in term:
            coeffs[0] = int(term)
            continue
        head, _, power = term.partition("t")
        e = int(power[1:]) if power.startswith("^") else 1
        coeffs[e] = int(head.rstrip("*")) if head else 1
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


# --- Q_k(sigma) from its definition -------------------------------------------


def _columns(n, length, lower):
    """Strictly increasing columns over [1, n] dominating `lower` entrywise."""
    out = []

    def rec(i, prev, col):
        if i == length:
            out.append(tuple(col))
            return
        lo = max(prev + 1, lower[i] if i < len(lower) else 1)
        for v in range(lo, n - (length - i) + 2):
            col.append(v)
            rec(i + 1, v, col)
            col.pop()

    rec(0, 0, [])
    return out


def ssyt_by_prefix(shape, n, ncols):
    """{first ncols columns: number of SSYT of the shape with entries <= n
    having them}.  Rows weakly increase, columns strictly increase; the count
    of completions is a column-by-column recursion."""
    lengths = conjugate(shape)
    width = len(lengths)

    @lru_cache(maxsize=None)
    def completions(j, col):
        if j + 1 >= width:
            return 1
        return sum(completions(j + 1, nxt) for nxt in _columns(n, lengths[j + 1], col))

    out = {}

    def rec(j, prefix):
        if j == min(ncols, width):
            key = prefix + ((),) * (ncols - len(prefix))
            out[key] = out.get(key, 0) + (completions(j - 1, prefix[-1]) if prefix else 1)
            return
        for col in _columns(n, lengths[j], prefix[-1] if prefix else ()):
            rec(j + 1, prefix + (col,))

    rec(0, ())
    return out


def count_Q_definition(family, k, sigma, p=0, q=0, n=0):
    """#Q_k(sigma): base tableaux T with alpha_i(T) < i for k - r < i <= k.

    alpha_i counts small entries of the first column (first two columns for
    mp): entries < q - k + i of T+ and < p - k + i of T- for upq, < n - k + i
    for mp, < n - 1 - 2k + 2i for ostar.
    """
    r = real_rank(family, p, q, n)
    idx = range(max(1, k - r + 1), k + 1)
    if family == UPQ:
        plus, minus = sigma
        tp = ssyt_by_prefix(plus, q, 1)
        tm = ssyt_by_prefix(minus, p, 1)
        return sum(
            cp * cm
            for (colp,), cp in tp.items()
            for (colm,), cm in tm.items()
            if all(sum(x < q - k + i for x in colp) + sum(y < p - k + i for y in colm) < i for i in idx)
        )
    if family == MP:
        return sum(
            cnt
            for (c1, c2), cnt in ssyt_by_prefix(sigma, n, 2).items()
            if all(sum(x < n - k + i for x in c1 + c2) < i for i in idx)
        )
    return sum(
        cnt
        for (c1,), cnt in ssyt_by_prefix(sigma, n, 1).items()
        if all(sum(x < n - 1 - 2 * k + 2 * i for x in c1) < i for i in idx)
    )


def expected_degree(family, k, sigma, p=0, q=0, n=0):
    """The degree by the identity that holds in the setting's regime:
    dim U_sigma * #P_k for k <= r, dim F_lambda * #P_k for k >= s, and the
    definition count of Q_k(sigma) times #P_k in between."""
    reg = regime(family, k, p, q, n)
    p_count = count_P(family, k, p, q, n)
    if reg == "k<=r":
        return dim_U(family, k, sigma) * p_count
    if reg == "k>=s":
        return dim_F(family, sigma, p, q, n) * p_count
    return count_Q_definition(family, k, sigma, p, q, n) * p_count
