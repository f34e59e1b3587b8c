"""Each reference in refs.py against brute force on tiny cases.

Run with `python -m pytest perfbench` from the repository root.
"""

import itertools
import random

import refs


def brute_ssyt(shape, n):
    """Every semistandard filling of the shape with entries in [1, n]."""
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    out = []
    for values in itertools.product(range(1, n + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        if all(t[(i, j)] <= t[(i, j + 1)] for i, j in cells if (i, j + 1) in t) and all(
            t[(i, j)] < t[(i + 1, j)] for i, j in cells if (i + 1, j) in t
        ):
            out.append(t)
    return out


def column(t, j):
    return [t[(i, j)] for i in range(len(t)) if (i, j) in t]


def partitions(max_size):
    """Every partition of size at most max_size, the empty one first."""
    out = [()]

    def rec(remaining, cap, prefix):
        if prefix:
            out.append(tuple(prefix))
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(max_size, max_size, [])
    return out


def first_two_columns_ok(sigma, k):
    cols = refs.conjugate(sigma)
    return (cols[0] if cols else 0) + (cols[1] if len(cols) > 1 else 0) <= k


def test_dim_gl_counts_tableaux():
    for n in range(1, 4):
        for sigma in partitions(4):
            if len(sigma) <= n:
                assert refs.dim_gl(n, refs.pad(sigma, n)) == len(brute_ssyt(sigma, n))


def test_dim_gl_pair_is_a_shifted_gl_weight():
    for k in range(1, 4):
        for plus, minus in itertools.product(partitions(2), repeat=2):
            if len(plus) + len(minus) > k:
                continue
            shift = minus[0] if minus else 0
            weight = refs.pad(plus, k - len(minus)) + tuple(-x for x in reversed(minus))
            shape = tuple(x + shift for x in weight if x + shift > 0)
            assert refs.dim_gl_pair(k, plus, minus) == len(brute_ssyt(shape, k))


def test_dim_sp_counts_symplectic_tableaux():
    # King: the first column holds at most i entries <= 2i
    for k in range(1, 4):
        for sigma in partitions(3):
            if len(sigma) > k:
                continue
            count = sum(
                all(sum(x <= 2 * i for x in column(t, 0)) <= i for i in range(1, k + 1))
                for t in brute_ssyt(sigma, 2 * k)
            )
            assert refs.dim_sp(k, sigma) == count, (k, sigma)


def test_dim_o_counts_orthogonal_tableaux():
    # the first two columns together hold at most i entries <= i
    for k in range(1, 5):
        for sigma in partitions(3):
            if not first_two_columns_ok(sigma, k):
                continue
            count = sum(
                all(sum(x <= i for x in column(t, 0) + column(t, 1)) <= i for i in range(1, k + 1))
                for t in brute_ssyt(sigma, k)
            )
            assert refs.dim_o(k, sigma) == count, (k, sigma)


def test_dim_o_small_values():
    assert refs.dim_o(3, (1,)) == 3
    assert refs.dim_o(2, (1, 1)) == 1  # determinant of O_2
    assert refs.dim_o(4, (1, 1)) == 6  # exterior square of C^4


def brute_fillings(boxes, k):
    boxes = sorted(boxes)
    out = []
    for values in itertools.product(range(k + 1), repeat=len(boxes)):
        f = dict(zip(boxes, values))
        if all(f[(r, c)] <= f.get((r, c + 1), k) and f[(r, c)] >= f.get((r + 1, c), 0) for r, c in boxes):
            out.append(f)
    return out


def c_statistic(f):
    return sum(v - max(f.get((r + 1, c), 0), f.get((r, c - 1), 0)) for (r, c), v in f.items())


def test_macmahon_box():
    assert refs.count_pp_box(5, 5, 2) == 19404
    for a, b, c in itertools.product(range(4), repeat=3):
        if a * b <= 6:
            assert refs.count_pp_box(a, b, c) == len(brute_fillings(refs.diagram("upq", c, p=a + c, q=b + c), c))


def test_staircase_and_shifted_staircase_products():
    for m in range(5):
        for k in range(1, 4):
            if m * (m + 1) // 2 <= 6:
                assert refs.count_pp_staircase(m, k) == len(brute_fillings(refs.diagram("mp", k, n=m + k), k))
                shifted = refs.diagram("ostar", k, n=m + 2 * k + 1)
                assert refs.count_pp_shifted(m, k) == len(brute_fillings(shifted, k))


def test_transfer_matrix_numerator_matches_fillings():
    cases = [("upq", 1, dict(p=3, q=4)), ("upq", 2, dict(p=4, q=4)), ("mp", 1, dict(n=4)),
             ("mp", 2, dict(n=5)), ("ostar", 1, dict(n=6)), ("ostar", 2, dict(n=8))]
    for family, k, params in cases:
        boxes = refs.diagram(family, k, **params)
        hist = {}
        for f in brute_fillings(boxes, k):
            hist[c_statistic(f)] = hist.get(c_statistic(f), 0) + 1
        assert refs.pp_numerator(boxes, k) == [hist.get(e, 0) for e in range(max(hist) + 1)]
        assert sum(refs.pp_numerator(boxes, k)) == refs.count_P(family, k, **params)


def test_parse_polynomial():
    assert refs.parse_polynomial("1") == [1]
    assert refs.parse_polynomial("1 + 5*t + 5*t^2 + t^3") == [1, 5, 5, 1]
    assert refs.parse_polynomial("3 + t^2") == [3, 0, 1]


def _rank_mod(rows, prime=2**31 - 1):
    rows = [[x % prime for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], prime - 2, prime)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] * inv % prime
                rows[i] = [(a - factor * b) % prime for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _tangent_rank(param_shape, image, coords):
    """Rank at a random point of the differential of a polynomial map, with
    each partial derivative taken exactly by bilinearity of `image`."""
    rng = random.Random(7)
    a = [[rng.randrange(1, 1000) for _ in range(param_shape[1])] for _ in range(param_shape[0])]
    columns = []
    for i, j in itertools.product(range(param_shape[0]), range(param_shape[1])):
        d = [[int((r, c) == (i, j)) for c in range(param_shape[1])] for r in range(param_shape[0])]
        x = image(d, a)
        y = image(a, d)
        columns.append([x[r][c] + y[r][c] for r, c in coords])
    return _rank_mod([list(row) for row in zip(*columns)])


def _product(a, mid, b):
    """a * mid * b^T for integer matrices as lists."""
    am = [[sum(a[i][t] * mid[t][u] for t in range(len(mid))) for u in range(len(mid[0]))] for i in range(len(a))]
    return [[sum(am[i][u] * b[j][u] for u in range(len(mid[0]))) for j in range(len(b))] for i in range(len(a))]


def test_orbit_dimensions_match_tangent_ranks():
    for p, q in [(2, 3), (3, 3), (3, 4)]:
        for k in range(1, min(p, q) + 1):
            # X = A B with A (p x k), B (k x q): stack A over B^T as one (p+q) x k parameter
            def image(u, v, p=p, q=q, k=k):
                prod = _product(u[:p], [[int(i == j) for j in range(k)] for i in range(k)], v[p:])
                return prod
            coords = list(itertools.product(range(p), range(q)))
            assert _tangent_rank((p + q, k), image, coords) == refs.orbit_dim("upq", k, p=p, q=q)
    for n in range(2, 5):
        ident = lambda k: [[int(i == j) for j in range(k)] for i in range(k)]
        sym = [(i, j) for i in range(n) for j in range(i, n)]
        for k in range(1, n + 1):
            got = _tangent_rank((n, k), lambda u, v, k=k: _product(u, ident(k), v), sym)
            assert got == refs.orbit_dim("mp", k, n=n)
        skew = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for k in range(1, n // 2 + 1):
            jmat = [[(j == i + k) - (i == j + k) for j in range(2 * k)] for i in range(2 * k)]
            got = _tangent_rank((n, 2 * k), lambda u, v, jmat=jmat: _product(u, jmat, v), skew)
            assert got == refs.orbit_dim("ostar", k, n=n)


def brute_alpha_ok(family, k, t, p=0, q=0, n=0):
    r = refs.real_rank(family, p, q, n)
    for i in range(max(1, k - r + 1), k + 1):
        if family == "upq":
            tp, tm = t
            alpha = sum(x < q - k + i for x in column(tp, 0)) + sum(y < p - k + i for y in column(tm, 0))
        elif family == "mp":
            alpha = sum(x < n - k + i for x in column(t, 0) + column(t, 1))
        else:
            alpha = sum(x < n - 1 - 2 * k + 2 * i for x in column(t, 0))
        if alpha >= i:
            return False
    return True


def test_q_definition_count_matches_brute_force():
    for p, q, k in [(2, 2, 3), (2, 3, 3), (3, 2, 4), (2, 3, 5)]:
        for plus, minus in itertools.product(partitions(2), repeat=2):
            if len(plus) + len(minus) > k or len(plus) > q or len(minus) > p:
                continue
            pairs = itertools.product(brute_ssyt(plus, q), brute_ssyt(minus, p))
            want = sum(brute_alpha_ok("upq", k, t, p=p, q=q) for t in pairs)
            assert refs.count_Q_definition("upq", k, (plus, minus), p=p, q=q) == want
    for n, k in [(2, 3), (3, 4), (3, 5)]:
        for sigma in partitions(3):
            if len(sigma) <= n and first_two_columns_ok(sigma, k):
                want = sum(brute_alpha_ok("mp", k, t, n=n) for t in brute_ssyt(sigma, n))
                assert refs.count_Q_definition("mp", k, sigma, n=n) == want
    for n, k in [(5, 3), (6, 4), (7, 4)]:
        for sigma in partitions(3):
            if len(sigma) <= k:
                want = sum(brute_alpha_ok("ostar", k, t, n=n) for t in brute_ssyt(sigma, n))
                assert refs.count_Q_definition("ostar", k, sigma, n=n) == want


def test_q_definition_is_everything_beyond_the_free_threshold():
    # for k >= s no constraint bites, so the count is the size of the tableau set
    assert refs.count_Q_definition("mp", 5, (2, 1), n=3) == refs.dim_F("mp", (2, 1), n=3)
    assert refs.count_Q_definition("upq", 4, ((1,), (1,)), p=2, q=3) == refs.dim_F("upq", ((1,), (1,)), p=2, q=3)
