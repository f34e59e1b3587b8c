"""Tests for partitions, tableau enumeration, and determinant kernels."""

import ast
import hashlib
import math
import os
import subprocess
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualdeg
from dualdeg.degree import partitions_up_to
from dualdeg.dualpair import enumerate_Q, ostar
from dualdeg.repdims import dim_gl
from dualdeg.tableaux import (
    IntPolynomial,
    Tableau,
    _flagged_determinant,
    _ssyt_blocks,
    binomial,
    check_partition,
    column_classes,
    conjugate,
    determinant,
    enumerate_ssyt,
    exact_quotient,
    gate,
    is_partition,
    pad,
    refuse,
)


def first_two_columns(t):
    """Entries of the first two columns of t as a sorted multiset."""
    return sorted(t.column(1) + t.column(2))


def is_semistandard(t):
    """Rows of t weakly increase left to right; columns strictly increase down."""
    for row in t:
        if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
            return False
    for j in range(len(t) - 1):
        upper, lower = t[j], t[j + 1]
        if any(upper[i] >= lower[i] for i in range(len(lower))):
            return False
    return True


def shifted(t, delta):
    """New tableau with delta added to every entry of t."""
    return Tableau(tuple(x + delta for x in row) for row in t)


def from_histogram(values):
    """Polynomial whose t^m coefficient counts occurrences of m in values."""
    values = list(values)
    coeffs = [0] * (max(values) + 1 if values else 0)
    for v in values:
        coeffs[v] += 1
    return IntPolynomial(coeffs)


def test_partition_predicates():
    assert is_partition((3, 2, 2, 1))
    assert is_partition(())
    assert not is_partition((2, 3))
    assert not is_partition((2, 0))
    assert check_partition([4, 1]) == (4, 1)
    try:
        check_partition((1, 2))
        assert False
    except ValueError:
        pass


def _is_partition_by_parts(parts):
    """is_partition as one test per part and one per adjacent pair."""
    parts = tuple(parts)
    return all(isinstance(x, int) and x >= 1 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-3, 6), st.booleans(), st.floats(allow_nan=True), st.sampled_from([0, 1, 2.0, True])),
        max_size=7,
    )
)
def test_is_partition_matches_the_per_part_test(parts):
    # 0, negatives, bools, floats (nan included) and unsorted tuples, and
    # the int parts sorted, which are a partition whenever none is below 1
    ints = sorted((p for p in parts if type(p) is int), reverse=True)
    for case in (parts, ints):
        assert is_partition(case) == _is_partition_by_parts(case)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=8).map(lambda parts: sorted(parts, reverse=True)))
def test_conjugate_counts_the_parts_at_least_each_column(parts):
    # weakly decreasing parts, trailing zeros included
    longest = parts[0] if parts else 0
    assert conjugate(parts) == tuple(sum(p >= j for p in parts) for j in range(1, longest + 1))


def test_conjugate_and_pad():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert conjugate(()) == ()
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    try:
        pad((2, 1, 1), 2)
        assert False
    except ValueError:
        pass


def test_tableau_accessors():
    t = Tableau([[1, 2, 2], [2, 3]])
    assert t.shape == (3, 2)
    assert t.entry(2, 1) == 2
    assert t.column(1) == (1, 2)
    assert t.column(2) == (2, 3)
    assert first_two_columns(t) == [1, 2, 2, 3]
    assert is_semistandard(t)
    assert not is_semistandard(Tableau([[2, 1]]))
    assert not is_semistandard(Tableau([[1, 2], [1, 3]]))
    assert shifted(t, 2) == ((3, 4, 4), (4, 5))


def test_enumerate_ssyt_golden():
    # classical counts: #SSYT(shape, n) from the hook-content formula
    assert len(enumerate_ssyt((1,), 3)) == 3
    assert len(enumerate_ssyt((2,), 2)) == 3
    assert len(enumerate_ssyt((1, 1), 2)) == 1
    assert len(enumerate_ssyt((2, 1), 3)) == 8
    assert len(enumerate_ssyt((2, 2), 3)) == 6
    assert len(enumerate_ssyt((3, 2, 1), 3)) == 8
    assert enumerate_ssyt((), 5) == (Tableau(()),)
    assert enumerate_ssyt((1, 1, 1), 2) == ()
    for t in enumerate_ssyt((3, 2), 4):
        assert is_semistandard(t)
    listing = enumerate_ssyt((2, 1), 3)
    assert list(listing) == sorted(listing)
    assert len(set(listing)) == len(listing)


def test_enumerate_ssyt_tall_shape():
    # without pruning by column height this search took tens of seconds
    listing = enumerate_ssyt((2,) * 13, 14)
    assert len(listing) == 105 == binomial(15, 2) == dim_gl(14, (2,) * 13 + (0,))
    assert all(is_semistandard(t) and max(x for row in t for x in row) <= 14 for t in listing)


def test_enumerate_ssyt_cache_cannot_be_corrupted():
    first = enumerate_ssyt((2, 1), 3)
    with pytest.raises(AttributeError):
        first.clear()
    with pytest.raises(TypeError):
        first[0] = Tableau(())
    assert len(enumerate_ssyt((2, 1), 3)) == 8


def test_cached_tableaux_cannot_be_corrupted():
    first = enumerate_ssyt((1,), 3)[0]
    with pytest.raises(TypeError):
        first[0] = (3,)
    with pytest.raises(AttributeError):
        first.shape = (2,)
    with pytest.raises(TypeError):
        del first[0]
    with pytest.raises(AttributeError):
        first.extra = None
    with pytest.raises(TypeError):
        Tableau([[1, 2]])[0] = (1, 3)
    assert list(enumerate_ssyt((1,), 3)) == [((1,),), ((2,),), ((3,),)]
    assert first.shape == (1,)
    assert len(enumerate_Q(ostar(3, 1), (1,))) == 2


def test_enumerated_tableaux_equal_validated_ones():
    # enumerate_ssyt skips Tableau's checks; its tableaux must still be what
    # the checked constructor builds from the same rows
    for shape in partitions_up_to(8):
        for max_entry in range(7):
            for t in enumerate_ssyt(shape, max_entry):
                u = Tableau(t)
                assert t == u and t.shape == u.shape == shape
                assert hash(t) == hash(u)
                assert is_semistandard(t) and all(1 <= x <= max_entry for row in t for x in row)
                assert all(type(row) is tuple for row in t)


def _enumerate_ssyt_by_cells(shape, max_entry):
    """enumerate_ssyt as it was before it listed rows: one cell at a time in
    row-major order, one recursive call per cell.  Kept as the reference the
    row-by-row enumeration must equal, order included."""
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
            out.append(Tableau(rows))
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


# shapes of size <= 7 with at most 5 rows, at bounds 0..6
SMALL_SHAPES = [shape for shape in partitions_up_to(7) if len(shape) <= 5]


def test_enumerate_ssyt_matches_cell_by_cell():
    cases = 0
    for shape in SMALL_SHAPES:
        for max_entry in range(7):
            rows = list(enumerate_ssyt(shape, max_entry))
            assert rows == list(_enumerate_ssyt_by_cells(shape, max_entry)), (shape, max_entry)
            cases += 1
    assert cases == 294


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.integers(0, 6))
def test_enumerate_ssyt_matches_cell_by_cell_property(shape, max_entry):
    listing = enumerate_ssyt(shape, max_entry)
    assert listing == _enumerate_ssyt_by_cells(shape, max_entry)
    assert all(t.shape == shape for t in listing)


def test_enumerate_ssyt_long_rows_and_columns():
    # one level per row and no recursion per cell: a row of 1200 cells, or a
    # column of 1000, is listed under the default recursion limit
    limit = sys.getrecursionlimit()
    listing = enumerate_ssyt((1200,), 2)
    assert len(listing) == 1201
    assert [t[0].count(2) for t in listing] == list(range(1201))
    column = enumerate_ssyt((1,) * 1000, 1001)
    assert len(column) == 1001 == binomial(1001, 1000)
    assert all(is_semistandard(t) for t in column)
    assert sys.getrecursionlimit() == limit


def test_enumerate_ssyt_listing_checksum():
    # every tableau of every shape of size <= 7 at bounds 0..6, in order: the
    # digest of the listing before it was split into blocks
    digest = hashlib.sha256()
    count = 0
    for shape in partitions_up_to(7):
        for max_entry in range(7):
            for t in enumerate_ssyt(shape, max_entry):
                digest.update(repr(tuple(t)).encode())
                count += 1
            digest.update(b";")
    assert count == 33826
    assert digest.hexdigest() == "1ed93fe481325d99db8f6dac5d3c93679a30992869da534649dba819e812b3d3"


def test_column_classes_match_the_listing():
    for shape in partitions_up_to(7):
        for max_entry in range(7):
            listing = enumerate_ssyt(shape, max_entry)
            for width in (1, 2):
                classes = column_classes(shape, max_entry, width)
                assert len({key for key, _ in classes}) == len(classes)
                assert dict(classes) == Counter(tuple(row[:width] for row in t) for t in listing), (shape, width)


def test_column_classes_edges():
    assert all(column_classes((), n, w) == (((), 1),) for n in range(3) for w in (1, 2))
    assert column_classes((1, 1, 1), 2, 1) == ()
    for shape in ((), (1,)):
        with pytest.raises(ValueError):
            column_classes(shape, -1, 1)
        with pytest.raises(ValueError):
            enumerate_ssyt(shape, -1)
    classes = column_classes((2, 1), 3, 1)
    with pytest.raises(AttributeError):
        classes.append(((), 1))
    with pytest.raises(TypeError):
        classes[0] = ((), 1)
    assert sum(count for _, count in column_classes((2, 1), 3, 1)) == 8
    for shape, width in (((), 0), ((2, 1), 0), ((2, 1), -1)):
        with pytest.raises(ValueError, match="width must be >= 1"):
            column_classes(shape, 3, width)
    # one block of 1201 rows, under the default recursion limit
    limit = sys.getrecursionlimit()
    assert column_classes((1200,), 2, 1) == ((((1,),), 1200), (((2,),), 1))
    assert column_classes((1200,), 2, 2) == ((((1, 1),), 1199), (((1, 2),), 1), (((2, 2),), 1))
    assert sys.getrecursionlimit() == limit


def walk_column_classes(shape, max_entry, width):
    """column_classes by walking every tableau: each list of last rows of
    the _ssyt_blocks walk is tallied once, and each class of the rows above
    it adds that tally once per block.  The test oracle of the class sizes."""
    first = itemgetter(slice(width))
    lasts = {}  # the lists of last rows by identity; the walk hands one list to many blocks
    blocks = []
    for above, rows in _ssyt_blocks(shape, max_entry):
        lasts[id(rows)] = rows
        blocks.append((tuple(map(first, above)), id(rows)))
    tallies = {i: Counter(map(first, rows)).items() for i, rows in lasts.items()}
    counts = Counter()
    for (prefix, i), times in Counter(blocks).items():
        for key, count in tallies[i]:
            counts[(*prefix, key)] += times * count
    return tuple(counts.items()) if shape else (((), 1),)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(partitions_up_to(9)), st.integers(0, 8), st.sampled_from((1, 2)))
def test_column_class_determinants_match_the_walk(shape, max_entry, width):
    # the uncached listing, so that no large listing stays cached
    listing = enumerate_ssyt.__wrapped__(shape, max_entry)
    counted = tuple(Counter(tuple(row[:width] for row in t) for t in listing).items())
    assert column_classes(shape, max_entry, width) == walk_column_classes(shape, max_entry, width) == counted


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(partitions_up_to(9)), st.integers(0, 8))
def test_width_1_heads_are_the_walk_keys(shape, max_entry):
    # the width-1 heads are the keys of the _ssyt_blocks walk of the
    # one-column shape, in its order, each a Tableau
    walk = [(*above, row) for above, rows in _ssyt_blocks((1,) * len(shape), max_entry) for row in rows]
    classes = column_classes(shape, max_entry, 1)
    assert [key for key, _ in classes] == (walk if shape else [()])
    for width in (1, 2):
        assert all(type(key) is Tableau for key, _ in column_classes(shape, max_entry, width))


def test_column_classes_of_tall_labels():
    # 98 and 28 tail rows: one determinant per tuple of flags, 0 more than one
    # place below its diagonal
    for shape, max_entry, width in (((2,) * 98, 99, 1), ((3,) * 28, 29, 2)):
        classes = column_classes(shape, max_entry, width)
        assert classes == walk_column_classes(shape, max_entry, width)
        assert sum(count for _, count in classes) == dim_gl(max_entry, pad(shape, max_entry))


def flagged_determinant_by_rows(parts, widths, shifts):
    """_flagged_determinant as it built its matrix row by row, each entry
    from the formula: the oracle of the shared column build."""
    return determinant([
        [math.comb(e + w - 1, e) if e >= 0 and w >= 1 else 0
         for j, (w, shift) in enumerate(zip(widths, shifts)) for e in [part - i + j + shift]]
        for i, part in enumerate(parts)
    ])


def classes_by_flag_determinants(shape, max_entry, width):
    """column_classes by its old route: the heads from the _ssyt_blocks walk
    of the cut shape, each class sized by its own call of
    _flagged_determinant(tail, [N + 1 - a], [0] * m), once per tuple of flags."""
    cut = tuple(min(x, width) for x in shape)
    tail = [x - width for x in shape if x > width]
    m = len(tail)
    heads = [(*above, row) for above, rows in _ssyt_blocks(cut, max_entry) for row in rows] if shape else [()]
    sizes = {}
    out = []
    for head in heads:
        flags = tuple(row[-1] for row in head[:m])
        if flags not in sizes:
            sizes[flags] = _flagged_determinant(tail, [max_entry + 1 - a for a in flags], [0] * m)
        out.append((Tableau(head), sizes[flags]))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(partitions_up_to(9)), st.integers(0, 8), st.sampled_from((1, 2)))
def test_column_classes_match_the_flag_determinants(shape, max_entry, width):
    assert column_classes(shape, max_entry, width) == classes_by_flag_determinants(shape, max_entry, width)


def test_column_classes_of_tall_labels_match_the_flag_determinants():
    for shape, max_entry, width in (((2,) * 98, 99, 1), ((3,) * 28, 29, 2)):
        assert column_classes(shape, max_entry, width) == classes_by_flag_determinants(shape, max_entry, width)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(partitions_up_to(9)), st.integers(0, 8), st.sampled_from((1, 2)))
def test_column_class_keys_are_the_cut_listing(shape, max_entry, width):
    # the keys are the cached tableaux of the cut shape themselves, in order;
    # cleared first, since a test may have cleared the listing's cache
    column_classes.cache_clear()
    keys = [key for key, _ in column_classes(shape, max_entry, width)]
    listing = enumerate_ssyt(tuple(min(x, width) for x in shape), max_entry)
    assert len(keys) == len(listing) and all(key is t for key, t in zip(keys, listing))


@st.composite
def flagged_matrices(draw):
    """n parts in [-4, 6] (the upq path count passes negative ones), and n
    widths in [-1, 6] and shifts in [0, 4], one of each per column."""
    n = draw(st.integers(0, 6))
    parts = draw(st.lists(st.integers(-4, 6), min_size=n, max_size=n))
    widths = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
    shifts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return parts, widths, shifts


@settings(max_examples=300, deadline=None)
@given(flagged_matrices())
def test_flagged_determinant_matches_the_row_build(case):
    parts, widths, shifts = case
    assert _flagged_determinant(parts, widths, shifts) == flagged_determinant_by_rows(parts, widths, shifts)


def test_exact_quotient():
    assert exact_quotient(12, 4) == 3
    assert exact_quotient(-12, 4) == -3
    with pytest.raises(AssertionError):
        exact_quotient(7, 2)


def test_gate_names_the_size_and_its_bound():
    assert gate("#P_k", 6, 6) == ""
    assert gate("#P_k", 7, 6) == "#P_k=7 > limit 6"
    assert gate("#jellyfish", 11, 10, "listing budget") == "#jellyfish=11 > listing budget 10"
    assert gate("|D_k|", 13, 12, "") == "|D_k|=13 > 12"
    assert refuse("dim F_lambda", 5, 5) is None
    with pytest.raises(ValueError, match=r"^dim F_lambda=6 > limit 5$"):
        refuse("dim F_lambda", 6, 5)


def test_gate_wording_lives_in_tableaux_alone():
    # every size refusal and skipped check of the package is worded by
    # tableaux.gate, so no other module types the wording out
    modules = sorted(Path(dualdeg.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = [
        f"{path.name}: {text!r}"
        for path in modules
        if path.name != "tableaux.py"
        for text in ("> limit", "> listing budget")
        if text in path.read_text()
    ]
    assert found == []


@pytest.mark.parametrize(
    "statement",
    [
        "from dualdeg.tableaux import exact_quotient; exact_quotient(7, 2)",
        "from fractions import Fraction; from dualdeg.degree import EXCEPTIONAL_ROWS; "
        "EXCEPTIONAL_ROWS[0].dimension_polynomial(Fraction(1, 2))",
    ],
    ids=["exact_quotient", "dimension_polynomial"],
)
def test_inexact_quotient_raises_under_python_O(statement):
    # python -O strips assert statements; the remainder check must survive it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", statement],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 1
    assert "AssertionError" in proc.stderr and "is not an integer" in proc.stderr


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so the package raises its checks
    modules = sorted(Path(dualdeg.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dead_private_helper():
    # every module-level _name function of the package is read, by name or
    # as an attribute, somewhere in the package outside its own body
    modules = sorted(Path(dualdeg.__file__).parent.glob("*.py"))
    helpers, reads = set(), set()
    for path in modules:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_"):
                helpers.add(top.name)
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner and isinstance(node.ctx, ast.Load):
                    reads.add(name)
    assert len(helpers) >= 60
    assert sorted(helpers - reads) == []


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(-1, 0) == 0
    assert binomial(4, -2) == 0


def _cofactor_det(m):
    if not m:
        return 1
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


def test_determinant_against_cofactors():
    mats = [
        [],
        [[7]],
        [[1, 2], [3, 4]],
        [[0, 1], [1, 0]],
        [[2, 0, 1], [0, 3, 0], [1, 0, 2]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[1, 2, 3, 4], [0, 0, 1, 2], [5, 6, 7, 8], [1, 1, 1, 1]],
    ]
    for m in mats:
        assert determinant(m) == _cofactor_det(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_determinant_of_sparse_matrices(m):
    # the rows a step skips, and the pivot swaps, against the cofactor expansion
    assert determinant(m) == _cofactor_det(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(0, 3), st.randoms(use_true_random=False))
def test_determinant_of_banded_products(n, band, rnd):
    # L unitriangular and 0 more than band places below its diagonal, U upper
    # triangular: L U is as banded, and its determinant is U's diagonal product
    lower = [[1 if i == j else rnd.randint(-2, 2) if 0 < i - j <= band else 0 for j in range(n)] for i in range(n)]
    upper = [[rnd.randint(-3, 3) if j >= i else 0 for j in range(n)] for i in range(n)]
    product = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert determinant(product) == math.prod(upper[i][i] for i in range(n))


def test_determinant_row_swap_changes_sign():
    m = [[1, 4, 2], [3, 1, 5], [2, 2, 2]]
    swapped = [m[1], m[0], m[2]]
    assert determinant(swapped) == -determinant(m)


# The skew count by the nonintersecting-lattice-path determinant has no
# caller in the package; it is kept here with the tests that check it.


def _pad_bounds(seq, size):
    """Pad a bound sequence to the given size by repeating the last value."""
    seq = list(seq)
    if not seq:
        raise ValueError("bound sequence must be nonempty")
    while len(seq) < size:
        seq.append(seq[-1])
    return seq[:size]


def count_skew_ssyt_bounded(lam, mu, lower, upper, size):
    """Count skew semistandard tableaux of shape lam/mu with row i entries in
    [lower_i, upper_i], via the nonintersecting-lattice-path determinant.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return 1
    lam = pad(tuple(lam), size) if len(lam) <= size else tuple(lam)[:size]
    mu = pad(tuple(mu), size) if len(mu) <= size else tuple(mu)[:size]
    if any(mu[i] > lam[i] for i in range(size)):
        raise ValueError("mu must fit inside lam")
    a = _pad_bounds(lower, size)
    b = _pad_bounds(upper, size)
    mat = [
        [
            binomial(
                lam[i] - mu[j] - (i + 1) + (j + 1) + b[i] - a[j],
                lam[i] - mu[j] - (i + 1) + (j + 1),
            )
            for j in range(size)
        ]
        for i in range(size)
    ]
    return determinant(mat)


def test_skew_count_matches_enumeration():
    # straight shapes with entries in [1, n]
    for shape in [(1,), (2,), (2, 1), (3, 1), (2, 2), (3, 2, 1)]:
        for n in range(1, 5):
            got = count_skew_ssyt_bounded(shape, (), [1], [n], len(shape))
            assert got == len(enumerate_ssyt(shape, n)), (shape, n)


def _enumerate_skew_rowbounded(lam, mu, lower, upper):
    """Brute-force skew SSYT with per-row entry bounds."""
    rows = len(lam)
    cells = [(i, j) for i in range(rows) for j in range(mu[i], lam[i])]
    grid = {}
    out = []

    def fill(pos):
        if pos == len(cells):
            out.append(dict(grid))
            return
        i, j = cells[pos]
        low = lower[i]
        if (i, j - 1) in grid:
            low = max(low, grid[(i, j - 1)])
        if (i - 1, j) in grid:
            low = max(low, grid[(i - 1, j)] + 1)
        for v in range(low, upper[i] + 1):
            grid[(i, j)] = v
            fill(pos + 1)
            del grid[(i, j)]

    fill(0)
    return out


def test_skew_count_with_bounds():
    cases = [
        ((3, 2), (1, 0), [1, 1], [3, 3]),
        ((3, 3, 1), (2, 1, 0), [1, 2, 2], [4, 4, 5]),
        ((2, 2), (0, 0), [2, 3], [3, 4]),
    ]
    for lam, mu, lower, upper in cases:
        got = count_skew_ssyt_bounded(lam, mu, lower, upper, len(lam))
        assert got == len(_enumerate_skew_rowbounded(lam, mu, lower, upper))


def test_int_polynomial():
    p = from_histogram([0, 1, 1, 3])
    assert p == (1, 2, 0, 1)
    assert p.evaluate(1) == 4
    assert p.evaluate(2) == 13
    assert str(p) == "1 + 2*t + t^3"
    assert str(IntPolynomial([1, 1])) == "1 + t"
    assert str(IntPolynomial([])) == "0"
    assert IntPolynomial([1, 0]) == IntPolynomial([1])
