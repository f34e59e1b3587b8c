"""Tests for diagrams, plane partitions, and Hilbert-series numerators."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualdeg import diagrams
from dualdeg.diagrams import (
    PlanePartition,
    c_statistic,
    count_P_product,
    diagram_D,
    dim_p_plus,
    enumerate_P,
    hilbert_series_orbit,
    interior,
    iter_P,
    normalize,
    numerator_polynomial,
    rectangle,
    shifted_staircase,
    staircase,
)
from dualdeg.dualpair import Setting, free_threshold, mp, ostar, real_rank, upq
from dualdeg.tableaux import IntPolynomial

# the box count and the sha256 of repr(sorted(boxes)) of the e6 and e7
# diagrams D_0, taken when they were read from data files
D0_PINNED = {
    "e6": (16, "e214378b9c31a587d981e2b467520291beaccda8f9cb072b0c15a41256da597b"),
    "e7": (27, "39246aa30860a9d4d22c6d8d90cd90106093211519784070c823900ebac14d69"),
}


def test_exceptional_D0_pinned():
    for family, (size, digest) in D0_PINNED.items():
        boxes = sorted(diagram_D(Setting(family), 0))
        assert len(boxes) == size, family
        assert hashlib.sha256(repr(boxes).encode()).hexdigest() == digest, family


def test_builders():
    assert rectangle(2, 3) == frozenset(
        {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)}
    )
    assert staircase(2) == frozenset({(1, 1), (1, 2), (2, 1)})
    assert shifted_staircase(2) == frozenset({(1, 1), (1, 2), (2, 2)})
    assert rectangle(0, 3) == frozenset()


def test_interior():
    assert interior(rectangle(2, 3)) == rectangle(1, 2)
    assert interior(staircase(3)) == staircase(2)
    assert interior(shifted_staircase(3)) == shifted_staircase(1)
    assert interior(frozenset()) == frozenset()


def test_closed_forms_match_recursion():
    # diagram_D returns the closed form for the dual pairs, and
    # bernstein_degree reads |D_k| from it at every k >= 1: it equals the
    # k-fold interior of D_0, written out here as the p x q rectangle, the
    # staircase(n) and the shifted_staircase(n - 1), for upq p, q <= 13, mp
    # n <= 24 and ostar n <= 24 at k = 0 .. s + 1, s the free threshold:
    # 3,483 cases
    settings_ = [upq(p, q, 0) for p in range(1, 14) for q in range(1, 14)]
    settings_ += [mp(n, 0) for n in range(1, 25)] + [ostar(n, 0) for n in range(1, 25)]
    cases = 0
    for setting in settings_:
        n = setting.n
        boxes = {"upq": rectangle(setting.p, setting.q), "mp": staircase(n), "ostar": shifted_staircase(n - 1)}
        boxes = boxes[setting.family]
        for k in range(0, free_threshold(setting) + 2):
            assert diagram_D(setting, k) == boxes, (setting, k)
            boxes = interior(boxes)
            cases += 1
    assert cases == 3_483


def test_so_closed_form_matches_recursion():
    # diagram_D writes so's D_1 and D_2 down without building D_0: both equal
    # the k-fold interior of D_0 for so-even n = 3..40 and so-odd n = 2..40
    settings_ = [Setting("so-even", n=n) for n in range(3, 41)] + [Setting("so-odd", n=n) for n in range(2, 41)]
    for setting in settings_:
        boxes = diagram_D(setting, 0)
        for k in range(0, real_rank(setting) + 2):
            assert diagram_D(setting, k) == normalize(boxes), (setting, k)
            boxes = diagrams._southwest_interior(boxes)


def _so_D0(setting):
    # the so-even and so-odd D_0 as box sets, written out apart from the runs
    # of the family record
    n = setting.n
    if setting.family == "so-odd":
        return frozenset({(1, c) for c in range(1, n + 1)} | {(2, n - 1)})
    boxes = {(1, c) for c in range(1, n)}
    boxes |= {(2, n - 2), (2, n - 1)}
    boxes |= {(r, n - 1) for r in range(3, n)}
    return frozenset(boxes)


def test_so_D0_pinned():
    # diagram_D lays D_0 out from the runs of the family record; every box
    # set is pinned for so-even n = 3..40 and so-odd n = 2..40
    settings_ = [Setting("so-even", n=n) for n in range(3, 41)] + [Setting("so-odd", n=n) for n in range(2, 41)]
    for setting in settings_:
        assert diagram_D(setting, 0) == _so_D0(setting), setting


def test_level_transfer_needs_no_work_gate_off_the_dual_pairs():
    # _numerator_by_levels reads no work bound for so, e6 and e7: their D_k,
    # the k-fold interior of D_0, has at most 10 boxes at every 1 <= k <= r
    settings_ = [Setting("so-even", n=n) for n in range(3, 61)] + [Setting("so-odd", n=n) for n in range(2, 61)]
    for setting in settings_ + [Setting("e6"), Setting("e7")]:
        boxes = diagram_D(setting, 0)
        for k in range(1, real_rank(setting) + 1):
            boxes = interior(boxes)
            assert len(boxes) == len(diagram_D(setting, k)) <= 10, (setting, k)


def test_level_work_counts_the_filters():
    # the route rule reads #filters |D_k| k from the shape of D_k; here the
    # filters, the fillings bounded by 1, are listed: upq p, q <= 8, mp
    # n <= 14 and ostar n <= 12 at every k and one past the real rank
    settings_ = [upq(p, q, 0) for p in range(1, 9) for q in range(1, 9)]
    settings_ += [mp(n, 0) for n in range(1, 15)] + [ostar(n, 0) for n in range(2, 13)]
    for setting in settings_:
        for k in range(1, real_rank(setting) + 2):
            boxes = diagram_D(setting, k)
            filters = sum(1 for _ in diagrams._fillings(boxes, 1))
            assert diagrams._level_work(setting, k) == filters * len(boxes) * k, (setting, k)


def test_D_r_empty():
    for setting in [
        upq(3, 4, 0),
        mp(3, 0),
        ostar(7, 0),
        Setting("so-even", n=5),
        Setting("so-odd", n=4),
        Setting("e6"),
        Setting("e7"),
    ]:
        r = real_rank(setting)
        assert diagram_D(setting, r) == frozenset(), setting.family
        assert diagram_D(setting, r - 1) != frozenset(), setting.family


def test_d0_sizes_match_dim_p_plus():
    for setting in [
        upq(3, 4, 0),
        mp(4, 0),
        ostar(6, 0),
        Setting("so-even", n=5),
        Setting("e6"),
        Setting("e7"),
    ]:
        assert len(diagram_D(setting, 0)) == dim_p_plus(setting)
    # the odd orthogonal diagram is smaller than dim p+: its single interior
    # box carries weight 2, which the Hilbert exponent accounts for
    assert len(diagram_D(Setting("so-odd", n=4), 0)) == 5
    assert dim_p_plus(Setting("so-odd", n=4)) == 7


def test_low_rank_so_isomorphisms():
    # so(2,3) = sp(4,R), so(2,4) = su(2,2) and so(2,6) = so*(8): the so-family
    # diagrams must match the dual-pair ones drawn independently
    pairs = [
        (Setting("so-odd", n=2), mp(2, 0)),
        (Setting("so-even", n=3), upq(2, 2, 0)),
        (Setting("so-even", n=4), ostar(4, 0)),
    ]
    for so, twin in pairs:
        assert diagram_D(so, 0) == diagram_D(twin, 0), so
        assert dim_p_plus(so) == dim_p_plus(twin) and real_rank(so) == real_rank(twin) == 2
        for k in (1, 2):
            assert hilbert_series_orbit(so, k) == hilbert_series_orbit(twin, k), (so, k)


def test_exceptional_interiors():
    # hand-checked interiors of the exceptional diagrams
    e6 = Setting("e6")
    assert diagram_D(e6, 1) == frozenset(
        {(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)}
    )
    e7 = Setting("e7")
    assert len(diagram_D(e7, 1)) == 10
    assert diagram_D(e7, 2) == frozenset({(1, 1)})


def test_exceptional_peel_stops_once_empty(monkeypatch):
    # each interior pass drops the last row, so D_k is empty from k = |D_0| on
    # and a huge k runs no more passes; __wrapped__ skips the cache
    peel = diagrams._southwest_interior
    for setting in (Setting("e6"), Setting("e7")):
        passes, most = [], len(diagram_D(setting, 0))

        def counted(boxes):
            passes.append(boxes)
            if len(passes) > most:
                raise AssertionError(f"{setting}: more than |D_0| = {most} interior passes")
            return peel(boxes)

        monkeypatch.setattr(diagrams, "_southwest_interior", counted)
        assert diagram_D.__wrapped__(setting, 10**9) == frozenset()
        assert passes, setting


def test_plane_partition_type():
    diagram = rectangle(2, 2)
    pp = PlanePartition(diagram, {(1, 1): 2, (1, 2): 2, (2, 1): 0, (2, 2): 1})
    assert pp.is_monotone()
    assert pp.bound() == 2
    assert pp.entries.get((9, 9), 0) == 0
    bad = PlanePartition(diagram, {(1, 1): 0, (1, 2): 2, (2, 1): 1, (2, 2): 0})
    assert not bad.is_monotone()
    try:
        PlanePartition(diagram, {(1, 1): 1})
        assert False
    except ValueError:
        pass


def test_enumerate_P_golden():
    # single box bounded by k has k+1 fillings
    assert len(enumerate_P(Setting("e7"), 2)) == 3
    # empty diagram has exactly the empty filling
    assert len(enumerate_P(mp(3, 0), 3)) == 1
    # pinned counts
    assert len(enumerate_P(upq(4, 5, 0), 2)) == 50
    assert len(enumerate_P(mp(3, 0), 1)) == 4
    assert len(enumerate_P(ostar(6, 0), 1)) == 14
    # iter_P streams: the all-zero filling comes before any other is built
    fillings = iter_P(upq(7, 7, 0), 2)
    first = next(fillings)
    assert len(first.diagram) == 25 and set(first.entries.values()) == {0}
    assert 1 + sum(1 for _ in fillings) == count_P_product(upq(7, 7, 0), 2) == 19404
    try:
        iter_P(upq(3, 3, 0), 0)  # refused at the call, not at the first filling
        assert False
    except ValueError:
        pass


def test_product_formula_matches_enumeration():
    for setting in [upq(3, 3, 0), upq(4, 5, 0), mp(3, 0), mp(4, 0), ostar(6, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting) + 1):
            if len(diagram_D(setting, k)) > 12:
                continue
            assert count_P_product(setting, k) == len(enumerate_P(setting, k)), (
                setting,
                k,
            )


def test_c_statistic():
    diagram = rectangle(1, 2)
    pp = PlanePartition(diagram, {(1, 1): 1, (1, 2): 2})
    # increments: 1 over nothing, then 2 over the western neighbor 1
    assert c_statistic(pp) == 2
    empty = PlanePartition(frozenset(), {})
    assert c_statistic(empty) == 0


def test_level_fillings_rebuild_the_plane_partition():
    # the identity the level transfer rests on: each level filling
    # pi>=l = [pi(b) >= l] is a plane partition bounded by 1, the levels are
    # nested and sum to pi, and c is additive over them
    cases = [(upq(4, 5, 0), 2), (upq(5, 6, 0), 3), (mp(6, 0), 2), (mp(7, 0), 3), (ostar(9, 0), 2), (ostar(11, 0), 3)]
    cases += [(Setting("e6"), k) for k in (1, 2)] + [(Setting("e7"), k) for k in (1, 2, 3)]
    fillings_seen = 0
    for setting, k in cases:
        for pp in enumerate_P(setting, k):
            levels = [PlanePartition(pp.diagram, {b: int(v >= l) for b, v in pp.entries.items()}) for l in range(1, k + 1)]
            assert all(level.is_monotone() and level.bound() <= 1 for level in levels), (setting, k, pp)
            for upper, lower in zip(levels, levels[1:]):
                assert all(lower.entries[b] <= upper.entries[b] for b in pp.diagram), (setting, k, pp)
            assert {b: sum(level.entries[b] for level in levels) for b in pp.diagram} == pp.entries, (setting, k, pp)
            assert c_statistic(pp) == sum(c_statistic(level) for level in levels), (setting, k, pp)
            fillings_seen += 1
    assert fillings_seen == 6_431


def test_hilbert_series():
    for n in (3, 4, 5):
        num, exponent = hilbert_series_orbit(Setting("so-odd", n=n), 1)
        assert num == IntPolynomial([1, 1])
        assert exponent == 2 * n - 2
    num, exponent = hilbert_series_orbit(Setting("e6"), 2)
    assert num == IntPolynomial([1])
    assert exponent == 16
    num, exponent = hilbert_series_orbit(Setting("e7"), 2)
    assert num == IntPolynomial([1, 1, 1])
    assert exponent == 26
    # numerator at t=1 counts the plane partitions
    for setting, k in [(upq(3, 4, 0), 2), (mp(3, 0), 1), (ostar(6, 0), 2)]:
        num, _ = hilbert_series_orbit(setting, k)
        assert num.evaluate(1) == len(enumerate_P(setting, k))
    # the exponent, read from the numerator's t-coefficient, against the
    # boxes of D_k built as the k-fold interior
    settings_ = [upq(p, q, 0) for p in range(1, 7) for q in range(1, 7)]
    settings_ += [mp(n, 0) for n in range(1, 9)] + [ostar(n, 0) for n in range(1, 11)]
    settings_ += [Setting(family, n=n) for family in ("so-even", "so-odd") for n in range(3, 13)]
    for setting in settings_ + [Setting("e6"), Setting("e7")]:
        for k in range(1, real_rank(setting) + 1):
            _, exponent = hilbert_series_orbit(setting, k)
            assert exponent == dim_p_plus(setting) - len(diagram_D(setting, k)), (setting, k)


def from_histogram(values):
    """Polynomial whose t^m coefficient counts occurrences of m in values."""
    values = list(values)
    coeffs = [0] * (max(values) + 1 if values else 0)
    for v in values:
        coeffs[v] += 1
    return IntPolynomial(coeffs)


def _numerator_by_enumeration(setting, k):
    return from_histogram(c_statistic(p) for p in enumerate_P(setting, k))


def _enumerate_P_by_recursion(setting, k):
    """The plane partitions of D_k by a recursive fill, box by box from the
    bottom row up and left to right in a row: the listing and the order that
    iter_P streams."""
    diagram = diagram_D(setting, k)
    order = sorted(diagram, key=lambda box: (-box[0], box[1]))
    out, entries = [], {}

    def fill(pos):
        if pos == len(order):
            out.append(PlanePartition(diagram, entries))
            return
        r, c = order[pos]
        for v in range(max(entries.get((r + 1, c), 0), entries.get((r, c - 1), 0)), k + 1):
            entries[(r, c)] = v
            fill(pos + 1)
        del entries[(r, c)]

    fill(0)
    return out


def _within_enumeration_budget(setting, k):
    return len(diagram_D(setting, k)) <= 12 or count_P_product(setting, k) <= 5000


@st.composite
def dual_pair_orbits(draw):
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(1, 8)), draw(st.integers(1, 8)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(1, 9)), 0)
    else:
        setting = ostar(draw(st.integers(2, 13)), 0)
    k = draw(st.integers(1, real_rank(setting)))
    assume(_within_enumeration_budget(setting, k))
    return setting, k


def _is_monotone_by_probes(pp):
    """is_monotone by four dict probes per box: each box against its east
    and its south neighbour, where present."""
    for (r, c), v in pp.entries.items():
        if (r, c + 1) in pp.entries and pp.entries[(r, c + 1)] < v:
            return False
        if (r + 1, c) in pp.entries and pp.entries[(r + 1, c)] > v:
            return False
    return True


@st.composite
def fillings(draw):
    """A filling with entries in [-1, k + 1] of D_k for a random upq, mp or
    ostar setting, or of a rectangle, staircase or shifted staircase moved
    off the origin and with some boxes removed, which is no D_k.  Half the
    fillings start from a monotone one, c - r shifted, with one box changed."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(["upq", "mp", "ostar"]))
        if family == "upq":
            setting = upq(draw(st.integers(1, 7)), draw(st.integers(1, 7)), 0)
        elif family == "mp":
            setting = mp(draw(st.integers(1, 8)), 0)
        else:
            setting = ostar(draw(st.integers(2, 12)), 0)
        k = draw(st.integers(1, max(1, real_rank(setting) - 1)))  # D_k is empty at k = r
        diagram = diagram_D(setting, k)
    else:
        k = draw(st.integers(1, 4))
        shape = draw(st.sampled_from([rectangle, staircase, shifted_staircase]))
        size = draw(st.integers(1, 5))
        boxes = shape(size, draw(st.integers(1, 5))) if shape is rectangle else shape(size)
        dr, dc = draw(st.sampled_from([(r, c) for r in range(4) for c in range(4) if r or c]))
        dropped = draw(st.lists(st.sampled_from(sorted(boxes)), unique=True, max_size=len(boxes) - 1))
        diagram = frozenset((r + dr, c + dc) for r, c in boxes.difference(dropped))
    boxes = sorted(diagram)
    if draw(st.booleans()):
        shift = draw(st.integers(-3, 3))
        values = [min(k + 1, max(-1, c - r + shift)) for r, c in boxes]
        if boxes:
            i = draw(st.integers(0, len(boxes) - 1))
            values[i] = min(k + 1, max(-1, values[i] + draw(st.sampled_from([-1, 1]))))
    else:
        values = draw(st.lists(st.integers(-1, k + 1), min_size=len(boxes), max_size=len(boxes)))
    return PlanePartition(diagram, dict(zip(boxes, values)))


@settings(max_examples=300, deadline=None)
@given(fillings())
def test_is_monotone_matches_the_probes(pp):
    assert pp.is_monotone() == _is_monotone_by_probes(pp)


@settings(max_examples=100, deadline=None)
@given(dual_pair_orbits())
def test_transfer_matrix_numerator_matches_enumeration(orbit):
    setting, k = orbit
    assert numerator_polynomial(setting, k) == _numerator_by_enumeration(setting, k)
    # the streamed listing: every filling once, in the recursive fill's order
    assert list(iter_P(setting, k)) == _enumerate_P_by_recursion(setting, k)


def test_transfer_matrix_numerator_matches_enumeration_other_types():
    so = [Setting(family, n=n) for family in ("so-even", "so-odd") for n in range(3, 41)]
    for setting in so + [Setting("e6"), Setting("e7")]:
        for k in range(1, real_rank(setting) + 1):
            assert numerator_polynomial(setting, k) == _numerator_by_enumeration(setting, k), (setting, k)


def test_numerator_polynomial_pinned():
    # computed by listing all 226,512 plane partitions
    num = numerator_polynomial(upq(8, 8, 0), 2)
    assert list(num) == [1, 36, 666, 5300, 22275, 51192, 67572, 51192, 22275, 5300, 666, 36, 1]
    assert num.evaluate(1) == count_P_product(upq(8, 8, 0), 2) == 226_512
    # the empty diagram D_r has the empty filling alone
    assert numerator_polynomial(upq(3, 5, 0), 3) == IntPolynomial([1])


def _numerator_by_columns(setting, k):
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


def test_numerator_polynomial_matches_column_transfer():
    # numerator_polynomial as routed, and for upq, mp and ostar the packed
    # determinants called directly, against the column transfer, every k of
    # every listed setting: 204 upq, 55 mp, 42 ostar, 152 so, 2 e6 and 3 e7
    # cases
    settings_ = [upq(p, q, 0) for p in range(1, 9) for q in range(1, 9)]
    settings_ += [mp(n, 0) for n in range(1, 11)] + [ostar(n, 0) for n in range(1, 14)]
    settings_ += [Setting(family, n=n) for family in ("so-even", "so-odd") for n in range(3, 41)]
    settings_ += [Setting("e6"), Setting("e7")]
    cases = 0
    for setting in settings_:
        for k in range(1, real_rank(setting) + 1):
            expected = _numerator_by_columns(setting, k)
            assert numerator_polynomial(setting, k) == expected, (setting, k)
            if setting.family in ("upq", "mp", "ostar"):
                assert diagrams._numerator_by_determinant(setting, k) == expected, (setting, k)
            cases += 1
    assert cases == 458


# Computed with the column transfer.  The coefficients run far past 2**32, so
# a packed coefficient field that is too narrow would carry into the next one.
LARGE_NUMERATORS = {
    (upq(12, 12, 0), 4): [
        1, 64, 2080, 45760, 766480, 9796864, 95588416, 721287424, 4271590180,
        20073356160, 75507679104, 229037707392, 563586279984, 1130150911680,
        1853241017760, 2491159601216, 2748902676806, 2491159601216,
        1853241017760, 1130150911680, 563586279984, 229037707392, 75507679104,
        20073356160, 4271590180, 721287424, 95588416, 9796864, 766480, 45760,
        2080, 64, 1,
    ],
    (mp(15, 0), 3): [
        1, 78, 3081, 82160, 1166880, 9767472, 51833496, 180060192, 420282720,
        670132320, 735182448, 556256064, 288812888, 101614800, 23791560,
        3583008, 330759, 18018, 455,
    ],
    (ostar(19, 0), 3): [
        1, 78, 3081, 82160, 1588158, 23052744, 258111568, 2273142300,
        15982573035, 90788704578, 420665772021, 1602276746304, 5048756322272,
        13228420026330, 28939768220025, 53032846821526, 81603532833108,
        105613513555836, 115082355441625, 105613513555836, 81603532833108,
        53032846821526, 28939768220025, 13228420026330, 5048756322272,
        1602276746304, 420665772021, 90788704578, 15982573035, 2273142300,
        258111568, 23052744, 1588158, 82160, 3081, 78, 1,
    ],
    # computed with an earlier box-by-box transfer (116,424 states, about 5 s
    # and 140 MB); numerator_polynomial takes the packed route here
    (mp(18, 0), 5): [
        1, 91, 4186, 129766, 3049501, 57940519, 855094240, 9587749600,
        82282383820, 549198051780, 2891682413256, 12136734684984,
        40934373531324, 111683602501044, 247815371283324, 449023679959764,
        666302820570660, 811266222306540, 811266222306540, 666302820570660,
        449023679959764, 247815371283324, 111683602501044, 40934373531324,
        12136734684984, 2891682413256, 549198051780, 82282383820, 9587749600,
        855094240, 57940519, 3049501, 129766, 4186, 91, 1,
    ],
}


def test_numerator_polynomial_large_coefficients():
    for (setting, k), coeffs in LARGE_NUMERATORS.items():
        num = numerator_polynomial(setting, k)
        assert list(num) == coeffs, (setting, k)
        assert num.evaluate(1) == count_P_product(setting, k), (setting, k)
    assert count_P_product(upq(12, 12, 0), 4) == 15_484_613_937_936
    assert count_P_product(mp(15, 0), 3) == 3_042_918_400
    assert count_P_product(ostar(19, 0), 3) == 694_280_570_551_875
    # the level transfer, where its gate admits the setting (ostar(19) k=3,
    # with 742,900 filters of 78 boxes, is above it), gives the same
    # coefficients
    for setting, k in [(upq(12, 12, 0), 4), (mp(15, 0), 3), (mp(18, 0), 5)]:
        assert list(diagrams._numerator_by_levels(setting, k)) == LARGE_NUMERATORS[setting, k], (setting, k)
    with pytest.raises(ValueError, match="level-transfer work"):
        diagrams._numerator_by_levels(ostar(19, 0), 3)
    # the box and the shifted staircase give palindromic numerators
    for setting, k in [(upq(12, 12, 0), 4), (ostar(19, 0), 3)]:
        coeffs = LARGE_NUMERATORS[setting, k]
        assert coeffs == coeffs[::-1], (setting, k)


def test_numerator_determinant_matches_level_transfer():
    # the determinants of upq and ostar, called directly whichever route the
    # rule picks, against their oracle, the level transfer, at every k under
    # its gate: 285 upq and 49 ostar cases
    settings_ = [upq(p, q, 0) for p in range(1, 10) for q in range(1, 10)]
    settings_ += [ostar(n, 0) for n in range(1, 15)]
    cases = 0
    for setting in settings_:
        for k in range(1, real_rank(setting) + 1):
            levels = diagrams._numerator_by_levels(setting, k)
            assert diagrams._numerator_by_determinant(setting, k) == levels, (setting, k)
            assert numerator_polynomial(setting, k) == levels, (setting, k)
            cases += 1
    assert cases == 334


def test_numerator_determinant_beyond_the_box_transfer():
    # beyond the reach of an earlier box-by-box transfer (upq(16,16) k=6 ran
    # past 100 s) and above the level transfer's gate, so checked by
    # properties that need no oracle
    for setting, k in [(upq(16, 16, 0), 6), (upq(20, 20, 0), 8), (ostar(24, 0), 6), (ostar(30, 0), 8)]:
        with pytest.raises(ValueError, match="level-transfer work"):
            diagrams._numerator_by_levels(setting, k)
        num = numerator_polynomial(setting, k)
        assert num[0] == 1, (setting, k)
        assert num[1] == len(diagram_D(setting, k)), (setting, k)
        assert num.evaluate(1) == count_P_product(setting, k), (setting, k)
        assert list(num) == list(num)[::-1], (setting, k)


def test_numerator_determinant_refuses_a_wrong_count(monkeypatch):
    # the digit-sum guard: a #P_k off by one must raise, not unpack
    true_count = diagrams.count_P_product
    monkeypatch.setattr(diagrams, "count_P_product", lambda setting, k: true_count(setting, k) + 1)
    for setting, k in [(upq(5, 6, 0), 1), (upq(7, 7, 0), 2), (upq(6, 8, 0), 3), (ostar(9, 0), 1), (ostar(12, 0), 3)]:
        with pytest.raises(AssertionError, match=r"N\(1\)"):
            numerator_polynomial(setting, k)


def test_numerator_molien_matches_level_transfer():
    # the Molien determinants of mp, called directly whichever route the rule
    # picks, against their oracle, the level transfer: every mp(n) with
    # n <= 14 at 1 <= k <= n - 1, 91 cases; deg N = k floor((n-k+1)/2)
    cases = 0
    for n in range(2, 15):
        for k in range(1, n):
            setting = mp(n, 0)
            num = diagrams._numerator_by_determinant(setting, k)
            assert num == diagrams._numerator_by_levels(setting, k), (n, k)
            assert numerator_polynomial(setting, k) == num, (n, k)
            assert len(num) == k * ((n - k + 1) // 2) + 1, (n, k)
            cases += 1
    assert cases == 91
    # n = 1, k = 1: the Veronese series, whose D_1 is empty
    assert numerator_polynomial(mp(1, 0), 1) == IntPolynomial([1])


def test_numerator_molien_guards(monkeypatch):
    # planted faults in the packed route must raise, not unpack
    cases = [(2, 1), (5, 2), (6, 3), (9, 4), (12, 5), (15, 7), (15, 8)]
    others = [(upq(5, 6, 0), 1), (upq(7, 7, 0), 2), (upq(6, 8, 0), 3), (ostar(9, 0), 1), (ostar(12, 0), 3)]
    # a determinant off by one adds the blocks' factors to the sum.  mp: at
    # k >= 3 the power of (1 - t^2) no longer divides it; at k = 2, where
    # that power is 1, 1 + (1 - t^2)^(n-1) adds an odd coefficient or
    # N(0) = 2; at k = 1, where both add, N(0) = 2.  upq and ostar: t^C(k,2)
    # leaves a remainder at k >= 2, and N(0) = 2 at k = 1
    true_determinant = diagrams.determinant
    with monkeypatch.context() as patch:
        patch.setattr(diagrams, "determinant", lambda matrix: true_determinant(matrix) + 1)
        for setting, k in [(mp(n, 0), k) for n, k in cases] + others:
            with pytest.raises(AssertionError, match=r"is not a positive multiple|is not 2 N|N\(0\) = 2,"):
                numerator_polynomial(setting, k)
    # an entry off by one via _pack: for mp a sum that (1 - t^2)^e, e >= 1,
    # does not divide; for upq and ostar one that t^C(k,2) does not divide,
    # or a quotient with N(0) > 1 (ostar(12) k=3 gives 3)
    true_pack = diagrams._pack
    with monkeypatch.context() as patch:
        patch.setattr(diagrams, "_pack", lambda coeffs, width: true_pack(coeffs, width) + 1)
        for n, k in cases[2:]:
            with pytest.raises(AssertionError, match="is not a positive multiple"):
                numerator_polynomial(mp(n, 0), k)
        for setting, k in others:
            with pytest.raises(AssertionError, match=r"is not a positive multiple|N\(0\) = [2-9],"):
                numerator_polynomial(setting, k)
    # a negated determinant: a quotient < 0 for upq and ostar
    with monkeypatch.context() as patch:
        patch.setattr(diagrams, "determinant", lambda matrix: -true_determinant(matrix))
        for setting, k in others:
            with pytest.raises(AssertionError, match="is not a positive multiple"):
                numerator_polynomial(setting, k)
    # an odd power of t that leaves every other coefficient as it is: mp only
    true_unpack = diagrams._unpack
    with monkeypatch.context() as patch:
        patch.setattr(
            diagrams,
            "_unpack",
            lambda *args: IntPolynomial(c + (i == 1) for i, c in enumerate(list(true_unpack(*args)) + [0, 0])),
        )
        for n, k in cases:
            with pytest.raises(AssertionError, match="is not 2 N"):
                numerator_polynomial(mp(n, 0), k)
    # and a #P_k off by one: the digit-sum guard
    true_count = diagrams.count_P_product
    monkeypatch.setattr(diagrams, "count_P_product", lambda setting, k: true_count(setting, k) + 1)
    for n, k in cases:
        with pytest.raises(AssertionError, match=r"N\(1\)"):
            numerator_polynomial(mp(n, 0), k)


def test_numerator_molien_beyond_the_box_transfer():
    # mp(20) k=6 took 49 s and 1 GB by an earlier box-by-box transfer; the
    # level transfer checks the two its gate admits (mp(20) k=6 in about
    # 0.8 s), and properties that need no oracle check all four
    for setting, k, admitted in [(mp(20, 0), 6, True), (mp(21, 0), 9, True), (mp(24, 0), 4, False), (mp(30, 0), 10, False)]:
        num = numerator_polynomial(setting, k)
        if admitted:
            assert diagrams._numerator_by_levels(setting, k) == num, (setting, k)
        else:
            with pytest.raises(ValueError, match="level-transfer work"):
                diagrams._numerator_by_levels(setting, k)
        assert num[0] == 1, (setting, k)
        assert num[1] == len(diagram_D(setting, k)), (setting, k)
        assert num.evaluate(1) == count_P_product(setting, k), (setting, k)
        assert min(num) > 0 and len(num) == k * ((setting.n - k + 1) // 2) + 1, (setting, k)


def test_molien_budget_is_inclusive(monkeypatch):
    # the packed budget, on size^3 (size * widest entry's bits)^2 summed over
    # the blocks: mp(10) k=4 has 2^3 (2 * 379)^2 + 1^3 (1 * 379)^2 and
    # upq(7,7) k=2 has 2^3 (2 * 97)^2.  Each is refused one below its bound,
    # before any determinant is taken, and runs at it
    for setting, k, bound in [(mp(10, 0), 4, 4_740_153), (upq(7, 7, 0), 2, 301_088)]:
        with monkeypatch.context() as patch:
            patch.setattr(diagrams, "_PACKED_COST", bound - 1)
            patch.setattr(diagrams, "determinant", None)
            with pytest.raises(ValueError, match=f"packed bit-operation bound={bound} > limit {bound - 1}"):
                diagrams._numerator_by_determinant(setting, k)
        monkeypatch.setattr(diagrams, "_PACKED_COST", bound)
        assert diagrams._numerator_by_determinant(setting, k) == diagrams._numerator_by_levels(setting, k), setting


def test_level_transfer_work_budget(monkeypatch):
    # the heaviest oracle run, ostar(14) k=1: at k = 1 the filters are P_1,
    # so it reads 208,012 filters of 66 boxes, under the budget
    assert count_P_product(ostar(14, 0), 1) * len(diagram_D(ostar(14, 0), 1)) == 13_728_792 <= diagrams._LEVEL_WORK
    # refused at entry, before D_k is built; the message reads the exact
    # work from the shape of D_k
    monkeypatch.setattr(diagrams, "diagram_D", lambda *args: pytest.fail("D_k was built"))
    for setting, k, work in [
        (mp(40, 0), 20, 4_404_019_200),
        (mp(40, 0), 25, 98_304_000),
        (upq(34, 34, 0), 11, 47_910_333_403_904_400),
        (ostar(19, 0), 3, 173_838_600),
    ]:
        with pytest.raises(ValueError, match=f"^level-transfer work bound={work} > limit 30000000$"):
            diagrams._numerator_by_levels(setting, k)
    monkeypatch.undo()
    # settings above the packed budget whose D_k is tiny still run
    for setting, k in [(upq(60, 60, 0), 58), (mp(60, 0), 58)]:
        num = diagrams._numerator_by_levels(setting, k)
        assert num.evaluate(1) == count_P_product(setting, k) and num[1] == len(diagram_D(setting, k)), setting


def test_level_transfer_bit_budget(monkeypatch):
    # the second budget, read once the filters are listed, before any level
    # step: #filters |D_k| k (k c_max + 1) B.  ostar(88) k=39 (16,796
    # filters of 45 boxes, c_max 9, B = 272) took 16 s and 280 MB, and
    # upq(44,44) k=36 8.8 s and 190 MB; upq(23,40) k=19 (6.6e11) runs in
    # about 2 s
    monkeypatch.setattr(diagrams, "_level_step", _take)
    for setting, k, bits in [(ostar(88, 0), 39, 2_822_243_973_120), (upq(44, 44, 0), 36, 3_307_852_753_920)]:
        with pytest.raises(ValueError, match=f"^level-transfer bit bound={bits} > limit 1000000000000$"):
            diagrams._numerator_by_levels(setting, k)
    with pytest.raises(_Taken):
        diagrams._numerator_by_levels(upq(23, 40, 0), 19)
    monkeypatch.undo()
    # inclusive: mp(10) k=4, 5,376 (4 * 3 + 1) 65
    monkeypatch.setattr(diagrams, "_LEVEL_BITS", 4_542_719)
    with pytest.raises(ValueError, match="bit bound=4542720 > limit 4542719"):
        diagrams._numerator_by_levels(mp(10, 0), 4)
    monkeypatch.setattr(diagrams, "_LEVEL_BITS", 4_542_720)
    assert diagrams._numerator_by_levels(mp(10, 0), 4) == diagrams._numerator_by_determinant(mp(10, 0), 4)


def test_level_transfer_budget_is_inclusive(monkeypatch):
    # mp(10) k=4: 64 filters of the 21 boxes of staircase(6), work
    # 64 * 21 * 4 = 5,376: refused one below, run at it
    monkeypatch.setattr(diagrams, "_LEVEL_WORK", 5_375)
    with pytest.raises(ValueError, match="bound=5376 > limit 5375"):
        diagrams._numerator_by_levels(mp(10, 0), 4)
    monkeypatch.setattr(diagrams, "_LEVEL_WORK", 5_376)
    assert diagrams._numerator_by_levels(mp(10, 0), 4) == numerator_polynomial(mp(10, 0), 4)


class _Taken(Exception):
    pass


def _take(*args):
    raise _Taken


def test_numerator_polynomial_routes_by_cost(monkeypatch):
    # each call is traced without the work: the determinants and the level
    # steps are replaced by _take, so a route is taken once its gates pass.
    # A dual pair takes the level transfer where #filters |D_k| k is at most
    # min(_LEVEL_WORK, 5 s^3), s = k (floor(k/2) for mp), and falls back to
    # the packed route under _PACKED_COST; else the packed route first, and
    # the level transfer under its budgets if that refuses
    trace = []

    def spy(name, route):
        def call(setting, k):
            try:
                route(setting, k)
            except ValueError:
                trace.append((name, "refused"))
                raise
            except _Taken:
                pass
            trace.append(name)
            raise _Taken

        return call

    monkeypatch.setattr(diagrams, "determinant", _take)
    monkeypatch.setattr(diagrams, "_level_step", _take)
    monkeypatch.setattr(diagrams, "_numerator_by_determinant", spy("packed", diagrams._numerator_by_determinant))
    monkeypatch.setattr(diagrams, "_numerator_by_levels", spy("levels", diagrams._numerator_by_levels))

    def route(setting, k):
        trace.clear()
        with pytest.raises((_Taken, ValueError)) as outcome:
            numerator_polynomial(setting, k)
        return trace + (["exit 2"] if outcome.type is ValueError else [])

    # so-even, so-odd, e6 and e7 take the level transfer alone
    for setting in [Setting("so-even", n=8), Setting("so-odd", n=8), Setting("e6"), Setting("e7")]:
        for k in range(1, real_rank(setting) + 1):
            assert route(setting, k) == ["levels"], (setting, k)
    refused = ("levels", "refused")
    cases = [
        # work at 5 s^3 and just above it: upq(3,6) k=2 has 40 = 5 * 2^3,
        # upq(4,4) k=2 48, mp(20) k=16 2,560 = 5 * 8^3 and mp(21) k=17 2,720
        (upq(3, 6, 0), 2, ["levels"]),
        (upq(4, 4, 0), 2, ["packed"]),
        (mp(20, 0), 16, ["levels"]),
        (mp(21, 0), 17, ["packed"]),
        # far above 5 s^3, where the determinants are cheap
        (upq(7, 7, 0), 2, ["packed"]),
        (mp(40, 0), 14, ["packed"]),
        (upq(33, 33, 0), 11, ["packed"]),
        (ostar(30, 0), 8, ["packed"]),
        # a tiny D_k at large k
        (mp(30, 0), 28, ["levels"]),
        (upq(20, 20, 0), 18, ["levels"]),
        (ostar(60, 0), 28, ["levels"]),
        (mp(60, 0), 58, ["levels"]),
        (upq(60, 60, 0), 58, ["levels"]),
        # above the packed budget: the level transfer under its own budgets
        (mp(60, 0), 50, [("packed", "refused"), "levels"]),
        (upq(30, 30, 0), 24, [("packed", "refused"), "levels"]),
        (mp(40, 0), 20, [("packed", "refused"), refused, "exit 2"]),
        (upq(34, 34, 0), 11, [("packed", "refused"), refused, "exit 2"]),
        (ostar(42, 0), 14, [("packed", "refused"), refused, "exit 2"]),
        (upq(44, 44, 0), 36, [("packed", "refused"), refused, "exit 2"]),
        (ostar(88, 0), 39, [("packed", "refused"), refused, "exit 2"]),
    ]
    for setting, k, expected in cases:
        assert route(setting, k) == expected, (setting, k)
    # the rule's multiplier is read at call time, and inclusive: upq(3,6) k=2
    # turns to the packed route once 5 s^3 = 40 falls below its work
    monkeypatch.setattr(diagrams, "_LEVEL_PER_CUBE", 4)
    assert route(upq(3, 6, 0), 2) == ["packed"]
    # under the work budget but above the bit budget: the packed route
    monkeypatch.setattr(diagrams, "_LEVEL_PER_CUBE", 5)
    monkeypatch.setattr(diagrams, "_LEVEL_BITS", 0)
    assert route(mp(30, 0), 28) == [refused, "packed"]
    # each route runs at most once: when both refuse, the level transfer is
    # not tried again after the packed route
    monkeypatch.setattr(diagrams, "_PACKED_COST", 0)
    assert route(mp(30, 0), 28) == [refused, ("packed", "refused"), "exit 2"]
    # an empty D_k gives 1 before any route
    for setting, k in [(upq(4, 6, 0), 4), (mp(1, 0), 1), (ostar(9, 0), 4)]:
        trace.clear()
        assert numerator_polynomial(setting, k) == (1,) and trace == [], (setting, k)


def test_numerator_levels_route_guards(monkeypatch):
    # settings routed to the level transfer keep the packed route's guards:
    # N(0) = 1 and N(1) = #P_k, or AssertionError
    routed = [(mp(30, 0), 28), (upq(20, 20, 0), 18), (ostar(60, 0), 28), (upq(3, 6, 0), 2), (mp(60, 0), 50)]
    monkeypatch.setattr(diagrams, "determinant", _take)
    for setting, k in routed:
        num = numerator_polynomial(setting, k)
        assert num[0] == 1 and num.evaluate(1) == count_P_product(setting, k), (setting, k)
    true_unpack = diagrams._unpack
    with monkeypatch.context() as patch:
        patch.setattr(diagrams, "_unpack", lambda *args: IntPolynomial([2, *true_unpack(*args)[1:]]))
        for setting, k in routed:
            with pytest.raises(AssertionError, match=r"^level fillings for .* give N\(0\) = 2, not 1$"):
                numerator_polynomial(setting, k)
    true_count = diagrams.count_P_product
    monkeypatch.setattr(diagrams, "count_P_product", lambda setting, k: true_count(setting, k) + 1)
    for setting, k in routed:
        with pytest.raises(AssertionError, match=r"^level fillings for .* give N\(1\) = \d+, not #P_k"):
            numerator_polynomial(setting, k)


@st.composite
def both_route_orbits(draw):
    """upq, mp and ostar settings with k <= 16 whose D_k has at most 6 rows
    and 6 columns: inside both routes' budgets, and quick on either."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    k = draw(st.integers(1, 16))
    if family == "upq":
        return upq(k + draw(st.integers(0, 6)), k + draw(st.integers(0, 6)), 0), k
    if family == "mp":
        return mp(k + draw(st.integers(0, 6)), 0), k
    return ostar(2 * k + 1 + draw(st.integers(0, 6)), 0), k


@settings(max_examples=100, deadline=None)
@given(both_route_orbits())
@example((upq(22, 22, 0), 16))  # packed bound 2.5e12, level work 5.3e5
@example((mp(20, 0), 14))  # 7 x 7 and 6 x 6 Baik-Rains blocks, level work 18,816
def test_numerator_routes_agree(orbit):
    # whichever route the rule picks, the other gives the same numerator,
    # with N(0) = 1 and N(1) = #P_k
    setting, k = orbit
    levels = diagrams._numerator_by_levels(setting, k)
    assert levels == diagrams._numerator_by_determinant(setting, k), orbit
    assert levels[0] == 1 and levels.evaluate(1) == count_P_product(setting, k), orbit


@st.composite
def level_transfer_orbits(draw):
    """Small upq, mp and ostar settings, with k, under the level transfer's
    gate."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(1, 8)), draw(st.integers(1, 8)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(1, 12)), 0)
    else:
        setting = ostar(draw(st.integers(2, 14)), 0)
    return setting, draw(st.integers(1, real_rank(setting)))


@settings(max_examples=150, deadline=None)
@given(level_transfer_orbits())
def test_numerator_polynomial_matches_level_transfer_on_either_route(orbit):
    # the determinants called directly, as routed, and with the packed
    # budget at 0, so that every setting whose blocks are not all 0 x 0 takes
    # the level transfer
    setting, k = orbit
    expected = diagrams._numerator_by_levels(setting, k)
    assert diagrams._numerator_by_determinant(setting, k) == expected
    assert numerator_polynomial(setting, k) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagrams, "_PACKED_COST", 0)
        assert numerator_polynomial(setting, k) == expected


def _balanced_coefficients(width):
    """(width, coefficients), each coefficient a balanced base-2^width digit."""
    half = 1 << (width - 1)
    return st.tuples(st.just(width), st.lists(st.integers(-half, half - 1), max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(_balanced_coefficients))
@example((2, [-2]))  # -2^(w-1), the least digit
@example((5, [3, -16, 15, -7]))  # a negative leading coefficient
@example((3, [0, 3, -4]))  # -2^(w-1) leading
def test_pack_unpack_round_trip(case):
    # the codec of every packed route: digits in [-2^(w-1), 2^(w-1)), so a
    # coefficient of either sign unpacks as it was packed
    width, coeffs = case
    assert diagrams._unpack(diagrams._pack(coeffs, width), width) == IntPolynomial(coeffs)


def _count_P_boxes(setting, k):
    """#P_k by the box product, one factor (h + step k) / h per box of D_k,
    the hooks h = i + j - 1 of the a x b rectangle for upq, and
    h = i + j + step - 2 over 1 <= i <= j <= a for the staircases: the
    reference for count_P_product's row binomials."""
    f, a, b = diagrams._dual_pair_shape(setting, k)
    step = diagrams.FAMILIES[f].step
    if f == "upq":
        hooks = [i + j - 1 for i in range(1, a + 1) for j in range(1, b + 1)]
    else:
        hooks = [i + j + step - 2 for i in range(1, a + 1) for j in range(i, a + 1)]
    num = den = 1
    for h in hooks:
        num *= h + step * k
        den *= h
    assert num % den == 0
    return num // den


def test_count_P_product_matches_the_box_product():
    # one binomial ratio per row of D_k against one factor per box
    for p in range(1, 11):
        for q in range(1, 11):
            for k in range(1, 14):
                assert count_P_product(upq(p, q, 0), k) == _count_P_boxes(upq(p, q, 0), k), (p, q, k)
    for n in range(1, 18):
        for k in range(1, 22):
            assert count_P_product(mp(n, 0), k) == _count_P_boxes(mp(n, 0), k), (n, k)
            if n >= 2:
                assert count_P_product(ostar(n, 0), k) == _count_P_boxes(ostar(n, 0), k), (n, k)


def _count_P_fraction(setting, k):
    """#P_k by the product formulas as one normalised Fraction per factor."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = setting.family
    result = Fraction(1)
    if f == "upq":
        for i in range(1, setting.p - k + 1):
            for j in range(1, setting.q - k + 1):
                result *= Fraction(k + i + j - 1, i + j - 1)
    elif f == "mp":
        m = setting.n - k
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                result *= Fraction(k + i + j - 1, i + j - 1)
    elif f == "ostar":
        m = setting.n - 2 * k - 1
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                result *= Fraction(2 * k + i + j, i + j)
    else:
        raise ValueError(f"no product formula for family {f!r}")
    assert result.denominator == 1
    return int(result)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(upq, st.integers(1, 14), st.integers(1, 14), st.integers(1, 16)),
        st.builds(mp, st.integers(1, 16), st.integers(1, 34)),
        st.builds(ostar, st.integers(1, 24), st.integers(1, 25)),
    )
)
def test_count_P_product_matches_fraction_product(setting):
    assert count_P_product(setting, setting.k) == _count_P_fraction(setting, setting.k)
