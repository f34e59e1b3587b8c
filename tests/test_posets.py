"""Tests for the root poset, widths, facets, and the plane-partition bijection."""

import copy
import hashlib
import itertools
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import diagrams, posets
from dualdeg.diagrams import PlanePartition, c_statistic, enumerate_P
from dualdeg.dualpair import Setting, free_threshold, mp, ostar, real_rank, upq
from dualdeg.posets import (
    PathFamily,
    build_poset,
    corners,
    decompose,
    enumerate_facets,
    theta,
    theta_inverse,
    width,
)

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_SHA256 = {
    "theta_mp_7_k3.txt": "feeb25b9e611534ac6203eaea8fb47787958b6144bbf56f552915428038bb72a",
    "theta_ostar_11_k3.txt": "49e3b39b2e8609429161547d0e29970f827db2caf24290331b9d6947295c443f",
    "theta_upq_7_9_k3.txt": "c5be31816c0d77d9630f57506da594b875dd341e969b0d56c203d79aaa44f589",
}


def test_fixture_files_pinned():
    for name, digest in FIXTURE_SHA256.items():
        raw = (DATA_DIR / name).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name


def _load_fixture(name, setting, k):
    """Parse a frozen fixture into (PlanePartition, facet point frozenset)."""
    lines = (DATA_DIR / name).read_text().splitlines()
    lines = [line for line in lines if not line.startswith("#")]
    split = lines.index("")
    diagram = diagrams.diagram_D(setting, k)
    entries = {}
    for idx, line in enumerate(lines[:split], start=1):
        cols = sorted(c for r, c in diagram if r == idx)
        values = [int(v) for v in line.split()]
        assert len(cols) == len(values)
        entries.update({(idx, c): v for c, v in zip(cols, values)})
    points = frozenset(
        tuple(int(v) for v in line.split()) for line in lines[split + 1 :] if line
    )
    return PlanePartition(diagram, entries), points


def test_poset_shapes_and_labels():
    poset = build_poset(upq(3, 4, 0))
    assert len(poset.points) == 12
    assert poset.label((2, 3)) == (2, 3)
    poset = build_poset(mp(4, 0))
    assert len(poset.points) == 10
    assert poset.label((1, 1)) == (1, 4)  # top row is the long diagonal
    assert poset.label((4, 1)) == (1, 1)
    poset = build_poset(ostar(5, 0))
    assert len(poset.points) == 10
    assert poset.label((2, 3)) == (2, 4)
    try:
        build_poset(Setting("e6"))
        assert False
    except ValueError:
        pass


def test_width_equals_real_rank():
    for setting in [upq(2, 5, 0), upq(3, 3, 0), mp(2, 0), mp(4, 0), ostar(4, 0), ostar(7, 0)]:
        assert width(build_poset(setting)) == real_rank(setting), setting


def test_width_on_subsets():
    poset = build_poset(upq(3, 3, 0))
    assert width(poset, {(1, 1), (2, 2), (3, 3)}) == 1  # a chain
    assert width(poset, {(1, 3), (2, 2), (3, 1)}) == 3  # an antichain
    assert width(poset, set()) == 0


@st.composite
def poset_subsets(draw):
    """A upq, mp or ostar root poset and a subset of at most 14 of its points."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(1, 6)), draw(st.integers(1, 6)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(1, 7)), 0)
    else:
        setting = ostar(draw(st.integers(2, 8)), 0)
    poset = build_poset(setting)
    subset = draw(st.lists(st.sampled_from(sorted(poset.points)), max_size=14, unique=True))
    return poset, subset


def _max_antichain_size(points):
    """Brute force: the size of the largest pairwise-incomparable subset."""
    leq = posets.RootPoset.leq
    for size in range(len(points), 0, -1):
        for combo in itertools.combinations(points, size):
            if not any(leq(a, b) or leq(b, a) for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


@settings(max_examples=200, deadline=None)
@given(poset_subsets())
def test_width_matches_brute_force_antichain(case):
    poset, subset = case
    assert width(poset, set(subset)) == _max_antichain_size(subset)


def test_facet_counts_golden():
    assert len(enumerate_facets(mp(3, 0), 1)) == 4
    assert len(enumerate_facets(upq(4, 5, 0), 2)) == 50
    assert len(enumerate_facets(ostar(6, 0), 1)) == 14
    # at or above the real rank, the unique facet is the whole poset
    for setting in [upq(2, 3, 0), mp(3, 0), ostar(5, 0)]:
        r = real_rank(setting)
        facets = enumerate_facets(setting, r)
        assert len(facets) == 1
        assert facets[0].points == build_poset(setting).points


def _max_width_subsets(poset, k):
    """Brute force: inclusion-maximal subsets of width <= k."""
    pts = sorted(poset.points)
    good = []
    for size in range(len(pts), -1, -1):
        for combo in itertools.combinations(pts, size):
            sub = set(combo)
            if any(sub < g for g in good):
                continue
            if width(poset, sub) <= k:
                good.append(sub)
    return {frozenset(g) for g in good if not any(g < h for h in good)}


def test_facets_match_brute_force():
    for setting in [upq(2, 3, 0), mp(3, 0), ostar(5, 0)]:
        poset = build_poset(setting)
        if len(poset.points) > 10:
            continue
        for k in range(1, real_rank(setting)):
            got = {f.points for f in enumerate_facets(setting, k)}
            assert got == _max_width_subsets(poset, k), (setting, k)


def test_facet_sizes_match_d_k():
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(6, 0)]:
        d0 = len(diagrams.diagram_D0(setting))
        for k in range(1, real_rank(setting)):
            target = d0 - len(diagrams.diagram_D(setting, k))
            for f in enumerate_facets(setting, k):
                assert len(f) == target, (setting, k)


def test_forced_segments_in_every_facet():
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting)):
            _, _, prefixes, suffixes = posets._forced_paths(setting, k)
            forced = {p for seg in prefixes + suffixes for p in seg}
            for f in enumerate_facets(setting, k):
                assert forced <= f.points, (setting, k)


def test_theta_is_a_bijection():
    for setting in [upq(3, 3, 0), mp(4, 0), ostar(6, 0)]:
        for k in range(1, real_rank(setting)):
            facets = {f.points for f in enumerate_facets(setting, k)}
            images = set()
            for pp in enumerate_P(setting, k):
                f = theta(setting, k, pp)
                assert f.points in facets
                images.add(f.points)
                assert theta_inverse(setting, k, f) == pp
            assert images == facets, (setting, k)


def test_corners_count_c_statistic():
    for setting in [upq(3, 3, 0), mp(4, 0), ostar(6, 0)]:
        for k in range(1, real_rank(setting)):
            for pp in enumerate_P(setting, k):
                f = theta(setting, k, pp)
                assert len(corners(setting, k, f)) == c_statistic(pp), (setting, k, pp)
    # the full poset (k >= r) has no corners
    setting = mp(3, 0)
    full = PathFamily(build_poset(setting).points)
    assert corners(setting, 3, full) == set()


def test_decompose_roundtrip():
    setting = upq(3, 4, 0)
    for f in enumerate_facets(setting, 2):
        paths = decompose(setting, 2, f.points)
        assert len(paths) == 2
        assert frozenset(p for path in paths for p in path) == f.points


def test_theta_fixtures():
    cases = [
        ("theta_upq_7_9_k3.txt", upq(7, 9, 3)),
        ("theta_mp_7_k3.txt", mp(7, 3)),
        ("theta_ostar_11_k3.txt", ostar(11, 3)),
    ]
    for name, setting in cases:
        pp, points = _load_fixture(name, setting, setting.k)
        f = theta(setting, setting.k, pp)
        assert f.points == points, name
        assert theta_inverse(setting, setting.k, f) == pp, name
        assert len(corners(setting, setting.k, f)) == c_statistic(pp), name
        d0 = len(diagrams.diagram_D0(setting))
        assert len(f) == d0 - len(diagrams.diagram_D(setting, setting.k)), name


def test_error_cases():
    try:
        enumerate_facets(Setting("so-odd", n=3), 1)
        assert False
    except ValueError:
        pass
    try:
        enumerate_facets(mp(3, 0), 0)
        assert False
    except ValueError:
        pass
    # filling violates the bound
    setting = mp(4, 0)
    diagram = diagrams.diagram_D(setting, 1)
    bad = PlanePartition(diagram, {box: 5 for box in diagram})
    try:
        theta(setting, 1, bad)
        assert False
    except ValueError:
        pass
    # a chain is not a facet point set for k = 1 unless it is maximal
    not_facet = PathFamily(frozenset({(1, 1), (1, 2)}))
    try:
        theta_inverse(setting, 1, not_facet)
        assert False
    except ValueError:
        pass


def test_build_poset_cache_cannot_be_corrupted():
    setting = upq(3, 4, 0)
    first = build_poset(setting)
    assert build_poset(setting) is first
    with pytest.raises(AttributeError):
        first.points = frozenset()
    with pytest.raises(AttributeError):
        first.setting = mp(3, 0)
    with pytest.raises(AttributeError):
        del first.points
    with pytest.raises(AttributeError):
        first.extra = None
    with pytest.raises(AttributeError):
        first.points.add((9, 9))
    again = build_poset(setting)
    assert again.setting == setting and len(again.points) == 12
    assert again.label((2, 3)) == (2, 3)
    assert posets.RootPoset.leq((1, 2), (2, 2)) and not again.leq((1, 3), (2, 2))



@pytest.mark.parametrize("setting", [upq(2, 2, 0), mp(3, 0), ostar(5, 0)])
def test_root_poset_copies_and_pickles(setting):
    poset = build_poset(setting)
    for twin in (copy.copy(poset), copy.deepcopy(poset), pickle.loads(pickle.dumps(poset))):
        assert twin.setting == poset.setting and twin.points == poset.points
        with pytest.raises(AttributeError):
            twin.points = frozenset()
        with pytest.raises(AttributeError):
            del twin.setting
    assert build_poset(setting) is poset

def test_diagram_D_is_a_frozenset():
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(7, 0), Setting("so-even", n=5), Setting("e7")]:
        for k in range(real_rank(setting) + 1):
            boxes = diagrams.diagram_D(setting, k)
            assert isinstance(boxes, frozenset), (setting, k)
            assert diagrams.diagram_D(setting, k) is boxes
            with pytest.raises(AttributeError):
                boxes.add((0, 0))


def test_theta_rejects_bad_input():
    for setting, k in [(upq(3, 3, 0), 1), (mp(4, 0), 1), (ostar(6, 0), 1), (mp(5, 0), 2)]:
        diagram = diagrams.diagram_D(setting, k)
        good = PlanePartition(diagram, {box: 0 for box in diagram})
        image = theta(setting, k, good)  # fills the caches the bad inputs meet
        wrong = diagrams.diagram_D(setting, k + 1)
        # the westmost boxes of the lowest and of the top row; each has a
        # neighbour above resp. to the east
        low = max(diagram, key=lambda box: (box[0], -box[1]))
        top = min(diagram)
        assert (low[0] - 1, low[1]) in diagram and (top[0], top[1] + 1) in diagram
        bad_inputs = [
            PlanePartition(wrong, {box: 0 for box in wrong}),  # the wrong diagram
            PlanePartition(diagram, {box: k + 1 for box in diagram}),  # entries above k
            PlanePartition(diagram, {box: -1 for box in diagram}),  # entries below 0
            PlanePartition(diagram, {**good.entries, low: 1}),  # a column grows upward
            PlanePartition(diagram, {**good.entries, top: 1}),  # a row falls eastward
        ]
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                theta(setting, k, bad)
        # the rejections leave the cached D_k and root poset as they were
        assert diagrams.diagram_D(setting, k) == diagram
        assert theta(setting, k, good).points == image.points
        assert theta_inverse(setting, k, image) == good


def test_theta_inverse_rejects_non_facets():
    for setting, k in [(upq(3, 3, 0), 1), (mp(4, 0), 2), (ostar(6, 0), 1)]:
        facets = enumerate_facets(setting, k)
        points = build_poset(setting).points
        for f in facets:
            for p in f.points:
                with pytest.raises(ValueError):
                    theta_inverse(setting, k, PathFamily(f.points - {p}))
            for p in points - f.points:
                with pytest.raises(ValueError):
                    theta_inverse(setting, k, PathFamily(f.points | {p}))
            assert theta(setting, k, theta_inverse(setting, k, f)).points == f.points


def _theta_oracle(setting, k, pp):
    """theta by the set-based walk: for each t, the set of boxes with entry
    exceeding k - t is built and the walk tests membership in it."""
    posets._require_dual_pair(setting)
    posets._validate_plane_partition(setting, k, pp)
    poset = build_poset(setting)
    if k >= real_rank(setting):
        return PathFamily(poset.points)
    a, b, prefixes, suffixes = posets._forced_paths(setting, k)
    n = setting.n
    paths = []
    for t in range(1, k + 1):
        tall = {box for box, v in pp.entries.items() if v > k - t}
        ar, ac = a[t - 1]
        dr = dc = 0
        segment = [(ar, ac)]
        while True:
            r, c = segment[-1]
            if setting.family == "mp":
                if r + c == n + 1:
                    break
            elif (r, c) == b[t - 1]:
                break
            clamp = setting.family != "mp" and c == b[t - 1][1]
            if (dr + 1, dc + 1) in tall or clamp:
                dr += 1
                segment.append((r + 1, c))
            else:
                dc += 1
                segment.append((r, c + 1))
        paths.append(prefixes[t - 1] + tuple(segment) + suffixes[t - 1])
    points = frozenset(p for path in paths for p in path)
    return PathFamily(points, tuple(paths))


def _theta_inverse_oracle(setting, k, family):
    """theta_inverse by the |D_k| x |path| fill: box (x, y) counts the free
    segments holding a point (dr, dc) with dr >= x and dc <= y - 1."""
    posets._require_dual_pair(setting)
    poset = build_poset(setting)
    diagram = diagrams.diagram_D(setting, k)
    if k >= real_rank(setting):
        if family.points != poset.points:
            raise ValueError("for k >= r the only facet is the whole poset")
        return PlanePartition(frozenset(), {})
    a, b = posets._anchor_points(setting, k)
    paths = family.paths or decompose(setting, k, family.points)
    entries = {}
    rel_segments = []
    for t in range(1, k + 1):
        path = paths[t - 1]
        ar, ac = a[t - 1]
        if (ar, ac) not in path:
            raise ValueError("path misses its anchor")
        i0 = path.index((ar, ac))
        if setting.family == "mp":
            i1 = next(
                (i for i, (r, c) in enumerate(path) if r + c == setting.n + 1), None
            )
            if i1 is None:
                raise ValueError("path misses its terminal anchor")
        else:
            if b[t - 1] not in path:
                raise ValueError("path misses its terminal anchor")
            i1 = path.index(b[t - 1])
        rel_segments.append([(r - ar, c - ac) for r, c in path[i0 : i1 + 1]])
    for box in diagram:
        x, y = box
        entries[box] = sum(
            1
            for seg in rel_segments
            if any(dr >= x and dc <= y - 1 for dr, dc in seg)
        )
    pp = PlanePartition(diagram, entries)
    posets._validate_plane_partition(setting, k, pp)
    if _theta_oracle(setting, k, pp).points != family.points:
        raise ValueError("point set is not a facet")
    return pp


# plane partitions of upq(p, q <= 6), mp(n <= 7) and ostar(n <= 10) over
# every k <= r with #P_k <= 3000, pinned so the sweep cannot shrink unnoticed
THETA_SWEEP_CASES = 10_959


def test_theta_and_inverse_match_the_oracles():
    settings_ = (
        [upq(p, q, 0) for p in range(1, 7) for q in range(1, 7)]
        + [mp(n, 0) for n in range(1, 8)]
        + [ostar(n, 0) for n in range(2, 11)]
    )
    cases = 0
    for setting in settings_:
        for k in range(1, real_rank(setting) + 1):
            if diagrams.count_P_product(setting, k) > 3000:
                continue
            for pp in enumerate_P(setting, k):
                want = _theta_oracle(setting, k, pp)
                got = theta(setting, k, pp)
                assert (got.points, got.paths) == (want.points, want.paths), (setting, k, pp)
                bare = PathFamily(got.points)  # theta_inverse decomposes it
                for family in (got, bare):
                    assert theta_inverse(setting, k, family) == pp, (setting, k, pp)
                    assert _theta_inverse_oracle(setting, k, family) == pp, (setting, k, pp)
                assert corners(setting, k, got) == corners(setting, k, want), (setting, k, pp)
                cases += 1
    assert cases == THETA_SWEEP_CASES


def test_forced_paths_cache_holds_tuples():
    for setting in [upq(3, 4, 0), upq(4, 3, 0), mp(4, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting)):
            a, b, prefixes, suffixes = posets._forced_paths(setting, k)
            assert posets._forced_paths(setting, k)[0] is a  # one cached value
            assert isinstance(a, tuple) and all(isinstance(x, tuple) for x in a)
            if setting.family == "mp":
                assert b is None
            else:
                assert isinstance(b, tuple) and all(isinstance(x, tuple) for x in b)
            for segments in (prefixes, suffixes):
                assert isinstance(segments, tuple) and len(segments) == k
                assert all(isinstance(seg, tuple) for seg in segments)
                assert all(isinstance(x, tuple) for seg in segments for x in seg)
