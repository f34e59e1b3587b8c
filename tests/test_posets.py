"""Tests for widths on the root poset D_0, facets, and the plane-partition bijection."""

import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualdeg import diagrams, jellyfish, posets
from dualdeg.diagrams import PlanePartition, c_statistic, enumerate_P
from dualdeg.dualpair import Setting, mp, ostar, real_rank, upq
from dualdeg.posets import (
    PathFamily,
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


def test_lattice_path_entries_read_the_one_cached_D0(monkeypatch):
    # iter_facets, theta, theta_inverse and corners read diagram_D(setting, 0)
    # itself: with the builders of D_0 broken they still run once D_k is
    # cached, and at k >= r the one facet holds that very frozenset
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(6, 0)]:
        r = real_rank(setting)
        d0, _, _ = (diagrams.diagram_D(setting, k) for k in (0, 1, r))
        for name in ("rectangle", "staircase", "shifted_staircase"):
            monkeypatch.setattr(diagrams, name, None)
        posets._frame.cache_clear()
        for k in (1, r):
            facets = list(posets.iter_facets(setting, k))
            for f in facets:
                image = theta(setting, k, theta_inverse(setting, k, f))
                assert image.points == f.points
                corners(setting, k, image)
        assert facets == [PathFamily(d0)] and facets[0].points is d0
        assert theta(setting, r, PlanePartition(frozenset(), {})).points is d0
        assert corners(setting, r, PathFamily(d0)) == set()
        monkeypatch.undo()


def test_facet_geometry_reads_the_one_cached_frame(monkeypatch):
    # once _frame(setting, k) is built, iter_facets, theta, theta_inverse and
    # corners read nothing else of the shape: with real_rank, diagram_D and
    # _dual_pair_shape broken they still round-trip every filling
    cases = []
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting) + 1):
            posets._frame(setting, k)
            cases.append((setting, k, enumerate_P(setting, k)))

    def broken(*args):
        raise AssertionError(f"read outside the frame: {args}")

    monkeypatch.setattr(posets, "real_rank", broken)
    monkeypatch.setattr(diagrams, "diagram_D", broken)
    monkeypatch.setattr(diagrams, "_dual_pair_shape", broken)
    for setting, k, fillings in cases:
        images = set()
        for pp in fillings:
            image = theta(setting, k, pp)
            images.add(image.points)
            for family in (image, PathFamily(image.points)):
                assert theta_inverse(setting, k, family) == pp, (setting, k, pp)
                assert len(corners(setting, k, family)) == c_statistic(pp), (setting, k, pp)
        assert images == {f.points for f in enumerate_facets(setting, k)}, (setting, k)
        assert len(images) == len(fillings), (setting, k)


def test_poset_shapes_and_labels():
    # D_0 holds the positive noncompact roots; jellyfish._points labels its
    # boxes, against the roots written out: i <= p, j <= q for upq, i < j <= n
    # for ostar
    for p in range(1, 7):
        for q in range(1, 7):
            want = {(i, j) for i in range(1, p + 1) for j in range(1, q + 1)}
            assert jellyfish._points(upq(p, q, 0)) == want, (p, q)
            assert len(diagrams.diagram_D(upq(p, q, 0), 0)) == p * q
    for n in range(2, 10):
        want = {(i, j) for j in range(1, n + 1) for i in range(1, j)}
        assert jellyfish._points(ostar(n, 0)) == want, n
    assert len(diagrams.diagram_D(mp(4, 0), 0)) == 10
    for entry in (lambda s: enumerate_facets(s, 1), lambda s: corners(s, 1, PathFamily(frozenset()))):
        with pytest.raises(ValueError, match="lattice-path machinery"):
            entry(Setting("e6"))


def test_width_equals_real_rank():
    for setting in [upq(2, 5, 0), upq(3, 3, 0), mp(2, 0), mp(4, 0), ostar(4, 0), ostar(7, 0)]:
        assert width(diagrams.diagram_D(setting, 0)) == real_rank(setting), setting


def test_width_on_subsets():
    assert width({(1, 1), (2, 2), (3, 3)}) == 1  # a chain
    assert width({(1, 3), (2, 2), (3, 1)}) == 3  # an antichain
    assert width(set()) == 0


@st.composite
def poset_subsets(draw):
    """A subset of at most 14 boxes of the D_0 of a upq, mp or ostar setting."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(1, 6)), draw(st.integers(1, 6)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(1, 7)), 0)
    else:
        setting = ostar(draw(st.integers(2, 8)), 0)
    return draw(st.lists(st.sampled_from(sorted(diagrams.diagram_D(setting, 0))), max_size=14, unique=True))


def _max_antichain_size(points):
    """Brute force: the size of the largest pairwise-incomparable subset
    under the product order."""
    leq = lambda a, b: a[0] <= b[0] and a[1] <= b[1]
    for size in range(len(points), 0, -1):
        for combo in itertools.combinations(points, size):
            if not any(leq(a, b) or leq(b, a) for a, b in itertools.combinations(combo, 2)):
                return size
    return 0


@settings(max_examples=200, deadline=None)
@given(poset_subsets())
def test_width_matches_brute_force_antichain(subset):
    assert width(set(subset)) == _max_antichain_size(subset)


def test_facet_counts_golden():
    assert len(enumerate_facets(mp(3, 0), 1)) == 4
    assert len(enumerate_facets(upq(4, 5, 0), 2)) == 50
    assert len(enumerate_facets(ostar(6, 0), 1)) == 14
    # at or above the real rank, the unique facet is the whole poset
    for setting in [upq(2, 3, 0), mp(3, 0), ostar(5, 0)]:
        r = real_rank(setting)
        facets = enumerate_facets(setting, r)
        assert len(facets) == 1
        assert facets[0].points == diagrams.diagram_D(setting, 0)


def _max_width_subsets(points, k):
    """Brute force: inclusion-maximal subsets of width <= k."""
    pts = sorted(points)
    good = []
    for size in range(len(pts), -1, -1):
        for combo in itertools.combinations(pts, size):
            sub = set(combo)
            if any(sub < g for g in good):
                continue
            if width(sub) <= k:
                good.append(sub)
    return {frozenset(g) for g in good if not any(g < h for h in good)}


def test_facets_match_brute_force():
    for setting in [upq(2, 3, 0), mp(3, 0), ostar(5, 0)]:
        points = diagrams.diagram_D(setting, 0)
        if len(points) > 10:
            continue
        for k in range(1, real_rank(setting)):
            got = {f.points for f in enumerate_facets(setting, k)}
            assert got == _max_width_subsets(points, k), (setting, k)


def test_facet_sizes_match_d_k():
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(6, 0)]:
        d0 = len(diagrams.diagram_D(setting, 0))
        for k in range(1, real_rank(setting)):
            target = d0 - len(diagrams.diagram_D(setting, k))
            for f in enumerate_facets(setting, k):
                assert len(f) == target, (setting, k)


def test_forced_segments_in_every_facet():
    for setting in [upq(3, 4, 0), mp(4, 0), ostar(7, 0)]:
        for k in range(1, real_rank(setting)):
            segments = posets._frame(setting, k).segments
            forced = {p for s in segments for p in s.prefix + s.suffix}
            for f in enumerate_facets(setting, k):
                assert forced <= f.points, (setting, k)


def test_corners_count_c_statistic():
    # below r, acceptance criterion 5 runs degree.theta_check; the full
    # poset (k >= r) has no corners
    setting = mp(3, 0)
    full = PathFamily(diagrams.diagram_D(setting, 0))
    assert corners(setting, 3, full) == set()


def _corners_by_scan(setting, k, family):
    """corners as it reads every point of every path, the forced K_t
    prefixes and M_t suffixes included: the oracle of any corners that
    skips the forced parts, which hold no corner."""
    if k >= real_rank(setting) and family.points == diagrams.diagram_D(setting, 0):
        return set()
    paths = family.paths or decompose(setting, k, family.points)
    found = set()
    for path in paths:
        for (pr, pc), cur, (nr, nc) in zip(path, path[1:], path[2:]):
            r, c = cur
            if pc == c and nr == r and pr == r - 1 and nc == c + 1:
                found.add(cur)
        if setting.family == "mp" and len(path) >= 2:
            last, before = path[-1], path[-2]
            if sum(last) == setting.n + 1 and before == (last[0] - 1, last[1]):
                found.add(last)
    return found


@st.composite
def path_families(draw):
    """k or so lattice walks on a upq, mp or ostar setting, mostly no theta
    image: walk t may start with its forced prefix and end with its forced
    suffix, or not, and in between takes random east and south steps, from
    the prefix or from a random point; it may turn from south to east at
    either join."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(2, 7)), draw(st.integers(2, 7)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(2, 8)), 0)
    else:
        setting = ostar(draw(st.integers(4, 12)), 0)
    k = draw(st.integers(1, real_rank(setting) - 1))
    segments = posets._frame(setting, k).segments
    prefixes, suffixes = [s.prefix for s in segments], [s.suffix for s in segments]
    points = sorted(diagrams.diagram_D(setting, 0))
    paths = []
    for t in range(draw(st.integers(1, k + 1))):
        forced = t < k
        path = list(prefixes[t]) if forced and draw(st.booleans()) else []
        if path and draw(st.booleans()):  # turn south to east just past the prefix
            r, c = path[-1]
            path += [(r + 1, c), (r + 1, c + 1)]
        if not path or draw(st.booleans()):
            path.append(draw(st.sampled_from(points)))
        for step in draw(st.lists(st.sampled_from(["east", "south"]), max_size=12)):
            r, c = path[-1]
            path.append((r, c + 1) if step == "east" else (r + 1, c))
        if forced and suffixes[t] and draw(st.booleans()):
            r, c = suffixes[t][0]
            if draw(st.booleans()):  # turn south to east just before the suffix
                path += [(r - 1, c - 1), (r, c - 1)]
            path += suffixes[t]
        paths.append(tuple(path))
    return setting, k, PathFamily(frozenset().union(*paths), tuple(paths))


@settings(max_examples=300, deadline=None)
@given(path_families())
def test_corners_matches_the_full_scan(case):
    setting, k, family = case
    assert corners(setting, k, family) == _corners_by_scan(setting, k, family)


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
        d0 = len(diagrams.diagram_D(setting, 0))
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
        # the rejections leave the cached D_k as it was
        assert diagrams.diagram_D(setting, k) == diagram
        assert theta(setting, k, good).points == image.points
        assert theta_inverse(setting, k, image) == good


def test_theta_reads_the_diagram_by_value():
    # theta takes the cached D_k by identity; an equal diagram that is another
    # frozenset passes, and a same-size diagram that is not D_k does not
    for setting, k in [(upq(3, 4, 0), 1), (mp(5, 0), 2), (ostar(7, 0), 1)]:
        diagram = diagrams.diagram_D(setting, k)
        for pp in enumerate_P(setting, k)[::7]:
            equal = PlanePartition(set(diagram), pp.entries)
            assert equal.diagram == diagram and equal.diagram is not diagram
            image = theta(setting, k, equal)
            assert (image.points, image.paths) == tuple(theta(setting, k, pp))
            assert theta_inverse(setting, k, image) == equal == pp
            east = {(r, c + 1): v for (r, c), v in pp.entries.items()}
            moved = PlanePartition(set(east), east)
            assert len(moved.diagram) == len(diagram) and moved.diagram != diagram
            with pytest.raises(ValueError, match="wrong diagram"):
                theta(setting, k, moved)


def test_theta_inverse_rejects_non_facets():
    for setting, k in [(upq(3, 3, 0), 1), (mp(4, 0), 2), (ostar(6, 0), 1)]:
        facets = enumerate_facets(setting, k)
        points = diagrams.diagram_D(setting, 0)
        for f in facets:
            for p in f.points:
                with pytest.raises(ValueError):
                    theta_inverse(setting, k, PathFamily(f.points - {p}))
            for p in points - f.points:
                with pytest.raises(ValueError):
                    theta_inverse(setting, k, PathFamily(f.points | {p}))
            assert theta(setting, k, theta_inverse(setting, k, f)).points == f.points



def test_theta_inverse_rejects_too_few_paths():
    # a family carrying fewer than k paths is no facet decomposition; an
    # empty paths field is decomposed instead
    for setting, k in [(upq(3, 4, 0), 2), (upq(4, 5, 0), 3), (mp(5, 0), 2), (ostar(7, 0), 2)]:
        for f in enumerate_facets(setting, k)[::5]:
            for cut in range(1, k):
                with pytest.raises(ValueError, match=f"fewer than k = {k} paths: {cut}"):
                    theta_inverse(setting, k, PathFamily(f.points, f.paths[:cut]))
            assert theta_inverse(setting, k, PathFamily(f.points, ())) == theta_inverse(setting, k, f)


@st.composite
def theta_slot_cases(draw):
    """A upq, mp or ostar setting, a k below its rank and two plane
    partitions bounded by k on D_k: the entry of a box is the largest of
    random values in [0, k] over the boxes weakly south and west of it, so
    each filling is monotone."""
    family = draw(st.sampled_from(["upq", "mp", "ostar"]))
    if family == "upq":
        setting = upq(draw(st.integers(2, 6)), draw(st.integers(2, 6)), 0)
    elif family == "mp":
        setting = mp(draw(st.integers(2, 8)), 0)
    else:
        setting = ostar(draw(st.integers(4, 11)), 0)
    k = draw(st.integers(1, real_rank(setting) - 1))
    diagram = diagrams.diagram_D(setting, k)
    fillings = []
    for _ in range(2):
        values = dict(zip(sorted(diagram), draw(st.lists(st.integers(0, k), min_size=len(diagram), max_size=len(diagram)))))
        entries = {(x, y): max(v for (r, c), v in values.items() if r >= x and c <= y) for x, y in diagram}
        fillings.append(PlanePartition(diagram, entries))
    return setting, k, *fillings


def _inverse_outcome(setting, k, family, empty_slot=False):
    """theta_inverse's plane partition, or the message of its ValueError."""
    if empty_slot:
        posets._theta_slot = (None, None)
    try:
        return theta_inverse(setting, k, family)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(theta_slot_cases(), theta_slot_cases())
def test_theta_slot_answers_as_the_closing_walk(case, elsewhere):
    # theta_inverse skips its closing walk when the last theta walk matches;
    # whatever theta ran last, it answers as it does with an empty slot
    setting, k, pp, other = case
    image, other_image = theta(setting, k, pp), theta(setting, k, other)
    foreign = theta(*elsewhere[:3])
    point = min(image.points)
    cases = [
        (image, []),  # theta's image
        (other_image, []),  # a facet theta did not just return
        (PathFamily(other_image.points), []),
        (PathFamily(image.points - {point}, image.paths), []),  # not a facet, the walked paths
        (PathFamily(image.points, other_image.paths), []),  # the same points under other paths
        (PathFamily(image.points, image.paths[::-1]), []),
        (PathFamily(image.points, image.paths[: k - 1]), []),
        (PathFamily(image.points), []),
        (image, [elsewhere[:3]]),  # after theta ran on another setting
        (foreign, [elsewhere[:3]]),  # the image theta just returned on another setting
        (image, [(setting, k, other)]),  # after theta ran on another filling
    ]
    for family, between in cases:
        theta(setting, k, pp)
        for s, j, filling in between:
            theta(s, j, filling)
        slotted = _inverse_outcome(setting, k, family)
        assert slotted == _inverse_outcome(setting, k, family, empty_slot=True), (setting, k, pp, family)
    assert _inverse_outcome(setting, k, image) == pp


def test_theta_round_trip_walks_each_filling_once(monkeypatch):
    # theta_inverse on the image theta just returned reads the slot, not a
    # second walk; on another facet it walks once more
    walks = []
    walk = posets._theta
    monkeypatch.setattr(posets, "_theta", lambda *args: walks.append(args[2]) or walk(*args))
    for setting, k in [(upq(3, 4, 0), 2), (mp(5, 0), 2), (ostar(7, 0), 1)]:
        pps = enumerate_P(setting, k)
        walks.clear()
        for pp in pps:
            assert theta_inverse(setting, k, theta(setting, k, pp)) == pp
        assert walks == pps, setting
        image = theta(setting, k, pps[-1])
        theta(setting, k, pps[0])
        walks.clear()
        assert theta_inverse(setting, k, image) == pps[-1]
        assert walks == pps[-1:], setting


@pytest.mark.parametrize(
    "walked, read",
    [((upq(2, 2, 0), 1), (mp(2, 0), 1)), ((ostar(4, 0), 1), (mp(2, 0), 1)), ((upq(3, 3, 0), 2), (mp(3, 0), 2))],
)
def test_theta_slot_keys_the_setting(walked, read):
    # two settings with one D_k: the image theta walked on one, read by
    # theta_inverse on the other, gets the same answer as with an empty slot
    for (s, k), (other, j) in [(walked, read), (read, walked)]:
        assert diagrams.diagram_D(s, k) == diagrams.diagram_D(other, j)
        for pp in enumerate_P(s, k):
            image = theta(s, k, pp)
            for family in (image, PathFamily(image.points)):
                theta(s, k, pp)
                slotted = _inverse_outcome(other, j, family)
                assert slotted == _inverse_outcome(other, j, family, empty_slot=True), (s, other, pp)

def _theta_oracle(setting, k, pp):
    """theta by the set-based walk: for each t, the set of boxes with entry
    exceeding k - t is built and the walk tests membership in it."""
    posets._require_dual_pair(setting)
    posets._validate_plane_partition(setting, k, pp)
    if k >= real_rank(setting):
        return PathFamily(diagrams.diagram_D(setting, 0))
    frame = posets._frame(setting, k)
    a, b = [s.anchor for s in frame.segments], frame.b
    prefixes, suffixes = [s.prefix for s in frame.segments], [s.suffix for s in frame.segments]
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
    diagram = diagrams.diagram_D(setting, k)
    if k >= real_rank(setting):
        if family.points != diagrams.diagram_D(setting, 0):
            raise ValueError("for k >= r the only facet is the whole poset")
        return PlanePartition(frozenset(), {})
    frame = posets._frame(setting, k)
    a, b = [s.anchor for s in frame.segments], frame.b
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
            frame = posets._frame(setting, k)
            assert posets._frame(setting, k) is frame  # one cached value
            a, b = [s.anchor for s in frame.segments], frame.b
            assert isinstance(frame.segments, tuple) and len(frame.segments) == k
            assert all(isinstance(x, tuple) for x in a)
            if setting.family == "mp":
                assert b is None
            else:
                assert isinstance(b, tuple) and all(isinstance(x, tuple) for x in b)
            for segments in ([s.prefix for s in frame.segments], [s.suffix for s in frame.segments]):
                assert all(isinstance(seg, tuple) for seg in segments)
                assert all(isinstance(x, tuple) for seg in segments for x in seg)
            for field in (frame.poset, frame.diagram, frame.forced):
                assert isinstance(field, frozenset)
