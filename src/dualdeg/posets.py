"""The root poset of positive noncompact roots for the dual-pair families,
antichain widths, the lattice-path engine shared with the jellyfish, facets
of the width-k order complex as unions of k nonintersecting lattice paths,
and the bijection with bounded plane partitions."""

import bisect
from collections import namedtuple
from functools import cache

from . import diagrams
from .diagrams import PlanePartition
from .dualpair import DUAL_PAIR_FAMILIES, MP, OSTAR, UPQ, real_rank


def _require_dual_pair(setting):
    if setting.family not in DUAL_PAIR_FAMILIES:
        raise ValueError(
            f"lattice-path machinery is only implemented for {DUAL_PAIR_FAMILIES}"
        )


class RootPoset(namedtuple("RootPoset", "setting points")):
    """The poset of positive noncompact roots, held in depicted coordinates:
    the boxes of D_0, whose minimal element sits in the northwest corner and
    covers point east and south.  Copies and pickles go through the
    constructor, which reads the points from the setting; _make and with it
    _replace, which would take the points as given, are refused."""

    __slots__ = ()

    def __new__(cls, setting):
        _require_dual_pair(setting)
        return super().__new__(cls, setting, diagrams.diagram_D0(setting))

    def __getnewargs__(self):
        return (self.setting,)

    @classmethod
    def _make(cls, iterable):
        raise TypeError("the points of a RootPoset are read from its setting; call RootPoset(setting)")

    def label(self, point):
        """The root label (i, j) of a depicted point."""
        r, c = point
        if self.setting.family == UPQ:
            return (r, c)
        if self.setting.family == MP:
            return (c, self.setting.n + 1 - r)
        return (r, c + 1)

    @staticmethod
    def leq(a, b):
        """Order relation in depicted coordinates (product order)."""
        return a[0] <= b[0] and a[1] <= b[1]


@cache
def build_poset(setting):
    """The root poset of the setting, one shared immutable instance per setting."""
    return RootPoset(setting)


def width(poset, subset=None):
    """Largest antichain inside the subset (whole poset by default).  Read row
    by row, an antichain has strictly falling columns, so this is a longest
    strictly decreasing run of columns over the points sorted by (row, column)."""
    tails = []  # tails[i]: minus the largest column ending a falling run of length i + 1
    for _, c in sorted(poset.points if subset is None else subset):
        i = bisect.bisect_left(tails, -c)
        if i == len(tails):
            tails.append(-c)
        else:
            tails[i] = -c
    return len(tails)


class PathFamily(namedtuple("PathFamily", "points paths", defaults=(None,))):
    """A facet: a union of k nonintersecting lattice paths in the poset, with
    paths its optional decomposition, northeast to southwest.  len() counts
    the points, not the two fields, so the namedtuple helpers _make and
    _replace refuse it."""

    __slots__ = ()

    def __len__(self):
        return len(self.points)


def _west_col(setting, row):
    """First column of the given depicted row."""
    return row if setting.family == OSTAR else 1


def _anchor_points(setting, k):
    """The forced path anchors: start a_t on the k-th antidiagonal (2k-th for
    the ostar family) and, where defined, its translate b_t."""
    f = setting.family
    if f in (UPQ, MP):
        a = tuple((t, k + 1 - t) for t in range(1, k + 1))
    else:
        a = tuple((t, 2 * k + 1 - t) for t in range(1, k + 1))
    if f == UPQ:
        b = tuple((r + setting.p - k, c + setting.q - k) for r, c in a)
    elif f == OSTAR:
        m = setting.n - 2 * k - 1
        b = tuple((r + m, c + m) for r, c in a)
    else:
        b = None
    return a, b


@cache
def _forced_paths(setting, k):
    """The anchors a and b (None for mp), the K_t prefixes (west of a_t) and
    the M_t suffixes (south of b_t); cached, so all of it is tuples."""
    a, b = _anchor_points(setting, k)
    prefixes, suffixes = [], []
    for t in range(1, k + 1):
        ar, ac = a[t - 1]
        prefixes.append(tuple((ar, c) for c in range(_west_col(setting, ar), ac)))
        if b is None:
            suffixes.append(())
            continue
        br, bc = b[t - 1]
        if setting.family == UPQ:
            bottom = setting.p
        else:  # OSTAR: column c is occupied by rows 1..c
            bottom = bc
        suffixes.append(tuple((r, bc) for r in range(br + 1, bottom + 1)))
    return a, b, tuple(prefixes), tuple(suffixes)


def lattice_paths(start, points, ends):
    """Every east/south lattice path from start whose later points lie in
    points, recorded at each visit to ends, east steps tried first."""
    out = []
    path = [start]

    def walk():
        r, c = path[-1]
        if (r, c) in ends:
            out.append(tuple(path))
        for nxt in ((r, c + 1), (r + 1, c)):
            if nxt in points:
                path.append(nxt)
                walk()
                path.pop()

    walk()
    return out


def disjoint_products(candidates):
    """One path from each candidate list, pairwise disjoint, as (paths, point
    set) in itertools.product order; a partial choice is dropped as soon as
    its last path meets an earlier one."""
    chosen, used = [], set()

    def extend(t):
        if t == len(candidates):
            yield tuple(chosen), frozenset(used)
            return
        for path in candidates[t]:
            if used.isdisjoint(path):
                chosen.append(path)
                used.update(path)
                yield from extend(t + 1)
                used.difference_update(path)
                chosen.pop()

    return extend(0)


def enumerate_facets(setting, k):
    """All facets of the width-k order complex of the root poset: the free
    segment t runs from a_t to b_t, or to the main antidiagonal for mp."""
    _require_dual_pair(setting)
    if k < 1:
        raise ValueError("k must be >= 1")
    poset = build_poset(setting)
    if k >= real_rank(setting):
        return [PathFamily(poset.points)]
    a, b, prefixes, suffixes = _forced_paths(setting, k)
    if b is None:
        antidiagonal = {x for x in poset.points if sum(x) == setting.n + 1}
        candidates = [lattice_paths(start, poset.points, antidiagonal) for start in a]
    else:
        candidates = [
            lattice_paths(start, {x for x in poset.points if RootPoset.leq(x, end)}, {end})
            for start, end in zip(a, b)
        ]
    fixed = [x for segment in prefixes + suffixes for x in segment]
    seen = set()
    out = []
    for combo, pts in disjoint_products(candidates):
        pts = pts.union(fixed)
        if pts not in seen:
            seen.add(pts)
            paths = tuple(pre + seg + suf for pre, seg, suf in zip(prefixes, combo, suffixes))
            out.append(PathFamily(pts, paths))
    return out


def _validate_plane_partition(setting, k, pp):
    if pp.diagram != diagrams.diagram_D(setting, k):
        raise ValueError("plane partition lives on the wrong diagram")
    if pp.bound() > k or min(pp.entries.values(), default=0) < 0:
        raise ValueError(f"plane partition is not bounded by {k}")
    if not pp.is_monotone():
        raise ValueError("filling is not a plane partition")


def theta(setting, k, pp):
    """The facet attached to a plane partition: for each threshold t, the
    t-th free path traces the southwest boundary of the boxes with entry
    exceeding k - t."""
    _require_dual_pair(setting)
    _validate_plane_partition(setting, k, pp)
    return _theta(setting, k, pp)


def _theta(setting, k, pp):
    """theta on a plane partition already validated for the setting and k."""
    if k >= real_rank(setting):
        return PathFamily(build_poset(setting).points)
    a, b, prefixes, suffixes = _forced_paths(setting, k)
    n = setting.n
    entries = pp.entries
    paths = []
    for t in range(1, k + 1):
        ar, ac = a[t - 1]
        dr = dc = 0
        segment = [(ar, ac)]
        while True:
            r, c = segment[-1]
            if setting.family == MP:
                if r + c == n + 1:
                    break
            elif (r, c) == b[t - 1]:
                break
            clamp = setting.family != MP and c == b[t - 1][1]
            # a missing box reads -1, never above k - t >= 0
            if entries.get((dr + 1, dc + 1), -1) > k - t or clamp:
                dr += 1
                segment.append((r + 1, c))
            else:
                dc += 1
                segment.append((r, c + 1))
        paths.append(prefixes[t - 1] + tuple(segment) + suffixes[t - 1])
    points = frozenset(p for path in paths for p in path)
    return PathFamily(points, tuple(paths))


def decompose(setting, k, points):
    """Canonical decomposition of a facet point set into k paths: peel from
    the northeast, preferring east steps."""
    remaining = set(points)
    paths = []
    for t in range(1, k + 1):
        start = (t, _west_col(setting, t))
        if start not in remaining:
            raise ValueError("point set is not a union of k anchored paths")
        path = [start]
        remaining.discard(start)
        while True:
            r, c = path[-1]
            if (r, c + 1) in remaining:
                nxt = (r, c + 1)
            elif (r + 1, c) in remaining:
                nxt = (r + 1, c)
            else:
                break
            path.append(nxt)
            remaining.discard(nxt)
        paths.append(tuple(path))
    if remaining:
        raise ValueError("point set is not a union of k anchored paths")
    return tuple(paths)


def theta_inverse(setting, k, family):
    """The plane partition whose boundary paths trace the given facet; the
    entry of a box counts the free paths passing to its southwest.

    Each free segment, taken relative to its anchor a_t, gets a profile:
    deepest[y] is the largest row offset dr over its points with column
    offset dc < y.  The segment passes southwest of box (x, y) exactly when
    deepest[y] >= x, so one prefix-maximum pass per segment fills D_k."""
    _require_dual_pair(setting)
    poset = build_poset(setting)
    diagram = diagrams.diagram_D(setting, k)
    if k >= real_rank(setting):
        if family.points != poset.points:
            raise ValueError("for k >= r the only facet is the whole poset")
        return PlanePartition(frozenset(), {})
    a, b, _, _ = _forced_paths(setting, k)
    paths = family.paths or decompose(setting, k, family.points)
    columns = max((y for _, y in diagram), default=0)
    profiles = []
    for t in range(1, k + 1):
        path = paths[t - 1]
        ar, ac = a[t - 1]
        if (ar, ac) not in path:
            raise ValueError("path misses its anchor")
        i0 = path.index((ar, ac))
        if setting.family == MP:
            i1 = next(
                (i for i, (r, c) in enumerate(path) if r + c == setting.n + 1), None
            )
            if i1 is None:
                raise ValueError("path misses its terminal anchor")
        else:
            if b[t - 1] not in path:
                raise ValueError("path misses its terminal anchor")
            i1 = path.index(b[t - 1])
        # a point (dr, dc) counts toward every y > dc; entries start at 0 < x
        deepest = [0] * (columns + 1)
        for r, c in path[i0 : i1 + 1]:
            y = max(1, c - ac + 1)
            if y <= columns and r - ar > deepest[y]:
                deepest[y] = r - ar
        for y in range(2, columns + 1):
            if deepest[y] < deepest[y - 1]:
                deepest[y] = deepest[y - 1]
        profiles.append(deepest)
    entries = {
        (x, y): sum(1 for deepest in profiles if deepest[y] >= x) for x, y in diagram
    }
    pp = PlanePartition(diagram, entries)
    _validate_plane_partition(setting, k, pp)
    if _theta(setting, k, pp).points != family.points:
        raise ValueError("point set is not a facet")
    return pp


def corners(setting, k, family):
    """South-to-east turning points, counted path by path on the canonical
    decomposition: the paths of a theta image or a listed facet are that
    one, else decompose builds it.  A metaplectic path arriving at the main
    antidiagonal by a south step contributes its terminal point as well."""
    _require_dual_pair(setting)
    poset = build_poset(setting)
    if k >= real_rank(setting) and family.points == poset.points:
        return set()
    paths = family.paths or decompose(setting, k, family.points)
    found = set()
    for path in paths:
        for prev, cur, nxt in zip(path, path[1:], path[2:]):
            if prev == (cur[0] - 1, cur[1]) and nxt == (cur[0], cur[1] + 1):
                found.add(cur)
        if setting.family == MP and len(path) >= 2:
            last, before = path[-1], path[-2]
            if sum(last) == setting.n + 1 and before == (last[0] - 1, last[1]):
                found.add(last)
    return found
