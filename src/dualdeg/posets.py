"""The root poset of the dual-pair families, read as the boxes of D_0,
diagrams.diagram_D(setting, 0), under the product order: its minimal
element sits in the northwest corner and covers point east and south.
Antichain widths, the lattice-path engine, facets of the width-k order
complex as unions of k nonintersecting lattice paths (the maximal jellyfish
families, in root labels) and the bijection with bounded plane partitions."""

from bisect import bisect_left
from collections import namedtuple
from functools import cache
from types import MappingProxyType

from . import diagrams
from .diagrams import PlanePartition
from .dualpair import DUAL_PAIR_FAMILIES, FAMILIES, MP, OSTAR, real_rank


def _require_dual_pair(setting):
    if setting.family not in DUAL_PAIR_FAMILIES:
        raise ValueError(
            f"lattice-path machinery is only implemented for {DUAL_PAIR_FAMILIES}"
        )


def width(points):
    """Largest antichain of a set of boxes of D_0 under the product order.
    Read row by row, an antichain has strictly falling columns, so this is a
    longest strictly decreasing run of columns over the boxes sorted by (row,
    column)."""
    tails = []  # tails[i]: minus the largest column ending a falling run of length i + 1
    for _, c in sorted(points):
        i = bisect_left(tails, -c)
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


# One free segment of the theta frame: its anchor a_t, the antidiagonal
# r + c = end it stops on, the last column it may step east into, the level
# k - t whose excess turns it south, and the forced prefix and suffix.
_Segment = namedtuple("_Segment", "anchor end last level prefix suffix")

# The facet geometry of one (setting, k), which iter_facets, theta,
# theta_inverse and corners read: full when k >= r, the root poset D_0, the
# diagram D_k and its column count, the forced points every facet holds,
# the b anchors (None for mp) and the k segments.
_Frame = namedtuple("_Frame", "full poset diagram columns forced b segments")


@cache
def _frame(setting, k):
    """The facet geometry of the setting at k, built once; cached, so all of
    it is tuples and frozensets.  Path t starts at a_t, on the (step k)-th
    antidiagonal, after K_t, the points of its row west of a_t.  It ends at
    b_t, a_t moved by the edges of D_k, and goes on south through M_t, the
    points of its column south of b_t; an mp path ends instead on the main
    antidiagonal, and may step east up to it."""
    poset, diagram = diagrams.diagram_D(setting, 0), diagrams.diagram_D(setting, k)
    f, rows, columns = diagrams._dual_pair_shape(setting, k)
    if k >= real_rank(setting):
        return _Frame(True, poset, diagram, columns, poset, None, ())
    a = tuple((t, FAMILIES[f].step * k + 1 - t) for t in range(1, k + 1))
    b = None if f == MP else tuple((r + rows, c + columns) for r, c in a)
    points = sorted(poset)
    segments = []
    for i, (ar, ac) in enumerate(a):
        # for mp, (0, n + 1) puts the end on r + c = n + 1, in a column D_0 lacks
        br, bc = (0, setting.n + 1) if b is None else b[i]
        prefix = tuple(x for x in points if x[0] == ar and x[1] < ac)
        suffix = tuple(x for x in points if x[1] == bc and x[0] > br)
        # path t = i + 1 steps south past entries above k - t
        segments.append(_Segment((ar, ac), br + bc, bc, k - 1 - i, prefix, suffix))
    forced = frozenset().union(*(s.prefix + s.suffix for s in segments))
    return _Frame(False, poset, diagram, columns, forced, b, tuple(segments))


# ((setting, k, image points), the entries dict walked) of the last theta
# walk, which theta_inverse reads to skip its closing walk; replaced whole,
# so a reader never pairs one walk's key with another walk's entries
_theta_slot = (None, None)


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


def boxed_paths(pairs, points):
    """disjoint_products of one lattice_paths list per (start, end) pair,
    each kept to the box between its start and end: the points northwest
    of the end, since a path steps only east and south from its start."""
    return disjoint_products([
        lattice_paths(start, {(r, c) for r, c in points if r <= end[0] and c <= end[1]}, {end})
        for start, end in pairs
    ])


def enumerate_facets(setting, k):
    """All facets of the width-k order complex of the root poset, as a list."""
    return list(iter_facets(setting, k))


def iter_facets(setting, k):
    """The facets of the width-k order complex, one at a time, checked and
    set up at the call: the free segment t runs from a_t to b_t, or to the
    main antidiagonal for mp.  No facet repeats: disjoint east/south paths
    from anchors ordered along an antidiagonal never cross, so a point east
    of path 1 lies on no later path, walking the union east first rebuilds
    path 1, and by induction the rest, as decompose does."""
    _require_dual_pair(setting)
    if k < 1:
        raise ValueError("k must be >= 1")
    frame = _frame(setting, k)
    points, segments, forced = frame.poset, frame.segments, frame.forced
    if frame.full:
        return iter([PathFamily(points)])
    if frame.b is None:
        antidiagonal = {x for x in points if sum(x) == setting.n + 1}
        combos = disjoint_products([lattice_paths(s.anchor, points, antidiagonal) for s in segments])
    else:
        combos = boxed_paths(zip((s.anchor for s in segments), frame.b), points)
    return (
        PathFamily(pts.union(forced), tuple(s.prefix + seg + s.suffix for s, seg in zip(segments, combo)))
        for combo, pts in combos
    )


def _validate_plane_partition(setting, k, pp):
    diagram = _frame(setting, k).diagram
    # D_k is cached, so a plane partition built on it holds the same frozenset
    if pp.diagram is not diagram and pp.diagram != diagram:
        raise ValueError("plane partition lives on the wrong diagram")
    values = sorted(pp.entries.values())  # one pass for the least and the greatest entry
    if values and (values[0] < 0 or values[-1] > k):
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
    """theta on a plane partition already validated for the setting and k.
    The free segment of path t walks from a_t; at (r, c) it reads the box
    (x, y) = (r - ar + 1, c - ac + 1) of D_k and steps south when that entry
    exceeds k - t, east otherwise, until it reaches its end antidiagonal.
    The walk leaves its key and the entries it read in _theta_slot."""
    global _theta_slot
    frame = _frame(setting, k)
    if frame.full:
        return PathFamily(frame.poset)
    walked = pp.entries.copy()  # a dict's get is quicker than the read-only view's
    entry = walked.get
    paths, segments = [], []
    for (r, c), end, last, level, prefix, suffix in frame.segments:
        x = y = 1
        segment = [(r, c)]
        while r + c < end:
            # a missing box reads -1, never above k - t >= 0
            if c < last and entry((x, y), -1) <= level:
                c += 1
                y += 1
            else:
                r += 1
                x += 1
            segment.append((r, c))
        segments.append(segment)
        paths.append(prefix + tuple(segment) + suffix)
    image = PathFamily(frame.forced.union(*segments), tuple(paths))
    _theta_slot = ((setting, k, image.points), walked)
    return image


def decompose(setting, k, points):
    """Canonical decomposition of a facet point set into k paths: peel from
    the northeast, preferring east steps."""
    remaining = set(points)
    paths = []
    for t in range(1, k + 1):
        start = (t, t if setting.family == OSTAR else 1)  # the west end of row t
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

    Each free segment, taken relative to its anchor a_t, has a depth in
    every column y of D_k: the largest row offset dr over its points with
    column offset dc < y, which one prefix-maximum pass yields.  The segment
    passes southwest of box (x, y) exactly when its depth in column y is at
    least x, so with the k depths of column y sorted, the entry of (x, y)
    is k - bisect_left(depths, x).

    That filling is a plane partition bounded by k on D_k by construction,
    so it is not validated again: its boxes are those of D_k; an entry
    counts some of the k segments, so it lies in [0, k]; a depth is a
    prefix maximum, so it does not fall from column y to y + 1 and no entry
    exceeds its east neighbour; and no more depths reach x + 1 than reach
    x, so no entry exceeds the one above it.  Whether the facet is the image
    of that filling is checked by mapping it back through theta, unless the
    last theta walk was on this setting and k, returned these points, and
    read this very filling: theta is deterministic, so the walk would
    return them again."""
    _require_dual_pair(setting)
    frame = _frame(setting, k)
    if frame.full:
        if family.points != frame.poset:
            raise ValueError("for k >= r the only facet is the whole poset")
        return PlanePartition(frozenset(), {})
    paths = family.paths or decompose(setting, k, family.points)
    if len(paths) < k:
        raise ValueError(f"fewer than k = {k} paths: {len(paths)}")
    columns, b = frame.columns, frame.b
    profiles = []
    for i, (path, segment) in enumerate(zip(paths, frame.segments)):
        ar, ac = segment.anchor
        try:
            i0 = path.index((ar, ac))
        except ValueError:
            raise ValueError("path misses its anchor") from None
        if b is None:
            i1 = next((j for j, (r, c) in enumerate(path) if r + c == segment.end), None)
            if i1 is None:
                raise ValueError("path misses its terminal anchor")
        else:
            try:
                i1 = path.index(b[i])
            except ValueError:
                raise ValueError("path misses its terminal anchor") from None
        # a point (dr, dc) counts toward every y > dc; entries start at 0 < x
        deepest = [0] * (columns + 1)
        for r, c in path[i0 : i1 + 1]:
            y = c - ac + 1
            if y < 1:
                y = 1
            if y <= columns and r - ar > deepest[y]:
                deepest[y] = r - ar
        depth = 0
        for y in range(1, columns + 1):
            if deepest[y] > depth:
                depth = deepest[y]
            else:
                deepest[y] = depth
        profiles.append(deepest)
    depths = [sorted(column) for column in zip(*profiles)]
    entries = {(x, y): k - bisect_left(depths[y], x) for x, y in frame.diagram}
    # built without the copies of __new__: the boxes are those of D_k
    pp = tuple.__new__(PlanePartition, (frame.diagram, MappingProxyType(entries)))
    # a tuple compares item by item, so the points are matched by identity first
    key, walked = _theta_slot
    if (setting, k, family.points) != key or entries != walked:
        if _theta(setting, k, pp).points != family.points:
            raise ValueError("point set is not a facet")
    return pp


def corners(setting, k, family):
    """South-to-east turning points, counted path by path on the canonical
    decomposition: the paths of a theta image or a listed facet are that
    one, else decompose builds it.  A metaplectic path arriving at the main
    antidiagonal by a south step contributes its terminal point as well."""
    _require_dual_pair(setting)
    frame = _frame(setting, k)
    if frame.full and family.points == frame.poset:
        return set()
    paths = family.paths or decompose(setting, k, family.points)
    found = set()
    for path in paths:
        for (pr, pc), cur, (nr, nc) in zip(path, path[1:], path[2:]):
            r, c = cur
            if pc == c and nr == r and pr == r - 1 and nc == c + 1:
                found.add(cur)
        if setting.family == MP and len(path) >= 2:
            last, before = path[-1], path[-2]
            if sum(last) == setting.n + 1 and before == (last[0] - 1, last[1]):
                found.add(last)
    return found
