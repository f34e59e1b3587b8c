"""Jellyfish: tableaux paired with boundary-anchored nonintersecting lattice
path families, whose maximal members count the Bernstein degree directly.

Everything here works in root-label coordinates (i, j), with lattice paths
stepping southeast: (i, j) -> (i+1, j) or (i, j+1), counted by the path
tables below and listed by the path engine of posets; the maximal families
alone are read from the facets of posets.  Only the unitary and
star-orthogonal families carry this structure.
"""

from collections import namedtuple
from functools import cache
from types import MappingProxyType

from . import diagrams, dualpair
from .dualpair import OSTAR, UPQ, free_threshold
from .posets import PathFamily, boxed_paths, iter_facets
from .tableaux import determinant


# the families that carry jellyfish
FAMILIES = (UPQ, OSTAR)


def _root_labels(setting, boxes):
    """The root labels of boxes (r, c) of D_0: (r, c) for upq, (r, c + 1) for ostar."""
    return frozenset((r, c + (setting.family == OSTAR)) for r, c in boxes)


@cache
def _points(setting):
    """The root labels of the positive noncompact roots, the boxes of D_0."""
    return _root_labels(setting, diagrams.diagram_D(setting, 0))


_Geometry = namedtuple("_Geometry", "points starts fixed")


@cache
def _geometry(setting, k):
    """The path geometry that every family and count reads, checked and
    built once; cached, so all of it is tuples and frozensets.  It is the
    one check of a jellyfish setting, the family and then 1 <= k < s, which
    every public entry calls first.  It holds the root labels, the k
    starts in row order on the inner boundary of the fixed region A (the
    points with i + j <= step (k + 1); for ostar rows 1..k, at column n
    until that diagonal passes it) and the points of A off the starts."""
    if setting.family not in FAMILIES:
        raise ValueError("jellyfish exist only for the upq and ostar families")
    s = free_threshold(setting)
    if not 1 <= k < s:
        raise ValueError(f"k must satisfy 1 <= k < {s}" if s > 1 else f"no k satisfies 1 <= k < s: s = {s}")
    points = _points(setting)
    if setting.family == UPQ:
        p, q = setting.p, setting.q
        starts = [(p, u) for u in range(1, k - p + 1)]
        starts += [(t, q) for t in range(1, k - q + 1)]
        starts += [(i, k + 1 - i) for i in range(max(1, k + 1 - q), min(p, k) + 1)]
    else:
        n = setting.n
        starts = [(t, n if t < 2 * (k + 1) - n else 2 * (k + 1) - t) for t in range(1, k + 1)]
    if len(set(starts)) != k:  # raised, not asserted, so that python -O keeps the check
        raise AssertionError(f"{setting} k={k} has start points {starts}, not {k} distinct ones")
    cutoff = dualpair.FAMILIES[setting.family].step * (k + 1)
    fixed = frozenset(x for x in points if x[0] + x[1] <= cutoff).difference(starts)
    return _Geometry(points, tuple(sorted(starts)), fixed)


class Endpoints(namedtuple("Endpoints", "south east", defaults=((), ()))):
    """Endpoint data of a path family: columns j of endpoints on the southern
    edge and rows i of endpoints on the eastern edge, each sorted increasing.
    The ostar family only uses the eastern list."""

    __slots__ = ()


def split_k(setting, k, sigma):
    """The (k_plus, k_minus) split of the inner boundary for upq."""
    plus, minus = dualpair.normalize_sigma(setting, sigma)
    if setting.p > setting.q:
        k_minus = max(len(minus), k - setting.q)
        return k - k_minus, k_minus
    k_plus = max(len(plus), k - setting.p)
    return k_plus, k - k_plus


def i_hat_upq(setting, k, k_minus, south):
    """Maximal east endpoint rows for upq (p <= q), given the southern
    endpoint columns: the pinned boundary singletons t <= k - q, then the
    largest rows whose mirrored southern positions are free."""
    p, q = setting.p, setting.q
    taken = set(south)
    pool = sorted(i for i in range(1, p + 1) if q - p + i not in taken)
    hats = list(range(1, min(max(0, k - q), k_minus) + 1))
    count = k_minus - len(hats)
    if count > len(pool):
        raise ValueError("endpoint set is not realizable")
    hats += pool[len(pool) - count :] if count > 0 else []
    return tuple(hats[:k_minus])


def end_map(setting, sigma, T):
    """Endpoints attached to a tableau: first-column entries clipped to the
    maximal attainable positions."""
    sigma = dualpair.normalize_sigma(setting, sigma)
    _geometry(setting, setting.k)
    return _end_map(setting, sigma)(T)


def _end_map(setting, sigma):
    """end_map as a function of T, for a sigma as normalize_sigma returns
    it: what depends on the setting and sigma alone is worked out once, not
    once per tableau.  The caller checks the setting, _geometry."""
    k = setting.k
    if setting.family == OSTAR:
        n = setting.n
        i_hat = tuple(
            t if t < 2 * (k + 1) - n else n + 2 * (t - k) - 1 for t in range(1, k + 1)
        )

        def ends(T):
            col = T.column(1)
            return Endpoints(east=tuple(
                min(col[t - 1], i_hat[t - 1]) if t <= len(col) else i_hat[t - 1]
                for t in range(1, k + 1)
            ))

        return ends
    if setting.p > setting.q:
        # the boundary formulas assume the wide orientation; transpose
        plus, minus = sigma
        mirrored = _end_map(dualpair.upq(setting.q, setting.p, k), (minus, plus))

        def ends(T):
            flipped = mirrored((T[1], T[0]))
            return Endpoints(south=flipped.east, east=flipped.south)

        return ends
    k_plus, k_minus = split_k(setting, k, sigma)
    low = k - setting.p

    def ends(T):
        t_plus, t_minus = T
        col_plus = t_plus.column(1)
        south = tuple(u if u <= low else col_plus[u - 1] for u in range(1, k_plus + 1))
        hats = i_hat_upq(setting, k, k_minus, south)
        col_minus = t_minus.column(1)
        east = tuple(
            min(col_minus[t - 1], hats[t - 1]) if t <= len(col_minus) else hats[t - 1]
            for t in range(1, k_minus + 1)
        )
        return Endpoints(south=south, east=east)

    return ends


def _diagonal(point):
    """r - c: the order of starts and ends along the boundaries, northeast first."""
    return point[0] - point[1]


@cache
def _path_counts(setting, k):
    """Read-only map from each point of the geometry to the tuple of the
    numbers of east/south paths inside the points from each of its starts
    to it, the starts taken by r - c: one pass over the points in row
    order, each adding its west and north neighbours' counts.

    These are the entries of the Lindstrom-Gessel-Viennot determinant
    det[paths(start_s -> end_t)] with the ends of a key also taken by r - c,
    which counts the path families of the key.  The points past the
    boundary diagonal form a simply connected region, with the starts along
    its inner edge and the ends along its outer edges, each in r - c order
    from northeast to southwest; a start pinned to an outer edge is its own
    end, first in both orders on the east edge and last on the south edge.
    A path from start s to end e cuts the region in two, so a later start
    reaches an earlier end only by crossing it: disjoint east/south paths
    join the t-th start to the t-th end, the identity is the one
    permutation with a disjoint family, and the determinant counts the
    families (Lindstrom 1973; Gessel-Viennot 1985).  Taken in the row order
    of the geometry the starts give the wrong sign on some keys."""
    geometry = _geometry(setting, k)
    index = {start: t for t, start in enumerate(sorted(geometry.starts, key=_diagonal))}
    zero = (0,) * k
    counts = {}
    for r, c in sorted(geometry.points):
        row = [a + b for a, b in zip(counts.get((r, c - 1), zero), counts.get((r - 1, c), zero))]
        t = index.get((r, c))
        if t is not None:
            row[t] += 1
        counts[r, c] = tuple(row)
    return MappingProxyType(counts)


def _end_points(setting, end):
    """The end points of endpoint data: south columns j at (p, j) and east
    rows i at (i, q) for upq, east rows i at (i, n) for ostar."""
    if setting.family == OSTAR:
        return [(i, setting.n) for i in end.east]
    return [(setting.p, j) for j in end.south] + [(i, setting.q) for i in end.east]


def _family_size(setting, k, end):
    """The size of every path family with endpoint data end (that has one):
    sum_t (|e_t - s_t|_1 + 1) + |fixed|, where each e_t >= s_t."""
    geometry = _geometry(setting, k)
    ends = _end_points(setting, end)
    return sum(map(sum, ends)) - sum(map(sum, geometry.starts)) + k + len(geometry.fixed)


def _family_number(setting, k, end):
    """The number of path families with endpoint data end, without listing
    them: the determinant of _path_counts over its ends."""
    counts, zero = _path_counts(setting, k), (0,) * k
    return determinant([counts.get(e, zero) for e in sorted(_end_points(setting, end), key=_diagonal)])


def _families_ending_at(setting, k, end):
    """The path families with endpoint data end, their paths taken with the
    starts in row order, built from the paths start_t -> end_t alone: the
    t-th start by r - c reaches the t-th end (_path_counts), and each path
    stays in the box of points between them."""
    geometry = _geometry(setting, k)
    pairs = dict(zip(sorted(geometry.starts, key=_diagonal), sorted(_end_points(setting, end), key=_diagonal)))
    combos = boxed_paths(((start, pairs[start]) for start in geometry.starts), geometry.points)
    return tuple(PathFamily(pts | geometry.fixed, combo) for combo, pts in combos)


def max_family_size(setting, k):
    """The common cardinality d_k of the largest path families, dim p+ - |D_k|."""
    _geometry(setting, k)
    return diagrams.dim_p_plus(setting) - diagrams._d_size(*diagrams._dual_pair_shape(setting, k))


def enumerate_maximal_F(setting, k):
    """The path families of maximum cardinality d_k: the facets of posets.iter_facets in root labels."""
    _geometry(setting, k)
    return [PathFamily(_root_labels(setting, f.points)) for f in iter_facets(setting, k)]


class Jellyfish(namedtuple("Jellyfish", "tableau family")):
    """A tableau together with a path family (a PathFamily) sharing its
    endpoint data."""

    __slots__ = ()


def iter_jellyfish(setting, sigma):
    """The jellyfish of shape sigma, pairs (T, F) with F realizing end(T),
    one at a time, checked and set up at the call.  The families are built
    only for the endpoint data that the tableaux reach, once per datum,
    _families_ending_at."""
    _geometry(setting, setting.k)
    sigma = dualpair.nonzero_label(setting, sigma)
    ends = _end_map(setting, sigma)
    built = {}

    def families(T):
        end = ends(T)
        if end not in built:
            built[end] = _families_ending_at(setting, setting.k, end)
        return built[end]

    return (Jellyfish(T, f) for T in dualpair._enumerate_T(setting, sigma) for f in families(T))


def enumerate_jellyfish(setting, sigma):
    """All jellyfish of shape sigma, as a list."""
    return list(iter_jellyfish(setting, sigma))


def enumerate_maximal_jellyfish(setting, sigma):
    """The jellyfish whose path family has the maximum cardinality d_k."""
    d = max_family_size(setting, setting.k)
    return [j for j in enumerate_jellyfish(setting, sigma) if len(j.family) == d]


def _count_jellyfish(setting, sigma, maximal):
    """The jellyfish of sigma, or only the maximal ones, counted without
    listing a jellyfish or a tableau.  end(T) reads only the first column of
    T (of T+ and T- for upq), so it is one value on each column class of
    T(sigma), dualpair._T_classes, and a class of size a adds a times the
    number of families realizing end(key), _family_number, taken once per
    endpoint datum; for the maximal count, only where their size,
    _family_size, is d_k."""
    k = setting.k
    _geometry(setting, k)
    sigma = dualpair.nonzero_label(setting, sigma)
    d = max_family_size(setting, k) if maximal else None
    ends = _end_map(setting, sigma)
    weights = {}
    total = 0
    for key, size in dualpair._T_classes(setting, sigma):
        end = ends(key)
        weight = weights.get(end)
        if weight is None:
            sized = d is None or _family_size(setting, k, end) == d
            weight = weights[end] = _family_number(setting, k, end) if sized else 0
        total += weight * size
    return total


def count_jellyfish(setting, sigma):
    """len(enumerate_jellyfish(setting, sigma)), listing no jellyfish."""
    return _count_jellyfish(setting, sigma, maximal=False)


def multiplicity_from_jellyfish(setting, sigma):
    """#(maximal jellyfish), which equals the Bernstein degree, listing no
    jellyfish, tableau or path family.  Its #P side is the D_0 path count of
    _family_number, independent of the hook product; the class sizes are
    flagged determinants, the kernel of dualpair.count_Q_determinant.  The
    listing enumerate_maximal_jellyfish checks both in the tests."""
    return _count_jellyfish(setting, sigma, maximal=True)
