"""Jellyfish: tableaux paired with boundary-anchored nonintersecting lattice
path families, whose maximal members count the Bernstein degree directly.

Everything here works in root-label coordinates (i, j), with lattice paths
stepping southeast: (i, j) -> (i+1, j) or (i, j+1), drawn by the path engine
of posets.  Only the unitary and star-orthogonal families carry this
structure.
"""

from collections import namedtuple
from functools import cache
from types import MappingProxyType

from . import diagrams, dualpair
from .dualpair import OSTAR, UPQ, free_threshold
from .posets import PathFamily, disjoint_products, lattice_paths


# the families that carry jellyfish
FAMILIES = (UPQ, OSTAR)


def _check_family(setting):
    if setting.family not in FAMILIES:
        raise ValueError("jellyfish exist only for the upq and ostar families")


def _check_k(setting, k):
    if not 1 <= k < free_threshold(setting):
        raise ValueError(f"k must satisfy 1 <= k < {free_threshold(setting)}")


@cache
def _points(setting):
    """The root labels (i, j) of the positive noncompact roots: the box
    (r, c) of D_0 is the root (r, c) for upq and (r, c + 1) for ostar."""
    shift = setting.family == OSTAR
    return frozenset((r, c + shift) for r, c in diagrams.diagram_D(setting, 0))


@cache
def _region(setting, k):
    """The fixed region A on the small side of the boundary diagonal."""
    cutoff = dualpair.FAMILIES[setting.family].step * (k + 1)
    return frozenset(p for p in _points(setting) if p[0] + p[1] <= cutoff)


@cache
def _outer(setting):
    """The outer boundary: the far edges where every path must end."""
    if setting.family == UPQ:
        return frozenset(
            p for p in _points(setting) if p[0] == setting.p or p[1] == setting.q
        )
    return frozenset(p for p in _points(setting) if p[1] == setting.n)


def _ostar_b_list(n, k):
    """The ostar eastern anchors b_1, ..., b_k: column n until the boundary
    diagonal i + j = 2(k + 1) passes it."""
    return tuple(n if t < 2 * (k + 1) - n else 2 * (k + 1) - t for t in range(1, k + 1))


def _starts(setting, k):
    """The k path starting points on the inner boundary of the region."""
    if setting.family == UPQ:
        p, q = setting.p, setting.q
        pts = [(p, u) for u in range(1, k - p + 1)]
        pts += [(t, q) for t in range(1, k - q + 1)]
        pts += [
            (i, k + 1 - i)
            for i in range(max(1, k + 1 - q), min(p, k) + 1)
        ]
    else:
        pts = list(enumerate(_ostar_b_list(setting.n, k), 1))
    if len(set(pts)) != k:  # raised, not asserted, so that python -O keeps the check
        raise AssertionError(f"{setting} k={k} has start points {pts}, not {k} distinct ones")
    return tuple(sorted(pts))


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
    return _end_map(setting, dualpair.normalize_sigma(setting, sigma))(T)


def _end_map(setting, sigma):
    """end_map as a function of T, for a sigma as normalize_sigma returns
    it: what depends on the setting and sigma alone is worked out once, not
    once per tableau."""
    _check_family(setting)
    k = setting.k
    _check_k(setting, k)
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


def _endpoint_keys(setting, endpoints):
    """Endpoint classifications of a path tuple; two when a corner endpoint
    could lie on either edge."""
    if setting.family == OSTAR:
        return [Endpoints(east=tuple(sorted(i for i, _ in endpoints)))]
    p, q = setting.p, setting.q
    south = sorted(j for i, j in endpoints if i == p and j < q)
    east = sorted(i for i, j in endpoints if j == q and i < p)
    if (p, q) not in endpoints:
        return [Endpoints(south=tuple(south), east=tuple(east))]
    return [
        Endpoints(south=tuple(sorted(south + [q])), east=tuple(east)),
        Endpoints(south=tuple(south), east=tuple(sorted(east + [p]))),
    ]


@cache
def _families_by_endpoints(setting, k):
    """Read-only map from endpoint data to the tuple of path families
    realizing it; the result is cached, so callers must not change it.  No
    key lists a family twice: disjoint east/south paths from fixed starts
    never cross, so their union fixes the paths (see posets.iter_facets);
    a family ending at the corner (p, q) is listed under both its keys."""
    _check_family(setting)
    _check_k(setting, k)
    starts = _starts(setting, k)
    fixed = _region(setting, k) - set(starts)
    points, outer = _points(setting), _outer(setting)
    candidates = [lattice_paths(start, points, outer) for start in starts]
    grouped = {}
    for combo, pts in disjoint_products(candidates):
        if not pts.isdisjoint(fixed):  # raised, not asserted, as above
            raise AssertionError(f"a path family of {setting} k={k} meets the fixed region")
        family = PathFamily(pts | fixed, combo)
        for key in _endpoint_keys(setting, [path[-1] for path in combo]):
            grouped.setdefault(key, []).append(family)
    return MappingProxyType({key: tuple(families) for key, families in grouped.items()})


def enumerate_F(setting, k):
    """All path families at level k, deduplicated by point set."""
    by_pts = {}
    for families in _families_by_endpoints(setting, k).values():
        for f in families:
            by_pts.setdefault(f.points, f)
    return sorted(by_pts.values(), key=lambda f: sorted(f.points))


@cache
def max_family_size(setting, k):
    """The common cardinality d_k of the largest path families."""
    return max(len(f) for families in _families_by_endpoints(setting, k).values() for f in families)


def enumerate_maximal_F(setting, k):
    """The path families of maximum cardinality d_k."""
    d = max_family_size(setting, k)
    return [f for f in enumerate_F(setting, k) if len(f) == d]


class Jellyfish(namedtuple("Jellyfish", "tableau family")):
    """A tableau together with a path family (a PathFamily) sharing its
    endpoint data."""

    __slots__ = ()


def enumerate_jellyfish(setting, sigma):
    """All jellyfish of shape sigma: pairs (T, F) with F realizing end(T)."""
    _check_family(setting)
    _check_k(setting, setting.k)
    sigma = dualpair.nonzero_label(setting, sigma)
    grouped = _families_by_endpoints(setting, setting.k)
    ends = _end_map(setting, sigma)
    out = []
    for T in dualpair._enumerate_T(setting, sigma):
        for f in grouped.get(ends(T), []):
            out.append(Jellyfish(T, f))
    return out


def enumerate_maximal_jellyfish(setting, sigma):
    """The jellyfish whose path family has the maximum cardinality d_k."""
    d = max_family_size(setting, setting.k)
    return [j for j in enumerate_jellyfish(setting, sigma) if len(j.family) == d]


def multiplicity_from_jellyfish(setting, sigma):
    """#(maximal jellyfish), which equals the Bernstein degree, listing no
    jellyfish and no tableau.  end(T) reads only the first column of T (of
    T+ and T- for upq), so it is one value on each column class of T(sigma),
    dualpair._T_classes, and a class of size a adds a times the number of
    maximal families realizing end(key), which is taken once per endpoint
    datum.  The class sizes are flagged determinants, the kernel of
    dualpair.count_Q_determinant; the listing enumerate_maximal_jellyfish
    checks them in the tests."""
    _check_family(setting)
    _check_k(setting, setting.k)
    sigma = dualpair.nonzero_label(setting, sigma)
    grouped = _families_by_endpoints(setting, setting.k)
    d = max_family_size(setting, setting.k)
    ends = _end_map(setting, sigma)
    maximal = {}
    total = 0
    for key, size in dualpair._T_classes(setting, sigma):
        end = ends(key)
        weight = maximal.get(end)
        if weight is None:
            weight = maximal[end] = sum(len(f) == d for f in grouped.get(end, ()))
        total += weight * size
    return total
