"""Jellyfish: tableaux paired with boundary-anchored nonintersecting lattice
path families, whose maximal members count the Bernstein degree directly.

Everything here works in root-label coordinates (i, j), with lattice paths
stepping southeast: (i, j) -> (i+1, j) or (i, j+1), drawn by the path engine
of posets.  Only the unitary and star-orthogonal families carry this
structure.
"""

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from . import dualpair
from .dualpair import IN_SIGMA, OSTAR, UPQ, free_threshold
from .posets import PathFamily, build_poset, disjoint_products, lattice_paths


def _check_family(setting):
    if setting.family not in (UPQ, OSTAR):
        raise ValueError("jellyfish exist only for the upq and ostar families")


def _check_k(setting, k):
    if not 1 <= k < free_threshold(setting):
        raise ValueError(f"k must satisfy 1 <= k < {free_threshold(setting)}")


def _points(setting):
    """The root labels (i, j) of the positive noncompact roots."""
    poset = build_poset(setting)
    return frozenset(map(poset.label, poset.points))


def _region(setting, k):
    """The fixed region A on the small side of the boundary diagonal."""
    cutoff = k + 1 if setting.family == UPQ else 2 * (k + 1)
    return frozenset(p for p in _points(setting) if p[0] + p[1] <= cutoff)


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
    assert len(set(pts)) == k
    return tuple(sorted(pts))


@dataclass(frozen=True)
class Endpoints:
    """Endpoint data of a path family: columns j of endpoints on the southern
    edge and rows i of endpoints on the eastern edge, each sorted increasing.
    The ostar family only uses the eastern list."""

    south: tuple = ()
    east: tuple = ()

    def points(self, setting):
        if setting.family == UPQ:
            return frozenset((setting.p, j) for j in self.south) | frozenset(
                (i, setting.q) for i in self.east
            )
        return frozenset((i, setting.n) for i in self.east)


@dataclass(frozen=True)
class BoundaryData:
    """Boundary regions and anchors for the path families at level k."""

    region: frozenset
    starts: tuple
    outer: frozenset
    a_list: tuple = None  # upq southern anchors a_u
    b_list: tuple = None  # eastern anchors b_t
    i_hat: tuple = None  # ostar maximal east endpoints
    k_plus: int = None
    k_minus: int = None


def split_k(setting, k, sigma):
    """The (k_plus, k_minus) split of the inner boundary for upq."""
    plus, minus = dualpair.normalize_sigma(setting, sigma)
    if setting.p > setting.q:
        k_minus = max(len(minus), k - setting.q)
        return k - k_minus, k_minus
    k_plus = max(len(plus), k - setting.p)
    return k_plus, k - k_plus


def boundary_data(setting, k, sigma=None):
    """Regions, anchor points, and maximal-endpoint data for level k."""
    _check_family(setting)
    _check_k(setting, k)
    region = _region(setting, k)
    starts = _starts(setting, k)
    outer = _outer(setting)
    if setting.family == OSTAR:
        n = setting.n
        b_list = _ostar_b_list(n, k)
        i_hat = tuple(
            t if t < 2 * (k + 1) - n else n + 2 * (t - k) - 1 for t in range(1, k + 1)
        )
        return BoundaryData(region, starts, outer, b_list=b_list, i_hat=i_hat)
    p, q = setting.p, setting.q
    a_list = tuple(p if u <= k - p else k - u + 1 for u in range(1, k + 1))
    b_list = tuple(q if t <= k - q else k - t + 1 for t in range(1, k + 1))
    k_plus = k_minus = None
    if sigma is not None:
        k_plus, k_minus = split_k(setting, k, sigma)
    return BoundaryData(
        region, starts, outer, a_list=a_list, b_list=b_list,
        k_plus=k_plus, k_minus=k_minus,
    )


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
    _check_family(setting)
    k = setting.k
    _check_k(setting, k)
    sigma = dualpair.normalize_sigma(setting, sigma)
    if setting.family == OSTAR:
        data = boundary_data(setting, k)
        col = T.column(1)
        east = tuple(
            min(col[t - 1], data.i_hat[t - 1]) if t <= len(col) else data.i_hat[t - 1]
            for t in range(1, k + 1)
        )
        return Endpoints(east=east)
    if setting.p > setting.q:
        # the boundary formulas assume the wide orientation; transpose
        plus, minus = sigma
        mirror = dualpair.upq(setting.q, setting.p, k)
        flipped = end_map(mirror, (minus, plus), (T[1], T[0]))
        return Endpoints(south=flipped.east, east=flipped.south)
    t_plus, t_minus = T
    k_plus, k_minus = split_k(setting, k, sigma)
    col_plus = t_plus.column(1)
    south = tuple(
        u if u <= k - setting.p else col_plus[u - 1] for u in range(1, k_plus + 1)
    )
    hats = i_hat_upq(setting, k, k_minus, south)
    col_minus = t_minus.column(1)
    east = tuple(
        min(col_minus[t - 1], hats[t - 1]) if t <= len(col_minus) else hats[t - 1]
        for t in range(1, k_minus + 1)
    )
    return Endpoints(south=south, east=east)


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
    realizing it; the result is cached, so callers must not change it."""
    _check_family(setting)
    _check_k(setting, k)
    starts = _starts(setting, k)
    fixed = _region(setting, k) - set(starts)
    points, outer = _points(setting), _outer(setting)
    candidates = [lattice_paths(start, points, outer) for start in starts]
    grouped = {}
    seen = {}
    for combo, pts in disjoint_products(candidates):
        assert pts.isdisjoint(fixed)
        family = PathFamily(pts | fixed, combo)
        ends = [path[-1] for path in combo]
        for key in _endpoint_keys(setting, ends):
            bucket = seen.setdefault(key, set())
            if family.points not in bucket:
                bucket.add(family.points)
                grouped.setdefault(key, []).append(family)
    return MappingProxyType({key: tuple(families) for key, families in grouped.items()})


def enumerate_F(setting, k):
    """All path families at level k, deduplicated by point set."""
    by_pts = {}
    for families in _families_by_endpoints(setting, k).values():
        for f in families:
            by_pts.setdefault(f.points, f)
    return sorted(by_pts.values(), key=lambda f: sorted(f.points))


def enumerate_F_E(setting, k, endpoints):
    """All path families with the given endpoint data."""
    grouped = _families_by_endpoints(setting, k)
    if endpoints not in grouped:
        raise ValueError(f"endpoint set {endpoints} is not realizable")
    return list(grouped[endpoints])


def max_family_size(setting, k):
    """The common cardinality d_k of the largest path families."""
    return max(len(f) for f in enumerate_F(setting, k))


def enumerate_maximal_F(setting, k):
    """The path families of maximum cardinality d_k."""
    d = max_family_size(setting, k)
    return [f for f in enumerate_F(setting, k) if len(f) == d]


@dataclass(frozen=True)
class Jellyfish:
    """A tableau together with a path family sharing its endpoint data."""

    tableau: object
    family: PathFamily


def _check_sigma(setting, sigma):
    if dualpair.sigma_admissible(setting, sigma) != IN_SIGMA:
        raise ValueError("sigma is not an admissible nonzero label")


def enumerate_jellyfish(setting, sigma):
    """All jellyfish of shape sigma: pairs (T, F) with F realizing end(T)."""
    _check_family(setting)
    _check_k(setting, setting.k)
    _check_sigma(setting, sigma)
    grouped = _families_by_endpoints(setting, setting.k)
    out = []
    for T in dualpair.enumerate_T(setting, sigma):
        for f in grouped.get(end_map(setting, sigma, T), []):
            out.append(Jellyfish(T, f))
    return out


def enumerate_maximal_jellyfish(setting, sigma):
    """The jellyfish whose path family has the maximum cardinality d_k."""
    d = max_family_size(setting, setting.k)
    return [j for j in enumerate_jellyfish(setting, sigma) if len(j.family) == d]


def multiplicity_from_jellyfish(setting, sigma):
    """#(maximal jellyfish), which equals the Bernstein degree."""
    return len(enumerate_maximal_jellyfish(setting, sigma))
