"""Dimensions in exact integers: one product over the cells of a label for
GL, Sp_2k and O_k (El Samra and King, J. Phys. A 12, 1979), and a generic
Weyl dimension formula over positive roots generated from Cartan matrices."""

import math
from functools import cache
from operator import ge, lt

from . import dualpair
from .tableaux import check_partition, conjugate, exact_quotient


def _cell_product(n, lam, king=0):
    """The product over the cells (i, j) of the partition lam, 0-indexed, of
    (n + c(i, j)) / hook(i, j), divided once.  c is the content j - i for
    GL_n (king=0), King's r-function for Sp_n (king=1) and his s-function for
    O_n (king=-1): below the diagonal, and on it for O_n, the row lengths
    lam[i] + lam[j] - i - j + king - 1, else the column lengths
    i + j + king + 1 - conj[i] - conj[j].  The GL_n case is the hook-content
    formula, |lam| factors in place of n(n-1)/2."""
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            if not king:
                num *= n + j - i
            elif i > j or i == j and king < 0:
                num *= n + row + lam[j] - i - j + king - 1
            else:
                num *= n + i + j + king + 1 - conj[i] - conj[j]
            den *= row - j + conj[j] - i - 1
    return exact_quotient(num, den)


def dim_gl(n, weight):
    """Dimension of the GL_n irrep with the given weakly decreasing n-tuple:
    dim_gl_rational of its positive parts and its negated negative ones."""
    weight = tuple(weight)
    if len(weight) != n or any(map(lt, weight, weight[1:])):
        raise ValueError("weight must be a weakly decreasing n-tuple")
    return dim_gl_rational(n, [x for x in weight if x > 0], [-x for x in reversed(weight) if x < 0])


def dim_gl_rational(k, plus, minus):
    """Dimension of the GL_k irrep labeled by a pair of partitions: highest
    weight (plus, 0, ..., 0, -reversed(minus)).  El Samra and King: the GL
    cell products of plus at rank k - l(minus) and of minus at k - l(plus),
    times (k + 1 - i - j + plus_i + minus_j) / (k + 1 - i - j) over
    i <= l(plus) and j <= l(minus), counted from 1."""
    plus, minus = tuple(plus), tuple(minus)
    if len(plus) + len(minus) > k:
        raise ValueError("pair does not fit in rank k")
    if not all(all(map(ge, part, part[1:] + (0,))) for part in (plus, minus)):
        raise ValueError("weight must be a weakly decreasing n-tuple")
    plus, minus = tuple(filter(None, plus)), tuple(filter(None, minus))
    num = den = 1
    for i, x in enumerate(plus):
        for j, y in enumerate(minus):
            num *= k - 1 - i - j + x + y
            den *= k - 1 - i - j
    num *= _cell_product(k - len(minus), plus) * _cell_product(k - len(plus), minus)
    return exact_quotient(num, den)


def dim_o(k, sigma):
    """Dimension of the O_k irrep labeled by sigma, a partition whose first
    two columns have total length at most k: King's cell product."""
    sigma = check_partition(sigma)
    if sum(conjugate(sigma)[:2]) > k:
        raise ValueError("sigma is not an O_k label")
    return _cell_product(k, sigma, king=-1)


def dim_sp(two_k, sigma):
    """Dimension of the Sp_{2k} irrep with highest weight sigma, a partition
    of at most k parts: King's cell product."""
    if two_k % 2 != 0:
        raise ValueError("rank must be even")
    sigma = check_partition(sigma)
    if len(sigma) > two_k // 2:
        raise ValueError("sigma is not an Sp_2k highest weight")
    return _cell_product(two_k, sigma, king=1)


def dim_U_sigma(setting, sigma):
    """Dimension of the rank-k group irrep labeled by sigma (k <= r only):
    GL_k for upq, O_k for mp and Sp_2k for ostar."""
    return _dim_U(setting, dualpair.normalize_sigma(setting, sigma))


def _dim_U(setting, sigma):
    """dim_U_sigma with sigma as normalize_sigma returns it."""
    if setting.family == dualpair.UPQ:
        return dim_gl_rational(setting.k, sigma[0], sigma[1])
    if setting.family == dualpair.MP:
        return dim_o(setting.k, sigma)
    return dim_sp(2 * setting.k, sigma)


@cache
def root_system(name):
    """The positive roots of B_n, C_n, F4 or G2: (lengths, roots) with roots
    in the simple-root basis, in order of height, and lengths the squared
    lengths of the simple roots in lowest terms.

    The Cartan matrix a_ij = <alpha_i^vee, alpha_j> is a chain in Bourbaki
    numbering.  beta + alpha_i is a root exactly when p > sum_j beta_j a_ij,
    where p is how far beta - p alpha_i stays a root; d_i a_ij = d_j a_ji
    gives the lengths d_i along the chain."""
    kind, rank = name[:1], name[1:]
    n = int(rank) if rank.isdecimal() else 0
    # the one bond (i, i + 1) between a long and a short simple root, i
    # counted from 1, as (i, a_{i,i+1}, a_{i+1,i}); none in rank 1
    bonds = {"B": (n - 1, -1, -2), "C": (n - 1, -2, -1), "F": (2, -1, -2), "G": (1, -3, -1)}
    if kind not in bonds or name != f"{kind}{n}" or n < 1 or {"F": 4, "G": 2}.get(kind, n) != n:
        raise ValueError(f"unknown root system {name!r}")
    a = [[2 if i == j else -(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    bond, up, down = bonds[kind]
    if bond:
        a[bond - 1][bond], a[bond][bond - 1] = up, down
    lengths = [1]
    for i in range(n - 1):
        lengths = [x * -a[i + 1][i] for x in lengths] + [lengths[i] * -a[i][i + 1]]
    scale = math.gcd(*lengths)
    roots = dict.fromkeys(tuple(int(i == j) for j in range(n)) for i in range(n))
    layer = list(roots)
    while layer:
        above = {}
        for beta in layer:
            for i, row in enumerate(a):
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1 :] in roots:
                    p += 1
                if p > sum(b * x for b, x in zip(beta, row)):
                    above[beta[:i] + (beta[i] + 1,) + beta[i + 1 :]] = None
        roots.update(above)
        layer = list(above)
    return tuple(x // scale for x in lengths), tuple(roots)


def dim_weyl(name, weight):
    """Weyl dimension formula for the named system, weight in fundamental
    coordinates (nonnegative integers)."""
    lengths, roots = root_system(name)
    weight = tuple(weight)
    if len(weight) != len(lengths):
        raise ValueError(f"{name} weight needs {len(lengths)} coordinates")
    if any(x < 0 for x in weight):
        raise ValueError("weight must be dominant (nonnegative coordinates)")
    num = den = 1
    for c in roots:
        num *= sum((weight[i] + 1) * c[i] * lengths[i] for i in range(len(c)))
        den *= sum(c[i] * lengths[i] for i in range(len(c)))
    return exact_quotient(num, den)


def dim_F_lambda(setting, sigma):
    """Dimension of the K-irrep with the highest weight attached to sigma."""
    return _dim_F(setting, dualpair.nonzero_label(setting, sigma))


def _dim_F(setting, sigma):
    """dim_F_lambda of a label dualpair.nonzero_label has returned."""
    if setting.family == dualpair.UPQ:
        plus, minus = sigma
        return _cell_product(setting.p, minus) * _cell_product(setting.q, plus)
    return _cell_product(setting.n, sigma)
