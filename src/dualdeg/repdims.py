"""Dimensions in exact integers: the GL hook-content product, Weyl's
product formulas for Sp_2k (type C) and O_k (types B and D), and a generic
Weyl dimension formula over positive roots generated from Cartan matrices."""

import math
from functools import cache

from . import dualpair
from .tableaux import check_partition, conjugate, exact_quotient, pad


def dim_gl(n, weight):
    """Dimension of the GL_n irrep with the given weakly decreasing n-tuple."""
    weight = tuple(weight)
    if len(weight) != n or any(weight[i] < weight[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be a weakly decreasing n-tuple")
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= weight[i] - weight[j] + j - i
            den *= j - i
    return exact_quotient(num, den)


def _dim_gl_partition(n, lam):
    """dim_gl(n, pad(lam, n)) for a partition lam of at most n parts, by the
    hook-content formula: the product over the cells (i, j) of lam of
    (n + j - i) / hook(i, j), |lam| factors in place of n(n-1)/2."""
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1
    return exact_quotient(num, den)


def dim_gl_rational(k, plus, minus):
    """Dimension of the GL_k irrep labeled by a pair of partitions: highest
    weight (plus, 0, ..., 0, -reversed(minus))."""
    plus, minus = tuple(plus), tuple(minus)
    if len(plus) + len(minus) > k:
        raise ValueError("pair does not fit in rank k")
    full = plus + (0,) * (k - len(plus) - len(minus)) + tuple(-x for x in reversed(minus))
    return dim_gl(k, full)


def _classical_dim(shifted, rho, axis_roots):
    """Weyl's product for types B, C and D in epsilon coordinates, with
    shifted = lambda + rho: the ratio <shifted, a> / <rho, a> over the roots
    e_i - e_j and e_i + e_j (i < j), and over e_i or 2e_i when axis_roots."""
    num = den = 1
    for i, (a, b) in enumerate(zip(shifted, rho)):
        if axis_roots:
            num *= a
            den *= b
        for c, d in zip(shifted[i + 1 :], rho[i + 1 :]):
            num *= a * a - c * c
            den *= b * b - d * d
    return exact_quotient(num, den)


def dim_o(k, sigma):
    """Dimension of the O_k irrep labeled by sigma (first two columns of
    total length at most k), by Weyl's formula for SO_k.

    A label with first column c1 > k/2 has the dimension of its associate,
    whose columns (k - c1,) + conj[1:] are weakly decreasing, as conjugate
    needs, since c1 + c2 <= k.  For even k a label with k/2 rows restricts
    to two SO_k irreps of equal dimension, so it counts twice."""
    sigma = check_partition(sigma)
    conj = conjugate(sigma)
    c1 = conj[0] if len(conj) >= 1 else 0
    c2 = conj[1] if len(conj) >= 2 else 0
    if c1 + c2 > k:
        raise ValueError("sigma is not an O_k label")
    if 2 * c1 > k:
        sigma = conjugate((k - c1,) + conj[1:])
    m = k // 2
    lam = pad(sigma, m)
    if k % 2:  # type B_m, coordinates doubled so that rho is integral
        rho = [2 * (m - i) - 1 for i in range(m)]
        shifted = [2 * x + r for x, r in zip(lam, rho)]
    else:  # type D_m
        rho = [m - 1 - i for i in range(m)]
        shifted = [x + r for x, r in zip(lam, rho)]
    dim = _classical_dim(shifted, rho, k % 2 == 1)
    return 2 * dim if k % 2 == 0 and m and len(sigma) == m else dim


def dim_sp(two_k, sigma):
    """Dimension of the Sp_{2k} irrep with highest weight sigma, by Weyl's
    formula for type C_k."""
    if two_k % 2 != 0:
        raise ValueError("rank must be even")
    k = two_k // 2
    sigma = check_partition(sigma)
    if len(sigma) > k:
        raise ValueError("sigma is not an Sp_2k highest weight")
    rho = range(k, 0, -1)
    return _classical_dim([x + r for x, r in zip(pad(sigma, k), rho)], rho, True)


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
        return _dim_gl_partition(setting.p, minus) * _dim_gl_partition(setting.q, plus)
    return _dim_gl_partition(setting.n, sigma)
