"""Ready-made groupoids: cyclic groups, discrete spaces, pair groupoids,
disjoint unions, and the order-2 action groupoid on two points."""

import numpy as np

from .groupoids import (FiniteRealGroupoid, check_arrow_cap, discrete_space,
                        pullback_groupoid, renumber_arrows)


def cyclic_group(n, involution="trivial"):
    """Z/n as a one-object groupoid; involution 'trivial' or 'inversion'."""
    check_arrow_cap(n)   # before the n x n table is built
    table = np.array([[(a + b) % n for b in range(n)] for a in range(n)],
                     dtype=np.int64)
    inv = [(-a) % n for a in range(n)]
    if involution == "trivial":
        rho = list(range(n))
    elif involution == "inversion":
        rho = inv[:]
    else:
        raise ValueError(f"unknown involution {involution!r}")
    return FiniteRealGroupoid(1, [0] * n, [0] * n, [0], table, inv,
                              [0], rho)


def group_from_table(table, rho_arr=None):
    """One-object groupoid from a Cayley table; row 0 must be the identity."""
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    e = None
    for g in range(n):
        if all(table[g, h] == h and table[h, g] == h for h in range(n)):
            e = g
            break
    if e is None:
        raise ValueError("table has no identity")
    inv = [0] * n
    for g in range(n):
        for h in range(n):
            if table[g, h] == e:
                inv[g] = h
    return FiniteRealGroupoid(1, [0] * n, [0] * n, [e], table, inv,
                              [0], rho_arr if rho_arr is not None else range(n))


def pair_groupoid(n_objects, rho_obj=None):
    """The pair groupoid on n objects: one arrow y <- x per ordered pair,
    in lexicographic order of (y, x); the pullback of a point."""
    return pullback_groupoid(discrete_space(1), [0] * n_objects,
                             range(n_objects) if rho_obj is None else rho_obj)


def disjoint_union(g1, g2, swap=False):
    """Disjoint union; with swap=True the involution exchanges the two
    (necessarily isomorphic-with-matching-indices) summands."""
    n1, m1 = g1.n_objects, g1.n_arrows
    n2, m2 = g2.n_objects, g2.n_arrows
    check_arrow_cap(m1 + m2)
    src = list(g1.src) + [s + n1 for s in g2.src]
    tgt = list(g1.tgt) + [t + n1 for t in g2.tgt]
    unit = list(g1.unit) + [u + m1 for u in g2.unit]
    inv = list(g1.inv) + [v + m1 for v in g2.inv]
    table = np.full((m1 + m2, m1 + m2), -1, dtype=np.int64)
    table[:m1, :m1] = g1.comp
    block2 = np.asarray(g2.comp).copy()
    block2[block2 >= 0] += m1
    table[m1:, m1:] = block2
    if swap:
        if (n1, m1) != (n2, m2):
            raise ValueError("swap requires summands of matching shape")
        rho_obj = [x + n1 for x in range(n1)] + list(range(n1))
        rho_arr = [g + m1 for g in range(m1)] + list(range(m1))
    else:
        rho_obj = list(g1.rho_obj) + [x + n1 for x in g2.rho_obj]
        rho_arr = list(g1.rho_arr) + [g + m1 for g in g2.rho_arr]
    return FiniteRealGroupoid(n1 + n2, src, tgt, unit, table, inv,
                              rho_obj, rho_arr)


def flip_action_groupoid():
    """Z/2 acting on two points by exchange, with the point-swap as the
    Real structure.  Arrows (g, x): src x, tgt g.x, numbered 2g + x.  The
    action is free and transitive: (g, x) is the pair (g.x, x)."""
    return renumber_arrows(pair_groupoid(2, [1, 0]), [0, 3, 2, 1])
