"""Ready-made groupoids: cyclic groups, discrete spaces, pair groupoids,
disjoint unions, and the order-2 action groupoid on two points."""

import numpy as np

from .groupoids import (FiniteRealGroupoid, check_arrow_cap, discrete_space,
                        pullback_groupoid, renumber_arrows)


def cyclic_group(n, involution="trivial"):
    """Z/n as a one-object groupoid; involution 'trivial' or 'inversion'."""
    check_arrow_cap(n)   # before the n x n table is built
    a = np.arange(n)
    inv = -a % n
    if involution not in ("trivial", "inversion"):
        raise ValueError(f"unknown involution {involution!r}")
    return FiniteRealGroupoid(1, a * 0, a * 0, [0], (a[:, None] + a) % n, inv, [0],
                              a if involution == "trivial" else inv)


def group_from_table(table, rho_arr=None):
    """One-object groupoid from a Cayley table: the unit is the first arrow
    that is a two-sided identity, the inverse of g the last h with gh = 1."""
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    a = np.arange(n)
    e = np.flatnonzero((table == a).all(axis=1) & (table == a[:, None]).all(axis=0))
    if not e.size:
        raise ValueError("table has no identity")
    ones = table == e[0]
    inv = np.where(ones.any(axis=1), n - 1 - ones[:, ::-1].argmax(axis=1), 0)
    return FiniteRealGroupoid(1, a * 0, a * 0, e[:1], table, inv,
                              [0], a if rho_arr is None else rho_arr)


def pair_groupoid(n_objects, rho_obj=None):
    """The pair groupoid on n objects: one arrow y <- x per ordered pair,
    in lexicographic order of (y, x); the pullback of a point."""
    return pullback_groupoid(discrete_space(1), [0] * n_objects,
                             range(n_objects) if rho_obj is None else rho_obj)


def disjoint_union(g1, g2, swap=False):
    """Disjoint union; with swap=True the involution exchanges the two
    (necessarily isomorphic-with-matching-indices) summands."""
    n1, m1 = g1.n_objects, g1.n_arrows
    n, m = n1 + g2.n_objects, m1 + g2.n_arrows
    check_arrow_cap(m)
    table = np.full((m, m), -1, dtype=np.int64)
    table[:m1, :m1] = g1.comp
    table[m1:, m1:] = np.where(g2.comp >= 0, g2.comp + m1, -1)
    if swap:
        if (n1, m1) != (g2.n_objects, g2.n_arrows):
            raise ValueError("swap requires summands of matching shape")
        rho_obj, rho_arr = np.roll(np.arange(n), n1), np.roll(np.arange(m), m1)
    else:
        rho_obj = np.concatenate([g1.rho_obj, g2.rho_obj + n1])
        rho_arr = np.concatenate([g1.rho_arr, g2.rho_arr + m1])
    return FiniteRealGroupoid(
        n, np.concatenate([g1.src, g2.src + n1]), np.concatenate([g1.tgt, g2.tgt + n1]),
        np.concatenate([g1.unit, g2.unit + m1]), table,
        np.concatenate([g1.inv, g2.inv + m1]), rho_obj, rho_arr)


def flip_action_groupoid():
    """Z/2 acting on two points by exchange, with the point-swap as the
    Real structure.  Arrows (g, x): src x, tgt g.x, numbered 2g + x.  The
    action is free and transitive: (g, x) is the pair (g.x, x)."""
    return renumber_arrows(pair_groupoid(2, [1, 0]), [0, 3, 2, 1])
