"""Finite groupoids with a strict involution, and the constructions used
for Morita-invariance checks: the pullback groupoid along a Real map, and
through it the cover groupoid and the fibered-product pair groupoid of a
surjection; the product with a finite group.

Objects and arrows are dense integer indices; all structure maps are
stored as index arrays, composition as a full table (-1 = undefined).
Values are immutable after construction; a groupoid keeps what is built
from it alone, its `fibres` and its nerve levels, for its lifetime.
"""

import os
import weakref
from functools import cached_property

import numpy as np


def max_arrows():
    """The cap on arrows in a groupoid: RGC_MAX_ARROWS, or 65536 if it is
    unset or not an integer."""
    try:
        return int(os.environ.get("RGC_MAX_ARROWS", 1 << 16))
    except ValueError:
        return 1 << 16


def check_arrow_cap(count):
    """ValueError if a groupoid of count arrows would pass the cap; checked
    before anything of that size is allocated."""
    cap = max_arrows()
    if count > cap:
        raise ValueError(f"too many arrows ({count} > {cap})")


def _indices(name, values, shape, bound, low=0):
    """values as an int64 array, checked to have the given shape and every
    entry to be an integer in [low, bound); 2.0 is one, 2.5 is not."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        bad = ~np.isfinite(a) | (a != np.floor(a))
        if bad.any():
            raise ValueError(f"{name} entry {a[bad][0]} is not an integer")
    a = a.astype(np.int64)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, not {shape}")
    out = (a < low) | (a >= bound)
    if out.any():
        raise ValueError(
            f"{name} entry {a[out][0]} is out of range [{low}, {bound})")
    return a


def _failures(*checks):
    """The message of every failing check, ordered by witness and then by
    check.  A check is a (template, mask) pair; all masks have one shape,
    and the index of a true entry is the witness put into the template."""
    hits = np.argwhere(np.stack([mask for _, mask in checks], axis=-1))
    return [checks[w[-1]][0].format(*w[:-1]) for w in hits.tolist()]


def _ragged(starts, lengths):
    """Owner i and value of every entry of the concatenated ranges
    starts[i], ..., starts[i] + lengths[i] - 1."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths,
                                               lengths)
    return owner, starts[owner] + offset


class FiniteRealGroupoid:
    """A finite groupoid together with an involution commuting with all
    structure maps (a strict 2-periodic automorphism).

    Fields: n_objects, src, tgt, unit, inv, comp (full table), rho_obj,
    rho_arr.  The constructor checks the size cap, then the shape and
    index range of every array; validate() reports violated axioms.
    `levels` holds the levels of its nerve built so far by degree, filled
    by `nerve.nerve` and kept for the groupoid's lifetime; `complexes`
    keeps, by coefficient object, the `cochains.Shared` state of the
    complexes on the two while both live.
    """

    def __init__(self, n_objects, src, tgt, unit, comp_table, inv,
                 rho_obj=None, rho_arr=None):
        n = self.n_objects = int(n_objects)
        m = self.n_arrows = len(src)
        check_arrow_cap(m)
        self.src = _indices("src", src, (m,), n)
        self.tgt = _indices("tgt", tgt, (m,), n)
        self.unit = _indices("unit", unit, (n,), m)
        self.inv = _indices("inv", inv, (m,), m)
        self.comp = _indices("composition table", comp_table, (m, m), m,
                             low=-1)
        self.rho_obj = _indices(
            "rho_obj", np.arange(n) if rho_obj is None else rho_obj, (n,), n)
        self.rho_arr = _indices(
            "rho_arr", np.arange(m) if rho_arr is None else rho_arr, (m,), m)
        for a in (self.src, self.tgt, self.unit, self.inv, self.comp,
                  self.rho_obj, self.rho_arr):
            a.setflags(write=False)
        self.levels = {}
        self.complexes = weakref.WeakKeyDictionary()

    # -- basic structure ------------------------------------------------

    def compose(self, g, h):
        k = self.comp[g, h]
        if k < 0:
            raise ValueError(f"arrows {g}, {h} are not composable")
        return int(k)

    @cached_property
    def fibres(self):
        """(arrows, first, count, rank): the arrows in order of target and
        then of index; per object x the position of the first arrow into x
        there and the number of arrows into x; per arrow its position
        among the arrows into its target."""
        count = np.bincount(self.tgt, minlength=self.n_objects)
        first = np.cumsum(count) - count
        arrows = np.argsort(self.tgt, kind="stable")
        rank = np.empty(self.n_arrows, dtype=np.int64)
        rank[arrows] = np.arange(self.n_arrows) - first[self.tgt[arrows]]
        for a in (arrows, first, count, rank):
            a.setflags(write=False)
        return arrows, first, count, rank

    def is_space(self):
        """True when every arrow is a unit (the groupoid is just a set)."""
        return self.n_arrows == self.n_objects and \
            (self.unit[self.src] == np.arange(self.n_arrows)).all()

    def has_trivial_involution(self):
        return (self.rho_obj == np.arange(self.n_objects)).all() and \
            (self.rho_arr == np.arange(self.n_arrows)).all()

    def structurally_equal(self, other):
        return (self.n_objects == other.n_objects
                and self.n_arrows == other.n_arrows
                and (self.src == other.src).all()
                and (self.tgt == other.tgt).all()
                and (self.unit == other.unit).all()
                and (self.inv == other.inv).all()
                and (self.comp == other.comp).all()
                and (self.rho_obj == other.rho_obj).all()
                and (self.rho_arr == other.rho_arr).all())

    def __repr__(self):
        return (f"FiniteRealGroupoid(objects={self.n_objects}, "
                f"arrows={self.n_arrows})")

    # -- validation -----------------------------------------------------

    def validate(self):
        """Check every axiom; returns a list of violation strings with
        witnesses (empty list = valid)."""
        src, tgt, unit, inv, comp = (self.src, self.tgt, self.unit, self.inv,
                                     self.comp)
        objects, arrows = np.arange(self.n_objects), np.arange(self.n_arrows)
        defined = comp >= 0
        prod = np.where(defined, comp, 0)
        composable = src[:, None] == tgt
        bad = _failures(("unit({0}) is not an endo-arrow at {0}",
                         (src[unit] != objects) | (tgt[unit] != objects)))
        bad += _failures(
            ("comp defined iff composable fails at ({0},{1})",
             defined != composable),
            ("comp({0},{1}) has wrong endpoints",
             defined & composable
             & ((tgt[prod] != tgt[:, None]) | (src[prod] != src))))
        if bad:
            return bad
        u_t, u_s = unit[tgt], unit[src]
        ends = (src[inv] != tgt) | (tgt[inv] != src)
        bad += _failures(
            ("unit law fails at arrow {0}",
             (comp[u_t, arrows] != arrows) | (comp[arrows, u_s] != arrows)),
            ("inverse of {0} has wrong endpoints", ends),
            ("inverse law fails at arrow {0}",
             ~ends & ((comp[inv, arrows] != u_s) | (comp[arrows, inv] != u_t))))
        for g in arrows:
            row = comp[g]
            fails = (row[:, None] >= 0) & defined & (comp[row] != row[comp])
            bad += [f"associativity fails at ({g},{h},{k})"
                    for h, k in np.argwhere(fails).tolist()]
        return bad + self.involution_failures()

    def involution_failures(self):
        """validate()'s failures of rho to be a 2-periodic functor."""
        src, tgt, unit, inv, comp, rho_obj, rho = (
            self.src, self.tgt, self.unit, self.inv, self.comp, self.rho_obj, self.rho_arr)
        defined = comp >= 0
        bad = _failures(("rho not 2-periodic on objects, witness {0}",
                         rho_obj[rho_obj] != np.arange(self.n_objects)))[:1]
        bad += _failures(("rho not 2-periodic, witness arrow {0}",
                          rho[rho] != np.arange(self.n_arrows)))[:1]
        bad += _failures(
            ("rho does not commute with src/tgt at arrow {0}",
             (src[rho] != rho_obj[src]) | (tgt[rho] != rho_obj[tgt])),
            ("rho does not commute with inv at arrow {0}",
             inv[rho] != rho[inv]))
        bad += _failures(("rho does not commute with unit at object {0}",
                          rho[unit] != unit[rho_obj]))
        bad += _failures(("rho not multiplicative at ({0},{1})",
                          defined & (comp[np.ix_(rho, rho)] != rho[np.where(defined, comp, 0)])))
        return bad


class RealCover:
    """An invariant cover of the object set: blocks U_j plus the induced
    involution j -> jbar with U_jbar = rho(U_j)."""

    def __init__(self, groupoid, blocks, bar=None):
        self.groupoid = groupoid
        self.blocks = [tuple(sorted(set(int(x) for x in b))) for b in blocks]
        if any(len(b) == 0 for b in self.blocks):
            raise ValueError("cover blocks must be nonempty")
        covered = set()
        for b in self.blocks:
            covered.update(b)
        if covered != set(range(groupoid.n_objects)):
            raise ValueError("blocks do not cover the object set")
        if bar is None:
            bar = []
            index = {b: j for j, b in enumerate(self.blocks)}
            for b in self.blocks:
                image = tuple(sorted(int(groupoid.rho_obj[x]) for x in b))
                if image not in index:
                    raise ValueError(
                        f"cover not invariant: rho(U) = {image} is not a block")
                bar.append(index[image])
        self.bar = _indices("bar", bar, (len(self.blocks),), len(self.blocks)).tolist()
        for j, jb in enumerate(self.bar):
            if self.bar[jb] != j:
                raise ValueError("block involution is not 2-periodic")
            image = tuple(sorted(int(groupoid.rho_obj[x]) for x in self.blocks[j]))
            if image != self.blocks[jb]:
                raise ValueError(f"bar({j}) does not match rho(U_{j})")

    def __len__(self):
        return len(self.blocks)


def cover_groupoid(groupoid, cover):
    """The cover groupoid: the pullback along (j, x) -> x, x in U_j, with
    involution (j, x) -> (bar j, rho x), its arrows (j0, g, j1) numbered
    in lexicographic order.  Returns (groupoid, iota) where iota maps each
    cover arrow to its underlying arrow g."""
    G = groupoid
    j = np.repeat(np.arange(len(cover)), [len(b) for b in cover.blocks])
    x = np.array([x for b in cover.blocks for x in b], dtype=np.int64)
    code = j * G.n_objects + x  # ascending: each block is sorted
    bar = np.array(cover.bar, dtype=np.int64)
    rho_z = np.searchsorted(code, bar[j] * G.n_objects + G.rho_obj[x])
    pb, iota = _pullback(G, x, rho_z)
    perm = np.lexsort((j[pb.src], iota, j[pb.tgt]))
    return renumber_arrows(pb, perm), iota[perm]


def renumber_arrows(G, perm):
    """G with its arrows renumbered by a permutation: new arrow i is old
    arrow perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm))
    comp = G.comp[np.ix_(perm, perm)]
    return FiniteRealGroupoid(
        G.n_objects, G.src[perm], G.tgt[perm], rank[G.unit],
        np.where(comp >= 0, rank[comp], -1), rank[G.inv[perm]],
        G.rho_obj, rank[G.rho_arr[perm]])


def discrete_space(n_points, rho=None):
    """A set as a groupoid: unit arrows only."""
    points = np.arange(n_points)
    table = np.where(points[:, None] == points, points, -1)
    return FiniteRealGroupoid(n_points, points, points, points, table, points,
                              rho, rho)


def cech_groupoid(pi, rho_y, rho_x, n_x):
    """Pair groupoid of the fibered product of a surjection pi: Y -> X.

    Arrows are pairs (y1, y2) with pi(y1) == pi(y2); the involution acts
    componentwise.  pi must commute with the involutions and be onto, and
    rho_y be 2-periodic.  This is the pullback of the discrete space X
    along pi."""
    if set(int(v) for v in pi) != set(range(n_x)):
        raise ValueError("map is not surjective")
    rho_y = _indices("rho_y", rho_y, (len(pi),), len(pi))
    if (rho_y[rho_y] != np.arange(len(pi))).any():
        raise ValueError("rho_y is not 2-periodic")
    return pullback_groupoid(discrete_space(n_x, rho_x), pi, rho_y)


def pullback_groupoid(groupoid, phi, rho_z):
    """Pullback along phi: Z -> objects: arrows (z1, gamma, z2) with
    phi(z1) = tgt(gamma), phi(z2) = src(gamma), numbered in lexicographic
    order; involution componentwise."""
    return _pullback(groupoid, phi, rho_z)[0]


def _pullback(G, phi, rho_z):
    """pullback_groupoid, and the arrow gamma under each of its arrows."""
    n_z, m = len(phi), G.n_arrows
    phi = _indices("phi", phi, (n_z,), G.n_objects)
    rho_z = _indices("rho_z", rho_z, (n_z,), n_z)
    bad = np.flatnonzero(phi[rho_z] != G.rho_obj[phi])
    if bad.size:
        raise ValueError(f"involution mismatch at {bad[0]}")
    fibre = np.bincount(phi, minlength=G.n_objects)
    block = fibre[G.tgt] * fibre[G.src]
    count = int(block.sum())
    check_arrow_cap(count)
    # gamma contributes the block phi^-1(tgt gamma) x phi^-1(src gamma)
    by_phi, first = np.argsort(phi, kind="stable"), np.cumsum(fibre) - fibre
    gamma, w = _ragged(np.zeros(m, dtype=np.int64), block)
    width = fibre[G.src[gamma]]
    z1 = by_phi[first[G.tgt[gamma]] + w // width]
    z2 = by_phi[first[G.src[gamma]] + w % width]
    code = (z1 * m + gamma) * n_z + z2
    order = np.argsort(code)
    z1, gamma, z2, code = z1[order], gamma[order], z2[order], code[order]

    def index(a, g, b):
        key = (a * m + g) * n_z + b
        at = np.searchsorted(code, key).clip(max=count - 1)
        if key.size and (count == 0 or (g < 0).any()
                         or (code[at] != key).any()):
            raise ValueError("not a groupoid: its pullback is not closed")
        return at

    # arrow i composes with the arrows j whose target z1[j] is its source
    into = np.bincount(z1, minlength=n_z)
    i, j = _ragged((np.cumsum(into) - into)[z2], into[z2])
    table = np.full((count, count), -1, dtype=np.int64)
    table[i, j] = index(z1[i], G.comp[gamma[i], gamma[j]], z2[j])
    points = np.arange(n_z)
    pb = FiniteRealGroupoid(n_z, z2, z1, index(points, G.unit[phi], points),
                            table, index(z2, G.inv[gamma], z1), rho_z,
                            index(rho_z[z1], G.rho_arr[gamma], rho_z[z2]))
    return pb, gamma


def product_with_group(groupoid, S):
    """Arrows G x S with componentwise structure; the total groupoid of
    the trivial graded twist.  S must be finite.  Arrow (e, g) is numbered
    i * n_arrows + g, where e is element i of S.elements()."""
    if S.free_rank:
        raise ValueError("only finite coefficient groups can be materialized")
    G, m = groupoid, groupoid.n_arrows
    count = S.order() * m
    check_arrow_cap(count)
    _, add, sig = S.tables()
    # element 0 is zero, so the negative of element i is where row i of add is 0
    neg, k = add.argmin(axis=1), len(add)
    comp = G.comp[None, :, None, :]
    table = np.where(comp >= 0, add[:, None, :, None] * m + comp, -1)
    return FiniteRealGroupoid(
        G.n_objects, np.tile(G.src, k), np.tile(G.tgt, k), G.unit,
        table.reshape(count, count), (neg[:, None] * m + G.inv).ravel(), G.rho_obj,
        (sig[:, None] * m + G.rho_arr).ravel())


def find_isomorphism(g1, g2):
    """Search for a strict isomorphism g1 -> g2 that commutes with rho.

    Backtracks over arrow bijections grouped by endpoints; intended for
    desk-scale groupoids.  Returns (obj_map, arr_map) or None."""
    if g1.n_objects != g2.n_objects or g1.n_arrows != g2.n_arrows:
        return None

    import itertools
    n = g1.n_objects

    def arrows_between(G, x, y):
        return [g for g in range(G.n_arrows)
                if G.src[g] == x and G.tgt[g] == y]

    for obj_perm in itertools.permutations(range(n)):
        if any(obj_perm[g1.rho_obj[x]] != g2.rho_obj[obj_perm[x]] for x in range(n)):
            continue
        sig1 = sorted((len(arrows_between(g1, x, y)) for x in range(n)
                       for y in range(n)))
        sig2 = sorted((len(arrows_between(g2, x, y)) for x in range(n)
                       for y in range(n)))
        if sig1 != sig2:
            return None
        slots = []
        ok = True
        for x in range(n):
            for y in range(n):
                a1 = arrows_between(g1, x, y)
                a2 = arrows_between(g2, obj_perm[x], obj_perm[y])
                if len(a1) != len(a2):
                    ok = False
                    break
                if a1:
                    slots.append((a1, a2))
            if not ok:
                break
        if not ok:
            continue
        # backtracking over per-slot bijections
        arr_map = np.full(g1.n_arrows, -1, dtype=np.int64)

        def extend(i):
            if i == len(slots):
                return _check_full(arr_map)
            a1, a2 = slots[i]
            for perm in itertools.permutations(a2):
                for g, h in zip(a1, perm):
                    arr_map[g] = h
                if extend(i + 1):
                    return True
            for g in a1:
                arr_map[g] = -1
            return False

        def _check_full(amap):
            for g in range(g1.n_arrows):
                if amap[g1.rho_arr[g]] != g2.rho_arr[amap[g]]:
                    return False
                for h in range(g1.n_arrows):
                    k = g1.comp[g, h]
                    if k < 0:
                        continue
                    if g2.comp[amap[g], amap[h]] != amap[k]:
                        return False
            return True

        if extend(0):
            return list(obj_perm), [int(v) for v in arr_map]
    return None
