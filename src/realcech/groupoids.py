"""Finite groupoids with a strict involution, and the constructions used
for Morita-invariance checks (cover groupoid, fibered-product pair
groupoid of a surjection, pullback groupoid, product with a finite group).

Objects and arrows are dense integer indices; all structure maps are
stored as index arrays, composition as a full table (-1 = undefined).
Values are immutable after construction.
"""

import os

import numpy as np


def max_arrows():
    """The cap on arrows in a groupoid: RGC_MAX_ARROWS, or 65536 if it is
    unset or not an integer."""
    try:
        return int(os.environ.get("RGC_MAX_ARROWS", 1 << 16))
    except ValueError:
        return 1 << 16


def _freeze(arr):
    a = np.asarray(arr, dtype=np.int64)
    a.setflags(write=False)
    return a


class FiniteRealGroupoid:
    """A finite groupoid together with an involution commuting with all
    structure maps (a strict 2-periodic automorphism).

    Fields: n_objects, src, tgt, unit, inv, comp (full table), rho_obj,
    rho_arr.  Use validate() to get a report of violated axioms; the
    constructor only checks shapes and the size cap.
    """

    def __init__(self, n_objects, src, tgt, unit, comp_table, inv,
                 rho_obj=None, rho_arr=None):
        self.n_objects = int(n_objects)
        self.src = _freeze(src)
        self.tgt = _freeze(tgt)
        self.n_arrows = len(self.src)
        cap = max_arrows()
        if self.n_arrows > cap:
            raise ValueError(f"too many arrows ({self.n_arrows} > {cap})")
        if len(self.tgt) != self.n_arrows:
            raise ValueError("src/tgt length mismatch")
        self.unit = _freeze(unit)
        self.inv = _freeze(inv)
        self.comp = _freeze(comp_table)
        if self.comp.shape != (self.n_arrows, self.n_arrows):
            raise ValueError("composition table has wrong shape")
        self.rho_obj = _freeze(rho_obj if rho_obj is not None
                               else np.arange(self.n_objects))
        self.rho_arr = _freeze(rho_arr if rho_arr is not None
                               else np.arange(self.n_arrows))

    # -- basic structure ------------------------------------------------

    def is_composable(self, g, h):
        return self.src[g] == self.tgt[h]

    def compose(self, g, h):
        k = self.comp[g, h]
        if k < 0:
            raise ValueError(f"arrows {g}, {h} are not composable")
        return int(k)

    def arrows_into(self, x):
        """Indices of all arrows with target x (the fiber G^x)."""
        return np.nonzero(self.tgt == x)[0]

    def is_space(self):
        """True when every arrow is a unit (the groupoid is just a set)."""
        return self.n_arrows == self.n_objects and \
            all(self.unit[self.src[g]] == g for g in range(self.n_arrows))

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
        bad = []
        n, m = self.n_objects, self.n_arrows
        if len(self.unit) != n:
            return ["unit map has wrong length"]
        for x in range(n):
            u = self.unit[x]
            if not (0 <= u < m) or self.src[u] != x or self.tgt[u] != x:
                bad.append(f"unit({x}) is not an endo-arrow at {x}")
        for g in range(m):
            for h in range(m):
                k = self.comp[g, h]
                defined = k >= 0
                composable = self.src[g] == self.tgt[h]
                if defined != composable:
                    bad.append(f"comp defined iff composable fails at ({g},{h})")
                elif defined:
                    if self.tgt[k] != self.tgt[g] or self.src[k] != self.src[h]:
                        bad.append(f"comp({g},{h}) has wrong endpoints")
        if bad:
            return bad
        for g in range(m):
            u_t, u_s = self.unit[self.tgt[g]], self.unit[self.src[g]]
            if self.comp[u_t, g] != g or self.comp[g, u_s] != g:
                bad.append(f"unit law fails at arrow {g}")
            gi = self.inv[g]
            if self.src[gi] != self.tgt[g] or self.tgt[gi] != self.src[g]:
                bad.append(f"inverse of {g} has wrong endpoints")
            elif self.comp[gi, g] != self.unit[self.src[g]] or \
                    self.comp[g, gi] != self.unit[self.tgt[g]]:
                bad.append(f"inverse law fails at arrow {g}")
        for g in range(m):
            for h in range(m):
                if self.comp[g, h] < 0:
                    continue
                for k in range(m):
                    if self.comp[h, k] < 0:
                        continue
                    if self.comp[self.comp[g, h], k] != self.comp[g, self.comp[h, k]]:
                        bad.append(f"associativity fails at ({g},{h},{k})")
        # involution axioms
        for x in range(n):
            if self.rho_obj[self.rho_obj[x]] != x:
                bad.append(f"rho not 2-periodic on objects, witness {x}")
                break
        for g in range(m):
            if self.rho_arr[self.rho_arr[g]] != g:
                bad.append(f"rho not 2-periodic, witness arrow {g}")
                break
        for g in range(m):
            rg = self.rho_arr[g]
            if self.src[rg] != self.rho_obj[self.src[g]] or \
                    self.tgt[rg] != self.rho_obj[self.tgt[g]]:
                bad.append(f"rho does not commute with src/tgt at arrow {g}")
            if self.inv[rg] != self.rho_arr[self.inv[g]]:
                bad.append(f"rho does not commute with inv at arrow {g}")
        for x in range(n):
            if self.rho_arr[self.unit[x]] != self.unit[self.rho_obj[x]]:
                bad.append(f"rho does not commute with unit at object {x}")
        for g in range(m):
            for h in range(m):
                k = self.comp[g, h]
                if k < 0:
                    continue
                rk = self.comp[self.rho_arr[g], self.rho_arr[h]]
                if rk != self.rho_arr[k]:
                    bad.append(f"rho not multiplicative at ({g},{h})")
        return bad


def table_from_triples(n_arrows, triples):
    """Full composition table from a list of (g, h, g*h) triples."""
    table = np.full((n_arrows, n_arrows), -1, dtype=np.int64)
    for g, h, k in triples:
        table[g, h] = k
    return table


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
        self.bar = list(int(j) for j in bar)
        for j, jb in enumerate(self.bar):
            if self.bar[jb] != j:
                raise ValueError("block involution is not 2-periodic")
            image = tuple(sorted(int(groupoid.rho_obj[x]) for x in self.blocks[j]))
            if image != self.blocks[jb]:
                raise ValueError(f"bar({j}) does not match rho(U_{j})")

    def __len__(self):
        return len(self.blocks)


def cover_groupoid(groupoid, cover):
    """The cover groupoid: objects (j, x in U_j), arrows (j0, g, j1) with
    tgt(g) in U_j0 and src(g) in U_j1.  Returns (groupoid, iota) where
    iota maps each cover arrow to its underlying arrow."""
    G = groupoid
    objects = [(j, x) for j, b in enumerate(cover.blocks) for x in b]
    obj_index = {p: i for i, p in enumerate(objects)}
    in_block = [set(b) for b in cover.blocks]
    arrows = []
    for j0 in range(len(cover.blocks)):
        for g in range(G.n_arrows):
            if G.tgt[g] not in in_block[j0]:
                continue
            for j1 in range(len(cover.blocks)):
                if G.src[g] in in_block[j1]:
                    arrows.append((j0, int(g), j1))
    arr_index = {a: i for i, a in enumerate(arrows)}
    src = [obj_index[(j1, int(G.src[g]))] for (j0, g, j1) in arrows]
    tgt = [obj_index[(j0, int(G.tgt[g]))] for (j0, g, j1) in arrows]
    unit = [arr_index[(j, int(G.unit[x]), j)] for (j, x) in objects]
    inv = [arr_index[(j1, int(G.inv[g]), j0)] for (j0, g, j1) in arrows]
    table = np.full((len(arrows), len(arrows)), -1, dtype=np.int64)
    for i, (j0, g, j1) in enumerate(arrows):
        for i2, (k0, h, k1) in enumerate(arrows):
            if j1 == k0 and G.src[g] == G.tgt[h]:
                table[i, i2] = arr_index[(j0, int(G.comp[g, h]), k1)]
    rho_obj = [obj_index[(cover.bar[j], int(G.rho_obj[x]))] for (j, x) in objects]
    rho_arr = [arr_index[(cover.bar[j0], int(G.rho_arr[g]), cover.bar[j1])]
               for (j0, g, j1) in arrows]
    out = FiniteRealGroupoid(len(objects), src, tgt, unit, table, inv,
                             rho_obj, rho_arr)
    iota = np.array([g for (_, g, _) in arrows], dtype=np.int64)
    return out, iota


def discrete_space(n_points, rho=None):
    """A set as a groupoid: unit arrows only."""
    ident = list(range(n_points))
    table = np.full((n_points, n_points), -1, dtype=np.int64)
    for x in range(n_points):
        table[x, x] = x
    rho = list(rho) if rho is not None else ident
    return FiniteRealGroupoid(n_points, ident, ident, ident, table, ident,
                              rho, rho)


def cech_groupoid(pi, rho_y, rho_x, n_x):
    """Pair groupoid of the fibered product of a surjection pi: Y -> X.

    Arrows are pairs (y1, y2) with pi(y1) == pi(y2); the involution acts
    componentwise.  pi must commute with the involutions and be onto.
    This is the pullback of the discrete space X along pi."""
    if set(int(v) for v in pi) != set(range(n_x)):
        raise ValueError("map is not surjective")
    return pullback_groupoid(discrete_space(n_x, rho_x), pi, rho_y)


def pullback_groupoid(groupoid, phi, rho_z):
    """Pullback along phi: Z -> objects: arrows (z1, gamma, z2) with
    phi(z1) = tgt(gamma), phi(z2) = src(gamma); involution componentwise."""
    G = groupoid
    phi = np.asarray(phi, dtype=np.int64)
    rho_z = np.asarray(rho_z, dtype=np.int64)
    n_z = len(phi)
    for z in range(n_z):
        if phi[rho_z[z]] != G.rho_obj[phi[z]]:
            raise ValueError(f"involution mismatch at {z}")
    arrows = [(z1, g, z2)
              for z1 in range(n_z) for g in range(G.n_arrows)
              for z2 in range(n_z)
              if phi[z1] == G.tgt[g] and phi[z2] == G.src[g]]
    arr_index = {a: i for i, a in enumerate(arrows)}
    src = [z2 for (z1, g, z2) in arrows]
    tgt = [z1 for (z1, g, z2) in arrows]
    unit = [arr_index[(z, int(G.unit[phi[z]]), z)] for z in range(n_z)]
    inv = [arr_index[(z2, int(G.inv[g]), z1)] for (z1, g, z2) in arrows]
    table = np.full((len(arrows), len(arrows)), -1, dtype=np.int64)
    for i, (z1, g, z2) in enumerate(arrows):
        for i2, (w1, h, w2) in enumerate(arrows):
            if z2 == w1 and G.src[g] == G.tgt[h]:
                table[i, i2] = arr_index[(z1, int(G.comp[g, h]), w2)]
    rho_arr = [arr_index[(int(rho_z[z1]), int(G.rho_arr[g]), int(rho_z[z2]))]
               for (z1, g, z2) in arrows]
    return FiniteRealGroupoid(n_z, src, tgt, unit, table, inv, rho_z, rho_arr)


def product_with_group(groupoid, S):
    """Arrows G x S with componentwise structure; the total groupoid of
    the trivial graded twist.  S must be finite."""
    if S.free_rank:
        raise ValueError("only finite coefficient groups can be materialized")
    G = groupoid
    elems = list(S.elements())
    e_index = {e: i for i, e in enumerate(elems)}
    n_e = len(elems)

    def aidx(ei, g):
        return ei * G.n_arrows + g

    m = n_e * G.n_arrows
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    rho_arr = [0] * m
    for ei, e in enumerate(elems):
        neg = e_index[S.reduce_tuple(tuple(-v for v in e))]
        sig = e_index[S.tau_tuple(e)]
        for g in range(G.n_arrows):
            i = aidx(ei, g)
            src[i] = int(G.src[g])
            tgt[i] = int(G.tgt[g])
            inv[i] = aidx(neg, int(G.inv[g]))
            rho_arr[i] = aidx(sig, int(G.rho_arr[g]))
    zero = e_index[S.zero_tuple()]
    unit = [aidx(zero, int(G.unit[x])) for x in range(G.n_objects)]
    table = np.full((m, m), -1, dtype=np.int64)
    for ei, e in enumerate(elems):
        for fi, f in enumerate(elems):
            ef = e_index[S.add_tuples(e, f)]
            for g in range(G.n_arrows):
                for h in range(G.n_arrows):
                    k = G.comp[g, h]
                    if k >= 0:
                        table[aidx(ei, g), aidx(fi, h)] = aidx(ef, int(k))
    return FiniteRealGroupoid(G.n_objects, src, tgt, unit, table, inv,
                              G.rho_obj.copy(), rho_arr)


def find_isomorphism(g1, g2, respect_involution=True):
    """Search for a strict isomorphism g1 -> g2 (object map, arrow map).

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
        if respect_involution and any(
                obj_perm[g1.rho_obj[x]] != g2.rho_obj[obj_perm[x]]
                for x in range(n)):
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
                if respect_involution and \
                        amap[g1.rho_arr[g]] != g2.rho_arr[amap[g]]:
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
