"""The simplicial nerve of a finite groupoid with involution.

Level n lists all composable n-tuples of arrows (level 0 = objects) in
lexicographic order of arrow indices; this ordering is part of the
external contract, so cochain matrices are reproducible across runs.
Level n + 1 is enumerated by joining each tuple of level n with the
arrows into its anchor (the source of its last arrow), so the tuple p
followed by an arrow g sits at a known place (`NerveLevel.extend`), and
the face, degeneracy and involution maps are index gathers through that
enumeration, with no search.  Each tuple also has a mixed-radix code
(radix: the number of arrows, or of objects on level 0), and sorted
codes are exactly that order, so a single tuple is found by binary
search (`find`, `index_of`).  Face and degeneracy maps follow the
standard conventions:

    face 0 drops the first arrow, face i (0<i<n) composes g_i g_{i+1},
    face n drops the last arrow; for 1-tuples face 0 = src, face 1 = tgt.
    degeneracy 0 inserts unit(tgt g_1) in front, degeneracy i inserts
    unit(src g_i) after slot i; on level 0 it is the unit map.

The componentwise involution commutes with all of them.
`face_entries` and `degeneracy_entries` act on every row of an entries
array (`face` and `degeneracy` on one tuple), and `NerveLevel.faces`,
`degeneracies` and `rho_indices` give the maps as index arrays.

The nerve depends on the groupoid alone, so each level is built once per
groupoid and kept on it (`nerve`): every complex, orbit basis and
identity check on the groupoid reads the same level objects, with the
index arrays that depend on the groupoid alone, its involution orbits
(`NerveLevel.orbits`) and the face terms of the coboundary into it
(`NerveLevel.face_terms`).  Every array of a level is read-only.
"""

import weakref
from collections import namedtuple
from functools import cached_property

import numpy as np


Orbits = namedtuple("Orbits", "reps partners fixed anchors orbit_of kind")


def distinct(x, size):
    """(values, where): the distinct entries of the index array x, all in
    range(size), in increasing order, and the position of each entry of x
    among them."""
    used = np.zeros(size, dtype=bool)
    used[x] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[x]


def arrows_into(groupoid, objects):
    """(i, g): every arrow g into objects[i], in order of i and then of g."""
    arrows, first, count, _ = groupoid.fibres
    count = count[objects]
    i = np.repeat(np.arange(len(objects)), count)
    # entry t of the run of objects[i] is arrow first[objects[i]] + t - start[i]
    start = np.cumsum(count) - count
    return i, arrows[np.arange(len(i)) + (first[objects] - start)[i]]


def _frozen(a):
    """a, made read-only: the arrays of a level are shared."""
    a.setflags(write=False)
    return a


class NerveLevel:
    """Composable n-tuples with their componentwise involution.

    entries: (count, n) array of arrow indices for n >= 1, or the object
    indices as a (count, 1) array for n == 0, in lexicographic order.
    lower: level n - 1, the target of the face maps (None on level 0).
    parent: the row of level n - 1 that each tuple was joined from, the
    tuple without its last arrow (the target of the arrow on level 1).

    The groupoid keeps its levels (`nerve`) and a level refers back to it
    weakly: `groupoid` is None once the groupoid is gone.  A strong
    reference would make a cycle that only the cyclic collector frees;
    no caller keeps a level past its groupoid."""

    def __init__(self, groupoid, n, entries, lower=None, parent=None):
        self._groupoid = weakref.ref(groupoid)
        self.n = n
        self.entries = _frozen(entries)
        self.lower = lower
        self.parent = parent if parent is None else _frozen(parent)
        self.radix = groupoid.n_objects if n == 0 else groupoid.n_arrows

    @property
    def groupoid(self):
        return self._groupoid()

    @cached_property
    def codes(self):
        """The mixed-radix code of every tuple, in increasing order."""
        return _frozen(self._codes(self.entries))

    def _codes(self, entries):
        # int64 while the radix expansion fits, Python ints past it
        width = entries.shape[1]
        dtype = np.int64 if self.radix ** width < 1 << 63 else object
        powers = [self.radix ** p for p in range(width - 1, -1, -1)]
        return entries.astype(dtype, copy=False) @ np.array(powers, dtype=dtype)

    def __len__(self):
        return len(self.entries)

    def find(self, entries):
        """Index of each row of entries in this level, -1 if absent."""
        entries = np.asarray(entries, dtype=np.int64).reshape(-1, self.entries.shape[1])
        ok = ((entries >= 0) & (entries < self.radix)).all(axis=1)
        if not len(self):
            return np.full(len(entries), -1)
        codes = self._codes(np.where(ok[:, None], entries, 0))
        pos = np.minimum(np.searchsorted(self.codes, codes), len(self) - 1)
        return np.where(ok & (self.codes[pos] == codes), pos, -1)

    def tuple_at(self, i):
        return tuple(self.entries[i].tolist())

    def index_of(self, tup):
        i = int(self.find([tup])[0])
        if i < 0:
            raise KeyError(tuple(tup))
        return i

    def rho(self, tup):
        G = self.groupoid
        if self.n == 0:
            return (int(G.rho_obj[tup[0]]),)
        return tuple(int(G.rho_arr[g]) for g in tup)

    @cached_property
    def anchors(self):
        """The object whose fibre holds a cochain's value at each tuple:
        the source of the last arrow, or the object itself on level 0."""
        return self.entries[:, 0] if self.n == 0 else _frozen(self.groupoid.src[self.entries[:, -1]])

    @cached_property
    def _padded_anchors(self):
        return _frozen(_padded(self.anchors))

    @cached_property
    def _joined(self):
        # the row of level n + 1 joined first from each tuple
        count = self.groupoid.fibres[2][self.anchors]
        return _frozen(np.cumsum(count) - count)

    def extend(self, p, g):
        """The index in level n + 1 of tuple p followed by arrow g, for
        index arrays p and g (broadcast together); -1 where p or g is -1 or
        where g does not compose, its target not being the anchor of p."""
        ok = (g >= 0) & (self.groupoid.tgt[g] == self._padded_anchors[p])
        if self.n == 0:
            return np.where(ok, g, -1)   # level 1 is every arrow, in order
        return np.where(ok, self._joined[p] + self.groupoid.fibres[3][g], -1)

    @cached_property
    def rho_indices(self):
        """Index of the involution image of every tuple (-1 outside)."""
        G = self.groupoid
        if self.n <= 1:
            return G.rho_obj if self.n == 0 else G.rho_arr
        lower = self.lower
        return _frozen(lower.extend(lower.rho_indices[self.parent], G.rho_arr[self.entries[:, -1]]))

    @cached_property
    def orbits(self):
        """The involution orbits of the tuples, as `Orbits` arrays.  Per
        orbit, in order of representatives: reps, the smaller index of its
        tuples; partners, the other (the same on a fixed orbit); fixed;
        anchors, that of the representative.  Per tuple: orbit_of, its
        orbit; kind, -1 at the representative of a free orbit, 0 at a
        fixed tuple and 1 at a partner.  ValueError if the involution does
        not map the level to itself."""
        rho = self.rho_indices
        if (rho < 0).any():
            raise ValueError("the involution does not map the nerve to itself")
        i = np.arange(len(self))
        reps = np.flatnonzero(i <= rho)
        partners = rho[reps]
        return Orbits(*map(_frozen, (
            reps, partners, partners == reps, self.anchors[reps],
            np.searchsorted(reps, np.minimum(i, rho)), np.sign(i - rho))))

    @cached_property
    def face_terms(self):
        """(rows, tuples, parity): the terms of the coboundary into this
        level, one per face i and orbit, in order of i and then of orbit:
        the orbit, the index of face i of its representative in the level
        below, and i % 2, the sign of the term."""
        reps = self.orbits.reps
        t = np.arange((self.n + 1) * len(reps))
        return tuple(map(_frozen, (t % len(reps), self.faces[:, reps].ravel(),
                                   t // len(reps) % 2)))

    @cached_property
    def faces(self):
        """Face i, for i = 0..n, as row i of an (n + 1, count) index array
        into the lower level (-1 where a face is not a tuple of the nerve):
        the faces of the parent followed by the last arrow, the parent's
        parent followed by the composite of the last two arrows, and the
        parent; on level 1, the source and the target."""
        G, n, p = self.groupoid, self.n, self.parent
        if n == 1:
            return _frozen(np.stack([G.src, G.tgt]))
        lower, last = self.lower, self.entries[:, -1]
        out = np.empty((n + 1, len(self)), dtype=np.int64)
        out[:n - 1] = lower.lower.extend(lower.faces[:n - 1, p], last)
        merged = G.comp[self.entries[:, -2], last]
        out[n - 1] = merged if n == 2 else lower.lower.extend(lower.parent[p], merged)
        out[n] = p
        return _frozen(out)

    @cached_property
    def degeneracies(self):
        """Degeneracy i, for i = 0..n, as row i of an (n + 1, count) index
        array into level n + 1 (-1 where it is not a tuple of the nerve):
        a degeneracy of the parent followed by the last arrow, and for
        i = n the tuple followed by the unit at its anchor."""
        G, n = self.groupoid, self.n
        if n == 0:
            return G.unit.reshape(1, -1)
        out = np.empty((n + 1, len(self)), dtype=np.int64)
        out[:n] = self.extend(self.lower.degeneracies[:, self.parent], self.entries[:, -1])
        out[n] = self.extend(np.arange(len(self)), G.unit[self.anchors])
        return _frozen(out)


def nerve(groupoid, n):
    """Nerve level n in lexicographic arrow order, built once per groupoid
    and kept in `groupoid.levels` by degree, with every level below it:
    from the highest level up to n built so far, each level is joined
    with the arrows into the source of the last arrow of each tuple.
    Each level is stored with setdefault and the next one is joined to
    the stored one, so two threads that race may both build a level, the
    two equal, and both read the one stored first."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    G, levels, top = groupoid, groupoid.levels, n
    while top >= 0 and top not in levels:
        top -= 1
    level = levels.get(top)
    for k in range(top + 1, n + 1):
        level = levels.setdefault(k, _joined_level(G, k, level))
    return level


def _joined_level(G, k, lower):
    """Level k of the nerve of G, joined from level k - 1 (lower)."""
    if k == 0:
        return NerveLevel(G, 0, np.arange(G.n_objects, dtype=np.int64).reshape(-1, 1))
    if k == 1:
        return NerveLevel(G, 1, np.arange(G.n_arrows, dtype=np.int64).reshape(-1, 1),
                          lower, G.tgt)
    parent, g = arrows_into(G, lower.anchors)
    entries = np.empty((len(g), k), dtype=np.int64)
    entries[:, :-1] = lower.entries[parent]
    entries[:, -1] = g
    return NerveLevel(G, k, entries, lower, parent)


def face(groupoid, n, i, tup):
    """The i-th face of a level-n tuple (result has level n-1)."""
    if not (0 <= i <= n) or n < 1:
        raise IndexError(f"face index {i} out of range for degree {n}")
    out = face_entries(groupoid, np.array([tup]), n, i)[0].tolist()
    if 0 < i < n and out[i - 1] < 0:
        raise ValueError(f"arrows {tup[i - 1]}, {tup[i]} are not composable")
    return tuple(out)


def face_entries(groupoid, entries, n, i):
    """face(groupoid, n, i, .) on every row; an undefined composite is -1."""
    G = groupoid
    if n == 1:
        return (G.src if i == 0 else G.tgt)[entries]
    if i == 0 or i == n:
        return entries[:, 1:] if i == 0 else entries[:, :-1]
    merged = G.comp[entries[:, i - 1], entries[:, i]]
    return np.column_stack([entries[:, :i - 1], merged, entries[:, i + 1:]])


def degeneracy(groupoid, n, i, tup):
    """The i-th degeneracy of a level-n tuple (result has level n+1)."""
    if not (0 <= i <= n):
        raise IndexError(f"degeneracy index {i} out of range for degree {n}")
    return tuple(degeneracy_entries(groupoid, np.array([tup]), n, i)[0].tolist())


def degeneracy_entries(groupoid, entries, n, i):
    """degeneracy(groupoid, n, i, .) on every row."""
    G = groupoid
    if n == 0:
        return G.unit[entries]
    unit = G.unit[G.tgt[entries[:, 0]] if i == 0 else G.src[entries[:, i - 1]]]
    return np.column_stack([entries[:, :i], unit, entries[:, i:]])


def _padded(maps):
    """Each index map (a row of maps) with a -1 appended: a gather through
    it takes -1 (not a tuple of the nerve) to -1."""
    return np.concatenate([maps, np.full(maps.shape[:-1] + (1,), -1)], axis=-1)


def check_simplicial_identities(groupoid, max_degree):
    """Exhaustively verify the simplicial identities and involution
    equivariance of the face and degeneracy index maps up to the given
    degree, on the groupoid's own nerve levels (`nerve`).

    Returns a list of violation descriptions (empty = all good), per
    degree in order of tuple and then of identity."""
    if max_degree < 0:
        return []
    G = groupoid
    levels = [nerve(G, max_degree + 2)]
    while levels[-1].lower is not None:
        levels.append(levels[-1].lower)
    levels.reverse()
    # every map padded, so that composites are plain gathers; the checks
    # below run on the tuples and the -1 after them, which report drops
    F = [_padded(lvl.faces) if lvl.n else None for lvl in levels[:-1]]
    rho = [_padded(lvl.rho_indices) for lvl in levels[:-1]]
    # D[n][i]: degeneracy i of level n, as an index array into level n+1
    D = [_padded(lvl.degeneracies) for lvl in levels[:-1]]
    bad = []

    def report(lvl, checks, messages):
        # checks: one row per identity, over the tuples; hits in order of
        # tuple, then of identity, named by messages() (built only then)
        k, seq = np.nonzero(np.concatenate(checks)[:, :-1].T)
        if len(k):
            texts = messages()
            bad.extend(texts[s].format(tup=lvl.tuple_at(t))
                       for t, s in zip(k.tolist(), seq.tolist()))

    for n in range(1, max_degree + 1):
        Fn = F[n]
        # face-face for the pairs i < j, in order of j and then of i
        j, i = np.nonzero(np.tri(n + 1, k=-1, dtype=bool) if n >= 2 else np.zeros((0, 0)))
        checks = [Fn < 0]
        if n >= 2:
            checks.append(F[n - 1][i[:, None], Fn[j]] != F[n - 1][j[:, None] - 1, Fn[i]])
        checks.append(Fn[:, rho[n]] != rho[n - 1][Fn])

        def messages(n=n, pairs=list(zip(i.tolist(), j.tolist()))):
            return ([f"face leaves nerve: n={n} i={a} {{tup}}" for a in range(n + 1)] +
                    [f"face-face fails: n={n} i={a} j={b} {{tup}}" for a, b in pairs] +
                    [f"face not equivariant: n={n} i={a} {{tup}}" for a in range(n + 1)])
        report(levels[n], checks, messages)
    for n in range(0, max_degree + 1):
        Dn, up = D[n], F[n + 1]
        ident = _padded(np.arange(len(levels[n])))
        i = np.arange(n + 1)[:, None]
        # per degeneracy i, in turn: it leaves the nerve; e_i eta_i =
        # e_(i+1) eta_i = id fails; it is not equivariant
        checks = [np.stack([
            Dn < 0,
            (Dn >= 0) & ((up[i, Dn] != ident) | (up[i + 1, Dn] != ident)),
            (Dn >= 0) & (Dn[:, rho[n]] != rho[n + 1][Dn])], axis=1).reshape(3 * (n + 1), -1)]
        # eta_i eta_j = eta_(j+1) eta_i for the pairs i <= j, in order of j, i
        dj, di = np.nonzero(np.tri(n + 1, dtype=bool))
        checks.append(D[n + 1][di[:, None], Dn[dj]] != D[n + 1][dj[:, None] + 1, Dn[di]])
        # the mixed identities e_i eta_j = eta_(j-1) e_i for i < j and
        # eta_j e_(i-1) for i > j + 1, in order of j, i
        gap = np.subtract.outer(np.arange(n + 1), np.arange(n + 2))
        mj, mi = np.nonzero((gap > 0) | (gap < -1))
        if n >= 1:
            below = mi < mj
            checks.append(up[mi[:, None], Dn[mj]] != D[n - 1][
                np.where(below, mj - 1, mj)[:, None], F[n][np.where(below, mi, mi - 1)]])

        def messages(n=n, deg=list(zip(di.tolist(), dj.tolist())),
                     mixed=list(zip(mi.tolist(), mj.tolist()))):
            return ([f"{what}: n={n} i={a} {{tup}}" for a in range(n + 1) for what in (
                        "degeneracy leaves nerve", "face-degeneracy unit fails",
                        "degeneracy not equivariant")] +
                    [f"deg-deg fails: n={n} i={a} j={b} {{tup}}" for a, b in deg] +
                    [f"mixed fails: n={n} i={a} j={b}" for a, b in mixed])
        report(levels[n], checks, messages)
    return bad
