"""The simplicial nerve of a finite groupoid with involution.

Level n lists all composable n-tuples of arrows (level 0 = objects) in
lexicographic order of arrow indices; this ordering is part of the
external contract, so cochain matrices are reproducible across runs.
Each tuple has a mixed-radix code (radix: the number of arrows, or of
objects on level 0), and sorted codes are exactly that order, so a tuple
is found by binary search.  Face and degeneracy maps follow the standard
conventions:

    face 0 drops the first arrow, face i (0<i<n) composes g_i g_{i+1},
    face n drops the last arrow; for 1-tuples face 0 = src, face 1 = tgt.
    degeneracy 0 inserts unit(tgt g_1) in front, degeneracy i inserts
    unit(src g_i) after slot i; on level 0 it is the unit map.

The componentwise involution commutes with all of them.
`face_entries` and `degeneracy_entries` act on every row of an entries
array (`face` and `degeneracy` on one tuple), and `NerveLevel.faces`
gives the face maps as index arrays.
"""

from functools import cached_property

import numpy as np


def segments(counts):
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def arrows_into(groupoid, objects):
    """(i, g): every arrow g into objects[i], in order of i and then of g."""
    G = groupoid
    by_tgt = np.argsort(G.tgt, kind="stable")
    count = np.bincount(G.tgt, minlength=G.n_objects)
    first = (np.cumsum(count) - count)[objects]
    count = count[objects]
    i = np.repeat(np.arange(len(objects)), count)
    return i, by_tgt[np.repeat(first, count) + segments(count)]


class NerveLevel:
    """Composable n-tuples with their componentwise involution.

    entries: (count, n) array of arrow indices for n >= 1, or the object
    indices as a (count, 1) array for n == 0, in lexicographic order.
    lower: level n - 1, the target of the face maps (None on level 0)."""

    def __init__(self, groupoid, n, entries, lower=None):
        self.groupoid = groupoid
        self.n = n
        self.entries = entries
        self.lower = lower
        self.radix = groupoid.n_objects if n == 0 else groupoid.n_arrows
        self.codes = self._codes(entries)

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
    def rho_indices(self):
        """Index of the involution image of every tuple (-1 outside)."""
        G = self.groupoid
        return self.find((G.rho_obj if self.n == 0 else G.rho_arr)[self.entries])

    @cached_property
    def anchors(self):
        """The object whose fibre holds a cochain's value at each tuple:
        the source of the last arrow, or the object itself on level 0."""
        return self.entries[:, 0] if self.n == 0 else self.groupoid.src[self.entries[:, -1]]

    @cached_property
    def faces(self):
        """Face i, for i = 0..n, as an index array into the lower level
        (-1 where a face is not a tuple of the nerve)."""
        return [self.lower.find(face_entries(self.groupoid, self.entries, self.n, i))
                for i in range(self.n + 1)]


def nerve(groupoid, n, known=None):
    """Enumerate nerve level n in lexicographic arrow order, joining each
    tuple of level k with the arrows into the source of its last arrow.
    A level `known` of the same groupoid is reused with the levels below
    it: level n is one of them, or is built up from it."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    G = groupoid
    level = known
    if level is None:
        level = NerveLevel(G, 0, np.arange(G.n_objects, dtype=np.int64).reshape(-1, 1))
    while level.n > n:
        level = level.lower
    for k in range(level.n + 1, n + 1):
        if k == 1:
            entries = np.arange(G.n_arrows, dtype=np.int64).reshape(-1, 1)
        else:
            i, g = arrows_into(G, G.src[level.entries[:, -1]])
            entries = np.column_stack([level.entries[i], g])
        level = NerveLevel(G, k, entries, level)
    return level


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


def _after(f, g):
    """The index map f after g; -1 (not a tuple of the nerve) stays -1."""
    out = np.full_like(g, -1)
    out[g >= 0] = f[g[g >= 0]]
    return out


def check_simplicial_identities(groupoid, max_degree):
    """Exhaustively verify the simplicial identities and involution
    equivariance of the face and degeneracy index maps up to the given
    degree.

    Returns a list of violation descriptions (empty = all good), per
    degree in order of tuple and then of identity."""
    G = groupoid
    levels = [nerve(G, max_degree + 2)]
    while levels[-1].lower is not None:
        levels.append(levels[-1].lower)
    levels.reverse()
    F = [lvl.faces if lvl.n else [] for lvl in levels[:-1]]
    rho = [lvl.rho_indices for lvl in levels[:-1]]
    # D[n][i]: degeneracy i of level n, as an index array into level n+1
    D = [[levels[n + 1].find(degeneracy_entries(G, lvl.entries, n, i))
          for i in range(n + 1)] for n, lvl in enumerate(levels[:-1])]
    bad = []

    def report(lvl, found):
        # found: (mask over the tuples of lvl, message with a {tup} slot)
        hits = sorted((k, seq) for seq, (mask, _) in enumerate(found)
                      for k in np.flatnonzero(mask))
        bad.extend(found[seq][1].format(tup=lvl.tuple_at(k)) for k, seq in hits)

    for n in range(1, max_degree + 1):
        report(levels[n], [(F[n][i] < 0, f"face leaves nerve: n={n} i={i} {{tup}}")
                           for i in range(n + 1)] + [
            (_after(F[n - 1][i], F[n][j]) != _after(F[n - 1][j - 1], F[n][i]),
             f"face-face fails: n={n} i={i} j={j} {{tup}}")
            for j in range(n + 1) for i in range(j) if n >= 2] + [
            (_after(F[n][i], rho[n]) != _after(rho[n - 1], F[n][i]),
             f"face not equivariant: n={n} i={i} {{tup}}") for i in range(n + 1)])
    for n in range(0, max_degree + 1):
        ident = np.arange(len(levels[n]))
        report(levels[n], [check for i, dg in enumerate(D[n]) for check in (
            (dg < 0, f"degeneracy leaves nerve: n={n} i={i} {{tup}}"),
            # e_j eta_j = e_{j+1} eta_j = id
            ((dg >= 0) & ((_after(F[n + 1][i], dg) != ident) |
                          (_after(F[n + 1][i + 1], dg) != ident)),
             f"face-degeneracy unit fails: n={n} i={i} {{tup}}"),
            ((dg >= 0) & (_after(dg, rho[n]) != _after(rho[n + 1], dg)),
             f"degeneracy not equivariant: n={n} i={i} {{tup}}"))] + [
            # eta_i eta_j = eta_{j+1} eta_i for i <= j
            (_after(D[n + 1][i], D[n][j]) != _after(D[n + 1][j + 1], D[n][i]),
             f"deg-deg fails: n={n} i={i} j={j} {{tup}}")
            for j in range(n + 1) for i in range(j + 1)] + [
            # mixed identities e_i eta_j
            (_after(F[n + 1][i], D[n][j]) != (_after(D[n - 1][j - 1], F[n][i]) if i < j
                                              else _after(D[n - 1][j], F[n][i - 1])),
             f"mixed fails: n={n} i={i} j={j}")
            for j in range(n + 1) for i in range(n + 2) if n >= 1 and (i < j or i > j + 1)])
    return bad
