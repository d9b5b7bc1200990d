"""The cochain complex of a finite groupoid with involution.

A degree-n cochain assigns a coefficient value to every composable
n-tuple subject to the reality constraint c(rho(t)) = tau(c(t)).  The
stored basis runs over involution orbits of nerve tuples: a free orbit
keeps one full copy of S (the partner value is tau of it), a fixed tuple
keeps a copy of the fixed subgroup.  That makes the cochain group an
honest direct sum, so Smith-form arithmetic applies directly.

The orbit basis and the assembly of matrices on it are written once, for
any fibre, as array operations on the nerve's index maps: SBlocks here,
and the rational representation fibre of proper.py.

The differential is the alternating sum over the face maps; cohomology
is kernel-mod-image computed exactly over Z (or over Q for rational
coefficients, which are routed through the representation machinery).
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from . import exact
from .nerve import face, nerve, segments  # noqa: F401 -- bench/spans.py patches face here


class SBlocks:
    """The integral fibre: per-coefficient-group data shared by all levels.

    A free orbit stores one copy of S (the S block); a fixed orbit stores
    fixed-subgroup coordinates, mapped into S by the embedding, and
    fixed_coords corestricts S-values into them (to_fixed_coords one
    value).  The fibre is the same at every object, so the anchor
    arguments of the fibre interface used by OrbitBasis are ignored."""

    zeros = staticmethod(exact.zeros)

    def __init__(self, S):
        self.S = S
        self.k = S.ngens
        self.identity = exact.eye(self.k)
        self.moduli_S = [0] * S.free_rank + list(S.invariant_factors)
        fixed, E = S.fixed_part()
        self.embed = E  # k x (generators of the fixed subgroup)
        self.moduli_fixed = [0] * fixed.free_rank + list(fixed.invariant_factors)
        self._fixed_solver = exact.IntSolver(E, S.relations())

    def to_fixed_coords(self, vec):
        """Express an S-element lying in the fixed subgroup in fixed
        coordinates; None if it is not fixed."""
        sol = self._fixed_solver.solve(vec)
        return None if sol is None else tuple(int(v) for v in sol)

    def element(self, value):
        return self.S.reduce_tuple(value)

    def embedding(self, x):
        return self.embed

    def partner(self, x):
        return self.S.tau

    def fixed_coords(self, x, X):
        return self._fixed_solver.solve(X)

    @staticmethod
    def scalars(num, scale):
        return num


Orbit = namedtuple("Orbit", "kind rep partner anchor")


class OrbitBasis:
    """Orbit basis of degree-n real cochains with values in a fibre.

    The value at a tuple lies in the fibre over its anchor: the source of
    the last arrow (the object itself in degree 0).  A fibre supplies `k`
    (the width of a free orbit), `zeros`, `identity`, `element` (coerce a
    value), `embedding(x)` (the fixed vectors at a rho-fixed object x, as
    columns), `partner(x)` (the map from the value at a representative with
    anchor x to the value at its partner), `fixed_coords(x, X)` (the
    coordinates in `embedding(x)` of the columns of X, or None if one is
    not fixed) and `scalars(num, scale)` (its scalars num / scale; the
    scale is 1 on an integral fibre, and fixed_coords keeps it).

    Orbits are numbered in the order of their representatives, the smaller
    index of a free orbit's two tuples.  Per orbit there are arrays reps,
    partners, anchors (of the representative), fixed, offsets and widths;
    per tuple, orbit_of and value_key, which names the matrix
    value_matrix(key) taking the stored coordinates to the value there."""

    def __init__(self, level, fibre):
        self.groupoid = level.groupoid
        self.fibre = fibre
        self.n = level.n
        self.level = level
        rho = level.rho_indices
        if (rho < 0).any():
            raise ValueError("the involution does not map the nerve to itself")
        i = np.arange(len(level))
        self.reps = np.flatnonzero(i <= rho)
        self.partners = rho[self.reps]
        self.fixed = self.partners == self.reps
        self.anchors = level.anchors[self.reps]
        self.orbit_of = np.searchsorted(self.reps, np.minimum(i, rho))
        # 0: the identity at a representative; 2x + 1: partner(x) and
        # 2x + 2: embedding(x), x the anchor of the representative
        x = self.anchors[self.orbit_of]
        self.value_key = np.where(rho == i, 2 * x + 2, np.where(i < rho, 0, 2 * x + 1))
        self.widths = np.full(len(self.reps), fibre.k)
        for a in set(self.anchors[self.fixed].tolist()):
            self.widths[self.fixed & (self.anchors == a)] = fibre.embedding(a).shape[1]
        self.offsets = np.cumsum(self.widths) - self.widths
        self.total = int(self.widths.sum())

    @cached_property
    def orbits(self):
        return [Orbit("fixed" if f else "free", r, p, a) for f, r, p, a in zip(
            self.fixed.tolist(), self.reps.tolist(), self.partners.tolist(),
            self.anchors.tolist())]

    def width(self, oid):
        return int(self.widths[oid])

    def counts(self):
        fixed = int(self.fixed.sum())
        return len(self.reps) - fixed, fixed

    def value_matrix(self, key):
        if key == 0:
            return self.fibre.identity
        x, fixed = divmod(key - 1, 2)
        return self.fibre.embedding(x) if fixed else self.fibre.partner(x)

    def value_expression(self, tuple_index):
        """(offset, M): the fibre value at this nerve tuple equals
        M @ stored-coordinates-of-its-orbit, placed at the offset."""
        return (int(self.offsets[self.orbit_of[tuple_index]]),
                self.value_matrix(int(self.value_key[tuple_index])))

    def corestrict(self, oid, X):
        """Stored coordinates of the fixed orbit oid for the fibre-valued
        columns X; None if some column is not fixed."""
        return self.fibre.fixed_coords(int(self.anchors[oid]), X)

    def from_values(self, value_fn):
        """Stored coordinates of the cochain whose value at each orbit
        representative is value_fn(tuple); the value at a fixed tuple must
        be fixed by the involution."""
        values = [np.array(self.fibre.element(value_fn(self.level.tuple_at(r))),
                           dtype=object).reshape(-1, 1) for r in self.reps.tolist()]
        every = np.arange(len(values))
        return assemble(self, 1, every, 0 * every, values, every, ValueError)[:, 0]


def assemble(dst, ncols, rows, cols, mats, keys, error=AssertionError):
    """The matrix with a row block per orbit of dst and ncols columns that
    sums, over the terms t, the fibre-valued matrix mats[keys[t]] placed
    in the block of orbit rows[t] from column cols[t] on.

    A free orbit stores its summed block as it is.  A fixed orbit stores
    the corestriction of its columns, one batched call per anchor; a zero
    column stays zero, and a nonzero column that is not fixed raises
    error.  The sums run on the matrices that `exact.cleared` scales to
    integers, in int64 when a bound shows that no sum can overflow."""
    fibre, k = dst.fibre, dst.fibre.k
    num, scale = exact.cleared(np.concatenate(list(mats) + [exact.zeros(k, 0)], axis=1))
    # the nonzero entries (a, b, v) of the matrices, matrix by matrix
    b, a = np.nonzero((num != 0).T)
    v = num[a, b]
    first_col = np.cumsum([0] + [M.shape[1] for M in mats])
    owner = np.searchsorted(first_col, b, side="right") - 1
    count = np.bincount(owner, minlength=len(mats))
    # one entry per term and nonzero of its matrix
    per = count[keys]
    term = np.repeat(np.arange(len(keys)), per)
    e = np.repeat((np.cumsum(count) - count)[keys], per) + segments(per)
    if not e.size:
        return fibre.zeros(dst.total, ncols)
    if max(abs(x) for x in v) * len(keys) < 1 << 62:
        v = v.astype(np.int64)  # no sum of len(keys) entries can overflow
    code = (rows[term] * k + a[e]) * ncols + cols[term] + b[e] - first_col[owner[e]]
    order = np.argsort(code, kind="stable")
    code, v = code[order], v[e][order]
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    code, v = code[starts], np.add.reduceat(v, starts).astype(object)
    r, a, c = code // (k * ncols), code // ncols % k, code % ncols
    free = ~dst.fixed[r]
    # allocated once the term-sized arrays are gone
    A = fibre.zeros(dst.total, ncols)
    A[dst.offsets[r[free]] + a[free], c[free]] = fibre.scalars(v[free], scale)
    # the k-vector of each (fixed orbit, column) pair, corestricted
    pair, col = np.unique(r[~free] * ncols + c[~free], return_inverse=True)
    X = exact.zeros(k, len(pair))
    X[a[~free], col] = v[~free]
    orbit, c = pair // ncols, pair % ncols
    bad = []
    for x in sorted(set(dst.anchors[orbit].tolist())):
        sel = np.flatnonzero(dst.anchors[orbit] == x)
        W = fibre.fixed_coords(x, X[:, sel])
        if W is None:
            bad.append(next(orbit[s] for s in sel
                            if fibre.fixed_coords(x, X[:, [s]]) is None))
        else:
            rows_W = dst.offsets[orbit[sel]] + np.arange(W.shape[0])[:, None]
            A[rows_W, c[sel]] = fibre.scalars(W, scale)
    if bad:
        tup = dst.level.tuple_at(dst.reps[min(bad)])
        raise error(f"value at fixed tuple {tup} is not fixed by the involution")
    return A


def face_sum(dst, src, rows, tuples, factors, fkeys, error=AssertionError):
    """The matrix from the orbit basis src to dst whose block at orbit
    rows[t] of dst sums, over the terms t, factors[fkeys[t]] @ (the value
    of src at its tuple tuples[t]).  Each distinct product of a factor and
    a value matrix is formed once."""
    if (tuples < 0).any():
        raise ValueError("a face is not a tuple of the nerve: the groupoid is not valid")
    nv = 2 * src.groupoid.n_objects + 1
    pairs, keys = np.unique(fkeys * nv + src.value_key[tuples], return_inverse=True)
    mats = [factors[p // nv] @ src.value_matrix(p % nv) for p in pairs.tolist()]
    return assemble(dst, src.total, rows, src.offsets[src.orbit_of[tuples]],
                    mats, keys, error)


def coboundary_matrix(src, dst, last_face=None):
    """Matrix of d: C^n -> C^(n+1), the alternating sum of the face maps,
    in the orbit bases src (degree n) and dst (degree n+1).  last_face(g),
    if given, is the fibre map applied to the value at the last face of a
    tuple with last arrow g, which is anchored at another object."""
    n, reps = src.n, dst.reps
    tuples = np.concatenate([dst.level.faces[i][reps] for i in range(n + 2)])
    rows = np.tile(np.arange(len(reps)), n + 2)
    fkeys = np.repeat(np.arange(n + 2) % 2, len(reps))
    factors = [src.fibre.identity, -src.fibre.identity]
    if last_face is not None:
        arrows, which = np.unique(dst.level.entries[reps, -1], return_inverse=True)
        fkeys[(n + 1) * len(reps):] = 2 + which
        factors += [(-1) ** (n + 1) * last_face(g) for g in arrows.tolist()]
    return face_sum(dst, src, rows, tuples, factors, fkeys)


class LevelBasis(OrbitBasis):
    """Orbit basis of the degree-n real cochain group (integral fibre)."""

    def __init__(self, groupoid, sblocks, n):
        OrbitBasis.__init__(self, nerve(groupoid, n), sblocks)
        self.moduli = [d for f in self.fixed.tolist()
                       for d in (sblocks.moduli_fixed if f else sblocks.moduli_S)]

    def presentation(self):
        """The cochain group as an abelian group presentation."""
        return exact.quotient(exact.eye(self.total), self.relation_matrix())

    def relation_matrix(self):
        rows = [i for i, d in enumerate(self.moduli) if d > 0]
        R = exact.zeros(self.total, len(rows))
        R[rows, range(len(rows))] = [self.moduli[i] for i in rows]
        return R

    def in_relation_lattice(self, vec):
        return all(v % d == 0 if d else v == 0 for v, d in zip(vec, self.moduli))

    def reduce(self, vec):
        return np.array([int(v) % d if d > 0 else int(v)
                         for v, d in zip(vec, self.moduli)], dtype=object)

    def value_at(self, vector, tup):
        """Evaluate a stored coordinate vector at a nerve tuple; returns
        the S-element as a reduced tuple."""
        i = self.level.index_of(tup)
        off, M = self.value_expression(i)
        w = M.shape[1]
        coords = np.array(list(vector[off:off + w]), dtype=object)
        val = M @ coords if w else exact.zeros(self.fibre.k, 1)[:, 0]
        return self.fibre.S.reduce_tuple(tuple(val))


class RealCochain:
    """A degree-n real cochain in stored orbit coordinates."""

    def __init__(self, complex_, degree, vector):
        self.complex = complex_
        self.degree = degree
        basis = complex_.basis(degree)
        self.vector = basis.reduce(np.array(list(vector), dtype=object))

    def value_at(self, tup):
        return self.complex.basis(self.degree).value_at(self.vector, tup)

    def __add__(self, other):
        assert self.degree == other.degree
        return RealCochain(self.complex, self.degree,
                           self.vector + other.vector)

    def __neg__(self):
        return RealCochain(self.complex, self.degree, -self.vector)

    def __sub__(self, other):
        return self + (-other)

    def serialize(self):
        basis = self.complex.basis(self.degree)
        blocks = zip(basis.offsets.tolist(), basis.widths.tolist())
        values = [[oid, [int(v) for v in self.vector[off:off + w]]]
                  for oid, (off, w) in enumerate(blocks)]
        return {"degree": self.degree, "values": values}


class RealComplex:
    """Cochain complex of one (groupoid, coefficient group) pair; levels
    and differentials are built once and cached.  Integral mode only;
    rational coefficients go through the representation complex."""

    def __init__(self, groupoid, S):
        if S.mode != "integral":
            raise ValueError("RealComplex requires integral coefficients")
        self.groupoid = groupoid
        self.S = S
        self.sb = SBlocks(S)
        self._bases = {}
        self._diffs = {}
        self._solvers = {}

    def basis(self, n):
        if n not in self._bases:
            self._bases[n] = LevelBasis(self.groupoid, self.sb, n)
        return self._bases[n]

    def cochain(self, n, vector):
        return RealCochain(self, n, vector)

    def zero_cochain(self, n):
        return RealCochain(self, n, exact.zeros(self.basis(n).total, 1)[:, 0])

    def from_values(self, n, value_fn):
        """Build a cochain from an S-valued function on nerve tuples; the
        function is sampled at orbit representatives (fixed tuples must
        land in the fixed subgroup)."""
        return RealCochain(self, n, self.basis(n).from_values(value_fn))

    def differential_matrix(self, n):
        """Integer matrix of d: CR^n -> CR^(n+1) in the orbit bases."""
        if n not in self._diffs:
            self._diffs[n] = coboundary_matrix(self.basis(n), self.basis(n + 1))
        return self._diffs[n]

    def _image(self, cochain):
        n = cochain.degree
        D = self.differential_matrix(n)
        return D @ cochain.vector if self.basis(n).total else \
            exact.zeros(self.basis(n + 1).total, 1)[:, 0]

    def d(self, cochain):
        return RealCochain(self, cochain.degree + 1, self._image(cochain))

    def is_cocycle(self, cochain):
        return self.basis(cochain.degree + 1).in_relation_lattice(self._image(cochain))

    def is_coboundary(self, cochain):
        """None, or a degree-(n-1) primitive b with db = c.  The complex
        starts at degree 0, so a 0-cochain is a coboundary only if it is
        zero; the witness returned in that case is the zero 0-cochain."""
        n = cochain.degree
        if n == 0:
            zero = self.basis(0).in_relation_lattice(cochain.vector)
            return self.zero_cochain(0) if zero else None
        if n not in self._solvers:
            self._solvers[n] = exact.IntSolver(self.differential_matrix(n - 1),
                                               self.basis(n).relation_matrix())
        sol = self._solvers[n].solve(cochain.vector)
        return None if sol is None else RealCochain(self, n - 1, sol)

    def cohomology(self, n):
        return CohomologyGroup(self, n)


class CohomologyGroup:
    """ker d^n / im d^(n-1) with representatives and a class tester."""

    def __init__(self, complex_, n):
        self.complex = complex_
        self.degree = n
        basis = complex_.basis(n)
        D_n = complex_.differential_matrix(n)
        R_next = complex_.basis(n + 1).relation_matrix()
        R_here = basis.relation_matrix()
        if n == 0:
            img = R_here
        else:
            D_prev = complex_.differential_matrix(n - 1)
            img = np.concatenate([D_prev, R_here], axis=1) \
                if R_here.shape[1] else D_prev
        self.presentation = exact.lattice_mod_relations(D_n, img, R_next)
        self.free_rank = self.presentation.free_rank
        self.invariant_factors = list(self.presentation.invariant_factors)

    def group_key(self):
        return (self.free_rank, tuple(self.invariant_factors))

    def order(self):
        return self.presentation.order()

    def representatives(self):
        """One representative cocycle per generator of the group."""
        out = []
        for col, order in self.presentation.generators():
            out.append((RealCochain(self.complex, self.degree, col), order))
        return out

    def class_of(self, cochain):
        """Canonical class coordinates; None if not a cocycle."""
        return self.presentation.class_coords(cochain.vector)

    def is_trivial_class(self, cochain):
        c = self.class_of(cochain)
        return c is not None and all(v == 0 for v in c)

    def all_classes(self):
        return self.presentation.all_classes()

    def lift(self, coords):
        return RealCochain(self.complex, self.degree,
                           self.presentation.lift(coords))

    def __str__(self):
        return str(self.presentation)


# -- module-level convenience API --------------------------------------

def _complex(groupoid, S):
    """RealComplex for integral S; for rational S the representation
    complex of the constant fibre Q^(p+q) with involution diag(1_p, -1_q)."""
    if S.mode == "rational":
        from .proper import RepComplex
        from .coefficients import RealRepresentation
        return RepComplex(groupoid, RealRepresentation.trivial(groupoid, *_pq_of(S)))
    return RealComplex(groupoid, S)


def cochain_group(groupoid, S, n):
    """The degree-n real cochain group; returns the LevelBasis, whose
    presentation is S^(#free orbits) + fixed(S)^(#fixed tuples)."""
    return _complex(groupoid, S).basis(n)


def differential(groupoid, S, n):
    return _complex(groupoid, S).differential_matrix(n)


def cohomology(groupoid, S, n):
    return _complex(groupoid, S).cohomology(n)


def _pq_of(S):
    # a rational coefficient space is diag(1_p, -1_q) after base change;
    # recover (p, q) from the involution's eigenvalue multiplicities
    fixed, _ = S.fixed_part()
    p = fixed.free_rank
    return p, S.free_rank - p


def invariant_sections(groupoid, S):
    """Sections s with s(rho x) = tau(s(x)) constant on orbits of the
    groupoid: solved directly on the full function space S^X, not via the
    orbit-reduced complex, so it is an independent route to HR^0."""
    if S.mode == "rational":
        raise ValueError("invariant_sections expects integral coefficients")
    G = groupoid
    k = S.ngens
    nvars = G.n_objects * k
    rows = []
    for x in range(G.n_objects):
        rx = int(G.rho_obj[x])
        block = exact.zeros(k, nvars)
        block[:, rx * k:(rx + 1) * k] += exact.eye(k)
        block[:, x * k:(x + 1) * k] -= S.tau
        rows.append(block)
    for g in range(G.n_arrows):
        s, t = int(G.src[g]), int(G.tgt[g])
        if s == t:
            continue
        block = exact.zeros(k, nvars)
        block[:, s * k:(s + 1) * k] += exact.eye(k)
        block[:, t * k:(t + 1) * k] -= exact.eye(k)
        rows.append(block)
    C = np.concatenate(rows, axis=0) if rows else exact.zeros(0, nvars)
    # one copy of S's relations per object, and per k-row block of C
    R_S = S.relations()
    per_obj = np.kron(exact.eye(G.n_objects), R_S)
    modulus = np.kron(exact.eye(len(rows)), R_S)
    return exact.lattice_mod_relations(C, per_obj, modulus)
