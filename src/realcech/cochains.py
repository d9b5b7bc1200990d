"""The cochain complex of a finite groupoid with involution.

A degree-n cochain assigns a coefficient value to every composable
n-tuple subject to the reality constraint c(rho(t)) = tau(c(t)).  The
stored basis runs over involution orbits of nerve tuples: a free orbit
keeps one full copy of S (the partner value is tau of it), a fixed tuple
keeps a copy of the fixed subgroup.  That makes the cochain group an
honest direct sum, so Smith-form arithmetic applies directly.

The orbit basis and the assembly of matrices on it are written once, for
any fibre: SBlocks here, and the rational representation fibre of
proper.py, which uses the same construction.

The differential is the alternating sum over the face maps; cohomology
is kernel-mod-image computed exactly over Z (or over Q for rational
coefficients, which are routed through the representation machinery).
"""

import numpy as np

from . import exact
from .nerve import nerve, face


class SBlocks:
    """The integral fibre: per-coefficient-group data shared by all levels.

    A free orbit stores one copy of S (the S block); a fixed orbit stores
    fixed-subgroup coordinates, mapped into S by the embedding, and
    to_fixed_coords corestricts an S-value into them.  The fibre is the
    same at every object, so the anchor arguments of the fibre interface
    used by OrbitBasis are ignored."""

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

    def fixed_coords(self, x, vec):
        return self.to_fixed_coords(vec)


class Orbit:
    __slots__ = ("kind", "rep", "partner", "anchor")

    def __init__(self, kind, rep, partner, anchor):
        self.kind = kind        # 'free' | 'fixed'
        self.rep = rep          # tuple index in the nerve level
        self.partner = partner  # == rep for fixed orbits
        self.anchor = anchor    # object whose fibre holds the value at rep


class OrbitBasis:
    """Orbit basis of degree-n real cochains with values in a fibre.

    The value at a tuple lies in the fibre over its anchor: the source of
    the last arrow (the object itself in degree 0).  A fibre supplies `k`
    (the width of a free orbit), `zeros`, `identity`, `element` (coerce a
    value), `embedding(x)` (the fixed vectors at a rho-fixed object x, as
    columns), `partner(x)` (the map from the value at a representative with
    anchor x to the value at its partner) and `fixed_coords(x, vec)` (the
    coordinates of a fixed vector in `embedding(x)`, or None)."""

    def __init__(self, level, fibre):
        self.groupoid = level.groupoid
        self.fibre = fibre
        self.n = level.n
        self.level = level
        G = level.groupoid
        anchors = level.entries[:, 0] if level.n == 0 else G.src[level.entries[:, -1]]
        self.orbits = []
        self.orbit_of = {}    # tuple index -> (orbit id, 'rep'|'partner')
        seen = set()
        for i in range(len(level)):
            if i in seen:
                continue
            j = level.rho_index(i)
            oid = len(self.orbits)
            if j == i:
                self.orbits.append(Orbit("fixed", i, i, int(anchors[i])))
                self.orbit_of[i] = (oid, "rep")
                seen.add(i)
            else:
                rep, partner = (i, j) if i < j else (j, i)
                self.orbits.append(Orbit("free", rep, partner, int(anchors[rep])))
                self.orbit_of[rep] = (oid, "rep")
                self.orbit_of[partner] = (oid, "partner")
                seen.update((rep, partner))
        self.offsets = []
        self.widths = []
        pos = 0
        for o in self.orbits:
            w = fibre.k if o.kind == "free" else fibre.embedding(o.anchor).shape[1]
            self.offsets.append(pos)
            self.widths.append(w)
            pos += w
        self.total = pos

    def width(self, oid):
        return self.widths[oid]

    def counts(self):
        free = sum(1 for o in self.orbits if o.kind == "free")
        return free, len(self.orbits) - free

    def value_expression(self, tuple_index):
        """(offset, M): the fibre value at this nerve tuple equals
        M @ stored-coordinates-of-its-orbit, placed at the offset."""
        oid, role = self.orbit_of[tuple_index]
        o = self.orbits[oid]
        if o.kind == "fixed":
            M = self.fibre.embedding(o.anchor)
        elif role == "rep":
            M = self.fibre.identity
        else:
            M = self.fibre.partner(o.anchor)
        return self.offsets[oid], M

    def corestrict(self, oid, X):
        """Stored coordinates of the fixed orbit oid for the fibre-valued
        columns X; None if some column is not fixed."""
        o = self.orbits[oid]
        W = self.fibre.zeros(self.widths[oid], X.shape[1])
        for c in range(X.shape[1]):
            w = self.fibre.fixed_coords(o.anchor, X[:, c])
            if w is None:
                return None
            W[:, c] = w
        return W

    def from_values(self, value_fn):
        """Stored coordinates of the cochain whose value at each orbit
        representative is value_fn(tuple); the value at a fixed tuple must
        be fixed by the involution."""
        def blocks(tup, anchor):
            value = self.fibre.element(value_fn(tup))
            return [(0, np.array(value, dtype=object).reshape(-1, 1))]
        return assemble(self, 1, blocks, ValueError)[:, 0]


def assemble(dst, ncols, blocks, error=AssertionError):
    """The matrix with a row block per orbit of dst and ncols columns.

    blocks(tup, anchor) gives, for the representative tuple of an orbit,
    (first column, fibre-valued block) pairs.  A free orbit stores the
    blocks as they are.  A fixed orbit stores the corestriction of their
    nonzero columns; a zero column stays zero, exactly, since the
    corestriction of 0 is 0.  A nonzero column that is not fixed raises
    error."""
    A = dst.fibre.zeros(dst.total, ncols)
    for oid, o in enumerate(dst.orbits):
        tup = dst.level.tuple_at(o.rep)
        r = dst.offsets[oid]
        for c, X in blocks(tup, o.anchor):
            w = dst.widths[oid]
            if o.kind == "free":
                A[r:r + w, c:c + X.shape[1]] = X
                continue
            cols = [j for j in range(X.shape[1]) if any(v != 0 for v in X[:, j])]
            if not cols:
                continue
            W = dst.corestrict(oid, X[:, cols])
            if W is None:
                raise error(f"value at fixed tuple {tup} is not fixed by the involution")
            A[r:r + w, [c + j for j in cols]] = W
    return A


def face_sum(src, terms):
    """Group the sum of coef * L @ (value of src at tuple i), over the
    (i, coef, L) in terms, by source orbit: (first column, block) pairs for
    the orbits the terms hit.  L is None for the identity."""
    fibre = src.fibre
    blocks = {}
    for i, coef, L in terms:
        off, M = src.value_expression(i)
        if not M.shape[1]:
            continue
        if off not in blocks:
            blocks[off] = fibre.zeros(fibre.k, M.shape[1])
        blocks[off] += coef * (M if L is None else L @ M)
    return blocks.items()


def coboundary_matrix(src, dst, last_face=None):
    """Matrix of d: C^n -> C^(n+1), the alternating sum of the face maps,
    in the orbit bases src (degree n) and dst (degree n+1).  last_face(tup),
    if given, is the fibre map applied to the value at the last face of tup,
    which is anchored at another object."""
    G, n = src.groupoid, src.n

    def blocks(tup, anchor):
        terms = []
        for i in range(n + 2):
            fi = src.level.index_of(face(G, n + 1, i, tup))
            L = last_face(tup) if last_face is not None and i == n + 1 else None
            terms.append((fi, 1 if i % 2 == 0 else -1, L))
        return face_sum(src, terms)

    return assemble(dst, src.total, blocks)


class LevelBasis(OrbitBasis):
    """Orbit basis of the degree-n real cochain group (integral fibre)."""

    def __init__(self, groupoid, sblocks, n):
        OrbitBasis.__init__(self, nerve(groupoid, n), sblocks)
        self.moduli = []
        for o in self.orbits:
            self.moduli.extend(sblocks.moduli_S if o.kind == "free"
                               else sblocks.moduli_fixed)

    def presentation(self):
        """The cochain group as an abelian group presentation."""
        return exact.quotient(exact.eye(self.total), self.relation_matrix())

    def relation_matrix(self):
        cols = sum(1 for d in self.moduli if d > 0)
        R = exact.zeros(self.total, cols)
        c = 0
        for i, d in enumerate(self.moduli):
            if d > 0:
                R[i, c] = d
                c += 1
        return R

    def in_relation_lattice(self, vec):
        for v, d in zip(vec, self.moduli):
            if d == 0:
                if v != 0:
                    return False
            elif v % d != 0:
                return False
        return True

    def reduce(self, vec):
        out = []
        for v, d in zip(vec, self.moduli):
            out.append(int(v) % d if d > 0 else int(v))
        return np.array(out, dtype=object)

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
        values = []
        for oid in range(len(basis.orbits)):
            off = basis.offsets[oid]
            w = basis.width(oid)
            values.append([oid, [int(v) for v in self.vector[off:off + w]]])
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

    def d(self, cochain):
        n = cochain.degree
        D = self.differential_matrix(n)
        vec = D @ cochain.vector if self.basis(n).total else \
            exact.zeros(self.basis(n + 1).total, 1)[:, 0]
        return RealCochain(self, n + 1, vec)

    def is_cocycle(self, cochain):
        n = cochain.degree
        D = self.differential_matrix(n)
        img = D @ cochain.vector if self.basis(n).total else \
            exact.zeros(self.basis(n + 1).total, 1)[:, 0]
        return self.basis(n + 1).in_relation_lattice(img)

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
    R_S = S.relations()
    per_obj = exact.zeros(nvars, G.n_objects * R_S.shape[1])
    for x in range(G.n_objects):
        per_obj[x * k:(x + 1) * k,
                x * R_S.shape[1]:(x + 1) * R_S.shape[1]] = R_S
    n_rows = C.shape[0] // k if k else 0
    modulus = exact.zeros(C.shape[0], n_rows * R_S.shape[1])
    for r in range(n_rows):
        modulus[r * k:(r + 1) * k,
                r * R_S.shape[1]:(r + 1) * R_S.shape[1]] = R_S
    return exact.lattice_mod_relations(C, per_obj, modulus)
