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
Its group key comes from the invariant factors of one matrix, its
generators and class coordinates from a presentation built on demand.
"""

import math
import weakref
from collections import namedtuple
from functools import cached_property

import numpy as np

from . import exact
from .nerve import distinct, face, nerve  # noqa: F401 -- bench/spans.py patches face here


Corestriction = namedtuple("Corestriction", "matrix divisors width")


def corestricted(rule, X):
    """The stored coordinates of fibre-valued columns X by a fibre's rule
    at a rho-fixed anchor: the first rule.width rows of rule.matrix @ X
    over their divisors; None unless every row is divisible by its divisor
    (zero where it is 0).  Only divisors > 1 divide, so Fractions pass."""
    Y, d = rule.matrix @ X, np.array(rule.divisors, dtype=object)
    big, q = d > 1, d[d > 1].reshape((-1,) + (1,) * (Y.ndim - 1))
    if Y[d == 0].any() or (Y[big] % q).any():
        return None
    Y[big] //= q
    return Y[:rule.width]


def rule_table(identity, rules):
    """(rules, widths, divisors) of a fibre: the identity's rule first,
    then the rules given; their widths; and divisors[i, a], that of row a
    of rule i, 1 past its rows."""
    k = identity.shape[0]
    rules = [Corestriction(identity, [1] * k, k), *rules]
    K = max(len(rule.divisors) for rule in rules)
    return rules, np.array([rule.width for rule in rules], dtype=np.int64), exact._packed(
        np.array([[*r.divisors] + [1] * (K - len(r.divisors)) for r in rules], dtype=object))


class SBlocks:
    """The integral fibre: per-coefficient-group data shared by all levels.

    A free orbit stores one copy of S (the S block); a fixed orbit stores
    fixed-subgroup coordinates, mapped into S by the embedding E, and its
    rule corestricts S-values to them (`to_fixed_coords` one value).  The
    fibre is the same at every object: its matrices are I, tau and E
    (keys 0, 1 and 2), with one rule, at every anchor, and the value at
    the last face of a tuple needs no transport (`last_keys` is None).
    It keeps S's arrays and not S, so that the state it is part of does
    not keep its key alive (see `Complex`)."""

    last_keys = None

    def __init__(self, S):
        self.k, self.free_rank, self.tau = S.ngens, S.free_rank, S.tau
        self.identity = exact.eye(self.k)
        self.moduli_S = [0] * S.free_rank + list(S.invariant_factors)
        fixed, E = S.fixed_part()
        self.embed = E  # k x (generators of the fixed subgroup)
        self.moduli_fixed = [0] * fixed.free_rank + list(fixed.invariant_factors)
        self.mats = [exact.Scaled(M, 1) for M in (self.identity, S.tau, E)]
        # U [E | R] V = D, d its nonzero diagonal: b is fixed iff d | U[:r] b and
        # U[r:] b = 0; its coordinates V[:, :r] (U[:r] b / d) are kept times lcm(d)
        sv, w = exact.IntSolver(E, S.relations()), E.shape[1]
        d = [x for x in sv.diag if x]
        r, lcm = len(d), math.lcm(*d)
        # where row j of V[:, :r] is e_i, coordinate j is (lcm / d_i) U[i] b over
        # lcm, which already says that d_i divides U[i] b: no condition row
        implied = {row.index(1) for row in sv.V[:, :r].tolist()
                   if row.count(1) == 1 and row.count(0) == r - 1}
        conditions = [i for i in range(self.k) if i >= r or d[i] > 1 and i not in implied]
        self.rules, self.widths, self.divisors = rule_table(self.identity, [Corestriction(
            np.concatenate([(sv.V[:, :r] * [lcm // x for x in d]) @ sv.U[:r], sv.U[conditions]]),
            [lcm] * w + [d[i] if i < r else 0 for i in conditions], w)])

    def to_fixed_coords(self, vec):
        """An S-element's fixed coordinates; None if it is not fixed."""
        sol = corestricted(self.rules[1], np.array(vec, dtype=object))
        return None if sol is None else tuple(int(v) for v in sol)

    def element(self, value):
        """value with its torsion coordinates reduced, as S.reduce_tuple."""
        return tuple(int(v) % d if d else int(v) for v, d in zip(value, self.moduli_S, strict=True))

    def keys(self, x):
        one = np.ones_like(x)
        return one, 2 * one, one

    def embedding(self, x):
        return self.embed

    def partner(self, x):
        return self.tau

    def corestriction(self, x):
        return self.rules[1]


Orbit = namedtuple("Orbit", "kind rep partner anchor")


class OrbitBasis:
    """Orbit basis of degree-n real cochains with values in a fibre.

    The value at a tuple lies in the fibre over its anchor: the source of
    the last arrow (the object itself in degree 0).  A fibre supplies `k`
    (the width of a free orbit), `identity`, `element` (coerce a value)
    and a table built once: `mats`, its distinct matrices as
    `exact.Scaled` integer pairs (key 0 the identity); `rules`, the
    `Corestriction`s to fixed coordinates (rule 0 the identity's; a
    common scale of the values carries over) with their `widths` and
    `divisors` (as `rule_table` makes them); and `keys(x)`, at objects x,
    the keys of partner(x) (from the value at a representative with
    anchor x to the value at its partner) and of embedding(x) (the fixed
    vectors at a rho-fixed x, as columns), and the index of its rule.

    Orbits are numbered in the order of their representatives, the smaller
    index of a free orbit's two tuples.  The arrays that depend on the
    groupoid alone are the level's (`NerveLevel.orbits`), shared by every
    basis on it: per orbit reps, partners, anchors (of the
    representative) and fixed; per tuple orbit_of.  The basis adds what
    depends on the fibre: per orbit offsets, widths and rule_of (into the
    fibre's rules); per tuple value_key, which names the matrix
    value_matrix(key) taking the stored coordinates to the value there."""

    def __init__(self, level, fibre):
        self.fibre = fibre
        self.n = level.n
        self.level = level
        self.reps, self.partners, self.fixed, self.anchors, self.orbit_of, kind = level.orbits
        # the identity at a representative, partner(x) at its partner and
        # embedding(x) at a fixed tuple, x the anchor of the representative;
        # a fixed orbit takes the rule at its anchor, as wide as the rule
        partner, embedding, rule = fibre.keys(self.anchors)
        self.value_key = np.where(kind < 0, 0, np.where(self.fixed, embedding, partner)[self.orbit_of])
        self.rule_of = np.where(self.fixed, rule, 0)
        self.widths = fibre.widths[self.rule_of]
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
        """The fibre's matrix of the key: integers where they are, else
        Fractions."""
        M, s = self.fibre.mats[key]
        return M if s == 1 else exact.frac_divide(M, s)

    def value_expression(self, tuple_index):
        """(offset, M): the fibre value at this nerve tuple equals
        M @ stored-coordinates-of-its-orbit, placed at the offset."""
        return (int(self.offsets[self.orbit_of[tuple_index]]),
                self.value_matrix(int(self.value_key[tuple_index])))

    def corestrict(self, oid, X):
        """`corestricted` by the rule of the orbit oid."""
        return corestricted(self.fibre.rules[self.rule_of[oid]], X)

    def from_values(self, value_fn):
        """Stored coordinates of the cochain whose value at each orbit
        representative is value_fn(tuple), as a Scaled vector; the value
        at a fixed tuple must be fixed by the involution."""
        values = [exact.cleared(np.array(self.fibre.element(value_fn(self.level.tuple_at(r))),
                                         dtype=object).reshape(-1, 1))
                  for r in self.reps.tolist()]
        every = np.arange(len(values))
        num, scale = assemble(self, 1, every, 0 * every, values, every, ValueError)
        return exact.Scaled(exact.to_dense(num)[:, 0], scale)


def assemble(dst, ncols, rows, cols, mats, keys, error=AssertionError):
    """The matrix with a row block per orbit of dst and ncols columns that
    sums, over the terms t, the fibre-valued matrix mats[keys[t]] placed
    in the block of orbit rows[t] from column cols[t] on.  Each of mats
    is an `exact.Scaled` pair (P, s), the matrix P / s.

    A free orbit stores its summed block as it is, a fixed orbit its
    corestriction: each term is premultiplied by the rule of its orbit,
    one product per distinct (rule, matrix) pair, and all cells are
    summed in one sort; a failing condition row raises error.  The sums
    run on integers, in int64 when a bound shows that no sum can
    overflow: each P / s is brought to one common scale, the lcm of the
    denominators of all entries in lowest terms (the lcm of s / gcd(s,
    content of P) over the mats).  The result is `exact.Scaled(num,
    scale)`, num an `exact.Sparse` matrix, and num / scale is
    `exact.cleared` of the matrices put side by side (the scale is 1 on
    an integral fibre).  No dense matrix of its shape is formed."""
    rules, divisors = dst.fibre.rules, dst.fibre.divisors
    K, shape = divisors.shape[1], (dst.total, ncols)
    # the common scale: the lcm of the denominators in lowest terms
    scale = math.lcm(*[s // math.gcd(s, *P.ravel().tolist()) for P, s in mats if s != 1])
    # the distinct (rule, matrix) pairs in order, and the pair of each term
    pairs, keys = distinct(dst.rule_of[rows] * len(mats) + keys, len(rules) * len(mats))
    # the nonzero entries of each product over the scale, padded with zeros
    # to one length: the value at row a and column b, coded a * ncols + b
    entries = []
    for p in pairs.tolist():
        rule, (P, s) = rules[p // len(mats)], mats[p % len(mats)]
        P = rule.matrix @ P if p >= len(mats) else P
        f, w = scale // math.gcd(scale, s), s // math.gcd(scale, s)
        entries.append([(a * ncols + b, x * f // w) for a, row in enumerate(P.tolist())
                        for b, x in enumerate(row) if x])
    width = max(map(len, entries), default=0)
    top = max((abs(x) for es in entries for _, x in es), default=0)
    pad = [0] * width
    ab = np.array([([c for c, _ in es] + pad)[:width] for es in entries], dtype=np.int64)
    # no sum of len(keys) entries can overflow int64 under this bound
    v = np.array([([x for _, x in es] + pad)[:width] for es in entries],
                 dtype=np.int64 if top * len(keys) < 1 << 62 else object)[keys]
    # the cell (orbit r, rule row a, column c) of each entry, coded
    # (r * K + a) * ncols + c, summed over equal codes
    code = (rows * (K * ncols) + cols)[:, None] + ab[keys]
    # the padding is no entry (and may code a cell past the last)
    live = v != 0
    code, v = code[live], v[live]
    order = np.argsort(code)
    code, v = code[order], v[order]
    starts = np.flatnonzero(exact.run_starts(code))
    if len(starts) < len(code):
        code, v = code[starts], np.add.reduceat(v, starts)
    ra, c = np.divmod(code, ncols)
    r, a = np.divmod(ra, K)
    # each row divisible by its divisor, or zero where that is 0; cells
    # come by orbit, so the first that fails names the lowest one
    d = divisors[dst.rule_of[r], a]
    q = np.maximum(d, 1)
    bad = np.flatnonzero(np.where(d == 0, v != 0, v % q != 0))
    if len(bad):
        tup = dst.level.tuple_at(dst.reps[r[bad[0]]])
        raise error(f"value at fixed tuple {tup} is not fixed by the involution")
    # the conditions are dropped and the coordinates divided; the rows
    # offsets[r] + a come in the order of the codes
    live = (v != 0) & (a < dst.widths[r])
    vals = (v // q)[live]
    if vals.dtype == object:
        vals = exact._packed(vals)
    return exact.Scaled(exact.Sparse(shape, (dst.offsets[r] + a)[live], c[live], vals), scale)


def face_sum(dst, src, rows, tuples, factors, fkeys):
    """The Scaled matrix from the orbit basis src to dst whose block at
    orbit rows[t] of dst sums, over the terms t, factors[fkeys[t]] @ (the
    value of src at its tuple tuples[t]).  The factors are `exact.Scaled`
    fibre matrices, and each distinct product of a factor and a value
    matrix is formed once, on integers."""
    if (tuples < 0).any():
        raise ValueError("a face is not a tuple of the nerve: the groupoid is not valid")
    nv = len(src.fibre.mats)
    # the distinct (factor, value matrix) pairs in order, and the pair of each term
    pairs, keys = distinct(fkeys * nv + src.value_key[tuples], len(factors) * nv)
    mats = []
    for p in pairs.tolist():
        (F, f), (V, v) = factors[p // nv], src.fibre.mats[p % nv]
        mats.append(exact.Scaled(F @ V, f * v))
    return assemble(dst, src.total, rows, src.offsets[src.orbit_of[tuples]], mats, keys)


def coboundary_matrix(src, dst):
    """Scaled matrix of d: C^n -> C^(n+1), the alternating sum of the face
    maps, in the orbit bases src (degree n) and dst (degree n+1).  The
    fibre's last_keys[g], unless None, is the key of the fibre map applied
    to the value at the last face of a tuple with last arrow g, which is
    anchored at another object."""
    n, reps, mats, last_keys = src.n, dst.reps, src.fibre.mats, src.fibre.last_keys
    # the level's terms, by face and orbit, with the sign of each face
    rows, tuples, fkeys = dst.level.face_terms
    one, scale = mats[0]
    factors = [exact.Scaled(one, scale), exact.Scaled(-one, scale)]
    if last_keys is not None:
        # arrows whose maps have one key share a factor
        keys, which = distinct(last_keys[dst.level.entries[reps, -1]], len(mats))
        sign = (-1) ** (n + 1)
        factors += [exact.Scaled(sign * mats[k].num, mats[k].scale) for k in keys.tolist()]
        fkeys = fkeys.copy()
        fkeys[(n + 1) * len(reps):] = 2 + which
    return face_sum(dst, src, rows, tuples, factors, fkeys)


class LevelBasis(OrbitBasis):
    """Orbit basis of the degree-n real cochain group (integral fibre)."""

    def __init__(self, groupoid, fibre, n):
        OrbitBasis.__init__(self, nerve(groupoid, n), fibre)

    @cached_property
    def moduli(self):
        """The modulus of each coordinate, 0 for a free one, as Python ints
        in an object array."""
        sb = self.fibre
        return np.array([d for f in self.fixed.tolist()
                         for d in (sb.moduli_fixed if f else sb.moduli_S)], dtype=object)

    def presentation(self):
        """The cochain group as an abelian group presentation."""
        return exact.quotient(exact.eye(self.total), self.relation_matrix())

    def relations(self):
        """The relation lattice as a Sparse matrix: a column d e_i for each
        coordinate i of positive modulus d, in coordinate order."""
        rows = np.flatnonzero(self.moduli)
        return exact.Sparse((self.total, len(rows)), rows, np.arange(len(rows)),
                            exact._packed(self.moduli[rows]))

    def relation_matrix(self):
        return exact.to_dense(self.relations())

    def in_relation_lattice(self, vec):
        return all(v % d == 0 if d else v == 0 for v, d in zip(vec, self.moduli))

    def reduce(self, vec):
        return np.array([int(v) % d if d > 0 else int(v)
                         for v, d in zip(vec, self.moduli)], dtype=object)

    def value_at(self, vector, tup):
        """The reduced S-value of a stored coordinate vector at one nerve
        tuple, as a tuple: its row of `values`."""
        return tuple(self.values(vector)[self.level.index_of(tup)].tolist())

    def values(self, vector):
        """Evaluate a stored coordinate vector at every tuple of the level:
        a (count, k) object array of reduced S-values in level order."""
        sb, vector = self.fibre, np.asarray(vector, dtype=object)
        out = exact.zeros(len(self.level), self.fibre.k)
        for key in np.unique(self.value_key).tolist():
            at = np.flatnonzero(self.value_key == key)
            M = self.value_matrix(key)
            cols = self.offsets[self.orbit_of[at]][:, None] + np.arange(M.shape[1])
            out[at] = vector[cols] @ M.T
        out[:, sb.free_rank:] %= np.array(sb.moduli_S[sb.free_rank:], dtype=object)
        return out


class RealCochain:
    """A degree-n real cochain in stored orbit coordinates."""

    def __init__(self, complex_, degree, vector):
        self.complex = complex_
        self.degree = degree
        basis, vector = complex_.basis(degree), np.array(list(vector), dtype=object)
        if len(vector) != basis.total:
            raise ValueError(f"a degree-{degree} cochain has {basis.total} coordinates, not {len(vector)}")
        self.vector = basis.reduce(vector)

    def value_at(self, tup):
        return self.complex.basis(self.degree).value_at(self.vector, tup)

    def values(self):
        """The value at every tuple of the level, in level order."""
        return self.complex.basis(self.degree).values(self.vector)

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


def stored(store, key, build):
    """store[key], build() stored there on first use; threads that race may
    each build it, and all read the one stored first."""
    value = store.get(key)
    if value is None:
        value = store.setdefault(key, build())
    return value


class Shared(dict):
    """What every complex on one groupoid and one coefficient object reads:
    the fibre; by key, the orbit basis ("basis", n), d^n ("d", n), h^n under
    the canonical cutoff ("h", n) and the solver of is_coboundary
    ("solver", n); and the cohomology groups, held weakly (a group holds
    its complex).  The groupoid keeps it by coefficient object while both
    live; it refers to neither, so reference counting frees it when
    either goes."""

    def __init__(self, fibre):
        self.fibre = fibre
        self.groups = weakref.WeakValueDictionary()


class Complex:
    """A cochain complex over a fibre: a view on the `Shared` state that
    groupoid.complexes keeps under the coefficient object, made with the
    fibre fibre() if there is none, and the ranks of its differentials,
    its own.  A subclass names its `Basis` and `Group` classes and
    supplies `differential_matrix` and `_rank`."""

    def __init__(self, groupoid, coefficients, fibre):
        self.groupoid, self.coefficients = groupoid, coefficients
        self.shared = stored(groupoid.complexes, coefficients, lambda: Shared(fibre()))
        self.fibre = self.shared.fibre
        self._ranks = {}

    def basis(self, n):
        return stored(self.shared, ("basis", n), lambda: self.Basis(self.groupoid, self.fibre, n))

    def coboundary(self, n):
        """d: C^n -> C^(n+1) as Scaled(num, scale), the matrix num / scale
        with num an `exact.Sparse` integer matrix, built once per degree."""
        return stored(self.shared, ("d", n), lambda: coboundary_matrix(self.basis(n), self.basis(n + 1)))

    def rank(self, n):
        """The rank over Q of d^n (of its free part on an integral fibre),
        computed once per degree by this complex."""
        if n not in self._ranks:
            self._ranks[n] = self._rank(n)
        return self._ranks[n]

    def cohomology(self, n):
        """HR^n, built once per degree while anything holds it."""
        return stored(self.shared.groups, n, lambda: self.Group(self, n))


class CohomologyGroup(exact.GroupKey):
    """ker d^n / im d^(n-1).  The group key comes from `cohomology_key`;
    the presentation, with representatives and class coordinates, is
    built on first use."""

    def __init__(self, complex_, n):
        self.complex = complex_
        self.degree = n
        self.free_rank, self.invariant_factors = cohomology_key(complex_, n)

    @cached_property
    def presentation(self):
        cx, n = self.complex, self.degree
        img = cx.basis(n).relation_matrix()
        if n:
            img = np.concatenate([cx.differential_matrix(n - 1), img], axis=1)
        return exact.lattice_mod_relations(cx.differential_matrix(n), img,
                                           cx.basis(n + 1).relation_matrix())

    def representatives(self):
        """One representative cocycle per generator of the group."""
        out = []
        for col, order in self.presentation.generators():
            out.append((RealCochain(self.complex, self.degree, col), order))
        return out

    def class_of(self, cochain):
        """Canonical class coordinates; None if not a cocycle.  A trivial
        group needs no presentation: its cocycles are the coboundaries,
        and their coordinates are ()."""
        if self.group_key() == (0, ()):
            return None if self.complex.is_coboundary(cochain) is None else ()
        return self.presentation.class_coords(cochain.vector)

    def is_trivial_class(self, cochain):
        c = self.class_of(cochain)
        return c is not None and all(v == 0 for v in c)

    def lift(self, coords):
        return RealCochain(self.complex, self.degree,
                           self.presentation.lift(coords))


class RealComplex(Complex):
    """Cochain complex of one (groupoid, coefficient group) pair.  Integral
    mode only; rational coefficients go through the representation
    complex."""

    Basis, Group = LevelBasis, CohomologyGroup

    def __init__(self, groupoid, S):
        if S.mode != "integral":
            raise ValueError("RealComplex requires integral coefficients")
        Complex.__init__(self, groupoid, S, lambda: SBlocks(S))
        self.S = S

    def cochain(self, n, vector):
        return RealCochain(self, n, vector)

    def zero_cochain(self, n):
        return RealCochain(self, n, exact.zeros(self.basis(n).total, 1)[:, 0])

    def from_values(self, n, value_fn):
        """Build a cochain from an S-valued function on nerve tuples; the
        function is sampled at orbit representatives (fixed tuples must
        land in the fixed subgroup)."""
        return RealCochain(self, n, self.basis(n).from_values(value_fn).num)

    def differential_matrix(self, n):
        """Integer matrix of d: CR^n -> CR^(n+1) in the orbit bases, as a
        dense object matrix made anew from `coboundary` on each call."""
        return exact.to_dense(self.coboundary(n).num)

    def _image(self, cochain):
        return self.coboundary(cochain.degree).num @ cochain.vector

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
        sol = stored(self.shared, ("solver", n), lambda: exact.IntSolver(
            self.differential_matrix(n - 1), self.basis(n).relation_matrix())).solve(cochain.vector)
        return None if sol is None else RealCochain(self, n - 1, sol)

    def _rank(self, n):
        # d^n on the free (modulus 0) coordinates: the differential of the
        # rational complex of this one
        D = self.coboundary(n).num
        free = (self.basis(n + 1).moduli[D.rows] == 0) & (self.basis(n).moduli[D.cols] == 0)
        return exact.frac_rank(exact.Sparse(D.shape, D.rows[free], D.cols[free], D.vals[free]))


def cohomology_key(cx, n):
    """(free rank, invariant factors > 1) of HR^n of the complex cx.

    C^n is Z^k(n) / span(R_n), and d o d vanishes only modulo R (fixed
    orbits).  The free complex T^n = Z^k(n) + Z^r(n+1), r(n+1) the number
    of torsion coordinates of degree n+1, with incoming differential

        M_n = [[D_(n-1), R_n], [G, -E]],  R_(n+1) E = D_n R_n,
                                          R_(n+1) G = -D_n D_(n-1)

    (on the torsion rows of degree n+1) maps onto C by (x, y) -> [x] with
    a contractible kernel, so the two have the same cohomology.  The
    cocycles of T^n are saturated in T^n, so the torsion of HR^n is that
    of coker M_n: its invariant factors > 1.  The free rank is that of
    the rational complex on the free (modulus 0) coordinates.

    M_n is built on the nonzeros, its bottom row of blocks negated and on
    every row of degree n+1 (zero on the free ones): neither changes an
    invariant factor."""
    here, there = cx.basis(n), cx.basis(n + 1)
    D_n = cx.coboundary(n).num
    D_prev = cx.coboundary(n - 1).num if n else exact.as_sparse(exact.zeros(here.total, 0))
    R_n = here.relations()
    E = _over_moduli(there, exact.product(D_n, R_n),
                     f"d^{n} does not map the relations of degree {n} "
                     f"into those of degree {n + 1}")
    G = _over_moduli(there, exact.product(D_n, D_prev),
                     f"d^{n} o d^{n - 1} does not vanish modulo the "
                     f"relations of degree {n + 1}")
    # the nonzeros of each block of M_n, offset to its rows and columns
    k, m = D_prev.shape[1], here.total
    parts = [(B.rows + r, B.cols + c, B.vals) for B, r, c in
             ((D_prev, 0, 0), (R_n, 0, k), (G, m, 0), (E, m, k))]
    M = exact.sparse((m + there.total, k + R_n.shape[1]), *map(np.concatenate, zip(*parts)))
    torsion = [d for d in exact.invariant_factors(M) if d > 1]
    free = int((here.moduli == 0).sum()) - cx.rank(n) - (cx.rank(n - 1) if n else 0)
    return free, torsion


def _over_moduli(basis, X, message):
    """The Sparse X with each nonzero divided by the modulus of its row in
    basis, for X whose columns lie in the span of its relations; ValueError
    with message if they do not (a nonzero on a free row or a remainder)."""
    d = basis.moduli[X.rows]
    if (d == 0).any() or (X.vals % d).any():
        raise ValueError(message)
    return exact.Sparse(X.shape, X.rows, X.cols, exact._packed(X.vals // d))


# -- module-level convenience API --------------------------------------

def complex_for(groupoid, S):
    """RealComplex for integral S; for rational S the representation
    complex of the constant fibre Q^(p+q) with involution diag(1_p, -1_q)."""
    if S.mode == "rational":
        from .proper import RepComplex
        return RepComplex(groupoid, S)
    return RealComplex(groupoid, S)


def cochain_group(groupoid, S, n):
    """The degree-n real cochain group; returns the LevelBasis, whose
    presentation is S^(#free orbits) + fixed(S)^(#fixed tuples)."""
    return complex_for(groupoid, S).basis(n)


def differential(groupoid, S, n):
    """d^n as an integer matrix, or for rational S a Fraction matrix."""
    D = complex_for(groupoid, S).differential_matrix(n)
    return exact.frac_divide(exact.to_dense(D.num), D.scale) if S.mode == "rational" else D


def cohomology(groupoid, S, n):
    return complex_for(groupoid, S).cohomology(n)


def invariant_sections(groupoid, S):
    """Sections s with s(rho x) = tau(s(x)) constant on orbits of the
    groupoid: solved directly on the full function space S^X, not via the
    orbit-reduced complex, so it is an independent route to HR^0."""
    if S.mode == "rational":
        raise ValueError("invariant_sections expects integral coefficients")
    G, I_k = groupoid, exact.eye(S.ngens)
    X, moved = exact.eye(G.n_objects), G.src != G.tgt
    # a k-row block per object x, c(rho x) - tau c(x), then one per arrow
    # s -> t with s != t, c(s) - c(t)
    C = np.concatenate([np.kron(X[G.rho_obj], I_k) - np.kron(X, S.tau),
                        np.kron(X[G.src[moved]] - X[G.tgt[moved]], I_k)])
    # one copy of S's relations per object, and per k-row block of C
    R_S = S.relations()
    blocks = exact.eye(G.n_objects + int(moved.sum()))
    return exact.lattice_mod_relations(C, np.kron(X, R_S), np.kron(blocks, R_S))
