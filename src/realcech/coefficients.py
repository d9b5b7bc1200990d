"""Coefficient groups with involution.

A RealCoefficientGroup is a finitely generated abelian group in Smith
form (free rank + invariant factors) carrying an involutive automorphism
tau, or a rational vector space in rational mode.  Standard instances:

>>> S = make_standard("mu(4)_conj")
>>> S.free_rank, S.invariant_factors
(0, [4])
>>> fixed, _ = S.fixed_part()
>>> str(fixed.presentation())
'Z/2'

RealRepresentation packages a rational fiber per object, an invertible
action matrix per arrow, and fiberwise involution maps nu_x: E_x -> E_rho(x).
"""

import itertools
import math
import re

import numpy as np

from . import exact
from .groupoids import _failures


# The most generators (free rank plus invariant factors) a coefficient
# group may have.  tau and the matrices made from it are ngens x ngens
# object matrices, and the Smith forms of its fixed part are cubic in
# ngens, so the count is checked before any of them is allocated.
MAX_GENERATORS = 256


class RealCoefficientGroup:
    """Z^r + Z/d_1 + ... + Z/d_t with involution tau (integer matrix on
    the r + t generators), or Q^r in rational mode.

    Elements are integer coordinate vectors, torsion coordinates reduced
    mod their invariant factor.  Immutable; safe to share.
    """

    def __init__(self, free_rank, invariant_factors, tau=None,
                 mode="integral", name=None):
        self.free_rank = int(free_rank)
        self.invariant_factors = [int(d) for d in invariant_factors]
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.mode = mode
        if mode not in ("integral", "rational"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "rational" and self.invariant_factors:
            raise ValueError("rational mode admits no torsion")
        self.ngens = self.free_rank + len(self.invariant_factors)
        if self.ngens > MAX_GENERATORS:
            raise ValueError(f"too many generators ({self.ngens} > {MAX_GENERATORS})")
        if tau is None:
            tau = exact.eye(self.ngens)
        self.tau = exact.as_int_matrix(tau)
        if self.tau.shape != (self.ngens, self.ngens):
            raise ValueError("tau has wrong shape")
        self.name = name
        self._check_involution()
        self._fixed = None

    # relation lattice: d_j * e_{free_rank + j}
    def relations(self):
        R = exact.zeros(self.ngens, len(self.invariant_factors))
        for j, d in enumerate(self.invariant_factors):
            R[self.free_rank + j, j] = d
        return R

    def _check_involution(self):
        R = self.relations()
        # tau preserves the relation lattice
        img = self.tau @ R
        if not all(self.is_zero(img[:, j]) for j in range(img.shape[1])):
            raise ValueError("tau does not preserve the torsion relations")
        # tau^2 = identity modulo relations
        diff = self.tau @ self.tau - exact.eye(self.ngens)
        if not all(self.is_zero(diff[:, j]) for j in range(self.ngens)):
            raise ValueError("tau is not 2-periodic")

    # -- element helpers (tuples of python ints) ------------------------

    def zero_tuple(self):
        return (0,) * self.ngens

    def reduce_tuple(self, vec):
        out = list(int(v) for v in vec)
        for j, d in enumerate(self.invariant_factors):
            out[self.free_rank + j] %= d
        return tuple(out)

    def is_zero(self, vec):
        """Whether the integer vector lies in the relation lattice, which is
        diagonal: free coordinates vanish, torsion ones are divisible by
        their invariant factor."""
        return all(v == 0 for v in self.reduce_tuple(vec))

    def add_tuples(self, a, b):
        return self.reduce_tuple(tuple(x + y for x, y in zip(a, b)))

    def neg_tuple(self, a):
        return self.reduce_tuple(tuple(-x for x in a))

    def tau_tuple(self, a):
        return self.reduce_tuple(tuple(self.tau @ np.array(a, dtype=object)))

    def is_finite(self):
        return self.free_rank == 0 and self.mode == "integral"

    def order(self):
        return math.prod(self.invariant_factors) if self.is_finite() else 0

    def elements(self):
        """All elements of a finite group, lexicographically."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        return itertools.product(*map(range, self.invariant_factors))

    def element_index(self, values):
        """The position in elements() of every element given along the last
        axis of an integer array (finite groups)."""
        d = self.invariant_factors
        strides = np.array([math.prod(d[j + 1:]) for j in range(len(d))], dtype=np.int64)
        return (np.asarray(values, dtype=np.int64) % d) @ strides

    def tables(self):
        """The elements of a finite group as tuples, and as positions among
        them the sum table add[i, j] and the involution tau[i]."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        d = np.array(self.invariant_factors, dtype=object)
        # tau reduced mod d first, so that its products stay in int64
        T, tau = _grid(d), (self.tau % d[:, None]).astype(np.int64)
        return (list(map(tuple, T.tolist())), self.element_index(T[:, None] + T),
                self.element_index(T @ tau.T))

    def presentation(self):
        return exact.quotient(exact.eye(self.ngens), self.relations())

    # -- fixed and imaginary parts --------------------------------------

    def _eigen_part(self, sign):
        """Subgroup {s : tau(s) = sign*s} with its inclusion matrix."""
        I = exact.eye(self.ngens)
        C = self.tau - sign * I
        if self.mode == "rational":
            K = exact.frac_kernel(C)
            # clear denominators column-wise so the embedding is integral
            cols = [exact.cleared(K[:, [j]])[0] for j in range(K.shape[1])]
            E = (np.concatenate(cols, axis=1) if cols
                 else exact.zeros(self.ngens, 0))
            part_tau = exact.eye(E.shape[1]) * sign
            part = RealCoefficientGroup(E.shape[1], [], part_tau, mode="rational")
            return part, E
        R = self.relations()
        pres = exact.lattice_mod_relations(C, R, R)
        free, tors = pres.split_generators()
        cols = list(free) + [g for g, _ in tors]
        E = (np.stack(cols, axis=1) if cols else exact.zeros(self.ngens, 0))
        k2 = pres.free_rank + len(pres.invariant_factors)
        part = RealCoefficientGroup(
            pres.free_rank, [d for _, d in tors],
            exact.eye(k2) * sign, mode="integral")
        return part, E

    def fixed_part(self):
        """(fixed subgroup with trivial involution, read-only inclusion
        matrix), computed once per group."""
        if self._fixed is None:
            self._fixed = self._eigen_part(1)
            self._fixed[1].setflags(write=False)
        return self._fixed

    def imaginary_part(self):
        """(subgroup {s : tau(s) = -s} with trivial involution, inclusion)."""
        return self._eigen_part(-1)

    def default_kappa(self):
        """A canonical sigma-fixed element of order 2 (the image of -1),
        or None if the group has none.  In a finite group it is the first
        fixed one in elements() order, found by one mask over the elements
        of order <= 2, whose coordinates are all 0 or d/2, in Python ints."""
        if self.is_finite():
            d = np.array(self.invariant_factors, dtype=object)
            T = _grid(2 - d % 2) * (d // 2)   # Python ints, as tau's entries
            fixed = ((T @ self.tau.T - T) % d == 0).all(axis=1)
            hits = np.flatnonzero((T != 0).any(axis=1) & fixed)
            return tuple(T[hits[0]].tolist()) if hits.size else None
        for j, d in enumerate(self.invariant_factors):
            if d % 2 == 0:
                cand = [0] * self.ngens
                cand[self.free_rank + j] = d // 2
                cand = self.reduce_tuple(cand)
                if self.tau_tuple(cand) == cand:
                    return cand
        return None

    def group_key(self):
        return (self.free_rank, tuple(self.invariant_factors))

    def structurally_equal(self, other):
        return (self.mode == other.mode
                and self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors
                and (self.tau == other.tau).all())

    def __repr__(self):
        tag = self.name or f"rank {self.free_rank}, torsion {self.invariant_factors}"
        return f"RealCoefficientGroup({tag}, mode={self.mode})"


def _grid(dims):
    """Every index tuple of an array of shape dims, as the rows of an
    int64 array in lexicographic order."""
    return np.indices(dims, dtype=np.int64).reshape(len(dims), math.prod(dims)).T


_MU_RE = re.compile(r"^mu\((\d+)\)_(conj|trivial)$")
_Q_RE = re.compile(r"^Q\((\d+),(\d+)\)$")


def make_standard(name):
    """Named coefficient groups.

    Z2_trivial, Z_sign, mu(m)_conj, mu(m)_trivial, Q(p,q).  mu(m)_conj is
    Z/m with s -> -s, the finite stand-in for the circle with conjugation.
    """
    if name == "Z2_trivial":
        return RealCoefficientGroup(0, [2], name=name)
    if name == "Z_sign":
        return RealCoefficientGroup(1, [], [[-1]], name=name)
    if name == "Z_trivial":
        return RealCoefficientGroup(1, [], name=name)
    m = _MU_RE.match(name)
    if m:
        order, kind = int(m.group(1)), m.group(2)
        if order < 1:
            raise ValueError("mu(m) needs m >= 1")
        if order == 1:
            return RealCoefficientGroup(0, [], name=name)
        tau = [[-1]] if kind == "conj" else [[1]]
        return RealCoefficientGroup(0, [order], tau, name=name)
    q = _Q_RE.match(name)
    if q:
        p, negs = int(q.group(1)), int(q.group(2))
        tau = exact.eye(p + negs)
        for j in range(p, p + negs):
            tau[j, j] = -1
        return RealCoefficientGroup(p + negs, [], tau, mode="rational", name=name)
    raise ValueError(f"unknown coefficient preset {name!r}")


def canonical_key(key):
    """(rank, invariant factors > 1) of Z^rank + the sum of Z/d over the
    factors d of key = (rank, factors): two keys name isomorphic groups
    exactly when these agree."""
    rank, factors = key
    diagonal = np.diag(np.array(factors, dtype=object))
    return rank, tuple(d for d in exact.invariant_factors(diagonal) if d > 1)


def half_localized_decomposition(S):
    """Invert 2: returns (fixed part localized, imaginary part localized,
    split) where each localized group is (free_rank, odd invariant factors)
    and split(g) gives the exact decomposition 2g = (g + tau g) + (g - tau g)
    as a pair of (fixed, imaginary) elements of S.

    The check that S[1/2] agrees with the direct sum of the localized
    parts is done here; a mismatch raises AssertionError.
    """
    def localize(free_rank, factors):
        # 2 is a unit after inverting it: keep the odd part d / (d & -d)
        return canonical_key((free_rank, [d // (d & -d) for d in factors]))

    fixed, _ = S.fixed_part()
    imag, _ = S.imaginary_part()
    loc_fixed = localize(fixed.free_rank, fixed.invariant_factors)
    loc_imag = localize(imag.free_rank, imag.invariant_factors)
    loc_total = localize(S.free_rank, S.invariant_factors)
    combined = (loc_fixed[0] + loc_imag[0], loc_fixed[1] + loc_imag[1])

    if loc_total != canonical_key(combined):
        raise AssertionError(
            f"localization mismatch: {loc_total} vs fixed+imag {combined}")

    def split(g):
        g = S.reduce_tuple(g)
        tg = S.tau_tuple(g)
        fix = S.add_tuples(g, tg)
        im = S.add_tuples(g, S.neg_tuple(tg))
        assert S.tau_tuple(fix) == fix
        assert S.tau_tuple(im) == S.neg_tuple(im)
        return fix, im

    return loc_fixed, loc_imag, split


class RealRepresentation:
    """A rational representation of a finite groupoid with involution.

    Per object x: fiber Q^(p+q) and an involution matrix nu_x mapping
    E_x -> E_rho(x) with nu_rho(x) nu_x = 1; per arrow g an invertible
    matrix act_g: E_src(g) -> E_tgt(g); the compatibility
    nu_tgt(g) act_g = act_rho(g) nu_src(g) makes the action Real.

    `action` and `nu` are stacked Fraction arrays of shape
    (n_arrows, dim, dim) and (n_objects, dim, dim); the constructor
    refuses a matrix that is not dim x dim, naming its arrow or object.
    """

    def __init__(self, groupoid, p, q, action, nu):
        self.groupoid = groupoid
        self.p = int(p)
        self.q = int(q)
        self.dim = self.p + self.q
        self.action = _stacked(action, groupoid.n_arrows, self.dim, "action", "arrow")
        self.nu = _stacked(nu, groupoid.n_objects, self.dim, "involution", "object")

    @classmethod
    def trivial(cls, groupoid, p, q):
        """Constant fibers Q^(p+q), trivial action, nu = diag(1_p, -1_q)."""
        dim, nu = p + q, np.diag(np.array([1] * p + [-1] * q, dtype=object))
        return cls(groupoid, p, q, np.broadcast_to(exact.eye(dim), (groupoid.n_arrows, dim, dim)),
                   np.broadcast_to(nu, (groupoid.n_objects, dim, dim)))

    def act(self, g):
        return self.action[g]

    def act_inv(self, g):
        return self.action[self.groupoid.inv[g]]

    def validate(self):
        """Report violated representation axioms with witnesses: one mask
        per axiom, functoriality filled one arrow's composable pairs at a
        time so that no more than one row of products is held."""
        G, A, nu = self.groupoid, self.action, self.nu
        one = exact.eye(self.dim)

        def differs(X, Y):
            return (X != Y).any(axis=(-2, -1))

        functor = np.zeros(G.comp.shape, dtype=bool)
        for g, row in enumerate(G.comp):
            h = np.flatnonzero(row >= 0)
            functor[g, h] = differs(A[g] @ A[h], A[row[h]])
        fixed = G.rho_obj == np.arange(G.n_objects)
        return (_failures(("action of unit({0}) is not the identity", differs(A[G.unit], one)))
                + _failures(("action of {0} is not invertible via inv({0})",
                             differs(A @ A[G.inv], one)))
                + _failures(("functoriality fails at ({0},{1})", functor))
                + _failures(("nu is not 2-periodic at object {0}", differs(nu[G.rho_obj] @ nu, one)),
                            (f"fiber type at fixed object {{0}} is not ({self.p},{self.q})",
                             fixed & (np.trace(nu, axis1=1, axis2=2) != self.p - self.q)))
                + _failures(("action is not Real at arrow {0}",
                             differs(nu[G.tgt] @ A, A[G.rho_arr] @ nu[G.src]))))


def _stacked(mats, count, dim, what, owner):
    """count dim x dim matrices as one (count, dim, dim) Fraction array;
    ValueError for another count, or for a matrix of another shape or with
    ragged rows, naming its owner."""
    mats = [np.array(M, dtype=object) for M in mats]
    if len(mats) != count:
        raise ValueError(f"one {what} matrix per {owner} required")
    for i, M in enumerate(mats):
        # a 0 x 0 matrix may be written [] in JSON
        if M.shape != (dim, dim) and (dim or M.size):
            raise ValueError(f"{what} matrix of {owner} {i} is not {dim}x{dim}")
    # each shape is checked before the stack is allocated
    return exact.as_frac_matrix(np.array(mats, dtype=object).reshape(count, dim, dim))
