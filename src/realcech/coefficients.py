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

import re
from fractions import Fraction

import numpy as np

from . import exact


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
        if tau is None:
            tau = exact.eye(self.ngens)
        self.tau = exact.as_int_matrix(tau)
        if self.tau.shape != (self.ngens, self.ngens):
            raise ValueError("tau has wrong shape")
        self.name = name
        self._check_involution()

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
        if not self.is_finite():
            return 0
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def elements(self):
        """All elements of a finite group, lexicographically."""
        if not self.is_finite():
            raise ValueError("group is infinite")
        def rec(j):
            if j == len(self.invariant_factors):
                yield ()
                return
            for v in range(self.invariant_factors[j]):
                for rest in rec(j + 1):
                    yield (v,) + rest
        return rec(0)

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
            import math
            cols = []
            for j in range(K.shape[1]):
                denlcm = 1
                for v in K[:, j]:
                    denlcm = denlcm * v.denominator // math.gcd(denlcm, v.denominator)
                cols.append([int(v * denlcm) for v in K[:, j]])
            E = exact.as_int_matrix(np.array(cols, dtype=object).T) \
                if cols else exact.zeros(self.ngens, 0)
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
        """(fixed subgroup with trivial involution, inclusion matrix)."""
        return self._eigen_part(1)

    def imaginary_part(self):
        """(subgroup {s : tau(s) = -s} with trivial involution, inclusion)."""
        return self._eigen_part(-1)

    def default_kappa(self):
        """A canonical sigma-fixed element of order 2 (the image of -1),
        or None if the group has none."""
        if not self.is_finite():
            # Z summands have no 2-torsion
            if not self.invariant_factors:
                return None
        best = None
        if self.is_finite():
            for e in self.elements():
                if e == self.zero_tuple():
                    continue
                if self.add_tuples(e, e) == self.zero_tuple() and \
                        self.tau_tuple(e) == e:
                    if best is None or e < best:
                        best = e
            return best
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


def half_localized_decomposition(S):
    """Invert 2: returns (fixed part localized, imaginary part localized,
    split) where each localized group is (free_rank, odd invariant factors)
    and split(g) gives the exact decomposition 2g = (g + tau g) + (g - tau g)
    as a pair of (fixed, imaginary) elements of S.

    The check that S[1/2] agrees with the direct sum of the localized
    parts is done here; a mismatch raises AssertionError.
    """
    def localize(free_rank, factors):
        odd = []
        for d in factors:
            while d % 2 == 0:
                d //= 2
            if d > 1:
                odd.append(d)
        return (free_rank, tuple(sorted(odd)))

    fixed, _ = S.fixed_part()
    imag, _ = S.imaginary_part()
    loc_fixed = localize(fixed.free_rank, fixed.invariant_factors)
    loc_imag = localize(imag.free_rank, imag.invariant_factors)
    loc_total = localize(S.free_rank, S.invariant_factors)
    combined = (loc_fixed[0] + loc_imag[0],
                tuple(sorted(loc_fixed[1] + loc_imag[1])))

    def canon(key):
        # canonical form: multiset of prime powers (elementary divisors)
        rank, factors = key
        eds = []
        for d in factors:
            dd = d
            p = 3
            while dd > 1:
                while dd % p == 0:
                    e = 0
                    while dd % p == 0:
                        dd //= p
                        e += 1
                    eds.append(p ** e)
                p += 2
        return rank, tuple(sorted(eds))

    if canon(loc_total) != canon(combined):
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
    """

    def __init__(self, groupoid, p, q, action, nu):
        self.groupoid = groupoid
        self.p = int(p)
        self.q = int(q)
        self.dim = self.p + self.q
        self.action = [exact.as_frac_matrix(a) for a in action]
        self.nu = [exact.as_frac_matrix(v) for v in nu]
        if len(self.action) != groupoid.n_arrows:
            raise ValueError("one action matrix per arrow required")
        if len(self.nu) != groupoid.n_objects:
            raise ValueError("one involution matrix per object required")

    @classmethod
    def trivial(cls, groupoid, p, q):
        """Constant fibers Q^(p+q), trivial action, nu = diag(1_p, -1_q)."""
        dim = p + q
        ident = exact.as_frac_matrix(np.eye(dim, dtype=np.int64))
        nu0 = exact.frac_zeros(dim, dim)
        for i in range(dim):
            nu0[i, i] = Fraction(1 if i < p else -1)
        return cls(groupoid, p, q,
                   [ident] * groupoid.n_arrows, [nu0] * groupoid.n_objects)

    def act(self, g):
        return self.action[g]

    def act_inv(self, g):
        return self.action[self.groupoid.inv[g]]

    def validate(self):
        """Report violated representation axioms with witnesses."""
        G = self.groupoid
        bad = []
        for x in range(G.n_objects):
            u = G.unit[x]
            if not _is_identity(self.action[u]):
                bad.append(f"action of unit({x}) is not the identity")
        for g in range(G.n_arrows):
            gi = G.inv[g]
            if not _is_identity(self.action[g] @ self.action[gi]):
                bad.append(f"action of {g} is not invertible via inv({g})")
        for g in range(G.n_arrows):
            for h in range(G.n_arrows):
                k = G.comp[g, h]
                if k < 0:
                    continue
                lhs = self.action[g] @ self.action[h]
                if not _mat_eq(lhs, self.action[k]):
                    bad.append(f"functoriality fails at ({g},{h})")
        for x in range(G.n_objects):
            rx = int(G.rho_obj[x])
            if not _is_identity(self.nu[rx] @ self.nu[x]):
                bad.append(f"nu is not 2-periodic at object {x}")
            if rx == x:
                # signature of the fiberwise involution must be (p, q)
                tr = sum(self.nu[x][i, i] for i in range(self.dim))
                if tr != self.p - self.q:
                    bad.append(f"fiber type at fixed object {x} is not "
                               f"({self.p},{self.q})")
        for g in range(G.n_arrows):
            rg = int(G.rho_arr[g])
            lhs = self.nu[int(G.tgt[g])] @ self.action[g]
            rhs = self.action[rg] @ self.nu[int(G.src[g])]
            if not _mat_eq(lhs, rhs):
                bad.append(f"action is not Real at arrow {g}")
        return bad


def _mat_eq(A, B):
    A, B = np.asarray(A), np.asarray(B)
    return A.shape == B.shape and (A == B).all()


def _is_identity(M):
    M = np.asarray(M)
    n = M.shape[0]
    return all(M[i, j] == (1 if i == j else 0)
               for i in range(n) for j in range(n))
