"""Vanishing machinery for finite (hence proper) groupoids acting on
rational fibers.

Representation-valued cochains anchor their value at the source of the
last arrow of a tuple (at the object itself in degree 0), carry the
reality constraint f(rho(t)) = nu(f(t)), and use the differential

    (df)(g_1..g_{n+1}) = sum_{k<=n} (-1)^k f(face_k)
                         + (-1)^(n+1) act(g_{n+1})^{-1} f(g_1..g_n)

whose last-face transport is forced by d^2 = 0 together with agreement
with the constant-coefficient differential for trivial actions.  The
counting-measure cutoff c(x) = 1/|G^x| feeds the contraction

    (h f)(g_1..g_n) = (-1)^(n+1) sum_{gamma into anchor}
                      c(src gamma) * act(gamma) f(g_1..g_n, gamma)

and h d + d h = identity in every degree >= 1, which is the vanishing
theorem at matrix level.  All arithmetic is exact rational.
"""

import math
from fractions import Fraction

import numpy as np

from . import exact
from .cochains import OrbitBasis, assemble, coboundary_matrix, face_sum
from .nerve import face, nerve  # noqa: F401 -- bench/spans.py patches both names here


def canonical_cutoff(groupoid):
    """c(x) = 1 / #(arrows into x); satisfies c(rho x) = c(x) and the
    unit-mass condition sum_{g into x} c(src g) = 1 exactly."""
    G = groupoid
    counts = [len(G.arrows_into(x)) for x in range(G.n_objects)]
    return [Fraction(1, c) for c in counts]


def verify_cutoff(groupoid, cutoff):
    """Violations of the cutoff axioms (empty list = valid)."""
    G = groupoid
    bad = []
    for x in range(G.n_objects):
        if cutoff[x] <= 0:
            bad.append(f"c({x}) is not positive")
        if cutoff[int(G.rho_obj[x])] != cutoff[x]:
            bad.append(f"c not involution-symmetric at {x}")
        total = sum(cutoff[int(G.src[g])] for g in G.arrows_into(x))
        if total != 1:
            bad.append(f"unit mass fails at {x}: {total}")
    return bad


class RepFibre:
    """The rational fibre: the representation space Q^dim over each object.

    A free orbit stores the value at its representative; the partner
    value is nu of it.  A fixed orbit stores coordinates in the +1
    eigenbasis of nu at its (rho-fixed) anchor object."""

    zeros = staticmethod(exact.frac_zeros)

    def __init__(self, rep):
        self.rep = rep
        self.k = rep.dim
        self.identity = exact.as_frac_matrix(exact.eye(rep.dim))
        self._fixed_basis = {}

    def element(self, value):
        return [Fraction(v) for v in value]

    def embedding(self, x):
        """Columns spanning {v : nu_x v = v} for a rho-fixed object x."""
        if x not in self._fixed_basis:
            self._fixed_basis[x] = exact.frac_kernel(self.rep.nu[x] - self.identity)
        return self._fixed_basis[x]

    def partner(self, x):
        return self.rep.nu[x]

    def fixed_coords(self, x, vec):
        return exact.frac_solve(self.embedding(x), vec)


class RepLevelBasis(OrbitBasis):
    """Orbit basis of degree-n representation-valued real cochains."""

    def __init__(self, fibre, n):
        OrbitBasis.__init__(self, nerve(fibre.rep.groupoid, n), fibre)

    # bound on this class as well, so that bench/spans.py counts rational
    # corestriction apart from the integral kind
    corestrict = OrbitBasis.corestrict


class RepComplex:
    """Cochain complex with coefficients in a rational representation."""

    def __init__(self, groupoid, rep, cutoff=None):
        self.groupoid = groupoid
        self.rep = rep
        self.cutoff = cutoff if cutoff is not None else canonical_cutoff(groupoid)
        self.fibre = RepFibre(rep)
        self._bases = {}
        self._diffs = {}
        self._homos = {}

    def basis(self, n):
        if n not in self._bases:
            self._bases[n] = RepLevelBasis(self.fibre, n)
        return self._bases[n]

    def differential_matrix(self, n):
        if n not in self._diffs:
            # the last face is anchored at tgt(g_(n+1)); act^-1 moves it back
            self._diffs[n] = coboundary_matrix(
                self.basis(n), self.basis(n + 1),
                last_face=lambda tup: self.rep.act_inv(tup[-1]))
        return self._diffs[n]

    def contraction_matrix(self, n):
        """h: C^(n+1) -> C^n (requires the cutoff; exact rationals)."""
        if n in self._homos:
            return self._homos[n]
        src = self.basis(n + 1)
        G = self.groupoid
        sign = Fraction(1 if (n + 1) % 2 == 0 else -1)

        def blocks(tup, x):
            terms = []
            for gamma in G.arrows_into(x):
                gamma = int(gamma)
                longer = tuple(tup) + (gamma,) if n >= 1 else (gamma,)
                weight = self.cutoff[int(G.src[gamma])]
                terms.append((src.level.index_of(longer), sign * weight,
                              self.rep.act(gamma)))
            return face_sum(src, terms)

        self._homos[n] = assemble(self.basis(n), src.total, blocks)
        return self._homos[n]

    def cohomology(self, n):
        return RationalCohomology(self, n)

    def is_cocycle(self, n, vec):
        D = self.differential_matrix(n)
        out = D @ np.array([Fraction(v) for v in vec], dtype=object)
        return all(v == 0 for v in out)

    def is_coboundary(self, n, vec):
        """A rational primitive b with db = vec, or None.  For n >= 1 on a
        finite groupoid every cocycle has one (the contraction builds it:
        b = h(vec) when vec is a cocycle)."""
        if n == 0:
            v = np.array([Fraction(x) for x in vec], dtype=object)
            return v if all(x == 0 for x in v) else None
        D = self.differential_matrix(n - 1)
        return exact.frac_solve(D, [Fraction(v) for v in vec])

    def from_values(self, n, value_fn):
        """Cochain vector from a fiber-valued function on nerve tuples."""
        return self.basis(n).from_values(value_fn)


class RationalCohomology:
    """HR^n over Q: a plain dimension count (no torsion)."""

    def __init__(self, complex_, n):
        self.complex = complex_
        self.degree = n
        basis = complex_.basis(n)
        D_n = complex_.differential_matrix(n)
        self.rank_kernel = basis.total - exact.frac_rank(D_n)
        if n == 0:
            self.rank_image = 0
        else:
            self.rank_image = exact.frac_rank(complex_.differential_matrix(n - 1))
        self.free_rank = self.rank_kernel - self.rank_image
        self.invariant_factors = []

    def group_key(self):
        return (self.free_rank, ())

    def order(self):
        return 1 if self.free_rank == 0 else 0

    def __str__(self):
        return " + ".join(["Q"] * self.free_rank) if self.free_rank else "0"


# -- checks used by the acceptance suite --------------------------------

def _lcm_denominator(M):
    out = 1
    for v in M.flat:
        out = out * v.denominator // math.gcd(out, v.denominator)
    return out


def _scaled(M, scale):
    """M * scale as Python ints; the scale must clear every denominator."""
    A = np.empty(M.shape, dtype=object)
    for idx, v in np.ndenumerate(M):
        val = v * scale
        assert val.denominator == 1
        A[idx] = int(val)
    return A


def _max_abs(A):
    return max((abs(v) for v in A.flat), default=0)


def homotopy_identity_matrices(complex_, n):
    """(h d + d h, expected multiple of identity) on degree n >= 1,
    computed with cleared denominators; in C-speed int64 arithmetic when a
    bound on every entry proves that nothing can overflow, else in Python
    ints."""
    D_n = complex_.differential_matrix(n)
    D_prev = complex_.differential_matrix(n - 1)
    H_n = complex_.contraction_matrix(n)      # C^(n+1) -> C^n
    H_prev = complex_.contraction_matrix(n - 1)  # C^n -> C^(n-1)
    a = max(_lcm_denominator(D_n), _lcm_denominator(D_prev))
    b = max(_lcm_denominator(H_n), _lcm_denominator(H_prev))
    Dn = _scaled(D_n, a)
    Dp = _scaled(D_prev, a)
    Hn = _scaled(H_n, b)
    Hp = _scaled(H_prev, b)
    total = complex_.basis(n).total
    tops = [_max_abs(M) for M in (Dn, Dp, Hn, Hp)]
    top_Dn, top_Dp, top_Hn, top_Hp = tops
    # |entry of Hn @ Dn + Dp @ Hp| <= inner dim * max|H| * max|D|, per product
    bound = Hn.shape[1] * top_Hn * top_Dn + Dp.shape[1] * top_Dp * top_Hp
    dtype = np.int64 if max(bound, a * b, *tops) <= 1 << 62 else object
    Dn, Dp, Hn, Hp = (M.astype(dtype) for M in (Dn, Dp, Hn, Hp))
    lhs = Hn @ Dn + Dp @ Hp
    rhs = (a * b) * np.eye(total, dtype=np.int64).astype(dtype)
    return lhs, rhs


def contraction_is_homotopy(complex_, n):
    lhs, rhs = homotopy_identity_matrices(complex_, n)
    return bool((lhs == rhs).all())


def vanishing_check(groupoid, rep, n_max):
    """Report HR^n(groupoid, rep) for 1 <= n <= n_max; every degree must
    be zero for finite (proper) groupoids."""
    cx = RepComplex(groupoid, rep)
    report = []
    for n in range(1, n_max + 1):
        h = cx.cohomology(n)
        report.append({
            "degree": n,
            "rank_kernel": h.rank_kernel,
            "rank_image": h.rank_image,
            "free_rank": h.free_rank,
        })
    return report
