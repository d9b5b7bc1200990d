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
from .cochains import OrbitBasis, coboundary_matrix, face_sum
from .nerve import arrows_into, face, nerve  # noqa: F401 -- bench/spans.py patches face here


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
    eigenbasis of nu at its (rho-fixed) anchor object, the `frac_kernel`
    basis, which has a unit row at each free column: the coordinates of
    a fixed vector are its entries at those rows."""

    zeros = staticmethod(exact.frac_zeros)
    scalars = staticmethod(exact.frac_divide)

    def __init__(self, rep):
        self.rep = rep
        self.k = rep.dim
        self.identity = exact.as_frac_matrix(exact.eye(rep.dim))
        self._fixed_basis = {}

    def element(self, value):
        return [Fraction(v) for v in value]

    def embedding(self, x):
        """Columns spanning {v : nu_x v = v} for a rho-fixed object x."""
        return self._fixed(x)[0]

    def _fixed(self, x):
        # the basis, its integer multiple, and the row of its unit vector
        # for each column
        if x not in self._fixed_basis:
            E = exact.frac_kernel(self.rep.nu[x] - self.identity)
            units = [next(i for i, row in enumerate(E.tolist())
                          if row == [int(j == c) for j in range(E.shape[1])])
                     for c in range(E.shape[1])]
            self._fixed_basis[x] = E, exact.cleared(E), units
        return self._fixed_basis[x]

    def partner(self, x):
        return self.rep.nu[x]

    def fixed_coords(self, x, X):
        _, (E, scale), units = self._fixed(x)
        W = X[units]
        return W if (E @ W == scale * X).all() else None


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
        self._ranks = {}
        self._homos = {}

    def basis(self, n):
        if n not in self._bases:
            self._bases[n] = RepLevelBasis(self.fibre, n)
        return self._bases[n]

    def differential_matrix(self, n):
        if n not in self._diffs:
            # the last face is anchored at tgt(g_(n+1)); act^-1 moves it back
            self._diffs[n] = coboundary_matrix(
                self.basis(n), self.basis(n + 1), last_face=self.rep.act_inv)
        return self._diffs[n]

    def differential_rank(self, n):
        """Rank of d^n over Q, computed once per degree."""
        if n not in self._ranks:
            self._ranks[n] = exact.frac_rank(self.differential_matrix(n))
        return self._ranks[n]

    def contraction_matrix(self, n):
        """h: C^(n+1) -> C^n (requires the cutoff; exact rationals)."""
        if n not in self._homos:
            dst, src = self.basis(n), self.basis(n + 1)
            G = self.groupoid
            # one term per representative tup and arrow gamma into its anchor
            rows, gammas = arrows_into(G, dst.anchors)
            longer = gammas[:, None] if n == 0 else np.column_stack(
                [dst.level.entries[dst.reps[rows]], gammas])
            arrows, fkeys = np.unique(gammas, return_inverse=True)
            sign = 1 if (n + 1) % 2 == 0 else -1
            factors = [sign * self.cutoff[int(G.src[g])] * self.rep.act(g)
                       for g in arrows.tolist()]
            self._homos[n] = face_sum(dst, src, rows, src.level.find(longer),
                                      factors, fkeys)
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
        self.rank_kernel = complex_.basis(n).total - complex_.differential_rank(n)
        self.rank_image = complex_.differential_rank(n - 1) if n else 0
        self.free_rank = self.rank_kernel - self.rank_image
        self.invariant_factors = []

    def group_key(self):
        return (self.free_rank, ())

    def order(self):
        return 1 if self.free_rank == 0 else 0

    def __str__(self):
        return " + ".join(["Q"] * self.free_rank) if self.free_rank else "0"


# -- checks used by the acceptance suite --------------------------------

def homotopy_identity_matrices(complex_, n):
    """(h d + d h, expected multiple of identity) on degree n >= 1,
    computed with cleared denominators; in C-speed int64 arithmetic when a
    bound on every entry proves that nothing can overflow, else in Python
    ints."""
    (Dn, dn), (Dp, dp), (Hn, hn), (Hp, hp) = (exact.cleared(M) for M in (
        complex_.differential_matrix(n), complex_.differential_matrix(n - 1),
        complex_.contraction_matrix(n),        # C^(n+1) -> C^n
        complex_.contraction_matrix(n - 1)))   # C^n -> C^(n-1)
    # Hn @ Dn is hn*dn times h d and Dp @ Hp is dp*hp times d h; fn and fp
    # bring both to one multiple of h d + d h
    scale = math.lcm(hn * dn, dp * hp)
    fn, fp = scale // (hn * dn), scale // (dp * hp)
    tops = [np.abs(M).max(initial=0) for M in (Dn, Dp, Hn, Hp)]
    top_Dn, top_Dp, top_Hn, top_Hp = tops
    # |entry of f Hn @ Dn| <= f * inner dim * max|H| * max|D|, per product
    bound = (fn * Hn.shape[1] * top_Hn * top_Dn
             + fp * Dp.shape[1] * top_Dp * top_Hp)
    dtype = np.int64 if max(bound, scale, *tops) <= 1 << 62 else object
    Dn, Dp, Hn, Hp = (M.astype(dtype) for M in (Dn, Dp, Hn, Hp))
    lhs = fn * (Hn @ Dn) + fp * (Dp @ Hp)
    rhs = scale * np.eye(complex_.basis(n).total, dtype=np.int64).astype(dtype)
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
