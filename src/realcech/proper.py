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
theorem at matrix level.  d and h are `exact.Scaled` pairs (num, scale),
num an `exact.Sparse` integer matrix: from assembly on, through the
ranks, the products of the contraction identity and the coboundary
witnesses, only their nonzero entries are stored.  A coboundary witness
is h c, checked by d h c = c.
"""

import math
import weakref
from fractions import Fraction

import numpy as np

from . import exact
from .cochains import Corestriction, OrbitBasis, coboundary_matrix, face_sum
from .nerve import arrows_into, distinct, nerve
from .nerve import face  # noqa: F401 -- bench/spans.py patches face here


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
    eigenbasis E_x of nu at its (rho-fixed) anchor object, the
    `frac_kernel` basis, which has a unit row at each free column: the
    coordinates of a fixed vector v are its entries at those rows, S v,
    and v is fixed when E_x S v = v.  Its matrices (the identity, nu_x,
    E_x and act_g) are cleared to integers once per distinct matrix, by
    `scaled`, and objects with equal nu_x share one basis and one rule."""

    def __init__(self, rep):
        self.rep = rep
        self.k = rep.dim
        self.identity = exact.as_frac_matrix(exact.eye(rep.dim))
        self._fixed_basis = {}
        self._scaled = {}
        # by the entries of a matrix: the first matrix seen with them, and
        # the fixed basis of nu_x when nu_x has them
        self._alike = {}
        self._basis_alike = {}

    def element(self, value):
        return [Fraction(v) for v in value]

    def embedding(self, x):
        """Columns spanning {v : nu_x v = v} for a rho-fixed object x."""
        return self._fixed(x)[0]

    def corestriction(self, x):
        """The rule at a rho-fixed object x: S, then E' S - s I = 0."""
        return self._fixed(x)[1]

    def _fixed(self, x):
        if x not in self._fixed_basis:
            nu = self.rep.nu[x]
            hit = self._basis_alike.get(_entries(nu))
            if hit is None:
                E, eye = exact.frac_kernel(nu - self.identity), exact.eye(self.k)
                S = eye[[E.tolist().index(u) for u in eye[:E.shape[1], :E.shape[1]].tolist()]]
                (C, s), w = self.scaled(E), E.shape[1]
                hit = self._basis_alike[_entries(nu)] = E, Corestriction(
                    np.concatenate([S, C @ S - s * eye]), [1] * w + [0] * self.k, w)
            self._fixed_basis[x] = hit
        return self._fixed_basis[x]

    def partner(self, x):
        return self.rep.nu[x]

    def scaled(self, M):
        """`exact.cleared(M)` for one of the fibre's own matrices, computed
        once per distinct matrix and looked up by the matrix object (which
        is kept, so that its id stays its own)."""
        hit = self._scaled.get(id(M))
        if hit is None:
            alike = self._alike.setdefault(_entries(M), M)
            hit = self._scaled[id(M)] = M, \
                exact.cleared(M) if alike is M else self.scaled(alike)
        return hit[1]


def _entries(M):
    """A hashable key of the shape and entries of the matrix M."""
    return M.shape, tuple(M.ravel().tolist())


class RepLevelBasis(OrbitBasis):
    """Orbit basis of degree-n representation-valued real cochains;
    `known` is a nerve level to reuse, as in `nerve`."""

    def __init__(self, fibre, n, known=None):
        OrbitBasis.__init__(self, nerve(fibre.rep.groupoid, n, known), fibre)

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
        # held weakly: a group holds its complex, and a cycle would keep
        # every matrix of the complex alive until the cyclic collector ran
        self._groups = weakref.WeakValueDictionary()

    def basis(self, n):
        if n not in self._bases:
            # every level below the top one built so far is reused
            top = self._bases[max(self._bases)].level if self._bases else None
            self._bases[n] = RepLevelBasis(self.fibre, n, top)
        return self._bases[n]

    def differential_matrix(self, n):
        """d: C^n -> C^(n+1) as Scaled(num, scale), the matrix num / scale
        with num an `exact.Sparse` integer matrix."""
        if n not in self._diffs:
            # the last face is anchored at tgt(g_(n+1)); act^-1 moves it back
            self._diffs[n] = coboundary_matrix(
                self.basis(n), self.basis(n + 1), last_face=self.rep.act_inv)
        return self._diffs[n]

    def differential_rank(self, n):
        """Rank of d^n over Q (that of its integer numerator), computed
        once per degree."""
        if n not in self._ranks:
            self._ranks[n] = exact.frac_rank(self.differential_matrix(n).num)
        return self._ranks[n]

    def contraction_matrix(self, n):
        """h: C^(n+1) -> C^n as Scaled(num, scale), num an `exact.Sparse`
        integer matrix (requires the cutoff)."""
        if n not in self._homos:
            dst, src = self.basis(n), self.basis(n + 1)
            G = self.groupoid
            # one term per representative tup and arrow gamma into its
            # anchor, at the tuple (tup, gamma) of the level above
            rows, gammas = arrows_into(G, dst.anchors)
            longer = dst.level.extend(dst.reps[rows], gammas)
            arrows, which = distinct(gammas, G.n_arrows)
            sign = 1 if (n + 1) % 2 == 0 else -1
            # arrows with one cleared action matrix (one object, which the
            # fibre keeps) and one cutoff share a factor
            first, index, factors = {}, [], []
            for g in arrows.tolist():
                c = Fraction(self.cutoff[int(G.src[g])])
                A, a = act = self.fibre.scaled(self.rep.act(g))
                if (id(act), c) not in first:
                    first[id(act), c] = len(factors)
                    factors.append(exact.Scaled(sign * c.numerator * A, c.denominator * a))
                index.append(first[id(act), c])
            fkeys = np.array(index, dtype=np.int64)[which]
            self._homos[n] = face_sum(dst, src, rows, longer, factors, fkeys)
        return self._homos[n]

    def cohomology(self, n):
        """HR^n over Q, built once per degree while anything holds it."""
        group = self._groups.get(n)
        if group is None:
            group = self._groups[n] = RationalCohomology(self, n)
        return group

    def is_cocycle(self, n, vec):
        D = self.differential_matrix(n).num
        return not (D @ [Fraction(v) for v in vec]).any()

    def is_coboundary(self, n, vec):
        """A rational primitive b with db = vec, or None if vec is not a
        cocycle.  For n >= 1 it is b = h(vec), since d h c = c - h d c = c;
        ValueError if d b != vec, as for a cutoff without unit mass."""
        c = np.array([Fraction(v) for v in vec], dtype=object)
        if n == 0:
            return None if c.any() else c
        if not self.is_cocycle(n, c):
            return None
        (H, h), (D, d) = self.contraction_matrix(n - 1), self.differential_matrix(n - 1)
        b = exact.frac_divide(H @ c, h)
        if (D @ b != d * c).any():
            raise ValueError(f"h d + d h is not the identity in degree {n}: "
                             "h c is no primitive of the cocycle c")
        return b

    def from_values(self, n, value_fn):
        """Cochain vector from a fiber-valued function on nerve tuples."""
        return exact.frac_divide(*self.basis(n).from_values(value_fn))


class RationalCohomology(exact.GroupKey):
    """HR^n over Q: a plain dimension count (no torsion)."""

    def __init__(self, complex_, n):
        self.complex = complex_
        self.degree = n
        self.rank_kernel = complex_.basis(n).total - complex_.differential_rank(n)
        self.rank_image = complex_.differential_rank(n - 1) if n else 0
        self.free_rank = self.rank_kernel - self.rank_image
        self.invariant_factors = []

    def __str__(self):
        return " + ".join(["Q"] * self.free_rank) if self.free_rank else "0"


# -- checks used by the acceptance suite --------------------------------

def homotopy_identity_matrices(complex_, n):
    """(h d + d h, expected multiple of identity) on degree n >= 1, from
    the integer numerators of d and h, as `exact.Sparse` matrices: the
    products and their sum run on the nonzero entries, and the two are
    equal exactly when h d + d h is the identity."""
    Dn, dn = complex_.differential_matrix(n)
    Dp, dp = complex_.differential_matrix(n - 1)
    Hn, hn = complex_.contraction_matrix(n)        # C^(n+1) -> C^n
    Hp, hp = complex_.contraction_matrix(n - 1)    # C^n -> C^(n-1)
    # Hn @ Dn is hn*dn times h d and Dp @ Hp is dp*hp times d h; both
    # are brought to one multiple of h d + d h
    scale = math.lcm(hn * dn, dp * hp)
    lhs = exact.product(Hn, Dn) * (scale // (hn * dn)) + \
        exact.product(Dp, Hp) * (scale // (dp * hp))
    return lhs, exact.sparse_identity(complex_.basis(n).total, scale)


def contraction_is_homotopy(complex_, n):
    lhs, rhs = homotopy_identity_matrices(complex_, n)
    return lhs == rhs


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
