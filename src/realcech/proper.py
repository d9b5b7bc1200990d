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
from fractions import Fraction

import numpy as np

from . import exact
from .cochains import Complex, Corestriction, OrbitBasis, face_sum, rule_table
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
    and v is fixed when E_x S v = v.  Its table (see `OrbitBasis`) is
    built on first use: the identity, act_g, nu_x and E_x once per
    distinct entries, cleared to integers, with act_keys[g] the key of
    act_g and last_keys[g] that of act_g^-1, which moves the value at the
    last face back to the anchor; objects with equal nu_x share one basis
    and one rule."""

    def __init__(self, rep):
        self.rep = rep
        self.k = rep.dim
        self.identity = exact.as_frac_matrix(exact.eye(rep.dim))
        self._keys = None

    def element(self, value):
        return [Fraction(v) for v in value]

    def keys(self, x):
        """The keys of nu_x and E_x and the rule index at the objects x; the
        last two are 0 at an object that rho moves."""
        if self._keys is None:
            self._tabulate()
        return self._keys[x].T

    def _tabulate(self):
        # shared[part]: the keys of E_x and of its rule, for nu_x of key part
        index, self.mats, rules, shared, keys = {}, [], [], {}, []

        def key(M):
            # by the shape and entries of M
            k = index.setdefault((M.shape, tuple(M.ravel().tolist())), len(index))
            if k == len(self.mats):
                self.mats.append(exact.cleared(M))
            return k

        key(self.identity)
        self.act_keys = np.array([key(A) for A in self.rep.action], dtype=np.int64)
        self.last_keys = self.act_keys[self.rep.groupoid.inv]
        eye = exact.eye(self.k)
        for x, nu in enumerate(self.rep.nu):
            part, fixed = key(nu), self.rep.groupoid.rho_obj[x] == x
            if fixed and part not in shared:
                # the rule: S, then C S - s I = 0, where C / s = E_x
                E = exact.frac_kernel(nu - self.identity)
                S = eye[[E.tolist().index(u) for u in eye[:E.shape[1], :E.shape[1]].tolist()]]
                e, w = key(E), E.shape[1]
                C, s = self.mats[e]
                rules.append(Corestriction(
                    np.concatenate([S, C @ S - s * eye]), [1] * w + [0] * self.k, w))
                shared[part] = e, len(rules)
            keys.append((part, *shared[part]) if fixed else (part, 0, 0))
        self._keys = np.array(keys, dtype=np.int64)
        self.rules, self.widths, self.divisors = rule_table(self.identity, rules)

    def embedding(self, x):
        """Columns spanning {v : nu_x v = v} for a rho-fixed object x."""
        _, e, _ = self.keys(x)
        return exact.frac_divide(*self.mats[e])

    def partner(self, x):
        return self.rep.nu[x]

    def corestriction(self, x):
        """The rule at a rho-fixed object x."""
        _, _, r = self.keys(x)
        return self.rules[r]


class RepLevelBasis(OrbitBasis):
    """Orbit basis of degree-n representation-valued real cochains;
    `known` is a nerve level to reuse, as in `nerve`."""

    def __init__(self, groupoid, fibre, n, known=None):
        OrbitBasis.__init__(self, nerve(groupoid, n, known), fibre)

    # bound on this class as well, so that bench/spans.py counts rational
    # corestriction apart from the integral kind
    corestrict = OrbitBasis.corestrict


class RationalCohomology(exact.GroupKey):
    """HR^n over Q: a plain dimension count (no torsion)."""

    def __init__(self, complex_, n):
        self.complex = complex_
        self.degree = n
        self.rank_kernel = complex_.basis(n).total - complex_.rank(n)
        self.rank_image = complex_.rank(n - 1) if n else 0
        self.free_rank = self.rank_kernel - self.rank_image
        self.invariant_factors = []

    def __str__(self):
        return " + ".join(["Q"] * self.free_rank) if self.free_rank else "0"


class RepComplex(Complex):
    """Cochain complex with coefficients in a rational representation."""

    Basis, Group = RepLevelBasis, RationalCohomology

    def __init__(self, groupoid, rep, cutoff=None):
        Complex.__init__(self, groupoid, RepFibre(rep))
        self.rep = rep
        self.cutoff = cutoff if cutoff is not None else canonical_cutoff(groupoid)
        self._homos = {}

    def differential_matrix(self, n):
        """d: C^n -> C^(n+1) as Scaled(num, scale), the matrix num / scale
        with num an `exact.Sparse` integer matrix: `coboundary`, read by
        this complex through this name, which bench/spans.py times."""
        return self.coboundary(n)

    def _rank(self, n):
        return exact.frac_rank(self.differential_matrix(n).num)

    def contraction_matrix(self, n):
        """h: C^(n+1) -> C^n as Scaled(num, scale), num an `exact.Sparse`
        integer matrix (requires the cutoff)."""
        if n not in self._homos:
            dst, src = self.basis(n), self.basis(n + 1)
            G, mats = self.groupoid, self.fibre.mats
            # one term per representative tup and arrow gamma into its
            # anchor, at the tuple (tup, gamma) of the level above
            rows, gammas = arrows_into(G, dst.anchors)
            longer = dst.level.extend(dst.reps[rows], gammas)
            sign = 1 if (n + 1) % 2 == 0 else -1
            # arrows with one action key and one cutoff share a factor
            cuts, cut_at = np.unique(np.array([Fraction(c) for c in self.cutoff], dtype=object),
                                     return_inverse=True)
            acts = self.fibre.act_keys[gammas]
            pairs, fkeys = distinct(acts * len(cuts) + cut_at[G.src[gammas]], len(mats) * len(cuts))
            factors = []
            for p in pairs.tolist():
                (A, a), c = mats[p // len(cuts)], cuts[p % len(cuts)]
                factors.append(exact.Scaled(sign * c.numerator * A, c.denominator * a))
            self._homos[n] = face_sum(dst, src, rows, longer, factors, fkeys)
        return self._homos[n]

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
