"""Graded central extensions of a finite groupoid with involution.

A graded twist is stored as a pair (omega, delta) on the base itself:
omega a normalized real 2-cocycle valued in a finite coefficient group S,
delta a real 1-cocycle valued in Z/2 constant on involution orbits.  The
extension groupoid materializes omega as arrows S x G with product
(t1,g1)(t2,g2) = (t1+t2+omega(g1,g2), g1 g2); extraction recovers omega
from any equivariant section via s(g1)s(g2) = omega(g1,g2) . s(g1 g2),
so extract(build(omega)) == omega on the nose.

Sign conventions (kappa is a designated involution-fixed element of
order 2, the image of -1):

  Baer sum           omega = omega1 + omega2 + kappa d2(g1) d1(g2)
  opposite           omega = -omega + kappa d(g1) d(g2)
  cup product        class of kappa d(g1) d'(g2)

The set-level tensor product of two extension groupoids (the contracted
product with the graded sign rule) is implemented independently and used
as the oracle for the cup formula and the Dixmier-Douady sum law.
"""

import numpy as np

from .cochains import RealComplex, complex_for
from .coefficients import make_standard
from .groupoids import FiniteRealGroupoid

Z2 = make_standard("Z2_trivial")


class TwistError(ValueError):
    pass


class GradedTwist:
    """(base, S, omega, delta) with omega normalized.  omega and delta are
    RealCochain values living in the base's cochain complexes."""

    def __init__(self, base, S, omega, delta=None, check=True):
        self.base = base
        self.S = S
        self.cx = omega.complex if hasattr(omega, "complex") else RealComplex(base, S)
        if not hasattr(omega, "vector"):
            omega = self.cx.cochain(2, omega)
        self.omega = omega
        self.zcx = RealComplex(base, Z2)
        if delta is None:
            delta = self.zcx.zero_cochain(1)
        elif not hasattr(delta, "vector"):
            delta = self.zcx.cochain(1, delta)
        self.delta = delta
        if check:
            if not self.cx.is_cocycle(self.omega):
                raise TwistError("omega is not a 2-cocycle")
            if not _is_normalized(base, self.omega):
                raise TwistError("omega is not normalized on unit pairs")
            if not self.zcx.is_cocycle(self.delta):
                raise TwistError("delta is not a 1-cocycle")

    def delta_value(self, g):
        return int(self.delta.value_at((g,))[0]) % 2

    def grading_is_zero(self):
        return all(self.delta_value(g) == 0 for g in range(self.base.n_arrows))


def _is_normalized(base, omega):
    for g in range(base.n_arrows):
        u_t = int(base.unit[base.tgt[g]])
        u_s = int(base.unit[base.src[g]])
        if any(v != 0 for v in omega.value_at((u_t, g))):
            return False
        if any(v != 0 for v in omega.value_at((g, u_s))):
            return False
    return True


def normalize_cocycle(cx, omega):
    """Subtract the canonical coboundary so unit pairs map to zero."""
    base = cx.groupoid
    b = cx.from_values(
        1, lambda t: omega.value_at((int(base.unit[base.tgt[t[0]]]), t[0])))
    return omega - cx.d(b)


class AbstractExtension:
    """A central extension given by explicit finite data: elements with a
    projection to base arrows, a partial product, a free transitive
    S-action on fibers, an involution, and the unit elements."""

    def __init__(self, base, S, elements, pi, mult, s_act, invol, units):
        self.base = base
        self.S = S
        self.elements = list(elements)
        self.pi = pi
        self.mult = mult
        self.s_act = s_act
        self.invol = invol
        self.units = units
        self._fibers = {}
        for z in self.elements:
            self._fibers.setdefault(pi[z], []).append(z)

    def fiber(self, g):
        return self._fibers[g]

    def torsor_difference(self, z, z0):
        """The unique t with t . z0 == z (same fiber)."""
        for t in self.S.elements():
            if self.s_act[(t, z0)] == z:
                return t
        raise AssertionError("fiber is not an S-torsor")

    def verify(self):
        """Groupoid-style sanity checks; list of violations."""
        bad = []
        G = self.base
        for z in self.elements:
            for w in self.elements:
                g, h = self.pi[z], self.pi[w]
                if G.src[g] == G.tgt[h]:
                    zw = self.mult[(z, w)]
                    if self.pi[zw] != G.comp[g, h]:
                        bad.append(f"projection not multiplicative at {z},{w}")
        for z in self.elements:
            for w in self.elements:
                for v in self.elements:
                    g, h, k = self.pi[z], self.pi[w], self.pi[v]
                    if G.src[g] == G.tgt[h] and G.src[h] == G.tgt[k]:
                        lhs = self.mult[(self.mult[(z, w)], v)]
                        rhs = self.mult[(z, self.mult[(w, v)])]
                        if lhs != rhs:
                            bad.append(f"associativity fails at {z},{w},{v}")
                            return bad
        for z in self.elements:
            if self.invol[self.invol[z]] != z:
                bad.append(f"involution not 2-periodic at {z}")
        for z in self.elements:
            for w in self.elements:
                g, h = self.pi[z], self.pi[w]
                if G.src[g] == G.tgt[h]:
                    lhs = self.invol[self.mult[(z, w)]]
                    rhs = self.mult[(self.invol[z], self.invol[w])]
                    if lhs != rhs:
                        bad.append(f"involution not multiplicative at {z},{w}")
        for t in self.S.elements():
            for z in self.elements:
                lhs = self.invol[self.s_act[(t, z)]]
                rhs = self.s_act[(self.S.tau_tuple(t), self.invol[z])]
                if lhs != rhs:
                    bad.append(f"involution not S-antiequivariant at {z}")
        return bad


class ExtensionGroupoid(AbstractExtension):
    """The extension groupoid of a normalized real 2-cocycle: arrows are
    pairs (t, g), product (t1,g1)(t2,g2) = (t1+t2+omega(g1,g2), g1 g2),
    involution (tau t, rho g)."""

    def __init__(self, twist_or_base, S=None, omega=None):
        if isinstance(twist_or_base, GradedTwist):
            tw = twist_or_base
            base, S, omega = tw.base, tw.S, tw.omega
        else:
            base = twist_or_base
        if not S.is_finite():
            raise TwistError("only finite coefficient groups can be materialized")
        self.omega = omega
        elems = [(e, g) for e in S.elements() for g in range(base.n_arrows)]
        pi = {(e, g): g for (e, g) in elems}
        mult = {}
        for (e, g) in elems:
            for (f, h) in elems:
                if base.src[g] == base.tgt[h]:
                    w = omega.value_at((g, h))
                    t = S.add_tuples(S.add_tuples(e, f), w)
                    mult[((e, g), (f, h))] = (t, int(base.comp[g, h]))
        s_act = {(t, (e, g)): (S.add_tuples(t, e), g)
                 for t in S.elements() for (e, g) in elems}
        invol = {(e, g): (S.tau_tuple(e), int(base.rho_arr[g])) for (e, g) in elems}
        units = {x: (S.zero_tuple(), int(base.unit[x]))
                 for x in range(base.n_objects)}
        super().__init__(base, S, elems, pi, mult, s_act, invol, units)

    def as_groupoid(self):
        """Materialize as a FiniteRealGroupoid (order |S| * |G|)."""
        base, S = self.base, self.S
        index = {z: i for i, z in enumerate(self.elements)}
        m = len(self.elements)
        src = [int(base.src[self.pi[z]]) for z in self.elements]
        tgt = [int(base.tgt[self.pi[z]]) for z in self.elements]
        unit = [index[self.units[x]] for x in range(base.n_objects)]
        inv = [0] * m
        for i, (e, g) in enumerate(self.elements):
            gi = int(base.inv[g])
            w = self.omega.value_at((g, gi))
            inv[i] = index[(S.neg_tuple(S.add_tuples(e, w)), gi)]
        table = np.full((m, m), -1, dtype=np.int64)
        for (z, w_), k in self.mult.items():
            table[index[z], index[w_]] = index[k]
        rho_arr = [index[self.invol[z]] for z in self.elements]
        return FiniteRealGroupoid(base.n_objects, src, tgt, unit, table, inv,
                                  base.rho_obj.copy(), rho_arr)


def build_extension(base, S, omega):
    """Materialize the extension of a normalized real 2-cocycle; raises
    TwistError with a witness triple when omega is not a cocycle."""
    cx = omega.complex if hasattr(omega, "complex") else RealComplex(base, S)
    if not hasattr(omega, "vector"):
        omega = cx.cochain(2, omega)
    if not cx.is_cocycle(omega):
        witness = cocycle_witness(cx, omega)
        raise TwistError(f"not a cocycle: associativity fails over {witness}")
    if not _is_normalized(base, omega):
        raise TwistError("omega is not normalized on unit pairs")
    return ExtensionGroupoid(base, S, omega)


def cocycle_witness(cx, c):
    """The first nerve tuple, in level order, at which dc is not zero;
    None when c is a cocycle."""
    dc = cx.d(c)
    lvl = cx.basis(c.degree + 1).level
    for i in range(len(lvl)):
        tup = lvl.tuple_at(i)
        if any(v != 0 for v in dc.value_at(tup)):
            return tup
    return None


def real_section(ext):
    """A section s of pi with s(rho g) = invol(s(g)) and s(unit) = unit.

    Raises TwistError when some involution-fixed arrow has no fixed point
    in its fiber (the explicit obstruction to a real section)."""
    base = ext.base
    section = {}
    for x in range(base.n_objects):
        section[int(base.unit[x])] = ext.units[x]
    for g in range(base.n_arrows):
        if g in section:
            continue
        rg = int(base.rho_arr[g])
        if rg == g:
            fixed = [z for z in ext.fiber(g) if ext.invol[z] == z]
            if not fixed:
                raise TwistError(
                    f"no real section: fiber over fixed arrow {g} has no "
                    f"involution-fixed point")
            section[g] = fixed[0]
        else:
            z = ext.fiber(g)[0]
            section[g] = z
            section[rg] = ext.invol[z]
    return section


def extract_cocycle(ext, section=None):
    """The 2-cocycle of an extension relative to a real section, via
    s(g1) s(g2) = omega(g1,g2) . s(g1 g2).  Different sections move the
    result by a coboundary."""
    base = ext.base
    if section is None:
        section = real_section(ext)
    cx = RealComplex(base, ext.S)

    def value(tup):
        g1, g2 = tup
        z = ext.mult[(section[g1], section[g2])]
        z0 = section[int(base.comp[g1, g2])]
        return ext.torsor_difference(z, z0)

    return cx.from_values(2, value)


# -- twist arithmetic ----------------------------------------------------

def _require_kappa(S, kappa, needed):
    if not needed:
        return S.zero_tuple()
    if kappa is None:
        kappa = S.default_kappa()
    if kappa is None:
        raise TwistError("no involution-fixed element of order 2 in S")
    kappa = S.reduce_tuple(kappa)
    if S.add_tuples(kappa, kappa) != S.zero_tuple() or \
            S.tau_tuple(kappa) != kappa:
        raise TwistError("kappa must be involution-fixed of order <= 2")
    return kappa


def _sign_correction(cx, d_first, d_second, kappa):
    """The 2-cochain (g1, g2) -> kappa * d_first(g1) * d_second(g2)."""
    S = cx.S

    def value(tup):
        g1, g2 = tup
        bit = (d_first(g1) * d_second(g2)) % 2
        return kappa if bit else S.zero_tuple()

    return cx.from_values(2, value)


def _aligned(t1, t2):
    """Rebase t2 into t1's complexes; twists built from equal data in
    separate sessions produce identical orbit bases, so the coordinate
    vectors carry over verbatim."""
    if t1.base is t2.base and t1.S is t2.S:
        return t2
    if not (t1.base.structurally_equal(t2.base)
            and t1.S.structurally_equal(t2.S)):
        raise TwistError("twists must share base and coefficients")
    return GradedTwist(t1.base, t1.S,
                       t1.cx.cochain(2, t2.omega.vector),
                       t1.zcx.cochain(1, t2.delta.vector), check=False)


def baer_sum(t1, t2, kappa=None):
    """Tensor product of graded twists at cocycle level."""
    t2 = _aligned(t1, t2)
    needed = any(t2.delta_value(g) and t1.delta_value(h)
                 for g in range(t1.base.n_arrows)
                 for h in range(t1.base.n_arrows))
    kap = _require_kappa(t1.S, kappa, needed)
    corr = _sign_correction(t1.cx, t2.delta_value, t1.delta_value, kap)
    omega = t1.omega + t2.omega + corr
    delta = t1.delta + t2.delta
    return GradedTwist(t1.base, t1.S, omega, delta)


def opposite(t, kappa=None):
    """Inverse twist: conjugate bundle structure and graded product."""
    needed = any(t.delta_value(g) for g in range(t.base.n_arrows))
    kap = _require_kappa(t.S, kappa, needed)
    corr = _sign_correction(t.cx, t.delta_value, t.delta_value, kap)
    return GradedTwist(t.base, t.S, -t.omega + corr, t.delta)


def trivial_twist(base, S):
    cx = RealComplex(base, S)
    return GradedTwist(base, S, cx.zero_cochain(2))


def is_strictly_trivial(t):
    """(flag, splitting) - true iff the grading vanishes identically and
    omega is a coboundary; the splitting section g -> (-b(g), g) is
    rebuilt from the coboundary witness."""
    if not t.grading_is_zero():
        return False, None
    b = t.cx.is_coboundary(t.omega)
    if b is None:
        return False, None
    section = {g: (t.S.neg_tuple(b.value_at((g,))), g)
               for g in range(t.base.n_arrows)}
    return True, section


def grading_cocycle(t):
    """The grading as a class in HR^1(base, Z/2); verifies the stored
    delta really is a multiplicative, involution-constant cocycle."""
    base = t.base
    for g in range(base.n_arrows):
        if t.delta_value(int(base.rho_arr[g])) != t.delta_value(g):
            raise TwistError("grading not constant on involution orbits")
    for g in range(base.n_arrows):
        for h in range(base.n_arrows):
            k = base.comp[g, h]
            if k >= 0 and t.delta_value(int(k)) != \
                    (t.delta_value(g) + t.delta_value(h)) % 2:
                raise TwistError("grading is not multiplicative")
    h1 = t.zcx.cohomology(1)
    return h1, h1.class_of(t.delta)


def cup(base, S, delta, delta_prime, kappa=None):
    """Cup product of two Z/2-valued 1-cocycles as a class in HR^2(S):
    the class of the 2-cocycle kappa * delta(g1) * delta'(g2)."""
    zcx = RealComplex(base, Z2)
    if not hasattr(delta, "vector"):
        delta = zcx.cochain(1, delta)
    if not hasattr(delta_prime, "vector"):
        delta_prime = zcx.cochain(1, delta_prime)
    for d in (delta, delta_prime):
        if not zcx.is_cocycle(d):
            raise TwistError("cup arguments must be 1-cocycles")
    kap = _require_kappa(S, kappa, True)
    cx = RealComplex(base, S)
    dv = lambda g: int(delta.value_at((g,))[0]) % 2
    dpv = lambda g: int(delta_prime.value_at((g,))[0]) % 2
    coc = _sign_correction(cx, dv, dpv, kap)
    h2 = cx.cohomology(2)
    return h2, h2.class_of(coc), coc


def dd_class(t):
    """The Dixmier-Douady pair: (class of delta in HR^1(Z/2), class of
    omega in HR^2(S)) with their cohomology groups."""
    h1 = t.zcx.cohomology(1)
    h2 = t.cx.cohomology(2)
    return (h1.class_of(t.delta), h2.class_of(t.omega), h1, h2)


def dd_sum_predicted(t1, t2, kappa=None):
    """The semidirect sum law (d+d', (d cup d') + w + w') evaluated on the
    classes of two twists; what dd_class(baer_sum(t1,t2)) must equal."""
    h1 = t1.zcx.cohomology(1)
    h2 = t1.cx.cohomology(2)
    delta_sum = t1.delta + t2.delta
    _, _, cup_coc = cup(t1.base, t1.S, t1.delta, t2.delta, kappa)
    omega_sum = cup_coc + t1.omega + t2.omega
    return (h1.class_of(delta_sum), h2.class_of(omega_sum))


def ext_classification_table(base, m=4):
    """Count graded extension classes of a base with trivial involution
    for mu(m)_conj coefficients (m even): |HR^1(Z/2)| x |HR^2(S)|; also
    checks HR^2(base, mu(m)_conj) = H^2(base, Z/2), the count of graded
    extensions by Z/2."""
    if not base.has_trivial_involution():
        raise TwistError("classification table requires a trivial involution")
    if m % 2:
        raise TwistError("mu(m) with odd m has no order-2 element")
    S = make_standard(f"mu({m})_conj")
    cx_z2 = complex_for(base, Z2)
    h1, h2_z2 = cx_z2.cohomology(1), cx_z2.cohomology(2)
    h2 = complex_for(base, S).cohomology(2)
    return {
        "h1_z2": h1.group_key(),
        "h2_s": h2.group_key(),
        "h2_matches_z2_count": h2.group_key() == h2_z2.group_key(),
        "classes": h1.order() * h2.order(),
    }


# -- set-level tensor product (the materialized oracle) ------------------

def tensor_extensions(e1, d1, e2, d2, kappa):
    """Contracted product of two extension groupoids with the graded sign
    rule: elements are classes of pairs (z1, z2) over the same base arrow
    modulo (z1, z2) ~ (t.z1, -t.z2); the product carries the sign
    kappa^(d2(g) d1(g')).  Entirely set-level; independent of any cocycle
    formula."""
    base, S = e1.base, e1.S

    def canon(z1, z2):
        best = None
        for t in S.elements():
            cand = (e1.s_act[(t, z1)], e2.s_act[(S.neg_tuple(t), z2)])
            if best is None or cand < best:
                best = cand
        return best

    elements = []
    seen = set()
    for g in range(base.n_arrows):
        for z1 in e1.fiber(g):
            for z2 in e2.fiber(g):
                c = canon(z1, z2)
                if c not in seen:
                    seen.add(c)
                    elements.append(c)
    pi = {c: e1.pi[c[0]] for c in elements}
    s_act = {}
    for t in S.elements():
        for c in elements:
            s_act[(t, c)] = canon(e1.s_act[(t, c[0])], c[1])
    invol = {c: canon(e1.invol[c[0]], e2.invol[c[1]]) for c in elements}
    units = {x: canon(e1.units[x], e2.units[x]) for x in range(base.n_objects)}
    mult = {}
    for c in elements:
        for cc in elements:
            g, h = pi[c], pi[cc]
            if base.src[g] != base.tgt[h]:
                continue
            prod = canon(e1.mult[(c[0], cc[0])], e2.mult[(c[1], cc[1])])
            bit = (d2(g) * d1(h)) % 2
            if bit:
                prod = canon(e1.s_act[(kappa, prod[0])], prod[1])
            mult[(c, cc)] = prod
    return AbstractExtension(base, S, elements, pi, mult, s_act, invol, units)
