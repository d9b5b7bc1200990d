"""Graded central extensions of a finite groupoid with involution.

A graded twist is stored as a pair (omega, delta) on the base itself:
omega a normalized real 2-cocycle valued in a finite coefficient group S,
delta a real 1-cocycle valued in Z/2 constant on involution orbits.  The
extension groupoid materializes omega as arrows S x G with product
(t1,g1)(t2,g2) = (t1+t2+omega(g1,g2), g1 g2); extraction recovers omega
from any equivariant section via s(g1)s(g2) = omega(g1,g2) . s(g1 g2),
so extract(build(omega)) == omega on the nose.

Cochains are read as arrays, one evaluation per nerve level
(`LevelBasis.values`): the product table of the extension groupoid
reads omega once per composable pair, and the grading checks are masks
over the arrows and the composition table.  An extension's explicit data
(`AbstractExtension`: dicts of elements, product, S-action, involution
and units) is checked by materializing it as a FiniteRealGroupoid and
running its `validate`, plus two masks that `validate` does not cover.

Sign conventions (kappa is a designated involution-fixed element of
order 2, the image of -1):

  Baer sum           omega = omega1 + omega2 + kappa d2(g1) d1(g2)
  opposite           omega = -omega + kappa d(g1) d(g2)
  cup product        class of kappa d(g1) d'(g2)

The set-level tensor product of two extension groupoids (the contracted
product with the graded sign rule) is implemented independently and used
as the oracle for the cup formula and the Dixmier-Douady sum law.
"""

from functools import cached_property

import numpy as np

from .cochains import RealCochain, RealComplex, complex_for
from .coefficients import make_standard
from .groupoids import FiniteRealGroupoid, _failures, check_arrow_cap

Z2 = make_standard("Z2_trivial")


class TwistError(ValueError):
    pass


def as_cochain(base, S, n, value, error, cx=None):
    """value as a degree-n cochain of (base, S).  A cochain of these very
    objects is returned as it is; one of a structurally equal pair is
    rebased into cx (by default a new complex of (base, S)), as equal data
    give identical orbit bases; anything else that is a cochain raises
    error naming both pairs.  Any other value is a coordinate vector."""
    if isinstance(value, RealCochain):
        own = value.complex
        same = own.groupoid is base and own.S is S
        if not (same or own.groupoid.structurally_equal(base)
                and own.S.structurally_equal(S)):
            raise error(f"expected a cochain of {base!r} with {S!r}, got one "
                        f"of {own.groupoid!r} with {own.S!r}")
        if value.degree != n:
            raise error(f"expected a degree-{n} cochain, got degree {value.degree}")
        if same:
            return value
        value = value.vector
    return (cx or RealComplex(base, S)).cochain(n, value)


def _bits(delta):
    """A Z/2-valued 1-cochain as a 0/1 array over the arrows."""
    return delta.values()[:, 0].astype(np.int64)


class GradedTwist:
    """(base, S, omega, delta) with omega normalized.  omega and delta are
    RealCochain values living in the base's cochain complexes."""

    def __init__(self, base, S, omega, delta=None):
        self.base = base
        self.S = S
        self.omega = as_cochain(base, S, 2, omega, TwistError)
        self.cx = self.omega.complex
        if delta is None:
            delta = RealComplex(base, Z2).zero_cochain(1)
        self.delta = as_cochain(base, Z2, 1, delta, TwistError)
        self.zcx = self.delta.complex
        if not self.cx.is_cocycle(self.omega):
            raise TwistError("omega is not a 2-cocycle")
        if not _is_normalized(base, self.omega):
            raise TwistError("omega is not normalized on unit pairs")
        if not self.zcx.is_cocycle(self.delta):
            raise TwistError("delta is not a 1-cocycle")


def _unit_pairs(cx):
    """The positions in level 2 of (unit(tgt g), g) and of (g, unit(src g)),
    over the arrows g: the two degeneracies of level 1."""
    return cx.basis(2).level.lower.degeneracies


def _is_normalized(base, omega):
    return not (omega.values()[np.concatenate(_unit_pairs(omega.complex))] != 0).any()


def normalize_cocycle(cx, omega):
    """Subtract the canonical coboundary so unit pairs map to zero."""
    w = omega.values()[_unit_pairs(cx)[0]]
    return omega - cx.d(cx.from_values(1, lambda t: w[t[0]]))


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

    @cached_property
    def _numbering(self):
        """(position of each element, base arrow under each position)."""
        return ({z: i for i, z in enumerate(self.elements)},
                np.array([self.pi[z] for z in self.elements], dtype=np.int64))

    def as_groupoid(self):
        """Materialize as a FiniteRealGroupoid: arrow i is elements[i], and
        its inverse is the arrow whose product with it is the unit at its
        target."""
        base, (index, pi) = self.base, self._numbering
        table = np.full((len(pi), len(pi)), -1, dtype=np.int64)
        a, b, c = np.array([(index[z], index[w], index[v])
                            for (z, w), v in self.mult.items()],
                           dtype=np.int64).reshape(-1, 3).T
        table[a, b] = c
        unit = np.array([index[self.units[x]] for x in range(base.n_objects)],
                        dtype=np.int64)
        inv = np.argmax(table == unit[base.tgt[pi]][:, None], axis=1)
        rho = [index[self.invol[z]] for z in self.elements]
        return FiniteRealGroupoid(base.n_objects, base.src[pi], base.tgt[pi],
                                  unit, table, inv, base.rho_obj.copy(), rho)

    def verify(self, groupoid=None):
        """FiniteRealGroupoid.validate on as_groupoid(), or on `groupoid`
        if the caller built it already, then what it does not cover: pi is
        a functor onto the base, and the involution is S-antiequivariant;
        list of violations."""
        G = self.as_groupoid() if groupoid is None else groupoid
        S, (index, pi) = self.S, self._numbering
        defined = G.comp >= 0
        product = np.where(defined, G.comp, 0)
        ts, _, tau = S.tables()
        # act[i, z]: element i of S acting on element z
        act = np.array([[index[self.s_act[(t, z)]] for z in self.elements]
                        for t in ts], dtype=np.int64).reshape(len(ts), -1)
        return G.validate() + _failures(
            ("projection not multiplicative at ({0},{1})",
             defined & (pi[product] != self.base.comp[np.ix_(pi, pi)]))) + _failures(
            ("involution not S-antiequivariant at ({0},{1})",
             G.rho_arr[act] != act[tau][:, G.rho_arr]))


class ExtensionGroupoid(AbstractExtension):
    """The extension groupoid of a normalized real 2-cocycle: arrows are
    pairs (t, g), product (t1,g1)(t2,g2) = (t1+t2+omega(g1,g2), g1 g2),
    involution (tau t, rho g).  Raises ValueError past the arrow cap
    before any table is built."""

    def __init__(self, twist_or_base, S=None, omega=None):
        if isinstance(twist_or_base, GradedTwist):
            tw = twist_or_base
            base, S, omega = tw.base, tw.S, tw.omega
        else:
            base = twist_or_base
        if not S.is_finite():
            raise TwistError("only finite coefficient groups can be materialized")
        m = base.n_arrows
        check_arrow_cap(S.order() * m)
        self.omega = omega = as_cochain(base, S, 2, omega, TwistError)
        # (t, g) is elems[i * m + g] for t element i of S
        ts, add, tau = S.tables()
        elems = [(t, g) for t in ts for g in range(m)]
        # omega read once per composable pair (g, h), in level order, and
        # (t_i, g)(t_j, h) = (t_i + t_j + omega(g, h), g h) for all i, j
        g, h = omega.complex.basis(2).level.entries.T
        w = S.element_index(omega.values())
        i, j = np.arange(len(ts))[:, None, None], np.arange(len(ts))[:, None]
        left, right, out = (a.ravel().tolist() for a in np.broadcast_arrays(
            i * m + g, j * m + h, add[add[i, j], w] * m + base.comp[g, h]))
        mult = {(elems[a], elems[b]): elems[c] for a, b, c in zip(left, right, out)}
        z = np.arange(len(elems))
        moved = add[:, z // m] * m + z % m
        s_act = {(ts[a], elems[b]): elems[c] for (a, b), c in np.ndenumerate(moved)}
        invol = {elems[a]: elems[b] for a, b in
                 enumerate((tau[z // m] * m + base.rho_arr[z % m]).tolist())}
        units = {x: (S.zero_tuple(), int(base.unit[x]))
                 for x in range(base.n_objects)}
        pi = {(t, g): g for (t, g) in elems}
        super().__init__(base, S, elems, pi, mult, s_act, invol, units)


def build_extension(base, S, omega):
    """Materialize the extension of a normalized real 2-cocycle; raises
    TwistError with a witness triple when omega is not a cocycle."""
    omega = as_cochain(base, S, 2, omega, TwistError)
    cx = omega.complex
    if not cx.is_cocycle(omega):
        witness = cocycle_witness(cx, omega)
        raise TwistError(f"not a cocycle: associativity fails over {witness}")
    if not _is_normalized(base, omega):
        raise TwistError("omega is not normalized on unit pairs")
    return ExtensionGroupoid(base, S, omega)


def cocycle_witness(cx, c):
    """The first nerve tuple, in level order, at which dc is not zero;
    None when c is a cocycle."""
    bad = np.flatnonzero((cx.d(c).values() != 0).any(axis=1))
    return cx.basis(c.degree + 1).level.tuple_at(bad[0]) if bad.size else None


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


def _sign_correction(cx, first, second, kappa):
    """The 2-cochain (g1, g2) -> kappa * first[g1] * second[g2], for 0/1
    arrays over the arrows."""
    zero = cx.S.zero_tuple()
    return cx.from_values(2, lambda t: kappa if first[t[0]] & second[t[1]] else zero)


def baer_sum(t1, t2, kappa=None):
    """Tensor product of graded twists at cocycle level."""
    base, S = t1.base, t1.S
    omega2 = as_cochain(base, S, 2, t2.omega, TwistError, t1.cx)
    delta2 = as_cochain(base, Z2, 1, t2.delta, TwistError, t1.zcx)
    d1, d2 = _bits(t1.delta), _bits(delta2)
    kap = _require_kappa(S, kappa, d1.any() and d2.any())
    corr = _sign_correction(t1.cx, d2, d1, kap)
    return GradedTwist(base, S, t1.omega + omega2 + corr, t1.delta + delta2)


def opposite(t, kappa=None):
    """Inverse twist: conjugate bundle structure and graded product."""
    d = _bits(t.delta)
    kap = _require_kappa(t.S, kappa, d.any())
    corr = _sign_correction(t.cx, d, d, kap)
    return GradedTwist(t.base, t.S, -t.omega + corr, t.delta)


def trivial_twist(base, S):
    cx = RealComplex(base, S)
    return GradedTwist(base, S, cx.zero_cochain(2))


def is_strictly_trivial(t):
    """(flag, splitting) - true iff the grading vanishes identically and
    omega is a coboundary; the splitting section g -> (-b(g), g) is
    rebuilt from the coboundary witness."""
    if _bits(t.delta).any():
        return False, None
    b = t.cx.is_coboundary(t.omega)
    if b is None:
        return False, None
    return True, {g: (tuple(v), g) for g, v in enumerate((-b).values().tolist())}


def grading_cocycle(t):
    """The grading as a class in HR^1(base, Z/2); verifies the stored
    delta really is a multiplicative, involution-constant cocycle."""
    base, d = t.base, _bits(t.delta)
    if (d[base.rho_arr] != d).any():
        raise TwistError("grading not constant on involution orbits")
    defined = base.comp >= 0
    if (defined & (d[np.where(defined, base.comp, 0)] != d[:, None] ^ d)).any():
        raise TwistError("grading is not multiplicative")
    h1 = t.zcx.cohomology(1)
    return h1, h1.class_of(t.delta)


def cup(base, S, delta, delta_prime, kappa=None):
    """Cup product of two Z/2-valued 1-cocycles as a class in HR^2(S):
    the class of the 2-cocycle kappa * delta(g1) * delta'(g2)."""
    zcx = RealComplex(base, Z2)
    delta, delta_prime = (as_cochain(base, Z2, 1, d, TwistError, zcx)
                          for d in (delta, delta_prime))
    for d in (delta, delta_prime):
        if not d.complex.is_cocycle(d):
            raise TwistError("cup arguments must be 1-cocycles")
    kap = _require_kappa(S, kappa, True)
    cx = RealComplex(base, S)
    coc = _sign_correction(cx, _bits(delta), _bits(delta_prime), kap)
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
