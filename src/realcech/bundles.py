"""Principal S-bundles over the object set with a commuting groupoid
action: the geometric side of first cohomology.

A bundle is stored in trivialized form X x S driven by a 1-cochain c:
the groupoid acts by g.(src g, t) = (tgt g, c(g) + t), the involution by
(x, t) -> (rho x, tau t).  The action is associative exactly when dc = 0.
Isomorphism testing runs two independent routes (coboundary test and
exhaustive equivariant-map search) which must agree.
"""

import itertools

from .cochains import RealComplex
from .extensions import cocycle_witness


class BundleError(ValueError):
    pass


class RealPrincipalBundle:
    """Trivialized bundle: total set {(x, s)} with left groupoid action
    driven by a real 1-cocycle."""

    def __init__(self, groupoid, S, cocycle):
        self.groupoid = groupoid
        self.S = S
        self.cx = cocycle.complex if hasattr(cocycle, "complex") \
            else RealComplex(groupoid, S)
        if not hasattr(cocycle, "vector"):
            cocycle = self.cx.cochain(1, cocycle)
        self.cocycle = cocycle

    def points(self):
        return [(x, s) for x in range(self.groupoid.n_objects)
                for s in self.S.elements()]

    def anchor(self, z):
        return z[0]

    def act(self, g, z):
        """g . z for z in the fiber over src(g)."""
        G = self.groupoid
        x, t = z
        if x != int(G.src[g]):
            raise BundleError("point is not in the source fiber")
        c = self.cocycle.value_at((g,))
        return (int(G.tgt[g]), self.S.add_tuples(c, t))

    def s_act(self, t, z):
        return (z[0], self.S.add_tuples(t, z[1]))

    def invol(self, z):
        return (int(self.groupoid.rho_obj[z[0]]), self.S.tau_tuple(z[1]))

    def verify(self):
        """The real action axioms, re-checked on the materialized tables."""
        G, S = self.groupoid, self.S
        bad = []
        for z in self.points():
            if self.anchor(self.invol(z)) != int(G.rho_obj[self.anchor(z)]):
                bad.append(f"anchor not equivariant at {z}")
        for g in range(G.n_arrows):
            for s in S.elements():
                z = (int(G.src[g]), s)
                gz = self.act(g, z)
                if self.anchor(gz) != int(G.tgt[g]):
                    bad.append(f"action breaks the anchor at {g}")
                # involution intertwines the actions
                if self.invol(gz) != self.act(int(G.rho_arr[g]), self.invol(z)):
                    bad.append(f"involution not action-equivariant at ({g},{s})")
                # S-action commutes with the groupoid action
                for t in S.elements():
                    if self.act(g, self.s_act(t, z)) != self.s_act(t, gz):
                        bad.append(f"S-action does not commute at ({g},{s},{t})")
        for x in range(G.n_objects):
            u = int(G.unit[x])
            for s in S.elements():
                if self.act(u, (x, s)) != (x, s):
                    bad.append(f"unit acts nontrivially at ({x},{s})")
        for g in range(G.n_arrows):
            for h in range(G.n_arrows):
                k = G.comp[g, h]
                if k < 0:
                    continue
                for s in S.elements():
                    z = (int(G.src[h]), s)
                    if self.act(g, self.act(h, z)) != self.act(int(k), z):
                        bad.append(f"action not associative at ({g},{h},{s})")
        return bad


def bundle_from_cocycle(groupoid, S, c):
    """Materialize the bundle of a real 1-cocycle; raises BundleError
    with a witness pair when dc != 0."""
    if not S.is_finite():
        raise BundleError("only finite coefficient groups can be materialized")
    cx = c.complex if hasattr(c, "complex") else RealComplex(groupoid, S)
    if not hasattr(c, "vector"):
        c = cx.cochain(1, c)
    if not cx.is_cocycle(c):
        raise BundleError(
            f"not a cocycle: action fails over pair {cocycle_witness(cx, c)}")
    return RealPrincipalBundle(groupoid, S, c)


def _aligned(z1, z2):
    if z1.groupoid is z2.groupoid and z1.S is z2.S:
        return z2.cocycle
    if not (z1.groupoid.structurally_equal(z2.groupoid)
            and z1.S.structurally_equal(z2.S)):
        raise BundleError("bundles must share base and coefficients")
    return z1.cx.cochain(1, z2.cocycle.vector)


def bundle_sum(z1, z2):
    """Contracted product; at cocycle level the cocycles add."""
    other = _aligned(z1, z2)
    return RealPrincipalBundle(z1.groupoid, z1.S, z1.cocycle + other)


def bundle_inverse(z):
    return RealPrincipalBundle(z.groupoid, z.S, -z.cocycle)


def bundles_isomorphic(z1, z2, cross_check=False):
    """(flag, witness) where the witness is the 0-cochain f defining the
    fiberwise shift phi(x, t) = (x, f(x) + t).

    The cohomological route tests whether c1 - c2 is a coboundary; with
    cross_check=True the exhaustive search over equivariant maps is also
    run and must agree."""
    other = _aligned(z1, z2)
    cx = z1.cx
    diff = z1.cocycle - other
    witness = cx.is_coboundary(diff)
    flag = witness is not None
    if cross_check:
        found = _search_isomorphism(z1, z2)
        if (found is not None) != flag:
            raise AssertionError(
                "cohomological and exhaustive isomorphism tests disagree")
    return flag, witness


def _search_isomorphism(z1, z2):
    """Exhaustive search for f: X -> S making (x,t) -> (x, f(x)+t) a
    bundle isomorphism z1 -> z2 (equivariant for S, the groupoid, and the
    involutions)."""
    G, S = z1.groupoid, z1.S
    elems = list(S.elements())
    for combo in itertools.product(elems, repeat=G.n_objects):
        f = list(combo)
        ok = True
        for x in range(G.n_objects):
            if f[int(G.rho_obj[x])] != S.tau_tuple(f[x]):
                ok = False
                break
        if not ok:
            continue
        for g in range(G.n_arrows):
            c1 = z1.cocycle.value_at((g,))
            c2 = z2.cocycle.value_at((g,))
            lhs = S.add_tuples(c2, f[int(G.src[g])])
            rhs = S.add_tuples(f[int(G.tgt[g])], c1)
            if lhs != rhs:
                ok = False
                break
        if ok:
            return f
    return None


def classify_bundles(groupoid, S):
    """One representative bundle per first-cohomology class."""
    cx = RealComplex(groupoid, S)
    h1 = cx.cohomology(1)
    out = []
    for coords in h1.all_classes():
        rep = h1.lift(coords)
        out.append((coords, RealPrincipalBundle(groupoid, S, rep)))
    return h1, out
