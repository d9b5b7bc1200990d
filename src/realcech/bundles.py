"""Principal S-bundles over the object set with a commuting groupoid
action: the geometric side of first cohomology.

A bundle is stored in trivialized form X x S driven by a 1-cochain c:
the groupoid acts by g.(src g, t) = (tgt g, c(g) + t), the involution by
(x, t) -> (rho x, tau t).  The action is associative exactly when dc = 0.
Isomorphism testing runs two independent routes (coboundary test and
exhaustive equivariant-map search) which must agree.
"""

import itertools
from functools import cached_property

import numpy as np

from .cochains import RealComplex
from .extensions import as_cochain, cocycle_witness, element_index, group_tables


class BundleError(ValueError):
    pass


class RealPrincipalBundle:
    """Trivialized bundle: total set {(x, s)} with left groupoid action
    driven by a real 1-cocycle."""

    def __init__(self, groupoid, S, cocycle):
        self.groupoid = groupoid
        self.S = S
        self.cocycle = as_cochain(groupoid, S, 1, cocycle, BundleError)
        self.cx = self.cocycle.complex

    def points(self):
        return [(x, s) for x in range(self.groupoid.n_objects)
                for s in self.S.elements()]

    def anchor(self, z):
        return z[0]

    @cached_property
    def _values(self):
        # the cocycle at every arrow, read once: row g of level 1 is arrow g
        return self.cocycle.values()

    def act(self, g, z):
        """g . z for z in the fiber over src(g)."""
        G = self.groupoid
        x, t = z
        if x != int(G.src[g]):
            raise BundleError("point is not in the source fiber")
        c = tuple(self._values[g].tolist())
        return (int(G.tgt[g]), self.S.add_tuples(c, t))

    def s_act(self, t, z):
        return (z[0], self.S.add_tuples(t, z[1]))

    def invol(self, z):
        return (int(self.groupoid.rho_obj[z[0]]), self.S.tau_tuple(z[1]))

    def verify(self):
        """The real action axioms, re-checked on the materialized tables.
        A point (x, s) is numbered x * |S| + i for s element i of
        S.elements(); act[g, i] is g applied to (src g, s)."""
        G = self.groupoid
        ts, add, tau = group_tables(self.S)
        ns, s = len(ts), np.arange(len(ts))
        c = element_index(self.S, self._values)
        points = np.arange(G.n_objects * ns)
        invol = G.rho_obj[points // ns] * ns + tau[points % ns]
        s_act = points - points % ns + add[:, points % ns]
        act = G.tgt[:, None] * ns + add[c]
        g, x = np.arange(G.n_arrows)[:, None], np.arange(G.n_objects)[:, None]
        z = G.src[g] * ns + s
        at_arrow = np.concatenate([
            (act // ns != G.tgt[g])[..., None],
            (invol[act] != act[G.rho_arr[g], invol[z] % ns])[..., None],
            np.moveaxis(act[g, s_act[:, z] % ns] != s_act[:, act], 0, -1)],
            axis=-1)
        k = G.comp[:, :, None]
        checks = [
            ((invol // ns != G.rho_obj[points // ns]).reshape(-1, ns),
             lambda x, s: f"anchor not equivariant at {(x, ts[s])}"),
            (at_arrow, lambda g, s, j: (
                f"action breaks the anchor at {g}" if j == 0 else
                f"involution not action-equivariant at ({g},{ts[s]})" if j == 1
                else f"S-action does not commute at ({g},{ts[s]},{ts[j - 2]})")),
            (act[G.unit[x], s] != x * ns + s,
             lambda x, s: f"unit acts nontrivially at ({x},{ts[s]})"),
            ((k >= 0) & (act[g[..., None], act % ns] != act[k, s]),
             lambda g, h, s: f"action not associative at ({g},{h},{ts[s]})")]
        return [message(*w) for mask, message in checks
                for w in np.argwhere(mask).tolist()]


def bundle_from_cocycle(groupoid, S, c):
    """Materialize the bundle of a real 1-cocycle; raises BundleError
    with a witness pair when dc != 0."""
    if not S.is_finite():
        raise BundleError("only finite coefficient groups can be materialized")
    c = as_cochain(groupoid, S, 1, c, BundleError)
    cx = c.complex
    if not cx.is_cocycle(c):
        raise BundleError(
            f"not a cocycle: action fails over pair {cocycle_witness(cx, c)}")
    return RealPrincipalBundle(groupoid, S, c)


def bundle_sum(z1, z2):
    """Contracted product; at cocycle level the cocycles add."""
    other = as_cochain(z1.groupoid, z1.S, 1, z2.cocycle, BundleError, z1.cx)
    return RealPrincipalBundle(z1.groupoid, z1.S, z1.cocycle + other)


def bundle_inverse(z):
    return RealPrincipalBundle(z.groupoid, z.S, -z.cocycle)


def bundles_isomorphic(z1, z2, cross_check=False):
    """(flag, witness) where the witness is the 0-cochain f defining the
    fiberwise shift phi(x, t) = (x, f(x) + t).

    The cohomological route tests whether c1 - c2 is a coboundary; with
    cross_check=True the exhaustive search over equivariant maps is also
    run and must agree."""
    other = as_cochain(z1.groupoid, z1.S, 1, z2.cocycle, BundleError, z1.cx)
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
    # the value of each cocycle at every arrow, read once
    c1, c2 = (z.cocycle.values().tolist() for z in (z1, z2))
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
            lhs = S.add_tuples(c2[g], f[int(G.src[g])])
            rhs = S.add_tuples(f[int(G.tgt[g])], c1[g])
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
