"""Long exact sequences in real cohomology from short exact sequences of
coefficient groups.

The connecting homomorphism uses the involution-equivariant lift rule:
orbit representatives are lifted through the surjection, partner values
follow by the involution, and values at fixed tuples are lifted inside
the preimage of the fixed subgroup.  If that preimage misses the fixed
subgroup of the middle group, the obstruction is reported explicitly
rather than silently producing garbage.  Independence of the chosen lift
(up to coboundary) is enforced by test, not assumed.
"""

import numpy as np

from . import exact
from .cochains import RealComplex, assemble


class SequenceError(ValueError):
    pass


class CoefficientSES:
    """0 -> S' -i-> S -p-> S'' -> 0 with involution-equivariant maps.

    i and p are integer matrices on the chosen generators; validation
    checks equivariance, injectivity, surjectivity, and im i = ker p as
    subgroups."""

    def __init__(self, s_prime, s_mid, s_dprime, i, p):
        self.s_prime = s_prime
        self.s_mid = s_mid
        self.s_dprime = s_dprime
        self.i = exact.as_int_matrix(i)
        self.p = exact.as_int_matrix(p)
        if self.i.shape != (s_mid.ngens, s_prime.ngens):
            raise SequenceError("i has wrong shape")
        if self.p.shape != (s_dprime.ngens, s_mid.ngens):
            raise SequenceError("p has wrong shape")
        bad = self.validate()
        if bad:
            raise SequenceError("; ".join(bad))

    def validate(self):
        bad = []
        sp, sm, sd = self.s_prime, self.s_mid, self.s_dprime
        maps = ((self.i, sp, sm, "i"), (self.p, sm, sd, "p"))
        # maps must send relations into relations (well-defined group homs)
        for mat, src, dst, name in maps:
            img = mat @ src.relations()
            bad.extend(f"{name} is not well defined"
                       for j in range(img.shape[1]) if not dst.is_zero(img[:, j]))
        # equivariance
        for mat, src, dst, name in maps:
            diff = mat @ src.tau - dst.tau @ mat
            bad.extend(f"{name} is not involution-equivariant"
                       for j in range(diff.shape[1]) if not dst.is_zero(diff[:, j]))
        # exactness on finite groups by enumeration (all our uses are finite)
        if sp.is_finite() and sm.is_finite() and sd.is_finite():
            img_i = {sm.reduce_tuple(tuple(self.i @ np.array(e, dtype=object)))
                     for e in sp.elements()}
            if len(img_i) != sp.order():
                bad.append("i is not injective")
            ker_p = {e for e in sm.elements()
                     if sd.reduce_tuple(tuple(self.p @ np.array(e, dtype=object)))
                     == sd.zero_tuple()}
            if img_i != ker_p:
                bad.append("im i != ker p")
            img_p = {sd.reduce_tuple(tuple(self.p @ np.array(e, dtype=object)))
                     for e in sm.elements()}
            if len(img_p) != sd.order():
                bad.append("p is not surjective")
        return bad

    def apply_i(self, e):
        return self.s_mid.reduce_tuple(tuple(self.i @ np.array(e, dtype=object)))

    def apply_p(self, e):
        return self.s_dprime.reduce_tuple(tuple(self.p @ np.array(e, dtype=object)))


def induced_cochain_map(groupoid, s_a, s_b, f, n):
    """Matrix of the coefficient map f: S_a -> S_b on degree-n real
    cochain coordinates (orbit structure is identical on both sides)."""
    cxa = RealComplex(groupoid, s_a)
    cxb = RealComplex(groupoid, s_b)
    ba, bb = cxa.basis(n), cxb.basis(n)
    f = exact.as_int_matrix(f)
    # orbit o of ba maps to orbit o of bb by f @ (the value matrix of its kind)
    mats = [f @ ba.fibre.identity, f @ ba.fibre.embed]

    def error(message):
        raise SequenceError("map does not respect the fixed subgroups")

    orbits = np.arange(len(ba.reps))
    return (assemble(bb, ba.total, orbits, ba.offsets, mats, ba.fixed.astype(int), error),
            cxa, cxb)


def _solve_columns(A, relations, B, message):
    """X with A @ X = B modulo span(relations); SequenceError(message) if
    some column of B has no solution."""
    X = exact.IntSolver(A, relations).solve(B)
    if X is None:
        raise SequenceError(message)
    return X


class ConnectingMap:
    """The snake map HR^n(S'') -> HR^(n+1)(S') for one groupoid degree.

    Both orbit kinds are handled alike: at the representative of an orbit
    the stored coordinates map to the fibre value by the matrix of
    OrbitBasis.value_expression, which is the identity on a free orbit
    and the fixed-part embedding on a fixed one, and is the same for
    every orbit of a kind."""

    def __init__(self, ses, groupoid, n):
        self.ses = ses
        self.groupoid = groupoid
        self.n = n
        self.cx_mid = RealComplex(groupoid, ses.s_mid)
        self.cx_dp = RealComplex(groupoid, ses.s_dprime)
        self.cx_p = RealComplex(groupoid, ses.s_prime)
        self._build_lift()
        self._build_corestrict()

    def _build_lift(self):
        """Coordinate lift CR^n(S'') -> CR^n(S) through p, orbit-wise and
        involution-equivariantly: one block per orbit kind, solved when
        an orbit of that kind first needs it."""
        ses = self.ses
        bd = self.cx_dp.basis(self.n)
        bm = self.cx_mid.basis(self.n)
        messages = {"free": "p is not surjective on S''",
                    "fixed": "equivariant lift obstructed: fixed values of "
                             "S'' have no fixed preimage in S"}
        blocks = {}
        L = exact.zeros(bm.total, bd.total)
        for oid, o in enumerate(bd.orbits):
            if o.kind not in blocks:
                _, Md = bd.value_expression(o.rep)
                _, Mm = bm.value_expression(o.rep)
                blocks[o.kind] = _solve_columns(ses.p @ Mm, ses.s_dprime.relations(),
                                                Md, messages[o.kind])
            X = blocks[o.kind]
            off_m, off_d = bm.offsets[oid], bd.offsets[oid]
            L[off_m:off_m + X.shape[0], off_d:off_d + X.shape[1]] = X
        self.lift_matrix = L

    def _build_corestrict(self):
        """One solver per orbit kind for writing S-valued cochains with
        p-image zero as i-images in CR^(n+1)(S')."""
        ses = self.ses
        self._bm1 = self.cx_mid.basis(self.n + 1)
        self._bp1 = self.cx_p.basis(self.n + 1)
        R_m = ses.s_mid.relations()
        self._co = {
            "free": (exact.IntSolver(ses.i, R_m),
                     "snake value is not in the image of i"),
            "fixed": (exact.IntSolver(ses.i @ self._bp1.fibre.embed, R_m),
                      "snake value escapes the fixed part of S'")}

    def apply_to_vector(self, vec_dp):
        """The connecting value on a degree-n cocycle vector over S''."""
        lifted = self.lift_matrix @ np.array(list(vec_dp), dtype=object)
        z = self.cx_mid.differential_matrix(self.n) @ lifted
        return self.corestrict(z)

    def corestrict(self, z):
        """Write an S-valued cochain vector with zero p-image as the
        i-image of an S'-valued cochain vector."""
        bm1, bp1 = self._bm1, self._bp1
        out = exact.zeros(bp1.total, 1)[:, 0]
        for oid, o in enumerate(bm1.orbits):
            off_m, M = bm1.value_expression(o.rep)
            solver, message = self._co[o.kind]
            sol = solver.solve(M @ z[off_m:off_m + M.shape[1]])
            if sol is None:
                raise SequenceError(message)
            out[bp1.offsets[oid]:bp1.offsets[oid] + len(sol)] = sol
        return out

    def apply_to_class(self, h_dp, h_p1, coords):
        vec = h_dp.presentation.lift(coords)
        out = self.apply_to_vector(vec)
        return h_p1.presentation.class_coords(out)


def long_exact_sequence_check(ses, groupoid, through_degree=2):
    """Exactness of the 3*(d+1)-term sequence through the given degree,
    checked slot by slot by finite enumeration.  Returns a report dict;
    report['exact'] summarizes.  All cohomology groups must be finite."""
    maps_i = {}
    maps_p = {}
    H_p, H_m, H_d = {}, {}, {}
    for n in range(through_degree + 1):
        Fi, cxp, cxm = induced_cochain_map(groupoid, ses.s_prime, ses.s_mid,
                                           ses.i, n)
        Fp, _, cxd = induced_cochain_map(groupoid, ses.s_mid, ses.s_dprime,
                                         ses.p, n)
        maps_i[n] = Fi
        maps_p[n] = Fp
        H_p[n] = cxp.cohomology(n)
        H_m[n] = cxm.cohomology(n)
        H_d[n] = cxd.cohomology(n)
    conn = {n: ConnectingMap(ses, groupoid, n)
            for n in range(through_degree)}

    def pushed(h_from, h_to, mat, coords):
        vec = h_from.presentation.lift(coords)
        return h_to.presentation.class_coords(mat @ np.array(list(vec), dtype=object))

    report = {"slots": [], "exact": True}

    def check_slot(name, incoming, outgoing):
        img = set(incoming())
        ker = set(outgoing())
        ok = img == ker
        report["slots"].append({"slot": name, "exact": ok,
                                "image_size": len(img), "kernel_size": len(ker)})
        if not ok:
            report["exact"] = False

    # injectivity of the first map
    first_ker = [c for c in H_p[0].all_classes()
                 if all(v == 0 for v in pushed(H_p[0], H_m[0], maps_i[0], c))]
    ok0 = all(all(v == 0 for v in c) for c in first_ker)
    report["slots"].append({"slot": "HR^0(S') injective", "exact": ok0})
    if not ok0:
        report["exact"] = False

    for n in range(through_degree + 1):
        # slot HR^n(S): im i = ker p
        check_slot(
            f"HR^{n}(S)",
            lambda n=n: (pushed(H_p[n], H_m[n], maps_i[n], c)
                         for c in H_p[n].all_classes()),
            lambda n=n: (c for c in H_m[n].all_classes()
                         if all(v == 0 for v in
                                pushed(H_m[n], H_d[n], maps_p[n], c))))
        # slot HR^n(S''): im p = ker connecting
        if n < through_degree:
            check_slot(
                f"HR^{n}(S'')",
                lambda n=n: (pushed(H_m[n], H_d[n], maps_p[n], c)
                             for c in H_m[n].all_classes()),
                lambda n=n: (c for c in H_d[n].all_classes()
                             if all(v == 0 for v in
                                    conn[n].apply_to_class(H_d[n], H_p[n + 1], c))))
            # slot HR^(n+1)(S'): im connecting = ker i
            check_slot(
                f"HR^{n+1}(S')",
                lambda n=n: (conn[n].apply_to_class(H_d[n], H_p[n + 1], c)
                             for c in H_d[n].all_classes()),
                lambda n=n: (c for c in H_p[n + 1].all_classes()
                             if all(v == 0 for v in
                                    pushed(H_p[n + 1], H_m[n + 1],
                                           maps_i[n + 1], c))))
    report["groups"] = {
        "S_prime": [H_p[n].group_key() for n in range(through_degree + 1)],
        "S": [H_m[n].group_key() for n in range(through_degree + 1)],
        "S_dprime": [H_d[n].group_key() for n in range(through_degree + 1)],
    }
    return report
