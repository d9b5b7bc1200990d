"""Long exact sequences in real cohomology from short exact sequences of
coefficient groups.

The connecting homomorphism uses the involution-equivariant lift rule:
orbit representatives are lifted through the surjection, partner values
follow by the involution, and values at fixed tuples are lifted inside
the preimage of the fixed subgroup.  If that preimage misses the fixed
subgroup of the middle group, the obstruction is reported explicitly
rather than silently producing garbage.  Independence of the chosen lift
(up to coboundary) is enforced by test, not assumed.

Exactness, of the coefficient sequence and of the long sequence alike,
is one comparison of lattices, the image and the kernel in Z^b / span(R),
with no element or class enumerated: infinite groups are checked too.
"""

import numpy as np

from . import exact
from .cochains import RealComplex, assemble


class SequenceError(ValueError):
    pass


def exactness(A, R, B, R_next):
    """(im A == ker B, |im A|, |ker B|) in Z^b / span(R), for A mapping
    into that group and B mapping it to Z^c / span(R_next).  The orders
    are those of `AbelianGroupPresentation.order`: 0 if infinite."""
    image = exact.AbelianGroupPresentation(exact.lattice_basis(exact.block([[A, R]])), R)
    kernel = exact.lattice_mod_relations(B, R, R_next)
    # each lattice lies in the other: class_coords is None off the lattice
    same = (all(kernel.class_coords(v) is not None for v in image.basis.T)
            and all(image.class_coords(v) is not None for v in kernel.basis.T))
    return same, image.order(), kernel.order()


class CoefficientSES:
    """0 -> S' -i-> S -p-> S'' -> 0 with involution-equivariant maps i and
    p, integer matrices on the chosen generators.  Validation checks that
    they respect the relations and the involutions, then injectivity,
    im i = ker p and surjectivity as subgroups."""

    def __init__(self, s_prime, s_mid, s_dprime, i, p):
        self.s_prime, self.s_mid, self.s_dprime = s_prime, s_mid, s_dprime
        self.i, self.p = exact.as_int_matrix(i), exact.as_int_matrix(p)
        if self.i.shape != (s_mid.ngens, s_prime.ngens):
            raise SequenceError("i has wrong shape")
        if self.p.shape != (s_dprime.ngens, s_mid.ngens):
            raise SequenceError("p has wrong shape")
        bad = self.validate()
        if bad:
            raise SequenceError("; ".join(bad))

    def validate(self):
        sp, sm, sd = self.s_prime, self.s_mid, self.s_dprime
        maps = ((self.i, sp, sm, "i"), (self.p, sm, sd, "p"))
        # maps must send relations into relations (well-defined group homs)
        bad = [f"{name} is not well defined" for mat, src, dst, name in maps
               for col in (mat @ src.relations()).T if not dst.is_zero(col)]
        defined = not bad
        bad += [f"{name} is not involution-equivariant" for mat, src, dst, name in maps
                for col in (mat @ src.tau - dst.tau @ mat).T if not dst.is_zero(col)]
        # the subgroup comparisons need well-defined maps; a rational
        # sequence is a sequence of vector spaces, not of lattices
        if defined and all(S.mode == "integral" for S in (sp, sm, sd)):
            R_p, R_m, R_d = sp.relations(), sm.relations(), sd.relations()
            checks = (("i is not injective", exact.zeros(sp.ngens, 0), R_p, self.i, R_m),
                      ("im i != ker p", self.i, R_m, self.p, R_d),
                      ("p is not surjective", self.p, R_d,
                       exact.zeros(0, sd.ngens), exact.zeros(0, 0)))
            bad += [message for message, *args in checks if not exactness(*args)[0]]
        return bad


def induced_cochain_map(cx_a, cx_b, f, n):
    """The `exact.Sparse` matrix of the coefficient map f: S_a -> S_b on
    degree-n real cochain coordinates of two complexes over one groupoid
    (the orbit structure is identical on both sides)."""
    ba, bb = cx_a.basis(n), cx_b.basis(n)
    # orbit o of ba maps to orbit o of bb by f @ (the value matrix of its kind)
    mats = [exact.Scaled(exact.as_int_matrix(f) @ _values(ba, fixed), 1)
            for fixed in (False, True)]
    return assemble(
        bb, ba.total, np.arange(len(ba.reps)), ba.offsets, mats, ba.fixed.astype(int),
        lambda _: SequenceError("map does not respect the fixed subgroups")).num


def _values(basis, fixed):
    """The matrix from the stored coordinates of any orbit of a kind to the
    value at its representative: the identity, or the fixed-part embedding."""
    return basis.fibre.embed if fixed else basis.fibre.identity


def _blocks(offsets, width):
    """Row indices of the blocks of a width at the offsets, a row per block."""
    return offsets[:, None] + np.arange(width)


# by orbit kind (fixed or not): a failed lift through p, a failed corestriction
_LIFT_ERRORS = {False: "p is not surjective on S''",
                True: "equivariant lift obstructed: fixed values of "
                      "S'' have no fixed preimage in S"}
_CORESTRICT_ERRORS = {False: "snake value is not in the image of i",
                      True: "snake value escapes the fixed part of S'"}


class ConnectingMap:
    """The snake map HR^n(S'') -> HR^(n+1)(S') for one groupoid degree,
    on the complexes cx_p, cx_mid and cx_dp of S', S and S''.  Each orbit
    kind has one lift block through p and one corestriction solver
    through i, applied to all orbits of the kind at once; the lift is Sparse."""

    def __init__(self, ses, cx_p, cx_mid, cx_dp, n):
        self.ses, self.n = ses, n
        self.cx_p, self.cx_mid, self.cx_dp = cx_p, cx_mid, cx_dp
        # the coordinate lift CR^n(S'') -> CR^n(S) through p, equivariant:
        # assembled from the S-values of a lift block per orbit kind present
        # (an absent kind keeps an empty matrix, which no term reads)
        bd, bm = cx_dp.basis(n), cx_mid.basis(n)
        mats = [exact.Scaled(exact.zeros(0, 0), 1)] * 2
        for fixed in dict.fromkeys(bd.fixed.tolist()):  # the kinds present, in order
            X = exact.IntSolver(ses.p @ _values(bm, fixed),
                                ses.s_dprime.relations()).solve(_values(bd, fixed))
            if X is None:
                raise SequenceError(_LIFT_ERRORS[fixed])
            mats[fixed] = exact.Scaled(_values(bm, fixed) @ X, 1)
        self.lift_matrix = assemble(bm, bd.total, np.arange(len(bd.reps)), bd.offsets,
                                    mats, bd.fixed.astype(int)).num
        self._bm1, self._bp1 = cx_mid.basis(n + 1), cx_p.basis(n + 1)
        R_m = ses.s_mid.relations()
        self._solvers = {fixed: exact.IntSolver(ses.i @ _values(self._bp1, fixed), R_m)
                         for fixed in (False, True)}

    def apply_to_vector(self, vec_dp):
        """The connecting value on a degree-n cocycle vector over S'' (or
        on each column of a matrix of them)."""
        lifted = self.lift_matrix @ np.array(vec_dp, dtype=object)
        return self.corestrict(self.cx_mid.coboundary(self.n).num @ lifted)

    def corestrict(self, z):
        """Write an S-valued cochain vector (or each column of a matrix) with
        zero p-image as the i-image of an S'-valued one, a solve per kind."""
        bm1, bp1 = self._bm1, self._bp1
        Z = np.array(z, dtype=object)
        one = Z.ndim == 1
        Z = Z[:, None] if one else Z
        out = exact.zeros(bp1.total, Z.shape[1])
        for fixed in dict.fromkeys(bm1.fixed.tolist()):
            sel, M = bm1.fixed == fixed, _values(bm1, fixed)
            o, c = int(sel.sum()), Z.shape[1]
            # the values (orbit, row, column), solved as columns (row, orbit and column)
            values = (M @ Z[_blocks(bm1.offsets[sel], M.shape[1])]).transpose(1, 0, 2)
            sol = self._solvers[fixed].solve(values.reshape(len(M), o * c))
            if sol is None:
                raise SequenceError(_CORESTRICT_ERRORS[fixed])
            rows = _blocks(bp1.offsets[sel], len(sol))
            out[rows] = sol.reshape(len(sol), o, c).transpose(1, 0, 2)
        return out[:, 0] if one else out

    def apply_to_class(self, h_dp, h_p1, coords):
        return h_p1.presentation.class_coords(
            self.apply_to_vector(h_dp.presentation.lift(coords)))


def _class_data(h):
    """(generator columns, relation matrix) of a cohomology group on its
    class coordinates: Z^g / span(diag(orders)), an order 0 being free."""
    p = h.presentation
    return p.gens, np.diag(np.array(p.orders, dtype=object))


def _on_classes(image, h_to):
    """Class coordinates in h_to of the columns of image, as columns."""
    cols = [h_to.presentation.class_coords(v) for v in image.T]
    return np.array(cols, dtype=object).reshape(
        len(cols), h_to.free_rank + len(h_to.invariant_factors)).T


def long_exact_sequence_check(ses, groupoid, through_degree=2):
    """Exactness of HR^0(S') -> HR^0(S) -> HR^0(S'') -> HR^1(S') -> ... ->
    HR^d(S''), d = through_degree, at each term but the last (injectivity
    at the first), each slot one `exactness` on class coordinates.  Returns
    a report dict; report['exact'] summarizes."""
    d = through_degree
    cx_p, cx_m, cx_d = (RealComplex(groupoid, S) for S in (ses.s_prime, ses.s_mid, ses.s_dprime))
    F_i = [induced_cochain_map(cx_p, cx_m, ses.i, n) for n in range(d + 1)]
    F_p = [induced_cochain_map(cx_m, cx_d, ses.p, n) for n in range(d + 1)]
    H_p, H_m, H_d = ([cx.cohomology(n) for n in range(d + 1)] for cx in (cx_p, cx_m, cx_d))
    conn = [ConnectingMap(ses, cx_p, cx_m, cx_d, n) for n in range(d)]

    names, terms, maps = [], [], []
    for n in range(d + 1):
        names += [f"HR^{n}(S')", f"HR^{n}(S)", f"HR^{n}(S'')"]
        terms += [H_p[n], H_m[n], H_d[n]]
        maps += [F_i[n].__matmul__, F_p[n].__matmul__] + [c.apply_to_vector for c in conn[n:n + 1]]
    data = [_class_data(h) for h in terms]
    A = [_on_classes(f(G), h) for f, (G, _), h in zip(maps, data, terms[1:])]

    report = {"slots": [], "exact": True}
    for j, name in enumerate(names[:-1]):
        R = data[j][1]
        incoming = A[j - 1] if j else exact.zeros(len(R), 0)
        ok, img, ker = exactness(incoming, R, A[j], data[j + 1][1])
        slot = {"slot": name, "exact": ok, "image_size": img, "kernel_size": ker}
        report["slots"].append(slot if j else {"slot": f"{name} injective", "exact": ok})
        report["exact"] = report["exact"] and ok
    report["groups"] = {key: [h.group_key() for h in hs] for key, hs in (
        ("S_prime", H_p), ("S", H_m), ("S_dprime", H_d))}
    return report
