"""Brute-force reference implementations, independent of the production
code paths: cohomology by full enumeration of real cochains, used to
derive and pin expected values for small cases, the scalar Smith normal
form and the dense int64 one that the sparse one in `exact` must match,
the loop assembler on a dict-of-tuples nerve that the array assembly in
`cochains` must match, the loop groupoid constructions and validation
that the array ones in `groupoids` must match, and the long exact
sequence checked by enumerating elements and classes, with a loop
connecting map, that the lattice checks of `les` must match, and the
element-at-a-time extension groupoid and extension and bundle checks
that the array ones in `extensions` and `bundles` must match, and the
presentation, canonical key and dense contraction identity that `exact`,
`coefficients` and `proper` replaced."""

import itertools
import math

import numpy as np

from realcech import exact
from realcech.cochains import RealComplex
from realcech.groupoids import FiniteRealGroupoid
from realcech.les import SequenceError, induced_cochain_map
from realcech.nerve import nerve


def real_cochains(groupoid, S, n):
    """Enumerate every real n-cochain as a dict tuple -> S element."""
    lvl = nerve(groupoid, n)
    reps = []
    fixed = []
    seen = set()
    for i in range(len(lvl)):
        if i in seen:
            continue
        j = int(lvl.rho_indices[i])
        if j == i:
            fixed.append(i)
            seen.add(i)
        else:
            reps.append(min(i, j))
            seen.update((i, j))
    elems = list(S.elements())
    fixed_elems = [e for e in elems if S.tau_tuple(e) == e]
    pools = [elems] * len(reps) + [fixed_elems] * len(fixed)
    for combo in itertools.product(*pools):
        c = {}
        for idx, i in enumerate(reps):
            tup = lvl.tuple_at(i)
            c[tup] = combo[idx]
            c[lvl.rho(tup)] = S.tau_tuple(combo[idx])
        for idx, i in enumerate(fixed):
            tup = lvl.tuple_at(i)
            c[tup] = combo[len(reps) + idx]
        yield c


def apply_d(groupoid, S, n, c):
    lvl = nerve(groupoid, n + 1)
    out = {}
    for i in range(len(lvl)):
        tup = lvl.tuple_at(i)
        val = S.zero_tuple()
        for k in range(n + 2):
            f = face(groupoid, n + 1, k, tup)
            term = c[f]
            if k % 2:
                term = S.neg_tuple(term)
            val = S.add_tuples(val, term)
        out[tup] = val
    return out


def _is_zero(groupoid, S, n, c):
    return all(v == S.zero_tuple() for v in c.values())


def brute_cohomology_orders(groupoid, S, n):
    """Multiset of element orders of HR^n, via full enumeration.  Only
    feasible for very small cochain spaces."""
    cocycles = [c for c in real_cochains(groupoid, S, n)
                if _is_zero(groupoid, S, n + 1, apply_d(groupoid, S, n, c))]
    if n == 0:
        coboundaries = [{tup: S.zero_tuple() for tup in cocycles[0]}] \
            if cocycles else []
    else:
        seen = set()
        coboundaries = []
        for b in real_cochains(groupoid, S, n - 1):
            db = apply_d(groupoid, S, n - 1, b)
            key = tuple(sorted(db.items()))
            if key not in seen:
                seen.add(key)
                coboundaries.append(db)
    cob_keys = {tuple(sorted(c.items())) for c in coboundaries}

    def add(c1, c2):
        return {t: S.add_tuples(v, c2[t]) for t, v in c1.items()}

    def is_cob(c):
        return tuple(sorted(c.items())) in cob_keys

    # group the cocycles into classes and read off element orders
    orders = []
    classified = set()
    classes = []
    for z in cocycles:
        key = tuple(sorted(z.items()))
        if key in classified:
            continue
        rep = z
        members = []
        for b in coboundaries:
            m = add(rep, b)
            members.append(tuple(sorted(m.items())))
        classified.update(members)
        classes.append(rep)
    for rep in classes:
        acc = rep
        order = 1
        while not is_cob(acc):
            acc = add(acc, rep)
            order += 1
        orders.append(order)
    return sorted(orders)


def orders_of_presentation(group_key):
    """Element-order multiset of one representative per class of the
    group with the given (free_rank, invariant_factors); finite only."""
    rank, factors = group_key
    assert rank == 0
    import math
    orders = []
    def rec(i, acc):
        if i == len(factors):
            orders.append(acc)
            return
        for v in range(factors[i]):
            d = factors[i] // math.gcd(v, factors[i]) if v else 1
            rec(i + 1, acc * d // math.gcd(acc, d))
    rec(0, 1)
    return sorted(orders)


# -- dense scalar Smith normal form ------------------------------------

def _eye(n):
    return np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                    dtype=object) if n else np.zeros((0, 0), dtype=object)


def _xgcd(a, b):
    # returns (g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smith_normal_form(mat, need_u=True, need_v=True, need_inverses=False):
    """The scalar Smith normal form that `exact.smith_normal_form` must
    reproduce entry for entry: (U, D, V) with U @ mat @ V == D.

    D is diagonal with a divisibility chain d_1 | d_2 | ... and d_i >= 0.
    With need_inverses, returns (U, D, V, Uinv, Vinv) instead.
    Pivoting picks the minimal nonzero absolute value to limit swell.
    """
    D = exact.as_int_matrix(mat).copy()
    m, n = D.shape
    U = _eye(m) if (need_u or need_inverses) else None
    V = _eye(n) if (need_v or need_inverses) else None
    Uinv = _eye(m) if need_inverses else None
    Vinv = _eye(n) if need_inverses else None

    def row_op(i, j, q):
        # row_i -= q * row_j
        D[i, :] -= q * D[j, :]
        if U is not None:
            U[i, :] -= q * U[j, :]
        if Uinv is not None:
            Uinv[:, j] += q * Uinv[:, i]

    def col_op(i, j, q):
        D[:, i] -= q * D[:, j]
        if V is not None:
            V[:, i] -= q * V[:, j]
        if Vinv is not None:
            Vinv[j, :] += q * Vinv[i, :]

    def swap_rows(i, j):
        if i == j:
            return
        D[[i, j], :] = D[[j, i], :]
        if U is not None:
            U[[i, j], :] = U[[j, i], :]
        if Uinv is not None:
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def swap_cols(i, j):
        if i == j:
            return
        D[:, [i, j]] = D[:, [j, i]]
        if V is not None:
            V[:, [i, j]] = V[:, [j, i]]
        if Vinv is not None:
            Vinv[[i, j], :] = Vinv[[j, i], :]

    def negate_row(i):
        D[i, :] = -D[i, :]
        if U is not None:
            U[i, :] = -U[i, :]
        if Uinv is not None:
            Uinv[:, i] = -Uinv[:, i]

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate minimal-absolute-value nonzero pivot in D[t:, t:]
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i, j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            # clear column t
            for i in range(t + 1, m):
                if D[i, t] == 0:
                    continue
                if D[i, t] % D[t, t] == 0:
                    row_op(i, t, D[i, t] // D[t, t])
                else:
                    g, x, y = _xgcd(D[t, t], D[i, t])
                    a, b = D[t, t] // g, D[i, t] // g
                    # rows (t, i) <- ((x*t + y*i), (-b*t + a*i)); det = 1
                    rt = x * D[t, :] + y * D[i, :]
                    ri = -b * D[t, :] + a * D[i, :]
                    D[t, :], D[i, :] = rt, ri
                    if U is not None:
                        ut = x * U[t, :] + y * U[i, :]
                        ui = -b * U[t, :] + a * U[i, :]
                        U[t, :], U[i, :] = ut, ui
                    if Uinv is not None:
                        # inverse of [[x, y], [-b, a]] is [[a, -y], [b, x]]
                        ct = a * Uinv[:, t] + b * Uinv[:, i]
                        ci = -y * Uinv[:, t] + x * Uinv[:, i]
                        Uinv[:, t], Uinv[:, i] = ct, ci
            if any(D[i, t] != 0 for i in range(t + 1, m)):
                continue
            # clear row t
            for j in range(t + 1, n):
                if D[t, j] == 0:
                    continue
                if D[t, j] % D[t, t] == 0:
                    col_op(j, t, D[t, j] // D[t, t])
                else:
                    g, x, y = _xgcd(D[t, t], D[t, j])
                    a, b = D[t, t] // g, D[t, j] // g
                    ct = x * D[:, t] + y * D[:, j]
                    cj = -b * D[:, t] + a * D[:, j]
                    D[:, t], D[:, j] = ct, cj
                    if V is not None:
                        vt = x * V[:, t] + y * V[:, j]
                        vj = -b * V[:, t] + a * V[:, j]
                        V[:, t], V[:, j] = vt, vj
                    if Vinv is not None:
                        rt = a * Vinv[t, :] + b * Vinv[j, :]
                        rj = -y * Vinv[t, :] + x * Vinv[j, :]
                        Vinv[t, :], Vinv[j, :] = rt, rj
            if all(D[i, t] == 0 for i in range(t + 1, m)):
                if all(D[t, j] == 0 for j in range(t + 1, n)):
                    break
        if D[t, t] < 0:
            negate_row(t)
        # enforce divisibility: D[t,t] must divide everything below-right
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i, j] % D[t, t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into row t and redo this pivot
            D[t, :] += D[bad, :]
            if U is not None:
                U[t, :] += U[bad, :]
            if Uinv is not None:
                Uinv[:, bad] -= Uinv[:, t]
            continue
        t += 1

    if need_inverses:
        return U, D, V, Uinv, Vinv
    return (U if need_u else None), D, (V if need_v else None)


# -- the dense int64 Smith normal form ---------------------------------------
#
# The scalar loop's operations on an int64 working copy of D, vectorised
# with numpy: the second reference, fast enough for the matrices on which
# the scalar loop above is too slow.

def _dense_pivot(D, t):
    """(i, j) of the first entry of least nonzero |value| in D[t:, t:] in
    row-major order, or None if that block is zero."""
    A = D[t:, t:]
    rows, cols = np.nonzero(A)
    if not rows.size:
        return None
    k = np.argmin(np.abs(A[rows, cols]))
    return t + rows[k], t + cols[k]


def _dense_indivisible_row(D, t):
    """The first row below t holding an entry of D[t+1:, t+1:] that the
    pivot D[t, t] does not divide, or None."""
    p = D[t, t]
    if p == 1:
        return None
    B = D[t + 1:, t + 1:]
    rows, cols = np.nonzero(B)
    bad = (B[rows, cols] % p).nonzero()[0]
    return t + 1 + rows[bad[0]] if bad.size else None


def _dense_swap(X, t, i, T, Tinv):
    """Swap rows t and i of X (active columns t: only) and of T, and
    columns t and i of Tinv."""
    if i == t:
        return
    X[[t, i], t:] = X[[i, t], t:]
    if T is not None:
        T[[t, i], :] = T[[i, t], :]
    if Tinv is not None:
        Tinv[:, [t, i]] = Tinv[:, [i, t]]


def _dense_clear_below(X, t, T, Tinv):
    """Zero X[t+1:, t] by row operations against row t; return X, which
    is a copy promoted to Python ints if an update could leave int64.

    The rows are visited top to bottom, as a scalar loop would.  A row
    whose entry the current pivot divides gets row_i -= q * row_t; such
    operations commute until the pivot row changes, so each run of them
    is one outer-product update.  Any other row takes a 2x2 gcd step with
    row t, which makes the pivot their gcd.  T follows the row operations
    and Tinv the inverse column operations.  Columns left of t are zero
    in rows t and below, so only the active columns t: are touched.
    """
    start = t + 1
    while True:
        idx = start + X[start:, t].nonzero()[0]
        if not idx.size:
            return X
        bad = (X[idx, t] % X[t, t]).nonzero()[0]
        stop = bad[0] if bad.size else idx.size
        if stop:
            rows = idx[:stop]
            q = X[rows, t] // X[t, t]
            # only the columns where row t is nonzero change
            cols = t + X[t, t:].nonzero()[0]
            block = rows[:, None], cols
            top = exact._top
            if X.dtype != object and (
                    top(X[block]) + top(q) * top(X[t, cols]) >= exact._LIMIT):
                X, q = X.astype(object), q.astype(object)
            X[block] -= np.outer(q, X[t, cols])
            q = q.astype(object)
            if T is not None:
                cols = T[t].nonzero()[0]
                T[rows[:, None], cols] -= np.outer(q, T[t, cols])
            if Tinv is not None:
                Tinv[:, t] += Tinv[:, rows] @ q
        if not bad.size:
            return X
        i = idx[stop]
        g, x, y = _xgcd(int(X[t, t]), int(X[i, t]))
        a, b = int(X[t, t]) // g, int(X[i, t]) // g
        if X.dtype != object:
            ht, hi = exact._top(X[t, t:]), exact._top(X[i, t:])
            if max(abs(x) * ht + abs(y) * hi, abs(b) * ht + abs(a) * hi) >= exact._LIMIT:
                X = X.astype(object)
        # rows (t, i) <- (x*t + y*i, -b*t + a*i); det = 1
        X[t, t:], X[i, t:] = x * X[t, t:] + y * X[i, t:], -b * X[t, t:] + a * X[i, t:]
        if T is not None:
            T[t, :], T[i, :] = x * T[t, :] + y * T[i, :], -b * T[t, :] + a * T[i, :]
        if Tinv is not None:
            # inverse of [[x, y], [-b, a]] is [[a, -y], [b, x]]
            Tinv[:, t], Tinv[:, i] = (a * Tinv[:, t] + b * Tinv[:, i],
                                      -y * Tinv[:, t] + x * Tinv[:, i])
        start = i + 1


def dense_smith_normal_form(mat, need_u=True, need_v=True, need_inverses=False,
                            v_rows=None):
    """`exact.smith_normal_form` as a dense loop: the scalar loop's
    operations on an int64 working copy of D, promoted to Python ints
    before any update whose result could reach 2^62, with each run of
    row operations against one pivot row done as one outer-product
    update.  Same signature and results, entry for entry; with no
    transform asked for, the residual of `exact._unit_pivots` is
    reduced."""
    M = exact.as_int_matrix(mat)
    m, n = M.shape
    ones = 0
    if not (need_u or need_v or need_inverses):
        ones, M = exact._unit_pivots(M)
    # the working copy of D: int64 unless an entry is already past _LIMIT
    D = M.astype(np.int64) if exact._top(M) < exact._LIMIT else np.frompyfunc(int, 1, 1)(M)
    U = exact.eye(m) if (need_u or need_inverses) else None
    V = None
    if need_v or need_inverses:
        V = np.eye(n if v_rows is None else v_rows, n, dtype=object)
    Uinv = exact.eye(m) if need_inverses else None
    Vinv = exact.eye(n) if need_inverses else None
    # column operations on D are row operations on D.T
    VT = V.T if V is not None else None
    VinvT = Vinv.T if Vinv is not None else None

    t = 0
    while t < min(D.shape):
        pivot = _dense_pivot(D, t)
        if pivot is None:
            break
        _dense_swap(D, t, pivot[0], U, Uinv)
        _dense_swap(D.T, t, pivot[1], VT, VinvT)
        while True:
            D = _dense_clear_below(D, t, U, Uinv)
            D = _dense_clear_below(D.T, t, VT, VinvT).T
            # a gcd step on columns can refill column t
            if not D[t + 1:, t].nonzero()[0].size:
                break
        if D[t, t] < 0:
            D[t, t] = -D[t, t]
            if U is not None:
                U[t, :] = -U[t, :]
            if Uinv is not None:
                Uinv[:, t] = -Uinv[:, t]
        i = _dense_indivisible_row(D, t)
        if i is not None:
            # fold the offending row into row t and redo this pivot
            if D.dtype != object and exact._top(D[t, t:]) + exact._top(D[i, t:]) >= exact._LIMIT:
                D = D.astype(object)
            D[t, t:] += D[i, t:]
            if U is not None:
                U[t, :] += U[i, :]
            if Uinv is not None:
                Uinv[:, i] -= Uinv[:, t]
            continue
        t += 1

    # D is diagonal by now: drop the working copy before the result is
    # allocated, so that the two never coexist
    d = [1] * ones + [int(x) for x in np.diagonal(D)]
    del D
    D = exact.zeros(m, n)
    D[range(len(d)), range(len(d))] = d
    if need_inverses:
        return U, D, V, Uinv, Vinv
    return (U if need_u else None), D, (V if need_v else None)


# -- scalar face and degeneracy maps -------------------------------------

def face(groupoid, n, i, tup):
    """The i-th face of a level-n tuple, one composition at a time."""
    if not (0 <= i <= n) or n < 1:
        raise IndexError(f"face index {i} out of range for degree {n}")
    G = groupoid
    if n == 1:
        g = tup[0]
        return (int(G.src[g]),) if i == 0 else (int(G.tgt[g]),)
    if i == 0:
        return tuple(tup[1:])
    if i == n:
        return tuple(tup[:-1])
    merged = G.compose(tup[i - 1], tup[i])
    return tuple(tup[:i - 1]) + (merged,) + tuple(tup[i + 1:])


def degeneracy(groupoid, n, i, tup):
    """The i-th degeneracy of a level-n tuple, one unit at a time."""
    if not (0 <= i <= n):
        raise IndexError(f"degeneracy index {i} out of range for degree {n}")
    G = groupoid
    if n == 0:
        return (int(G.unit[tup[0]]),)
    if i == 0:
        return (int(G.unit[G.tgt[tup[0]]]),) + tuple(tup)
    u = int(G.unit[G.src[tup[i - 1]]])
    return tuple(tup[:i]) + (u,) + tuple(tup[i:])


# -- loop assembly on a dict-of-tuples nerve -----------------------------
#
# The assembler the array path in `cochains` replaced: Python loops over
# nerve tuples, one dict lookup and one `face` call per face, Fraction or
# int block sums, and one fixed-coordinate solve per corestricted column
# (`SBlocks.to_fixed_coords`, or `exact.frac_solve` on the rational
# fibre).  Matrices built here must equal the array path's entry for
# entry and in entry type.

class DictLevel:
    """Nerve level n as a list of tuples in lexicographic order and a
    dict tuple -> index."""

    def __init__(self, groupoid, n):
        G = groupoid
        if n == 0:
            tuples = [(x,) for x in range(G.n_objects)]
        else:
            tuples = [(g,) for g in range(G.n_arrows)]
            for _ in range(n - 1):
                tuples = [t + (h,) for t in tuples for h in range(G.n_arrows)
                          if G.src[t[-1]] == G.tgt[h]]
        self.groupoid, self.n, self.tuples = G, n, tuples
        self.index = {t: i for i, t in enumerate(tuples)}

    def __len__(self):
        return len(self.tuples)

    def tuple_at(self, i):
        return self.tuples[i]

    def rho(self, tup):
        G = self.groupoid
        if self.n == 0:
            return (int(G.rho_obj[tup[0]]),)
        return tuple(int(G.rho_arr[g]) for g in tup)


class LoopBasis:
    """Orbit basis of degree-n cochains with values in a fibre, found by
    walking the tuples: orbits in order of their first tuple, as
    (kind, rep, partner, anchor)."""

    def __init__(self, groupoid, fibre, n):
        G = groupoid
        self.groupoid, self.fibre, self.n = G, fibre, n
        self.level = lvl = DictLevel(G, n)
        self.orbits = []
        self.orbit_of = {}    # tuple index -> (orbit id, 'rep'|'partner')
        for i, tup in enumerate(lvl.tuples):
            if i in self.orbit_of:
                continue
            j = lvl.index[lvl.rho(tup)]
            anchor = tup[0] if n == 0 else int(G.src[tup[-1]])
            self.orbit_of[i] = (len(self.orbits), "rep")
            if j == i:
                self.orbits.append(("fixed", i, i, anchor))
            else:
                self.orbit_of[j] = (len(self.orbits), "partner")
                self.orbits.append(("free", i, j, anchor))
        self.offsets, self.widths = [], []
        pos = 0
        for kind, _, _, anchor in self.orbits:
            w = fibre.k if kind == "free" else fibre.embedding(anchor).shape[1]
            self.offsets.append(pos)
            self.widths.append(w)
            pos += w
        self.total = pos

    def value_expression(self, tuple_index):
        oid, role = self.orbit_of[tuple_index]
        kind, _, _, anchor = self.orbits[oid]
        if kind == "fixed":
            M = self.fibre.embedding(anchor)
        elif role == "rep":
            M = self.fibre.identity
        else:
            M = self.fibre.partner(anchor)
        return self.offsets[oid], M

    def corestrict(self, oid, X):
        anchor = self.orbits[oid][3]
        W = fibre_zeros(self.fibre, self.widths[oid], X.shape[1])
        for c in range(X.shape[1]):
            if hasattr(self.fibre, "to_fixed_coords"):
                w = self.fibre.to_fixed_coords(X[:, c])
            else:
                w = exact.frac_solve(self.fibre.embedding(anchor), X[:, c])
            if w is None:
                return None
            W[:, c] = w
        return W

    def from_values(self, value_fn):
        def blocks(tup, anchor):
            value = self.fibre.element(value_fn(tup))
            return [(0, np.array(value, dtype=object).reshape(-1, 1))]
        return loop_assemble(self, 1, blocks, ValueError)[:, 0]


def fibre_zeros(fibre, m, n):
    """Zeros of the fibre's scalars: Python ints on the integral fibre
    (`SBlocks`), Fractions on the rational one."""
    return exact.zeros(m, n) if hasattr(fibre, "to_fixed_coords") else exact.frac_zeros(m, n)


def loop_assemble(dst, ncols, blocks, error=AssertionError):
    A = fibre_zeros(dst.fibre, dst.total, ncols)
    for oid, (kind, rep, _, anchor) in enumerate(dst.orbits):
        tup = dst.level.tuple_at(rep)
        r = dst.offsets[oid]
        for c, X in blocks(tup, anchor):
            w = dst.widths[oid]
            if kind == "free":
                A[r:r + w, c:c + X.shape[1]] = X
                continue
            cols = [j for j in range(X.shape[1]) if any(v != 0 for v in X[:, j])]
            if not cols:
                continue
            W = dst.corestrict(oid, X[:, cols])
            if W is None:
                raise error(f"value at fixed tuple {tup} is not fixed by the involution")
            A[r:r + w, [c + j for j in cols]] = W
    return A


def loop_face_sum(src, terms):
    fibre = src.fibre
    blocks = {}
    for i, coef, L in terms:
        off, M = src.value_expression(i)
        if not M.shape[1]:
            continue
        if off not in blocks:
            blocks[off] = fibre_zeros(fibre, fibre.k, M.shape[1])
        blocks[off] += coef * (M if L is None else L @ M)
    return blocks.items()


def loop_coboundary_matrix(src, dst, last_face=None):
    """d: C^n -> C^(n+1); last_face(tup) is the fibre map applied to the
    value at the last face of tup."""
    G, n = src.groupoid, src.n

    def blocks(tup, anchor):
        terms = []
        for i in range(n + 2):
            fi = src.level.index[face(G, n + 1, i, tup)]
            L = last_face(tup) if last_face is not None and i == n + 1 else None
            terms.append((fi, 1 if i % 2 == 0 else -1, L))
        return loop_face_sum(src, terms)

    return loop_assemble(dst, src.total, blocks)


def loop_contraction_matrix(cx, n):
    """h: C^(n+1) -> C^n of a RepComplex, on loop bases."""
    from fractions import Fraction
    G = cx.groupoid
    src = LoopBasis(G, cx.fibre, n + 1)
    sign = Fraction(1 if (n + 1) % 2 == 0 else -1)

    def blocks(tup, x):
        terms = []
        for gamma in G.arrows_into(x):
            gamma = int(gamma)
            longer = tuple(tup) + (gamma,) if n >= 1 else (gamma,)
            weight = cx.cutoff[int(G.src[gamma])]
            terms.append((src.level.index[longer], sign * weight, cx.rep.act(gamma)))
        return loop_face_sum(src, terms)

    return loop_assemble(LoopBasis(G, cx.fibre, n), src.total, blocks)


def loop_induced_cochain_map(groupoid, sb_a, sb_b, f, n):
    """The coefficient map f on degree-n cochain coordinates, for the
    integral fibres sb_a and sb_b."""
    ba, bb = LoopBasis(groupoid, sb_a, n), LoopBasis(groupoid, sb_b, n)
    f = exact.as_int_matrix(f)

    def blocks(tup, anchor):
        off, M = ba.value_expression(ba.level.index[tup])
        return [(off, f @ M)]

    return loop_assemble(bb, ba.total, blocks)


def loop_simplicial_identities(groupoid, max_degree):
    """The tuple-by-tuple identity check on scalar face and degeneracy
    maps; its violation messages are those of
    `nerve.check_simplicial_identities`."""
    bad = []
    G = groupoid
    levels = {n: DictLevel(G, n) for n in range(max_degree + 2)}
    for n in range(1, max_degree + 1):
        for tup in levels[n].tuples:
            if n >= 2:
                for j in range(n + 1):
                    for i in range(j):
                        lhs = face(G, n - 1, i, face(G, n, j, tup))
                        rhs = face(G, n - 1, j - 1, face(G, n, i, tup))
                        if lhs != rhs:
                            bad.append(f"face-face fails: n={n} i={i} j={j} {tup}")
            for i in range(n + 1):
                lhs = face(G, n, i, levels[n].rho(tup))
                rhs = levels[n - 1].rho(face(G, n, i, tup))
                if lhs != rhs:
                    bad.append(f"face not equivariant: n={n} i={i} {tup}")
    for n in range(0, max_degree + 1):
        for tup in levels[n].tuples:
            for i in range(n + 1):
                dg = degeneracy(G, n, i, tup)
                if dg not in levels[n + 1].index:
                    bad.append(f"degeneracy leaves nerve: n={n} i={i} {tup}")
                    continue
                if face(G, n + 1, i, dg) != tuple(tup) or \
                        face(G, n + 1, i + 1, dg) != tuple(tup):
                    bad.append(f"face-degeneracy unit fails: n={n} i={i} {tup}")
                lhs = degeneracy(G, n, i, levels[n].rho(tup))
                rhs = levels[n + 1].rho(dg)
                if lhs != rhs:
                    bad.append(f"degeneracy not equivariant: n={n} i={i} {tup}")
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = degeneracy(G, n + 1, i, degeneracy(G, n, j, tup))
                    rhs = degeneracy(G, n + 1, j + 1, degeneracy(G, n, i, tup))
                    if lhs != rhs:
                        bad.append(f"deg-deg fails: n={n} i={i} j={j} {tup}")
            for j in range(n + 1):
                dg = degeneracy(G, n, j, tup)
                for i in range(n + 2):
                    if n >= 1 and i < j:
                        rhs = degeneracy(G, n - 1, j - 1, face(G, n, i, tup))
                    elif n >= 1 and i > j + 1:
                        rhs = degeneracy(G, n - 1, j, face(G, n, i - 1, tup))
                    else:
                        continue
                    if face(G, n + 1, i, dg) != rhs:
                        bad.append(f"mixed fails: n={n} i={i} j={j}")
    return bad


def loop_solve(solver, b):
    """`exact.IntSolver.solve` for one right-hand side, entry by entry:
    the solve that the batched one must reproduce column by column."""
    b = np.array([v for v in b], dtype=object)
    if solver.n == 0:
        return exact.zeros(0, 1)[:, 0] if all(v == 0 for v in b) else None
    c = solver.U @ b if solver.m else b[:0]
    y = exact.zeros(solver.n, 1)[:, 0]
    for i in range(solver.m):
        if i < len(solver.diag) and solver.diag[i] != 0:
            if c[i] % solver.diag[i] != 0:
                return None
            y[i] = c[i] // solver.diag[i]
        elif c[i] != 0:
            return None
    return solver.V @ y


# -- loop groupoid constructions and validation --------------------------
#
# The dict-and-loop code that the array pullback and the array `validate`
# in `groupoids` replaced.  The pair, cover and pullback groupoids built
# here must equal the array ones array for array, and `loop_validate`
# must return the same messages in the same order.

def loop_validate(G):
    """`FiniteRealGroupoid.validate`, one arrow, pair and triple at a time."""
    bad = []
    n, m = G.n_objects, G.n_arrows
    if len(G.unit) != n:
        return ["unit map has wrong length"]
    for x in range(n):
        u = G.unit[x]
        if not (0 <= u < m) or G.src[u] != x or G.tgt[u] != x:
            bad.append(f"unit({x}) is not an endo-arrow at {x}")
    for g in range(m):
        for h in range(m):
            k = G.comp[g, h]
            defined = k >= 0
            composable = G.src[g] == G.tgt[h]
            if defined != composable:
                bad.append(f"comp defined iff composable fails at ({g},{h})")
            elif defined:
                if G.tgt[k] != G.tgt[g] or G.src[k] != G.src[h]:
                    bad.append(f"comp({g},{h}) has wrong endpoints")
    if bad:
        return bad
    for g in range(m):
        u_t, u_s = G.unit[G.tgt[g]], G.unit[G.src[g]]
        if G.comp[u_t, g] != g or G.comp[g, u_s] != g:
            bad.append(f"unit law fails at arrow {g}")
        gi = G.inv[g]
        if G.src[gi] != G.tgt[g] or G.tgt[gi] != G.src[g]:
            bad.append(f"inverse of {g} has wrong endpoints")
        elif G.comp[gi, g] != G.unit[G.src[g]] or \
                G.comp[g, gi] != G.unit[G.tgt[g]]:
            bad.append(f"inverse law fails at arrow {g}")
    for g in range(m):
        for h in range(m):
            if G.comp[g, h] < 0:
                continue
            for k in range(m):
                if G.comp[h, k] < 0:
                    continue
                if G.comp[G.comp[g, h], k] != G.comp[g, G.comp[h, k]]:
                    bad.append(f"associativity fails at ({g},{h},{k})")
    for x in range(n):
        if G.rho_obj[G.rho_obj[x]] != x:
            bad.append(f"rho not 2-periodic on objects, witness {x}")
            break
    for g in range(m):
        if G.rho_arr[G.rho_arr[g]] != g:
            bad.append(f"rho not 2-periodic, witness arrow {g}")
            break
    for g in range(m):
        rg = G.rho_arr[g]
        if G.src[rg] != G.rho_obj[G.src[g]] or \
                G.tgt[rg] != G.rho_obj[G.tgt[g]]:
            bad.append(f"rho does not commute with src/tgt at arrow {g}")
        if G.inv[rg] != G.rho_arr[G.inv[g]]:
            bad.append(f"rho does not commute with inv at arrow {g}")
    for x in range(n):
        if G.rho_arr[G.unit[x]] != G.unit[G.rho_obj[x]]:
            bad.append(f"rho does not commute with unit at object {x}")
    for g in range(m):
        for h in range(m):
            k = G.comp[g, h]
            if k < 0:
                continue
            rk = G.comp[G.rho_arr[g], G.rho_arr[h]]
            if rk != G.rho_arr[k]:
                bad.append(f"rho not multiplicative at ({g},{h})")
    return bad


def loop_pullback_groupoid(groupoid, phi, rho_z):
    """`groupoids.pullback_groupoid` on a dict of (z1, gamma, z2) triples."""
    G = groupoid
    phi = np.asarray(phi, dtype=np.int64)
    rho_z = np.asarray(rho_z, dtype=np.int64)
    n_z = len(phi)
    for z in range(n_z):
        if phi[rho_z[z]] != G.rho_obj[phi[z]]:
            raise ValueError(f"involution mismatch at {z}")
    arrows = [(z1, g, z2)
              for z1 in range(n_z) for g in range(G.n_arrows)
              for z2 in range(n_z)
              if phi[z1] == G.tgt[g] and phi[z2] == G.src[g]]
    arr_index = {a: i for i, a in enumerate(arrows)}
    src = [z2 for (z1, g, z2) in arrows]
    tgt = [z1 for (z1, g, z2) in arrows]
    unit = [arr_index[(z, int(G.unit[phi[z]]), z)] for z in range(n_z)]
    inv = [arr_index[(z2, int(G.inv[g]), z1)] for (z1, g, z2) in arrows]
    table = np.full((len(arrows), len(arrows)), -1, dtype=np.int64)
    for i, (z1, g, z2) in enumerate(arrows):
        for i2, (w1, h, w2) in enumerate(arrows):
            if z2 == w1 and G.src[g] == G.tgt[h]:
                table[i, i2] = arr_index[(z1, int(G.comp[g, h]), w2)]
    rho_arr = [arr_index[(int(rho_z[z1]), int(G.rho_arr[g]), int(rho_z[z2]))]
               for (z1, g, z2) in arrows]
    return FiniteRealGroupoid(n_z, src, tgt, unit, table, inv, rho_z, rho_arr)


def loop_cover_groupoid(groupoid, cover):
    """`groupoids.cover_groupoid` on a dict of (j0, g, j1) triples."""
    G = groupoid
    objects = [(j, x) for j, b in enumerate(cover.blocks) for x in b]
    obj_index = {p: i for i, p in enumerate(objects)}
    in_block = [set(b) for b in cover.blocks]
    arrows = []
    for j0 in range(len(cover.blocks)):
        for g in range(G.n_arrows):
            if G.tgt[g] not in in_block[j0]:
                continue
            for j1 in range(len(cover.blocks)):
                if G.src[g] in in_block[j1]:
                    arrows.append((j0, int(g), j1))
    arr_index = {a: i for i, a in enumerate(arrows)}
    src = [obj_index[(j1, int(G.src[g]))] for (j0, g, j1) in arrows]
    tgt = [obj_index[(j0, int(G.tgt[g]))] for (j0, g, j1) in arrows]
    unit = [arr_index[(j, int(G.unit[x]), j)] for (j, x) in objects]
    inv = [arr_index[(j1, int(G.inv[g]), j0)] for (j0, g, j1) in arrows]
    table = np.full((len(arrows), len(arrows)), -1, dtype=np.int64)
    for i, (j0, g, j1) in enumerate(arrows):
        for i2, (k0, h, k1) in enumerate(arrows):
            if j1 == k0 and G.src[g] == G.tgt[h]:
                table[i, i2] = arr_index[(j0, int(G.comp[g, h]), k1)]
    rho_obj = [obj_index[(cover.bar[j], int(G.rho_obj[x]))] for (j, x) in objects]
    rho_arr = [arr_index[(cover.bar[j0], int(G.rho_arr[g]), cover.bar[j1])]
               for (j0, g, j1) in arrows]
    out = FiniteRealGroupoid(len(objects), src, tgt, unit, table, inv,
                             rho_obj, rho_arr)
    iota = np.array([g for (_, g, _) in arrows], dtype=np.int64)
    return out, iota


def loop_pair_groupoid(n_objects, rho_obj=None):
    """`standard.pair_groupoid` on a dict of (y, x) pairs."""
    arrows = [(y, x) for y in range(n_objects) for x in range(n_objects)]
    idx = {a: i for i, a in enumerate(arrows)}
    src = [x for (y, x) in arrows]
    tgt = [y for (y, x) in arrows]
    unit = [idx[(x, x)] for x in range(n_objects)]
    inv = [idx[(x, y)] for (y, x) in arrows]
    table = np.full((len(arrows), len(arrows)), -1, dtype=np.int64)
    for i, (y, x) in enumerate(arrows):
        for i2, (w, z) in enumerate(arrows):
            if x == w:
                table[i, i2] = idx[(y, z)]
    rho_obj = list(rho_obj) if rho_obj is not None else list(range(n_objects))
    rho_arr = [idx[(rho_obj[y], rho_obj[x])] for (y, x) in arrows]
    return FiniteRealGroupoid(n_objects, src, tgt, unit, table, inv,
                              rho_obj, rho_arr)


def loop_product_with_group(groupoid, S):
    """`groupoids.product_with_group`, one element and arrow pair at a time."""
    if S.free_rank:
        raise ValueError("only finite coefficient groups can be materialized")
    G = groupoid
    elems = list(S.elements())
    e_index = {e: i for i, e in enumerate(elems)}
    n_e = len(elems)

    def aidx(ei, g):
        return ei * G.n_arrows + g

    m = n_e * G.n_arrows
    src = [0] * m
    tgt = [0] * m
    inv = [0] * m
    rho_arr = [0] * m
    for ei, e in enumerate(elems):
        neg = e_index[S.reduce_tuple(tuple(-v for v in e))]
        sig = e_index[S.tau_tuple(e)]
        for g in range(G.n_arrows):
            i = aidx(ei, g)
            src[i] = int(G.src[g])
            tgt[i] = int(G.tgt[g])
            inv[i] = aidx(neg, int(G.inv[g]))
            rho_arr[i] = aidx(sig, int(G.rho_arr[g]))
    zero = e_index[S.zero_tuple()]
    unit = [aidx(zero, int(G.unit[x])) for x in range(G.n_objects)]
    table = np.full((m, m), -1, dtype=np.int64)
    for ei, e in enumerate(elems):
        for fi, f in enumerate(elems):
            ef = e_index[S.add_tuples(e, f)]
            for g in range(G.n_arrows):
                for h in range(G.n_arrows):
                    k = G.comp[g, h]
                    if k >= 0:
                        table[aidx(ei, g), aidx(fi, h)] = aidx(ef, int(k))
    return FiniteRealGroupoid(G.n_objects, src, tgt, unit, table, inv,
                              G.rho_obj.copy(), rho_arr)


# -- the long exact sequence by enumeration -----------------------------
#
# The `les` code that the lattice checks replaced: exactness of a
# coefficient sequence by enumerating its elements, the connecting map
# with one lift and one solve per orbit, and each slot of the long
# sequence by enumerating the classes of the cohomology groups.  Finite
# groups only.

def enum_validate(ses):
    """The messages of `CoefficientSES.validate`, exactness checked by
    enumerating elements whenever all three groups are finite, also when
    a map is not well defined."""
    bad = []
    sp, sm, sd = ses.s_prime, ses.s_mid, ses.s_dprime
    maps = ((ses.i, sp, sm, "i"), (ses.p, sm, sd, "p"))
    for mat, src, dst, name in maps:
        img = mat @ src.relations()
        bad.extend(f"{name} is not well defined"
                   for j in range(img.shape[1]) if not dst.is_zero(img[:, j]))
    for mat, src, dst, name in maps:
        diff = mat @ src.tau - dst.tau @ mat
        bad.extend(f"{name} is not involution-equivariant"
                   for j in range(diff.shape[1]) if not dst.is_zero(diff[:, j]))
    if sp.is_finite() and sm.is_finite() and sd.is_finite():
        img_i = {sm.reduce_tuple(tuple(ses.i @ np.array(e, dtype=object)))
                 for e in sp.elements()}
        if len(img_i) != sp.order():
            bad.append("i is not injective")
        ker_p = {e for e in sm.elements()
                 if sd.reduce_tuple(tuple(ses.p @ np.array(e, dtype=object)))
                 == sd.zero_tuple()}
        if img_i != ker_p:
            bad.append("im i != ker p")
        img_p = {sd.reduce_tuple(tuple(ses.p @ np.array(e, dtype=object)))
                 for e in sm.elements()}
        if len(img_p) != sd.order():
            bad.append("p is not surjective")
    return bad


class LoopConnectingMap:
    """`les.ConnectingMap` orbit by orbit: the lift block of an orbit kind
    solved when an orbit of that kind first needs it, one corestriction
    solve per orbit."""

    def __init__(self, ses, cx_p, cx_mid, cx_dp, n):
        self.n, self.cx_mid = n, cx_mid
        bd, bm = cx_dp.basis(n), cx_mid.basis(n)
        messages = {"free": "p is not surjective on S''",
                    "fixed": "equivariant lift obstructed: fixed values of "
                             "S'' have no fixed preimage in S"}
        blocks = {}
        L = exact.zeros(bm.total, bd.total)
        for oid, o in enumerate(bd.orbits):
            if o.kind not in blocks:
                _, Md = bd.value_expression(o.rep)
                _, Mm = bm.value_expression(o.rep)
                X = exact.IntSolver(ses.p @ Mm, ses.s_dprime.relations()).solve(Md)
                if X is None:
                    raise SequenceError(messages[o.kind])
                blocks[o.kind] = X
            X = blocks[o.kind]
            off_m, off_d = bm.offsets[oid], bd.offsets[oid]
            L[off_m:off_m + X.shape[0], off_d:off_d + X.shape[1]] = X
        self.lift_matrix = L
        self._bm1, self._bp1 = cx_mid.basis(n + 1), cx_p.basis(n + 1)
        R_m = ses.s_mid.relations()
        self._co = {
            "free": (exact.IntSolver(ses.i, R_m),
                     "snake value is not in the image of i"),
            "fixed": (exact.IntSolver(ses.i @ self._bp1.fibre.embed, R_m),
                      "snake value escapes the fixed part of S'")}

    def apply_to_vector(self, vec_dp):
        lifted = self.lift_matrix @ np.array(list(vec_dp), dtype=object)
        z = self.cx_mid.differential_matrix(self.n) @ lifted
        return self.corestrict(z)

    def corestrict(self, z):
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
        return h_p1.presentation.class_coords(self.apply_to_vector(vec))


def enum_long_exact_sequence_check(ses, groupoid, through_degree=2):
    """The report of `les.long_exact_sequence_check`, each slot checked by
    enumerating classes, on fresh complexes for every use and the loop
    connecting map."""
    def induced(s_a, s_b, f, n):
        cxa, cxb = RealComplex(groupoid, s_a), RealComplex(groupoid, s_b)
        return induced_cochain_map(cxa, cxb, f, n), cxa, cxb

    maps_i, maps_p = {}, {}
    H_p, H_m, H_d = {}, {}, {}
    for n in range(through_degree + 1):
        maps_i[n], cxp, cxm = induced(ses.s_prime, ses.s_mid, ses.i, n)
        maps_p[n], _, cxd = induced(ses.s_mid, ses.s_dprime, ses.p, n)
        H_p[n], H_m[n], H_d[n] = cxp.cohomology(n), cxm.cohomology(n), cxd.cohomology(n)
    conn = {n: LoopConnectingMap(ses, RealComplex(groupoid, ses.s_prime),
                                 RealComplex(groupoid, ses.s_mid),
                                 RealComplex(groupoid, ses.s_dprime), n)
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

    first_ker = [c for c in H_p[0].all_classes()
                 if all(v == 0 for v in pushed(H_p[0], H_m[0], maps_i[0], c))]
    ok0 = all(all(v == 0 for v in c) for c in first_ker)
    report["slots"].append({"slot": "HR^0(S') injective", "exact": ok0})
    if not ok0:
        report["exact"] = False

    for n in range(through_degree + 1):
        check_slot(
            f"HR^{n}(S)",
            lambda n=n: (pushed(H_p[n], H_m[n], maps_i[n], c)
                         for c in H_p[n].all_classes()),
            lambda n=n: (c for c in H_m[n].all_classes()
                         if all(v == 0 for v in
                                pushed(H_m[n], H_d[n], maps_p[n], c))))
        if n < through_degree:
            check_slot(
                f"HR^{n}(S'')",
                lambda n=n: (pushed(H_m[n], H_d[n], maps_p[n], c)
                             for c in H_m[n].all_classes()),
                lambda n=n: (c for c in H_d[n].all_classes()
                             if all(v == 0 for v in
                                    conn[n].apply_to_class(H_d[n], H_p[n + 1], c))))
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


# -- loop extension and bundle checks ------------------------------------
#
# The element-at-a-time code that `AbstractExtension.as_groupoid` and
# `verify` and `RealPrincipalBundle.verify` replaced.  The extension
# groupoid built here must equal the array one, `loop_extension_verify`
# must flag every extension the array `verify` is required to flag, and
# `loop_bundle_verify` must return the same messages in the same order.

def loop_extension_groupoid(E):
    """The FiniteRealGroupoid of an ExtensionGroupoid, with the inverse of
    (e, g) computed as (-(e + omega(g, g^-1)), g^-1)."""
    base, S = E.base, E.S
    index = {z: i for i, z in enumerate(E.elements)}
    m = len(E.elements)
    src = [int(base.src[E.pi[z]]) for z in E.elements]
    tgt = [int(base.tgt[E.pi[z]]) for z in E.elements]
    unit = [index[E.units[x]] for x in range(base.n_objects)]
    inv = [0] * m
    for i, (e, g) in enumerate(E.elements):
        gi = int(base.inv[g])
        w = E.omega.value_at((g, gi))
        inv[i] = index[(S.neg_tuple(S.add_tuples(e, w)), gi)]
    table = np.full((m, m), -1, dtype=np.int64)
    for (z, w_), k in E.mult.items():
        table[index[z], index[w_]] = index[k]
    rho_arr = [index[E.invol[z]] for z in E.elements]
    return FiniteRealGroupoid(base.n_objects, src, tgt, unit, table, inv,
                              base.rho_obj.copy(), rho_arr)


def loop_extension_verify(E):
    """Groupoid-style checks of an extension's explicit data, one element
    pair and triple at a time; list of violations."""
    bad = []
    G = E.base
    for z in E.elements:
        for w in E.elements:
            g, h = E.pi[z], E.pi[w]
            if G.src[g] == G.tgt[h]:
                zw = E.mult[(z, w)]
                if E.pi[zw] != G.comp[g, h]:
                    bad.append(f"projection not multiplicative at {z},{w}")
    for z in E.elements:
        for w in E.elements:
            for v in E.elements:
                g, h, k = E.pi[z], E.pi[w], E.pi[v]
                if G.src[g] == G.tgt[h] and G.src[h] == G.tgt[k]:
                    lhs = E.mult[(E.mult[(z, w)], v)]
                    rhs = E.mult[(z, E.mult[(w, v)])]
                    if lhs != rhs:
                        bad.append(f"associativity fails at {z},{w},{v}")
                        return bad
    for z in E.elements:
        if E.invol[E.invol[z]] != z:
            bad.append(f"involution not 2-periodic at {z}")
    for z in E.elements:
        for w in E.elements:
            g, h = E.pi[z], E.pi[w]
            if G.src[g] == G.tgt[h]:
                lhs = E.invol[E.mult[(z, w)]]
                rhs = E.mult[(E.invol[z], E.invol[w])]
                if lhs != rhs:
                    bad.append(f"involution not multiplicative at {z},{w}")
    for t in E.S.elements():
        for z in E.elements:
            lhs = E.invol[E.s_act[(t, z)]]
            rhs = E.s_act[(E.S.tau_tuple(t), E.invol[z])]
            if lhs != rhs:
                bad.append(f"involution not S-antiequivariant at {z}")
    return bad


def loop_bundle_verify(b):
    """`RealPrincipalBundle.verify` through the bundle's own act, s_act
    and invol, one point at a time."""
    G, S = b.groupoid, b.S
    bad = []
    for z in b.points():
        if b.anchor(b.invol(z)) != int(G.rho_obj[b.anchor(z)]):
            bad.append(f"anchor not equivariant at {z}")
    for g in range(G.n_arrows):
        for s in S.elements():
            z = (int(G.src[g]), s)
            gz = b.act(g, z)
            if b.anchor(gz) != int(G.tgt[g]):
                bad.append(f"action breaks the anchor at {g}")
            if b.invol(gz) != b.act(int(G.rho_arr[g]), b.invol(z)):
                bad.append(f"involution not action-equivariant at ({g},{s})")
            for t in S.elements():
                if b.act(g, b.s_act(t, z)) != b.s_act(t, gz):
                    bad.append(f"S-action does not commute at ({g},{s},{t})")
    for x in range(G.n_objects):
        u = int(G.unit[x])
        for s in S.elements():
            if b.act(u, (x, s)) != (x, s):
                bad.append(f"unit acts nontrivially at ({x},{s})")
    for g in range(G.n_arrows):
        for h in range(G.n_arrows):
            k = G.comp[g, h]
            if k < 0:
                continue
            for s in S.elements():
                z = (int(G.src[h]), s)
                if b.act(g, b.act(h, z)) != b.act(int(k), z):
                    bad.append(f"action not associative at ({g},{h},{s})")
    return bad


# -- the second implementations that `exact` replaced ----------------------
#
# The presentation with per-position orders and the full generator
# matrix, the trial-division canonical form of a localized group key, and
# the identity h d + d h multiplied as dense matrices: the references that
# `exact.AbelianGroupPresentation`, `coefficients.canonical_key` and
# `proper.homotopy_identity_matrices` must match.

class LoopPresentation(exact.GroupKey):
    """`exact.AbelianGroupPresentation` with every position of the Smith
    diagonal kept: order 1 (dead), d > 1 (torsion) or 0 (free), the full
    generator matrix basis @ P^-1, and loops over the surviving
    positions."""

    def __init__(self, basis, sub_gens):
        B = exact.as_int_matrix(basis)
        G = exact.as_int_matrix(sub_gens)
        k, mdim = B.shape
        if G.shape[0] != k and G.size == 0:
            G = exact.zeros(k, 0)
        self.ambient_dim = k
        self._solver = exact.IntSolver(B)
        Umat = self._solver.solve(G)
        if Umat is None:
            raise ValueError("image not contained in kernel")
        P, D, _, Pinv, _ = exact.smith_normal_form(Umat, need_inverses=True)
        diag = exact.diagonal_of(D)
        self._P = P
        self._orders = [abs(diag[i]) if i < len(diag) else 0 for i in range(mdim)]
        self.invariant_factors = [d for d in self._orders if d > 1]
        self.free_rank = sum(1 for d in self._orders if d == 0)
        self._gen_cols = B @ Pinv if mdim else exact.zeros(k, 0)
        self._live = [i for i, d in enumerate(self._orders) if d != 1]

    def generators(self):
        return [(self._gen_cols[:, i], self._orders[i]) for i in self._live]

    def split_generators(self):
        free = [self._gen_cols[:, i] for i in self._live if self._orders[i] == 0]
        tors = [(self._gen_cols[:, i], self._orders[i])
                for i in self._live if self._orders[i] > 1]
        return free, tors

    def class_coords(self, vec):
        w = self._solver.solve(vec)
        if w is None:
            return None
        w2 = self._P @ w
        coords = []
        for i in self._live:
            d = self._orders[i]
            coords.append(int(w2[i]) % d if d else int(w2[i]))
        return tuple(coords)

    def lift(self, coords):
        v = exact.zeros(self.ambient_dim, 1)[:, 0]
        for c, i in zip(coords, self._live):
            v = v + c * self._gen_cols[:, i]
        return v


def trial_division_canon(key):
    """(rank, sorted prime powers of the odd factors) by trial division:
    two keys with odd factors name isomorphic groups exactly when these
    agree."""
    rank, factors = key
    eds = []
    for d in factors:
        p = 3
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                eds.append(p ** e)
            p += 2
    return rank, tuple(sorted(eds))


def dense_homotopy_identity(complex_, n):
    """`proper.homotopy_identity_matrices` with the numerators multiplied
    as dense matrices of Python ints."""
    (Dn, dn), (Dp, dp) = complex_.differential_matrix(n), complex_.differential_matrix(n - 1)
    (Hn, hn), (Hp, hp) = complex_.contraction_matrix(n), complex_.contraction_matrix(n - 1)
    scale = math.lcm(hn * dn, dp * hp)
    lhs = scale // (hn * dn) * (Hn @ Dn) + scale // (dp * hp) * (Dp @ Hp)
    return lhs, scale * exact.eye(complex_.basis(n).total)
