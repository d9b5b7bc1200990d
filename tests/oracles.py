"""Brute-force reference implementations, independent of the production
code paths: cohomology by full enumeration of real cochains, used to
derive and pin expected values for small cases, the dense scalar Smith
normal form that the vectorised one in `exact` must match, and the loop
assembler on a dict-of-tuples nerve that the array assembly in
`cochains` must match."""

import itertools

import numpy as np

from realcech import exact
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
        W = self.fibre.zeros(self.widths[oid], X.shape[1])
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


def loop_assemble(dst, ncols, blocks, error=AssertionError):
    A = dst.fibre.zeros(dst.total, ncols)
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
            blocks[off] = fibre.zeros(fibre.k, M.shape[1])
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
