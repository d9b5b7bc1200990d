"""Brute-force reference implementations, independent of the production
code paths: cohomology by full enumeration of real cochains, used to
derive and pin expected values for small cases, and the dense scalar
Smith normal form that the vectorised one in `exact` must match."""

import itertools

import numpy as np

from realcech import exact
from realcech.nerve import nerve, face


def real_cochains(groupoid, S, n):
    """Enumerate every real n-cochain as a dict tuple -> S element."""
    lvl = nerve(groupoid, n)
    reps = []
    fixed = []
    seen = set()
    for i in range(len(lvl)):
        if i in seen:
            continue
        j = lvl.rho_index(i)
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
