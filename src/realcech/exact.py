"""Exact integer and rational linear algebra.

Smith normal form, Diophantine solving, integer kernels, and presentation
of quotient lattices as abelian groups (free rank + invariant factors).
Integer results are arbitrary-precision Python ints inside numpy object
arrays, so intermediate swell is harmless.  The Smith form reduces its
working matrix D with vectorised numpy operations on an int64 copy, and
promotes D to Python ints before any update whose result could reach
2^62; the transforms are Python ints throughout, and the returned
matrices are those of the scalar elimination, entry for entry.  Rational
ranks are those of the Smith form of `cleared`, the integer matrix that
the lcm of the denominators makes of a Fraction matrix; rational kernels
and solutions row-reduce the Fractions.  No floating point anywhere.

Everything here is a pure function of its inputs; concurrent use is safe.
"""

import math
from fractions import Fraction

import numpy as np


def as_int_matrix(rows):
    """Coerce a list-of-lists / array into an object-dtype integer matrix."""
    if isinstance(rows, np.ndarray) and rows.dtype == object:
        return rows
    arr = np.array(rows, dtype=object)
    if arr.ndim == 1:
        arr = arr.reshape(len(arr), 1) if len(arr) else arr.reshape(0, 1)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    return arr


def zeros(m, n):
    return np.zeros((m, n), dtype=object)


def eye(n):
    return np.identity(n, dtype=object)


# |entries| of an int64 working matrix stay below this, so no product or
# sum formed from them within a bound checked first can wrap
_LIMIT = 1 << 62


def _top(A):
    """max |a| over the entries of A as a Python int (0 if A is empty)."""
    return max(int(A.max()), -int(A.min())) if A.size else 0


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


def _pivot(D, t):
    """(i, j) of the first entry of least nonzero |value| in D[t:, t:] in
    row-major order, or None if that block is zero."""
    A = D[t:, t:]
    rows, cols = np.nonzero(A)
    if not rows.size:
        return None
    k = np.argmin(np.abs(A[rows, cols]))
    return t + rows[k], t + cols[k]


def _indivisible_row(D, t):
    """The first row below t holding an entry of D[t+1:, t+1:] that the
    pivot D[t, t] does not divide, or None."""
    p = D[t, t]
    if p == 1:
        return None
    B = D[t + 1:, t + 1:]
    rows, cols = np.nonzero(B)
    bad = (B[rows, cols] % p).nonzero()[0]
    return t + 1 + rows[bad[0]] if bad.size else None


def _swap(X, t, i, T, Tinv):
    """Swap rows t and i of X (active columns t: only) and of T, and
    columns t and i of Tinv."""
    if i == t:
        return
    X[[t, i], t:] = X[[i, t], t:]
    if T is not None:
        T[[t, i], :] = T[[i, t], :]
    if Tinv is not None:
        Tinv[:, [t, i]] = Tinv[:, [i, t]]


def _clear_below(X, t, T, Tinv):
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
            if X.dtype != object and (
                    _top(X[block]) + _top(q) * _top(X[t, cols]) >= _LIMIT):
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
            ht, hi = _top(X[t, t:]), _top(X[i, t:])
            if max(abs(x) * ht + abs(y) * hi, abs(b) * ht + abs(a) * hi) >= _LIMIT:
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


def smith_normal_form(mat, need_u=True, need_v=True, need_inverses=False,
                      v_rows=None):
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with a divisibility chain d_1 | d_2 | ... and d_i >= 0.
    With need_inverses, returns (U, D, V, Uinv, Vinv) instead.
    Pivoting picks the first minimal nonzero absolute value in row-major
    order to limit swell.  With v_rows, V holds only its first v_rows
    rows (column operations act on each row of V on its own).  The
    results equal, entry for entry, those of the scalar elimination kept
    as an oracle in tests/oracles.py.
    """
    M = as_int_matrix(mat)
    m, n = M.shape
    # the working copy of D: int64 unless an entry is already past _LIMIT
    D = M.astype(np.int64) if _top(M) < _LIMIT else np.frompyfunc(int, 1, 1)(M)
    U = eye(m) if (need_u or need_inverses) else None
    V = None
    if need_v or need_inverses:
        V = np.eye(n if v_rows is None else v_rows, n, dtype=object)
    Uinv = eye(m) if need_inverses else None
    Vinv = eye(n) if need_inverses else None
    # column operations on D are row operations on D.T
    VT = V.T if V is not None else None
    VinvT = Vinv.T if Vinv is not None else None

    t = 0
    while t < min(m, n):
        pivot = _pivot(D, t)
        if pivot is None:
            break
        _swap(D, t, pivot[0], U, Uinv)
        _swap(D.T, t, pivot[1], VT, VinvT)
        while True:
            D = _clear_below(D, t, U, Uinv)
            D = _clear_below(D.T, t, VT, VinvT).T
            # a gcd step on columns can refill column t
            if not D[t + 1:, t].nonzero()[0].size:
                break
        if D[t, t] < 0:
            D[t, t] = -D[t, t]
            if U is not None:
                U[t, :] = -U[t, :]
            if Uinv is not None:
                Uinv[:, t] = -Uinv[:, t]
        i = _indivisible_row(D, t)
        if i is not None:
            # fold the offending row into row t and redo this pivot
            if D.dtype != object and _top(D[t, t:]) + _top(D[i, t:]) >= _LIMIT:
                D = D.astype(object)
            D[t, t:] += D[i, t:]
            if U is not None:
                U[t, :] += U[i, :]
            if Uinv is not None:
                Uinv[:, i] -= Uinv[:, t]
            continue
        t += 1

    if D.dtype != object:
        # D is diagonal by now: drop the int64 copy before the object one
        # is allocated, so that the two never coexist
        d = np.diagonal(D).astype(object)
        del D
        D = zeros(m, n)
        D[range(len(d)), range(len(d))] = d
    if need_inverses:
        return U, D, V, Uinv, Vinv
    return (U if need_u else None), D, (V if need_v else None)


def diagonal_of(D):
    m, n = D.shape
    return [D[i, i] for i in range(min(m, n))]


def int_kernel(mat, rows=None):
    """Basis (columns) of the integer kernel {x : mat @ x == 0}; with
    `rows`, only the first `rows` coordinates of each basis vector."""
    M = as_int_matrix(mat)
    m, n = M.shape
    r = n if rows is None else rows
    if n == 0:
        return zeros(0, 0)
    if m == 0:
        return np.eye(r, n, dtype=object)
    _, D, V = smith_normal_form(M, need_u=False, v_rows=r)
    diag = diagonal_of(D)
    cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    return V[:, cols] if cols else zeros(r, 0)


class IntSolver:
    """Precomputed SNF factorisation for repeated solves of M x = b over Z.

    With `relations` R, solves M x = b modulo the column span of R: the
    factorisation is that of [M | R], and a solution keeps only the
    coordinates of M's columns.  An M with no columns needs no special
    case: b is then solvable exactly when it lies in span(R)."""

    def __init__(self, mat, relations=None):
        M = as_int_matrix(mat)
        n = M.shape[1]
        if relations is not None:
            M = np.concatenate([M, as_int_matrix(relations)], axis=1)
        self.m, self.n = M.shape
        # column operations act on each row of V on its own, so its
        # first n rows are those of the full transform
        U, D, V = smith_normal_form(M, v_rows=n)
        self.U, self.D, self.V = U, D, V
        self.diag = diagonal_of(D)
        # rows of U @ b divided by a nonzero diagonal entry; the rest must vanish
        pivot = np.array([i < len(self.diag) and self.diag[i] != 0
                          for i in range(self.m)], dtype=bool)
        self._pivots, self._rest = np.flatnonzero(pivot), np.flatnonzero(~pivot)
        self._divisors = np.array([self.diag[i] for i in self._pivots],
                                  dtype=object).reshape(-1, 1)

    def solve(self, b):
        """A particular integer solution of M x = b (mod R), or None.  A
        matrix b is solved column by column with one product U @ b, and
        gives None if any column has no solution."""
        B = np.array(b, dtype=object)
        one = B.ndim == 1
        if one:
            B = B.reshape(-1, 1)
        C = self.U @ B
        P = C[self._pivots]
        if (P % self._divisors).any() or C[self._rest].any():
            return None
        Y = zeros(self.n, B.shape[1])
        Y[self._pivots] = P // self._divisors
        X = self.V @ Y
        return X[:, 0] if one else X


class AbelianGroupPresentation:
    """A quotient K / L of lattices, presented by invariant factors.

    K is spanned by the columns of `basis` (full column rank, inside Z^k);
    L is spanned by `sub_gens` (each expressible in K, checked).  Exposes
    free rank, invariant factors d_1 | d_2 | ..., generator lifts into the
    ambient Z^k, and canonical class coordinates for membership tests.
    """

    def __init__(self, basis, sub_gens):
        B = as_int_matrix(basis)
        G = as_int_matrix(sub_gens)
        k = B.shape[0]
        mdim = B.shape[1]
        if G.shape[0] != k and G.size == 0:
            G = zeros(k, 0)
        self.ambient_dim = k
        self.basis = B
        self._solver = IntSolver(B)
        Umat = self._solver.solve(G)
        if Umat is None:
            raise ValueError("image not contained in kernel")
        P, D, _, Pinv, _ = smith_normal_form(Umat, need_inverses=True)
        self._P = P
        self._Pinv = Pinv
        diag = diagonal_of(D)
        self._orders = []          # per position: 1 (dead), d>1 (torsion), 0 (free)
        for i in range(mdim):
            d = abs(diag[i]) if i < len(diag) else 0
            self._orders.append(d)
        self.invariant_factors = [d for d in self._orders if d > 1]
        self.free_rank = sum(1 for d in self._orders if d == 0)
        gen_matrix = B @ Pinv if mdim else zeros(k, 0)
        self._gen_cols = gen_matrix
        # surviving generators: order != 1
        self._live = [i for i, d in enumerate(self._orders) if d != 1]

    def generators(self):
        """Ambient lift of each surviving generator, paired with its order."""
        out = []
        for i in self._live:
            out.append((self._gen_cols[:, i], self._orders[i]))
        return out

    def split_generators(self):
        """(free generator columns, [(torsion column, order), ...]) with the
        torsion part in invariant-factor order."""
        free = [self._gen_cols[:, i] for i in self._live if self._orders[i] == 0]
        tors = [(self._gen_cols[:, i], self._orders[i])
                for i in self._live if self._orders[i] > 1]
        return free, tors

    def class_coords(self, vec):
        """Canonical coordinates of [vec]; None if vec is not in K."""
        w = self._solver.solve(vec)
        if w is None:
            return None
        w2 = self._P @ w
        coords = []
        for i in self._live:
            d = self._orders[i]
            coords.append(int(w2[i]) % d if d else int(w2[i]))
        return tuple(coords)

    def is_zero_class(self, vec):
        c = self.class_coords(vec)
        return c is not None and all(v == 0 for v in c)

    def lift(self, coords):
        """Ambient representative of the class with the given coordinates."""
        v = zeros(self.ambient_dim, 1)[:, 0]
        for c, i in zip(coords, self._live):
            v = v + c * self._gen_cols[:, i]
        return v

    def order(self):
        if self.free_rank:
            return 0
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def all_classes(self):
        """Iterate canonical coordinates of every class (finite groups only)."""
        if self.free_rank:
            raise ValueError("group is infinite")
        def rec(i):
            if i == len(self._live):
                yield ()
                return
            d = self._orders[self._live[i]]
            for v in range(d):
                for rest in rec(i + 1):
                    yield (v,) + rest
        return rec(0)

    def group_key(self):
        return (self.free_rank, tuple(self.invariant_factors))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def quotient(ker_basis, img_gens):
    """Present ker/im; raises ValueError if im is not inside ker."""
    return AbelianGroupPresentation(ker_basis, img_gens)


def lattice_mod_relations(constraint, relations, modulus_relations):
    """Present {x : constraint @ x in span(modulus_relations)} / span(relations).

    The common pattern behind kernels of maps between groups given as
    Z^k / relations: `constraint` maps into an ambient whose relation
    lattice is `modulus_relations`.
    """
    C = as_int_matrix(constraint)
    MR = as_int_matrix(modulus_relations)
    n = C.shape[1]
    stacked = np.concatenate([C, MR], axis=1) if MR.shape[1] else C
    # the projected kernel columns may be dependent; re-extract a basis
    B = lattice_basis(int_kernel(stacked, rows=n))
    return AbelianGroupPresentation(B, relations)


def lattice_basis(gens):
    """A basis of the lattice spanned by the given generator columns.

    span(G) == span(G @ V) for unimodular V, and in SNF coordinates the
    nonzero columns of G @ V are independent.
    """
    G = as_int_matrix(gens)
    n, g = G.shape
    if g == 0:
        return zeros(n, 0)
    _, D2, V2 = smith_normal_form(G, need_u=False)
    GV = G @ V2
    diag = diagonal_of(D2)
    rank = sum(1 for d in diag if d != 0)
    cols = [GV[:, j] for j in range(g) if any(v != 0 for v in GV[:, j])]
    if not cols:
        return zeros(n, 0)
    B = np.stack(cols, axis=1)
    assert B.shape[1] == rank
    return B


# ----------------------------------------------------------------------
# exact rational linear algebra: integer-cleared ranks, Fraction RREF

# a numpy integer numerator would wrap silently past 2^63
_fraction = np.frompyfunc(
    lambda v: Fraction(int(v) if isinstance(v, np.integer) else v), 1, 1)
# (numerator, denominator) of an entry as Python ints, by the same rule
_ratio = np.frompyfunc(
    lambda v: (int(v), 1) if isinstance(v, np.integer) else v.as_integer_ratio(),
    1, 2)


def as_frac_matrix(rows):
    M = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if M.ndim == 1:
        M = M.reshape(len(M), 1) if len(M) else M.reshape(0, 0)
    return _fraction(M)


def cleared(mat):
    """(mat * scale as Python ints in an object matrix, scale), where the
    scale is the lcm of the denominators of the entries."""
    num, den = _ratio(as_int_matrix(mat))
    scale = math.lcm(*set(den.flat))
    return num * (scale // den), scale


# the Fraction num / scale of every entry of an integer matrix num
frac_divide = np.frompyfunc(Fraction, 2, 1)


def frac_zeros(m, n):
    M = np.empty((m, n), dtype=object)
    M[:, :] = Fraction(0)
    return M


def _rref(M):
    """Row-reduce a Fraction matrix in place; returns pivot column list."""
    m, n = M.shape
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if M[i, c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[[r, piv], :] = M[[piv, r], :]
        M[r, :] = M[r, :] / M[r, c]
        for i in range(m):
            if i != r and M[i, c] != 0:
                M[i, :] = M[i, :] - M[i, c] * M[r, :]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def frac_rank(mat):
    """Rank over Q: the number of nonzero invariant factors of the
    integer matrix `cleared(mat)`."""
    _, D, _ = smith_normal_form(cleared(mat)[0], need_u=False, need_v=False)
    return sum(1 for d in diagonal_of(D) if d != 0)


def frac_kernel(mat):
    """Columns spanning the rational null space."""
    M = as_frac_matrix(mat)
    m, n = M.shape
    if n == 0:
        return frac_zeros(0, 0)
    if m == 0 or M.size == 0:
        K = frac_zeros(n, n)
        for i in range(n):
            K[i, i] = Fraction(1)
        return K
    pivots = _rref(M)
    free = [c for c in range(n) if c not in pivots]
    K = frac_zeros(n, len(free))
    for idx, fc in enumerate(free):
        K[fc, idx] = Fraction(1)
        for r, pc in enumerate(pivots):
            K[pc, idx] = -M[r, fc]
    return K


def frac_solve(mat, b):
    """A rational solution of mat @ x = b, or None."""
    M = as_frac_matrix(mat)
    m, n = M.shape
    b = as_frac_matrix(np.array(b, dtype=object).reshape(m, 1))
    aug = np.concatenate([M, b], axis=1)
    pivots = _rref(aug)
    if n in pivots:
        return None
    x = frac_zeros(n, 1)[:, 0]
    x[pivots] = aug[:len(pivots), n]
    return x
