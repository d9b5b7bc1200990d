"""Exact integer and rational linear algebra.

Smith normal form, Diophantine solving, integer kernels, and presentation
of quotient lattices as abelian groups (free rank + invariant factors).
Integer results are arbitrary-precision Python ints inside numpy object
arrays, so intermediate swell is harmless.  The Smith form eliminates on
sparse rows of Python ints: D and the transforms are kept as dicts of
their nonzero entries, and each operation touches only the entries it
changes.  Its operations and their order are those of the scalar
elimination, so the returned matrices are that elimination's, entry for
entry.  `invariant_factors` (and `frac_rank`, which counts them) asks for
no transform: a sparsest-first pass eliminates the +-1 pivots on the
nonzeros, and only the residual goes through the loop.

`Sparse` keeps an integer matrix as its nonzero entries (int64 indices,
int64 values below 2^62 in size, Python ints past that); `product`
multiplies them as triplets.  The Smith forms, kernels, solvers and
presentations read every integer matrix through `as_sparse`: a Sparse one
as it is, any other coerced.  The cochain complexes keep their
differentials `Sparse` from assembly on.  Rational matrices are `Scaled`
integer ones, num standing for num / scale, and have the rank of num;
`cleared` scales a Fraction matrix to that pair, and rational kernels
row-reduce the Fractions.  No floating point anywhere.

Everything here is a pure function of its inputs; concurrent use is safe.
"""

import heapq
import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np


def as_int_matrix(rows):
    """Coerce a list-of-lists / array / Sparse into an object-dtype integer matrix."""
    if isinstance(rows, np.ndarray) and rows.dtype == object:
        return rows
    if isinstance(rows, Sparse):
        return to_dense(rows)
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


# `product` sums in int64 only when a bound on every sum stays below this
_LIMIT = 1 << 62


def _top(A):
    """max |a| over the entries of A as a Python int (0 if A is empty)."""
    return max(int(A.max()), -int(A.min())) if A.size else 0


def _packed(v):
    """The integer values v as int64 when every |v| < 2^62, otherwise as
    Python ints in an object array."""
    if v.dtype == object:
        try:
            w = v.astype(np.int64)
        except OverflowError:
            return v
        return w if _top(w) < _LIMIT else v
    return v.astype(np.int64, copy=False) if _top(v) < _LIMIT else v.astype(object)


def run_starts(x):
    """True at each entry of the sorted array x that differs from the one
    before it."""
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return new


class Sparse:
    """An integer matrix of the given shape kept as its nonzero entries in
    row-major order: int64 arrays `rows` and `cols` and the values `vals`,
    int64 while every |value| < 2^62 and Python ints in an object array
    past that.  `sparse` builds one from entries, `as_sparse` from a dense
    matrix, `block` from blocks, and `to_dense` goes back.  Two are equal
    when their shapes and entries are; `A @ x` and `x @ A` for a dense x
    are dense, and `A + B` and `A * f` (f an int) are exact."""

    __slots__ = ("shape", "rows", "cols", "vals")
    # numpy defers `x @ A` to __rmatmul__
    __array_ufunc__ = None

    def __init__(self, shape, rows, cols, vals):
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows, self.cols, self.vals = rows, cols, vals

    @property
    def nnz(self):
        return len(self.vals)

    def __eq__(self, other):
        return isinstance(other, Sparse) and self.shape == other.shape and \
            np.array_equal(self.rows, other.rows) and np.array_equal(self.cols, other.cols) \
            and np.array_equal(self.vals, other.vals)

    def __add__(self, other):
        return sparse(self.shape, *map(np.concatenate, zip(
            (self.rows, self.cols, self.vals), (other.rows, other.cols, other.vals))))

    def __mul__(self, f):
        f = int(f)
        if not f:
            return sparse(self.shape, self.rows[:0], self.cols[:0], self.vals[:0])
        vals = self.vals if self.vals.dtype == object or _top(self.vals) * abs(f) < _LIMIT \
            else self.vals.astype(object)
        return Sparse(self.shape, self.rows, self.cols, _packed(vals * f))

    def __matmul__(self, x):
        """self @ x for a dense vector or matrix x of Python ints or
        Fractions, as an object array; a matrix column by column, so that
        no intermediate holds more than one term per nonzero."""
        x = np.asarray(x, dtype=object)
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=object)
        if x.ndim == 2:
            for j in range(x.shape[1]):
                out[:, j] = self @ x[:, j]
        elif self.nnz:
            starts = np.flatnonzero(run_starts(self.rows))
            out[self.rows[starts]] = np.add.reduceat(self.vals.astype(object) * x[self.cols], starts)
        return out

    def __rmatmul__(self, x):
        """x @ self for a dense matrix x, as an object array."""
        return (sparse(self.shape[::-1], self.cols, self.rows, self.vals)
                @ np.asarray(x, dtype=object).T).T


def sparse(shape, rows, cols, vals):
    """The Sparse matrix of the given shape that sums the integer values
    vals at the positions (rows, cols); sums run in int64 only when no
    sum can reach 2^62."""
    n = int(shape[1])
    code = rows * n + cols
    order = np.argsort(code, kind="stable")
    code, vals = code[order], vals[order]
    starts = np.flatnonzero(run_starts(code))
    if len(starts) < len(code):
        if vals.dtype != object and _top(vals) * len(vals) >= _LIMIT:
            vals = vals.astype(object)
        code, vals = code[starts], np.add.reduceat(vals, starts)
    keep = vals != 0
    if not keep.all():
        code, vals = code[keep], vals[keep]
    r, c = np.divmod(code, n) if n else (code, code)
    return Sparse(shape, r, c, _packed(vals))


def as_sparse(mat):
    """A Sparse matrix as it is; any other integer matrix (an array or
    nested lists) as a Sparse one."""
    if isinstance(mat, Sparse):
        return mat
    M = mat if isinstance(mat, np.ndarray) and mat.ndim == 2 else as_int_matrix(mat)
    r, c = np.nonzero(M)
    return Sparse(M.shape, r, c, _packed(M[r, c]))


def block(grid):
    """The Sparse matrix made of the blocks in the rows of grid; the blocks
    of a row share a height, those of a column a width."""
    grid = [[as_sparse(B) for B in row] for row in grid]
    h, w = [row[0].shape[0] for row in grid], [B.shape[1] for B in grid[0]]
    if [[B.shape for B in row] for row in grid] != [[(a, b) for b in w] for a in h]:
        raise ValueError("the blocks do not fit together")
    r, c = np.cumsum([0] + h), np.cumsum([0] + w)
    return sparse((r[-1], c[-1]), *map(np.concatenate, zip(*[
        (B.rows + r[i], B.cols + c[j], B.vals) for i, row in enumerate(grid) for j, B in enumerate(row)])))


def to_dense(A):
    """The object matrix of Python ints of a Sparse matrix."""
    out = zeros(*A.shape)
    out[A.rows, A.cols] = A.vals.astype(object)
    return out


def sparse_identity(n, value=1):
    """value times the identity matrix of order n, as a Sparse matrix."""
    i = np.arange(n if value else 0)
    return Sparse((n, n), i, i, _packed(np.full(len(i), value, dtype=object)))


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


def _unit_pivots(M):
    """(k, R): eliminate k pivots of value +-1 from the integer matrix M
    (Sparse, or coerced to it) and return the dense residual R, whose
    Smith diagonal with k ones in front is that of M (dropping the zero
    rows and columns changes no invariant factor).

    The nonzero entries are kept as Python ints in one dict per row, with
    the set of rows of each column.  Columns come off a heap, fewest
    nonzeros first; an entry is stale once its column's count moved.  In
    each column the pivot is the sparsest row holding a +-1 there, ties
    going to the lower index: the column is cleared against it by row
    operations, and then the pivot row and column are dropped, which the
    column operations against the pivot would do.  A column with no unit
    entry stays for the residual unless a later row operation touches it
    again."""
    A = as_sparse(M)
    m, n = A.shape
    cs, vs = A.cols.tolist(), A.vals.tolist()
    ends = np.searchsorted(A.rows, np.arange(m + 1)).tolist()
    rows = [dict(zip(cs[a:b], vs[a:b])) for a, b in zip(ends, ends[1:])]
    cols = [set() for _ in range(n)]
    for i, j in zip(A.rows.tolist(), cs):
        cols[j].add(i)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    k = 0
    while heap:
        count, j = heapq.heappop(heap)
        col = cols[j]
        if count != len(col):
            continue
        p, best = None, None
        for i in col:
            if rows[i][j] in (1, -1) and (best is None or (len(rows[i]), i) < best):
                p, best = i, (len(rows[i]), i)
        if p is None:
            continue
        pivot, rows[p] = rows[p], {}
        u = pivot.pop(j)                # +-1, its own inverse
        col.discard(p)
        cols[j] = set()
        items = list(pivot.items())
        for i in col:
            row = rows[i]
            f = row.pop(j) * u
            for c, v in items:
                x = row.get(c)
                if x is None:
                    row[c] = -f * v
                    cols[c].add(i)
                elif x := x - f * v:
                    row[c] = x
                else:
                    del row[c]
                    cols[c].discard(i)
        for c, _ in items:
            cols[c].discard(p)
            heapq.heappush(heap, (len(cols[c]), c))
        k += 1
    live_rows = [i for i in range(m) if rows[i]]
    live_cols = [j for j in range(n) if cols[j]]
    where = {j: t for t, j in enumerate(live_cols)}
    R = zeros(len(live_rows), len(live_cols))
    for s, i in enumerate(live_rows):
        for j, v in rows[i].items():
            R[s, where[j]] = v
    return k, R


def _axpy(dst, src, q):
    """dst -= q * src, on lines kept as dicts {index: nonzero value}."""
    for c, v in src.items():
        x = dst.get(c, 0) - q * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def _mix(a, b, x, y, z, w):
    """(x a + y b, z a + w b) for dict lines a and b, as two new dicts."""
    new_a, new_b = {}, {}
    for c in a.keys() | b.keys():
        u, v = a.get(c, 0), b.get(c, 0)
        if p := x * u + y * v:
            new_a[c] = p
        if q := z * u + w * v:
            new_b[c] = q
    return new_a, new_b


def _replace(lines, cross, s, i, new_s, new_i):
    """Set lines s and i of a matrix kept both as lines and as the
    transposed lines `cross`."""
    for k in (s, i):
        for c in lines[k]:
            del cross[c][k]
    for k, new in ((s, new_s), (i, new_i)):
        for c, v in new.items():
            cross[c][k] = v
        lines[k] = new


class _Side:
    """One side of the elimination of D: the lines it combines (rows for
    row operations, columns for column operations), the transposed view
    `cross` kept in step, the transform T whose lines follow the same
    operations and Tinv, whose lines follow the inverse ones (T and Tinv
    may be None).  Every row of D that an operation may change goes into
    the set `dirty`."""

    def __init__(self, lines, cross, T, Tinv, dirty, rowwise):
        self.lines, self.cross, self.T, self.Tinv = lines, cross, T, Tinv
        self.dirty, self.rowwise = dirty, rowwise

    def op(self, i, t, q):
        """line_i -= q * line_t"""
        lines, cross = self.lines, self.cross
        if self.rowwise:
            self.dirty.add(i)
        else:
            self.dirty.update(lines[t])
        dst = lines[i]
        for c, v in lines[t].items():
            x = dst.get(c, 0) - q * v
            if x:
                dst[c] = cross[c][i] = x
            else:
                del dst[c], cross[c][i]
        if self.T is not None:
            _axpy(self.T[i], self.T[t], q)
        if self.Tinv is not None:
            _axpy(self.Tinv[t], self.Tinv[i], -q)

    def mix(self, t, i, x, y, z, w):
        """(line_t, line_i) <- (x line_t + y line_i, z line_t + w line_i),
        a step of determinant 1"""
        lines = self.lines
        if self.rowwise:
            self.dirty.update((t, i))
        else:
            self.dirty.update(lines[t])
            self.dirty.update(lines[i])
        _replace(lines, self.cross, t, i, *_mix(lines[t], lines[i], x, y, z, w))
        if self.T is not None:
            self.T[t], self.T[i] = _mix(self.T[t], self.T[i], x, y, z, w)
        if self.Tinv is not None:
            # the inverse of [[x, y], [z, w]] is [[w, -y], [-z, x]]
            self.Tinv[t], self.Tinv[i] = _mix(self.Tinv[t], self.Tinv[i], w, -z, -y, x)

    def swap(self, t, i):
        if i == t:
            return
        lines = self.lines
        if self.rowwise:
            self.dirty.update((t, i))
        _replace(lines, self.cross, t, i, lines[i], lines[t])
        for T in (self.T, self.Tinv):
            if T is not None:
                T[t], T[i] = T[i], T[t]

    def negate(self, t):
        if self.rowwise:
            self.dirty.add(t)
        line = self.lines[t]
        for c, v in line.items():
            line[c] = self.cross[c][t] = -v
        for T in (self.T, self.Tinv):
            if T is not None:
                T[t] = {k: -v for k, v in T[t].items()}

    def clear(self, t):
        """Zero the entries past t of the cross line t by operations
        against line t, in index order as the scalar loop does: line_i -=
        q * line_t when the pivot divides the entry, otherwise a gcd step
        on lines t and i, which makes the pivot their gcd."""
        lines = self.lines
        for i in sorted(self.cross[t]):
            if i == t:
                continue
            p, v = lines[t][t], lines[i][t]
            if v % p == 0:
                self.op(i, t, v // p)
            else:
                g, x, y = _xgcd(p, v)
                self.mix(t, i, x, y, -(v // g), p // g)


def _eliminate(M, U, V, Uinv, Vinv):
    """Reduce the integer matrix M to its Smith diagonal, which is
    returned, with the scalar loop's operations in its order.  U and V^-1
    are lists of row dicts, U^-1 and V of column dicts, each updated in
    place when not None.

    D is kept as one dict of nonzero Python ints per row and per column,
    so an operation touches only the entries it changes.  Each row caches
    its least |entry| and its gcd, recomputed only after an operation may
    have changed the row: the pivot is the first least entry in row-major
    order, and it divides everything below and right of it exactly when
    it divides the gcd of every row below."""
    A = as_sparse(M)
    m, n = A.shape
    rows, cols = [{} for _ in range(m)], [{} for _ in range(n)]
    for i, j, v in zip(A.rows.tolist(), A.cols.tolist(), A.vals.tolist()):
        rows[i][j] = cols[j][i] = int(v)
    # the caches: least is valid outside `dirty`, gcds outside `stale`
    least, gcds = [math.inf] * m, [0] * m
    dirty, stale = set(range(m)), set()
    by_rows = _Side(rows, cols, U, Uinv, dirty, True)
    by_cols = _Side(cols, rows, V, Vinv, dirty, False)

    def refresh():
        for i in dirty:
            least[i] = min(map(abs, rows[i].values()), default=math.inf)
        stale.update(dirty)
        dirty.clear()

    t = 0
    while t < min(m, n):
        refresh()
        best = min(least[t:])
        if best == math.inf:
            break
        i = least.index(best, t)
        by_rows.swap(t, i)
        by_cols.swap(t, min(k for k, v in rows[t].items() if abs(v) == best))
        while True:
            by_rows.clear(t)
            by_cols.clear(t)
            # a gcd step on columns can refill column t
            if len(cols[t]) == 1:
                break
        if rows[t][t] < 0:
            by_rows.negate(t)
        p = rows[t][t]
        if p != 1:
            refresh()
            for i in stale:
                gcds[i] = math.gcd(*rows[i].values())
            stale.clear()
            bad = next((i for i in range(t + 1, m) if gcds[i] % p), None)
            if bad is not None:
                # fold the offending row into row t and redo this pivot
                by_rows.op(t, bad, -1)
                continue
        t += 1
    return [rows[k].get(k, 0) for k in range(min(m, n))]


def _lines(k, size, live):
    """The identity of order k cut to its first `size` lines, as dict
    lines, or None when not `live`."""
    return [{i: 1} if i < size else {} for i in range(k)] if live else None


def _dense(lines, shape, columns=False):
    """The object matrix of the given shape whose rows (columns, if
    `columns`) are the dict lines."""
    out = zeros(*shape)
    for k, line in enumerate(lines):
        if line:
            idx, vals = list(line), list(line.values())
            if columns:
                out[idx, k] = vals
            else:
                out[k, idx] = vals
    return out


def smith_normal_form(mat, need_u=True, need_v=True, need_inverses=False,
                      v_rows=None):
    """Return (U, D, V) with U @ mat @ V == D, U and V unimodular.

    D is diagonal with a divisibility chain d_1 | d_2 | ... and d_i >= 0.
    With need_inverses, returns (U, D, V, Uinv, Vinv) instead; with
    need_v=False as well, V and Vinv are not computed and are None.
    Pivoting picks the first minimal nonzero absolute value in row-major
    order to limit swell.  With v_rows, V holds only its first v_rows
    rows (column operations act on each row of V on its own).  The
    results equal, entry for entry, those of the scalar elimination kept
    as an oracle in tests/oracles.py: `_eliminate` performs the same
    operations in the same order, on sparse rows of Python ints.  For
    the diagonal alone, `invariant_factors` is faster.
    """
    M = as_sparse(mat)
    m, n = M.shape
    U = _lines(m, m, need_u or need_inverses)
    v_rows = n if v_rows is None else v_rows
    V = _lines(n, v_rows, need_v)
    Uinv, Vinv = _lines(m, m, need_inverses), _lines(n, n, need_inverses and need_v)
    d = _eliminate(M, U, V, Uinv, Vinv)
    D = zeros(m, n)
    D[range(len(d)), range(len(d))] = d
    if U is not None:
        U = _dense(U, (m, m))
    if V is not None:
        V = _dense(V, (v_rows, n), columns=True)
    if need_inverses:
        return U, D, V, _dense(Uinv, (m, m), columns=True), \
            None if Vinv is None else _dense(Vinv, (n, n))
    return (U if need_u else None), D, V


def diagonal_of(D):
    m, n = D.shape
    return [D[i, i] for i in range(min(m, n))]


def invariant_factors(mat):
    """The nonzero invariant factors d_1 | d_2 | ... of an integer matrix
    (Sparse, or coerced to it), with no transform: the +-1 pivots are
    eliminated on the nonzeros (`_unit_pivots`), then the Smith loop runs
    on the residual, whose diagonal after them is the matrix's."""
    ones, R = _unit_pivots(mat)
    return [1] * ones + [d for d in _eliminate(R, None, None, None, None) if d]


def product(A, B):
    """A @ B for integer matrices (Sparse, or coerced to it), as a Sparse
    matrix.  The nonzero entries are multiplied as triplets, one term per
    pair A[i, l], B[l, j], and summed per cell by `sparse`: in int64 when
    a bound shows that no term or sum can overflow, on Python ints
    otherwise."""
    A, B = as_sparse(A), as_sparse(B)
    (m, k), n = A.shape, B.shape[1]
    count = np.bincount(B.rows, minlength=k)
    per = count[A.cols]
    # term t pairs A's nonzero s[t] with B's nonzero e[t]; B's nonzeros
    # come in row-major order, so those of row l of B are a run
    s = np.repeat(np.arange(A.nnz), per)
    e = np.repeat((np.cumsum(count) - count)[A.cols] - (np.cumsum(per) - per), per) + \
        np.arange(len(s))
    a, b = A.vals, B.vals
    # |(A @ B)[i, j]| <= inner dim * max|A| * max|B|, and so is every partial sum
    if _top(a) * _top(b) * k >= _LIMIT:
        a, b = a.astype(object), b.astype(object)
    return sparse((m, n), A.rows[s], B.cols[e], a[s] * b[e])


def int_kernel(mat, rows=None):
    """Basis (columns) of the integer kernel {x : mat @ x == 0}; with
    `rows`, only the first `rows` coordinates of each basis vector."""
    _, D, V = smith_normal_form(mat, need_u=False, v_rows=rows)
    # the columns of V past the rank of M
    return V[:, sum(1 for d in diagonal_of(D) if d):]


class IntSolver:
    """Precomputed SNF factorisation for repeated solves of M x = b over Z.

    With `relations` R, solves M x = b modulo the column span of R: the
    factorisation is that of [M | R], and a solution keeps only the
    coordinates of M's columns.  An M with no columns needs no special
    case: b is then solvable exactly when it lies in span(R)."""

    def __init__(self, mat, relations=None):
        M = as_sparse(mat)
        n = M.shape[1]
        if relations is not None:
            M = block([[M, relations]])
        self.m, self.n = M.shape
        # column operations act on each row of V on its own, so its
        # first n rows are those of the full transform
        self.U, D, self.V = smith_normal_form(M, v_rows=n)
        self.diag = diagonal_of(D)
        # the nonzero diagonal entries come first; rows of U @ b past them
        # must vanish, the others are divided by them
        self._divisors = np.array([d for d in self.diag if d], dtype=object).reshape(-1, 1)

    def solve(self, b):
        """A particular integer solution of M x = b (mod R), or None.  A
        matrix b (dense or Sparse) is solved column by column with one
        product U @ b, and gives None if any column has no solution."""
        B = b if isinstance(b, Sparse) else np.array(b, dtype=object)
        if one := len(B.shape) == 1:
            B = B.reshape(-1, 1)
        C = self.U @ B
        r = len(self._divisors)
        if (C[:r] % self._divisors).any() or C[r:].any():
            return None
        Y = zeros(self.n, B.shape[1])
        Y[:r] = C[:r] // self._divisors
        X = self.V @ Y
        return X[:, 0] if one else X


class GroupKey:
    """Order, elements and name of a finitely generated abelian group read
    from its attributes free_rank and invariant_factors."""

    def group_key(self):
        return (self.free_rank, tuple(self.invariant_factors))

    def order(self):
        return 0 if self.free_rank else math.prod(self.invariant_factors)

    def all_classes(self):
        """Iterate canonical coordinates of every class (finite groups only)."""
        if self.free_rank:
            raise ValueError("group is infinite")
        return itertools.product(*map(range, self.invariant_factors))

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


class AbelianGroupPresentation(GroupKey):
    """A quotient K / L of lattices, presented by invariant factors.

    K is spanned by the columns of `basis` (full column rank, inside Z^k);
    L is spanned by `sub_gens` (each expressible in K, checked).  Exposes
    free rank, invariant factors d_1 | d_2 | ..., generator lifts into the
    ambient Z^k, and canonical class coordinates for membership tests.

    With P U Q = D the Smith form of the coordinates U of L in K, the
    columns of basis @ P^-1 generate K / L with the orders of the diagonal
    of D, and P maps K-coordinates to theirs.  Only the generators of
    order != 1 are kept: `gens` holds them as columns, the torsion ones in
    invariant-factor order and then the free ones, with their `orders` (0
    for free) and the matching rows of P."""

    def __init__(self, basis, sub_gens):
        B = as_int_matrix(basis)
        G = as_sparse(sub_gens)
        k, mdim = B.shape
        if G.shape[0] != k and 0 in G.shape:
            G = Sparse((k, 0), G.rows, G.cols, G.vals)
        self.ambient_dim, self.basis = k, B
        self._solver = IntSolver(B)
        Umat = self._solver.solve(G)
        if Umat is None:
            raise ValueError("image not contained in kernel")
        P, D, _, Pinv, _ = smith_normal_form(Umat, need_v=False, need_inverses=True)
        diag = diagonal_of(D)
        self.invariant_factors = [d for d in diag if d > 1]
        self.free_rank = mdim - sum(1 for d in diag if d)
        # the diagonal is 1, ..., 1, the invariant factors, then 0 (free)
        live = slice(sum(1 for d in diag if d == 1), mdim)
        self.gens = as_sparse(B) @ Pinv[:, live]
        self.orders = self.invariant_factors + [0] * self.free_rank
        self._P = P[live]

    def generators(self):
        """Ambient lift of each surviving generator, paired with its order."""
        return list(zip(self.gens.T, self.orders))

    def split_generators(self):
        """(free generator columns, [(torsion column, order), ...]) with the
        torsion part in invariant-factor order."""
        t = len(self.invariant_factors)
        return list(self.gens.T[t:]), list(zip(self.gens.T[:t], self.invariant_factors))

    def class_coords(self, vec):
        """Canonical coordinates of [vec]; None if vec is not in K."""
        w = self._solver.solve(vec)
        if w is None:
            return None
        coords = self._P @ w
        t = len(self.invariant_factors)
        coords[:t] %= np.array(self.invariant_factors, dtype=object)
        return tuple(map(int, coords))

    def lift(self, coords):
        """Ambient representative of the class with the given coordinates."""
        return self.gens @ np.array(coords, dtype=object)


def quotient(ker_basis, img_gens):
    """Present ker/im; raises ValueError if im is not inside ker."""
    return AbelianGroupPresentation(ker_basis, img_gens)


def lattice_mod_relations(constraint, relations, modulus_relations):
    """Present {x : constraint @ x in span(modulus_relations)} / span(relations).

    The common pattern behind kernels of maps between groups given as
    Z^k / relations: `constraint` maps into an ambient whose relation
    lattice is `modulus_relations`."""
    C = as_sparse(constraint)
    # the projected kernel columns may be dependent; re-extract a basis
    B = lattice_basis(int_kernel(block([[C, modulus_relations]]), rows=C.shape[1]))
    return AbelianGroupPresentation(B, relations)


def lattice_basis(gens):
    """A basis of the lattice spanned by the given generator columns, as
    a dense matrix.

    span(G) == span(G @ V) for unimodular V, and in SNF coordinates
    G @ V = U^-1 D, whose first rank columns are independent and whose
    others are zero."""
    G = as_sparse(gens)
    _, D, V = smith_normal_form(G, need_u=False)
    return G @ V[:, :sum(1 for d in diagonal_of(D) if d)]


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


# an integer matrix num standing for the rational matrix num / scale, and
# the Fraction num / scale of every entry of a dense num
Scaled = namedtuple("Scaled", "num scale")
frac_divide = np.frompyfunc(Fraction, 2, 1)


def cleared(mat):
    """Scaled(mat * scale as Python ints in an object matrix, scale), where
    the scale is the lcm of the denominators of the entries."""
    num, den = _ratio(as_int_matrix(mat))
    scale = math.lcm(*set(den.flat))
    return Scaled(num * (scale // den), scale)


def frac_zeros(m, n):
    return np.full((m, n), Fraction(0), dtype=object)


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
    """Rank over Q: the number of nonzero invariant factors.  A Sparse
    matrix is an integer one (the numerator of a Scaled matrix has the
    rank of the matrix); any other is cleared to integers first."""
    return len(invariant_factors(mat if isinstance(mat, Sparse) else cleared(mat).num))


def frac_kernel(mat):
    """Columns spanning the rational null space."""
    M = as_frac_matrix(mat)
    m, n = M.shape
    if n == 0:
        return frac_zeros(0, 0)
    if m == 0 or M.size == 0:
        return as_frac_matrix(eye(n))
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
