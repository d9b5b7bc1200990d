import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from realcech import exact
from realcech.cochains import RealComplex


def random_matrix(rng, m, n, lo=-6, hi=6):
    return exact.as_int_matrix(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


@pytest.mark.parametrize("mat,expected", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[0, 0], [0, 0]], [0, 0]),
    ([[1, 0], [0, 1]], [1, 1]),
])
def test_snf_examples(mat, expected):
    U, D, V = exact.smith_normal_form(mat)
    assert exact.diagonal_of(D) == expected
    assert (U @ exact.as_int_matrix(mat) @ V == D).all()


def test_snf_random_properties():
    rng = random.Random(20240817)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        U, D, V, Ui, Vi = exact.smith_normal_form(M, need_inverses=True)
        assert (U @ M @ V == D).all()
        # unimodularity re-verified through the tracked inverses
        assert (U @ Ui == exact.eye(m)).all()
        assert (V @ Vi == exact.eye(n)).all()
        diag = [d for d in exact.diagonal_of(D) if d != 0]
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0


def test_solve_examples():
    assert list(exact.IntSolver([[2]]).solve([4])) == [2]
    assert exact.IntSolver([[2]]).solve([3]) is None
    x = exact.frac_solve([[2]], [3])
    assert x is not None and x[0] * 2 == 3


def test_solve_always_recovers_images():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = random_matrix(rng, m, n)
        x = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=object)
        b = M @ x
        x2 = exact.IntSolver(M).solve(b)
        assert x2 is not None
        assert (M @ x2 == b).all()


def test_solve_modulo_relations_against_brute_force():
    # A x = b modulo diagonal moduli d_i: x matters only modulo their lcm,
    # so a search over [0, lcm)^n decides solvability
    rng = random.Random(11)
    for _ in range(60):
        m, n = rng.randint(1, 3), rng.randint(0, 3)
        A = random_matrix(rng, m, n, -4, 4) if n else exact.zeros(m, 0)
        moduli = [rng.randint(1, 4) for _ in range(m)]
        R = exact.zeros(m, m)
        for i, d in enumerate(moduli):
            R[i, i] = d
        b = np.array([rng.randint(-6, 6) for _ in range(m)], dtype=object)
        x = exact.IntSolver(A, R).solve(b)
        lcm = int(np.lcm.reduce(moduli))
        grid = np.array(list(itertools.product(range(lcm), repeat=n)),
                        dtype=np.int64).reshape(lcm ** n, n)
        residues = (grid @ A.T.astype(np.int64) - b.astype(np.int64)) % moduli
        solvable = bool((residues == 0).all(axis=1).any())
        assert (x is not None) == solvable, (A, moduli, b)
        if x is not None:
            assert len(x) == n
            assert all(v % d == 0 for v, d in zip(A @ x - b, moduli))


def test_kernel():
    K = exact.int_kernel([[1, 1, 0]])
    assert K.shape == (3, 2)
    M = exact.as_int_matrix([[1, 1, 0]])
    assert all(v == 0 for v in (M @ K).flat)
    assert exact.int_kernel([[1, 0], [0, 1]]).shape[1] == 0


@pytest.mark.parametrize("ker,img,key", [
    ([[1, 0], [0, 1]], [[2], [0]], (1, (2,))),   # Z^2 / 2Z+0 = Z/2 + Z
    ([[1, 0], [0, 1]], [[1, 0], [0, 1]], (0, ())),
    ([[1, 0], [0, 1]], [[0], [0]], (2, ())),
])
def test_quotient_examples(ker, img, key):
    q = exact.quotient(ker, img)
    assert q.group_key() == key


def test_quotient_rejects_outside_image():
    with pytest.raises(ValueError, match="image not contained"):
        exact.quotient([[2], [0]], [[1], [0]])


def test_quotient_basis_permutation_invariance():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 4)
        B = exact.eye(n)
        g = rng.randint(0, n)
        G = random_matrix(rng, n, g, -4, 4)
        key = exact.quotient(B, G).group_key()
        perm = list(range(n))
        rng.shuffle(perm)
        P = exact.zeros(n, n)
        for i, j in enumerate(perm):
            P[i, j] = 1
        key2 = exact.quotient(P, P @ G if g else exact.zeros(n, 0)).group_key()
        assert key == key2


def test_class_coords_and_lift():
    q = exact.quotient(exact.eye(2), [[2], [0]])
    for coords in [(0, 0), (1, 0), (0, 5), (1, -3)]:
        v = q.lift(coords)
        back = q.class_coords(v)
        norm = (coords[0] % 2, coords[1]) if q.invariant_factors == [2] else coords
        # coordinate order: torsion generators come first in this presentation
        assert back is not None
    gen_orders = sorted(o for _, o in q.generators())
    assert gen_orders == [0, 2]


def test_rational_rank_and_kernel():
    assert exact.frac_rank([[1, 2], [2, 4]]) == 1
    K = exact.frac_kernel([[1, 2], [2, 4]])
    assert K.shape[1] == 1
    M = exact.as_frac_matrix([[1, 2], [2, 4]])
    assert all(v == 0 for v in (M @ K).flat)


def test_lattice_basis():
    B = exact.lattice_basis([[2, 4], [0, 0]])
    assert B.shape == (2, 1)
    assert abs(B[0, 0]) == 2 and B[1, 0] == 0


# -- the vectorised Smith form against the scalar oracle ---------------

FLAG_SETS = [dict(need_u=u, need_v=v, need_inverses=i)
             for u, v, i in itertools.product([False, True], repeat=3)]


def assert_same_snf(got, want):
    """Entry-for-entry equality, every entry a Python int."""
    assert len(got) == len(want)
    for A, B in zip(got, want):
        if B is None:
            assert A is None
            continue
        assert A.dtype == object and A.shape == B.shape
        assert all(type(x) is int for x in A.flat)
        assert [int(x) for x in A.flat] == [int(x) for x in B.flat]


def test_inverses_without_v_leave_out_v_and_its_inverse():
    # need_v=False with need_inverses=True: U, D and U^-1 as with V, and
    # neither V nor V^-1, in the package and in the oracle alike
    rng = random.Random(21)
    for M in oracle_cases(rng):
        U, D, _, Uinv, _ = exact.smith_normal_form(M, need_inverses=True)
        for snf in (exact.smith_normal_form, oracles.smith_normal_form,
                    oracles.dense_smith_normal_form):
            got = snf(M, need_v=False, need_inverses=True)
            assert got[2] is None and got[4] is None
            assert_same_snf([got[0], got[1], got[3]], [U, D, Uinv])


def oracle_cases(rng):
    """Random matrices whose elimination takes unit pivots, gcd steps or
    fold-backs, plus empty shapes and zero rows or columns."""
    yield from (exact.zeros(m, n) for m, n in [(0, 0), (0, 3), (3, 0)])
    yield exact.as_int_matrix([[2, 0], [0, 3]])     # fold-back
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield exact.as_int_matrix([[rng.choice([0, 0, 0, 1, -1, 2])
                                    for _ in range(n)] for _ in range(m)])
        yield exact.as_int_matrix([[rng.choice([0, 2, -3, 4, 6, -9, 10, 15])
                                    for _ in range(n)] for _ in range(m)])
        diag = exact.zeros(m, n)
        for i in range(min(m, n)):
            diag[i, i] = rng.choice([0, 2, 3, 5, 4, 9])
        yield diag[rng.sample(range(m), m)][:, rng.sample(range(n), n)]
        M = random_matrix(rng, m, n)
        M[rng.randrange(m), :] = 0
        M[:, rng.randrange(n)] = 0
        yield M


def test_snf_matches_scalar_oracle_on_random_matrices():
    rng = random.Random(4)
    for M in oracle_cases(rng):
        flags = rng.choice(FLAG_SETS)
        assert_same_snf(exact.smith_normal_form(M, **flags),
                        oracles.smith_normal_form(M, **flags))


def kernel_matrices(corpus, presets, top):
    """The distinct [D_n | R_next] matrices whose kernels cohomology
    presents, with the column count of D_n."""
    seen = set()
    for _, g in corpus:
        for _, S in presets:
            cx = RealComplex(g, S)
            for n in range(top + 1):
                R = cx.basis(n + 1).relation_matrix()
                D = cx.differential_matrix(n)
                M = np.concatenate([D, R], axis=1) if R.shape[1] else D
                key = (M.shape, tuple(M.flat))
                if key not in seen:
                    seen.add(key)
                    yield M, D.shape[1]


def test_snf_matches_scalar_oracle_on_cohomology_kernels(corpus, presets):
    for M, _ in kernel_matrices(corpus, presets, 3):
        assert_same_snf(exact.smith_normal_form(M, need_u=False),
                        oracles.smith_normal_form(M, need_u=False))


def test_kernel_rows_are_a_prefix(corpus, presets):
    rng = random.Random(11)
    cases = [(random_matrix(rng, 3, 5), r) for r in (0, 2, 5)]
    cases += list(kernel_matrices(corpus, presets, 2))
    for M, r in cases:
        assert_same_snf([exact.int_kernel(M, rows=r)], [exact.int_kernel(M)[:r]])


def test_snf_starts_in_python_ints_past_int64():
    rng = random.Random(2)
    for _ in range(20):
        M = random_matrix(rng, 3, 4)
        M[rng.randrange(3), rng.randrange(4)] = rng.choice([2 ** 63, -2 ** 64 - 3])
        for flags in FLAG_SETS:
            assert_same_snf(exact.smith_normal_form(M, **flags),
                            oracles.smith_normal_form(M, **flags))


def test_snf_promotes_before_int64_wraps():
    # coprime pivots near 2^40: the fold-back and gcd steps reach 2^80
    p, q = 2 ** 40 + 15, 2 ** 41 + 21
    M = exact.as_int_matrix([[p, 0], [0, q]])
    got = exact.smith_normal_form(M, need_inverses=True)
    assert exact.diagonal_of(got[1]) == [1, p * q]
    assert_same_snf(got, oracles.smith_normal_form(M, need_inverses=True))
    rng = random.Random(3)
    for _ in range(20):
        M = random_matrix(rng, 3, 3, -2 ** 40, 2 ** 40)
        want = oracles.smith_normal_form(M, need_inverses=True)
        assert max(abs(x) for x in want[1].flat) >= 2 ** 62    # D itself
        assert_same_snf(exact.smith_normal_form(M, need_inverses=True), want)


def test_frac_matrix_of_int64_does_not_wrap():
    x = exact.as_frac_matrix(np.array([[2 ** 40]], dtype=np.int64))[0, 0]
    assert x ** 2 == 2 ** 80
    assert type(x.numerator) is int


def rref_rank(M):
    """The rank by Fraction row reduction, the oracle for frac_rank."""
    return len(exact._rref(exact.as_frac_matrix(M)))


def random_fraction_matrix(rng, m, n, top=9, den=12):
    return np.array([[Fraction(rng.randint(-top, top), rng.randint(1, den))
                      if rng.random() < 0.7 else Fraction(0)
                      for _ in range(n)] for _ in range(m)],
                    dtype=object).reshape(m, n)


def frac_rank_cases(rng):
    """Random rational matrices, rank-deficient products, empty and zero
    shapes, int64 input, and entries near or past 2^62."""
    for m, n in [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)]:
        yield exact.zeros(m, n)
        yield exact.frac_zeros(m, n)
    for _ in range(80):
        yield random_fraction_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    for _ in range(50):
        r = rng.randint(0, 3)
        m, n = rng.randint(r + 1, 7), rng.randint(r + 1, 7)
        yield (random_fraction_matrix(rng, m, r)
               @ random_fraction_matrix(rng, r, n)).reshape(m, n)
    for _ in range(30):
        yield np.array([[rng.randint(-5, 5) for _ in range(4)] for _ in range(5)],
                       dtype=np.int64)
    big = 1 << 62
    for _ in range(20):
        # int64 entries next to 2^62: the elimination leaves int64
        yield np.array([[rng.choice([big - rng.randint(1, 9), -big + 1, 0, 1])
                         for _ in range(3)] for _ in range(4)], dtype=np.int64)
        # full rank, but the determinant -2^64 uv is 0 modulo 2^64
        u, v = rng.randint(1, 7), rng.randint(1, 7)
        yield np.array([[1, u << 32], [v << 32, 0]], dtype=np.int64)
    for _ in range(30):
        # entries past 2^62 once cleared, and rank-deficient products of them
        A = random_fraction_matrix(rng, 4, 2) * big
        B = random_fraction_matrix(rng, 2, 5) + Fraction(big, rng.randint(1, 12))
        yield A @ B
        yield np.concatenate([A, random_fraction_matrix(rng, 4, 3) * 7 * big], axis=1)


def test_frac_rank_matches_rref():
    rng = random.Random(12)
    cases = list(frac_rank_cases(rng))
    assert len(cases) >= 200
    deficient = past = 0
    for M in cases:
        want = rref_rank(M)
        assert exact.frac_rank(M) == want
        deficient += 0 < want < min(M.shape)
        past += M.size and max(abs(x) for x in exact.cleared(M)[0].flat) >= 1 << 62
    assert deficient >= 50 and past >= 40


def test_cleared_scales_exactly():
    rng = random.Random(13)
    for _ in range(30):
        M = random_fraction_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        A, scale = exact.cleared(M)
        assert scale == math.lcm(*(v.denominator for v in M.flat))
        assert A.shape == M.shape and all(type(x) is int for x in A.flat)
        assert all(a == v * scale for a, v in zip(A.flat, M.flat))
    assert exact.cleared([[Fraction(1, 2), Fraction(1, 3)]])[0].tolist() == [[3, 2]]
    # numpy integers are read as Python ints, so scaling cannot wrap
    for M in (np.array([[2 ** 62, 1]], dtype=np.int64),
              np.array([[np.int64(2 ** 62), Fraction(1, 4)]], dtype=object)):
        A, scale = exact.cleared(M)
        assert A.tolist() == [[2 ** 62 * scale, M[0, 1] * scale]]
        assert all(type(x) is int for x in A.flat)
    assert scale == 4


def invariant_factor_cases(rng):
    """Empty and zero shapes, random small matrices, rank-deficient
    products, and matrices with entries past 2^62."""
    for m, n in [(0, 0), (0, 3), (3, 0), (2, 3), (4, 1)]:
        yield exact.zeros(m, n)
    for _ in range(80):
        yield random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    for _ in range(50):
        r = rng.randint(0, 3)
        m, n = rng.randint(r + 1, 6), rng.randint(r + 1, 6)
        yield random_matrix(rng, m, r) @ random_matrix(rng, r, n)
    for _ in range(65):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        M[rng.randrange(M.shape[0]), rng.randrange(M.shape[1])] = rng.choice(
            [2 ** 62, -2 ** 63 - 5, 3 * 2 ** 70, 2 ** 40 + 15])
        yield M


def test_invariant_factors_match_sympy():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(14)
    cases = list(invariant_factor_cases(rng))
    assert len(cases) >= 200
    past = 0
    for M in cases:
        want = [int(d) for d in invariant_factors(Matrix(M.tolist()).reshape(*M.shape),
                                                  domain=ZZ) if d != 0]
        got = exact.invariant_factors(M)
        assert got == want and all(type(d) is int for d in got), M.tolist()
        past += M.size and max(abs(x) for x in M.flat) >= 1 << 62
    assert past >= 40


def test_product_matches_object_product():
    rng = random.Random(15)
    for lo, hi in [(-6, 6), (-2 ** 30, 2 ** 30), (-2 ** 40, 2 ** 40)]:
        for m, k, n in [(0, 3, 2), (3, 0, 2), (3, 4, 0), (4, 5, 3)]:
            A = random_matrix(rng, m, k, lo, hi).reshape(m, k)
            B = random_matrix(rng, k, n, lo, hi).reshape(k, n)
            got = exact.to_dense(exact.product(A, B))
            assert got.dtype == object and got.shape == (m, n)
            assert all(type(x) is int for x in got.flat)
            assert got.tolist() == (A @ B).tolist()


# -- the unit-pivot phase of the transform-free Smith form -----------------

def entries_matrix(rng, m, n, values):
    return exact.as_int_matrix(
        [[rng.choice(values) for _ in range(n)] for _ in range(m)]).reshape(m, n)


def unit_pivot_cases(rng):
    """(kind, matrix) for the unit-pivot phase: sparse and rich in +-1, no
    unit entry at all, small dense +-1, zero rows and columns and empty
    shapes, entries at or past 2^62, and fill-in past 2^62 from int64
    entries."""
    for m, n in [(0, 0), (0, 5), (5, 0), (1, 1), (4, 3)]:
        yield "zero", exact.zeros(m, n)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        yield "sparse", entries_matrix(rng, m, n, [0] * 8 + [1, -1, 1, -1, 2, -3])
    for _ in range(25):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        yield "no unit", entries_matrix(rng, m, n, [0, 0, 0, 2, -2, 3, 4, -6, 9])
    for _ in range(25):
        yield "dense", entries_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), [1, -1])
    for _ in range(20):
        M = entries_matrix(rng, rng.randint(2, 9), rng.randint(2, 9), [0] * 4 + [1, -1, 2])
        M[rng.randrange(M.shape[0]), :] = 0
        M[:, rng.randrange(M.shape[1])] = 0
        yield "zero lines", M
    for _ in range(20):
        M = entries_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), [0, 0, 1, -1, 2])
        for _ in range(rng.randint(1, 3)):
            M[rng.randrange(M.shape[0]), rng.randrange(M.shape[1])] = rng.choice(
                [2 ** 62, -2 ** 62, 2 ** 63 + 5, -3 * 2 ** 70])
        yield "big", M
    for _ in range(20):
        # a unit pivot whose row and column hold entries near 2^40: clearing
        # it leaves their products, near 2^80, in the residual
        M = entries_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), [0, 0, 1, -1, 3])
        M[0, 0] = rng.choice([1, -1])
        M[0, 1:] = [rng.randint(2 ** 40, 2 ** 41) for _ in range(M.shape[1] - 1)]
        M[1:, 0] = [rng.randint(-2 ** 41, -2 ** 40) for _ in range(M.shape[0] - 1)]
        yield "fill", M


def test_unit_pivots_keep_the_invariant_factors():
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(16)
    kinds, pivoted, wide = {}, 0, 0
    for kind, M in unit_pivot_cases(rng):
        kinds[kind] = kinds.get(kind, 0) + 1
        got = exact.smith_normal_form(M, need_u=False, need_v=False)
        assert got[0] is None and got[2] is None
        # the dense loop, which skips the unit-pivot phase with a transform
        # asked for, is the oracle
        assert_same_snf(got[1:2], oracles.dense_smith_normal_form(M, need_u=False)[1:2])
        want = [int(d) for d in invariant_factors(Matrix(M.tolist()).reshape(*M.shape),
                                                  domain=ZZ) if d != 0]
        assert exact.invariant_factors(M) == want, (kind, M.tolist())
        k, R = exact._unit_pivots(M)
        assert R.shape[0] <= M.shape[0] - k and R.shape[1] <= M.shape[1] - k
        pivoted += k > 0
        if kind == "no unit":
            assert k == 0
        if kind == "fill":
            assert exact._top(M) < 2 ** 62
            wide += exact._top(R) >= 2 ** 62
    assert len(kinds) == 7 and pivoted >= 100 and wide >= 15


def test_unit_pivots_match_the_dense_loop_on_key_matrices(count_calls):
    from conftest import coefficient_presets, corpus_groupoids
    from test_cohomology_key import MIXED
    from realcech.cochains import cohomology_key
    # the key matrices and free-part rank matrices of corpus x presets in
    # degrees 0-3 and of the mixed coefficient groups in degrees 0-2
    calls = count_calls(exact, "invariant_factors")
    for top, groups in ((3, coefficient_presets()), (2, MIXED)):
        for _, S in groups:
            for _, g in corpus_groupoids():
                cx = RealComplex(g, S)
                for n in range(top + 1):
                    cohomology_key(cx, n)
    matrices = {(M.shape, tuple(M.flat)): M for (M,) in calls}
    assert len(matrices) >= 200
    for M in matrices.values():
        assert_same_snf(exact.smith_normal_form(M, need_u=False, need_v=False)[1:2],
                        oracles.dense_smith_normal_form(M, need_u=False)[1:2])


def test_elimination_sees_only_the_residual_of_a_key(count_calls):
    from realcech import standard
    from realcech.cochains import cohomology_key
    from realcech.coefficients import make_standard
    cx = RealComplex(standard.pair_groupoid(3), make_standard("mu(4)_conj"))
    cx.differential_matrix(3)
    factors = count_calls(exact, "invariant_factors")
    loops = count_calls(exact, "_eliminate")
    assert cohomology_key(cx, 3) == (0, [])
    assert max(args[0].shape for args in factors) == (324, 108)
    # the elimination loop runs on the residual of the unit pivots only
    assert loops and all(args[0].shape[1] <= 11 for args in loops)


# -- the sparse elimination against the dense int64 loop -------------------

def sparse_cases(rng):
    """40 seeded sparse matrices up to 80 x 120, entries from {0, +-1,
    +-2, +-4, 3}, about one and a half nonzeros per row, and a v_rows
    for each."""
    for _ in range(40):
        m, n = rng.randint(1, 80), rng.randint(1, 120)
        M = exact.zeros(m, n)
        for _ in range(3 * m // 2 + 1):
            M[rng.randrange(m), rng.randrange(n)] = rng.choice([1, -1, 2, -2, 4, -4, 3])
        yield M, rng.randint(0, n)


def test_snf_matches_dense_oracle_on_sparse_matrices():
    rng = random.Random(15)
    non_unit = 0
    for M, v_rows in sparse_cases(rng):
        for flags in FLAG_SETS + [dict(need_u=False, v_rows=v_rows),
                                  dict(need_inverses=True, v_rows=v_rows)]:
            want = oracles.dense_smith_normal_form(M, **flags)
            assert_same_snf(exact.smith_normal_form(M, **flags), want)
        # an invariant factor > 1 comes from gcd steps or fold-backs
        non_unit += any(d > 1 for d in exact.diagonal_of(want[1]))
    assert non_unit >= 5


def test_snf_matches_dense_oracle_on_presentations(corpus, presets, monkeypatch):
    """The Smith forms of int_kernel, lattice_basis, IntSolver and the
    presentation itself, for HR^0..HR^2 of corpus x presets."""
    calls, original = [], exact.smith_normal_form

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(exact, "smith_normal_form", recorded)
    for _, g in corpus:
        for _, S in presets:
            cx = RealComplex(g, S)
            for n in range(3):
                cx.cohomology(n).presentation
    monkeypatch.undo()
    callers = {"need_inverses": 0, "v_rows": 0, "need_u": 0}
    for args, kwargs in calls:
        for key in callers:
            callers[key] += key in kwargs
        assert_same_snf(exact.smith_normal_form(*args, **kwargs),
                        oracles.dense_smith_normal_form(*args, **kwargs))
    assert min(callers.values()) >= 100


def test_sparse_product_matches_object_product():
    rng = random.Random(18)
    values = [0] * 12 + [1, -1, 2, -3]
    for _ in range(60):
        m, k, n = rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30)
        A, B = entries_matrix(rng, m, k, values), entries_matrix(rng, k, n, values)
        if rng.random() < 0.3 and A.size and B.size:
            # past the int64 bound, or just below it
            A[rng.randrange(m), rng.randrange(k)] = rng.choice([2 ** 62, 2 ** 61 // (k * 3)])
        got = exact.to_dense(exact.product(A, B))
        assert got.dtype == object and got.shape == (m, n)
        assert all(type(x) is int for x in got.flat)
        assert got.tolist() == (A @ B).tolist()
