"""The sparse integer matrices of the rational complex: d and h kept as
nonzero triplets from assembly to rank, product and the contraction
identity, checked against the Fraction route, sympy and dense products."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import fraction_contraction, fraction_differential
from realcech import exact, standard
from realcech.coefficients import RealRepresentation
from realcech.proper import RepComplex, contraction_is_homotopy, vanishing_check
from test_proper import corpus_representations, rational_cases


def assert_canonical(A):
    """Row-major entries, no zeros, no repeats, int64 exactly when every
    value is below 2^62 in size."""
    assert isinstance(A, exact.Sparse)
    assert A.rows.dtype == A.cols.dtype == np.int64
    code = A.rows * A.shape[1] + A.cols
    assert (np.diff(code) > 0).all() and (A.vals != 0).all()
    assert ((A.rows >= 0) & (A.rows < A.shape[0]) & (A.cols >= 0)).all()
    assert (A.cols < A.shape[1]).all()
    small = all(abs(int(v)) < 2 ** 62 for v in A.vals.tolist())
    assert A.vals.dtype == (np.int64 if small else object)


def near_2_62(rho_obj):
    """pair2 with nu = [[1, 0], [2^62, -1]] at both objects: sums past the
    int64 bound, and with the objects swapped, entries past it too."""
    g = standard.pair_groupoid(2, rho_obj)
    rep = RealRepresentation(g, 1, 1, [np.eye(2, dtype=int).tolist()] * g.n_arrows,
                             [[[1, 0], [1 << 62, -1]]] * g.n_objects)
    assert rep.validate() == []
    return rep


def test_sparse_d_and_h_equal_the_fraction_route():
    cases = [(name, RepComplex(g, rep)) for name, g, rep in rational_cases()]
    name, g, rep = corpus_representations()[3]    # pair2 conjugated
    cases.append((name + ", cutoff 3/4, 5/6",
                  RepComplex(g, rep, cutoff=[Fraction(3, 4), Fraction(5, 6)])))
    for rho_obj in ([0, 1], [1, 0]):
        rep = near_2_62(rho_obj)
        cases.append((f"pair2 {rho_obj}, nu with 2^62", RepComplex(rep.groupoid, rep)))
    past = 0
    for name, cx in cases:
        for n in range(4):
            for got, want in ((cx.differential_matrix(n), fraction_differential(cx, n)),
                              (cx.contraction_matrix(n), fraction_contraction(cx, n))):
                assert_canonical(got.num)
                assert got.scale == want.scale, (name, n)
                assert got.num.shape == want.num.shape
                assert exact.to_dense(got.num).tolist() == want.num.tolist(), (name, n)
                past += got.num.vals.dtype == object
    assert past >= 4


def random_sparse(rng, m, n, values):
    return exact.as_int_matrix(
        [[rng.choice(values) for _ in range(n)] for _ in range(m)]).reshape(m, n)


def test_frac_rank_of_sparse_matrices_matches_sympy():
    from sympy import Matrix
    rng = random.Random(19)
    values = [0] * 10 + [1, -1, 1, -1, 2, -3, 4, 6]
    shapes = [(0, 0), (0, 5), (5, 0)] + [(rng.randint(1, 14), rng.randint(1, 14))
                                         for _ in range(37)]
    ranks = set()
    for m, n in shapes:
        M = random_sparse(rng, m, n, values)
        if m > 3 and n > 3 and rng.random() < 0.4:
            M[0] = 2 * M[1] - 3 * M[2]      # rank-deficient, non-unit combination
        A = exact.as_sparse(M)
        assert_canonical(A)
        want = Matrix(M.tolist()).reshape(m, n).rank() if m and n else 0
        assert exact.frac_rank(A) == want, M.tolist()
        ranks.add(want < min(m, n))
    assert ranks == {False, True}


def test_product_of_sparse_matrices_matches_the_object_product():
    rng = random.Random(20)
    past = 0
    for _ in range(40):
        m, k, n = rng.randint(0, 12), rng.randint(0, 12), rng.randint(0, 12)
        A = random_sparse(rng, m, k, [0] * 6 + [1, -1, 3])
        B = random_sparse(rng, k, n, [0] * 6 + [1, -2, 5])
        if A.size and B.size and rng.random() < 0.5:
            A[rng.randrange(m), rng.randrange(k)] = rng.choice([2 ** 62, -(2 ** 63) - 7, 2 ** 61])
        got = exact.product(exact.as_sparse(A), exact.as_sparse(B))
        assert_canonical(got)
        assert exact.to_dense(got).tolist() == (A @ B).tolist()
        past += got.vals.dtype == object
    assert past >= 5


def test_sparse_sums_and_multiples_are_exact():
    A = exact.as_sparse([[2 ** 61, 0], [1, -1]])
    twice = A * 2
    assert_canonical(twice)
    assert twice.vals.dtype == object
    assert exact.to_dense(twice + A * -2).tolist() == [[0, 0], [0, 0]]
    assert (twice + A * -2).nnz == 0 and A * 0 == exact.as_sparse([[0, 0], [0, 0]])
    assert exact.to_dense(exact.sparse_identity(3, 5)).tolist() == \
        (5 * exact.eye(3)).tolist()
    assert (A @ [Fraction(1, 2), 3]).tolist() == [2 ** 60, Fraction(-5, 2)]


def _peak_mib(run):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return result, (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("part", ["vanishing", "contraction"])
def test_rational_working_set_on_pair6(part):
    # d, h and their products stay as nonzeros: no object matrix of
    # k(n) x k(n+1) cells (dense, 157 and 198 MiB here)
    g = standard.pair_groupoid(6)
    rep = RealRepresentation.trivial(g, 1, 1)
    if part == "vanishing":
        report, peak = _peak_mib(lambda: vanishing_check(g, rep, 3))
        assert [row["free_rank"] for row in report] == [0, 0, 0]
    else:
        cx = RepComplex(g, rep)
        ok, peak = _peak_mib(lambda: contraction_is_homotopy(cx, 3))
        assert ok
    assert peak < 32
