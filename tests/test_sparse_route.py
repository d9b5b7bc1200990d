"""The integer route reads `exact.Sparse` matrices: Smith forms, kernels,
solvers and presentations give the same results whether the corpus
differentials and relation blocks come Sparse or dense, and the first
presentation of a cohomology group keeps no dense matrix of nerve size."""

import random

import numpy as np

from realcech import exact, standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard
from test_sparse import _peak_mib


def both(A):
    """A Sparse matrix and its dense object matrix."""
    return A, exact.to_dense(A)


def same(got, want):
    """Equal results, entry for entry and type for type (None, arrays,
    lists and tuples of them)."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
        assert got.tolist() == want.tolist()
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    else:
        assert got == want


def corpus_blocks(corpus, presets, top):
    """Per complex and degree: d^(n-1) (empty for n = 0), d^n and the
    relation blocks R_n and R_(n+1), all Sparse."""
    for gname, g in corpus:
        for sname, S in presets:
            cx = RealComplex(g, S)
            for n in range(top + 1):
                prev = cx.coboundary(n - 1).num if n else \
                    exact.Sparse((cx.basis(n).total, 0), *[np.zeros(0, np.int64)] * 3)
                yield (gname, sname, n), cx, prev, cx.coboundary(n).num, \
                    cx.basis(n).relations(), cx.basis(n + 1).relations()


def test_sparse_and_dense_inputs_agree(corpus, presets):
    rng = random.Random(28)
    seen = 0
    for case, cx, D_prev, D, R_n, R_next in corpus_blocks(corpus, presets, 2):
        M = exact.block([[D, R_next]])
        for flags in ({}, {"need_inverses": True}, {"need_u": False, "v_rows": D.shape[1]}):
            same(exact.smith_normal_form(M, **flags),
                 exact.smith_normal_form(exact.to_dense(M), **flags))
        same(exact.int_kernel(M, rows=D.shape[1]),
             exact.int_kernel(exact.to_dense(M), rows=D.shape[1]))
        # the coboundary solver: d of random cochains, and random vectors
        sparse, dense = (exact.IntSolver(P, Q) for P, Q in zip(both(D_prev), both(R_n)))
        k = D_prev.shape[1]
        B = np.array([[rng.randint(-3, 3) for _ in range(4)] for _ in range(k)],
                     dtype=object).reshape(k, 4)
        B = np.concatenate([D_prev @ B, exact.as_int_matrix(
            [[rng.randint(-1, 1) for _ in range(2)] for _ in range(D.shape[1])]).reshape(-1, 2)],
            axis=1)
        for b in [B, *B.T]:
            same(sparse.solve(b), dense.solve(b))
        same(sparse.solve(exact.as_sparse(B)), dense.solve(B))
        # the presentation of HR^n, with class coordinates of cocycles
        img = exact.block([[D_prev, R_n]])
        new = exact.lattice_mod_relations(D, img, R_next)
        old = exact.lattice_mod_relations(*map(exact.to_dense, (D, img, R_next)))
        same([new.gens, new.orders, new.basis], [old.gens, old.orders, old.basis])
        for col in new.basis.T:
            vec = col * rng.randint(-3, 3) + (D_prev @ B[:, 0] if k else 0)
            assert new.class_coords(vec) == old.class_coords(vec), case
        seen += 1
    assert seen >= 100


def test_first_presentation_keeps_no_dense_matrix_of_nerve_size():
    # HR^3 of pair_groupoid(4) with mu(4)_conj: d^2, d^3 and the relation
    # blocks built first, then the presentation alone; [D | R] and its
    # products as dense object matrices peaked at 34 MiB here
    cx = RealComplex(standard.pair_groupoid(4), make_standard("mu(4)_conj"))
    h = cx.cohomology(3)
    for n in (2, 3):
        cx.coboundary(n)
    for n in (3, 4):
        cx.basis(n).relations()
    pres, peak = _peak_mib(lambda: h.presentation)
    assert pres.group_key() == (0, ()) and peak < 20
