import gc
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import dense_homotopy_identity, loop_canonical_cutoff, loop_verify_cutoff
from realcech import exact, standard
from realcech.coefficients import RealRepresentation, make_standard
from realcech.cochains import cohomology
from realcech.proper import (RepComplex, canonical_cutoff,
                             contraction_is_homotopy,
                             homotopy_identity_matrices, vanishing_check,
                             verify_cutoff)


def fractions(scaled):
    """The dense Fraction matrix num / scale of a Scaled matrix."""
    return exact.frac_divide(exact.to_dense(scaled.num), scaled.scale)


def corpus_representations():
    """(name, groupoid, representation) triples used across the suite."""
    out = []
    z3 = standard.cyclic_group(3)
    out.append(("Z3 trivial Q(1,1)", z3, RealRepresentation.trivial(z3, 1, 1)))
    z4i = standard.cyclic_group(4, "inversion")
    rot = np.array([[0, -1], [1, 0]])
    action = [np.linalg.matrix_power(rot, g).tolist() for g in range(4)]
    out.append(("Z4(inv) rotation", z4i,
                RealRepresentation(z4i, 1, 1, action, [[[1, 0], [0, -1]]])))
    p3 = standard.pair_groupoid(3)
    out.append(("pair3 trivial Q(1,1)", p3, RealRepresentation.trivial(p3, 1, 1)))
    # pair groupoid with a conjugated fiberwise structure: A_(y,x) = T_y T_x^-1
    T = [np.array([[1, 0], [0, 1]]), np.array([[1, 1], [0, 1]])]
    Tinv = [np.linalg.inv(t).astype(int) for t in T]
    p2 = standard.pair_groupoid(2)
    arrows = [(y, x) for y in range(2) for x in range(2)]
    action = [(T[y] @ Tinv[x]).tolist() for (y, x) in arrows]
    D = np.diag([1, -1])
    nu = [(T[x] @ D @ Tinv[x]).tolist() for x in range(2)]
    out.append(("pair2 conjugated", p2, RealRepresentation(p2, 1, 1, action, nu)))
    fa = standard.flip_action_groupoid()
    out.append(("flip_action trivial", fa, RealRepresentation.trivial(fa, 1, 1)))
    return out


class TestCutoff:
    def test_group_of_order_k(self):
        for k in (2, 3, 4):
            g = standard.cyclic_group(k)
            c = canonical_cutoff(g)
            assert c[0] == Fraction(1, k)
            assert verify_cutoff(g, c) == []

    def test_pair_groupoid(self):
        p2 = standard.pair_groupoid(2)
        c = canonical_cutoff(p2)
        assert c == [Fraction(1, 2), Fraction(1, 2)]
        assert verify_cutoff(p2, c) == []

    def test_involution_symmetry(self, corpus):
        for name, g in corpus:
            c = canonical_cutoff(g)
            for x in range(g.n_objects):
                assert c[int(g.rho_obj[x])] == c[x], name
            assert verify_cutoff(g, c) == [], name

    def test_bad_cutoff_reported(self):
        g = standard.cyclic_group(2)
        assert verify_cutoff(g, [Fraction(1, 3)]) != []

    def test_matches_the_loop(self, corpus):
        rng = random.Random(25)
        for name, g in corpus:
            c = canonical_cutoff(g)
            assert c == loop_canonical_cutoff(g), name
            for _ in range(20):
                bad = list(c)
                for x in rng.sample(range(g.n_objects), rng.randint(1, g.n_objects)):
                    bad[x] = rng.choice((Fraction(-1, 2), Fraction(0), Fraction(1, 3), 1))
                assert verify_cutoff(g, bad) == loop_verify_cutoff(g, bad), name


class TestRepresentationComplex:
    def test_d_squared_zero(self):
        for name, g, rep in corpus_representations():
            cx = RepComplex(g, rep)
            for n in (0, 1):
                P = exact.to_dense(cx.differential_matrix(n + 1).num) @ \
                    exact.to_dense(cx.differential_matrix(n).num)
                assert all(v == 0 for v in P.flat), (name, n)

    def test_reality_preserved_by_h(self):
        # the contraction output satisfies the fiberwise constraint:
        # checked by matrix containment in the real sub-basis, which is
        # how the matrices are built; spot-check via random cochains
        rng = random.Random(17)
        for name, g, rep in corpus_representations():
            cx = RepComplex(g, rep)
            H = fractions(cx.contraction_matrix(1))
            src = cx.basis(2)
            vec = np.array([Fraction(rng.randint(-3, 3))
                            for _ in range(src.total)], dtype=object)
            out = H @ vec
            assert len(out) == cx.basis(1).total, name


class TestHomotopyIdentity:
    @pytest.mark.parametrize("idx", range(5))
    def test_matrix_identity_degrees_1_to_3(self, idx):
        name, g, rep = corpus_representations()[idx]
        cx = RepComplex(g, rep)
        for n in (1, 2, 3):
            assert contraction_is_homotopy(cx, n), (name, n)

    def test_zero_cochain_maps_to_zero(self):
        _, g, rep = corpus_representations()[0]
        cx = RepComplex(g, rep)
        H = fractions(cx.contraction_matrix(1))
        zero = np.array([Fraction(0)] * cx.basis(2).total, dtype=object)
        assert all(v == 0 for v in (H @ zero))

    def test_random_cochains_identity(self):
        rng = random.Random(99)
        for name, g, rep in corpus_representations()[:3]:
            cx = RepComplex(g, rep)
            for n in (1, 2):
                D_n, D_prev, H_n, H_prev = (fractions(M) for M in (
                    cx.differential_matrix(n), cx.differential_matrix(n - 1),
                    cx.contraction_matrix(n), cx.contraction_matrix(n - 1)))
                total = cx.basis(n).total
                for _ in range(3):
                    f = np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(total)], dtype=object)
                    lhs = H_n @ (D_n @ f) + D_prev @ (H_prev @ f)
                    assert all(lhs[i] == f[i] for i in range(total)), (name, n)


class TestVanishing:
    def test_corpus_representations_vanish(self):
        for name, g, rep in corpus_representations():
            report = vanishing_check(g, rep, 3)
            for row in report:
                assert row["free_rank"] == 0, (name, row)
                assert row["rank_kernel"] == row["rank_image"], (name, row)

    def test_rational_constant_coefficients_vanish(self, corpus):
        q11 = make_standard("Q(1,1)")
        for name, g in corpus:
            for n in (1, 2):
                assert cohomology(g, q11, n).free_rank == 0, name

    def test_ordinary_cohomology_via_doubling(self):
        # a representation without involution, checked through its
        # doubled version with the swap-sign involution
        z3 = standard.cyclic_group(3)
        E = [[1]]  # trivial rank-1 real representation
        F_action = [np.eye(2, dtype=int).tolist()] * 3
        F_nu = [[[1, 0], [0, -1]]]
        F = RealRepresentation(z3, 1, 1, F_action, F_nu)
        assert F.validate() == []
        report = vanishing_check(z3, F, 2)
        assert all(r["free_rank"] == 0 for r in report)
        # the plain representation runs through the same machinery with
        # the identity involution and also vanishes
        E_plain = RealRepresentation(z3, 1, 0, [[[1]]] * 3, [[[1]]])
        report2 = vanishing_check(z3, E_plain, 2)
        assert all(r["free_rank"] == 0 for r in report2)

    def test_integral_mode_refused(self):
        from realcech.cochains import invariant_sections
        with pytest.raises(ValueError):
            invariant_sections(standard.cyclic_group(2),
                               make_standard("Q(1,1)"))

    def test_every_cocycle_is_a_coboundary(self):
        # vanishing in witness form: the contraction h produces an
        # explicit primitive for any degree >= 1 cocycle
        rng = random.Random(31)
        for name, g, rep in corpus_representations()[:3]:
            cx = RepComplex(g, rep)
            for n in (1, 2):
                total = cx.basis(n).total
                D = fractions(cx.differential_matrix(n - 1))
                prim = np.array([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(cx.basis(n - 1).total)],
                                dtype=object)
                z = D @ prim
                assert cx.is_cocycle(n, z), name
                b = cx.is_coboundary(n, z)
                assert b is not None, name
                back = D @ b
                assert all(back[i] == z[i] for i in range(total)), name
                # the contraction gives the same conclusion directly
                H = fractions(cx.contraction_matrix(n - 1))
                hb = H @ z
                assert all((D @ hb)[i] == z[i] for i in range(total)), name


class _OneByOneComplex:
    """A stand-in complex of 1x1 matrices: d^1, d^0, h^1 and h^0 are the
    given numbers (by default all 2**39), each as its numerator over its
    denominator."""

    def __init__(self, d1=2 ** 39, d0=2 ** 39, h1=2 ** 39, h0=2 ** 39):
        self.d = {1: Fraction(d1), 0: Fraction(d0)}
        self.h = {1: Fraction(h1), 0: Fraction(h0)}

    @staticmethod
    def _scaled(x):
        return exact.Scaled(np.array([[x.numerator]], dtype=object), x.denominator)

    def differential_matrix(self, n):
        return self._scaled(self.d[n])

    def contraction_matrix(self, n):
        return self._scaled(self.h[n])

    def basis(self, n):
        return SimpleNamespace(total=1)


def test_homotopy_identity_does_not_overflow_int64():
    # each product is 2**78, far past int64; the sum must be exact
    lhs, rhs = map(exact.to_dense, homotopy_identity_matrices(_OneByOneComplex(), 1))
    assert lhs[0, 0] == 2 ** 79
    assert rhs[0, 0] == 1


@pytest.mark.parametrize("h0,identity", [(Fraction(3, 2), 1), (1, Fraction(5, 6))])
def test_homotopy_identity_with_unequal_denominators(h0, identity):
    # d^1 and d^0 have denominators 2 and 3: only a multiple of 6 clears both
    cx = _OneByOneComplex(Fraction(1, 2), Fraction(1, 3), 1, h0)
    lhs, rhs = map(exact.to_dense, homotopy_identity_matrices(cx, 1))
    assert Fraction(int(lhs[0, 0]), int(rhs[0, 0])) == identity
    assert contraction_is_homotopy(cx, 1) == (identity == 1)


def rational_cases():
    """corpus_representations() and the cases of the rational benchmark
    workload that the corpus lacks."""
    cases = list(corpus_representations())
    for name, g in [("Z4", standard.cyclic_group(4)),
                    ("pair3_swap01", standard.pair_groupoid(3, [1, 0, 2])),
                    ("Z4_inv", standard.cyclic_group(4, "inversion"))]:
        cases.append((name + " trivial Q(1,1)", g, RealRepresentation.trivial(g, 1, 1)))
    return cases


def _sparse_rows(M):
    return [{j: v for j, v in enumerate(row) if v} for row in M]


def _is_identity(H_n, D_n, D_prev, H_prev):
    """Whether H_n @ D_n + D_prev @ H_prev is the identity, in Fraction
    arithmetic over the nonzero entries only."""
    D_rows, H_rows = _sparse_rows(D_n), _sparse_rows(H_prev)
    for i, (h, d) in enumerate(zip(_sparse_rows(H_n), _sparse_rows(D_prev))):
        acc = {}
        for left, rows in ((h, D_rows), (d, H_rows)):
            for k, a in left.items():
                for j, b in rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
        if {j: v for j, v in acc.items() if v} != {i: 1}:
            return False
    return True


def test_vanishing_and_contraction_match_fraction_arithmetic():
    def rank(M):
        return len(exact._rref(exact.as_frac_matrix(M)))

    for name, g, rep in rational_cases():
        report = vanishing_check(g, rep, 3)
        cx = RepComplex(g, rep)

        def H(n):
            return fractions(cx.contraction_matrix(n))

        def D(n):
            return fractions(cx.differential_matrix(n))

        for row in report:
            n = row["degree"]
            assert row["rank_kernel"] == cx.basis(n).total - rank(D(n)), (name, n)
            assert row["rank_image"] == rank(D(n - 1)), (name, n)
        for n in (1, 2, 3):
            assert contraction_is_homotopy(cx, n) == _is_identity(
                H(n), D(n), D(n - 1), H(n - 1)), (name, n)
        # the oracle does see a failure: h scaled by 2 is no contraction
        assert not _is_identity(2 * H(1), D(1), D(0), 2 * H(0)), name


def test_vanishing_check_ranks_each_differential_once(monkeypatch):
    # the ranks are those of the sparse integer numerators of d
    calls = []
    frac_rank = exact.frac_rank
    monkeypatch.setattr(exact, "frac_rank",
                        lambda M: calls.append(M.shape) or frac_rank(M))
    z3 = standard.cyclic_group(3)
    report = vanishing_check(z3, RealRepresentation.trivial(z3, 1, 1), 3)
    assert len(calls) == 4
    assert report == [
        {"degree": 1, "rank_kernel": 0, "rank_image": 0, "free_rank": 0},
        {"degree": 2, "rank_kernel": 3, "rank_image": 3, "free_rank": 0},
        {"degree": 3, "rank_kernel": 6, "rank_image": 6, "free_rank": 0},
    ]


def test_coboundary_witness_is_checked_against_the_cutoff():
    # a doubled cutoff doubles h, so d h' c = 2c for every cocycle c != 0:
    # the witness h' c fails d b = c and is refused, naming the degree
    z3 = standard.cyclic_group(3)
    rep = RealRepresentation.trivial(z3, 1, 1)
    good = RepComplex(z3, rep)
    bad = RepComplex(z3, rep, cutoff=[2 * c for c in canonical_cutoff(z3)])
    assert verify_cutoff(z3, bad.cutoff) != []
    rng = random.Random(5)
    for n in (2, 3):   # d^0 = 0 here, so degree 1 has no nonzero cocycle
        D = fractions(good.differential_matrix(n - 1))
        prim = np.array([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(D.shape[1])], dtype=object)
        c = D @ prim
        assert c.any()
        b = good.is_coboundary(n, c)
        assert all(D @ b == c)
        with pytest.raises(ValueError, match=rf"^h d \+ d h is not the identity in degree {n}:"):
            bad.is_coboundary(n, c)
        # the zero cocycle keeps its zero witness, a non-cocycle has none
        assert not bad.is_coboundary(n, 0 * c).any()
        e = np.array([Fraction(int(i == 0)) for i in range(len(c))], dtype=object)
        assert bad.is_coboundary(n, e) is None and good.is_coboundary(n, e) is None
    zero = [0] * good.basis(0).total
    assert not good.is_coboundary(0, zero).any()
    assert good.is_coboundary(0, [1] + zero[1:]) is None


def test_only_fibre_sized_blocks_are_cleared(monkeypatch):
    # d and h stay integer matrices with a scale from their assembly on:
    # no nerve-sized matrix goes through exact.cleared
    rows = []
    cleared = exact.cleared
    monkeypatch.setattr(exact, "cleared",
                        lambda M: rows.append(np.shape(M)[0]) or cleared(M))
    p3 = standard.pair_groupoid(3)
    rep = RealRepresentation.trivial(p3, 1, 1)
    assert [r["free_rank"] for r in vanishing_check(p3, rep, 3)] == [0, 0, 0]
    cx = RepComplex(p3, rep)
    assert all(contraction_is_homotopy(cx, n) for n in (1, 2, 3))
    assert rows and max(rows) <= rep.dim


def test_homotopy_identity_matches_dense_product():
    for name, g, rep in rational_cases():
        cx = RepComplex(g, rep)
        for n in (1, 2, 3):
            (lhs, rhs), (dense, eye) = homotopy_identity_matrices(cx, n), \
                dense_homotopy_identity(cx, n)
            assert exact.to_dense(lhs).tolist() == dense.tolist() and \
                exact.to_dense(rhs).tolist() == eye.tolist(), (name, n)


def test_rational_cohomology_is_built_once_per_degree():
    g = standard.cyclic_group(3)
    cx = RepComplex(g, RealRepresentation.trivial(g, 1, 1))
    h1 = cx.cohomology(1)
    assert cx.cohomology(1) is h1 and cx.cohomology(2) is not h1
    # the group holds the complex, not the other way round: no cycle
    gc.disable()
    try:
        ref = weakref.ref(cx)
        del cx, h1
        assert ref() is None
    finally:
        gc.enable()


def test_fibres_build_their_rules_once(count_calls):
    # the fibres name their matrices and rules by keys: building d and h
    # asks no fibre for the rule at an anchor
    from realcech.cochains import RealComplex, SBlocks
    from realcech.proper import RepFibre
    integral = count_calls(SBlocks, "corestriction")
    rational = count_calls(RepFibre, "corestriction")
    cx = RealComplex(standard.cyclic_group(4, "inversion"), make_standard("mu(4)_conj"))
    for n in range(5):
        cx.differential_matrix(n)
    _, g, rep = corpus_representations()[3]    # pair2 conjugated
    rc = RepComplex(g, rep)
    for n in range(4):
        rc.differential_matrix(n)
        rc.contraction_matrix(n)
    assert integral == rational == []
    # a rule per distinct nu_x past the identity's, and the unit arrows,
    # distinct matrix objects, share the identity's key
    assert len(rc.fibre.rules) == 3
    assert rc.fibre.act_keys[g.unit].tolist() == [0, 0]


def test_contraction_reads_the_differentials_of_the_vanishing_check(count_calls):
    from realcech import cochains
    built = count_calls(cochains, "coboundary_matrix")
    z3 = standard.cyclic_group(3)
    rep = RealRepresentation.trivial(z3, 1, 1)
    assert [row["free_rank"] for row in vanishing_check(z3, rep, 3)] == [0, 0, 0]
    cx = RepComplex(z3, rep)
    assert all(contraction_is_homotopy(cx, n) for n in (1, 2, 3))
    # d^0..d^3, each once: the new complex reads the representation's state
    assert sorted(src.n for src, _ in built) == [0, 1, 2, 3]


def test_a_cutoff_has_its_own_contraction():
    z3 = standard.cyclic_group(3)
    rep = RealRepresentation.trivial(z3, 1, 1)
    good = RepComplex(z3, rep)
    bad = RepComplex(z3, rep, cutoff=[2 * c for c in canonical_cutoff(z3)])
    h, doubled = good.contraction_matrix(1), bad.contraction_matrix(1)
    assert (fractions(doubled) == 2 * fractions(h)).all() and fractions(h).any()
    # the canonical cutoff's h is shared; a cutoff passed in, even one of
    # equal values, has an h of its own, kept by its complex alone
    assert RepComplex(z3, rep).contraction_matrix(1) is h
    same = RepComplex(z3, rep, cutoff=[Fraction(1, 3)]).contraction_matrix(1)
    assert same is not h and (fractions(same) == fractions(h)).all()
    assert [key for key in good.shared if key[0] == "h"] == [("h", 1)]
    # every cutoff reads the one d
    assert bad.differential_matrix(1) is good.differential_matrix(1)
    assert not contraction_is_homotopy(bad, 1) and contraction_is_homotopy(good, 1)
