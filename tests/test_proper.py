import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from realcech import standard
from realcech.coefficients import RealRepresentation, make_standard
from realcech.cochains import cohomology
from realcech.proper import (RepComplex, canonical_cutoff,
                             contraction_is_homotopy,
                             homotopy_identity_matrices, vanishing_check,
                             verify_cutoff)


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


class TestRepresentationComplex:
    def test_d_squared_zero(self):
        for name, g, rep in corpus_representations():
            cx = RepComplex(g, rep)
            for n in (0, 1):
                P = cx.differential_matrix(n + 1) @ cx.differential_matrix(n)
                assert all(v == 0 for v in P.flat), (name, n)

    def test_reality_preserved_by_h(self):
        # the contraction output satisfies the fiberwise constraint:
        # checked by matrix containment in the real sub-basis, which is
        # how the matrices are built; spot-check via random cochains
        rng = random.Random(17)
        for name, g, rep in corpus_representations():
            cx = RepComplex(g, rep)
            H = cx.contraction_matrix(1)
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
        H = cx.contraction_matrix(1)
        zero = np.array([Fraction(0)] * cx.basis(2).total, dtype=object)
        assert all(v == 0 for v in (H @ zero))

    def test_random_cochains_identity(self):
        rng = random.Random(99)
        for name, g, rep in corpus_representations()[:3]:
            cx = RepComplex(g, rep)
            for n in (1, 2):
                D_n = cx.differential_matrix(n)
                D_prev = cx.differential_matrix(n - 1)
                H_n = cx.contraction_matrix(n)
                H_prev = cx.contraction_matrix(n - 1)
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
                D = cx.differential_matrix(n - 1)
                prim = np.array([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(cx.basis(n - 1).total)],
                                dtype=object)
                z = D @ prim
                assert cx.is_cocycle(n, z), name
                b = cx.is_coboundary(n, z)
                assert b is not None, name
                back = cx.differential_matrix(n - 1) @ b
                assert all(back[i] == z[i] for i in range(total)), name
                # the contraction gives the same conclusion directly
                H = cx.contraction_matrix(n - 1)
                hb = H @ z
                assert all((cx.differential_matrix(n - 1) @ hb)[i] == z[i]
                           for i in range(total)), name


class _OneByOneComplex:
    """A stand-in complex: every d and h is the 1x1 matrix [2**39]."""

    def differential_matrix(self, n):
        return np.array([[Fraction(2 ** 39)]], dtype=object)

    contraction_matrix = differential_matrix

    def basis(self, n):
        return SimpleNamespace(total=1)


def test_homotopy_identity_does_not_overflow_int64():
    # each product is 2**78, far past int64; the sum must be exact
    lhs, rhs = homotopy_identity_matrices(_OneByOneComplex(), 1)
    assert lhs[0, 0] == 2 ** 79
    assert rhs[0, 0] == 1
