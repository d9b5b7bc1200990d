"""The array nerve and the orbit-basis assembly against the loop oracles
of tests/oracles.py: equal shapes, entries and entry types."""

import random
from fractions import Fraction

import numpy as np
import pytest

from realcech import exact, standard
from realcech.cochains import RealComplex, SBlocks, assemble, complex_for, differential
from realcech.coefficients import (RealCoefficientGroup, RealRepresentation,
                                   make_standard)
from realcech.groupoids import FiniteRealGroupoid
from realcech.les import induced_cochain_map
from realcech import nerve as nerve_mod
from realcech.nerve import check_simplicial_identities, degeneracy_entries, nerve
from realcech.proper import RepComplex

from oracles import (DictLevel, LoopBasis, degeneracy, face, loop_coboundary_matrix,
                     loop_contraction_matrix, loop_induced_cochain_map,
                     loop_simplicial_identities, loop_solve)
from test_proper import corpus_representations, rational_cases


def fractions(scaled):
    """The Fraction matrix num / scale of a Scaled matrix."""
    return exact.frac_divide(*scaled)


def assert_same(A, B):
    assert A.shape == B.shape
    assert [type(v) for v in A.flat] == [type(v) for v in B.flat]
    assert A.tolist() == B.tolist()


def vanish_representations():
    """The representations of the benchmark's rational workload, with
    the conjugated and nontrivial ones of the proper-groupoid tests."""
    reps = [(name, RealRepresentation.trivial(g, 1, 1)) for name, g in (
        ("Z4", standard.cyclic_group(4)), ("pair3", standard.pair_groupoid(3)),
        ("pair3_swap01", standard.pair_groupoid(3, [1, 0, 2])),
        ("flip", standard.flip_action_groupoid()),
        ("Z4_inv", standard.cyclic_group(4, "inversion")))]
    return reps + [(name, rep) for name, _, rep in corpus_representations()]


def loop_differential(cx, n):
    if isinstance(cx, RepComplex):
        return loop_coboundary_matrix(
            LoopBasis(cx.groupoid, cx.fibre, n), LoopBasis(cx.groupoid, cx.fibre, n + 1),
            last_face=lambda tup: cx.rep.act_inv(tup[-1]))
    return loop_coboundary_matrix(LoopBasis(cx.groupoid, cx.sb, n),
                                  LoopBasis(cx.groupoid, cx.sb, n + 1))


class TestNerve:
    def test_levels_match_the_dict_enumeration(self, corpus):
        for name, g in corpus:
            for n in range(5):
                lvl, ref = nerve(g, n), DictLevel(g, n)
                assert [lvl.tuple_at(i) for i in range(len(lvl))] == ref.tuples, name
                assert (np.diff(lvl.codes) > 0).all(), name
                rho = [ref.index[ref.rho(t)] for t in ref.tuples]
                assert lvl.rho_indices.tolist() == rho, name

    def test_array_faces_equal_scalar_faces(self, corpus):
        for name, g in corpus:
            for n in range(1, 4):
                lvl = nerve(g, n)
                for i, f in enumerate(lvl.faces):
                    got = [lvl.lower.tuple_at(j) for j in f]
                    want = [face(g, n, i, lvl.tuple_at(k)) for k in range(len(lvl))]
                    one = [nerve_mod.face(g, n, i, lvl.tuple_at(k)) for k in range(len(lvl))]
                    assert got == want == one, (name, n, i)

    def test_array_degeneracies_equal_scalar_ones(self, corpus):
        for name, g in corpus:
            for n in range(4):
                lvl = nerve(g, n)
                for i in range(n + 1):
                    got = [tuple(row) for row in degeneracy_entries(g, lvl.entries, n, i).tolist()]
                    want = [degeneracy(g, n, i, lvl.tuple_at(k)) for k in range(len(lvl))]
                    one = [nerve_mod.degeneracy(g, n, i, lvl.tuple_at(k))
                           for k in range(len(lvl))]
                    assert got == want == one, (name, n, i)

    def test_scalar_face_of_a_non_composable_pair_raises(self):
        p2 = standard.pair_groupoid(2)
        g, h = next((g, h) for g in range(4) for h in range(4) if p2.src[g] != p2.tgt[h])
        with pytest.raises(ValueError) as got:
            nerve_mod.face(p2, 2, 1, (g, h))
        with pytest.raises(ValueError) as want:
            face(p2, 2, 1, (g, h))
        assert str(got.value) == str(want.value)

    def test_codes_past_int64_are_python_ints(self):
        # 1000 arrows in degree 7: the radix expansion reaches 10^21 > 2^63
        g = standard.discrete_space(1000)
        lvl = nerve(g, 7)
        assert lvl.codes.dtype == object and len(lvl) == 1000
        assert lvl.index_of((417,) * 7) == 417
        assert lvl.find([(1,) * 6 + (2,), (999,) * 7]).tolist() == [-1, 999]
        assert lvl.faces[3].tolist() == list(range(1000))

    def test_identity_violations_match_the_tuple_check(self):
        z3 = standard.cyclic_group(3)
        comp = z3.comp.copy()
        comp[1, 1] = 0          # breaks associativity, every face stays composable
        broken_comp = FiniteRealGroupoid(1, z3.src, z3.tgt, z3.unit, comp, z3.inv)
        z4 = standard.cyclic_group(4, "inversion")
        broken_rho = FiniteRealGroupoid(1, z4.src, z4.tgt, z4.unit, z4.comp, z4.inv,
                                        rho_arr=[0, 2, 1, 3])  # not multiplicative
        for g in (broken_comp, broken_rho):
            bad = check_simplicial_identities(g, 3)
            assert bad and bad == loop_simplicial_identities(g, 3)
            # a known level, below, at or above the levels checked, is read
            # or extended and gives the same report
            for k in range(7):
                assert check_simplicial_identities(g, 3, nerve(g, k)) == bad


class TestIntegralAssembly:
    def test_orbit_bases_match_the_loop(self, corpus, presets):
        for name, g in corpus:
            for sname, S in presets:
                cx = RealComplex(g, S)
                for n in range(4):
                    basis, ref = cx.basis(n), LoopBasis(g, cx.sb, n)
                    assert [tuple(o) for o in basis.orbits] == ref.orbits, (name, sname, n)
                    assert basis.offsets.tolist() == ref.offsets
                    assert basis.widths.tolist() == ref.widths
                    assert basis.total == ref.total

    def test_differentials_match_the_loop(self, corpus, presets):
        for name, g in corpus:
            for sname, S in presets:
                cx = RealComplex(g, S)
                for n in range(5):
                    assert_same(cx.differential_matrix(n), loop_differential(cx, n))

    def test_from_values_matches_the_loop(self, corpus, presets):
        rng = random.Random(3)
        for name, g in corpus:
            for sname, S in presets:
                cx = RealComplex(g, S)
                for n in range(3):
                    lvl = cx.basis(n).level
                    values = {}

                    def value(tup):
                        v = [rng.randint(-5, 5) for _ in range(S.ngens)]
                        if lvl.rho(tup) == tup:   # tau(v) + v is fixed
                            v = S.add_tuples(v, S.tau_tuple(v))
                        return values.setdefault(tup, v)

                    got, scale = cx.basis(n).from_values(value)
                    assert scale == 1
                    assert_same(got, LoopBasis(g, cx.sb, n).from_values(values.get))

    def test_non_fixed_value_raises_like_the_loop(self):
        z2, mu4 = standard.cyclic_group(2), make_standard("mu(4)_conj")
        cx = RealComplex(z2, mu4)
        with pytest.raises(ValueError) as got:
            cx.from_values(1, lambda t: (1,))
        with pytest.raises(ValueError) as want:
            LoopBasis(z2, cx.sb, 1).from_values(lambda t: (1,))
        assert str(got.value) == str(want.value) == \
            "value at fixed tuple (0,) is not fixed by the involution"

    def test_les_induced_maps_match_the_loop(self, corpus):
        mu2t, mu4t = make_standard("mu(2)_trivial"), make_standard("mu(4)_trivial")
        zsign, mu2c = make_standard("Z_sign"), make_standard("mu(2)_conj")
        for name, g in corpus:
            for s_a, s_b, f in ((mu2t, mu4t, [[2]]), (mu4t, mu2t, [[1]]),
                                (zsign, zsign, [[2]]), (zsign, mu2c, [[1]])):
                for n in range(3):
                    got = induced_cochain_map(RealComplex(g, s_a), RealComplex(g, s_b), f, n)
                    want = loop_induced_cochain_map(g, SBlocks(s_a), SBlocks(s_b), f, n)
                    assert_same(got, want)

    def test_entries_near_2_62_take_the_python_int_path(self):
        # tau = [[1, 0], [N, -1]] is an involution of Z^2 for every N
        big = RealCoefficientGroup(2, [], tau=[[1, 0], [1 << 62, -1]])
        top = 0
        for g in (standard.cyclic_group(2), standard.cyclic_group(4, "inversion"),
                  standard.pair_groupoid(2, [1, 0])):
            cx = RealComplex(g, big)
            for n in range(3):
                D = cx.differential_matrix(n)
                assert_same(D, loop_differential(cx, n))
                top = max(top, *(abs(v) for v in D.flat))
        assert top >= 1 << 62


    def test_sums_past_int64_are_exact(self):
        # two terms of 3 * 2^61 in one cell sum past 2^63, in a fixed orbit
        # (discrete space) and in a free one (swapped pair groupoid)
        big = 3 << 61
        z = make_standard("Z_trivial")
        for g in (standard.discrete_space(2), standard.pair_groupoid(2, [1, 0])):
            dst = RealComplex(g, z).basis(0)
            A, scale = assemble(dst, 1, np.zeros(2, int), np.zeros(2, int),
                                [exact.as_int_matrix([[big]])], np.zeros(2, int))
            assert A[0, 0] == 2 * big and type(A[0, 0]) is int and scale == 1


class TestRationalAssembly:
    def test_d_and_h_match_the_loop(self):
        for name, rep in vanish_representations():
            cx = RepComplex(rep.groupoid, rep)
            for n in range(4):
                assert_same(fractions(cx.differential_matrix(n)), loop_differential(cx, n))
                assert_same(fractions(cx.contraction_matrix(n)),
                            loop_contraction_matrix(cx, n))

    def test_public_differential_is_the_fraction_matrix(self, corpus):
        q11 = make_standard("Q(1,1)")
        for name, g in corpus:
            for n in range(3):
                assert_same(differential(g, q11, n), loop_differential(complex_for(g, q11), n))

    def test_from_values_matches_the_loop(self):
        rng = random.Random(8)
        for name, rep in vanish_representations():
            cx = RepComplex(rep.groupoid, rep)
            for n in range(3):
                lvl = cx.basis(n).level
                values = {}

                def value(tup):
                    v = np.array([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(rep.dim)], dtype=object)
                    if lvl.rho(tup) == tup:   # v + nu v is fixed
                        v = v + rep.nu[lvl.groupoid.src[tup[-1]] if n else tup[0]] @ v
                    return values.setdefault(tup, list(v))

                got = cx.from_values(n, value)
                assert_same(got, LoopBasis(rep.groupoid, cx.fibre, n).from_values(values.get))

    def test_entries_near_2_62_match_the_loop(self):
        g = standard.pair_groupoid(2)
        nu = [[1, 0], [1 << 62, -1]]
        rep = RealRepresentation(g, 1, 1, [np.eye(2, dtype=int).tolist()] * g.n_arrows,
                                 [nu] * g.n_objects)
        assert rep.validate() == []
        cx = RepComplex(g, rep)
        for n in range(3):
            assert_same(fractions(cx.differential_matrix(n)), loop_differential(cx, n))
            assert_same(fractions(cx.contraction_matrix(n)), loop_contraction_matrix(cx, n))

    def test_non_real_action_raises_like_the_loop(self):
        # the swap action does not commute with nu = diag(1, -1): the value
        # of d^0 at the fixed tuple (1,) is not fixed
        z2 = standard.cyclic_group(2)
        rep = RealRepresentation(z2, 1, 1, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
                                 [[[1, 0], [0, -1]]])
        cx = RepComplex(z2, rep)
        with pytest.raises(AssertionError) as got:
            cx.differential_matrix(0)
        with pytest.raises(AssertionError) as want:
            loop_differential(cx, 0)
        assert str(got.value) == str(want.value) == \
            "value at fixed tuple (1,) is not fixed by the involution"

    def test_fixed_coords_match_frac_solve(self, corpus):
        rng = random.Random(5)
        reps = [rep for _, rep in vanish_representations()]
        reps += [RealRepresentation.trivial(g, p, q) for _, g in corpus
                 for p, q in ((1, 1), (2, 1), (0, 2))]
        for rep in reps:
            fibre = RepComplex(rep.groupoid, rep).fibre
            for x in range(rep.groupoid.n_objects):
                if rep.groupoid.rho_obj[x] != x:
                    continue
                E = fibre.embedding(x)
                for _ in range(4):
                    v = np.array([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                  for _ in range(rep.dim)], dtype=object)
                    for vec in (v, v + rep.nu[x] @ v):
                        got = fibre.fixed_coords(x, vec.reshape(-1, 1))
                        want = exact.frac_solve(E, vec)
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert got[:, 0].tolist() == want.tolist()


def test_coboundary_witnesses_match_the_fraction_path():
    """On the rational cases in degrees 1-3, a cocycle and a perturbed one
    have a primitive exactly when Fraction elimination on the loop d finds
    one, and the witness b has d b = c.  That num / scale equals the loop
    matrices, and that ranks and contraction verdicts equal Fraction
    arithmetic, is checked by test_d_and_h_match_the_loop and by
    test_proper.test_vanishing_and_contraction_match_fraction_arithmetic."""
    rng = random.Random(23)
    for name, g, rep in rational_cases():
        cx = RepComplex(g, rep)
        D = [loop_differential(cx, n) for n in range(4)]
        for n in (1, 2, 3):
            prim = np.array([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(D[n - 1].shape[1])], dtype=object)
            noise = np.array([Fraction(rng.randint(-1, 1)) for _ in range(D[n].shape[1])],
                             dtype=object)
            for c in (D[n - 1] @ prim, D[n - 1] @ prim + noise):
                b = cx.is_coboundary(n, c)
                assert (b is None) == (exact.frac_solve(D[n - 1], c) is None), (name, n)
                assert b is None or (D[n - 1] @ b == c).all(), (name, n)


def test_batched_solve_matches_column_solves():
    rng = random.Random(17)
    for _ in range(200):
        m, n, c = rng.randint(1, 4), rng.randint(0, 3), rng.randint(1, 4)
        A = exact.as_int_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]) \
            if n else exact.zeros(m, 0)
        R = exact.zeros(m, m)
        for i in range(m):
            R[i, i] = rng.choice([0, 2, 3, 4])
        solver = exact.IntSolver(A, R)
        B = exact.as_int_matrix([[rng.randint(-6, 6) for _ in range(c)] for _ in range(m)])
        cols = [loop_solve(solver, B[:, j]) for j in range(c)]
        X = solver.solve(B)
        assert (X is None) == any(col is None for col in cols)
        for j, col in enumerate(cols):
            one = solver.solve(B[:, j])
            assert (one is None) == (col is None)
            if col is not None:
                assert_same(one, col)
                if X is not None:
                    assert_same(X[:, j], col)
        solvable = [j for j, col in enumerate(cols) if col is not None]
        if solvable:
            Y = solver.solve(B[:, solvable])
            for k, j in enumerate(solvable):
                assert_same(Y[:, k], cols[j])
