"""The array nerve and the orbit-basis assembly against the loop oracles
of tests/oracles.py: equal shapes, entries and entry types."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from realcech import exact, standard
from realcech.cochains import (RealComplex, SBlocks, assemble, complex_for, corestricted,
                               differential)
from realcech.coefficients import (RealCoefficientGroup, RealRepresentation,
                                   make_standard)
from realcech.groupoids import FiniteRealGroupoid
from realcech.les import induced_cochain_map
from realcech import nerve as nerve_mod
from realcech.nerve import check_simplicial_identities, degeneracy_entries, nerve
from realcech.proper import RepComplex

from oracles import (DictLevel, LoopBasis, degeneracy, face, fraction_contraction,
                     fraction_differential, loop_coboundary_matrix,
                     loop_contraction_matrix, loop_induced_cochain_map,
                     loop_simplicial_identities, loop_solve, search_contraction_tuples,
                     search_degeneracies, search_faces, search_rho)
from test_cohomology_key import MIXED
from test_proper import corpus_representations, rational_cases


def fractions(scaled):
    """The dense Fraction matrix num / scale of a Scaled matrix."""
    return exact.frac_divide(exact.to_dense(scaled.num), scaled.scale)


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


def bench_representations():
    """The six representations of the benchmark's rational workload."""
    reps = [(name, RealRepresentation.trivial(g, 1, 1)) for name, g in (
        ("Z4", standard.cyclic_group(4)), ("pair3", standard.pair_groupoid(3)),
        ("pair3_swap01", standard.pair_groupoid(3, [1, 0, 2])),
        ("flip", standard.flip_action_groupoid()),
        ("Z4_inv", standard.cyclic_group(4, "inversion")))]
    z4i = standard.cyclic_group(4, "inversion")
    rot = np.array([[0, -1], [1, 0]])
    action = [np.linalg.matrix_power(rot, g).tolist() for g in range(4)]
    return reps + [("Z4_inv_rot", RealRepresentation(z4i, 1, 1, action, [[[1, 0], [0, -1]]]))]


def invalid_groupoids():
    """Groupoids that pass the constructor's checks but not validate():
    a composable pair with no composite, composites with the wrong
    endpoints, and an involution that is not a functor."""
    p2 = standard.pair_groupoid(2)
    no_composite, wrong_ends = p2.comp.copy(), p2.comp.copy()
    no_composite[0, 0] = -1
    wrong_ends[wrong_ends == 1] = 2
    return [(name, FiniteRealGroupoid(2, p2.src, p2.tgt, p2.unit, comp, p2.inv,
                                      rho_arr=rho))
            for name, comp, rho in (("no composite", no_composite, None),
                                    ("wrong endpoints", wrong_ends, None),
                                    ("rho not a functor", p2.comp, [0, 2, 1, 3]))]


def loop_differential(cx, n):
    if isinstance(cx, RepComplex):
        return loop_coboundary_matrix(
            LoopBasis(cx.groupoid, cx.fibre, n), LoopBasis(cx.groupoid, cx.fibre, n + 1),
            last_face=lambda tup: cx.rep.act_inv(tup[-1]))
    return loop_coboundary_matrix(LoopBasis(cx.groupoid, cx.fibre, n),
                                  LoopBasis(cx.groupoid, cx.fibre, n + 1))


class TestNerve:
    def test_levels_match_the_dict_enumeration(self, corpus):
        for name, g in corpus:
            for n in range(5):
                lvl, ref = nerve(g, n), DictLevel(g, n)
                assert [lvl.tuple_at(i) for i in range(len(lvl))] == ref.tuples, name
                assert (np.diff(lvl.codes) > 0).all(), name
                rho = [ref.index[ref.rho(t)] for t in ref.tuples]
                assert lvl.rho_indices.tolist() == rho, name

    def test_index_maps_equal_the_search_maps(self, corpus):
        # faces, degeneracies and rho as gathers through the enumeration
        # against the images written out and found by binary search
        cases = [(name, g, 5) for name, g in corpus] + [
            ("Z6_inv", standard.cyclic_group(6, "inversion"), 5),
            ("pair4", standard.pair_groupoid(4), 4),
            ("Z8_inv", standard.cyclic_group(8, "inversion"), 4)]
        for name, g, top in cases:
            for n in range(top + 1):
                lvl = nerve(g, n)
                assert lvl.rho_indices.tolist() == search_rho(lvl).tolist(), (name, n)
                assert lvl.degeneracies.tolist() == search_degeneracies(lvl).tolist(), (name, n)
                if n:
                    assert lvl.faces.tolist() == search_faces(lvl).tolist(), (name, n)

    def test_contraction_tuples_equal_the_search(self):
        for name, rep in vanish_representations():
            cx = RepComplex(rep.groupoid, rep)
            for n in range(4):
                rows, gammas, want = search_contraction_tuples(cx, n)
                dst = cx.basis(n)
                assert dst.level.extend(dst.reps[rows], gammas).tolist() == want.tolist()

    def test_invalid_groupoids_keep_their_minus_ones_and_errors(self):
        z_sign = make_standard("Z_sign")
        errors = {"no composite": "a face is not a tuple of the nerve: the groupoid is not valid",
                  "wrong endpoints": "a face is not a tuple of the nerve: the groupoid is not valid",
                  "rho not a functor": "the involution does not map the nerve to itself"}
        violation = {"no composite": "face leaves nerve: n=2 i=1 (0, 0)",
                     "wrong endpoints": "face leaves nerve: n=3 i=2 (0, 0, 1)",
                     "rho not a functor": "face not equivariant: n=1 i=0 (1,)"}
        for name, g in invalid_groupoids():
            assert g.validate(), name
            missing = 0
            for n in range(5):
                lvl = nerve(g, n)
                maps = [(lvl.rho_indices, search_rho(lvl)),
                        (lvl.degeneracies, search_degeneracies(lvl))]
                if n:
                    maps.append((lvl.faces, search_faces(lvl)))
                for got, want in maps:
                    assert got.tolist() == want.tolist(), (name, n)
                    missing += int((got == -1).sum())
            assert missing, name
            with pytest.raises(ValueError, match=f"^{errors[name]}$"):
                cx = RealComplex(g, z_sign)
                for n in range(4):
                    cx.differential_matrix(n)
            # the scalar faces of the loop check raise on these groupoids
            assert violation[name] in check_simplicial_identities(g, 3)

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
        # moves the unit: degeneracies are not equivariant
        unit_moved = FiniteRealGroupoid(1, z4.src, z4.tgt, z4.unit, z4.comp, z4.inv,
                                        rho_arr=[1, 0, 2, 3])
        z2 = standard.cyclic_group(2)
        comp = z2.comp.copy()
        comp[0, 1] = 0          # the unit fails on one side: e_i eta_i != id
        broken_unit = FiniteRealGroupoid(1, z2.src, z2.tgt, z2.unit, comp, z2.inv)
        for g in (broken_comp, broken_rho, unit_moved, broken_unit):
            bad = check_simplicial_identities(g, 3)
            assert bad and bad == loop_simplicial_identities(g, 3)
            # levels built before, below, at or above the levels checked,
            # are read or extended and give the same report
            for k in range(7):
                fresh = FiniteRealGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.comp, g.inv,
                                           g.rho_obj, g.rho_arr)
                nerve(fresh, k)
                assert check_simplicial_identities(fresh, 3) == bad


class TestIntegralAssembly:
    def test_orbit_bases_match_the_loop(self, corpus, presets):
        for name, g in corpus:
            for sname, S in presets:
                cx = RealComplex(g, S)
                for n in range(4):
                    basis, ref = cx.basis(n), LoopBasis(g, cx.fibre, n)
                    assert [tuple(o) for o in basis.orbits] == ref.orbits, (name, sname, n)
                    assert basis.offsets.tolist() == ref.offsets
                    assert basis.widths.tolist() == ref.widths
                    assert basis.total == ref.total

    def test_differentials_match_the_loop(self, corpus, presets):
        # the mixed groups are the fibres whose corestriction has a
        # transform V != I and conditions with divisors > 1
        for name, g in corpus:
            for (sname, S), top in [(p, 5) for p in presets] + [(m, 4) for m in MIXED]:
                cx = RealComplex(g, S)
                for n in range(top):
                    assert_same(cx.differential_matrix(n), loop_differential(cx, n))

    def test_to_fixed_coords_match_the_solver(self, presets):
        # the rule against IntSolver.solve on [E | R], fixed or not
        rng = random.Random(6)
        for sname, S in presets + MIXED:
            sb, solver = SBlocks(S), exact.IntSolver(S.fixed_part()[1], S.relations())
            for _ in range(40):
                v = [rng.randint(-9, 9) for _ in range(S.ngens)]
                for vec in (v, S.add_tuples(v, S.tau_tuple(v))):
                    want = solver.solve(vec)
                    assert sb.to_fixed_coords(vec) == (
                        None if want is None else tuple(want.tolist())), (sname, vec)

    def test_assembly_makes_no_solve(self, count_calls):
        # fixed orbits are corestricted by their rule inside the one sort
        complexes = [RealComplex(g, make_standard(S)) for g, S in (
            (standard.cyclic_group(4, "inversion"), "mu(4)_conj"),
            (standard.pair_groupoid(3, [1, 0, 2]), "Z_sign"))]
        solves = count_calls(exact.IntSolver, "solve")
        for cx in complexes:
            for n in range(5):
                cx.differential_matrix(n)
            assert all(cx.basis(n).counts()[1] for n in range(6))
        assert solves == []

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
                    assert_same(got, LoopBasis(g, cx.fibre, n).from_values(values.get))

    def test_non_fixed_value_raises_like_the_loop(self):
        z2, mu4 = standard.cyclic_group(2), make_standard("mu(4)_conj")
        cx = RealComplex(z2, mu4)
        with pytest.raises(ValueError) as got:
            cx.from_values(1, lambda t: (1,))
        with pytest.raises(ValueError) as want:
            LoopBasis(z2, cx.fibre, 1).from_values(lambda t: (1,))
        assert str(got.value) == str(want.value) == \
            "value at fixed tuple (0,) is not fixed by the involution"

    def test_non_fixed_value_names_the_first_such_tuple(self, presets):
        # the rules drop condition rows that a coordinate row implies; a
        # value that is not fixed still fails at the first fixed tuple that
        # holds one, as in the loop
        g = standard.cyclic_group(4, "inversion")
        for sname, S in presets + MIXED:
            cx = RealComplex(g, S)
            basis = cx.basis(2)
            fixed = [basis.level.tuple_at(r) for r in basis.reps[basis.fixed].tolist()]
            assert len(fixed) == 4
            bad = next((v for v in itertools.product(range(-2, 3), repeat=S.ngens)
                        if cx.fibre.to_fixed_coords(v) is None), None)
            if bad is None:     # tau is the identity: every value is fixed
                continue

            def value(t):
                return bad if t in fixed[1:] else S.zero_tuple()
            with pytest.raises(ValueError) as got:
                cx.from_values(2, value)
            with pytest.raises(ValueError) as want:
                LoopBasis(g, cx.fibre, 2).from_values(value)
            assert str(got.value) == str(want.value) == \
                f"value at fixed tuple {fixed[1]} is not fixed by the involution", sname

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
                                [exact.Scaled(exact.as_int_matrix([[big]]), 1)],
                                np.zeros(2, int))
            A = exact.to_dense(A)
            assert A[0, 0] == 2 * big and type(A[0, 0]) is int and scale == 1


class TestRationalAssembly:
    def test_d_and_h_equal_the_fraction_route(self):
        # num and scale: the integer fibre against Fraction products at
        # the tuples found by search, cleared side by side as before
        cases = [(name, RepComplex(rep.groupoid, rep)) for name, rep in bench_representations()]
        name, g, rep = corpus_representations()[3]    # pair2 conjugated
        cases.append((name + ", cutoff 3/4, 5/6",
                      RepComplex(g, rep, cutoff=[Fraction(3, 4), Fraction(5, 6)])))
        # 2/3 * act(1) = [[0, 4], [1, 0]] / 3: a product whose content, 2,
        # divides the product of the scales, 6, so that the scale is 3
        z2 = standard.cyclic_group(2)
        half = RealRepresentation(z2, 2, 0, [[[1, 0], [0, 1]], [[0, 2], [Fraction(1, 2), 0]]],
                                  [[[1, 0], [0, 1]]])
        cases.append(("Z2 scaled swap, cutoff 2/3", RepComplex(z2, half, cutoff=[Fraction(2, 3)])))
        for name, cx in cases:
            for n in range(4):
                for got, want in ((cx.differential_matrix(n), fraction_differential(cx, n)),
                                  (cx.contraction_matrix(n), fraction_contraction(cx, n))):
                    assert got.scale == want.scale, (name, n)
                    assert_same(exact.to_dense(got.num), want.num)

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
                        got = corestricted(fibre.corestriction(x), vec.reshape(-1, 1))
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
