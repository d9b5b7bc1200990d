import gc
import random
import tracemalloc
import weakref

import pytest

from realcech import exact, standard
from realcech.cochains import (RealComplex, SBlocks, cochain_group, cohomology,
                               complex_for, invariant_sections)
from realcech.coefficients import RealRepresentation, make_standard
from realcech.extensions import Z2
from realcech.proper import RepComplex

from oracles import LoopBasis, brute_cohomology_orders, orders_of_presentation

mu4 = make_standard("mu(4)_conj")
mu2 = make_standard("mu(2)_conj")
zsign = make_standard("Z_sign")
z2triv = make_standard("Z2_trivial")


class TestCochainGroups:
    def test_z2_mu4_degree1_is_fixed_squared(self):
        basis = cochain_group(standard.cyclic_group(2), mu4, 1)
        assert basis.counts() == (0, 2)
        assert basis.presentation().group_key() == (0, (2, 2))

    def test_z4_inversion_zsign_degree1_is_z(self):
        basis = cochain_group(standard.cyclic_group(4, "inversion"), zsign, 1)
        assert basis.counts() == (1, 2)
        assert basis.presentation().group_key() == (1, ())

    def test_degree0_trivial_involution_all_fixed(self, corpus):
        for name, g in corpus:
            if not g.has_trivial_involution():
                continue
            basis = cochain_group(g, mu4, 0)
            free, fixed = basis.counts()
            assert free == 0 and fixed == g.n_objects, name

    def test_reality_constraint_on_stored_cochains(self, corpus):
        rng = random.Random(5)
        for name, g in corpus:
            cx = RealComplex(g, mu4)
            basis = cx.basis(1)
            vec = [rng.randint(-3, 3) for _ in range(basis.total)]
            c = cx.cochain(1, vec)
            lvl = basis.level
            for i in range(len(lvl)):
                tup = lvl.tuple_at(i)
                assert c.value_at(lvl.rho(tup)) == \
                    mu4.tau_tuple(c.value_at(tup)), (name, tup)


class TestDifferential:
    def test_degree0_one_object_group_is_zero(self):
        for n in (2, 3, 4):
            g = standard.cyclic_group(n)
            D = RealComplex(g, mu4).differential_matrix(0)
            assert all(v == 0 for v in D.flat)

    def test_group_degree1_formula(self):
        g = standard.cyclic_group(4)
        cx = RealComplex(g, make_standard("mu(4)_trivial"))
        rng = random.Random(3)
        c = cx.cochain(1, [rng.randint(0, 3) for _ in range(cx.basis(1).total)])
        dc = cx.d(c)
        S = cx.S
        for g1 in range(4):
            for g2 in range(4):
                expected = S.add_tuples(
                    S.add_tuples(c.value_at((g2,)),
                                 S.neg_tuple(c.value_at(((g1 + g2) % 4,)))),
                    c.value_at((g1,)))
                assert dc.value_at((g1, g2)) == expected

    def test_d_squared_zero_matrix_level(self, corpus, presets):
        for gname, g in corpus:
            for sname, S in presets:
                cx = RealComplex(g, S)
                for n in (0, 1):
                    D1 = cx.differential_matrix(n)
                    D2 = cx.differential_matrix(n + 1)
                    if not (D1.shape[1] and D2.shape[0]):
                        continue
                    prod = D2 @ D1
                    b2 = cx.basis(n + 2)
                    for col in range(prod.shape[1]):
                        assert b2.in_relation_lattice(prod[:, col]), \
                            (gname, sname, n)

    def test_d_squared_zero_degree_four_small_members(self, corpus):
        # degree-4 composites need nerve level 6; run them on the small
        # corpus members where that stays desk-sized
        import numpy as np
        for gname, g in corpus:
            if g.n_arrows > 4:
                continue
            for S in (mu4, zsign):
                cx = RealComplex(g, S)
                D1 = cx.differential_matrix(4)
                D2 = cx.differential_matrix(5)
                if not (D1.size and D2.size):
                    continue
                P = np.array(D2.tolist(), dtype=np.int64) @ \
                    np.array(D1.tolist(), dtype=np.int64)
                b = cx.basis(6)
                for i, d in enumerate(b.moduli):
                    row = P[i, :]
                    ok = (row % d == 0).all() if d else (row == 0).all()
                    assert ok, (gname, S.name)

    def test_d_preserves_reality(self, corpus):
        rng = random.Random(11)
        for name, g in corpus:
            cx = RealComplex(g, mu4)
            basis = cx.basis(1)
            c = cx.cochain(1, [rng.randint(-2, 2) for _ in range(basis.total)])
            dc = cx.d(c)
            lvl = cx.basis(2).level
            for i in range(len(lvl)):
                tup = lvl.tuple_at(i)
                assert dc.value_at(lvl.rho(tup)) == \
                    mu4.tau_tuple(dc.value_at(tup)), name


class TestCocycleCoboundary:
    def test_zero_cochain(self):
        cx = RealComplex(standard.cyclic_group(3), mu4)
        z = cx.zero_cochain(1)
        assert cx.is_cocycle(z)
        w = cx.is_coboundary(z)
        assert w is not None and all(v == 0 for v in w.vector)

    def test_nontrivial_hom_not_coboundary(self):
        cx = RealComplex(standard.cyclic_group(2), mu2)
        hom = cx.from_values(1, lambda t: (t[0] % 2,))
        assert cx.is_cocycle(hom)
        assert cx.is_coboundary(hom) is None
        # brute-force cross-check over all 0-cochains
        import itertools
        for v in itertools.product(range(2), repeat=cx.basis(0).total):
            b = cx.cochain(0, list(v))
            assert any(x != 0 for x in (cx.d(b) - hom).vector)

    def test_db_is_coboundary(self, corpus):
        rng = random.Random(23)
        for name, g in corpus:
            cx = RealComplex(g, mu4)
            b = cx.cochain(0, [rng.randint(0, 3)
                               for _ in range(cx.basis(0).total)])
            db = cx.d(b)
            w = cx.is_coboundary(db)
            assert w is not None, name
            assert all((cx.d(w) - db).vector == 0), name

    def test_one_smith_form_per_degree(self, monkeypatch):
        cx = RealComplex(standard.cyclic_group(4, "inversion"), mu4)
        rng = random.Random(5)
        targets = [cx.d(cx.cochain(1, [rng.randint(0, 3)
                                       for _ in range(cx.basis(1).total)]))
                   for _ in range(50)]
        calls = []
        snf = exact.smith_normal_form
        monkeypatch.setattr(exact, "smith_normal_form",
                            lambda *a, **kw: calls.append(1) or snf(*a, **kw))
        for target in targets:
            w = cx.is_coboundary(target)
            assert w is not None
            assert list(cx.d(w).vector) == list(target.vector)
        assert len(calls) == 1


@pytest.mark.parametrize("name", ["Z_sign", "mu(3)_conj"])
def test_fixed_coords_with_zero_fixed_part(name):
    # the fixed subgroup is 0: only the zero element has fixed coordinates
    S = make_standard(name)
    sb = SBlocks(S)
    for v in [(0,), (3,), (1,)]:
        w = sb.to_fixed_coords(v)
        assert (w is not None) == S.is_zero(v), v
        assert w in (None, ())


class TestCohomology:
    def test_hr0_equals_fixed_for_groups_with_trivial_rho(self):
        for n in (2, 3, 4):
            g = standard.cyclic_group(n)
            for S in (mu4, mu2, zsign):
                fixed, _ = S.fixed_part()
                assert cohomology(g, S, 0).group_key() == fixed.group_key()

    def test_hr1_z2_mu4_is_z2_with_brute_force(self):
        g = standard.cyclic_group(2)
        h1 = cohomology(g, mu4, 1)
        assert h1.group_key() == (0, (2,))
        assert brute_cohomology_orders(g, mu4, 1) == \
            orders_of_presentation(h1.group_key())

    def test_point_space_vanishes_above_zero(self):
        pt = standard.discrete_space(1)
        for S in (mu4, zsign, z2triv):
            for n in (1, 2, 3):
                assert cohomology(pt, S, n).order() == 1

    def test_brute_force_oracle_degree1(self, corpus):
        # exhaustive comparison wherever the search space is tiny
        for name, g in corpus:
            if g.n_arrows > 4:
                continue
            for S in (mu2, z2triv):
                key = cohomology(g, S, 1).group_key()
                assert brute_cohomology_orders(g, S, 1) == \
                    orders_of_presentation(key), (name, S.name)

    def test_representatives_are_cocycles(self, corpus):
        for name, g in corpus:
            cx = RealComplex(g, mu4)
            h = cx.cohomology(1)
            for rep, order in h.representatives():
                assert cx.is_cocycle(rep), name
                c = h.class_of(rep)
                assert c is not None, name
                if order != 1:
                    assert any(v != 0 for v in c), name

    def test_class_of_coboundary_is_zero(self):
        cx = RealComplex(standard.cyclic_group(4, "inversion"), mu4)
        h = cx.cohomology(1)
        b = cx.cochain(0, [1] * cx.basis(0).total)
        assert h.is_trivial_class(cx.d(b))


class TestInvariantSections:
    def test_equals_degree_zero_on_corpus(self, corpus, presets):
        for gname, g in corpus:
            for sname, S in presets:
                inv = invariant_sections(g, S)
                h0 = cohomology(g, S, 0)
                assert inv.group_key() == h0.group_key(), (gname, sname)

    def test_two_isolated_fixed_points(self):
        x2 = standard.discrete_space(2)
        fixed, _ = mu4.fixed_part()
        pres = invariant_sections(x2, mu4)
        assert pres.group_key() == (0, (2, 2))

    def test_transitive_with_fixed_object(self):
        p2 = standard.pair_groupoid(2)
        pres = invariant_sections(p2, mu4)
        fixed, _ = mu4.fixed_part()
        assert pres.group_key() == fixed.group_key()


class TestHRvsH:
    def test_trivial_involution_comparison(self, corpus):
        # with trivial structures, HR^n(G, S) = H^n(G, fixed(S)) where the
        # right side runs through the same engine on the fixed subgroup
        for name, g in corpus:
            if not g.has_trivial_involution():
                continue
            for S in (mu4, zsign, mu2):
                fixed, _ = S.fixed_part()
                for n in (0, 1, 2):
                    a = cohomology(g, S, n).group_key()
                    b = cohomology(g, fixed, n).group_key()
                    assert a == b, (name, S.name, n, a, b)

    def test_specific_values_z2_mu4(self):
        g = standard.cyclic_group(2)
        assert cohomology(g, mu4, 1).group_key() == (0, (2,))
        assert cohomology(g, mu4, 2).group_key() == (0, (2,))


def test_values_match_value_at(corpus, presets):
    """The array evaluation of a cochain equals value_at tuple by tuple,
    and the loop basis's value expressions, free coordinates (Z_sign) and
    fixed orbits included."""
    rng = random.Random(5)
    for name, g in corpus:
        for sname, S in presets:
            if S.mode != "integral":
                continue
            cx = RealComplex(g, S)
            for n in (0, 1, 2):
                basis = cx.basis(n)
                loop = LoopBasis(g, cx.fibre, n)
                c = cx.cochain(n, [rng.randint(-9, 9) for _ in range(basis.total)])
                values = [tuple(row) for row in basis.values(c.vector).tolist()]
                assert values == [c.value_at(basis.level.tuple_at(i))
                                  for i in range(len(basis.level))], (name, sname, n)
                expected = []
                for i in range(len(loop.level)):
                    off, M = loop.value_expression(i)
                    expected.append(S.reduce_tuple(M @ c.vector[off:off + M.shape[1]]))
                assert values == expected, (name, sname, n)


def test_cohomology_is_built_once_per_degree(count_calls):
    from realcech import cochains
    cx = RealComplex(standard.cyclic_group(4, "inversion"), make_standard("mu(4)_conj"))
    built = count_calls(cochains, "cohomology_key")
    h2 = cx.cohomology(2)
    assert cx.cohomology(2) is h2 and cx.cohomology(1) is not h2
    assert len(built) == 2


def test_cached_groups_leave_no_reference_cycle():
    # the complex and its matrices are freed by reference counting alone
    gc.disable()
    try:
        cx = RealComplex(standard.cyclic_group(2), make_standard("mu(4)_conj"))
        h, ref = cx.cohomology(1), weakref.ref(cx)
        h.class_of(cx.zero_cochain(1))
        del cx, h
        assert ref() is None
    finally:
        gc.enable()


def test_cochain_of_the_wrong_length_is_refused():
    cx = RealComplex(standard.cyclic_group(2), z2triv)
    assert cx.basis(1).total == 2
    with pytest.raises(ValueError, match=r"^a degree-1 cochain has 2 coordinates, not 1$"):
        cx.cochain(1, [1])
    with pytest.raises(ValueError, match="degree-0 cochain has 1 coordinates, not 3"):
        cx.cochain(0, [0, 1, 0])


def test_complexes_on_one_pair_read_one_state():
    g = standard.cyclic_group(4, "inversion")
    cx, other = RealComplex(g, mu4), RealComplex(g, mu4)
    assert other.basis(2) is cx.basis(2) and other.coboundary(1) is cx.coboundary(1)
    assert other.fibre is cx.fibre and other.cohomology(2) is cx.cohomology(2)
    assert RealComplex(g, make_standard("mu(4)_conj")).basis(2) is not cx.basis(2)
    assert RealComplex(standard.cyclic_group(4, "inversion"), mu4).basis(2) is not cx.basis(2)
    # the witness of a coboundary comes from one solver
    c = cx.d(cx.cochain(1, [1] * cx.basis(1).total))
    assert other.is_coboundary(c) is not None
    assert other.shared[("solver", 2)] is cx.shared[("solver", 2)]


def test_rational_groups_on_one_pair_share_their_differentials(count_calls):
    from realcech import cochains
    built = count_calls(cochains, "coboundary_matrix")
    g, Q = standard.pair_groupoid(3), make_standard("Q(1,1)")
    assert [cohomology(g, Q, n).free_rank for n in (1, 2, 3)] == [0, 0, 0]
    # d^0..d^3, each once, with no group held: the groupoid keeps the state
    # by the group itself, and stores no trivial representation beside it
    assert sorted(src.n for src, _ in built) == [0, 1, 2, 3]
    assert list(g.complexes.keys()) == [Q]
    assert cochains.complex_for(g, Q).shared is g.complexes[Q]


def _state(g, coefficients):
    """A weak reference to the shared state of the complex of g over the
    coefficients, with its bases, d, a group and (integral) a solver built."""
    if isinstance(coefficients, RealRepresentation):
        cx = RepComplex(g, coefficients)
    else:
        cx = complex_for(g, coefficients)
    assert cx.cohomology(2).free_rank == 0
    if isinstance(cx, RealComplex):
        assert cx.is_coboundary(cx.zero_cochain(2)) is not None
    else:
        assert cx.is_coboundary(2, [0] * cx.basis(2).total) is not None
    return weakref.ref(cx.shared)


def test_shared_state_dies_with_what_holds_it():
    # with the cyclic collector off, reference counting alone frees a state
    # when its coefficient object goes while the groupoid lives, and when
    # the groupoid goes while the object lives; no complex need live
    def groupoid():
        return standard.pair_groupoid(3, [1, 0, 2])

    def coefficients(kind, g):
        # a representation keeps its own groupoid, so it is made on g only
        # where g is to outlive it
        return RealRepresentation.trivial(g, 1, 1) if kind == "rep" else make_standard(kind)

    gc.disable()
    try:
        for kind in ("mu(4)_conj", "Q(1,1)", "rep"):
            g = groupoid()
            S = coefficients(kind, g)
            state = _state(g, S)
            assert state() is g.complexes[S] and len(g.complexes) == 1, kind
            del S
            assert state() is None and len(g.complexes) == 0, kind

            g, S = groupoid(), coefficients(kind, groupoid())
            state, level = _state(g, S), weakref.ref(g.levels[3])
            assert state() is g.complexes[S], kind
            del g
            assert state() is None and level() is None, kind
            state = _state(groupoid(), S)
            assert state() is None, kind
    finally:
        gc.enable()


def test_fresh_groupoids_with_one_preset_keep_a_flat_peak():
    # the pattern of the CLI: a fresh groupoid per job, module-level presets
    S = make_standard("mu(4)_conj")

    def jobs(count):
        for _ in range(count):
            g = standard.cyclic_group(4, "inversion")
            assert cohomology(g, S, 2).group_key() == (0, (2, 2))
            assert RealComplex(g, Z2).cohomology(1).group_key() == (0, (2,))
        return tracemalloc.get_traced_memory()

    tracemalloc.start()
    try:
        jobs(20)
        tracemalloc.reset_peak()
        first = jobs(20)
        tracemalloc.reset_peak()
        last = jobs(180)
    finally:
        tracemalloc.stop()
    # a state kept per job would add about 37 KiB a job; the interpreter's
    # free lists of small objects still fill, by about 0.6 KiB a job
    assert last[1] - first[1] < 180 * 4096, (first, last)


def test_fresh_groups_on_one_groupoid_keep_a_flat_peak():
    # one long-lived groupoid and a fresh preset per job: each job's state
    # goes with its group
    g = standard.cyclic_group(4, "inversion")

    def jobs(count):
        for _ in range(count):
            assert cohomology(g, make_standard("mu(4)_conj"), 2).group_key() == (0, (2, 2))
        return tracemalloc.get_traced_memory()

    tracemalloc.start()
    try:
        jobs(20)
        tracemalloc.reset_peak()
        first = jobs(20)
        tracemalloc.reset_peak()
        last = jobs(180)
    finally:
        tracemalloc.stop()
    # the bound of test_fresh_groupoids_with_one_preset_keep_a_flat_peak
    assert last[1] - first[1] < 180 * 4096, (first, last)
