import itertools

import pytest

from realcech import standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard
from realcech import extensions as ext
from realcech.groupoids import find_isomorphism, product_with_group

mu2 = make_standard("mu(2)_conj")
mu4 = make_standard("mu(4)_conj")
z2 = standard.cyclic_group(2)


def all_normalized_cocycles(base, S):
    """Every normalized real 2-cocycle of a small base, by enumeration."""
    cx = RealComplex(base, S)
    basis = cx.basis(2)
    lvl = basis.level
    degenerate = set()
    for g in range(base.n_arrows):
        degenerate.add(lvl.index_of((int(base.unit[base.tgt[g]]), g)))
        degenerate.add(lvl.index_of((g, int(base.unit[base.src[g]]))))
    out = []
    ranges = []
    for oid, o in enumerate(basis.orbits):
        w = basis.width(oid)
        if o.rep in degenerate:
            ranges.append([(0,) * w])
        else:
            mods = basis.moduli[basis.offsets[oid]:basis.offsets[oid] + w]
            ranges.append(list(itertools.product(
                *[range(d if d else 1) for d in mods])))
    for combo in itertools.product(*ranges):
        vec = [v for chunk in combo for v in chunk]
        c = cx.cochain(2, vec)
        if cx.is_cocycle(c) and ext._is_normalized(base, c):
            out.append(c)
    return cx, out


class TestBuildExtract:
    def test_omega_zero_gives_product(self):
        E = ext.build_extension(z2, mu2, RealComplex(z2, mu2).zero_cochain(2))
        assert find_isomorphism(E.as_groupoid(),
                                product_with_group(z2, mu2)) is not None

    def test_twisted_z2_gives_z4(self):
        cx = RealComplex(z2, mu2)
        om = cx.from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
        G = ext.build_extension(z2, mu2, om).as_groupoid()
        assert G.validate() == []
        orders = []
        for g in range(G.n_arrows):
            k, o = g, 1
            while k != G.unit[0]:
                k, o = int(G.comp[k, g]), o + 1
            orders.append(o)
        assert sorted(orders) == [1, 2, 4, 4]

    def test_non_cocycle_rejected_with_witness(self):
        cx = RealComplex(z2, mu2)
        bad = cx.from_values(2, lambda t: (1,) if t == (0, 1) else (0,))
        with pytest.raises(ext.TwistError, match="associativity fails over"):
            ext.build_extension(z2, mu2, bad)

    def test_associativity_holds_iff_cocycle(self):
        # materialize the product table for every normalized 2-cochain of
        # Z/2 (cocycle or not) and check associativity directly
        cx = RealComplex(z2, mu2)
        basis = cx.basis(2)
        for combo in itertools.product(range(2), repeat=basis.total):
            om = cx.cochain(2, list(combo))
            if not ext._is_normalized(z2, om):
                continue
            elems = [(e, g) for e in mu2.elements() for g in range(2)]

            def mul(a, b):
                w = om.value_at((a[1], b[1]))
                return (mu2.add_tuples(mu2.add_tuples(a[0], b[0]), w),
                        (a[1] + b[1]) % 2)

            associative = all(
                mul(mul(a, b), c) == mul(a, mul(b, c))
                for a in elems for b in elems for c in elems)
            assert associative == cx.is_cocycle(om), combo

    def test_round_trip_exact(self):
        cx, cocycles = all_normalized_cocycles(z2, mu2)
        for om in cocycles:
            E = ext.build_extension(z2, mu2, om)
            back = ext.extract_cocycle(E)
            assert all((back - om).vector == 0)

    def test_round_trip_class_level_z2xz2(self):
        z2xz2 = standard.disjoint_union(z2, z2)  # not a group; use the product
        # the product group Z/2 x Z/2 as a one-object groupoid:
        table = [[(a ^ b) for b in range(4)] for a in range(4)]
        g = standard.group_from_table(table)
        cx, cocycles = all_normalized_cocycles(g, mu2)
        h2 = cx.cohomology(2)
        for om in cocycles:
            E = ext.build_extension(g, mu2, om)
            back = ext.extract_cocycle(E)
            assert h2.class_of(back) == h2.class_of(om)

    def test_extraction_independent_of_section(self):
        cx = RealComplex(z2, mu2)
        om = cx.from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
        E = ext.build_extension(z2, mu2, om)
        h2 = cx.cohomology(2)
        base_class = h2.class_of(om)
        # vary the section over the non-unit arrow
        for t in mu2.elements():
            section = {0: ((0,), 0), 1: (t, 1)}
            got = ext.extract_cocycle(E, section)
            assert h2.class_of(got) == base_class

    def test_extension_verifies(self):
        cx = RealComplex(z2, mu4)
        om = cx.from_values(2, lambda t: (2,) if t == (1, 1) else (0,))
        E = ext.build_extension(z2, mu4, om)
        assert E.verify() == []


class TestRealSectionObstruction:
    def test_twisted_fiber_involution_has_no_section(self):
        # over Z/2 + Z/4 with inversion, shift the involution on the fiber
        # over the fixed non-unit arrow by (1,0): an element of order 2
        # outside 2S, so sigma(t) + shift = t has no solution
        from realcech.coefficients import RealCoefficientGroup
        import realcech.exact as exact
        S = RealCoefficientGroup(0, [2, 4], exact.eye(2) * -1)
        cx = RealComplex(z2, S)
        E = ext.ExtensionGroupoid(z2, S, cx.zero_cochain(2))
        shift = (1, 0)
        twisted_invol = {}
        for (e, g) in E.elements:
            target = S.tau_tuple(e) if g == 0 else \
                S.add_tuples(S.tau_tuple(e), shift)
            twisted_invol[(e, g)] = (target, g)
        E2 = ext.AbstractExtension(z2, S, E.elements, E.pi, E.mult,
                                   E.s_act, twisted_invol, E.units)
        assert E2.verify() == []
        with pytest.raises(ext.TwistError, match="no real section"):
            ext.real_section(E2)

    def test_built_extensions_always_have_sections(self, corpus):
        for name, g in corpus:
            cx = RealComplex(g, mu2)
            E = ext.build_extension(g, mu2, cx.zero_cochain(2))
            section = ext.real_section(E)
            for a in range(g.n_arrows):
                assert E.invol[section[a]] == section[int(g.rho_arr[a])], name


class TestNormalization:
    def test_normalize_cocycle(self):
        cx = RealComplex(z2, mu4)
        om = cx.from_values(2, lambda t: (2,) if t == (1, 1) else (0,))
        # a primitive that is nonzero on units breaks normalization
        b = cx.from_values(1, lambda t: (2,))
        shifted = om + cx.d(b)
        assert not ext._is_normalized(z2, shifted)
        renorm = ext.normalize_cocycle(cx, shifted)
        assert ext._is_normalized(z2, renorm)
        h2 = cx.cohomology(2)
        assert h2.class_of(renorm) == h2.class_of(om)


class TestTwistGroupLaw:
    def make_twists(self):
        cx = RealComplex(z2, mu2)
        zcx = RealComplex(z2, ext.Z2)
        out = []
        for dbit in (0, 1):
            for wbit in (0, 1):
                d = zcx.from_values(1, lambda t, b=dbit: ((b * t[0]) % 2,))
                w = cx.from_values(
                    2, lambda t, b=wbit: (b,) if t == (1, 1) else (0,))
                out.append(ext.GradedTwist(z2, mu2, w, d))
        return out

    def test_trivial_is_identity(self):
        t0 = ext.trivial_twist(z2, mu2)
        for t in self.make_twists():
            s = ext.baer_sum(t, t0)
            assert ext.dd_class(s)[:2] == ext.dd_class(t)[:2]

    def test_ungraded_sum_is_cocycle_addition(self):
        cx, cocycles = all_normalized_cocycles(z2, mu2)
        h2 = cx.cohomology(2)
        for o1 in cocycles:
            for o2 in cocycles:
                t = ext.baer_sum(ext.GradedTwist(z2, mu2, o1),
                                 ext.GradedTwist(z2, mu2, o2))
                assert h2.class_of(t.omega) == h2.class_of(o1 + o2)

    def test_opposite_is_inverse(self):
        for t in self.make_twists():
            s = ext.baer_sum(t, ext.opposite(t))
            flag, section = ext.is_strictly_trivial(s)
            assert flag and section is not None

    def test_opposite_involutive_on_classes(self):
        for t in self.make_twists():
            tt = ext.opposite(ext.opposite(t))
            assert ext.dd_class(tt)[:2] == ext.dd_class(t)[:2]

    def test_commutative_associative_class_level(self):
        ts = self.make_twists()
        for a in ts:
            for b in ts:
                ab = ext.dd_class(ext.baer_sum(a, b))[:2]
                ba = ext.dd_class(ext.baer_sum(b, a))[:2]
                assert ab == ba
        a, b, c = ts[1], ts[2], ts[3]
        lhs = ext.dd_class(ext.baer_sum(ext.baer_sum(a, b), c))[:2]
        rhs = ext.dd_class(ext.baer_sum(a, ext.baer_sum(b, c)))[:2]
        assert lhs == rhs


class TestStrictTriviality:
    def test_trivial_twist(self):
        flag, section = ext.is_strictly_trivial(ext.trivial_twist(z2, mu2))
        assert flag
        # the section is a strict homomorphism splitting the projection
        E = ext.ExtensionGroupoid(ext.trivial_twist(z2, mu2))
        for g in range(2):
            for h in range(2):
                zg, zh = section[g], section[h]
                assert E.mult[(zg, zh)] == section[(g + h) % 2]

    def test_nontrivial_cocycle_not_split(self):
        cx = RealComplex(z2, mu2)
        om = cx.from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
        assert ext.is_strictly_trivial(ext.GradedTwist(z2, mu2, om)) == (False, None)

    def test_grading_obstructs(self):
        zcx = RealComplex(z2, ext.Z2)
        d = zcx.from_values(1, lambda t: (t[0],))
        t = ext.GradedTwist(z2, mu2, RealComplex(z2, mu2).zero_cochain(2), d)
        assert ext.is_strictly_trivial(t) == (False, None)


class TestGrading:
    def test_trivial_grading_class(self):
        h1, cls = ext.grading_cocycle(ext.trivial_twist(z2, mu2))
        assert all(v == 0 for v in cls)

    def test_sign_representation_nontrivial(self):
        zcx = RealComplex(z2, ext.Z2)
        d = zcx.from_values(1, lambda t: (t[0],))
        t = ext.GradedTwist(z2, mu2, RealComplex(z2, mu2).zero_cochain(2), d)
        h1, cls = ext.grading_cocycle(t)
        assert h1.group_key() == (0, (2,))
        assert any(v != 0 for v in cls)

    def test_grading_constant_on_orbits(self, corpus):
        for name, g in corpus:
            zcx = RealComplex(g, ext.Z2)
            h1 = zcx.cohomology(1)
            for rep, _ in h1.representatives():
                for a in range(g.n_arrows):
                    assert rep.value_at((int(g.rho_arr[a]),)) == \
                        rep.value_at((a,)), name


class TestCup:
    def test_zero_delta_trivial(self):
        zcx = RealComplex(z2, ext.Z2)
        d = zcx.from_values(1, lambda t: (t[0],))
        _, cls, _ = ext.cup(z2, mu4, zcx.zero_cochain(1), d)
        assert all(v == 0 for v in cls)

    def test_cup_square_nontrivial(self):
        zcx = RealComplex(z2, ext.Z2)
        d = zcx.from_values(1, lambda t: (t[0],))
        h2, cls, _ = ext.cup(z2, mu4, d, d)
        assert any(v != 0 for v in cls)

    def test_bilinear(self, corpus):
        for name, g in corpus:
            if g.n_arrows > 4:
                continue
            zcx = RealComplex(g, ext.Z2)
            h1 = zcx.cohomology(1)
            cocycles = [h1.lift(c) for c in h1.all_classes()]
            h2 = RealComplex(g, mu4).cohomology(2)
            for d1 in cocycles:
                for d2 in cocycles:
                    for dp in cocycles:
                        _, lhs, _ = ext.cup(g, mu4, d1 + d2, dp)
                        _, a, _ = ext.cup(g, mu4, d1, dp)
                        _, b, _ = ext.cup(g, mu4, d2, dp)
                        assert lhs == h2.class_of(h2.lift(a) + h2.lift(b)), name

    def test_against_tensor_oracle(self, corpus):
        """The explicit formula matches the set-level tensor construction
        on every pair of 1-cocycles over small bases."""
        kappa = mu2.default_kappa()
        for name, g in corpus:
            if g.n_arrows > 8:
                continue
            zcx = RealComplex(g, ext.Z2)
            h1 = zcx.cohomology(1)
            deltas = [h1.lift(c) for c in h1.all_classes()]
            cx = RealComplex(g, mu2)
            h2 = cx.cohomology(2)
            E0 = ext.build_extension(g, mu2, cx.zero_cochain(2))
            for da in deltas:
                for db in deltas:
                    fa = lambda a: int(da.value_at((a,))[0]) % 2
                    fb = lambda a: int(db.value_at((a,))[0]) % 2
                    T = ext.tensor_extensions(E0, fa, E0, fb, kappa)
                    assert T.verify() == [], name
                    om = ext.extract_cocycle(T)
                    _, cup_cls, _ = ext.cup(g, mu2, da, db)
                    assert h2.class_of(om) == cup_cls, name


class TestDixmierDouady:
    def test_trivial_twist_class(self):
        dc, wc, _, _ = ext.dd_class(ext.trivial_twist(z2, mu2))
        assert all(v == 0 for v in dc) and all(v == 0 for v in wc)

    def test_four_classes_and_law(self):
        twists = TestTwistGroupLaw().make_twists()
        classes = {ext.dd_class(t)[:2] for t in twists}
        assert len(classes) == 4
        for a in twists:
            for b in twists:
                got = ext.dd_class(ext.baer_sum(a, b))[:2]
                want = ext.dd_sum_predicted(a, b)
                assert got == want

    def test_predicted_sum_reads_the_held_groups(self, count_calls):
        from realcech import exact
        twists = TestTwistGroupLaw().make_twists()
        t1, t2 = twists[3], twists[1]
        # t1's HR^1 and HR^2, with their presentations, held
        _, _, h1, h2 = ext.dd_class(t1)
        built = count_calls(exact, "lattice_mod_relations")
        assert ext.dd_sum_predicted(t1, t2) == ext.dd_class(ext.baer_sum(t1, t2))[:2]
        # cup's HR^2 is t1's: no presentation is built again
        assert built == []

    def test_ungraded_sum_componentwise(self):
        cx, cocycles = all_normalized_cocycles(z2, mu2)
        h2 = cx.cohomology(2)
        for o1 in cocycles:
            for o2 in cocycles:
                t = ext.baer_sum(ext.GradedTwist(z2, mu2, o1),
                                 ext.GradedTwist(z2, mu2, o2))
                _, wc, _, _ = ext.dd_class(t)
                assert wc == h2.class_of(o1 + o2)


class TestClassificationTable:
    def test_z2_m4(self):
        table = ext.ext_classification_table(z2, 4)
        assert table["classes"] == 4
        assert table["h2_matches_z2_count"]

    def test_trivial_group(self):
        table = ext.ext_classification_table(standard.cyclic_group(1), 4)
        assert table["classes"] == 1

    def test_z3_m4(self):
        table = ext.ext_classification_table(standard.cyclic_group(3), 4)
        assert table["classes"] == 1
        assert table["h2_matches_z2_count"]

    def test_odd_m_rejected(self):
        with pytest.raises(ext.TwistError, match="odd|order-2"):
            ext.ext_classification_table(z2, 3)

    def test_nontrivial_involution_rejected(self):
        with pytest.raises(ext.TwistError):
            ext.ext_classification_table(standard.cyclic_group(4, "inversion"))

    def test_each_level_built_once(self, count_calls):
        from realcech import cochains
        built = count_calls(cochains.LevelBasis, "__init__")
        ext.ext_classification_table(standard.cyclic_group(4), 4)
        # levels 0-3 with Z/2 coefficients and 1-3 with mu(4)_conj
        assert len(built) == 7


class TestCoefficientRule:
    """A cochain is taken as one of (base, S) only when its own pair is
    these objects or structurally equal to them."""

    def test_cochain_of_another_group_is_rejected(self):
        om = RealComplex(z2, mu2).from_values(
            2, lambda t: (1,) if t == (1, 1) else (0,))
        for call in (lambda: ext.build_extension(z2, mu4, om),
                     lambda: ext.GradedTwist(z2, mu4, om),
                     lambda: ext.ExtensionGroupoid(z2, mu4, om)):
            with pytest.raises(ext.TwistError, match=r"mu\(4\)_conj.*mu\(2\)_conj"):
                call()

    def test_equal_pairs_are_rebased_and_own_complexes_reused(self):
        om = RealComplex(z2, mu2).from_values(
            2, lambda t: (1,) if t == (1, 1) else (0,))
        assert ext.GradedTwist(z2, mu2, om).omega is om
        z2_copy, mu2_copy = standard.cyclic_group(2), make_standard("mu(2)_conj")
        t = ext.GradedTwist(z2_copy, mu2_copy, om)
        assert t.cx.groupoid is z2_copy and t.cx.S is mu2_copy
        assert list(t.omega.vector) == list(om.vector)
        two = RealComplex(z2, ext.Z2).zero_cochain(2)
        with pytest.raises(ext.TwistError, match="degree-1"):
            ext.cup(z2, mu4, two, two)


def test_arrow_cap_before_any_cochain_value(monkeypatch, count_calls):
    from realcech.cochains import LevelBasis
    z4 = standard.cyclic_group(4)
    om = RealComplex(z4, mu4).zero_cochain(2)
    monkeypatch.setenv("RGC_MAX_ARROWS", "8")
    reads = count_calls(LevelBasis, "values") + count_calls(LevelBasis, "value_at")
    with pytest.raises(ValueError, match=r"too many arrows \(16 > 8\)"):
        ext.ExtensionGroupoid(z4, mu4, om)
    assert reads == []


def _twisted_involution_extension():
    """Z/2 + Z/4 with inversion over Z/2, its involution over the non-unit
    arrow shifted by an element of order 2: valid, with no real section."""
    from realcech.coefficients import RealCoefficientGroup
    import realcech.exact as exact
    S = RealCoefficientGroup(0, [2, 4], exact.eye(2) * -1)
    E = ext.ExtensionGroupoid(z2, S, RealComplex(z2, S).zero_cochain(2))
    invol = {(e, g): (S.tau_tuple(e) if g == 0 else
                      S.add_tuples(S.tau_tuple(e), (1, 0)), g)
             for (e, g) in E.elements}
    return ext.AbstractExtension(z2, S, E.elements, E.pi, E.mult, E.s_act,
                                 invol, E.units)


@pytest.fixture(scope="module")
def built_extensions(corpus):
    """Every extension of a corpus groupoid with at most 4 arrows by a
    normalized 2-cocycle with mu(2)_conj or mu(4)_conj coefficients, and
    Z/8 by the generator of HR^2(Z/8, mu(8)_conj)."""
    out = []
    for name, g in corpus:
        if g.n_arrows > 4:
            continue
        for S in (mu2, mu4):
            out += [ext.build_extension(g, S, om)
                    for om in all_normalized_cocycles(g, S)[1]]
    z8, mu8 = standard.cyclic_group(8), make_standard("mu(8)_conj")
    cx = RealComplex(z8, mu8)
    (rep, _), = cx.cohomology(2).representatives()
    out.append(ext.build_extension(z8, mu8, ext.normalize_cocycle(cx, rep)))
    return out


class TestAgainstLoopOracles:
    def test_as_groupoid_matches_the_loop(self, built_extensions):
        from realcech import io
        from oracles import loop_extension_groupoid
        assert len(built_extensions) > 40
        for E in built_extensions:
            assert io.groupoid_to_json(E.as_groupoid()) == \
                io.groupoid_to_json(loop_extension_groupoid(E))

    def test_valid_extensions_verify_clean(self, built_extensions):
        from oracles import loop_extension_verify
        E0 = ext.build_extension(z2, mu2, RealComplex(z2, mu2).zero_cochain(2))
        sign = lambda a: a % 2
        valid = built_extensions + [
            _twisted_involution_extension(),
            ext.tensor_extensions(E0, sign, E0, sign, mu2.default_kappa())]
        for E in valid:
            assert E.verify() == []
            if len(E.elements) <= 16:
                assert loop_extension_verify(E) == []

    def test_verify_flags_every_mutant_the_loop_flags(self):
        import random
        from oracles import loop_extension_verify
        rng = random.Random(12)
        sources = [
            ext.build_extension(z2, mu4, RealComplex(z2, mu4).from_values(
                2, lambda t: (2,) if t == (1, 1) else (0,))),
            ext.build_extension(standard.cyclic_group(3, "inversion"), mu2,
                                RealComplex(standard.cyclic_group(3, "inversion"),
                                            mu2).zero_cochain(2)),
            ext.build_extension(standard.pair_groupoid(2, [1, 0]), mu2,
                                RealComplex(standard.pair_groupoid(2, [1, 0]),
                                            mu2).zero_cochain(2)),
            _twisted_involution_extension()]
        flagged = 0
        for n in range(600):
            E = sources[n % len(sources)]
            mult, s_act = dict(E.mult), dict(E.s_act)
            invol, units = dict(E.invol), dict(E.units)
            other = lambda z: rng.choice([w for w in E.elements if w != z])
            kind = n // len(sources) % 4
            if kind == 0:
                key = rng.choice(list(mult))
                mult[key] = other(mult[key])
            elif kind == 1:
                z, w = rng.sample(E.elements, 2)
                invol[z], invol[w] = invol[w], invol[z]
            elif kind == 2:
                key = rng.choice(list(s_act))
                s_act[key] = other(s_act[key])
            else:
                x = rng.randrange(E.base.n_objects)
                units[x] = other(units[x])
            M = ext.AbstractExtension(E.base, E.S, E.elements, E.pi, mult,
                                      s_act, invol, units)
            try:
                loop_bad = loop_extension_verify(M)
            except KeyError:  # a product left the composable pairs
                loop_bad = [KeyError]
            if loop_bad:
                flagged += 1
                assert M.verify() != [], (n, kind)
        assert flagged > 300

    def test_no_single_tuple_reads(self, count_calls):
        from realcech.cochains import LevelBasis
        zcx = RealComplex(z2, ext.Z2)
        d = zcx.from_values(1, lambda t: (t[0],))
        om = RealComplex(z2, mu4).from_values(
            2, lambda t: (2,) if t == (1, 1) else (0,))
        t = ext.GradedTwist(z2, mu4, om, d)
        reads = count_calls(LevelBasis, "value_at")
        ext.build_extension(z2, mu4, om)
        ext.grading_cocycle(t)
        ext.baer_sum(t, t)
        assert reads == []


def test_dd_class_and_grading_share_one_hr1(count_calls):
    from realcech import exact
    z2 = standard.cyclic_group(2)
    d = RealComplex(z2, ext.Z2).from_values(1, lambda t: (t[0],))
    om = RealComplex(z2, mu4).from_values(2, lambda t: (2,) if t == (1, 1) else (0,))
    t = ext.GradedTwist(z2, mu4, om, d)
    built = count_calls(exact, "lattice_mod_relations")
    delta_class, _, h1, h2 = ext.dd_class(t)
    assert ext.grading_cocycle(t) == (h1, delta_class)
    assert h1.group_key() == h2.group_key() == (0, (2,))
    # one presentation of HR^1(Z/2) and one of HR^2(mu(4)_conj)
    assert len(built) == 2
