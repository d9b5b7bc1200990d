import random

import pytest

import oracles
from conftest import corpus_groupoids
from realcech import exact, standard
from realcech.cochains import RealComplex
from realcech.coefficients import RealCoefficientGroup, make_standard
from realcech.les import (CoefficientSES, ConnectingMap, SequenceError,
                          induced_cochain_map, long_exact_sequence_check)

mu2t = make_standard("mu(2)_trivial")
mu4t = make_standard("mu(4)_trivial")
z2 = standard.cyclic_group(2)
z4 = standard.cyclic_group(4)


def mu_sequence():
    # 0 -> Z/2 -(x2)-> Z/4 -(mod 2)-> Z/2 -> 0
    return CoefficientSES(mu2t, mu4t, mu2t, [[2]], [[1]])


def connecting(ses, g, n):
    """The connecting map of ses over g on fresh complexes."""
    return ConnectingMap(ses, RealComplex(g, ses.s_prime), RealComplex(g, ses.s_mid),
                         RealComplex(g, ses.s_dprime), n)


class TestSequenceValidation:
    def test_good_sequence(self):
        mu_sequence()

    def test_non_exact_rejected(self):
        with pytest.raises(SequenceError):
            CoefficientSES(mu2t, mu4t, mu2t, [[1]], [[1]])  # im i != ker p

    def test_non_equivariant_rejected(self):
        sign4 = make_standard("mu(4)_conj")
        with pytest.raises(SequenceError):
            CoefficientSES(mu2t, sign4, mu2t, [[1]], [[1]])

    def test_map_must_respect_the_relations(self):
        # x1: Z/2 -> Z/4 sends the relation 2 to 2, which is not 0 in Z/4
        with pytest.raises(SequenceError, match="i is not well defined"):
            CoefficientSES(mu2t, mu4t, mu2t, [[1]], [[1]])

    def test_map_must_commute_with_the_involutions(self):
        # the identity Z_sign -> Z_trivial: i(tau s) = -s but tau(i s) = s
        zsign, ztriv = make_standard("Z_sign"), make_standard("Z_trivial")
        with pytest.raises(SequenceError, match="i is not involution-equivariant"):
            CoefficientSES(zsign, ztriv, make_standard("mu(1)_trivial"), [[1]], [])

    def test_induced_map_must_respect_the_fixed_subgroups(self):
        # the fixed generator 1 of Z_trivial over a fixed tuple maps to 1 in
        # Z_sign, whose fixed subgroup is 0
        with pytest.raises(SequenceError,
                           match="map does not respect the fixed subgroups"):
            induced_cochain_map(RealComplex(z2, make_standard("Z_trivial")),
                                RealComplex(z2, make_standard("Z_sign")), [[1]], 0)


class TestConnecting:
    def test_zero_maps_to_zero(self):
        ses = mu_sequence()
        conn = connecting(ses, z2, 1)
        h1 = RealComplex(z2, mu2t).cohomology(1)
        h2 = RealComplex(z2, mu2t).cohomology(2)
        zero = tuple(0 for _ in next(iter(h1.all_classes())))
        assert all(v == 0 for v in conn.apply_to_class(h1, h2, zero))

    def test_bockstein_nontrivial(self):
        ses = mu_sequence()
        conn = connecting(ses, z2, 1)
        h1 = RealComplex(z2, mu2t).cohomology(1)
        h2 = RealComplex(z2, mu2t).cohomology(2)
        gen = next(c for c in h1.all_classes() if any(c))
        img = conn.apply_to_class(h1, h2, gen)
        assert any(v != 0 for v in img)

    def test_composite_vanishes(self):
        # HR^n(S) -> HR^n(S'') -> HR^(n+1)(S') is zero (exactness instance)
        ses = mu_sequence()
        for n in (0, 1):
            cxm, cxd = RealComplex(z2, mu4t), RealComplex(z2, mu2t)
            Fp = induced_cochain_map(cxm, cxd, ses.p, n)
            hm = cxm.cohomology(n)
            hd = cxd.cohomology(n)
            hp1 = RealComplex(z2, mu2t).cohomology(n + 1)
            conn = connecting(ses, z2, n)
            import numpy as np
            for c in hm.all_classes():
                vec = hm.presentation.lift(c)
                down = hd.presentation.class_coords(
                    Fp @ np.array(list(vec), dtype=object))
                out = conn.apply_to_class(hd, hp1, down)
                assert all(v == 0 for v in out)

    def test_lift_independence(self):
        # perturbing the lift by anything in the image of i moves the
        # connecting value by a coboundary only
        import numpy as np
        ses = mu_sequence()
        conn = connecting(ses, z2, 1)
        cx_d = RealComplex(z2, mu2t)
        cx_p = RealComplex(z2, mu2t)
        h1 = cx_d.cohomology(1)
        h2p = cx_p.cohomology(2)
        gen = next(c for c in h1.all_classes() if any(c))
        vec = h1.presentation.lift(gen)
        base = conn.apply_to_vector(vec)
        base_class = h2p.presentation.class_coords(base)
        # modified connecting: add i(b) to the lift for every 1-cochain b over S'
        cxp1, cxm1 = RealComplex(z2, mu2t), RealComplex(z2, mu4t)
        Fi = induced_cochain_map(cxp1, cxm1, ses.i, 1)
        import itertools
        total = cxp1.basis(1).total
        for combo in itertools.product(range(2), repeat=total):
            shift = Fi @ np.array(list(combo), dtype=object)
            lifted = conn.lift_matrix @ np.array(list(vec), dtype=object) + shift
            z = conn.cx_mid.differential_matrix(1) @ lifted
            out = conn.corestrict(z)
            assert h2p.presentation.class_coords(out) == base_class


class TestLiftObstruction:
    def test_fixed_lift_obstruction_reported(self):
        # 0 -> Z -(x2)-> Z -> Z/2 -> 0 with sign involutions upstairs:
        # fixed(Z_sign) = 0 but fixed(Z/2) = Z/2, so fixed values over a
        # trivial involution cannot be lifted equivariantly
        zsign = make_standard("Z_sign")
        mu2c = make_standard("mu(2)_conj")
        ses = CoefficientSES(zsign, zsign, mu2c, [[2]], [[1]])
        with pytest.raises(SequenceError, match="obstructed"):
            connecting(ses, z2, 0)

    def test_conjugation_sequence_also_obstructed(self):
        # the same sequence with inversion on the middle Z/4: the fixed
        # subgroup {0, 2} maps onto 0 in the right Z/2, so fixed values
        # have no equivariant lift and the snake construction refuses
        mu2c = make_standard("mu(2)_conj")
        mu4c = make_standard("mu(4)_conj")
        ses = CoefficientSES(mu2c, mu4c, mu2c, [[2]], [[1]])
        with pytest.raises(SequenceError, match="obstructed"):
            connecting(ses, z2, 0)


class TestLongExactSequence:
    @pytest.mark.parametrize("gpd", [z2, z4])
    def test_mu_sequence_exact(self, gpd):
        report = long_exact_sequence_check(mu_sequence(), gpd, 2)
        assert report["exact"], report["slots"]

    def test_nine_term_slot_count(self):
        report = long_exact_sequence_check(mu_sequence(), z2, 2)
        # the 9-term sequence through degree 2 has 7 interior slots plus
        # injectivity of the leading map
        assert len(report["slots"]) == 8
        names = [s["slot"] for s in report["slots"]]
        assert names == ["HR^0(S') injective", "HR^0(S)", "HR^0(S'')",
                         "HR^1(S')", "HR^1(S)", "HR^1(S'')",
                         "HR^2(S')", "HR^2(S)"]

    def test_other_groupoids(self):
        for g in (standard.pair_groupoid(2), standard.flip_action_groupoid()):
            report = long_exact_sequence_check(mu_sequence(), g, 1)
            assert report["exact"], report["slots"]


def unchecked(s_prime, s_mid, s_dprime, i, p):
    """A CoefficientSES built without validation."""
    ses = object.__new__(CoefficientSES)
    ses.s_prime, ses.s_mid, ses.s_dprime = s_prime, s_mid, s_dprime
    ses.i, ses.p = exact.as_int_matrix(i), exact.as_int_matrix(p)
    return ses


def cyclic_sequence(a, b, involution):
    """0 -> Z/a -(xb)-> Z/ab -(mod b)-> Z/b -> 0; S' and S'' are one
    object when a == b."""
    left = make_standard(f"mu({a})_{involution}")
    right = left if a == b else make_standard(f"mu({b})_{involution}")
    return CoefficientSES(left, make_standard(f"mu({a * b})_{involution}"), right,
                          [[b]], [[1]])


def outcome(check, ses, groupoid, degree):
    try:
        return check(ses, groupoid, degree)
    except SequenceError as e:
        return f"SequenceError: {e}"


class TestAgainstEnumeration:
    """Reports and SequenceError messages equal those of the enumeration
    oracle, which checks every slot class by class with the loop
    connecting map."""

    def sequences(self, rng):
        out = [cyclic_sequence(a, b, inv) for a, b in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))
               for inv in ("trivial", "conj")]
        swap = RealCoefficientGroup(0, [2, 2], tau=[[0, 1], [1, 0]])
        out.append(CoefficientSES(mu2t, swap, mu2t, [[1], [1]], [[1, 1]]))
        # obstructed lifts
        mu2c, mu4c = make_standard("mu(2)_conj"), make_standard("mu(4)_conj")
        out.append(CoefficientSES(mu2c, mu4c, mu2c, [[2]], [[1]]))
        # well-defined equivariant maps, exact or not
        maps = [unchecked(make_standard(f"mu({a})_{inv}"), make_standard(f"mu({b})_{inv}"),
                          make_standard(f"mu({c})_{inv}"), [[k]], [[q]])
                for a, b, c in ((2, 4, 2), (2, 2, 2), (4, 4, 2), (2, 4, 4))
                for inv in ("trivial", "conj")
                for k in range(b) if k * a % b == 0
                for q in range(c) if q * b % c == 0]
        return out + rng.sample(maps, 10)

    def test_reports_and_messages(self):
        rng = random.Random(2012)
        corpus = [g for name, g in corpus_groupoids() if name in (
            "Z2", "Z3_inv", "Z4_inv", "pair2_swap", "Z2+Z2_swap", "flip_action")]
        kinds = set()
        for ses in self.sequences(rng):
            assert CoefficientSES.validate(ses) == oracles.enum_validate(ses)
            for g in rng.sample(corpus, 3):
                d = rng.choice((1, 2))
                got = outcome(long_exact_sequence_check, ses, g, d)
                assert got == outcome(oracles.enum_long_exact_sequence_check, ses, g, d)
                kinds.add(got if isinstance(got, str) else got["exact"])
        # exact and non-exact reports, and lifts that fail
        assert {True, False} < kinds and len(kinds) >= 4

    def test_connecting_map_matches_the_loop(self):
        ses = mu_sequence()
        for name, g in corpus_groupoids():
            cxs = [RealComplex(g, S) for S in (mu2t, mu4t, mu2t)]
            for n in (0, 1):
                got, want = ConnectingMap(ses, *cxs, n), oracles.LoopConnectingMap(ses, *cxs, n)
                assert (got.lift_matrix == want.lift_matrix).all(), name
                h = cxs[2].cohomology(n)
                for col, _ in h.presentation.generators():
                    assert (got.apply_to_vector(col) == want.apply_to_vector(col)).all()


class TestInfiniteGroups:
    @pytest.mark.parametrize("i, message", [
        ([[1]], "im i != ker p"),
        ([[0]], "i is not injective; im i != ker p"),
        ([[3]], "im i != ker p"),
    ])
    def test_integral_sequence_is_checked(self, i, message):
        zt = make_standard("Z_trivial")
        with pytest.raises(SequenceError) as err:
            CoefficientSES(zt, zt, make_standard("Z2_trivial"), i, [[1]])
        assert str(err.value) == message

    def test_exactness_needs_well_defined_maps(self):
        # x1: Z/2 -> Z/4 is no homomorphism; enumeration also found im i != ker p
        ses = unchecked(mu2t, mu4t, mu2t, [[1]], [[1]])
        assert ses.validate() == ["i is not well defined"]
        assert oracles.enum_validate(ses) == ["i is not well defined", "im i != ker p"]

    def test_integral_bockstein_exact(self):
        zt = make_standard("Z_trivial")
        ses = CoefficientSES(zt, zt, make_standard("Z2_trivial"), [[2]], [[1]])
        corpus = dict(corpus_groupoids())
        for name in ("Z2", "Z4", "pair2", "Z4_inv", "flip_action"):
            report = long_exact_sequence_check(ses, corpus[name], 2)
            assert report["exact"], (name, report["slots"])
            # x2 on HR^0 = Z: image and kernel are infinite and read 0
            assert report["slots"][1] == {"slot": "HR^0(S)", "exact": True,
                                          "image_size": 0, "kernel_size": 0}


def test_complexes_are_shared(count_calls):
    from realcech import cochains
    bases = count_calls(cochains.LevelBasis, "__init__")
    diffs = count_calls(cochains, "coboundary_matrix")
    # a groupoid of its own: the module's z4 keeps what earlier tests built
    g = standard.cyclic_group(4)
    long_exact_sequence_check(mu_sequence(), g, 2)
    # levels 0-3 and d^0-d^2 of mu(2) (S' and S'') and of mu(4)
    assert (len(bases), len(diffs)) == (8, 6)
    # the groupoid keeps them while it and the groups live: none is built again
    long_exact_sequence_check(mu_sequence(), g, 2)
    assert (len(bases), len(diffs)) == (8, 6)
