import pytest

from realcech import standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard
from realcech.les import (CoefficientSES, ConnectingMap, SequenceError,
                          induced_cochain_map, long_exact_sequence_check)

mu2t = make_standard("mu(2)_trivial")
mu4t = make_standard("mu(4)_trivial")
z2 = standard.cyclic_group(2)
z4 = standard.cyclic_group(4)


def mu_sequence():
    # 0 -> Z/2 -(x2)-> Z/4 -(mod 2)-> Z/2 -> 0
    return CoefficientSES(mu2t, mu4t, mu2t, [[2]], [[1]])


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


class TestConnecting:
    def test_zero_maps_to_zero(self):
        ses = mu_sequence()
        conn = ConnectingMap(ses, z2, 1)
        h1 = RealComplex(z2, mu2t).cohomology(1)
        h2 = RealComplex(z2, mu2t).cohomology(2)
        zero = tuple(0 for _ in next(iter(h1.all_classes())))
        assert all(v == 0 for v in conn.apply_to_class(h1, h2, zero))

    def test_bockstein_nontrivial(self):
        ses = mu_sequence()
        conn = ConnectingMap(ses, z2, 1)
        h1 = RealComplex(z2, mu2t).cohomology(1)
        h2 = RealComplex(z2, mu2t).cohomology(2)
        gen = next(c for c in h1.all_classes() if any(c))
        img = conn.apply_to_class(h1, h2, gen)
        assert any(v != 0 for v in img)

    def test_composite_vanishes(self):
        # HR^n(S) -> HR^n(S'') -> HR^(n+1)(S') is zero (exactness instance)
        ses = mu_sequence()
        for n in (0, 1):
            Fp, cxm, cxd = induced_cochain_map(z2, mu4t, mu2t, ses.p, n)
            hm = cxm.cohomology(n)
            hd = cxd.cohomology(n)
            hp1 = RealComplex(z2, mu2t).cohomology(n + 1)
            conn = ConnectingMap(ses, z2, n)
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
        conn = ConnectingMap(ses, z2, 1)
        cx_d = RealComplex(z2, mu2t)
        cx_p = RealComplex(z2, mu2t)
        h1 = cx_d.cohomology(1)
        h2p = cx_p.cohomology(2)
        gen = next(c for c in h1.all_classes() if any(c))
        vec = h1.presentation.lift(gen)
        base = conn.apply_to_vector(vec)
        base_class = h2p.presentation.class_coords(base)
        # modified connecting: add i(b) to the lift for every 1-cochain b over S'
        Fi, cxp1, cxm1 = induced_cochain_map(z2, mu2t, mu4t, ses.i, 1)
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
            ConnectingMap(ses, z2, 0)

    def test_conjugation_sequence_also_obstructed(self):
        # the same sequence with inversion on the middle Z/4: the fixed
        # subgroup {0, 2} maps onto 0 in the right Z/2, so fixed values
        # have no equivariant lift and the snake construction refuses
        mu2c = make_standard("mu(2)_conj")
        mu4c = make_standard("mu(4)_conj")
        ses = CoefficientSES(mu2c, mu4c, mu2c, [[2]], [[1]])
        with pytest.raises(SequenceError, match="obstructed"):
            ConnectingMap(ses, z2, 0)


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
