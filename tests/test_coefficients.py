import random

import numpy as np
import pytest

from realcech import exact, standard
from realcech.coefficients import (RealCoefficientGroup, RealRepresentation,
                                   half_localized_decomposition, make_standard)


class TestStandardInstances:
    def test_z_sign(self):
        s = make_standard("Z_sign")
        assert s.free_rank == 1 and s.tau[0, 0] == -1

    def test_mu4_conj(self):
        s = make_standard("mu(4)_conj")
        assert s.invariant_factors == [4]
        assert s.tau_tuple((1,)) == (3,)

    def test_q11(self):
        s = make_standard("Q(1,1)")
        assert s.mode == "rational" and s.free_rank == 2
        assert s.tau[0, 0] == 1 and s.tau[1, 1] == -1

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_standard("nonsense")

    def test_tau_must_preserve_the_relations(self):
        # swapping the generators of Z/2 + Z/4 sends 2*e_0 = 0 to 2*e_1 != 0
        with pytest.raises(ValueError, match="tau does not preserve the torsion relations"):
            RealCoefficientGroup(0, [2, 4], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("free_rank, factors", [(0, [5]), (1, [])])
    def test_tau_must_be_an_involution(self, free_rank, factors):
        # multiplication by 2 squares to 4, which is 1 neither mod 5 nor in Z
        with pytest.raises(ValueError, match="tau is not 2-periodic"):
            RealCoefficientGroup(free_rank, factors, [[2]])

    def test_tau_involutive_on_generators(self, presets):
        for name, S in presets:
            T2 = S.tau @ S.tau
            for j in range(S.ngens):
                col = [T2[i, j] - (1 if i == j else 0) for i in range(S.ngens)]
                reduced = S.reduce_tuple(tuple(
                    c if i < S.free_rank else c
                    for i, c in enumerate(col)))
                assert all(
                    (v == 0 if i < S.free_rank else v % S.invariant_factors[i - S.free_rank] == 0)
                    for i, v in enumerate(col)), name


class TestFixedSubgroup:
    def test_z_sign_parts(self):
        s = make_standard("Z_sign")
        fixed, _ = s.fixed_part()
        imag, _ = s.imaginary_part()
        assert fixed.group_key() == (0, ())
        assert imag.group_key() == (1, ())

    def test_mu4_conj_fixed_is_z2(self):
        s = make_standard("mu(4)_conj")
        fixed, E = s.fixed_part()
        assert fixed.group_key() == (0, (2,))
        # the generator embeds as the order-2 element
        assert s.reduce_tuple(tuple(E[:, 0])) == (2,)

    def test_mu_m_trivial_fixed_everything(self):
        s = make_standard("mu(6)_trivial")
        fixed, _ = s.fixed_part()
        assert fixed.group_key() == (0, (6,))

    def test_fixed_meets_imaginary_in_two_torsion(self, presets):
        for name, S in presets:
            if not S.is_finite():
                continue
            fixed = {e for e in S.elements() if S.tau_tuple(e) == e}
            imag = {e for e in S.elements()
                    if S.tau_tuple(e) == S.neg_tuple(e)}
            meet = fixed & imag
            for e in meet:
                assert S.add_tuples(e, e) == S.zero_tuple(), name


class TestHalfLocalization:
    def test_z3_inversion(self):
        s = RealCoefficientGroup(0, [3], [[-1]])
        fixed, imag, split = half_localized_decomposition(s)
        assert fixed == (0, ()) and imag == (0, (3,))
        for e in s.elements():
            fx, im = split(e)
            assert s.add_tuples(fx, im) == s.add_tuples(e, e)

    def test_z6_identity(self):
        s = RealCoefficientGroup(0, [6], [[1]])
        fixed, imag, _ = half_localized_decomposition(s)
        assert fixed == (0, (3,)) and imag == (0, ())

    def test_z_sign(self):
        fixed, imag, _ = half_localized_decomposition(make_standard("Z_sign"))
        assert fixed == (0, ()) and imag == (1, ())

    def test_standard_instances(self, presets):
        for name, S in presets:
            half_localized_decomposition(S)  # raises on mismatch

    def test_random_small_tau_groups(self):
        rng = random.Random(20240402)
        made = 0
        while made < 5:
            factors = sorted(rng.sample([2, 2, 3, 4, 4, 6, 8, 9, 12], 2))
            if factors[1] % factors[0]:
                continue
            k = 2
            tau = exact.eye(k)
            # random signs, and a swap when the factors agree
            for i in range(k):
                tau[i, i] = rng.choice([1, -1])
            if factors[0] == factors[1] and rng.random() < 0.5:
                tau = tau[[1, 0], :]
            s = RealCoefficientGroup(0, factors, tau)
            half_localized_decomposition(s)
            made += 1


class TestRepresentations:
    def test_trivial_valid(self):
        rep = RealRepresentation.trivial(standard.cyclic_group(3), 1, 1)
        assert rep.validate() == []

    def test_sign_action_of_z2(self):
        z2 = standard.cyclic_group(2)
        rep = RealRepresentation(z2, 1, 0, [[[1]], [[-1]]], [[[1]]])
        assert rep.validate() == []

    def test_broken_functoriality_flagged(self):
        z2 = standard.cyclic_group(2)
        # the generator acts by 2, which is not an involution
        rep = RealRepresentation(z2, 1, 0, [[[1]], [[2]]], [[[1]]])
        report = rep.validate()
        assert any("functoriality" in r or "invertible" in r for r in report)

    def test_rotation_rep_of_z4_inversion(self):
        z4i = standard.cyclic_group(4, "inversion")
        rot = np.array([[0, -1], [1, 0]])
        action = [np.linalg.matrix_power(rot, g).tolist() for g in range(4)]
        rep = RealRepresentation(z4i, 1, 1, action, [[[1, 0], [0, -1]]])
        assert rep.validate() == []

    def test_wrong_fiber_type_flagged(self):
        z2 = standard.cyclic_group(2)
        rep = RealRepresentation(z2, 1, 1,
                                 [[[1, 0], [0, 1]]] * 2,
                                 [[[1, 0], [0, 1]]])  # claims (1,1), acts as (2,0)
        assert any("fiber type" in r for r in rep.validate())


def test_default_kappa(presets):
    assert make_standard("mu(4)_conj").default_kappa() == (2,)
    assert make_standard("mu(2)_conj").default_kappa() == (1,)
    assert make_standard("Z_sign").default_kappa() is None


def test_rational_fixed_plus_imaginary_spans():
    # over the rationals the decomposition is exact with no localization:
    # dim fixed + dim imaginary = p + q
    for p, q in ((1, 1), (2, 0), (0, 2), (2, 3)):
        S = make_standard(f"Q({p},{q})")
        fixed, _ = S.fixed_part()
        imag, _ = S.imaginary_part()
        assert fixed.free_rank == p and imag.free_rank == q
