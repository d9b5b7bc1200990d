import random
import re
import tracemalloc

import numpy as np
import pytest

from realcech import exact, standard
from realcech.coefficients import (MAX_GENERATORS, RealCoefficientGroup, RealRepresentation,
                                   canonical_key, half_localized_decomposition,
                                   make_standard)

from oracles import enum_default_kappa, enum_tables, loop_rep_validate, trial_division_canon


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

    def test_mixed_odd_parts(self):
        # Z/15 with tau = 4: fixed part Z/3 and imaginary part Z/5, whose
        # sum Z/3 + Z/5 is Z/15 again
        fixed, imag, _ = half_localized_decomposition(RealCoefficientGroup(0, [15], [[4]]))
        assert fixed == (0, (3,)) and imag == (0, (5,))
        assert canonical_key((0, (3, 5))) == canonical_key((0, (15,))) == (0, (15,))
        assert canonical_key((1, (3, 9))) != canonical_key((1, (27,)))

    def test_canonical_key_matches_trial_division(self):
        # odd prime powers grouped into factors at random; half of the
        # pairs regroup the same prime powers
        rng = random.Random(1419)
        powers = [3, 3, 9, 27, 5, 25, 7, 11]

        def regroup(rank, chosen):
            factors = [1] * rng.randint(1, 3)
            for q in chosen:
                factors[rng.randrange(len(factors))] *= q
            return rank, tuple(f for f in factors if f > 1)

        same = 0
        for _ in range(300):
            rank, chosen = rng.randint(0, 1), rng.sample(powers, rng.randint(0, 4))
            a = regroup(rank, chosen)
            b = regroup(rank, chosen) if rng.random() < 0.5 else \
                regroup(rng.randint(0, 1), rng.sample(powers, rng.randint(0, 4)))
            agree = trial_division_canon(a) == trial_division_canon(b)
            assert (canonical_key(a) == canonical_key(b)) == agree, (a, b)
            same += agree
        assert 100 < same < 250

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


    @pytest.mark.parametrize("action, nu, message", [
        ([[[1]], [[1]]], [[[1, 0], [0, -1]]], "action matrix of arrow 0 is not 2x2"),
        ([[[1, 0], [0, 1]], [[1, 0], [0]]], [[[1, 0], [0, -1]]],
         "action matrix of arrow 1 is not 2x2"),
        ([[[1, 0], [0, 1]]] * 2, [[[1, 0, 0], [0, -1, 0]]],
         "involution matrix of object 0 is not 2x2"),
        ([[[1, 0], [0, 1]]], [[[1, 0], [0, -1]]], "one action matrix per arrow required"),
        ([[[1, 0], [0, 1]]] * 2, [], "one involution matrix per object required"),
    ])
    def test_matrices_of_another_shape_refused(self, action, nu, message):
        # the checks would read past a 1 x 1 matrix, or multiply a ragged one
        z2i = standard.cyclic_group(2, "inversion")
        with pytest.raises(ValueError) as e:
            RealRepresentation(z2i, 1, 1, action, nu)
        assert str(e.value) == message

    def test_validate_matches_the_loop_on_mutants(self, corpus):
        rng = random.Random(25)
        kinds, nonempty, used = set(), 0, set()
        for _ in range(400):
            name, G = rng.choice(corpus)
            used.add(name)
            p, q = rng.choice(((1, 0), (1, 1), (0, 2), (2, 1)))
            rep = RealRepresentation.trivial(G, p, q)
            action, nu = rep.action.copy(), rep.nu.copy()
            for _ in range(rng.choice((0, 1, 1, 2))):
                M = rng.choice((action, nu))
                M[tuple(rng.randrange(k) for k in M.shape)] = rng.choice((-1, 0, 1, 2))
            rep = RealRepresentation(G, p, q, action, nu)
            report = loop_rep_validate(rep)
            assert rep.validate() == report
            nonempty += bool(report)
            kinds.update(re.sub(r"\d+(?!-)", "#", line) for line in report)
        assert len(used) >= 6 and nonempty >= 200
        assert kinds == {
            "action of unit(#) is not the identity",
            "action of # is not invertible via inv(#)",
            "functoriality fails at (#,#)",
            "nu is not 2-periodic at object #",
            "fiber type at fixed object # is not (#,#)",
            "action is not Real at arrow #",
        }


def custom_finite_groups():
    """Finite groups whose involution is not a sign: swaps of equal
    summands, and e1 -> e1 + 3 e2 on Z/2 + Z/6; and s -> -s on Z/4 written
    as 2^50 - 1, whose products leave int64 unless tau is reduced first."""
    return [RealCoefficientGroup(0, [4], [[2 ** 50 - 1]]),
            RealCoefficientGroup(0, [2, 2], [[0, 1], [1, 0]]),
            RealCoefficientGroup(0, [3, 3], [[0, 1], [1, 0]]),
            RealCoefficientGroup(0, [2, 6], [[1, 0], [3, 1]]),
            RealCoefficientGroup(0, [2, 2, 4], [[0, 1, 0], [1, 0, 0], [0, 0, -1]])]


def test_tables_and_kappa_match_enumeration():
    presets = [make_standard(name) for name in
               ["Z2_trivial"] + [f"mu({m})_{kind}" for m in range(1, 9)
                                 for kind in ("conj", "trivial")]]
    for S in presets + custom_finite_groups():
        ts, add, tau = S.tables()
        want_ts, want_add, want_tau = enum_tables(S)
        assert ts == want_ts and (add == want_add).all() and (tau == want_tau).all(), S
        assert (S.element_index(np.array(ts).reshape(len(ts), S.ngens)) ==
                np.arange(len(ts))).all()
        assert S.default_kappa() == enum_default_kappa(S), S
    # only a sum of generators is fixed under the swap
    assert custom_finite_groups()[1].default_kappa() == (1, 1)


def test_default_kappa(presets):
    assert make_standard("mu(4)_conj").default_kappa() == (2,)
    assert make_standard("mu(2)_conj").default_kappa() == (1,)
    assert make_standard("Z_sign").default_kappa() is None
    assert make_standard("Z2_trivial").default_kappa() == (1,)


def test_default_kappa_builds_no_sum_table():
    # the sum table of mu(4096) alone would take 128 MiB
    S = make_standard("mu(4096)_conj")
    tracemalloc.start()
    try:
        kappa = S.default_kappa()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kappa == (2048,) and peak < 2 * 2 ** 20


def test_rational_fixed_plus_imaginary_spans():
    # over the rationals the decomposition is exact with no localization:
    # dim fixed + dim imaginary = p + q
    for p, q in ((1, 1), (2, 0), (0, 2), (2, 3)):
        S = make_standard(f"Q({p},{q})")
        fixed, _ = S.fixed_part()
        imag, _ = S.imaginary_part()
        assert fixed.free_rank == p and imag.free_rank == q


@pytest.mark.parametrize("free_rank, torsion", [(100000, []), (MAX_GENERATORS, [2])])
def test_too_many_generators_refused_before_allocating(free_rank, torsion):
    # the default tau of 100000 generators would be a 74.5 GiB object matrix
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"too many generators \((\d+) > 256\)"):
            RealCoefficientGroup(free_rank, torsion)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert RealCoefficientGroup(MAX_GENERATORS, []).ngens == MAX_GENERATORS
