import pytest

from realcech import standard
from realcech.bundles import (BundleError, bundle_from_cocycle,
                              bundle_inverse, bundle_sum,
                              bundles_isomorphic, classify_bundles)
from realcech.cochains import RealComplex, cohomology
from realcech.coefficients import make_standard

mu2 = make_standard("mu(2)_conj")
mu4 = make_standard("mu(4)_conj")
z2 = standard.cyclic_group(2)


def test_trivial_bundle():
    b = bundle_from_cocycle(z2, mu4, RealComplex(z2, mu4).zero_cochain(1))
    assert b.verify() == []
    for g in range(2):
        for s in mu4.elements():
            assert b.act(g, (0, s)) == (0, s)


def test_nontrivial_hom_translates():
    cx = RealComplex(z2, mu2)
    c = cx.from_values(1, lambda t: (t[0] % 2,))
    b = bundle_from_cocycle(z2, mu2, c)
    assert b.verify() == []
    assert b.act(1, (0, (0,))) == (0, (1,))


def test_non_cocycle_rejected():
    z4 = standard.cyclic_group(4)
    mu4t = make_standard("mu(4)_trivial")
    cx = RealComplex(z4, mu4t)
    # c(1) = 1 is not a homomorphism into mu4: dc(1,1) = 2
    c = cx.from_values(1, lambda t: (1,) if t[0] == 1 else (0,))
    assert not cx.is_cocycle(c)
    with pytest.raises(BundleError, match="pair"):
        bundle_from_cocycle(z4, mu4t, c)


def test_action_axioms_on_corpus(corpus):
    for name, g in corpus:
        h1, reps = classify_bundles(g, mu4)
        for _, b in reps:
            assert b.verify() == [], name


def test_sum_and_inverse():
    h1, reps = classify_bundles(z2, mu4)
    trivial = reps[0][1]
    nontriv = next(b for coords, b in reps if any(coords))
    s = bundle_sum(nontriv, nontriv)
    assert bundles_isomorphic(s, trivial, cross_check=True)[0]
    inv = bundle_inverse(nontriv)
    assert bundles_isomorphic(bundle_sum(nontriv, inv), trivial,
                              cross_check=True)[0]


def test_sum_cocycle_additivity():
    cx = RealComplex(z2, mu2)
    c = cx.from_values(1, lambda t: (t[0] % 2,))
    b = bundle_from_cocycle(z2, mu2, c)
    s = bundle_sum(b, b)
    assert all((s.cocycle - (c + c)).vector == 0)


def test_iso_self_identity_witness():
    h1, reps = classify_bundles(z2, mu4)
    b = reps[0][1]
    flag, witness = bundles_isomorphic(b, b, cross_check=True)
    assert flag
    assert all(v == 0 for v in witness.vector)


def test_cohomologous_cocycles_isomorphic():
    cx = RealComplex(standard.pair_groupoid(2), mu4)
    # db for a real 0-cochain gives a bundle isomorphic to the trivial one
    b0 = cx.from_values(0, lambda t: (2,))
    c = cx.d(b0)
    z1 = bundle_from_cocycle(standard.pair_groupoid(2), mu4, c)
    z0 = bundle_from_cocycle(standard.pair_groupoid(2), mu4, cx.zero_cochain(1))
    flag, witness = bundles_isomorphic(z1, z0, cross_check=True)
    assert flag and witness is not None


def test_routes_agree_on_corpus(corpus):
    for name, g in corpus:
        if g.n_arrows > 8:
            continue
        for S in (mu2, mu4):
            h1, reps = classify_bundles(g, S)
            for _, b1 in reps:
                for _, b2 in reps:
                    bundles_isomorphic(b1, b2, cross_check=True)  # raises on disagreement


def test_class_count_matches_h1(corpus):
    for name, g in corpus:
        for S in (mu2, mu4):
            h1, reps = classify_bundles(g, S)
            assert len(reps) == h1.order(), name
            assert len(reps) == cohomology(g, S, 1).order(), name
            # distinct classes are pairwise non-isomorphic
            for i, (_, a) in enumerate(reps):
                for j, (_, b) in enumerate(reps):
                    flag, _ = bundles_isomorphic(a, b)
                    assert flag == (i == j), name


def test_trivial_group_single_class():
    h1, reps = classify_bundles(standard.cyclic_group(1), mu4)
    assert len(reps) == 1


def test_z2_mu4_two_classes():
    h1, reps = classify_bundles(z2, mu4)
    assert len(reps) == 2


def test_cochain_of_another_group_is_rejected():
    c = RealComplex(z2, mu2).from_values(1, lambda t: (t[0] % 2,))
    with pytest.raises(BundleError, match=r"mu\(4\)_conj.*mu\(2\)_conj"):
        bundle_from_cocycle(z2, mu4, c)
    with pytest.raises(BundleError, match=r"mu\(4\)_conj.*mu\(2\)_conj"):
        bundle_sum(bundle_from_cocycle(z2, mu4, [0, 0]),
                   bundle_from_cocycle(z2, mu2, c))


def test_verify_matches_the_loop_on_every_cochain(corpus):
    """Every 1-cochain, cocycle or not, of the corpus groupoids with at
    most 4 arrows: the same messages in the same order."""
    import itertools
    from realcech.bundles import RealPrincipalBundle
    from oracles import loop_bundle_verify
    flagged = 0
    for name, g in corpus:
        if g.n_arrows > 4:
            continue
        for S in (mu2, mu4):
            cx = RealComplex(g, S)
            for vec in itertools.product(*map(range, cx.basis(1).moduli)):
                b = RealPrincipalBundle(g, S, cx.cochain(1, vec))
                bad = b.verify()
                assert bad == loop_bundle_verify(b), (name, vec)
                flagged += bool(bad)
    assert flagged > 100


def test_act_reads_the_cocycle_once(corpus, count_calls):
    """Every point of every bundle of the HR^1 classes of the corpus, acted
    on by every arrow: one evaluation of the cocycle per bundle, values
    equal to those read one arrow at a time, and axioms equal to the
    loop's."""
    from realcech.cochains import LevelBasis
    from oracles import loop_bundle_verify
    calls = count_calls(LevelBasis, "values")
    for name, g in corpus:
        for S in (mu2, mu4):
            _, bundles = classify_bundles(g, S)
            for coords, b in bundles:
                points = [(a, (int(g.src[a]), s))
                          for a in range(g.n_arrows) for s in S.elements()]
                before = len(calls)
                got = [b.act(a, z) for a, z in points]
                assert len(calls) == before + 1, (name, coords)
                assert got == [(int(g.tgt[a]), S.add_tuples(b.cocycle.value_at((a,)), z[1]))
                               for a, z in points], (name, coords)
                assert b.verify() == loop_bundle_verify(b) == [], (name, coords)
