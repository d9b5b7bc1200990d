import numpy as np
import pytest

from realcech import standard
from realcech.coefficients import make_standard
from realcech.groupoids import (FiniteRealGroupoid, RealCover, cech_groupoid,
                                cover_groupoid, find_isomorphism,
                                product_with_group, pullback_groupoid)


def test_corpus_validates(corpus):
    for name, g in corpus:
        assert g.validate() == [], name


def test_z4_involutions():
    assert standard.cyclic_group(4).validate() == []
    assert standard.cyclic_group(4, "inversion").validate() == []


def test_broken_involution_reported():
    table = np.array([[(a + b) % 4 for b in range(4)] for a in range(4)])
    bad = FiniteRealGroupoid(1, [0] * 4, [0] * 4, [0], table,
                             [(-a) % 4 for a in range(4)],
                             [0], [(a + 1) % 4 for a in range(4)])
    report = bad.validate()
    assert any("2-periodic" in line and "0" in line for line in report)


def test_broken_composition_reported():
    table = np.array([[0, 1], [1, 1]])  # 1*1 should be 0 in Z/2
    bad = FiniteRealGroupoid(1, [0, 0], [0, 0], [0], table, [0, 1])
    assert bad.validate() != []


class TestCoverGroupoid:
    def test_trivial_cover_isomorphic(self):
        x2 = standard.discrete_space(2)
        cg, iota = cover_groupoid(x2, RealCover(x2, [[0, 1]]))
        assert sorted(iota) == list(range(x2.n_arrows))
        assert find_isomorphism(cg, x2) is not None

    def test_partition_cover_is_identity(self):
        x2 = standard.discrete_space(2)
        cg, _ = cover_groupoid(x2, RealCover(x2, [[0], [1]]))
        assert cg.n_objects == 2 and cg.n_arrows == 2
        assert find_isomorphism(cg, x2) is not None

    def test_overlapping_cover_counts(self):
        # {{a},{a,b}} over the 2-point space: 3 objects, 5 arrows
        x2 = standard.discrete_space(2)
        cg, _ = cover_groupoid(x2, RealCover(x2, [[0], [0, 1]]))
        assert (cg.n_objects, cg.n_arrows) == (3, 5)
        assert cg.validate() == []

    def test_iota_strict_real_morphism(self, corpus):
        p2 = standard.pair_groupoid(2, [1, 0])
        cg, iota = cover_groupoid(p2, RealCover(p2, [[0], [1], [0, 1]]))
        assert cg.validate() == []
        for i in range(cg.n_arrows):
            assert p2.rho_arr[iota[i]] == iota[cg.rho_arr[i]]
            for j in range(cg.n_arrows):
                k = cg.comp[i, j]
                if k >= 0:
                    assert p2.comp[iota[i], iota[j]] == iota[k]

    def test_invalid_cover_rejected(self):
        x2 = standard.discrete_space(2, [1, 0])
        with pytest.raises(ValueError, match="not invariant"):
            RealCover(x2, [[0], [0, 1]])
        with pytest.raises(ValueError, match="cover"):
            RealCover(standard.discrete_space(2), [[0]])


class TestCechGroupoid:
    def test_identity_map(self):
        cg = cech_groupoid([0, 1], [1, 0], [1, 0], 2)
        assert find_isomorphism(cg, standard.discrete_space(2, [1, 0])) is not None

    def test_two_points_over_one(self):
        cg = cech_groupoid([0, 0], [0, 1], [0], 1)
        assert cg.n_arrows == 4
        assert cg.validate() == []

    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError, match="surjective"):
            cech_groupoid([0, 0], [0, 1], [0, 1], 2)

    def test_rejects_involution_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cech_groupoid([0, 1], [1, 0], [0, 1], 2)

    def test_arrays_pinned(self):
        # arrows (y1, y2) with pi(y1) == pi(y2), in lexicographic order
        cg = cech_groupoid([0, 1, 1], [0, 2, 1], [0, 1], 2)
        assert cg.src.tolist() == [0, 1, 2, 1, 2]
        assert cg.tgt.tolist() == [0, 1, 1, 2, 2]
        assert cg.inv.tolist() == [0, 1, 3, 2, 4]
        assert cg.rho_arr.tolist() == [0, 4, 3, 2, 1]
        assert cg.comp.tolist() == [[0, -1, -1, -1, -1],
                                    [-1, 1, 2, -1, -1],
                                    [-1, -1, -1, 1, 2],
                                    [-1, 3, 4, -1, -1],
                                    [-1, -1, -1, 3, 4]]


class TestPullbackGroupoid:
    def test_identity(self):
        fa = standard.flip_action_groupoid()
        pb = pullback_groupoid(fa, [0, 1], [1, 0])
        assert find_isomorphism(pb, fa) is not None

    def test_constant_onto_group(self):
        z3 = standard.cyclic_group(3)
        pb = pullback_groupoid(z3, [0, 0], [0, 1])
        assert pb.n_arrows == 2 * 3 * 2
        assert pb.validate() == []

    def test_rejects_involution_mismatch(self):
        fa = standard.flip_action_groupoid()
        with pytest.raises(ValueError, match="mismatch"):
            pullback_groupoid(fa, [0, 1], [0, 1])


class TestProductWithGroup:
    def test_z2_times_mu2_is_group_of_order_4(self):
        g = product_with_group(standard.cyclic_group(2),
                               make_standard("mu(2)_conj"))
        assert g.n_objects == 1 and g.n_arrows == 4
        assert g.validate() == []

    def test_extracted_class_trivial(self):
        from realcech.extensions import ExtensionGroupoid, extract_cocycle, trivial_twist
        z2 = standard.cyclic_group(2)
        mu2 = make_standard("mu(2)_conj")
        t0 = trivial_twist(z2, mu2)
        E = ExtensionGroupoid(t0)
        om = extract_cocycle(E)
        assert all(v == 0 for v in om.vector)
        # the materialized total groupoid agrees with the plain product
        assert find_isomorphism(E.as_groupoid(),
                                product_with_group(z2, mu2)) is not None

    def test_infinite_refused(self):
        with pytest.raises(ValueError, match="finite"):
            product_with_group(standard.cyclic_group(2),
                               make_standard("Z_sign"))


def test_structure_arrays_immutable(corpus):
    # shared values must not be mutable under concurrent use
    for name, g in corpus:
        for arr in (g.src, g.tgt, g.unit, g.inv, g.comp, g.rho_obj, g.rho_arr):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_size_cap():
    with pytest.raises(ValueError, match="too many"):
        n = (1 << 16) + 1
        FiniteRealGroupoid(1, [0] * n, [0] * n, [0],
                           np.full((1, 1), -1), [0] * n)


def test_size_cap_follows_the_environment(monkeypatch):
    monkeypatch.setenv("RGC_MAX_ARROWS", "1")
    with pytest.raises(ValueError, match="too many arrows"):
        standard.cyclic_group(2)
