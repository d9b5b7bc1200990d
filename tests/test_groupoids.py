import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (loop_cover_groupoid, loop_cyclic_group, loop_disjoint_union,
                     loop_group_from_table, loop_pair_groupoid,
                     loop_product_with_group, loop_pullback_groupoid,
                     loop_validate)
from realcech import standard
from realcech.coefficients import make_standard
from realcech.groupoids import (FiniteRealGroupoid, RealCover, cech_groupoid,
                                cover_groupoid, discrete_space, find_isomorphism,
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

    def test_rejects_a_table_that_is_not_a_groupoid(self):
        # 1 * 1 is undefined although 1 is composable with itself
        bad = FiniteRealGroupoid(1, [0, 0], [0, 0], [0], [[0, 1], [1, -1]],
                                 [0, 1])
        with pytest.raises(ValueError, match="not a groupoid"):
            pullback_groupoid(bad, [0], [0])


def test_flip_action_arrays_pinned():
    # arrows (g, x) numbered 2g + x: src x, tgt g.x
    fa = standard.flip_action_groupoid()
    assert fa.src.tolist() == [0, 1, 0, 1]
    assert fa.tgt.tolist() == [0, 1, 1, 0]
    assert fa.unit.tolist() == [0, 1]
    assert fa.inv.tolist() == [0, 1, 3, 2]
    assert fa.rho_obj.tolist() == [1, 0]
    assert fa.rho_arr.tolist() == [1, 0, 3, 2]
    assert fa.comp.tolist() == [[0, -1, -1, 3],
                                [-1, 1, 2, -1],
                                [2, -1, -1, 1],
                                [-1, 3, 0, -1]]


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


@pytest.mark.parametrize("build", [
    lambda: standard.pair_groupoid(32),
    lambda: product_with_group(standard.pair_groupoid(8),
                               make_standard("mu(16)_trivial")),
    lambda: standard.cyclic_group(1024),
    # the summands are built once, at collection, under the default cap
    lambda half=standard.cyclic_group(512): standard.disjoint_union(half, half),
])
def test_constructions_refuse_before_allocating(monkeypatch, build):
    # each has 1024 arrows: an 8 MiB composition table
    monkeypatch.setenv("RGC_MAX_ARROWS", "1000")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"too many arrows \(1024 > 1000\)"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("field, value, message", [
    ("unit", [0, 0], "unit has shape"),
    ("unit", [4], "unit entry 4 is out of range"),
    ("inv", [0, 1, 2, -1], "inv entry -1 is out of range"),
    ("comp", np.full((4, 4), 4), "composition table entry 4"),
    ("comp", np.full((4, 4), -2), "composition table entry -2"),
    ("rho_obj", [1], "rho_obj entry 1"),
    ("rho_arr", [0, 1, 2], "rho_arr has shape"),
    ("tgt", [0, 0, 0], "tgt has shape"),
    ("src", [0, 0, 0, 1], "src entry 1"),
])
def test_index_arrays_checked_at_construction(field, value, message):
    z4 = standard.cyclic_group(4)
    arrays = {"src": z4.src, "tgt": z4.tgt, "unit": z4.unit, "comp": z4.comp,
              "inv": z4.inv, "rho_obj": z4.rho_obj, "rho_arr": z4.rho_arr}
    arrays[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteRealGroupoid(1, arrays["src"], arrays["tgt"], arrays["unit"],
                           arrays["comp"], arrays["inv"], arrays["rho_obj"],
                           arrays["rho_arr"])


# -- the array constructions and validate against the loop oracles -------

def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as e:
        return str(e)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert got.structurally_equal(want)
    assert got.validate() == loop_validate(want)


def _random_involution(rng, n):
    points = list(range(n))
    rng.shuffle(points)
    rho = list(range(n))
    for a, b in zip(points[::2], points[1::2]):
        if rng.random() < 0.7:
            rho[a], rho[b] = b, a
    return rho


class TestAgainstLoopOracles:
    def test_pullbacks_from_up_to_four_points(self, corpus):
        rng = random.Random(8)
        for name, G in corpus:
            for n_z in range(1, 5):
                for _ in range(6):
                    if rng.random() < 0.8:
                        rho_z = _random_involution(rng, n_z)
                        # phi at the smaller point of each orbit first, then
                        # phi(rho z) = rho(phi z) at its partner
                        phi = [0] * n_z
                        for z in sorted(range(n_z), key=lambda z: rho_z[z] < z):
                            phi[z] = int(G.rho_obj[phi[rho_z[z]]]) \
                                if rho_z[z] < z else rng.randrange(G.n_objects)
                    else:
                        rho_z = [rng.randrange(n_z) for _ in range(n_z)]
                        phi = [rng.randrange(G.n_objects) for _ in range(n_z)]
                    _assert_same(_outcome(pullback_groupoid, G, phi, rho_z),
                                 _outcome(loop_pullback_groupoid, G, phi, rho_z))

    def test_invariant_covers_of_up_to_three_blocks(self, corpus):
        rng = random.Random(8)
        for name, G in corpus:
            n = G.n_objects
            for _ in range(8):
                first = rng.sample(range(n), rng.randint(1, n))
                blocks = [sorted(first)]
                image = sorted(int(G.rho_obj[x]) for x in first)
                if image != blocks[0]:
                    blocks.append(image)
                rest = sorted(set(range(n)).difference(*blocks))
                if rest:
                    blocks.append(rest)
                if len(blocks) < 3 and rng.random() < 0.5:
                    blocks.append(list(range(n)))
                blocks = [list(b) for b in {tuple(b): 0 for b in blocks}]
                rng.shuffle(blocks)
                if len(blocks) > 3:
                    continue
                cover = RealCover(G, blocks)
                got, iota = cover_groupoid(G, cover)
                want, want_iota = loop_cover_groupoid(G, cover)
                _assert_same(got, want)
                assert iota.tolist() == want_iota.tolist()

    def test_pair_groupoids_for_every_map_up_to_four_points(self):
        for n in range(5):
            for rho in itertools.product(range(n), repeat=n):
                _assert_same(standard.pair_groupoid(n, rho),
                             loop_pair_groupoid(n, rho))
            _assert_same(standard.pair_groupoid(n), loop_pair_groupoid(n))

    def test_products_with_finite_groups(self, corpus, presets):
        for name, G in corpus:
            for cname, S in presets:
                if S.is_finite():
                    _assert_same(product_with_group(G, S),
                                 loop_product_with_group(G, S))

    def test_cyclic_groups(self):
        for n in range(1, 9):
            for involution in ("trivial", "inversion"):
                _assert_same(standard.cyclic_group(n, involution),
                             loop_cyclic_group(n, involution))

    def test_disjoint_unions(self, corpus):
        for (_, g1), (_, g2) in itertools.product(corpus, repeat=2):
            for swap in (False, True):
                _assert_same(_outcome(standard.disjoint_union, g1, g2, swap),
                             _outcome(loop_disjoint_union, g1, g2, swap))

    def test_groups_from_tables(self):
        s3 = list(itertools.permutations(range(3)))
        cayley = [[s3.index(tuple(a[b[i]] for i in range(3))) for b in s3] for a in s3]
        z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        # an identity at 2, and a table with none
        moved = [[(a + b + 2) % 4 for b in range(4)] for a in range(4)]
        for table, rho in ((cayley, None), (cayley, [0, 1, 2, 4, 3, 5]), (z4, None),
                           (z4, [0, 3, 2, 1]), (moved, None), ([[1, 0], [0, 0]], None)):
            _assert_same(_outcome(standard.group_from_table, table, rho),
                         _outcome(loop_group_from_table, table, rho))

    def test_validate_on_mutants(self, corpus):
        rng = random.Random(8)
        bases = [G for _, G in corpus]
        fields = ("src", "tgt", "unit", "inv", "comp", "rho_obj", "rho_arr")
        kinds = set()
        for _ in range(1200):
            G = rng.choice(bases)
            arrays = {f: np.array(getattr(G, f)) for f in fields}
            for f in rng.sample(fields, rng.choice((1, 1, 2))):
                a = arrays[f].reshape(-1)
                bound = G.n_objects if f in ("src", "tgt", "rho_obj") \
                    else G.n_arrows
                a[rng.randrange(a.size)] = rng.randrange(
                    -1 if f == "comp" else 0, bound)
            mutant = FiniteRealGroupoid(G.n_objects, *(arrays[f] for f in fields[:3]),
                                        arrays["comp"], arrays["inv"],
                                        arrays["rho_obj"], arrays["rho_arr"])
            report = loop_validate(mutant)
            assert mutant.validate() == report
            kinds.update(re.sub(r"\d+(?!-)", "#", line) for line in report)
        assert kinds == {
            "unit(#) is not an endo-arrow at #",
            "comp defined iff composable fails at (#,#)",
            "comp(#,#) has wrong endpoints",
            "unit law fails at arrow #",
            "inverse of # has wrong endpoints",
            "inverse law fails at arrow #",
            "associativity fails at (#,#,#)",
            "rho not 2-periodic on objects, witness #",
            "rho not 2-periodic, witness arrow #",
            "rho does not commute with src/tgt at arrow #",
            "rho does not commute with inv at arrow #",
            "rho does not commute with unit at object #",
            "rho not multiplicative at (#,#)",
        }


def test_non_integral_floats_are_refused():
    # an index array read as int64 would truncate these
    with pytest.raises(ValueError, match="bar entry 0.5 is not an integer"):
        RealCover(discrete_space(1), [[0]], bar=[0.5])
    with pytest.raises(ValueError, match="phi entry 0.7 is not an integer"):
        pullback_groupoid(discrete_space(1), [0.7, 0], [1, 0.2])
    with pytest.raises(ValueError, match="rho_obj entry nan is not an integer"):
        discrete_space(2, [1.0, float("nan")])
    assert RealCover(discrete_space(1), [[0]], bar=[0.0]).bar == [0]
    assert pullback_groupoid(discrete_space(1), [0.0, 0], [1, 0.0]).n_objects == 2
