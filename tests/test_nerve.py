import gc
import sys
import threading
import weakref

import pytest

from conftest import corpus_groupoids
from realcech import cli, standard
from realcech.cochains import RealComplex
from realcech.coefficients import RealRepresentation, make_standard
from realcech.groupoids import FiniteRealGroupoid
from realcech.nerve import (NerveLevel, check_simplicial_identities, degeneracy, face,
                            nerve)
from realcech.proper import RepComplex


def test_level_counts():
    z2 = standard.cyclic_group(2)
    assert len(nerve(z2, 2)) == 4          # all pairs composable in a group
    p2 = standard.pair_groupoid(2)
    assert len(nerve(p2, 2)) == 8          # brute-force count of 4 arrows
    assert len(nerve(p2, 0)) == 2          # level 0 is the object set
    assert len(nerve(z2, 1)) == z2.n_arrows


def test_pair_count_matches_enumeration(corpus):
    for name, g in corpus:
        expected = sum(1 for a in range(g.n_arrows) for b in range(g.n_arrows)
                       if g.src[a] == g.tgt[b])
        assert len(nerve(g, 2)) == expected, name


def test_face_formulas():
    z4 = standard.cyclic_group(4)
    # middle face composes
    assert face(z4, 2, 1, (1, 2)) == (3,)
    assert face(z4, 2, 0, (1, 2)) == (2,)
    assert face(z4, 2, 2, (1, 2)) == (1,)
    # degree 1: face 0 is the source, face 1 the target
    p2 = standard.pair_groupoid(2)
    arrow = 1  # (0, 1): src 1, tgt 0
    assert face(p2, 1, 0, (arrow,)) == (int(p2.src[arrow]),)
    assert face(p2, 1, 1, (arrow,)) == (int(p2.tgt[arrow]),)


def test_degeneracy_formulas():
    p2 = standard.pair_groupoid(2)
    # level 0 degeneracy is the unit map
    assert degeneracy(p2, 0, 0, (1,)) == (int(p2.unit[1]),)
    g = 1
    assert degeneracy(p2, 1, 0, (g,)) == (int(p2.unit[p2.tgt[g]]), g)
    assert degeneracy(p2, 1, 1, (g,)) == (g, int(p2.unit[p2.src[g]]))
    # face after degeneracy is the identity
    assert face(p2, 2, 0, degeneracy(p2, 1, 0, (g,))) == (g,)


def test_index_errors():
    z2 = standard.cyclic_group(2)
    with pytest.raises(IndexError):
        face(z2, 2, 3, (0, 0))
    with pytest.raises(IndexError):
        degeneracy(z2, 1, 2, (0,))


def test_simplicial_identities_corpus(corpus):
    for name, g in corpus:
        assert check_simplicial_identities(g, 3) == [], name


def test_face_commutes_with_involution(corpus):
    for name, g in corpus:
        for n in (1, 2, 3):
            lvl = nerve(g, n)
            lower = nerve(g, n - 1)
            for idx in range(len(lvl)):
                tup = lvl.tuple_at(idx)
                for i in range(n + 1):
                    assert face(g, n, i, lvl.rho(tup)) == \
                        lower.rho(face(g, n, i, tup)), (name, n, i, tup)


def fresh_copy(g):
    """A groupoid equal to g with no nerve levels built yet."""
    return FiniteRealGroupoid(g.n_objects, g.src, g.tgt, g.unit, g.comp, g.inv,
                              g.rho_obj, g.rho_arr)


def test_levels_are_shared_by_every_reader(monkeypatch, capsys):
    mu4 = make_standard("mu(4)_conj")
    for order in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (3, 0, 5, 1, 4, 2)):
        for name, g in corpus_groupoids():
            levels = {n: nerve(g, n) for n in order}
            ref = fresh_copy(g)
            for n in range(6):
                assert levels[n] is g.levels[n] is nerve(g, n), (name, n)
                assert (levels[n].entries == nerve(ref, n).entries).all(), (name, n)
                assert levels[n].lower is (levels[n - 1] if n else None), (name, n)
            # two complexes on different fibres read the same levels and orbit arrays
            cx, rc = RealComplex(g, mu4), RepComplex(g, RealRepresentation.trivial(g, 1, 1))
            for n in range(4):
                cx.coboundary(n), rc.coboundary(n)
                assert cx.basis(n).level is rc.basis(n).level is levels[n], (name, n)
                assert cx.basis(n).reps is rc.basis(n).reps is levels[n].orbits.reps
                assert cx.basis(n).orbit_of is rc.basis(n).orbit_of
            # so do the identity check and `realcech nerve`, on this groupoid
            assert check_simplicial_identities(g, 3) == []
            monkeypatch.setattr(cli, "_groupoid", lambda args, g=g: g)
            assert cli.main(["nerve", "unread.json", "--max-degree", "5"]) == 0
            capsys.readouterr()
            assert all(g.levels[n] is levels[n] for n in range(6)), name
            assert sorted(g.levels) == list(range(7)), name


def test_each_level_is_built_once_per_groupoid(count_calls):
    g = standard.cyclic_group(4, "inversion")
    built = count_calls(NerveLevel, "__init__")
    cx = RealComplex(g, make_standard("mu(4)_conj"))
    for n in range(5):
        cx.differential_matrix(n)
    assert len(built) == 6
    # a second complex, levels asked for from the top down, a representation
    # complex and the identity check read the levels built above
    cx = RealComplex(g, make_standard("Z_sign"))
    for n in (3, 1, 0, 2, 4):
        cx.cohomology(n)
    rc = RepComplex(g, RealRepresentation.trivial(g, 1, 1))
    for n in range(4):
        rc.differential_matrix(n)
        rc.contraction_matrix(n)
    assert check_simplicial_identities(g, 3) == []
    assert len(built) == 6
    # a groupoid equal to g has levels of its own
    nerve(fresh_copy(g), 2)
    assert len(built) == 9


def test_levels_die_with_their_groupoid():
    # no reference cycle: with the cyclic collector off, dropping the
    # groupoid and what was built on it frees its levels
    gc.disable()
    try:
        g = standard.pair_groupoid(3, [1, 0, 2])
        cx = RealComplex(g, make_standard("mu(4)_conj"))
        h = cx.cohomology(2)
        assert h.group_key() == cx.cohomology(2).group_key()
        rc = RepComplex(g, RealRepresentation.trivial(g, 1, 1))
        rc.contraction_matrix(2)
        assert check_simplicial_identities(g, 2) == []
        level, groupoid = weakref.ref(g.levels[3]), weakref.ref(g)
        assert level().groupoid is g
        del g, cx, h, rc
        assert groupoid() is None and level() is None
    finally:
        gc.enable()


def test_shared_arrays_are_read_only():
    g = standard.pair_groupoid(3, [1, 0, 2])
    cx = RealComplex(g, make_standard("mu(4)_conj"))
    cx.coboundary(2)
    lvl, basis = g.levels[3], cx.basis(3)
    shared = [lvl.entries, lvl.parent, lvl.codes, lvl.anchors, lvl.rho_indices, lvl.faces,
              lvl.degeneracies, *lvl.orbits, *lvl.face_terms,
              basis.reps, basis.partners, basis.fixed, basis.anchors, basis.orbit_of]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_racing_threads_read_equal_levels():
    # more threads than cores, switching often, each asking for the levels
    # in its own order: every thread reads the one level stored per degree,
    # each joined to the one stored below it and equal to a fresh build
    orders = [range(1, 6), range(5, 0, -1), (3, 1, 5, 2, 4), (5, 1, 4, 2, 3)] * 2
    ref = standard.pair_groupoid(4, [1, 0, 3, 2])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = standard.pair_groupoid(4, [1, 0, 3, 2])
            barrier, got = threading.Barrier(len(orders)), [None] * len(orders)

            def ask(slot):
                barrier.wait()
                got[slot] = {n: (nerve(g, n), nerve(g, n).orbits, nerve(g, n).face_terms)
                             for n in orders[slot]}

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for n in range(1, 6):
                want = nerve(ref, n)
                assert g.levels[n].lower is g.levels[n - 1]
                for level, orbits, terms in (slot[n] for slot in got):
                    assert level is g.levels[n]
                    assert (level.entries == want.entries).all()
                    assert all((a == b).all() for a, b in zip(orbits, want.orbits))
                    assert all((a == b).all() for a, b in zip(terms, want.face_terms))
    finally:
        sys.setswitchinterval(interval)
