import pytest

from realcech import standard
from realcech.nerve import (check_simplicial_identities, degeneracy, face,
                            nerve)


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


def levels_below(level):
    while level is not None:
        yield level
        level = level.lower


def test_known_level_is_reused(corpus):
    for name, g in corpus:
        for start in range(4):
            known = nerve(g, start)
            for n in range(5):
                lvl = nerve(g, n, known)
                assert (lvl.entries == nerve(g, n).entries).all(), (name, start, n)
                # known and its lower levels are shared, not rebuilt
                top, below = (lvl, known) if n >= start else (known, lvl)
                assert any(x is below for x in levels_below(top)), (name, start, n)


def test_each_level_is_built_once_per_complex(count_calls):
    from realcech.coefficients import RealRepresentation, make_standard
    from realcech.cochains import RealComplex
    from realcech.nerve import NerveLevel
    from realcech.proper import RepComplex
    g = standard.cyclic_group(4, "inversion")
    built = count_calls(NerveLevel, "__init__")
    cx = RealComplex(g, make_standard("mu(4)_conj"))
    for n in range(5):
        cx.differential_matrix(n)
    assert len(built) == 6
    # levels asked for from the top down are read off the first one
    cx = RealComplex(g, make_standard("Z_sign"))
    for n in (3, 1, 0, 2, 4):
        cx.cohomology(n)
    assert len(built) == 12
    rc = RepComplex(g, RealRepresentation.trivial(g, 1, 1))
    for n in range(4):
        rc.differential_matrix(n)
        rc.contraction_matrix(n)
    assert len(built) == 17
