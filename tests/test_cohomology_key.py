"""The group key of HR^n, read from the invariant factors of one matrix,
against the presentation built from kernel and image."""

import random
import tracemalloc

import numpy as np
import pytest

from realcech import cli, exact, io, standard
from realcech.cochains import RealComplex
from realcech.coefficients import RealCoefficientGroup, make_standard

from conftest import coefficient_presets, corpus_groupoids

MIXED = [
    ("Z+Z/2 shear", RealCoefficientGroup(1, [2], [[1, 0], [1, 1]])),
    ("Z^2 swap", RealCoefficientGroup(2, [], [[0, 1], [1, 0]])),
    ("Z+Z/4 sign", RealCoefficientGroup(1, [4], [[-1, 0], [0, -1]])),
    ("Z/2+Z/4 shear", RealCoefficientGroup(0, [2, 4], [[1, 0], [2, -1]])),
    ("Z/3+Z/6 conj", RealCoefficientGroup(0, [3, 6], [[-1, 0], [0, -1]])),
]


def classes(group):
    try:
        return list(group.all_classes())
    except ValueError as e:
        return str(e)


def assert_key_matches_presentation(cx, n, case):
    h = cx.cohomology(n)
    pres = h.presentation
    assert h.group_key() == pres.group_key(), case
    assert h.order() == pres.order(), case
    assert str(h) == str(pres), case
    assert classes(h) == classes(pres), case


@pytest.mark.parametrize("sname, S", coefficient_presets())
def test_key_matches_presentation_on_corpus(sname, S):
    for gname, g in corpus_groupoids():
        cx = RealComplex(g, S)
        for n in range(4):
            assert_key_matches_presentation(cx, n, (gname, sname, n))


@pytest.mark.parametrize("sname, S", MIXED)
def test_key_matches_presentation_on_mixed_coefficients(sname, S):
    for gname, g in corpus_groupoids():
        cx = RealComplex(g, S)
        for n in range(3):
            assert_key_matches_presentation(cx, n, (gname, sname, n))


def test_presentation_is_built_on_first_query():
    cx = RealComplex(standard.cyclic_group(4, "inversion"), make_standard("mu(4)_conj"))
    h = cx.cohomology(2)
    assert (h.group_key(), h.order(), str(h)) == ((0, (2, 2)), 4, "Z/2 + Z/2")
    assert "presentation" not in vars(h)
    h.class_of(cx.zero_cochain(2))
    assert "presentation" in vars(h)


class Tampered(RealComplex):
    """A complex whose differential of one degree has one entry changed."""

    def __init__(self, groupoid, S, degree, entry):
        RealComplex.__init__(self, groupoid, S)
        self.tampered, self.entry = degree, entry

    def coboundary(self, n):
        D, scale = RealComplex.coboundary(self, n)
        if n == self.tampered:
            (i, j), one = self.entry, np.ones(1, dtype=np.int64)
            D = D + exact.Sparse(D.shape, i * one, j * one, one)
        return exact.Scaled(D, scale)


def test_differential_that_breaks_the_relations_is_refused():
    g, S = standard.cyclic_group(4, "inversion"), make_standard("mu(4)_conj")
    cx = RealComplex(g, S)
    # an entry from a fixed coordinate (Z/2 inside Z/4) to a free orbit's
    # Z/4: it must be even, or d does not map 2 * e_j into the relations
    rows, cols = cx.basis(2).moduli, cx.basis(1).moduli
    entry = next((i, j) for i, r in enumerate(rows) for j, c in enumerate(cols)
                 if (r, c) == (4, 2))
    with pytest.raises(ValueError, match=r"^d\^1 does not map the relations "
                                         r"of degree 1 into those of degree 2$"):
        Tampered(g, S, 1, entry).cohomology(1)


def test_differential_that_does_not_square_to_zero_is_refused():
    g, S = standard.cyclic_group(3, "inversion"), make_standard("Z_sign")
    cx = RealComplex(g, S)
    # every coordinate of Z_sign is free: d^2 o d^1 must vanish exactly
    D2 = cx.differential_matrix(2)
    i = next(i for i in range(D2.shape[1]) if D2[:, i].any())
    with pytest.raises(ValueError, match=r"^d\^2 o d\^1 does not vanish modulo "
                                         r"the relations of degree 3$"):
        Tampered(g, S, 1, (i, 0)).cohomology(2)


def test_cli_cohomology_builds_no_presentation(tmp_path, capsys, count_calls):
    path = tmp_path / "z4.json"
    g, S = standard.cyclic_group(4, "inversion"), make_standard("mu(4)_conj")
    path.write_text(io.dumps(io.groupoid_to_json(g)))
    built = count_calls(exact.AbelianGroupPresentation, "__init__")
    snf = count_calls(exact, "smith_normal_form")
    factors = count_calls(exact, "invariant_factors")
    assert cli.main(["cohomology", str(path), "--coeff", "mu(4)_conj", "--n", "2"]) == 0
    assert capsys.readouterr().out == io.dumps({"free_rank": 0, "torsion": [2, 2]})
    # the presentations built are those of the coefficient group's fixed part
    assert built and all(args[1].shape[0] == S.ngens for args in built)
    # no Smith form is cochain-sized: the key's invariant factors are read
    # off the nonzeros of one Sparse matrix M_2, with no transform
    assert snf and all(np.shape(args[0])[0] <= S.ngens for args in snf)
    cx = RealComplex(g, S)
    rows = cx.basis(2).total + cx.basis(3).total
    key = [args[0] for args in factors if np.shape(args[0])[0] == rows]
    assert len(key) == 1 and isinstance(key[0], exact.Sparse) and key[0].nnz


def test_key_of_a_large_degree_is_built_on_the_nonzeros():
    # M_3 is 9072 x 1512 with 34,992 nonzeros; the dense object
    # matrices of the key would take hundreds of MiB
    tracemalloc.start()
    try:
        h = RealComplex(standard.pair_groupoid(6), make_standard("mu(4)_conj")).cohomology(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(h) == "0"
    assert peak < 32 * 2 ** 20


def sample_cochains(cx, n, rng):
    """The zero cochain, two coboundaries, and two random cochains."""
    yield cx.zero_cochain(n)
    for _ in range(2):
        if n:
            size = cx.basis(n - 1).total
            yield cx.d(cx.cochain(n - 1, [rng.randint(-3, 3) for _ in range(size)]))
    for _ in range(2):
        yield cx.cochain(n, [rng.randint(-3, 3) for _ in range(cx.basis(n).total)])


def test_trivial_groups_answer_class_queries_like_the_presentation():
    rng = random.Random(17)
    trivial = 0
    for _, S in coefficient_presets():
        for gname, g in corpus_groupoids():
            cx = RealComplex(g, S)
            for n in range(3):
                h = cx.cohomology(n)
                if h.group_key() != (0, ()):
                    continue
                trivial += 1
                for c in sample_cochains(cx, n, rng):
                    want = h.presentation.class_coords(c.vector)
                    assert h.class_of(c) == want, (gname, n)
                    assert h.is_trivial_class(c) == (want is not None)
    assert trivial >= 40


def test_trivial_group_builds_no_presentation(count_calls):
    cx = RealComplex(standard.pair_groupoid(8), make_standard("Z2_trivial"))
    h = cx.cohomology(1)
    assert h.group_key() == (0, ())
    built = count_calls(exact.AbelianGroupPresentation, "__init__")
    zero, cocycle = cx.zero_cochain(1), cx.d(cx.from_values(0, lambda t: (t[0] % 2,)))
    other = cx.from_values(1, lambda t: (1,) if t == (1,) else (0,))
    assert (h.class_of(zero), h.class_of(cocycle), h.class_of(other)) == ((), (), None)
    assert h.is_trivial_class(cocycle) and not h.is_trivial_class(other)
    assert built == [] and "presentation" not in vars(h)
