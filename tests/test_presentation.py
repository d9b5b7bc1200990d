"""`exact.AbelianGroupPresentation`, which keeps only its surviving
generators, against `oracles.LoopPresentation`, which keeps every
position of the Smith diagonal: generators, orders, class coordinates
(of members and of vectors outside the lattice) and lifts."""

import random

import numpy as np
import pytest

import oracles
from realcech import exact
from realcech.cochains import RealComplex

from conftest import coefficient_presets, corpus_groupoids
from test_cohomology_key import MIXED


def ints(cols):
    return [[int(v) for v in col] for col in cols]


def columns(pairs):
    return [([int(v) for v in col], order) for col, order in pairs]


def assert_matches_loop_presentation(basis, relations, rng, case):
    new = exact.AbelianGroupPresentation(basis, relations)
    old = oracles.LoopPresentation(basis, relations)
    assert new.group_key() == old.group_key(), case
    assert columns(new.generators()) == columns(old.generators()), case
    (free, tors), (free_old, tors_old) = new.split_generators(), old.split_generators()
    assert ints(free) == ints(free_old), case
    assert columns(tors) == columns(tors_old), case
    B = exact.as_int_matrix(basis)
    k, m = B.shape
    orders = [order for _, order in old.generators()]
    for _ in range(4):
        member = B @ np.array([rng.randint(-5, 5) for _ in range(m)], dtype=object)
        other = np.array([rng.randint(-5, 5) for _ in range(k)], dtype=object)
        for vec in (member, other, member + other):
            assert new.class_coords(vec) == old.class_coords(vec), case
        coords = [rng.randint(-7, 7) for _ in orders]
        lifted = new.lift(coords)
        assert list(lifted) == list(old.lift(coords)), case
        assert new.class_coords(lifted) == tuple(
            c % d if d else c for c, d in zip(coords, orders)), case


def presentation_inputs(count_calls, cases, degrees):
    """The (basis, relations) of every presentation built for HR^n of the
    given (groupoid, coefficients) cases, fixed parts of S included."""
    built = count_calls(exact, "AbelianGroupPresentation")
    for _, g, S in cases:
        cx = RealComplex(g, S)
        for n in degrees:
            cx.cohomology(n).presentation
    return list(built)


@pytest.mark.parametrize("sname, S", coefficient_presets() + MIXED)
def test_cohomology_presentations_match_loop_presentation(sname, S, count_calls):
    cases = [(gname, g, S) for gname, g in corpus_groupoids()]
    inputs = presentation_inputs(count_calls, cases, (0, 1, 2))
    assert len(inputs) >= 3 * len(cases)
    rng = random.Random(14)
    for i, (basis, relations) in enumerate(inputs):
        assert_matches_loop_presentation(basis, relations, rng, (sname, i))


def test_random_lattices_match_loop_presentation():
    rng = random.Random(20261019)
    made = 0
    while made < 60:
        k, m, g = rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 5)
        B = exact.as_int_matrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]) \
            if k and m else exact.zeros(k, m)
        if len(exact.invariant_factors(B)) < m:
            continue  # the basis must have full column rank
        X = exact.as_int_matrix([[rng.choice([0, 0, 1, -1, 2, 3, 6]) for _ in range(g)]
                                 for _ in range(m)]) if m and g else exact.zeros(m, g)
        assert_matches_loop_presentation(B, B @ X if g else exact.zeros(k, 0), rng,
                                         (k, m, g, made))
        made += 1
