import pytest
from hypothesis import settings

from realcech import standard
from realcech.coefficients import make_standard


# one profile for every property test: the same examples on every run,
# no time limit per example, nothing kept between runs
settings.register_profile("realcech", derandomize=True, deadline=None, database=None)
settings.load_profile("realcech")


def corpus_groupoids():
    """The standing test corpus: small groups with both involutions, pair
    groupoids, a disjoint union, and the two-point flip action groupoid."""
    return [
        ("Z2", standard.cyclic_group(2)),
        ("Z3", standard.cyclic_group(3)),
        ("Z3_inv", standard.cyclic_group(3, "inversion")),
        ("Z4", standard.cyclic_group(4)),
        ("Z4_inv", standard.cyclic_group(4, "inversion")),
        ("pair2", standard.pair_groupoid(2)),
        ("pair2_swap", standard.pair_groupoid(2, [1, 0])),
        ("pair3", standard.pair_groupoid(3)),
        ("pair3_swap01", standard.pair_groupoid(3, [1, 0, 2])),
        ("Z2+Z2_swap", standard.disjoint_union(
            standard.cyclic_group(2), standard.cyclic_group(2), swap=True)),
        ("flip_action", standard.flip_action_groupoid()),
    ]


def coefficient_presets():
    return [
        ("Z2_trivial", make_standard("Z2_trivial")),
        ("Z_sign", make_standard("Z_sign")),
        ("mu2", make_standard("mu(2)_conj")),
        ("mu4_conj", make_standard("mu(4)_conj")),
        ("mu4_trivial", make_standard("mu(4)_trivial")),
    ]


@pytest.fixture(scope="session")
def corpus():
    return corpus_groupoids()


@pytest.fixture(scope="session")
def presets():
    return coefficient_presets()


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(owner, attr) returns a list that records the arguments
    of every later call of owner.attr, for the rest of the test."""
    def install(owner, attr):
        calls, original = [], getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls
    return install
