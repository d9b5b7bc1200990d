"""Mutants of valid input files through `cli.main`, in process: whatever
a reader is given, the command ends with exit 0, 1 or 2 and raises
nothing.  The valid files are written by the `io.*_to_json` writers (the
cover, surjection and sequence formats have none and are written out);
a mutant replaces, drops or repeats one node of the file, replaces the whole file by
text that is no JSON, or passes a directory for it.  A groupoid file is
computed on as well as read, so its structure maps are also replaced
whole by maps in range, which a reader must refuse unless the involution
is a 2-periodic functor.  Replacement numbers are small, so that no
mutant asks for a nerve level or a fibre that is large only because a
number is."""

import contextlib
import io as text_io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from realcech import cli, io, standard
from realcech.cochains import RealComplex
from realcech.coefficients import RealCoefficientGroup, RealRepresentation, make_standard
from realcech.extensions import Z2, GradedTwist


def valid_inputs():
    """kind -> (the JSON of a valid file, the argv that reads it at FILE,
    the groupoid the command runs on)."""
    z2, z4i = standard.cyclic_group(2), standard.cyclic_group(4, "inversion")
    mu2, mu4 = make_standard("mu(2)_conj"), make_standard("mu(4)_conj")
    rot = np.array([[0, -1], [1, 0]])
    rep = RealRepresentation(z4i, 1, 1, [np.linalg.matrix_power(rot, g) for g in range(4)],
                             [[[1, 0], [0, -1]]])
    omega = RealComplex(z2, mu2).from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
    delta = RealComplex(z2, Z2).from_values(1, lambda t: (t[0],))
    twist = GradedTwist(z2, mu2, omega, delta)
    coeff = RealCoefficientGroup(0, [2, 6], [[1, 0], [3, 1]])
    trivial = io.coefficients_to_json(make_standard("mu(2)_trivial"))
    z3i = standard.cyclic_group(3, "inversion")
    return {
        "groupoid": (io.groupoid_to_json(z3i),
                     ["cohomology", "FILE", "--coeff", "mu(4)_conj", "--n", "2"], z3i),
        "representation": (io.representation_to_json(rep),
                           ["vanish", "GROUPOID", "--rep", "FILE", "--n-max", "1"], z4i),
        "coefficients": (io.coefficients_to_json(coeff),
                         ["cohomology", "GROUPOID", "--coeff", "FILE", "--n", "1"], z2),
        "cochain": (io.cochain_to_json(RealComplex(z2, mu4).from_values(1, lambda t: (2 * t[0],))),
                    ["bundle", "iso", "GROUPOID", "--coeff", "mu(4)_conj",
                     "--c1", "FILE", "--c2", "FILE"], z2),
        "twist": (io.twist_to_json(twist), ["ext", "sum", "FILE", "FILE"], z2),
        "cover": ({"blocks": [[0, 1], [0], [1]], "bar": [0, 2, 1]},
                  ["morita-check", "GROUPOID", "--coeff", "mu(4)_conj", "--cover", "FILE",
                   "--max-degree", "1"], standard.pair_groupoid(2, [1, 0])),
        "surjection": ({"pi": [0, 1, 1, 0], "rho_total": [1, 0, 3, 2]},
                       ["morita-check", "GROUPOID", "--coeff", "Z2_trivial", "--cech", "FILE",
                        "--max-degree", "1"], standard.discrete_space(2, [1, 0])),
        "sequence": ({"left": trivial, "middle": io.coefficients_to_json(
                          make_standard("mu(4)_trivial")), "right": trivial,
                      "i": [[2]], "p": [[1]]},
                     ["les", "GROUPOID", "--sequence", "FILE", "--max-degree", "1"], z2),
    }


INPUTS = valid_inputs()
# the twist is read by `ext dd`, `ext build` and `ext extract` as well
TWIST_COMMANDS = (["ext", "sum", "FILE", "FILE"], ["ext", "dd", "FILE"],
                  ["ext", "build", "FILE"], ["ext", "extract", "FILE"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "bad.json").write_text("{x")
    (d / "folder").mkdir()
    return d


def nodes(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = enumerate(value) if isinstance(value, list) else \
        sorted(value.items()) if isinstance(value, dict) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def mutate(value, path, change, leaf):
    """value with the node at path replaced by leaf, dropped from its
    parent, or repeated there (a key's value is wrapped in a list)."""
    if not path:
        return leaf if change == "replace" else [value]
    out = list(value) if isinstance(value, list) else dict(value)
    key, rest = path[0], path[1:]
    if rest:
        out[key] = mutate(out[key], rest, change, leaf)
    elif change == "replace":
        out[key] = leaf
    elif change == "drop":
        del out[key]
    elif isinstance(out, list):
        out.insert(key, out[key])
    else:
        out[key] = [out[key]]
    return out


def run(argv, path, gp):
    """cli.main on argv with FILE and GROUPOID replaced by those paths,
    its output dropped."""
    argv = [{"FILE": str(path), "GROUPOID": str(gp)}.get(a, a) for a in argv]
    with contextlib.redirect_stdout(text_io.StringIO()), \
            contextlib.redirect_stderr(text_io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("kind", sorted(INPUTS))
@settings(max_examples=100)
@given(data=st.data())
def test_mutants_exit_with_a_code(workdir, kind, data):
    valid, argv, groupoid = INPUTS[kind]
    if kind == "twist":
        argv = data.draw(st.sampled_from(TWIST_COMMANDS))
    leaves = st.sampled_from([-1, 0, 1, 2, 3, 0.5, 2.0, "x", None, True, [], {}, [[1]],
                              "mu(4)_conj", str(workdir / "bad.json"),
                              str(workdir / "folder"), str(workdir / "missing.json")])
    where = data.draw(st.sampled_from(("node", "node", "node", "node", "text", "folder")))
    path = workdir / "input.json"
    if where == "node":
        node = data.draw(st.sampled_from(list(nodes(valid))))
        change = data.draw(st.sampled_from(("replace", "replace", "drop", "repeat")))
        path.write_text(json.dumps(mutate(valid, node, change, data.draw(leaves))))
    elif where == "text":
        path.write_text(data.draw(st.sampled_from(("", "{x", "[1,", "null", "\"x\""))))
    else:
        path = workdir / "folder"
    gp = workdir / "groupoid.json"
    gp.write_text(io.dumps(io.groupoid_to_json(groupoid)))
    assert run(argv, path, gp) in (0, 1, 2)


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_valid_inputs_pass(workdir, kind):
    valid, argv, groupoid = INPUTS[kind]
    path, gp = workdir / f"{kind}.json", workdir / f"{kind}-groupoid.json"
    path.write_text(io.dumps(valid))
    gp.write_text(io.dumps(io.groupoid_to_json(groupoid)))
    assert run(argv, path, gp) == 0


GROUPOIDS = [standard.cyclic_group(3, "inversion"), standard.cyclic_group(4),
             standard.pair_groupoid(2, [1, 0]), standard.flip_action_groupoid()]


@settings(max_examples=100)
@given(data=st.data())
def test_groupoids_with_other_structure_maps_exit_with_a_code(workdir, data):
    # a node mutant rarely gives a map that still reads but breaks an
    # axiom; here a structure map is replaced whole by one in range
    g = data.draw(st.sampled_from(GROUPOIDS))
    valid = io.groupoid_to_json(g)
    key = data.draw(st.sampled_from(("rho_arr", "rho_arr", "rho_obj", "inv", "comp")))
    if key == "comp":
        products = st.lists(st.integers(0, g.n_arrows - 1), min_size=len(valid["comp"]),
                            max_size=len(valid["comp"]))
        valid["comp"] = [[a, b, c] for (a, b, _), c in zip(valid["comp"], data.draw(products))]
    else:
        bound = g.n_objects if key == "rho_obj" else g.n_arrows
        valid[key] = data.draw(st.lists(st.integers(0, bound - 1), min_size=len(valid[key]),
                                        max_size=len(valid[key])))
    path = workdir / "structure.json"
    path.write_text(json.dumps(valid))
    for argv in (["cohomology", "FILE", "--coeff", "mu(4)_conj", "--n", "2"],
                 ["validate", "FILE"]):
        assert run(argv, path, path) in (0, 1, 2)
