import json
import subprocess
import sys
import tracemalloc

import pytest

from realcech import cli, io, standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard


def run(*args):
    return subprocess.run([sys.executable, "-m", "realcech.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def z2_file(tmp_path):
    p = tmp_path / "z2.json"
    p.write_text(io.dumps(io.groupoid_to_json(standard.cyclic_group(2))))
    return str(p)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(io.dumps(obj))
    return str(p)


class TestJsonRoundTrips:
    def test_groupoid(self, corpus):
        for name, g in corpus:
            data = io.groupoid_to_json(g)
            g2 = io.groupoid_from_json(json.loads(io.dumps(data)))
            assert g2.structurally_equal(g), name

    def test_coefficients(self, presets):
        for name, S in presets:
            S2 = io.coefficients_from_json(json.loads(io.dumps(
                io.coefficients_to_json(S))))
            assert S2.structurally_equal(S), name

    def test_cochain(self):
        g = standard.cyclic_group(4, "inversion")
        cx = RealComplex(g, make_standard("Z_sign"))
        c = cx.cochain(1, [5])
        c2 = io.cochain_from_json(cx, json.loads(io.dumps(c.serialize())))
        assert all((c - c2).vector == 0)

    def test_twist_and_bundle(self, tmp_path):
        z2 = standard.cyclic_group(2)
        mu2 = make_standard("mu(2)_conj")
        cx = RealComplex(z2, mu2)
        om = cx.from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
        from realcech.extensions import GradedTwist
        t = GradedTwist(z2, mu2, om)
        t2 = io.twist_from_json(json.loads(io.dumps(io.twist_to_json(t))))
        assert all((t2.omega.vector - om.vector) == 0)
        from realcech.bundles import RealPrincipalBundle
        b = RealPrincipalBundle(z2, mu2, cx.from_values(1, lambda t: (t[0],)))
        b2 = io.bundle_from_json(json.loads(io.dumps(io.bundle_to_json(b))))
        assert all((b2.cocycle.vector - b.cocycle.vector) == 0)

    def test_representation(self):
        z3 = standard.cyclic_group(3)
        from realcech.coefficients import RealRepresentation
        rep = RealRepresentation.trivial(z3, 1, 1)
        rep2 = io.representation_from_json(
            z3, json.loads(io.dumps(io.representation_to_json(rep))))
        assert rep2.validate() == []


class TestCommands:
    def test_validate_good(self, z2_file):
        r = run("validate", z2_file)
        assert r.returncode == 0
        assert json.loads(r.stdout)["valid"] is True

    def test_validate_bad_exit1(self, tmp_path):
        data = io.groupoid_to_json(standard.cyclic_group(2))
        data["rho_arr"] = [1, 0]
        path = write(tmp_path, "bad.json", data)
        r = run("validate", path)
        assert r.returncode == 1
        assert r.stderr.strip()

    def test_malformed_exit2(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{nope")
        r = run("validate", str(p))
        assert r.returncode == 2

    def test_cohomology_value(self, z2_file):
        r = run("cohomology", z2_file, "--coeff", "mu(4)_conj", "--n", "1")
        assert json.loads(r.stdout) == {"free_rank": 0, "torsion": [2]}

    def test_byte_determinism(self, z2_file):
        a = run("cohomology", z2_file, "--coeff", "mu(4)_conj", "--n", "2")
        b = run("cohomology", z2_file, "--coeff", "mu(4)_conj", "--n", "2")
        assert a.stdout == b.stdout and a.stdout

    def test_nerve(self, z2_file):
        r = run("nerve", z2_file, "--max-degree", "3")
        out = json.loads(r.stdout)
        assert out["identities_verified"] is True
        assert out["levels"][2]["count"] == 4

    def test_invariant_sections(self, z2_file):
        r = run("invariant-sections", z2_file, "--coeff", "mu(4)_conj")
        assert json.loads(r.stdout)["matches_degree_zero"] is True

    def test_ext_subcommands(self, tmp_path, z2_file):
        z2 = standard.cyclic_group(2)
        mu2 = make_standard("mu(2)_conj")
        cx = RealComplex(z2, mu2)
        om = cx.from_values(2, lambda t: (1,) if t == (1, 1) else (0,))
        twist = {"base": io.groupoid_to_json(z2), "S": {"preset": "mu(2)_conj"},
                 "omega": om.serialize(), "delta": None}
        tw = write(tmp_path, "twist.json", twist)
        r = run("ext", "classify", z2_file, "--m", "4")
        assert json.loads(r.stdout)["classes"] == 4
        r = run("ext", "build", tw)
        assert json.loads(r.stdout)["order"] == 4
        r = run("ext", "extract", tw)
        assert json.loads(r.stdout)["matches_input"] is True
        r = run("ext", "dd", tw)
        assert json.loads(r.stdout)["omega_class"] == [1]
        r = run("ext", "sum", tw, tw)
        assert r.returncode == 0

    def test_cup(self, tmp_path, z2_file):
        d0 = write(tmp_path, "d0.json",
                   {"degree": 1, "values": [[0, [0]], [1, [0]]]})
        d1 = write(tmp_path, "d1.json",
                   {"degree": 1, "values": [[0, [0]], [1, [1]]]})
        r = run("cup", z2_file, "--coeff", "mu(4)_conj",
                "--delta", d1, "--delta-prime", d1)
        assert json.loads(r.stdout)["trivial"] is False
        r = run("cup", z2_file, "--coeff", "mu(4)_conj",
                "--delta", d0, "--delta-prime", d1)
        assert json.loads(r.stdout)["trivial"] is True

    def test_bundle_commands(self, tmp_path, z2_file):
        r = run("bundle", "classify", z2_file, "--coeff", "mu(4)_conj")
        out = json.loads(r.stdout)
        assert out["count"] == 2
        c1 = write(tmp_path, "c1.json", out["representatives"][0]["cocycle"])
        c2 = write(tmp_path, "c2.json", out["representatives"][1]["cocycle"])
        r = run("bundle", "iso", z2_file, "--coeff", "mu(4)_conj",
                "--c1", c1, "--c2", c2, "--cross-check")
        assert json.loads(r.stdout)["isomorphic"] is False
        r = run("bundle", "iso", z2_file, "--coeff", "mu(4)_conj",
                "--c1", c1, "--c2", c1)
        assert json.loads(r.stdout)["isomorphic"] is True

    def test_morita_cover(self, tmp_path):
        p2 = standard.pair_groupoid(2, [1, 0])
        gp = write(tmp_path, "p2.json", io.groupoid_to_json(p2))
        cov = write(tmp_path, "cover.json", {"blocks": [[0], [1], [0, 1]]})
        r = run("morita-check", gp, "--coeff", "mu(4)_conj", "--cover", cov)
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_isomorphic"] is True

    def test_morita_cech(self, tmp_path):
        x2 = standard.discrete_space(2)
        gp = write(tmp_path, "x2.json", io.groupoid_to_json(x2))
        ce = write(tmp_path, "cech.json", {"pi": [0, 0, 1], "rho_total": [0, 1, 2]})
        r = run("morita-check", gp, "--coeff", "mu(4)_conj", "--cech", ce)
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_isomorphic"] is True

    def test_vanish(self, tmp_path):
        z3 = standard.cyclic_group(3)
        gp = write(tmp_path, "z3.json", io.groupoid_to_json(z3))
        rep = write(tmp_path, "rep.json",
                    {"p": 1, "q": 1,
                     "action": [[[1, 0], [0, 1]]] * 3,
                     "nu": [[[1, 0], [0, -1]]]})
        r = run("vanish", gp, "--rep", rep, "--n-max", "2")
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_zero"] is True

    def test_les(self, tmp_path, z2_file):
        seq = write(tmp_path, "seq.json",
                    {"left": "mu(2)_trivial", "middle": "mu(4)_trivial",
                     "right": "mu(2)_trivial", "i": [[2]], "p": [[1]]})
        r = run("les", z2_file, "--sequence", seq)
        assert r.returncode == 0
        assert json.loads(r.stdout)["exact"] is True

    def test_les_integral_bockstein(self, tmp_path, capsys):
        # 0 -> Z -(x2)-> Z -> Z/2 -> 0 over Z/4: infinite groups are checked
        gp = write(tmp_path, "z4.json", io.groupoid_to_json(standard.cyclic_group(4)))
        seq = {"left": "Z_trivial", "middle": "Z_trivial", "right": "Z2_trivial",
               "i": [[2]], "p": [[1]]}
        assert cli.main(["les", gp, "--sequence", write(tmp_path, "seq.json", seq)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exact"] is True
        assert out["groups"]["S"][0] == {"free_rank": 1, "torsion": []}
        # x1 is injective, but its image Z is not the kernel 2Z of p
        seq["i"] = [[1]]
        assert cli.main(["les", gp, "--sequence", write(tmp_path, "bad.json", seq)]) == 1
        assert capsys.readouterr().err == "error: im i != ker p\n"

    @pytest.mark.parametrize("flag, data, message", [
        ("--cover", {"blocks": [[0], [1]], "bar": [5, 0]}, "bar entry 5 is out of range"),
        ("--cover", {"blocks": [[0], [1]], "bar": [1]}, "bar has shape (1,)"),
        ("--cech", {"pi": [0, 1, 1], "rho_total": [1, 0, 7]},
         "rho_total entry 7 is out of range"),
        ("--cech", {"pi": [0, 1, 1], "rho_total": [1, 0]}, "rho_total has shape (2,)"),
        ("--cech", {"pi": [0, 5], "rho_total": [1, 0]}, "pi entry 5 is out of range [0, 2)"),
        ("--cech", {"pi": [0, 1, -1], "rho_total": [1, 0, 2]},
         "pi entry -1 is out of range [0, 2)"),
    ])
    def test_malformed_morita_input_is_an_input_error(self, tmp_path, capsys,
                                                      flag, data, message):
        gp = write(tmp_path, "x2.json", io.groupoid_to_json(standard.discrete_space(2, [1, 0])))
        argv = ["morita-check", gp, "--coeff", "Z2_trivial", flag,
                write(tmp_path, "in.json", data)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err

    def test_morita_builds_each_level_once(self, tmp_path, capsys, count_calls):
        from realcech import cochains
        built = count_calls(cochains.LevelBasis, "__init__")
        gp = write(tmp_path, "p2.json", io.groupoid_to_json(standard.pair_groupoid(2)))
        cov = write(tmp_path, "cover.json", {"blocks": [[0, 1], [0], [1]]})
        assert cli.main(["morita-check", gp, "--coeff", "mu(4)_conj", "--cover", cov]) == 0
        # levels 0-3 of the base and of the cover groupoid
        assert len(built) == 8

    def test_arrow_cap_env(self, z2_file):
        import os
        env = dict(os.environ, RGC_MAX_ARROWS="1")
        r = subprocess.run([sys.executable, "-m", "realcech.cli",
                            "validate", z2_file],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 2
        assert "too many arrows" in r.stderr

    @pytest.mark.parametrize("order, change", [
        (1, {"comp": [[0, 5, 0]]}),
        (1, {"comp": [[0, "x", 0]]}),
        (2, {"inv": [0, 7]}),
        (2, {"rho_arr": [0, 1, 1]}),
    ])
    def test_malformed_groupoid_is_an_input_error(self, tmp_path, capsys,
                                                  order, change):
        data = dict(io.groupoid_to_json(standard.cyclic_group(order)), **change)
        assert cli.main(["validate", write(tmp_path, "g.json", data)]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("coeff", [{"preset": 5}, 5, None])
    def test_malformed_coefficients_are_an_input_error(self, tmp_path, capsys, z2_file, coeff):
        argv = ["cohomology", z2_file, "--coeff", write(tmp_path, "f.json", coeff), "--n", "1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("twist, code", [
        ({"S": "mu(2)_conj"}, 2),
        ({"omega": {"degree": 2, "values": "x"}}, 2),
        ({"omega": {"degree": 2, "values": [[0]]}}, 2),
        ({"omega": {"degree": 2, "values": [["a", [1]]]}}, 2),
        ({"omega": {"degree": -1, "values": []}}, 2),
        ({"omega": {"degree": 2, "values": [[0, [1]]]}}, 1),
    ])
    def test_malformed_twist_is_an_input_error(self, tmp_path, capsys, twist, code):
        z2 = standard.cyclic_group(2)
        if "omega" in twist:
            twist = dict(base=io.groupoid_to_json(z2), S="mu(2)_conj", **twist)
        assert cli.main(["ext", "dd", write(tmp_path, "twist.json", twist)]) == code
        err = capsys.readouterr().err
        # a structurally sound twist whose omega is no cocycle stays exit 1
        assert err == "error: omega is not a 2-cocycle\n" if code == 1 else \
            err.startswith("input error:")

    @pytest.mark.parametrize("cochain", [
        {"degree": 1, "values": "x"},
        {"degree": 1, "values": [[0]]},
        {"degree": 1, "values": [["a", [1]]]},
        {"degree": -1, "values": []},
    ])
    def test_malformed_cochain_is_an_input_error(self, tmp_path, capsys, z2_file, cochain):
        c = write(tmp_path, "c.json", cochain)
        argv = ["bundle", "iso", z2_file, "--coeff", "mu(4)_conj", "--c1", c, "--c2", c]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize("kind, data", [
        ("groupoid", {"objects": 1.5}),
        ("groupoid", {"inv": [0.5]}),
        ("groupoid", {"comp": [[0, 0, 0.5]]}),
        ("coeff", {"free_rank": 1.5}),
        ("coeff", {"free_rank": 0, "torsion": [4.5]}),
        ("coeff", {"free_rank": 1, "tau": [[1.5]]}),
        ("cochain", {"degree": 1.7, "values": []}),
        ("cochain", {"degree": 1, "values": [[0, [1.5]]]}),
        ("cochain", {"degree": 1, "values": [[0.5, [1]]]}),
    ])
    def test_non_integral_number_is_an_input_error(self, tmp_path, capsys, z2_file, kind, data):
        # int() would truncate it and answer for a file that was not given
        if kind == "groupoid":
            data = dict(io.groupoid_to_json(standard.cyclic_group(1)), **data)
            argv = ["validate", write(tmp_path, "g.json", data)]
        elif kind == "coeff":
            argv = ["cohomology", z2_file, "--coeff", write(tmp_path, "f.json", data), "--n", "1"]
        else:
            c = write(tmp_path, "c.json", data)
            argv = ["bundle", "iso", z2_file, "--coeff", "mu(4)_conj", "--c1", c, "--c2", c]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "is not an integer" in err

    @pytest.mark.parametrize("coeff", ["nope", {"preset": "nope"}])
    def test_unknown_preset_is_an_input_error(self, tmp_path, monkeypatch, capsys, z2_file,
                                              coeff):
        monkeypatch.chdir(tmp_path)
        arg = coeff if isinstance(coeff, str) else write(tmp_path, "f.json", coeff)
        assert cli.main(["cohomology", z2_file, "--coeff", arg, "--n", "1"]) == 2
        assert capsys.readouterr().err == "input error: unknown coefficient preset 'nope'\n"
        # a bare name that is a file is read as one
        write(tmp_path, "nope", {"preset": "mu(4)_conj"})
        assert cli.main(["cohomology", z2_file, "--coeff", "nope", "--n", "1"]) == 0

    def test_text_format(self, z2_file):
        r = run("--format", "text", "cohomology", z2_file,
                "--coeff", "mu(4)_conj", "--n", "1")
        assert r.returncode == 0
        assert "torsion" in r.stdout


def test_cohomology_working_set(tmp_path, capsys):
    # the 324x108 key matrix of cohomology_key and its Smith form set the peak
    path = write(tmp_path, "pair3.json",
                 io.groupoid_to_json(standard.pair_groupoid(3)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert cli.main(["cohomology", path, "--coeff", "mu(4)_conj",
                         "--n", "3"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out) == {"free_rank": 0, "torsion": []}
    assert peak < 3.2 * 2 ** 20


def test_ext_build_materialises_the_extension_once(tmp_path, capsys, count_calls):
    from realcech import extensions as ext
    z4 = standard.cyclic_group(4, "inversion")
    mu4 = make_standard("mu(4)_conj")
    cx = RealComplex(z4, mu4)
    om = ext.normalize_cocycle(cx, cx.cohomology(2).representatives()[0][0])
    tw = write(tmp_path, "twist.json", {"base": io.groupoid_to_json(z4),
                                        "S": {"preset": "mu(4)_conj"},
                                        "omega": om.serialize(), "delta": None})
    E = ext.build_extension(z4, mu4, om)
    want = io.dumps({"extension": io.groupoid_to_json(E.as_groupoid()),
                     "order": len(E.elements)})
    built = count_calls(ext.AbstractExtension, "as_groupoid")
    assert cli.main(["ext", "build", tw]) == 0
    assert capsys.readouterr().out == want
    assert len(built) == 1


def test_nerve_levels_are_enumerated_once(tmp_path, capsys, count_calls):
    from realcech import nerve
    g = standard.pair_groupoid(3)
    path = write(tmp_path, "pair3.json", io.groupoid_to_json(g))
    built = count_calls(nerve.NerveLevel, "__init__")
    assert cli.main(["nerve", path, "--max-degree", "4"]) == 0
    # levels 0..4 for the counts, extended by 5 and 6 for the identities
    assert len(built) == 5 + 2
    counts = [len(nerve.nerve(g, n)) for n in range(5)]
    assert json.loads(capsys.readouterr().out) == {
        "levels": [{"n": n, "count": c} for n, c in enumerate(counts)],
        "identities_verified": True}


@pytest.mark.parametrize("k", range(-4, 6))
def test_nerve_output_for_every_max_degree(tmp_path, capsys, k):
    from realcech.nerve import check_simplicial_identities, nerve
    g = standard.cyclic_group(4, "inversion")
    path = write(tmp_path, "z4.json", io.groupoid_to_json(g))
    assert cli.main(["nerve", path, "--max-degree", str(k)]) == 0
    # the identities checked on levels of their own, the counts level by level
    assert check_simplicial_identities(g, min(k, 4)) == []
    assert capsys.readouterr().out == io.dumps({
        "levels": [{"n": n, "count": len(nerve(g, n))} for n in range(k + 1)],
        "identities_verified": True})
