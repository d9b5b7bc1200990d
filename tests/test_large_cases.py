"""tools/large_cases.py on pair_groupoid(2): one JSON line per case, each
case timed in its own process, and the generator hash that the larger
cases are compared by."""

import hashlib
import json
import os
import subprocess
import sys

from realcech import standard
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "large_cases.py")


def run(*cases):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, TOOL, *cases], capture_output=True,
                          text=True, env=env, timeout=60)


def test_large_cases_smoke():
    got = run("pair2:1", "pair2:2", "pair2_key:2", "Z4_inv_key:2")
    assert got.returncode == 0, got.stderr
    lines = [json.loads(line) for line in got.stdout.splitlines()]
    assert [line["case"] for line in lines] == ["pair2:1", "pair2:2", "pair2_key:2",
                                                "Z4_inv_key:2"]
    for line, n in zip(lines, (1, 2)):
        h = RealComplex(standard.pair_groupoid(2), make_standard("mu(4)_conj")).cohomology(n)
        gens = [[[int(x) for x in col], int(order)]
                for col, order in h.presentation.generators()]
        assert line["group"] == str(h)
        assert line["generators_md5"] == hashlib.md5(json.dumps(gens).encode()).hexdigest()
        assert line["key_s"] >= 0 and line["presentation_s"] >= 0
    # a key-only case builds no presentation
    groupoids = (standard.pair_groupoid(2), standard.cyclic_group(4, "inversion"))
    for line, g in zip(lines[2:], groupoids):
        assert line["group"] == str(RealComplex(g, make_standard("mu(4)_conj")).cohomology(2))
        assert set(line) == {"case", "coefficients", "group", "key_s", "peak_rss_mib"}


def test_large_cases_rejects_malformed_cases():
    for cases in ((), ("pair2",), ("Z8:3",), ("pair2_inv:1",), ("Z17_inv:1",),
                  ("pair0:1",), ("pair2:7",), ("pair2:1", "Z99999999999999999999_inv:1"),
                  ("pair2_key",), ("Z4_key:1",), ("pair2_key:7",), ("pair2_key_vanish:1",),
                  ("Z4_inv_vanish_key:1",)):
        got = run(*cases)
        assert got.returncode == 2 and not got.stdout and "usage" in got.stderr, cases


def test_large_rational_cases_smoke():
    from realcech.coefficients import RealRepresentation
    from realcech.proper import vanishing_check
    got = run("pair2_vanish:2", "Z3_inv_vanish:1")
    assert got.returncode == 0, got.stderr
    lines = [json.loads(line) for line in got.stdout.splitlines()]
    assert [line["case"] for line in lines] == ["pair2_vanish:2", "Z3_inv_vanish:1"]
    for line, g, n in zip(lines, (standard.pair_groupoid(2),
                                  standard.cyclic_group(3, "inversion")), (2, 1)):
        report = vanishing_check(g, RealRepresentation.trivial(g, 1, 1), n)
        assert line["free_ranks"] == [row["free_rank"] for row in report] == [0] * n
        assert line["identity_holds"] is True and line["coefficients"] == "Q(1,1)"
        assert line["vanish_s"] >= 0 and line["identity_s"] >= 0 and line["peak_rss_mib"] > 0
    for cases in (("pair2_vanish",), ("Z4_vanish:1",), ("pair2_vanish_inv:1",),
                  ("pair2_vanish:7",)):
        got = run(*cases)
        assert got.returncode == 2 and not got.stdout and "usage" in got.stderr, cases


def test_large_presets_cases_smoke():
    got = run("pair2_presets:2", "Z4_inv_presets:1")
    assert got.returncode == 0, got.stderr
    lines = [json.loads(line) for line in got.stdout.splitlines()]
    assert [line["case"] for line in lines] == ["pair2_presets:2", "Z4_inv_presets:1"]
    presets = ["Z2_trivial", "Z_sign", "mu(2)_conj", "mu(4)_conj", "mu(4)_trivial"]
    for line, g, n in zip(lines, (standard.pair_groupoid(2),
                                  standard.cyclic_group(4, "inversion")), (2, 1)):
        assert set(line) == {"case", "coefficients", "groups", "key_s", "peak_rss_mib"}
        assert line["coefficients"] == presets
        assert line["groups"] == [str(RealComplex(g, make_standard(c)).cohomology(n))
                                  for c in presets]
        assert line["key_s"] >= 0 and line["peak_rss_mib"] > 0
    for cases in (("pair2_presets",), ("Z4_presets:1",), ("pair2_presets:7",),
                  ("pair2_presets_key:1",)):
        got = run(*cases)
        assert got.returncode == 2 and not got.stdout and "usage" in got.stderr, cases
