"""Time the cohomology cases larger than the benchmark runs, each in its
own process.

    PYTHONPATH=src python3 tools/large_cases.py CASE [CASE ...]

A case is `<groupoid>:<n>`, `<groupoid>_key:<n>`, `<groupoid>_presets:<n>`,
`<groupoid>_vanish:<n>` or `<groupoid>_les:<n>`, the groupoid `pairK` (the pair groupoid on K objects) or `ZK_inv` (Z/K with
the inversion involution), with 1 <= K <= 16 and n <= 6, so that no case
name asks for an absurd allocation.  The integral cases of the ROADMAP
baseline table are Z8_inv:3, pair5:3, pair4:3 and Z6_inv:4; the key-only
ones pair6_key:3, pair7_key:3, pair8_key:3, Z8_inv_key:4, Z12_inv_key:3 and
Z6_inv_key:5; the rational ones pair6_vanish:3 and pair7_vanish:3; the LES
ones pair4_les:3 and Z8_inv_les:3.

For each case one JSON line goes to stdout, with `peak_rss_mib`, the
maximum resident set size of the case's process.  An integral case, with
coefficients mu(4)_conj, gives the group, `key_s` (building the complex
and HR^n's group key), `presentation_s` (the first presentation, which
class queries and generators read) and `generators_md5`, a hash of the
generator columns and their orders, so that a change to the Smith form can
be checked to keep the generators.  A key-only case gives the group and
`key_s` alone, with no presentation.  A presets case gives the groups
of HR^n for the five coefficient presets of the test suite
(`tests/conftest.py`), one complex each on the one groupoid, and `key_s`
for all five keys: the cost, in time and memory, of several complexes
that share the groupoid's nerve levels.  A rational case, with the trivial
representation Q(1,1), gives `vanish_s` (the vanishing report through
degree n, whose free ranks it lists), `identity_s` (h d + d h = 1 in
degree n on a new complex) and whether the identity holds.  An LES case
gives `les_s`, the time of `les.long_exact_sequence_check` through degree
n of 0 -> mu(2)_trivial -> mu(4)_trivial -> mu(2)_trivial -> 0, its
`exact` flag and `report_md5`, a hash of the whole report.  A case that
fails prints its error and makes the exit code 1; a malformed case name
gives exit code 2.
"""

import hashlib
import json
import re
import resource
import subprocess
import sys
import time

COEFFICIENTS = "mu(4)_conj"
PRESETS = ("Z2_trivial", "Z_sign", "mu(2)_conj", "mu(4)_conj", "mu(4)_trivial")
BASELINE = ("Z8_inv:3", "pair5:3", "pair4:3", "Z6_inv:4", "pair7_key:3", "Z6_inv_key:5",
            "pair6_vanish:3", "pair7_vanish:3", "pair4_les:3", "Z8_inv_les:3")
_CASE = re.compile(r"(pair|Z)(\d+)(_inv)?(_vanish|_key|_presets|_les)?:(\d+)$")


def parse(case):
    """(groupoid kind, K, n, suffix) of a case name, the suffix "_vanish",
    "_key", "_presets", "_les" or None; None if the name is malformed."""
    match = _CASE.match(case)
    if not match or (match.group(1) == "Z") != bool(match.group(3)):
        return None
    kind, k, n = match.group(1), int(match.group(2)), int(match.group(5))
    return (kind, k, n, match.group(4)) if 1 <= k <= 16 and n <= 6 else None


def run_case(case):
    """Time one case in this process; returns its JSON record."""
    from realcech import standard

    kind, k, n, suffix = parse(case)
    G = standard.pair_groupoid(k) if kind == "pair" else standard.cyclic_group(k, "inversion")
    if suffix == "_vanish":
        record = _rational(G, n)
    elif suffix == "_presets":
        record = _presets(G, n)
    elif suffix == "_les":
        record = _les(G, n)
    else:
        record = _integral(G, n, suffix != "_key")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"case": case, **record, "peak_rss_mib": round(peak, 1)}


def _integral(G, n, presentation):
    from realcech.cochains import RealComplex
    from realcech.coefficients import make_standard

    t0 = time.perf_counter()
    h = RealComplex(G, make_standard(COEFFICIENTS)).cohomology(n)
    t1 = time.perf_counter()
    key = {"coefficients": COEFFICIENTS, "group": str(h), "key_s": round(t1 - t0, 3)}
    if not presentation:
        return key
    pres = h.presentation
    t2 = time.perf_counter()
    gens = [[[int(x) for x in col], int(order)] for col, order in pres.generators()]
    digest = hashlib.md5(json.dumps(gens).encode()).hexdigest()
    return {**key, "presentation_s": round(t2 - t1, 3), "generators_md5": digest}


def _presets(G, n):
    from realcech.cochains import RealComplex
    from realcech.coefficients import make_standard

    t0 = time.perf_counter()
    groups = [str(RealComplex(G, make_standard(name)).cohomology(n)) for name in PRESETS]
    t1 = time.perf_counter()
    return {"coefficients": list(PRESETS), "groups": groups, "key_s": round(t1 - t0, 3)}


def _rational(G, n):
    from realcech.coefficients import RealRepresentation
    from realcech.proper import RepComplex, contraction_is_homotopy, vanishing_check

    rep = RealRepresentation.trivial(G, 1, 1)
    t0 = time.perf_counter()
    report = vanishing_check(G, rep, n)
    t1 = time.perf_counter()
    holds = contraction_is_homotopy(RepComplex(G, rep), n) if n >= 1 else None
    t2 = time.perf_counter()
    return {"coefficients": "Q(1,1)", "free_ranks": [row["free_rank"] for row in report],
            "vanish_s": round(t1 - t0, 3), "identity_s": round(t2 - t1, 3),
            "identity_holds": holds}


def _les(G, n):
    from realcech.coefficients import make_standard
    from realcech.les import CoefficientSES, long_exact_sequence_check

    mu2, mu4 = make_standard("mu(2)_trivial"), make_standard("mu(4)_trivial")
    t0 = time.perf_counter()
    report = long_exact_sequence_check(CoefficientSES(mu2, mu4, mu2, [[2]], [[1]]), G, n)
    t1 = time.perf_counter()
    digest = hashlib.md5(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return {"coefficients": "0 -> mu(2)_trivial -> mu(4)_trivial -> mu(2)_trivial -> 0",
            "les_s": round(t1 - t0, 3), "exact": report["exact"], "report_md5": digest}


def main(argv):
    if argv[:1] == ["--in-process"]:
        print(json.dumps(run_case(argv[1])), flush=True)
        return 0
    bad = [case for case in argv if parse(case) is None]
    if not argv or bad:
        print(f"usage: large_cases.py CASE [CASE ...], a case being pairK:n, ZK_inv:n, "
              f"pairK_key:n, ZK_inv_key:n, pairK_presets:n, ZK_inv_presets:n, "
              f"pairK_vanish:n, ZK_inv_vanish:n, pairK_les:n or ZK_inv_les:n with "
              f"1 <= K <= 16 and n <= 6; the "
              f"baseline cases are {' '.join(BASELINE)}"
              + (f" (malformed: {' '.join(bad)})" if bad else ""), file=sys.stderr)
        return 2
    code = 0
    for case in argv:
        run = subprocess.run([sys.executable, __file__, "--in-process", case],
                             capture_output=True, text=True)
        if run.returncode:
            last = run.stderr.strip().splitlines()[-1:] or [f"exit code {run.returncode}"]
            print(json.dumps({"case": case, "error": last[0]}))
            code = 1
        else:
            print(run.stdout, end="", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
