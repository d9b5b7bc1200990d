"""Time the cohomology cases larger than the benchmark runs, each in its
own process, with coefficients mu(4)_conj.

    PYTHONPATH=src python3 tools/large_cases.py CASE [CASE ...]

A case is `<groupoid>:<n>`, the groupoid `pairK` (the pair groupoid on K
objects) or `ZK_inv` (Z/K with the inversion involution), with 1 <= K <= 16
and n <= 6, so that no case name asks for an absurd allocation.  The cases of
the ROADMAP baseline table are Z8_inv:3, pair5:3, pair4:3 and Z6_inv:4.

For each case one JSON line goes to stdout: the group, `key_s` (building
the complex and HR^n's group key), `presentation_s` (the first
presentation, which class queries and generators read) and
`generators_md5`, a hash of the generator columns and their orders, so
that a change to the Smith form can be checked to keep the generators.
A case that fails prints its error and makes the exit code 1; a malformed
case name gives exit code 2.
"""

import hashlib
import json
import re
import subprocess
import sys
import time

COEFFICIENTS = "mu(4)_conj"
BASELINE = ("Z8_inv:3", "pair5:3", "pair4:3", "Z6_inv:4")
_CASE = re.compile(r"(pair|Z)(\d+)(_inv)?:(\d+)$")


def parse(case):
    """(groupoid kind, K, n) of a case name, or None if malformed."""
    match = _CASE.match(case)
    if not match or (match.group(1) == "Z") != bool(match.group(3)):
        return None
    kind, k, n = match.group(1), int(match.group(2)), int(match.group(4))
    return (kind, k, n) if 1 <= k <= 16 and n <= 6 else None


def run_case(case):
    """Time one case in this process; returns its JSON record."""
    from realcech import standard
    from realcech.cochains import RealComplex
    from realcech.coefficients import make_standard

    kind, k, n = parse(case)
    G = standard.pair_groupoid(k) if kind == "pair" else standard.cyclic_group(k, "inversion")
    t0 = time.perf_counter()
    h = RealComplex(G, make_standard(COEFFICIENTS)).cohomology(n)
    t1 = time.perf_counter()
    pres = h.presentation
    t2 = time.perf_counter()
    gens = [[[int(x) for x in col], int(order)] for col, order in pres.generators()]
    digest = hashlib.md5(json.dumps(gens).encode()).hexdigest()
    return {"case": case, "coefficients": COEFFICIENTS, "group": str(h),
            "key_s": round(t1 - t0, 3), "presentation_s": round(t2 - t1, 3),
            "generators_md5": digest}


def main(argv):
    if argv[:1] == ["--in-process"]:
        print(json.dumps(run_case(argv[1])), flush=True)
        return 0
    bad = [case for case in argv if parse(case) is None]
    if not argv or bad:
        print(f"usage: large_cases.py CASE [CASE ...], a case being pairK:n or "
              f"ZK_inv:n with 1 <= K <= 16 and n <= 6; the baseline cases are "
              f"{' '.join(BASELINE)}"
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
