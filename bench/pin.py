"""Regenerate expected.json: the pinned answer of every benchmark op.

    PYTHONPATH=src python3 bench/pin.py            # write bench/expected.json
    PYTHONPATH=src python3 bench/pin.py --oracle   # and cross-check small cases

Run it only when an answer is meant to change; the benchmark counts any
difference from the pinned values as a failed op.  --oracle compares
every cohomology group the benchmark pins whose cochain groups are small
enough against the brute-force enumeration in tests/oracles.py.
"""

import argparse
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from realcech.cochains import cochain_group, cohomology  # noqa: E402
from realcech.coefficients import make_standard  # noqa: E402

ORACLE_LIMIT = 70_000  # real cochains per degree the brute force may enumerate


def pin_all():
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        for name, cls in workloads.PARTS.items():
            wl = cls({})
            pinned = {}
            if name == "class_queries":
                wl.setup(workdir)
                for key, _, h, _, _ in wl.groups:
                    pinned[key] = [h.group_key()[0], list(h.group_key()[1])]
            else:
                wl.setup(workdir)
                for op in wl.ops(random.Random(0)):
                    result = op.run()
                    if op.verify is not None and op.verify(result):
                        raise SystemExit(op.verify(result))
                    pinned[op.id] = op.observe(result)
            expected[name] = pinned
            print(f"{name}: {len(pinned)} pinned answers", file=sys.stderr)
    return expected


def _cochain_count(G, S, n):
    free, fixed = cochain_group(G, S, n).counts()
    return S.order() ** free * S.fixed_part()[0].order() ** fixed


def oracle_cases():
    """(groupoid, coefficient, degree) of every pinned cohomology group."""
    cases = {(g, c, n) for g, c, n in workloads.TorsionLadder.JOBS}
    cases.update(workloads.ClassQueries.CASES)
    return sorted(cases)


def cross_check():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from oracles import brute_cohomology_orders, orders_of_presentation
    checked = 0
    for g, c, n in oracle_cases():
        G, S = workloads.groupoid(g), make_standard(c)
        if not S.is_finite():
            continue
        if any(_cochain_count(G, S, k) > ORACLE_LIMIT for k in {n, max(n - 1, 0)}):
            continue
        key = cohomology(G, S, n).group_key()
        brute = brute_cohomology_orders(G, S, n)
        ok = brute == orders_of_presentation(key)
        print(f"oracle HR^{n}({g}, {c}) = {key}: {'agrees' if ok else 'DISAGREES'}"
              f" (element orders {brute})", file=sys.stderr)
        if not ok:
            raise SystemExit(1)
        checked += 1
    print(f"oracle: {checked} cases agree", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--oracle", action="store_true")
    args = ap.parse_args()
    expected = pin_all()
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if args.oracle:
        cross_check()


if __name__ == "__main__":
    main()
