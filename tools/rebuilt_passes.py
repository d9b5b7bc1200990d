"""Time passes of the assembly_and_rational workload with its inputs
rebuilt before every pass.

    python3 tools/rebuilt_passes.py [--tree DIR] [--seed S]

`bench/run.py` builds a workload's inputs once and then repeats passes
over them, so state that a groupoid or a representation keeps serves
every pass after the first.  This tool runs 30 passes of
assembly_and_rational in this process, calling the workload's `setup`
again before each pass, so that each pass starts from fresh groupoids,
coefficients and representations: what the repeated passes gain through
such state is left out, and what sharing does within one pass stays in.  It imports `bench/workloads.py` and `bench/run.py`
of the tree DIR (by default the one this tool lives in) and `realcech`
from DIR/src, unedited, and times each op with `run.run_pass`, checking
every result against `bench/expected.json`.

One JSON line goes to stdout: the median, quartiles, minimum and maximum
over the passes of the summed op time of a pass (in seconds, unscaled),
the number of passes and of failed ops.  The first pass is a warm-up and
is not counted.  Exit code 1 if an op failed.
"""

import argparse
import json
import os
import random
import signal
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD, PASSES = "assembly_and_rational", 30


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", default=ROOT)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    tree = os.path.abspath(args.tree)
    sys.path[:0] = [os.path.join(tree, "bench"), os.path.join(tree, "src")]
    import run
    import workloads
    import realcech
    if not os.path.abspath(realcech.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise SystemExit(f"realcech was imported from {realcech.__file__}, not from {tree}")

    signal.signal(signal.SIGALRM, run._on_alarm)
    expected, rng = workloads.load_expected(), random.Random(args.seed)
    walls, failures = [], []
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(PASSES + 1):
            workload = workloads.WORKLOADS[WORKLOAD](expected)
            failures += workload.setup(workdir)
            p = run.run_pass(workload, workload.ops(rng))
            failures += p.failures
            if i:
                walls.append(p.wall)
    q1, median, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(json.dumps({"workload": WORKLOAD, "passes": len(walls),
                      "pass_s": {"median": median, "q1": q1, "q3": q3,
                                 "min": min(walls), "max": max(walls)},
                      "failed": len(failures)}))
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
