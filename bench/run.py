"""Benchmark of the realcech pipeline, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): torsion_and_queries and
assembly_and_rational.  The benchmark imports realcech from the
`src/` directory next to this one, so it measures the checkout it lives
in; it exits with code 2 and prints no result when that source is absent.

One pass runs every op of the workload once.  With --trace 0 the
benchmark repeats passes for about --seconds seconds (at least three)
and prints the end-to-end metrics; with --trace 1 it runs one untraced and
one traced pass and prints the per-layer metrics.  The end-to-end times
are in reference seconds: each op's time is scaled by the machine speed
that speed.py measures around it, so that spells of a slower shared host
do not read as a slower program.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every op has a time cap; an op that exceeds it fails with "timeout".
"""

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import speed

_T0 = time.perf_counter()   # the run budgets below count from here

# one thread: numpy's BLAS pool would otherwise start at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("torsion_and_queries", "assembly_and_rational")

JOB_CAP_S = 60.0        # per op
PASS_BUDGET_S = 100.0   # no pass starts that is expected to end later than this after _T0
RUN_BUDGET_S = 150.0    # no op starts later than this after _T0
MIN_PASSES = 3
SETUP_REPEATS = 5


class JobTimeout(BaseException):
    """Raised by the interval timer inside an op that ran past its cap.
    A BaseException, so no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class Pass:
    """Outcome of one pass: per op, in order, its kind (the first word of
    its id) and its time, None when it raised or timed out."""

    def __init__(self):
        self.times = []
        self.failures = []    # one line per failed op
        self.attempted = 0
        self.scaled = {}      # op position -> reference seconds, when probed

    @property
    def wall(self):
        return sum(dt for _, dt in self.times if dt is not None)

    def latency(self, kind):
        return [dt for k, dt in self.times if k == kind and dt is not None]


def run_pass(workload, ops, tracer=None, deadline=None, results=None, probe=None):
    """Run `ops` (one pass of the workload) and check each result.  Only
    `op.run()` is timed (and traced); with a tracer, its bookkeeping time
    is taken out of each timing.  `results`, if given, collects
    (op, result) pairs.  A `probe` is sampled, untimed, between ops."""
    out = Pass()
    if probe:
        probe.take()
    for i, op in enumerate(ops):
        if probe:
            probe.before_op()
        out.attempted += 1
        out.times.append((op.id.split(" ", 1)[0], None))
        cap = JOB_CAP_S if deadline is None else min(JOB_CAP_S, deadline - time.perf_counter())
        if cap <= 0:
            out.failures.append(f"{op.id}: timeout (run budget spent)")
            continue
        bk0 = tracer.bookkeeping_s if tracer else 0.0
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            result = op.run()
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if probe:
                probe.after_op(i, dt)
        except JobTimeout:
            out.failures.append(f"{op.id}: timeout after {cap:g} s")
            continue
        except Exception as e:  # the op's failure is a result, not a crash
            signal.setitimer(signal.ITIMER_REAL, 0)
            out.failures.append(f"{op.id}: raised {type(e).__name__}: {e}")
            continue
        finally:
            if tracer:
                tracer.active = False
        if tracer:
            dt -= tracer.bookkeeping_s - bk0
        out.times[-1] = (out.times[-1][0], dt)
        if results is not None:
            results.append((op, result))
        try:
            err = workload.check(op, result)
        except Exception as e:
            err = f"{op.id}: check raised {type(e).__name__}: {e}"
        if err:
            out.failures.append(err)
    if probe:
        out.scaled = probe.take()
    return out


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(op_times, setup_s, failed, attempted, probe_bytes=0):
    """wall_s: one pass with each op at its median time over the run's
    passes (`op_times`: op position -> reference seconds per pass; op i is
    the same job in every pass, class_queries: the same case with fresh
    random inputs); setup_s: already scaled; peak_rss_mib: of the process
    without the speed probe; pass_ratio: 1 - failed/attempted."""
    return {
        "wall_s": (sum(statistics.median(v) for v in op_times.values()), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": ((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                          - probe_bytes) / 2**20, "MiB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def trace_metrics(tracer, untraced, traced):
    """Per-layer metrics of the traced pass, the read-path latencies of the
    untraced pass (0 where the workload makes no such call) and the
    tracing overhead."""
    out = tracer.metrics()
    class_of, coboundary = untraced.latency("class_of"), untraced.latency("is_coboundary")
    out["class_of_us.p50"] = (_quantile(class_of, 50) * 1e6, "us")
    out["class_of_us.p99"] = (_quantile(class_of, 99) * 1e6, "us")
    out["coboundary_ms.p50"] = (_quantile(coboundary, 50) * 1e3, "ms")
    out["coboundary_ms.p95"] = (_quantile(coboundary, 95) * 1e3, "ms")
    out["trace.wall_s"] = (traced.wall, "s")
    out["trace.untraced_wall_s"] = (untraced.wall, "s")
    out["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    out["trace.coverage"] = (tracer.layer_seconds() / traced.wall if traced.wall else 0.0, "ratio")
    return out


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import realcech.cli, realcech.proper; print(time.perf_counter())")


def import_seconds():
    """Process start to `import realcech` done, in a fresh interpreter
    (perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout) - t0


def measure(name, seed, seconds, trace):
    """Set up and run one workload; returns the result object.  setup_s is
    the median import time of fresh interpreters plus the median time to
    build the workload's inputs, each taken SETUP_REPEATS times, scaled
    by the speed probe samples taken around them."""
    # the probe first: it is built while the process is small, so the
    # process's peak is its own plus the probe's fixed footprint
    meter = None if trace else speed.SpeedProbe()
    import realcech
    import spans
    import workloads
    if not os.path.abspath(realcech.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"realcech was imported from {realcech.__file__}, not from {SRC}")
    expected = workloads.load_expected()

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        def build():
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[name](expected)
            return workload, workload.setup(workdir), time.perf_counter() - t0

        if meter:
            imports, builds = [], []
            for _ in range(SETUP_REPEATS):
                import_s, scale = meter.around(import_seconds)
                imports.append(import_s * scale)
                (workload, setup_failures, build_s), scale = meter.around(build)
                builds.append(build_s * scale)
            setup_s = statistics.median(imports) + statistics.median(builds)
        else:
            workload, setup_failures, _ = build()

        rng = random.Random(seed)
        deadline = _T0 + RUN_BUDGET_S
        signal.signal(signal.SIGALRM, _on_alarm)
        failures, attempted = list(setup_failures), len(setup_failures)
        if trace:
            untraced = run_pass(workload, workload.ops(rng), deadline=deadline)
            with spans.Tracer() as tracer:
                traced = run_pass(workload, workload.ops(rng), tracer, deadline)
            passes = [untraced, traced]
        else:
            op_times, passes, start = defaultdict(list), [], time.perf_counter()
            while True:
                t0 = time.perf_counter()
                p = run_pass(workload, workload.ops(rng), deadline=deadline, probe=meter)
                for i, dt in p.scaled.items():
                    op_times[i].append(dt)
                passes.append(p)
                print(f"bench: pass {len(passes)}: {p.wall:.3f} s, "
                      f"{sum(p.scaled.values()):.3f} reference s", file=sys.stderr)
                p.times.clear()     # keeps the harness small
                now = time.perf_counter()
                last = now - t0
                if now + last > _T0 + PASS_BUDGET_S:
                    break
                if len(passes) >= MIN_PASSES and now - start + last > seconds:
                    break

    for p in passes:
        failures += p.failures
        attempted += p.attempted
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if trace:
        metrics = trace_metrics(tracer, untraced, traced)
    else:
        metrics = end_to_end_metrics(op_times, setup_s, len(failures), attempted,
                                     meter.footprint_bytes)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "realcech", "__init__.py")):
        print(f"bench: no realcech sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
