"""Tests of the benchmark itself (harness, spans, pinned answers).

    PYTHONPATH=src python3 -m pytest -q bench/tests

Each of the four workload parts is exercised on a slice of its ops,
untraced and traced.
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from realcech import cli, exact, nerve  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# a slice of each part with enough work for the span sums to be meaningful
SLICES = {
    "torsion_ladder": lambda op: "Z4_inv mu(4)_conj" in op.id or op.id == "validate Z4_inv",
    "assembly_deep": lambda op: "Z4_inv" in op.id,
    "rational_vanish": lambda op: "pair3_swap01" in op.id,
    "class_queries": None,
}
CLASS_QUERY_OPS = 220


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def _ops(wl, seed):
    ops = wl.ops(random.Random(seed))
    keep = SLICES[wl.name]
    if keep is None:
        return (op for _, op in zip(range(CLASS_QUERY_OPS), ops))
    return (op for op in ops if keep(op))


def _answer(op, result):
    if op.observe is not None:
        return op.observe(result)
    if hasattr(result, "vector"):
        return [int(v) for v in result.vector]
    return result


def test_metric_names_and_lists_match_the_harness():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == \
        list(workloads.WORKLOADS)

    p = run.Pass()
    p.times, p.attempted = [("cohomology", 0.5)], 1
    e2e = run.end_to_end_metrics({0: [0.5, 0.7, 0.6], 1: [0.1]}, 1.0, 0, 1)
    assert e2e["wall_s"] == (pytest.approx(0.7), "s")
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = run.trace_metrics(spans.Tracer(), p, p)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {k: u for k, (_, u) in layer.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", list(workloads.PARTS))
def test_traced_run_matches_untraced_and_spans_cover_it(name, expected, alarm, tmp_path):
    wl = workloads.PARTS[name](expected)
    assert wl.setup(str(tmp_path)) == []
    plain = []
    untraced = run.run_pass(wl, _ops(wl, 7), results=plain)
    assert untraced.failures == []

    counts = []
    for _ in range(2):
        traced_results = []
        with spans.Tracer() as tracer:
            traced = run.run_pass(wl, _ops(wl, 7), tracer, results=traced_results)
        assert traced.failures == []
        assert [(op.id, _answer(op, r)) for op, r in traced_results] == \
            [(op.id, _answer(op, r)) for op, r in plain]
        # self times of the named layers add up to the traced wall time
        assert tracer.layer_seconds() == pytest.approx(traced.wall, rel=0.10)
        counts.append((dict(tracer.count), dict(tracer.maximum)))
    # deterministic size counters repeat exactly
    assert counts[0] == counts[1]


def test_wrong_answer_and_timeout_are_failures(alarm, tmp_path, monkeypatch):
    wl = workloads.TorsionLadder({"torsion_ladder": {"validate Z4_inv": "wrong\n"}})
    wl.setup(str(tmp_path))
    ops = [op for op in wl.ops(random.Random(0)) if op.id == "validate Z4_inv"]
    p = run.run_pass(wl, ops)
    assert p.attempted == 1 and len(p.failures) == 1 and "pinned" in p.failures[0]

    monkeypatch.setattr(run, "JOB_CAP_S", 0.05)
    slow = workloads.Op("sleeper", lambda: time.sleep(5))
    t0 = time.perf_counter()
    p = run.run_pass(wl, [slow])
    assert time.perf_counter() - t0 < 2
    assert p.failures == ["sleeper: timeout after 0.05 s"]


def test_speed_probe_scales_by_the_samples_around_an_op(monkeypatch):
    clock = [0.0]
    samples = iter([0.02] * 3 + [0.04] + [0.01, 0.03])

    def chase(self):
        clock[0] += next(samples)

    monkeypatch.setattr(speed, "SIZE", 16)
    monkeypatch.setattr(speed, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(speed.SpeedProbe, "_chase", chase)
    probe = speed.SpeedProbe(every_s=10.0)      # three warm-up samples of 0.02 s
    probe.after_op("a", 1.0)                    # between samples of 0.02 and 0.04 s
    probe.after_op("b", 0.5)
    assert probe.take() == {"a": pytest.approx(1.0 * 2 * speed.REFERENCE_S / 0.06),
                            "b": pytest.approx(0.5 * 2 * speed.REFERENCE_S / 0.06)}
    result, scale = probe.around(lambda: "done")    # between samples of 0.01 and 0.03 s
    assert (result, scale) == ("done", pytest.approx(2 * speed.REFERENCE_S / 0.04))


def test_tracer_restores_the_package():
    originals = (exact.smith_normal_form, exact.IntSolver.solve, nerve.face, cli.main)
    with spans.Tracer():
        assert exact.smith_normal_form is not originals[0]
    assert (exact.smith_normal_form, exact.IntSolver.solve, nerve.face, cli.main) == originals


def test_measure_reports_every_end_to_end_metric(alarm, monkeypatch):
    class Tiny(workloads.Combined):
        name = "tiny"
        parts = (workloads.ClassQueries,)

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", Tiny)
    monkeypatch.setattr(workloads.ClassQueries, "QUERIES", 30)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    result = run.measure("tiny", seed=3, seconds=0.1, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 33
    assert list(result["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "torsion_and_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
