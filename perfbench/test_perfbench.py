"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest perfbench -q
"""

import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
from workloads import DEFAULT_SEEDS, WORKLOADS, ber_long, exact_occupancy_ber

sys.path.insert(0, os.path.join(run.ROOT, "src"))


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def smoke_runs(spec):
    """Every workload at smoke size, untraced and traced."""
    return {
        (name, trace): run.run_workload(name, DEFAULT_SEEDS[name], 0.0, trace,
                                        smoke=True, spec=spec)
        for name in WORKLOADS for trace in (False, True)
    }


def test_workload_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(DEFAULT_SEEDS) == set(WORKLOADS)


def test_metric_names_match_benchmark_json(spec, smoke_runs):
    for (name, trace), out in smoke_runs.items():
        entries = spec["per_layer" if trace else "end_to_end"]
        assert list(out["result"]["metrics"]) == [e["name"] for e in entries]
        for e in entries:
            assert out["result"]["metrics"][e["name"]]["unit"] == e["unit"]


def test_smoke_runs_are_correct_and_traced_digests_match(smoke_runs):
    for key, out in smoke_runs.items():
        result = out["result"]
        assert result["correct"], (key, out["detail"]["failures"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        # every traced and memory repetition was gated against the first
        # untraced repetition's digests
        assert out["detail"]["failures"] == []


def test_end_to_end_metrics_are_positive(smoke_runs):
    for (name, trace), out in smoke_runs.items():
        if not trace:
            for metric, entry in out["result"]["metrics"].items():
                assert entry["value"] > 0, (name, metric)


def test_self_times_are_non_negative(smoke_runs):
    for (name, trace), out in smoke_runs.items():
        if trace:
            for metric, entry in out["result"]["metrics"].items():
                if metric.endswith(".self_s"):
                    assert entry["value"] >= 0, (name, metric)


def test_self_times_plus_unattributed_sum_to_wall(tmp_path):
    import qrngsim.cli

    tracer = spans.Tracer("test")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with spans.timing_installed(tracer):
            start = time.perf_counter()
            for argv in (["generate", "--duration", "5", "--pair-rate", "2000",
                          "--monitor-threshold", "500", "--out", "g.bits"],
                         ["unbias", "g.bits", "--out", "u.bits"],
                         ["test", "u.bits"]):
                with tracer.span(f"cli.{argv[0]}"):
                    assert qrngsim.cli.main(argv) in (0, 1)
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    selfs = spans.self_times(tracer.spans)
    unattributed = wall - spans.root_time(tracer.spans)
    assert unattributed >= 0
    assert all(v >= 0 for v in selfs.values())
    assert sum(selfs.values()) + unattributed == pytest.approx(wall, rel=1e-9)
    # nesting seen: run_generation under generate, simulate under it
    by_name = {s["name"]: s for s in tracer.spans}
    parent = tracer.spans[by_name["timetag.simulate"]["parent"]]
    assert parent["name"] == "cli.run_generation"
    assert {s["run_id"] for s in tracer.spans} == {"test"}


def test_wrappers_are_removed_after_the_run():
    import qrngsim.timetag

    original = qrngsim.timetag.simulate
    with spans.timing_installed(spans.Tracer("x")):
        assert qrngsim.timetag.simulate is not original
    assert qrngsim.timetag.simulate is original


def test_output_gate_trips_on_corrupted_digest(tmp_path):
    plan = ber_long(1, smoke=True)
    runner = run.Runner(str(tmp_path), plan)
    assert runner.rep("plain") is not None and runner.failed == 0
    good = dict(runner.first_digests)
    name = plan.outputs[0]
    corrupted = dict(good, **{name: "0" * 64})

    assert run.gate_digests(good, good, good) == []
    assert run.gate_digests(good, good, corrupted)
    assert run.gate_digests(good, corrupted, None)

    # against a corrupted golden record, a real repetition fails all its ops
    runner.expected = corrupted
    runner.rep("plain")
    assert runner.failed == len(plan.ops)
    assert any("golden" in f for f in runner.failures)


def test_probe_walk_is_one_cycle_through_every_slot():
    import worker

    slots = 1 << 12       # the Hull-Dobell conditions hold for any power of two
    i, seen = 0, set()
    for _ in range(slots):
        seen.add(i)
        i = (worker.CHASE_A * i + worker.CHASE_C) & (slots - 1)
    assert i == 0 and len(seen) == slots


def test_trace_overhead_is_reported(smoke_runs):
    for (name, trace), out in smoke_runs.items():
        if trace:
            assert math.isfinite(out["result"]["metrics"]["trace.overhead_s"]["value"])


@pytest.mark.parametrize("lam", [0.02, 0.2, 1.0])
def test_exact_occupancy_law_matches_poisson_sum(lam):
    pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(40)]
    assert exact_occupancy_ber(lam) == pytest.approx(sum(pmf[2:]) / sum(pmf[1:]))


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
