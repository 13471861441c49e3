"""Op counting, the correctness check, and the runner's contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.counters import component_metrics, per_layer_names, span_metrics
from perfbench.workloads import WORKLOADS, LossyWorkload, ProvisionWorkload
from repro import units
from repro.obs.context import Observability

ROOT = Path(__file__).resolve().parents[2]


def small_lossy() -> LossyWorkload:
    return LossyWorkload(horizon_ns=10 * units.MS, loss=0.05)


@pytest.fixture(scope="module")
def lossy_round():
    return run.run_round(small_lossy(), seed=0)


def test_lossy_ops_are_physical_frames(lossy_round):
    rnd = lossy_round
    assert rnd.error is None
    assert len(rnd.census.sims) == 1
    # the NIC counters the simulator publishes agree with the op count
    frames = sum(entry["value"]
                 for sim in rnd.census.sims
                 for name, entry in Observability.of(sim).metrics.dump().items()
                 if name.startswith("hw.nic.") and name.endswith(".tx_frames"))
    assert rnd.ops == frames == rnd.results["frames"] > 0
    assert rnd.events == sum(sim.events_processed for sim in rnd.census.sims) > rnd.ops


def test_provision_ops_are_commands():
    rnd = run.run_round(ProvisionWorkload(hosts=16), seed=0)
    assert rnd.error is None
    assert rnd.ops == rnd.results["commands"] > rnd.results["routes"] > 0
    assert rnd.results["routes_installed"] == rnd.results["routes"]
    assert rnd.setup_s is not None and rnd.setup_s > 0


def test_lossy_seed_drives_the_loss_stream():
    workload = small_lossy()
    a = run.run_round(workload, seed=3)
    b = run.run_round(workload, seed=3)
    c = run.run_round(workload, seed=4)
    assert a.error is None and b.error is None and c.error is None
    assert a.results == b.results and a.events == b.events
    assert a.results != c.results
    assert workload.sane(a.results) == []
    assert component_metrics(a.census, a.ops)["proto.retransmits_per_op"] > 0


def test_spans_follow_the_trace_flag(lossy_round):
    assert all(v == 0 for v in span_metrics(lossy_round.census).values())
    traced = run.run_round(small_lossy(), seed=0, spans=True)
    assert traced.results == lossy_round.results
    assert span_metrics(traced.census)["span.nic-tx.sim_ns_per_frame"] > 0


def test_check_passes_on_recorded_results_and_fails_on_a_perturbed_one():
    workload = ProvisionWorkload(hosts=16)
    rnd = run.run_round(workload, seed=0)
    expected = json.loads(json.dumps(rnd.results))
    assert run.check_round(workload, 0, rnd, expected, None) == []
    for key in expected:
        perturbed = dict(expected, **{key: expected[key] + 1})
        problems = run.check_round(workload, 0, rnd, perturbed, None)
        assert len(problems) == 1 and problems[0].startswith(key)


def test_differences_walks_nested_results():
    expected = {"mops": {"mg": {"native-1g": 1.5}}, "flows": [{"a": 1}, {"a": 2}]}
    assert run.differences(expected, json.loads(json.dumps(expected))) == []
    actual = {"mops": {"mg": {"native-1g": 1.5000000001}}, "flows": [{"a": 1}, {"a": 3}]}
    assert run.differences(expected, actual) == [
        "flows[1].a: expected 2, got 3",
        "mops.mg.native-1g: expected 1.5, got 1.5000000001",
    ]
    assert run.differences({"n": 1}, {"n": 1.0}) == ["n: expected 1, got 1.0"]


def test_failed_round_is_reported():
    class Broken(LossyWorkload):
        def run(self, fixture, census):
            raise RuntimeError("boom")

    rnd = run.run_round(Broken(), seed=0)
    assert run.check_round(Broken(), 0, rnd, {}, None) == ["RuntimeError: boom"]


def test_expected_results_cover_every_workload():
    table = run.load_expected()
    assert set(table) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        if getattr(workload, "seeded", False):
            assert {"0", "1"} <= set(table[name]["seeds"])
        assert run.expected_for(table, name, 0) is not None
    assert run.expected_for(table, "lossy_contention", 987654) is None
    assert run.expected_for(table, "provision_fattree", 987654) is not None


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lossy_contention", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_measure_reports_host_medians(lossy_round):
    report = run.measure(small_lossy(), seed=0, seconds=0.0, expected=lossy_round.results)
    assert report["correct"] and report["rounds"] == run.MIN_ROUNDS
    assert report["attempted"] == run.MIN_ROUNDS * lossy_round.ops
    assert report["failed"] == 0
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert list(metrics) == list(run.E2E_UNITS)
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
    assert metrics["ops_per_s"] == lossy_round.ops / metrics["wall_s"]
    assert metrics["events_per_op"] == lossy_round.events / lossy_round.ops


def test_wall_time_averages_the_median_on_each_cpu():
    def rnd(wall, cpu):
        return run.Round({}, 1, 1, wall, None, cpu=cpu)

    # CPU 0 reads 1.0 (one outlier), CPU 1 reads 3.0
    rounds = [rnd(1.0, 0), rnd(3.0, 1), rnd(1.0, 0), rnd(3.0, 1), rnd(9.0, 0)]
    assert run.median_per_cpu(rounds) == 2.0
    assert run.median_per_cpu([rnd(1.0, None), rnd(5.0, None), rnd(2.0, None)]) == 2.0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_cpu_rotation_visits_every_cpu_and_restores_affinity():
    before = os.sched_getaffinity(0)
    with run.cpu_rotation() as next_cpu:
        seen = [next_cpu() for _ in range(2 * len(before))]
        assert os.sched_getaffinity(0) == {seen[-1]}
    assert sorted(seen) == sorted(list(before) * 2)
    assert os.sched_getaffinity(0) == before


def test_measure_counts_wrong_results_as_failed(lossy_round):
    wrong = dict(lossy_round.results, frames=lossy_round.results["frames"] + 1)
    report = run.measure(small_lossy(), seed=0, seconds=0.0, expected=wrong)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == lossy_round.ops
    assert report["problems"][0].startswith("round 1: frames")
