"""Self-tests of the benchmark: the correctness gate is live, traced call
counts repeat, and the command keeps its output contract. They assert no
timings.

Run with: python3 -m pytest bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl
from tracer import Tracer
from worker import tail

# Instances that take seconds; the tests leave them to the benchmark itself.
SLOW = {"chains.exhaustive_chain_search.circle", "checks.check_weak_chainability.circle",
        "chains.verify_witness.n401", "chains.verify_witness.n801"}


def quick_instances(seed=3):
    return [i for i in wl.fixed_instances() if i.name not in SLOW] + wl.seeded_instances(seed, count=5)


def test_lemmas_round_is_clean_and_pins_the_default_report():
    run = wl.Pass(pins=wl.load_pins(wl.DEFAULT_SEED))
    wl.lemmas_round(run, wl.DEFAULT_SEED)
    assert len(run.ops) == len(wl.suite.CHECK_NAMES)
    assert run.failed == 0, run.failures()
    assert set(run.digests) <= set(run.pins)


def test_mutation_canary_registers_failures():
    run = wl.Pass()
    wl.lemmas_round(run, wl.DEFAULT_SEED, cases=30, mutate=("add-off-by-one",))
    assert run.failed > 0
    assert any(name == "suite.pairwise-ordered-sum-identity" for name, _, why in run.failures())


def test_pinned_digest_mismatch_registers_failure():
    run = wl.Pass(pins={"lemmas.report.seed42.cases10": "0" * 64})
    wl.lemmas_round(run, 42, cases=10)
    assert run.failed == 1


def test_search_instances_meet_their_known_verdicts():
    run = wl.Pass()
    insts = quick_instances()
    wl.search_round(run, insts)
    assert len(run.ops) == sum(i.repeat for i in insts)
    assert run.failed == 0, run.failures()


def test_wrong_expected_verdict_registers_failure():
    inst = next(i for i in wl.fixed_instances() if i.name == "checks.check_refinable_sums.z")
    run = wl.Pass()
    wl.search_round(run, [dataclasses.replace(inst, repeat=1),
                          dataclasses.replace(inst, expect="witness", repeat=1)])
    assert [op[2] is None for op in run.ops] == [True, False]
    assert "expected witness" in run.ops[1][2]


def test_refinement_expectation_follows_full_circle_components():
    kinds = {i.expect for i in wl.seeded_instances(0, count=40) if i.name == "chains.refine_to_almost_chain"}
    assert kinds == {"witness", "impossible"}


def test_traced_call_counts_repeat_and_wrappers_come_off():
    original = wl.geo.union
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            assert wl.geo.union is not original
            run = wl.Pass(tracer=tracer)
            wl.lemmas_round(run, 5, cases=10)
            wl.search_round(run, quick_instances())
        assert run.failed == 0, run.failures()
        counts.append(tracer.calls())
    assert wl.geo.union is original
    assert counts[0] == counts[1]
    assert counts[0]["geometry.union"] > 0 and counts[0]["chains.lebesgue_number"] > 0
    assert "geometry.frac" not in counts[0]
    assert tracer.verdicts and tracer.spans


@pytest.mark.parametrize("n, percentile, beyond", [(20, 50.0, 10), (100, 90.0, 10), (220, 95.0, 11)])
def test_tail_keeps_ten_samples_beyond(n, percentile, beyond):
    value, p, k = tail([float(i) for i in range(n)])
    assert (p, k) == (percentile, beyond)
    assert value == n - beyond - 1


def _run_bench(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def _declared(kind):
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_end_to_end_run_reports_every_declared_metric():
    proc = _run_bench(wl.ROOT, "--workload", "lemmas", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 22
    assert list(out["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_cli_run_reports_every_declared_metric():
    proc = _run_bench(wl.ROOT, "--workload", "cli", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"], proc.stdout
    assert list(out["metrics"]) == _declared("per_layer")
    assert out["metrics"]["lsc.calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "lemmas", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
