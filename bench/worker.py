"""One workload process of the benchmark; `bench/run.py` starts it.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports cuntzkit, builds the workload's inputs from the
seed, and prints READY; the parent times set-up from its own spawn call
to that line. With --setup-only it stops there. Otherwise it runs the
timed phase and prints one JSON line with the operations' outcome and
metrics.

With --trace 0 the timed phase is the end-to-end measurement, tracing
off. With --trace 1 it makes three passes: pass A is that same untraced
timed phase and gives the instance times; passes B and C run the first
TRACE_ROUNDS rounds with the layer wrappers installed. Per-layer figures
come from B, and B and C must make exactly the same calls.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracer import Tracer

WORKLOADS = ("lemmas", "search", "cli")
# The timed phase runs max(1, round(seconds / NOMINAL_ROUND_S)) rounds,
# so the amount of work depends on --seconds only, never on the speed of
# the code under test. At the seed commit a round takes about 2 s, 11.5 s
# and 1.7 s at reference speed; search runs two rounds at 20 s so that
# its figure is a median of two.
NOMINAL_ROUND_S = {"lemmas": 2.0, "search": 10.0, "cli": 2.3}
# Rounds of the two traced passes of a traced run.
TRACE_ROUNDS = {"lemmas": 3, "search": 1, "cli": 2}
# The tail is the highest of these percentiles, in per mille, with at
# least ten samples beyond it.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
# Process starts timed for cli.interpreter_ms and cli.import_ms.
STARTUP_SAMPLES = 5

GEOMETRY_US = ("union", "intersect", "subset", "complement", "closure", "is_empty", "normalize")
LSC_US = ("add", "leq", "way_below", "almost_complement", "join", "meet", "from_levels",
          "ordered_sum_pairwise", "ofs_normalize", "element_from_json")
CHAINS_US = ("epsilon_chain", "refine_to_almost_chain", "lebesgue_number")
CHAINS_INSTANCES = ("exhaustive_chain_search.circle", "exhaustive_chain_search.arc",
                    "verify_witness.n201", "verify_witness.n401", "verify_witness.n801")
CHECKS_INSTANCES = ("check_weak_chainability.circle", "check_weak_chainability.arcs",
                    "check_refinable_sums.z", "check_refinable_sums.lsc",
                    "check_almost_ordered_sums.zprime", "check_axioms.table")
CLI_VERBS = ("lsc-add", "lsc-leq", "lsc-wb", "lsc-complement", "lsc-ordered-sum",
             "chains-epsilon-chain", "chains-verify", "chains-lebesgue",
             "check-refinable-sums", "check-weak-chain", "verify-lemmas", "malformed")


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest ladder
    percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in TAIL_LADDER:
        rank = max(1, -(-per_mille * n // 1000))  # ceil(per_mille * n / 1000)
        if n - rank >= 10:
            return ordered[rank - 1], per_mille / 10, n - rank
    return ordered[-1], 100.0, 0


# ----------------------------------------------------------------- set-up


class Workload:
    """A workload's inputs, built once per process, and its rounds."""

    def __init__(self, name: str, seed: int, rounds: int):
        self.name = name
        self.seed = seed
        self.pins = wl.load_pins(seed)
        self._tmp = None
        if name == "lemmas":
            self.seeds = wl.sub_seeds(seed, max(rounds, TRACE_ROUNDS[name]))
        elif name == "search":
            self.instances = wl.fixed_instances() + wl.seeded_instances(seed)
        else:
            self._tmp = wl.cli_workdir()
            self.calls = wl.cli_calls(seed, wl.Path(self._tmp.name))
            self.seen: dict = {}
            wl.run_cli(self.calls[0])  # untimed warm-up, so __pycache__ exists

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()

    def run_round(self, run: wl.Pass, r: int, stats_dir=None, on_stats=None) -> None:
        if self.name == "lemmas":
            wl.lemmas_round(run, self.seeds[r])
        elif self.name == "search":
            wl.search_round(run, self.instances)
        else:
            wl.cli_round(run, self.calls, self.seen, stats_dir, on_stats)


def run_pass(work: Workload, rounds: int, tracer=None, stats_dir=None, on_stats=None):
    """Run `rounds` rounds; return the pass, each operation's latency at
    reference speed, and each round's seconds at reference speed (the sum
    of its operations' latencies, checks excluded)."""
    run = wl.Pass(tracer=tracer, pins=work.pins, probe_during_ops=work.name != "cli")
    bounds = []
    for r in range(rounds):
        start = len(run.ops)
        work.run_round(run, r, stats_dir, on_stats)
        bounds.append((start, len(run.ops)))
    latencies = run.scaled()
    return run, latencies, [sum(latencies[a:b]) for a, b in bounds]


# ------------------------------------------------------------------ trace 0


def end_to_end(work: Workload, rounds: int) -> dict:
    run, latencies, per_round = run_pass(work, rounds)
    who = resource.RUSAGE_CHILDREN if work.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": statistics.median(per_round),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    tail_s, tail_p, beyond = tail(latencies)
    raw = [op[1] for op in run.ops]
    info = {"rounds": rounds, "round_s": per_round, "ops": len(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3, "op_tail_ms": tail_s * 1e3,
            "tail_percentile": tail_p, "tail_beyond": beyond,
            "unscaled": {"timed_phase_s": sum(raw), "op_p50_ms": statistics.median(raw) * 1e3},
            "op_ms": [[op[0], op[1] * 1e3, s * 1e3] for op, s in zip(run.ops, latencies)],
            "probe_ms": [p * 1e3 for _, p in run.probes]}
    return {"passes": [run], "metrics": metrics, "info": info, "errors": []}


# ------------------------------------------------------------------ trace 1


def _op_medians(run: wl.Pass, latencies: list[float]) -> dict:
    by_name: dict = {}
    for (name, _, _), seconds in zip(run.ops, latencies):
        by_name.setdefault(name, []).append(seconds)
    return {k: statistics.median(v) for k, v in by_name.items()}


def _startup_ms(argv: list[str], reported: bool) -> float:
    """Median ms of STARTUP_SAMPLES runs: spawn-to-exit, or the time the child prints."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=wl.child_env(), cwd=wl.ROOT,
                              timeout=60, check=True)
        wall = time.perf_counter() - t0
        samples.append(float(proc.stdout) if reported else wall)
    return statistics.median(samples) * 1e3


def traced(work: Workload, rounds: int) -> dict:
    run_a, latencies_a, rounds_a = run_pass(work, rounds)
    traced_rounds = TRACE_ROUNDS[work.name]
    tracers, passes, traced_s = [], [run_a], []
    for _ in range(2):
        tracer = Tracer()
        if work.name == "cli":
            with wl.cli_workdir() as stats_dir:
                run, latencies, _ = run_pass(work, traced_rounds, tracer, wl.Path(stats_dir),
                                             lambda op, dump, tracer=tracer: tracer.merge(dump))
        else:
            with tracer:
                run, latencies, _ = run_pass(work, traced_rounds, tracer)
        tracers.append(tracer)
        traced_s.append(sum(latencies))
        passes.append(run)
    errors = []
    if tracers[0].calls() != tracers[1].calls():
        diff = sorted(k for k in set(tracers[0].calls()) | set(tracers[1].calls())
                      if tracers[0].calls().get(k) != tracers[1].calls().get(k))
        errors.append(f"call counts differ between two traced passes: {diff[:5]}")

    stats = tracers[0].stats
    m: dict = {}

    def layer(prefix):
        recs = [v for k, v in stats.items() if k.startswith(prefix + ".")]
        return sum(r[0] for r in recs), sum((r[1] - r[2] for r in recs), 0.0)

    for name in ("geometry", "lsc", "gen", "duality", "models", "chains", "checks"):
        calls, m[f"{name}.self_s"] = layer(name)
        if name in ("geometry", "lsc", "chains", "checks"):
            m[f"{name}.calls"] = calls

    def mean_us(qual):
        calls, incl, _ = stats.get(qual, (0, 0.0, 0.0))
        return incl / calls * 1e6 if calls else 0.0

    for layer_name, fns in (("geometry", GEOMETRY_US), ("lsc", LSC_US), ("chains", CHAINS_US)):
        for f in fns:
            m[f"{layer_name}.{f}.us"] = mean_us(f"{layer_name}.{f}")

    medians = _op_medians(run_a, latencies_a)
    for i in CHAINS_INSTANCES:
        m[f"chains.{i}_s"] = medians.get(f"chains.{i}", 0.0)
    for i in CHECKS_INSTANCES:
        m[f"checks.{i}_s"] = medians.get(f"checks.{i}", 0.0)
    for n in wl.suite.CHECK_NAMES:
        m[f"suite.{n}.s"] = medians.get(f"suite.{n}", 0.0)
    for v in CLI_VERBS:
        m[f"cli.{v}.ms"] = medians.get(f"cli.{v}", 0.0) * 1e3
    if work.name == "cli":
        m["cli_p50_ms"] = statistics.median(latencies_a) * 1e3
        tail_s, tail_p, beyond = tail(latencies_a)
        m["cli_tail_ms"] = tail_s * 1e3
    else:
        m["cli_p50_ms"] = m["cli_tail_ms"] = tail_p = beyond = 0.0

    verdicts = tracers[0].verdicts
    total = sum(verdicts.values())
    decided = verdicts.get("witness", 0) + verdicts.get("counterexample", 0)
    m["checks.decided_share"] = decided / total if total else 0.0

    m["cli.interpreter_ms"] = _startup_ms([sys.executable, "-c", "pass"], reported=False)
    m["cli.import_ms"] = _startup_ms([sys.executable, "-c", (
        "import time; t = time.perf_counter(); import cuntzkit.cli; "
        "print(time.perf_counter() - t)")], reported=True)

    m["trace.overhead_share"] = traced_s[0] / sum(rounds_a[:traced_rounds]) - 1
    attempted = sum(len(p.ops) for p in passes)
    m["failed_share"] = sum(p.failed for p in passes) / attempted

    wl.OUT.mkdir(exist_ok=True)
    with open(wl.OUT / f"spans-{work.name}-seed{work.seed}.json", "w", encoding="utf-8") as fh:
        json.dump(tracers[0].spans, fh)
    info = {"rounds": rounds, "traced_rounds": traced_rounds, "calls": tracers[0].calls(),
            "verdicts": verdicts, "cli_tail_percentile": tail_p, "cli_tail_beyond": beyond}
    return {"passes": passes, "metrics": m, "info": info, "errors": errors}


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    work = Workload(args.workload, args.seed, rounds)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = traced(work, rounds) if args.trace else end_to_end(work, rounds)
    finally:
        work.close()
    passes = result.pop("passes")
    result["attempted"] = sum(len(p.ops) for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    result["failures"] = [f for p in passes for f in p.failures()][:10]
    result["digests"] = passes[0].digests
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
