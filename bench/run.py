"""The cuntzkit benchmark: one command, three workloads, every metric by
name with its unit, every output checked.

Usage:
    python3 bench/run.py --workload lemmas|search|cli [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it uses the package under
`src/` of that checkout and nothing installed. With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer ones; the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": ..., "unit": ...}}}

Every time is reported in seconds at reference speed: bench/speed.py
explains the probe that rescales it. The benchmark and every process it
starts run on one CPU, so that probe and work see the same one.

Set-up is measured SETUP_SAMPLES times per run, each time from spawning
a fresh workload process to its READY line, and reported as the median.
A record of the run (environment, load average before and after, set-up
samples, tail percentile, failures) goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170


def git_rev() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine(), "git_rev": git_rev()}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CUNTZKIT_MAX_DEPTH", None)  # checks.default_bounds() reads it
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool, deadline: float):
    """Spawn a workload process; return it, its set-up seconds, and its stdout."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload process did not start: {line!r}")
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("workload process ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return setup_s, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cuntzkit benchmark")
    ap.add_argument("--workload", choices=("lemmas", "search", "cli"), required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cuntzkit" / "__init__.py").is_file():
        print(f"error: no cuntzkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_before = os.getloadavg()
    raw_setups, setups = [], []
    if not args.trace:
        after = speed.probe()
        for _ in range(SETUP_SAMPLES):
            before = after
            raw_setups.append(start_worker(args, True, deadline)[0])
            after = speed.probe()
            setups.append(raw_setups[-1] * speed.factor([before, after]))
    _, out = start_worker(args, False, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("workload process printed no result")
    result = json.loads(lines[-1])
    load_after = os.getloadavg()

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = result["failed"] == 0 and not result["errors"]

    record = {"args": vars(args), "environment": environment(), "loadavg_before": load_before,
              "loadavg_after": load_after, "setup_samples_s": setups,
              "unscaled_setup_samples_s": raw_setups, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "errors": result["errors"], "failures": result["failures"], "info": result["info"],
              "digests": result["digests"], "metrics": metrics}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={env['python']} nproc={env['nproc']} rev={env['git_rev']} "
          f"load={load_before[0]:.2f}->{load_after[0]:.2f}")
    info = result["info"]
    if args.trace:
        if args.workload == "cli":
            print(f"# cli_tail_ms is p{info['cli_tail_percentile']:g} "
                  f"with {info['cli_tail_beyond']:g} samples beyond it")
    else:
        print(f"# rounds={info['rounds']} ops={info['ops']} op_p50_ms={info['op_p50_ms']:.3f} "
              f"op_tail_ms={info['op_tail_ms']:.3f} (p{info['tail_percentile']:g}, "
              f"{info['tail_beyond']} samples beyond it)")
    for err in result["errors"]:
        print(f"# self-check failed: {err}")
    for op_name, _, why in result["failures"]:
        print(f"# failed {op_name}: {why.strip().splitlines()[-1]}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
