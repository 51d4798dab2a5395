"""Run the benchmark of two revisions in interleaved pairs, and write what
it measured to BENCH_<label>.json at the root of this repository.

Usage:
    python3 tools/pairs.py BASE_REV HEAD_REV [--pairs N] [--seed K] [--label L]

Each revision is exported with `git archive` into a fresh directory; the
two directories have paths of equal length, since one character of path
length once moved `cli` `peak_rss_mb` past its bound. Every workload that
BENCHMARK.json lists is run N times on each side, by that copy's own
`bench/run.py` at the file's `run_seconds`, in pairs whose first side
alternates. Both sides run with PYTHONDONTWRITEBYTECODE=1, without
PYTHONPATH, and otherwise in this process's environment. The last line of
each run is read as its JSON result.

For each workload and metric the file gives both sides' values, medians
and quartiles (`statistics.quantiles(v, n=4)`), and the number of pairs
in which HEAD is better; for each run, its `correct` and `failed`. A pair
in which either run printed no result is left out of the metrics. The
runner only reports numbers: nothing here passes or fails a change.
Put the copies elsewhere than the system's temporary directory with
TMPDIR.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="run the benchmark of two revisions in interleaved pairs")
    ap.add_argument("base", metavar="BASE_REV")
    ap.add_argument("head", metavar="HEAD_REV")
    ap.add_argument("--pairs", type=int, default=10, metavar="N", help="pairs per workload, at least 2 (default 10)")
    ap.add_argument("--seed", type=int, default=42, metavar="K", help="benchmark seed (default 42)")
    ap.add_argument("--label", metavar="L", help="names the output file BENCH_L.json (default: both short revs)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two values")
    if args.label is not None and not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", args.label):
        ap.error("--label takes letters, digits, '.', '_' and '-', and starts with a letter or digit")
    return args


def side_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(base: list[float], head: list[float], better: str) -> dict:
    """Both sides' statistics for one metric, with the number of pairs in
    which HEAD's value is strictly better."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head, strict=True))
    return {"better": better, "pairs": len(base), "head_wins": wins,
            "base": side_stats(base), "head": side_stats(head)}


def first_side(pair: int) -> str:
    """The side that runs first in pair `pair`: base in even pairs."""
    return SIDES[pair % 2]


def git(*argv: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_bench(copy: Path, workload: str, seed: int, seconds: int, env: dict) -> dict | None:
    """The last JSON line of one `bench/run.py` run in `copy`, or None."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in zip(SIDES, (args.base, args.head))}
    except subprocess.CalledProcessError as exc:
        print(f"error: not a revision of this repository: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    label = args.label or f"{revs['base'][:7]}-{revs['head'][:7]}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        copies = {side: work / side for side in SIDES}
        for side in SIDES:
            export(revs[side], copies[side])
        declared = {side: json.loads((copies[side] / "BENCHMARK.json").read_text()) for side in SIDES}
        workloads = [w["name"] for w in declared["head"]["workloads"]]
        if workloads != [w["name"] for w in declared["base"]["workloads"]]:
            print("error: the two revisions declare different workloads", file=sys.stderr)
            return 2
        better = {m["name"]: m["better"] for m in declared["head"]["end_to_end"]}
        seconds = declared["head"]["run_seconds"]
        report = {"base": {"name": args.base, "rev": revs["base"]}, "head": {"name": args.head, "rev": revs["head"]},
                  "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
                  "python": platform.python_version(), "nproc": os.cpu_count(), "workloads": {}}
        for workload in workloads:
            runs, values = [], {side: {} for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if first_side(pair) == "base" else SIDES[::-1]
                result = {side: run_bench(copies[side], workload, args.seed, seconds, env) for side in order}
                runs.append({"first": order[0], **{side: {"correct": r and r["correct"], "failed": r and r["failed"]}
                                                   for side, r in result.items()}})
                print(f"# {workload} pair {pair + 1}/{args.pairs}: "
                      + " ".join(f"{side} {r and r['metrics'].get('wall_s', {}).get('value')}" for side, r in result.items()),
                      file=sys.stderr, flush=True)
                if all(result.values()):
                    for side, r in result.items():
                        for name, m in r["metrics"].items():
                            values[side].setdefault(name, []).append(m["value"])
            metrics = {name: summarize(values["base"][name], values["head"][name], b)
                       for name, b in better.items() if all(len(values[side].get(name, ())) >= 2 for side in SIDES)}
            report["workloads"][workload] = {"runs": runs, "metrics": metrics}
    finally:
        shutil.rmtree(work)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.6g} -> {m['head']['median']:.6g} "
                  f"(head better in {m['head_wins']} of {m['pairs']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
