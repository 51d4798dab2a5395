"""Record the output digests that the benchmark pins at the default seed.

Usage: python3 bench/pin_digests.py

Runs one `lemmas` round and one `cli` round at the default seed and
writes the sha256 of each output (the suite report as `verify lemmas`
prints it, and each CLI call's stdout) to bench/digests.json. Run it only
at a commit whose outputs are meant to be the reference; the benchmark
then fails any operation whose bytes differ at that seed.
"""

import json

import workloads as wl


def main() -> None:
    run = wl.Pass()
    wl.lemmas_round(run, wl.DEFAULT_SEED)
    with wl.cli_workdir() as d:
        wl.cli_round(run, wl.cli_calls(wl.DEFAULT_SEED, wl.Path(d)), {})
    if run.failed:
        raise SystemExit(f"refusing to pin failing outputs: {run.failures()}")
    with open(wl.BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({str(wl.DEFAULT_SEED): run.digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
