"""Record the bytes of the benchmark's CLI mixes at seeds 7 and 3.

Usage: python tests/pin_golden.py

Builds `workloads.cli_calls` at each seed in a temporary directory, runs
each call in process through `cuntzkit.cli.main`, and writes its exit
code and the sha256 of its stdout to tests/golden.json, which
tests/test_cli.py checks. This script is the file's only writer. Run it
only at a commit whose outputs are meant to be the reference: a change
that claims no output change does not run it, and one that changes an
output on purpose names each moved call.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (puts this checkout's src/ first on the path)
from cuntzkit import cli  # noqa: E402

SEEDS = (7, 3)


def pins(seed: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as d:
        for call in workloads.cli_calls(seed, pathlib.Path(d)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(call.argv))
            out[call.name] = {"exit": code, "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    return out


def main() -> None:
    golden = {str(seed): pins(seed) for seed in SEEDS}
    with open(ROOT / "tests" / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
