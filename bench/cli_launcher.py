"""Run one `cuntzkit` CLI call with the layer wrappers installed.

Usage: python3 bench/cli_launcher.py STATS_FILE GROUP CMD [options]

Times `import cuntzkit.cli`, installs the same wrappers the in-process
workloads use, calls `cuntzkit.cli.main(argv)`, writes the per-function
stats and the import time to STATS_FILE as JSON, and exits with the
CLI's exit code. Standard output and error are the CLI's own.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    stats_file, cli_argv = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cuntzkit.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = cuntzkit.cli.main(cli_argv)
    sys.stdout.flush()
    dump = tracer.dump()
    dump["import_s"] = import_s
    with open(stats_file, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
