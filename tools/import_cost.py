"""Cost of importing the package's command-line module.

Starts ``--runs`` fresh interpreters (default 30).  Each imports numpy first
and then times ``import trigsplines.cli`` alone, so the figure is the
package's own share of a cold start.  Prints the minimum and the median in
milliseconds, and ``sys.flags.dont_write_bytecode`` of the timed interpreters:
with it set (``PYTHONDONTWRITEBYTECODE=1``) every import compiles the source
anew.  Run from the repository root with

    PYTHONPATH=src python tools/import_cost.py --runs 30
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

CHILD = (
    "import sys, time, numpy\n"
    "start = time.perf_counter()\n"
    "import trigsplines.cli\n"
    "print(time.perf_counter() - start, int(sys.flags.dont_write_bytecode))\n"
)


def import_times(runs: int) -> tuple[list[float], int]:
    """Seconds taken by the import in each of ``runs`` fresh interpreters,
    and their ``dont_write_bytecode`` flag."""
    spec = importlib.util.find_spec("trigsplines")
    if spec is None or spec.origin is None:
        raise SystemExit("trigsplines is not importable; run with PYTHONPATH=src")
    path = [str(Path(spec.origin).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    times, flag = [], 0
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, flag = proc.stdout.split()
        times.append(float(seconds))
    return times, int(flag)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=30, help="fresh interpreters to time")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    times, flag = import_times(args.runs)
    print(f"import trigsplines.cli after numpy, {args.runs} runs: "
          f"min {1e3 * min(times):.2f} ms, median {1e3 * median(times):.2f} ms")
    print(f"sys.flags.dont_write_bytecode = {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
