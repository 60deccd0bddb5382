"""Digest of the command-line front end's output over a fixed matrix.

Writes a few data files to a temporary directory, runs every invocation of
``MATRIX`` and ``ERRORS`` in-process through ``trigsplines.cli.main``, and
prints one sha256 per invocation (over its exit code, stdout, stderr and
``--out`` file, with the temporary directory's path removed) and then a
total.  Two checkouts print the same total exactly when every invocation
behaves byte-identically, so a refactor that must not change the output can
be checked with

    PYTHONPATH=src python tools/cli_digest.py

on both sides.  ``ERRORS`` holds single-fault invocations, each expected to
exit 1 with one ``<ErrorName>: detail`` line on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

from trigsplines.cli import main

DATA = {
    "d9.json": json.dumps({"values": [3, 1, 3, 2, 4, 1, 3, 1, 2]}),
    "d9list.json": json.dumps([0.1, -0.4, 0.9, 1.6, -2.5, 3.6, -4.9, 6.4, -8.1]),
    "d9.csv": "# demo data\n3\n1,\n\n3\n2\n4\n1\n3\n1\n2\n",
    "d3.json": json.dumps({"values": [1.0, -0.5, 2.0]}),
    "d21.json": json.dumps({"values": [0.5, 1.25, -0.75, 2.0, 0.0, -1.5, 1.0, 3.25, -2.0, 0.25,
                                       1.75, -0.5, 2.5, 0.75, -1.25, 1.5, 0.0, -0.25, 2.25,
                                       -1.0, 0.5]}),
    "even.json": json.dumps({"values": [1, 2, 3, 4]}),
    "nan.json": '{"values": [1, 2, NaN, 4, 5]}',
    "inf.json": '{"values": [1, 2, Infinity, 4, 5]}',
    "ninf.json": '{"values": [1, -Infinity, 3]}',
    "novalues.json": json.dumps({"data": [1, 2, 3]}),
    "text.csv": "1\n2\nthree\n",
}

# Invocations that succeed on the default data; "--out" targets are written
# in the temporary directory and read back into the digest.
MATRIX = [
    ("nodes", "d9.json"),
    ("nodes", "d9list.json", "--i2", "1"),
    ("nodes", "d9.csv", "--format", "json"),
    ("nodes", "d21.json", "--i2", "1", "--format", "json"),
    ("nodes", "d3.json", "--out", "nodes.csv"),
    ("coeffs", "d9.json"),
    ("coeffs", "d9.csv", "--i2", "1"),
    ("coeffs", "d9list.json", "--format", "json"),
    ("coeffs", "d21.json"),
    ("coeffs", "d3.json", "--i2", "1", "--format", "json", "--out", "coeffs.json"),
    ("factors", "d9.json"),
    ("factors", "d9.json", "--r", "2"),
    ("factors", "d9.json", "--r", "3"),
    ("factors", "d9.json", "--r", "1", "--r", "3", "--r", "5", "--m-max", "200"),
    ("factors", "d9.json", "--r", "3", "--sign", "B1", "--i1", "1"),
    ("factors", "d9.json", "--r", "3", "--sign", "C2", "--i2", "1"),
    ("factors", "d9.json", "--r", "4", "--sign", "D4", "--i1", "1", "--i2", "1"),
    ("factors", "d9.json", "--r", "3", "--alpha", "0.5"),
    ("factors", "d9.json", "--r", "2", "--alpha", repr(math.pi)),
    ("factors", "d9list.json", "--r", "3", "--format", "json"),
    ("factors", "d9.json", "--r", "0", "--fixed-m"),
    ("factors", "d9.json", "--r", "0", "--fixed-m", "500"),
    ("factors", "d9.json", "--r", "2", "--tol", "1e-6"),
    ("factors", "d21.json", "--r", "3", "--sign", "A3"),
    ("factors", "d3.json", "--r", "3", "--alpha", "0.30000000000000004", "--m-max", "300"),
    ("build-eval", "d9.json", "--r", "3", "--at", "0,0.5,1,2"),
    ("build-eval", "d9.json", "--r", "1", "--m-max", "200", "--at", "0.25,3"),
    ("build-eval", "d9.json", "--r", "2", "--i1", "1", "--at", "1.5"),
    ("build-eval", "d9.json", "--r", "3", "--sign", "C3", "--i2", "1", "--at", "1,7,100"),
    ("build-eval", "d9.json", "--r", "4", "--format", "json", "--at", "0.1,0.2"),
    ("build-eval", "d9.json", "--r", "1", "--r", "2", "--r", "3", "--m-max", "100",
     "--at", "0.3"),
    ("build-eval", "d9.json", "--r", "3", "--alpha", "0.5", "--at", "2.5"),
    ("build-eval", "d9.json", "--r", "3", "--at", "1", "--out", "eval.csv"),
    ("build-eval", "d9.csv", "--r", "5", "--sign", "B2", "--at", "0.7"),
    ("build-eval", "d21.json", "--r", "3", "--sign", "D1", "--i1", "1", "--at", "0.2,4"),
    ("build-eval", "d9.json", "--r", "0", "--fixed-m", "300", "--at", "0.4"),
    ("build-eval", "d9list.json", "--r", "2", "--tol", "1e-6", "--format", "json",
     "--at", "5"),
    ("sample", "d9.json", "--r", "3", "--samples", "16"),
    ("sample", "d9.json", "--r", "1", "--m-max", "500", "--samples", "32"),
    ("sample", "d9.json", "--r", "2", "--sign", "B3", "--i1", "1", "--samples", "8"),
    ("sample", "d9.json", "--r", "3", "--format", "json", "--samples", "12"),
    ("sample", "d9.json", "--r", "3", "--r", "4", "--samples", "9"),
    ("sample", "d9.json", "--r", "3", "--samples", "20", "--out", "sample.csv"),
    ("sample", "d9.json", "--r", "3", "--samples", "10", "--format", "json",
     "--out", "sample.json"),
    ("sample", "d9list.json", "--r", "3", "--sign", "C4", "--i2", "1", "--samples", "16"),
    ("sample", "d21.json", "--r", "3", "--alpha", "0.2", "--samples", "64"),
    ("sample", "d9.json", "--r", "0", "--fixed-m", "200", "--samples", "16"),
    ("sample", "d9.json", "--r", "3"),
    ("verify", "d9.json"),
    ("verify", "d9.json", "--r", "2"),
    ("verify", "d9.json", "--r", "3"),
    ("verify", "d9.json", "--r", "4"),
    ("verify", "d9.json", "--r", "5"),
    ("verify", "d9.json", "--r", "3", "--sign", "A2", "--i1", "1"),
    ("verify", "d9.json", "--r", "3", "--sign", "B4", "--i2", "1"),
    ("verify", "d9.json", "--r", "3", "--sign", "C1", "--i1", "1", "--i2", "1"),
    ("verify", "d9.json", "--r", "3", "--sign", "D3"),
    ("verify", "d9.json", "--r", "3", "--format", "json"),
    ("verify", "d9.json", "--r", "2", "--r", "3", "--format", "json"),
    ("verify", "d9.json", "--r", "3", "--out", "verify.csv"),
    ("verify", "d9.csv", "--r", "3"),
    ("verify", "d9list.json", "--r", "3", "--i2", "1"),
    ("verify", "d9.json", "--r", "3", "--tol", "1e-6"),
    ("verify", "d9.json", "--r", "1", "--m-max", "100"),
    ("verify", "d9.json", "--r", "0", "--fixed-m"),
    ("verify", "d9.json", "--r", "2", "--fixed-m", "50"),
    ("verify", "d9.json", "--r", "3", "--alpha", "1.3"),
    ("verify", "d9.json", "--r", "2", "--alpha", repr(math.pi)),
    ("verify", "d21.json", "--r", "3"),
    ("verify", "d3.json", "--r", "4", "--sign", "B2"),
    ("enumerate", "d3.json", "--r", "3", "--alpha", "0.30000000000000004", "--m-max", "300"),
    ("enumerate", "d9.json", "--r", "3"),
    ("enumerate", "d9.json", "--r", "1", "--m-max", "50"),
    ("enumerate", "d9.json", "--r", "2", "--r", "3", "--m-max", "100", "--format", "json"),
    ("enumerate", "d9.csv", "--r", "4", "--alpha", "0.5"),
    ("enumerate", "d9.json", "--r", "0", "--fixed-m", "40"),
    ("enumerate", "d9.json", "--r", "3", "--tol", "1e-6", "--out", "enumerate.csv"),
    ("enumerate", "d21.json", "--r", "3", "--m-max", "20"),
    ("enumerate", "d9list.json", "--r", "3", "--format", "json"),
    ("compare-analog", "d9.json", "--r", "1", "--samples", "256"),
    ("compare-analog", "d9.json", "--r", "1", "--m-max", "1000", "--samples", "64"),
    ("compare-analog", "d9.json", "--r", "2", "--i1", "1", "--i2", "1", "--samples", "128"),
    ("compare-analog", "d9.json", "--r", "2", "--i2", "1", "--samples", "128"),
    ("compare-analog", "d9.json", "--r", "3"),
    ("compare-analog", "d9.json", "--r", "3", "--i1", "1", "--i2", "1", "--samples", "128"),
    ("compare-analog", "d9.json", "--r", "1", "--r", "3", "--m-max", "300", "--samples", "64",
     "--format", "json"),
    ("compare-analog", "d9.json", "--r", "3", "--samples", "64", "--out", "analog.csv"),
    ("compare-analog", "d9.csv", "--r", "3", "--sign", "B1", "--samples", "64"),
    ("compare-analog", "d21.json", "--r", "3", "--samples", "128"),
]

# Single-fault invocations: each should exit 1 with one stderr line.
ERRORS = [
    ("sample", "missing.json"),
    ("sample", "even.json"),
    ("verify", "nan.json"),
    ("coeffs", "inf.json"),
    ("sample", "ninf.json"),
    ("verify", "novalues.json"),
    ("nodes", "text.csv"),
    ("verify", "d9.json", "--sign", "Z1"),
    ("verify", "d9.json", "--r", "-2"),
    ("enumerate", "d9.json", "--r", "-1"),
    ("sample", "d9.json", "--r", "0"),
    ("compare-analog", "d9.json", "--r", "4"),
    ("verify", "d9.json", "--alpha", "inf"),
    ("factors", "d9.json", "--alpha", "-1"),
    ("factors", "d9.json", "--alpha", "0"),
    ("verify", "d9.json", "--m-max", "3"),
    ("verify", "d9.json", "--tol", "0"),
    ("verify", "d9.json", "--fixed-m", "0"),
    ("build-eval", "d9.json", "--at", ""),
    ("build-eval", "d9.json", "--r", "3", "--at", "0.5,nan"),
    ("build-eval", "d9.json", "--at", "x"),
    ("sample", "d9.json", "--r", "3", "--samples", "1"),
    ("verify", "d3.json", "--r", "3", "--sign", "A2", "--i2", "1",
     "--alpha", "0.30000000000000004", "--m-max", "300"),
    ("factors", "d3.json", "--r", "3", "--sign", "B1", "--i1", "1",
     "--alpha", "0.30000000000000004", "--m-max", "300"),
    ("verify", "d9.json", "--r", "3", "--alpha", repr(2.0 * math.pi)),
    ("factors", "d9.json", "--r", "2", "--alpha", repr(4.0 * math.pi)),
    ("verify", "d9.json", "--r", "3", "--alpha", repr(4.0 * math.pi / 3.0)),
]


@dataclass(frozen=True)
class Outcome:
    """What one invocation did, with the temporary directory's path removed."""

    code: int
    stdout: str
    stderr: str
    out_file: str | None

    def digest(self) -> str:
        parts = [str(self.code), self.stdout, self.stderr, self.out_file or ""]
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def run_one(argv, directory: Path) -> Outcome:
    """Run ``trigsplines`` with ``argv``, whose data and ``--out`` file names
    are taken relative to ``directory``."""
    out_name = argv[argv.index("--out") + 1] if "--out" in argv else None
    resolved = [str(directory / a) if a.endswith((".json", ".csv")) else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(resolved)
    out_file = None
    if out_name is not None and (directory / out_name).exists():
        out_file = (directory / out_name).read_text()
        (directory / out_name).unlink()
    prefix = str(directory) + "/"
    return Outcome(code, stdout.getvalue().replace(prefix, ""),
                   stderr.getvalue().replace(prefix, ""), out_file)


def run_matrix() -> list[tuple[tuple[str, ...], Outcome]]:
    """Every invocation of ``MATRIX`` and then ``ERRORS`` with its outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp).resolve()
        for name, text in DATA.items():
            (directory / name).write_text(text)
        return [(argv, run_one(list(argv), directory)) for argv in MATRIX + ERRORS]


def report() -> None:
    total = hashlib.sha256()
    for argv, outcome in run_matrix():
        digest = outcome.digest()
        total.update(digest.encode())
        print(f"{digest}  {' '.join(argv)}")
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    report()
