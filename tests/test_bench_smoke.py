"""The benchmark in ``bench/`` runs end to end in its tiny traced mode and
passes its own correctness gates.

The benchmark reaches into the library: it traces the modules listed in
``bench/run.py:MODULES``, reads ``SplineModel.coeffs`` and
``SplineModel.factors``, and its own tests rebind ``trigsplines.cli._fmt``
and ``trigsplines.spline.evaluate``.  A library change that breaks one of
these hooks fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trigsplines.cli as cli
import trigsplines.spline as spline
from trigsplines import SplineSpec, build, default_alpha, lookup, sinc_power

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_traced_benchmark_run_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--tiny", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.strip().splitlines()[-1])["runs"]
    assert [run["workload"] for run in runs] == ["eval-scattered", "sample-oracle", "cli-sweep"]
    assert all(run["correct"] for run in runs), runs


def test_cli_formats_every_float_through_fmt(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"values": [3, 1, 3, 2, 4]}))
    monkeypatch.setattr(cli, "_fmt", lambda x: "F")
    assert cli.main(["verify", str(data), "--r", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("alpha=F")
    assert all(row.split(",")[1:] == ["F"] * 4 for row in lines[1:-1])
    assert lines[-1] == "# max_residual = F"


def test_verify_interpolation_reads_spline_evaluate(monkeypatch):
    # The eval-scattered gate checks evaluate only through verify_interpolation.
    spec = SplineSpec(family=sinc_power(3, default_alpha(9)), signs=lookup("A1"), r=3,
                      n_nodes=9, i1=0, i2=1)
    model = build(np.random.default_rng(5).uniform(-1.0, 1.0, 9), spec)
    evaluate = spline.evaluate
    monkeypatch.setattr(spline, "evaluate", lambda model, t: evaluate(model, t) + 1e-6)
    assert spline.verify_interpolation(model).max_residual == pytest.approx(1e-6, abs=1e-12)
