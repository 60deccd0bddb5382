"""The benchmark's own tests, on the tiny operation lists.

Run from the repository root:

    python3 -m pytest bench -q -p no:cacheprovider
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARATION = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = {w["name"] for w in DECLARATION["workloads"]}


@pytest.fixture
def scratch():
    path = run.ROOT / ".bench_build" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()  # only if the runs left it empty


def tiny_run(capsys, workload, trace=0, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_declaration_matches_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                "per_layer"}
    assert NAMES == set(workloads.WORKLOADS)
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = DECLARATION["end_to_end"] + DECLARATION["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in DECLARATION["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARATION["end_to_end"])
    setup = next(m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARATION["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARATION["workloads"])


@pytest.mark.parametrize("workload", sorted(NAMES))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, workload, trace, section):
    code, result = tiny_run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _inputs(workload, seed, scratch):
    api = run.fresh_import()
    return workloads.WORKLOADS[workload](tiny=True).make_inputs(
        api, np.random.default_rng(seed), scratch
    )


def _fingerprint(workload, inputs):
    """(seeded values, fixed operation list) of a workload's inputs."""
    if workload == "cli-sweep":
        files = [inputs.script_file, *inputs.enumerate_files.values()]
        values = [p.read_text() for p in files] + [inputs.at_index.tolist()]
        # The angles after --at are seeded; everything else is fixed.
        ops = [(c, [a if prev != "--at" else "<angles>" for prev, a in zip(["", *argv], argv)])
               for c, argv in inputs.script]
        return values, (ops, inputs.enumerate_runs)
    if workload == "eval-scattered":
        values = [(i.data.tolist(), [b.tolist() for b in i.batches]) for i in inputs]
        return values, [(i.label, repr(i.spec), [b.size for b in i.batches]) for i in inputs]
    values = [(j.data.tolist(), j.probe.tolist()) for j in inputs]
    return values, [(j.label, repr(j.spec), j.count) for j in inputs]


@pytest.mark.parametrize("workload", sorted(NAMES))
def test_seed_changes_values_not_operations(scratch, workload):
    same = _fingerprint(workload, _inputs(workload, 7, scratch))
    assert same == _fingerprint(workload, _inputs(workload, 7, scratch))
    other = _fingerprint(workload, _inputs(workload, 8, scratch))
    assert other[0] != same[0]
    assert other[1] == same[1]


def test_gate_functions_fire_on_corrupted_results():
    assert checks.nodal(1e-15, "x") == []
    assert checks.nodal(1e-6, "x") and checks.nodal(float("nan"), "x")
    good = np.linspace(0.0, 1.0, 5)
    assert checks.agree(good, good, "x") == []
    assert checks.agree(good + 1e-6, good, "x")
    assert checks.agree(good[:4], good, "x")
    assert checks.identical("a", "a", "x") == [] and checks.identical("a", "b", "x")
    assert checks.identical(good, good.copy(), "x") == []
    assert checks.identical(good, good + 1e-12, "x")
    with pytest.raises(ValueError):
        checks.parse_csv("1,2\n")
    with pytest.raises(ValueError):
        checks.parse_json('{"spec": {}, "columns": ["t"], "rows": [[1, 2]]}')


def test_enumerate_gate_fires_on_flag_and_residual():
    ref = [["A1", 0, 0, False], ["A1", 0, 1, False]]
    rows = [["A1", "0", "0", "0.5", "0.5", "false", "1e-16"],
            ["A1", "0", "1", "0.5", "0.5", "false", "2e-16"]]
    assert checks.enumerate_table({"rows": rows}, ref, "x") == []
    flipped = [rows[0], ["A1", "0", "1", "0.5", "0.5", "true", ""]]
    assert checks.enumerate_table({"rows": flipped}, ref, "x")
    off_node = [rows[0], ["A1", "0", "1", "0.5", "0.5", "false", "1e-3"]]
    assert checks.enumerate_table({"rows": off_node}, ref, "x")
    assert checks.enumerate_table({"rows": rows[:1]}, ref, "x")


def _corrupt(monkeypatch, damage):
    """Make the runner's library import hand back a damaged library."""
    original = run.fresh_import

    def fresh_import():
        api = original()
        damage(sys.modules)
        return api

    monkeypatch.setattr(run, "fresh_import", fresh_import)


def _replace(mods, name, fn, where):
    """Rebind ``name`` in the package and in each module that imported it."""
    for module in ["", *where]:
        setattr(mods["trigsplines" + (f".{module}" if module else "")], name, fn)


def _shift_evaluate(mods):
    evaluate = mods["trigsplines.spline"].evaluate
    _replace(mods, "evaluate", lambda model, t: evaluate(model, t) + 1e-6, ["spline"])


def _shift_sample(mods):
    sample = mods["trigsplines.spline"].sample

    def shifted(model, count):
        pts = sample(model, count)
        pts[:, 1] += 1e-6
        return pts

    _replace(mods, "sample", shifted, ["spline", "analog", "cli"])


def _flag_everything_degenerate(mods):
    mods["trigsplines.cli"].DEGENERACY_RTOL = 1.0


def _six_digit_output(mods):
    mods["trigsplines.cli"]._fmt = lambda x: format(float(x), ".6g")


@pytest.mark.parametrize("workload, damage", [
    ("eval-scattered", _shift_evaluate),
    ("sample-oracle", _shift_sample),
    ("cli-sweep", _flag_everything_degenerate),
    ("cli-sweep", _six_digit_output),
])
def test_run_fails_on_damaged_library(capsys, monkeypatch, workload, damage):
    _corrupt(monkeypatch, damage)
    code, result = tiny_run(capsys, workload)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_exits_nonzero_without_the_library(scratch):
    shutil.copytree(BENCH_DIR, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-scattered", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
