"""Benchmark of the trigsplines library: speed and accuracy, end to end and
per module.

Run from the repository root:

    python3 bench/run.py --workload eval-scattered --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The library is imported from ``src/`` of the checkout that holds this file.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
1 when a correctness gate failed and 2 when the library cannot be found.
See README.md beside this file for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import os


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus
        os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


BLAS_THREADS = _cap_blas_threads()

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Context, Ledger, summarize  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("grid", "signs", "errors", "harmonics", "factors", "basis",
           "interp_factors", "spline", "analog", "cli")

# Set-up (fresh import, input generation, warm-up) is repeated and the median
# reported, so one slow repetition does not move setup_s.
SETUP_REPEATS = 5
# Untimed-gate pass 0 plus enough passes for a median.
MIN_PASSES = 3
# In a traced run, passes with tracing off that give the overhead baseline.
UNTRACED_PASSES = 2


class LibraryMissing(RuntimeError):
    pass


def fresh_import():
    """Import trigsplines (and its CLI module) anew from this checkout's src/."""
    if not (SRC / "trigsplines" / "__init__.py").is_file():
        raise LibraryMissing(f"no trigsplines package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trigsplines" or m.startswith("trigsplines.")]:
        del sys.modules[name]
    api = importlib.import_module("trigsplines")
    if Path(api.__file__).resolve().parent != (SRC / "trigsplines").resolve():
        raise LibraryMissing(f"imported trigsplines from {api.__file__}, not from {SRC}")
    importlib.import_module("trigsplines.cli")
    return api


def load_declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _per_layer(tracer, passes, traced_s, untraced_s):
    """Per-pass per-layer figures from the spans of the traced passes."""
    summary = tracer.summary()
    count = len(traced_s)

    def stat(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def per_pass_ms(*names):
        return 1e3 * sum(stat(n, "self_s") for n in names) / count

    def calls(name):
        return stat(name, "calls") / count

    def counter(key):
        return tracer.counts.get(key, 0) / count

    def ratio(key, name):
        total = stat(name, "calls")
        return tracer.counts.get(key, 0) / total if total else 0.0

    m = {}
    for name in ("basis.alias_sum", "basis.truncation_order", "factors.tail_bound",
                 "factors.factor_values", "interp_factors.factor_sums", "harmonics.dft_coeffs",
                 "grid.nodes", "signs.lookup"):
        m[f"{name}.calls"] = calls(name)
    for name in ("basis.alias_sum", "basis.truncation_order", "factors.tail_bound",
                 "factors.factor_values", "interp_factors.factor_sums",
                 "interp_factors.interp_factors", "harmonics.dft_coeffs", "spline.build",
                 "spline.evaluate", "spline.verify_interpolation", "spline.sample",
                 "analog.max_deviation", "cli.main"):
        m[f"{name}.self_ms"] = per_pass_ms(name)
    m["analog.fit.self_ms"] = per_pass_ms("analog.fit_broken_line", "analog.fit_periodic_cubic",
                                          "analog.fit_periodic_quadratic",
                                          "analog.solve_cyclic_tridiagonal")
    m["basis.alias_sum.terms"] = counter("basis.alias_sum.terms")
    m["factors.factor_values.elements"] = counter("factors.factor_values.elements")
    m["spline.evaluate.points"] = counter("spline.evaluate.points")
    m["spline.sample.points"] = counter("spline.sample.points")
    m["basis.truncation_order.repeat_ratio"] = ratio("basis.truncation_order.repeats",
                                                     "basis.truncation_order")
    m["basis.truncation_order.capped_ratio"] = ratio("basis.truncation_order.capped",
                                                     "basis.truncation_order")
    r1_calls = tracer.counts.get("basis.truncation_order.r1", 0)
    m["basis.truncation_order.capped_ratio_r1"] = (
        tracer.counts.get("basis.truncation_order.capped_r1", 0) / r1_calls if r1_calls else 0.0
    )
    m["interp_factors.factor_sums.repeat_ratio"] = ratio("interp_factors.factor_sums.repeats",
                                                         "interp_factors.factor_sums")
    m["cli.output_bytes"] = sum(rec.output_bytes for rec in passes) / count
    for command in ("nodes", "coeffs", "factors", "build-eval", "sample", "verify",
                    "enumerate", "compare-analog"):
        m[f"cli.{command}.ms"] = 1e3 * sum(rec.command_s.get(command, 0.0) for rec in passes) / count
    for module in MODULES:
        if module == "errors":
            continue  # exception classes only; no functions to time
        own = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == module)
        m[f"share.{module}"] = own / sum(traced_s)
    m["trace.overhead"] = median(traced_s) / median(untraced_s)
    return m


def _run_passes(workload, api, inputs, ctx, deadline, at_least):
    """Passes until the next one would end after ``deadline`` (a
    ``perf_counter`` time), and at least ``at_least`` of them.  Returns the
    pass records and the timed seconds of each pass."""
    records, timed = [], []
    while True:
        if ctx.tracer is not None:
            ctx.tracer.begin_pass()
        t0 = time.perf_counter()
        rec, timed_s = workload.run_pass(api, inputs, ctx)
        ctx.first = False
        records.append(rec)
        timed.append(timed_s)
        now = time.perf_counter()
        if len(records) >= at_least and now + (now - t0) > deadline:
            return records, timed


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """One benchmark run; returns (result object, info dict)."""
    workload = WORKLOADS[name](tiny)
    build_dir = ROOT / ".bench_build"
    made_build_dir = not build_dir.exists()
    scratch = build_dir / f"trigsplines-bench-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(1 if tiny else SETUP_REPEATS):
            t0 = time.perf_counter()
            api = fresh_import()
            inputs = workload.make_inputs(api, np.random.default_rng(seed), scratch)
            workload.warm_up(api, inputs)
            setup_times.append(time.perf_counter() - t0)

        ledger = Ledger()
        ctx = Context(ledger=ledger)
        deadline = time.perf_counter() + seconds
        if trace:
            # Untraced passes first: the overhead baseline, and pass 0 with its gates.
            untraced, untraced_s = _run_passes(workload, api, inputs, ctx, 0.0,
                                               1 if tiny else UNTRACED_PASSES)
            tracer = tracing.Tracer()
            # sys.modules, not package attributes: the package re-exports a
            # function named interp_factors that hides the module of that name.
            tracing.instrument(tracer, api, {m: sys.modules[f"trigsplines.{m}"] for m in MODULES})
            ctx.tracer = tracer
            tracer.active = True
            passes, timed = _run_passes(workload, api, inputs, ctx, deadline, 1)
            tracer.active = False
            metrics = _per_layer(tracer, passes, timed, untraced_s)
            first_record = untraced[0]
            timed = untraced_s + timed
            units = {m["name"]: m["unit"] for m in load_declaration()["per_layer"]}
        else:
            passes, timed = _run_passes(workload, api, inputs, ctx, deadline,
                                        1 if tiny else MIN_PASSES)
            first_record = passes[0]
            metrics = summarize(passes)
            metrics["setup_s"] = median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = {m["name"]: m["unit"] for m in load_declaration()["end_to_end"]}
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            # A metric that could not be measured (only after a failed gate) is left out.
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                        for k in units if math.isfinite(metrics[k])},
        }
        info = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "passes": len(timed),
            "pass_s": ",".join(f"{t:.3f}" for t in timed),
            "blas_threads": BLAS_THREADS,
            **{f"max_dev.{k}": f"{v:.3g}@{where.replace(' ', '_')}"
               for k, (v, where) in first_record.worst.items()},
            "problems": ledger.problems,
        }
        return result, info
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if made_build_dir:
            try:
                build_dir.rmdir()
            except OSError:
                pass


# Workload-specific names of the generic metrics (see the metric table in README.md).
ALIASES = {
    ("eval-scattered", "items_per_s.shallow"): "eval_pts_per_s.shallow",
    ("eval-scattered", "items_per_s.deep"): "eval_pts_per_s.deep",
    ("eval-scattered", "other_s"): "build_s",
    ("sample-oracle", "items_per_s"): "oracle_pts_per_s",
    ("cli-sweep", "items_per_s"): "variants_per_s",
    ("cli-sweep", "other_s"): "cli_script_s",
}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS stays per workload), each
    metric printed with its unit and direction."""
    declaration = load_declaration()
    declared = {m["name"]: m for m in declaration["end_to_end"] + declaration["per_layer"]}
    worst = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        worst = max(worst, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(lines[0] if len(lines) > 1 else name)
        print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
        for metric, value in result["metrics"].items():
            alias = ALIASES.get((name, metric), "")
            print(f"  {metric:<40} {value['value']:>14.6g} {value['unit']:<12} "
                  f"{declared[metric]['better'] + ' is better':<18} {alias}")
        rows.append({"workload": name, **result})
    print(json.dumps({"runs": rows}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest operation lists and one pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except LibraryMissing as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    for problem in info.pop("problems"):
        sys.stderr.write(f"gate failed: {problem}\n")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
