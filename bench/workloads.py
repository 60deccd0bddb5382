"""The three workloads: fixed operation lists, seeded inputs, untimed gates.

Every workload is a closed loop with one caller in one process: an operation
starts when the previous one has returned.  A *pass* runs the workload's
whole fixed operation list once; the runner repeats passes and reports
medians over them.  The seed changes data values and evaluation angles only,
never the operation list, so timings do not depend on it.

Operations are split by series depth: *shallow* means r >= 3, where the tail
bound stops the alias series after a few to about a hundred blocks; *deep*
means r <= 2, where it runs to hundreds or thousands of blocks, and to the
m_max cap for r = 1.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import checks

SHALLOW, DEEP = "shallow", "deep"


def depth(r: int) -> str:
    return SHALLOW if r >= 3 else DEEP


def multisine(rng: np.random.Generator, n_nodes: int, kind: int) -> np.ndarray:
    """Data on the kind-``kind`` grid: a seeded offset plus every harmonic
    k = 1..(N-1)/2 at equal amplitude and a seeded phase.

    The seed moves every value but not the amplitude spectrum, so the
    accuracy metrics measure the method rather than the luck of the draw.
    """
    n = (n_nodes - 1) // 2
    t = (2.0 * np.pi * np.arange(n_nodes) + np.pi * kind) / n_nodes
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    offset = rng.uniform(-1.0, 1.0)
    k = np.arange(1, n + 1)
    return offset + math.sqrt(2.0 / n) * np.cos(np.outer(t, k) + phases).sum(axis=1)


def jittered(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` angles, one uniform in each of ``size`` equal parts of the
    period, so the oracle deviation over a batch is a low-variance estimate
    of its mean over the period."""
    return (np.arange(size) + rng.uniform(0.0, 1.0, size)) * (2.0 * np.pi / size)


def make_spec(api, r, n_nodes, element, i1, i2, alpha_scale=1.0):
    family = api.sinc_power(r, alpha_scale * api.default_alpha(n_nodes))
    return api.SplineSpec(family=family, signs=api.lookup(element), r=r, n_nodes=n_nodes,
                          i1=i1, i2=i2, policy=api.TruncationPolicy())


def oracle_kind(r, element, i1, i2, alpha_scale):
    """Polynomial oracle matching a variant, if one exists."""
    if element == "A1" and i1 == i2 and alpha_scale == 1.0:
        return {1: "broken_line", 3: "cubic"}.get(r)
    return None


def fit_oracle(api, kind, data, grid):
    fit = api.fit_broken_line if kind == "broken_line" else api.fit_periodic_cubic
    return fit(data, grid)


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list, operations: int = 1) -> None:
        self.attempted += operations
        if problems:
            self.failed += operations
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


@dataclass
class Context:
    """What a pass needs besides its inputs."""

    ledger: Ledger
    tracer: object = None
    first: bool = True
    baseline: dict = field(default_factory=dict)  # pass-0 results, keyed per operation

    def check(self, where: str, gate) -> None:
        """Run ``gate()`` and record its problems as one operation; a gate
        that raises has failed.  Gates run outside the trace, so per-layer
        figures count timed work only."""
        traced = self.tracer is not None and self.tracer.active
        if traced:
            self.tracer.active = False
        try:
            problems = gate()
        except Exception as exc:
            problems = _failure(where, exc)
        finally:
            if traced:
                self.tracer.active = True
        self.ledger.record(problems)

    def same_as_first(self, key, value, where: str) -> list:
        if self.first:
            self.baseline[key] = value
            return []
        return checks.identical(value, self.baseline[key], where)


def _failure(where: str, exc: Exception) -> list:
    return [f"{where}: {type(exc).__name__}: {exc}"]


@dataclass
class PassRecord:
    """One pass: seconds per timed operation, the items it yields (evaluated
    points, compared samples or enumerate rows; 0 for operations that yield
    none), and the oracle deviations of pass 0."""

    ops: dict = field(default_factory=dict)  # key -> (depth class, items, [seconds])
    dev: dict = field(default_factory=lambda: {"broken_line": [], "cubic": []})
    worst: dict = field(default_factory=dict)  # oracle -> (max abs deviation, operation)
    command_s: dict = field(default_factory=dict)  # cli-sweep: seconds per command
    output_bytes: int = 0

    def time(self, key, cls, items, seconds) -> None:
        self.ops.setdefault(key, (cls, items, []))[2].append(seconds)

    @property
    def timed_s(self) -> float:
        return sum(sum(times) for _, _, times in self.ops.values())

    def deviation(self, oracle, diff, where) -> None:
        """Record one operation's deviations from its polynomial oracle."""
        diff = np.asarray(diff)
        self.dev[oracle].append(float(np.mean(diff**2)))
        largest = float(np.abs(diff).max())
        if largest > self.worst.get(oracle, (0.0, ""))[0]:
            self.worst[oracle] = (largest, where)


def summarize(passes: list) -> dict:
    """End-to-end metrics from the passes of one run.

    Each operation's time is its median over all its timings in the passes;
    rates divide the items of the item-yielding operations by the sum of
    those medians.  A metric with nothing to measure (every operation behind
    it failed) is NaN.
    """
    ops = {}
    for rec in passes:
        for key, (cls, items, times) in rec.ops.items():
            ops.setdefault(key, (cls, items, []))[2].extend(times)
    typical = {key: (cls, items, median(times)) for key, (cls, items, times) in ops.items()}

    def rate(classes):
        chosen = [(n, t) for cls, n, t in typical.values() if n and cls in classes]
        return sum(n for n, _ in chosen) / sum(t for _, t in chosen) if chosen else math.nan

    def rms(mean_squares):
        return math.sqrt(sum(mean_squares) / len(mean_squares)) if mean_squares else math.nan

    other = [t for _, n, t in typical.values() if not n]
    return {
        "items_per_s": rate((SHALLOW, DEEP)),
        "items_per_s.shallow": rate((SHALLOW,)),
        "items_per_s.deep": rate((DEEP,)),
        "other_s": sum(other) if other else math.nan,
        "dev_rms.broken_line": rms(passes[0].dev["broken_line"]),
        "dev_rms.cubic": rms(passes[0].dev["cubic"]),
    }


# ---------------------------------------------------------------------------
# eval-scattered


# (r, N, element, i1, i2, alpha / (2 pi / N)).  Elements span A-D and 1-4,
# both i1 values occur, and a third of the variants use a non-default alpha,
# so a closed form covering only A1 or default alpha shows as a partial gain.
EVAL_SPECS = (
    (3, 9, "A1", 0, 0, 1.0),
    (3, 33, "B2", 1, 0, 0.8),
    (3, 101, "A1", 0, 0, 1.0),
    (3, 101, "A1", 1, 1, 1.0),
    (3, 333, "C3", 0, 1, 1.0),
    (3, 1001, "D4", 1, 1, 1.0),
    (5, 9, "C1", 1, 0, 0.8),
    (5, 101, "D2", 0, 0, 1.0),
    (5, 501, "B3", 0, 1, 0.8),
    (1, 9, "A1", 0, 0, 1.0),
    (1, 9, "D3", 1, 0, 0.8),
    (1, 21, "A1", 1, 1, 1.0),
    (1, 21, "B4", 0, 1, 1.0),
    (2, 9, "C2", 1, 1, 0.8),
    (2, 33, "A4", 0, 0, 1.0),
)
EVAL_SPECS_TINY = (
    (3, 9, "A1", 0, 0, 1.0),
    (5, 9, "C1", 1, 0, 0.8),
    (1, 9, "A1", 0, 0, 1.0),
    (2, 9, "C2", 1, 1, 0.8),
)
# Points per evaluate call.  Single points are dominated by per-call set-up
# (truncation_order runs 2n times per call), large batches by trig terms.
EVAL_BATCHES = {SHALLOW: (1, 1, 1, 16, 16, 256, 256), DEEP: (1, 1, 16, 64)}
EVAL_BATCHES_TINY = {SHALLOW: (1, 16), DEEP: (1, 2)}
# Builds per variant and pass: builds are a small share of a pass, so they
# are repeated to give their median enough timings.
EVAL_BUILDS = 3


@dataclass
class EvalItem:
    label: str
    cls: str
    spec: object
    data: np.ndarray
    batches: list
    oracle: str | None
    grid: object


class EvalScattered:
    name = "eval-scattered"

    def __init__(self, tiny: bool = False):
        self.specs = EVAL_SPECS_TINY if tiny else EVAL_SPECS
        self.batches = EVAL_BATCHES_TINY if tiny else EVAL_BATCHES

    def make_inputs(self, api, rng, scratch):
        items = []
        for r, n_nodes, element, i1, i2, scale in self.specs:
            cls = depth(r)
            items.append(
                EvalItem(
                    label=f"{element} r={r} N={n_nodes} i1={i1} i2={i2} alpha*{scale}",
                    cls=cls,
                    spec=make_spec(api, r, n_nodes, element, i1, i2, scale),
                    data=multisine(rng, n_nodes, i2),
                    batches=[jittered(rng, size) for size in self.batches[cls]],
                    oracle=oracle_kind(r, element, i1, i2, scale),
                    grid=api.GridSpec(n_nodes, i2),
                )
            )
        return items

    def warm_up(self, api, items):
        for item in (items[0], items[-1]):
            api.evaluate(api.build(item.data, item.spec), item.batches[0])

    def run_pass(self, api, items, ctx):
        rec = PassRecord()
        for item in items:
            try:
                for _ in range(EVAL_BUILDS):
                    t0 = time.perf_counter()
                    model = api.build(item.data, item.spec)
                    rec.time(("build", item.label), item.cls, 0, time.perf_counter() - t0)
                    ctx.check(item.label, lambda: self._check_build(api, item, model, ctx))
            except Exception as exc:
                ctx.ledger.record(_failure(f"build {item.label}", exc), 1 + len(item.batches))
                continue
            diffs = []
            for b, angles in enumerate(item.batches):
                t0 = time.perf_counter()
                try:
                    values = api.evaluate(model, angles)
                except Exception as exc:
                    ctx.ledger.record(_failure(f"evaluate {item.label}", exc))
                    continue
                rec.time(("evaluate", item.label, b), item.cls, angles.size, time.perf_counter() - t0)

                def gate():
                    where = f"evaluate {item.label} batch {b}"
                    problems = ctx.same_as_first((item.label, b), values, where)
                    if not np.isfinite(values).all():
                        problems.append(f"{where}: non-finite values")
                    if ctx.first and item.oracle:
                        oracle = fit_oracle(api, item.oracle, item.data, item.grid)
                        diffs.append(values - oracle(angles))
                    return problems

                ctx.check(item.label, gate)
            if diffs:
                rec.deviation(item.oracle, np.concatenate(diffs), item.label)
        return rec, rec.timed_s

    def _check_build(self, api, item, model, ctx):
        where = f"build {item.label}"
        snapshot = np.concatenate(
            ([model.coeffs.a0], model.coeffs.a, model.coeffs.b, model.factors.hc, model.factors.hs)
        )
        key = (item.label, "model")
        if key in ctx.baseline:  # a rebuild: it must equal the verified first build
            return checks.identical(snapshot, ctx.baseline[key], where)
        ctx.baseline[key] = snapshot
        return checks.nodal(api.verify_interpolation(model).max_residual, where)


# ---------------------------------------------------------------------------
# sample-oracle


# (r, N, grid kind for both i1 and i2, sample count); element A1, default alpha.
ORACLE_JOBS = tuple(
    (r, n_nodes, kind, count)
    for r in (1, 3)
    for n_nodes, kind, count in (
        (9, 0, 8192), (9, 1, 512), (33, 0, 1024), (33, 1, 4096), (101, 0, 512), (101, 1, 2048),
    )
)
ORACLE_JOBS_TINY = ((1, 9, 0, 64), (3, 9, 1, 64))
# Seeded sample angles per job at which sample() is checked against evaluate().
AGREEMENT_POINTS = 2


@dataclass
class OracleJob:
    label: str
    cls: str
    oracle: str
    spec: object
    grid: object
    data: np.ndarray
    count: int
    probe: np.ndarray  # sample indices checked against evaluate


class SampleOracle:
    name = "sample-oracle"

    def __init__(self, tiny: bool = False):
        self.jobs = ORACLE_JOBS_TINY if tiny else ORACLE_JOBS

    def make_inputs(self, api, rng, scratch):
        jobs = []
        for r, n_nodes, kind, count in self.jobs:
            jobs.append(
                OracleJob(
                    label=f"A1 r={r} N={n_nodes} i1=i2={kind} samples={count}",
                    cls=depth(r),
                    oracle=oracle_kind(r, "A1", kind, kind, 1.0),
                    spec=make_spec(api, r, n_nodes, "A1", kind, kind),
                    grid=api.GridSpec(n_nodes, kind),
                    data=multisine(rng, n_nodes, kind),
                    count=count,
                    probe=rng.choice(count, AGREEMENT_POINTS, replace=False),
                )
            )
        return jobs

    def warm_up(self, api, jobs):
        for job in (jobs[0], jobs[-1]):
            model = api.build(job.data, job.spec)
            api.max_deviation(model, fit_oracle(api, job.oracle, job.data, job.grid), 64)

    def run_pass(self, api, jobs, ctx):
        rec = PassRecord()
        timed_s = 0.0
        for job in jobs:
            t0 = time.perf_counter()
            try:
                model = api.build(job.data, job.spec)
                oracle = fit_oracle(api, job.oracle, job.data, job.grid)
                t1 = time.perf_counter()
                dev = api.max_deviation(model, oracle, job.count)
            except Exception as exc:
                ctx.ledger.record(_failure(job.label, exc))
                continue
            t2 = time.perf_counter()
            # The job's wall time yields its samples; its build + fit part is
            # also reported on its own.
            rec.time(("job", job.label), job.cls, job.count, t2 - t0)
            rec.time(("build+fit", job.label), job.cls, 0, t1 - t0)
            timed_s += t2 - t0

            def gate():
                problems = ctx.same_as_first(job.label, dev, job.label)
                if ctx.first:
                    problems += self._check_first(api, job, model, oracle, dev, rec)
                return problems

            ctx.check(job.label, gate)
        return rec, timed_s

    def _check_first(self, api, job, model, oracle, dev, rec):
        """Nodal residual, sample vs evaluate, and the deviation itself,
        recomputed from an untimed sample of the same model."""
        pts = api.sample(model, job.count)
        diff = pts[:, 1] - oracle(pts[:, 0])
        rec.deviation(job.oracle, diff, job.label)
        problems = checks.agree(np.abs(diff).max(), dev, f"{job.label}: max_deviation")
        probe = pts[job.probe]
        problems += checks.agree(
            api.evaluate(model, probe[:, 0]), probe[:, 1], f"{job.label}: sample vs evaluate"
        )
        # sample(2N) hits the kind-0 nodes at even and the kind-1 nodes at odd indices.
        at_nodes = api.sample(model, 2 * job.grid.n_nodes)[job.grid.kind :: 2, 1]
        return problems + checks.nodal(float(np.abs(at_nodes - job.data).max()), job.label)


# ---------------------------------------------------------------------------
# cli-sweep


REFERENCE_PATH = Path(__file__).with_name("reference_enumerate.json")

# (N, r, m_max); m_max None means the CLI default.  r = 1 at the default
# m_max takes seconds per table, so it runs as in the README example.
ENUMERATE_RUNS = tuple(
    (n_nodes, r, m_max) for n_nodes in (9, 21) for r, m_max in ((3, None), (2, None), (1, 2000))
)
ENUMERATE_RUNS_TINY = ((5, 3, None), (5, 1, 200))
SCRIPT_NODES, SCRIPT_NODES_TINY = 33, 9
SCRIPT_SAMPLES, SCRIPT_SAMPLES_TINY = 2048, 64
BUILD_EVAL_POINTS = 8
DEFAULT_M_MAX = 20_000


def reference_key(n_nodes, r, m_max):
    return f"N={n_nodes} r={r} m_max={m_max or DEFAULT_M_MAX}"


@dataclass
class CliInputs:
    enumerate_files: dict  # N -> JSON data file
    script_file: Path  # single-column data file for the seven other commands
    script_data: np.ndarray
    out: Path
    enumerate_runs: tuple
    script: list  # (command, argv)
    samples: int
    at_index: np.ndarray
    reference: dict


class CliSweep:
    name = "cli-sweep"

    def __init__(self, tiny: bool = False):
        self.enumerate_runs = ENUMERATE_RUNS_TINY if tiny else ENUMERATE_RUNS
        self.script_nodes = SCRIPT_NODES_TINY if tiny else SCRIPT_NODES
        self.samples = SCRIPT_SAMPLES_TINY if tiny else SCRIPT_SAMPLES

    def make_inputs(self, api, rng, scratch):
        scratch = Path(scratch)
        files = {}
        for n_nodes in sorted({n for n, _, _ in self.enumerate_runs}):
            files[n_nodes] = scratch / f"enumerate{n_nodes}.json"
            files[n_nodes].write_text(json.dumps({"values": multisine(rng, n_nodes, 0).tolist()}))
        n = self.script_nodes
        script_data = multisine(rng, n, 0)
        script_file = scratch / "script.csv"  # single-column input exercises the CSV reader
        script_file.write_text("".join(f"{x!r}\n" for x in script_data.tolist()))
        at_index = np.sort(rng.choice(self.samples, BUILD_EVAL_POINTS, replace=False))
        angles = 2.0 * np.pi * at_index / self.samples
        src = str(script_file)
        script = [
            ("nodes", [src, "--i2", "1"]),
            ("coeffs", [src]),
            ("factors", [src, "--r", "2", "--r", "3", "--sign", "B2", "--i1", "1",
                         "--alpha", repr(0.8 * 2.0 * math.pi / n)]),
            ("build-eval", [src, "--r", "3", "--at", ",".join(repr(float(t)) for t in angles)]),
            ("sample", [src, "--r", "1", "--r", "3", "--samples", str(self.samples), "--format", "json"]),
            ("verify", [src, "--r", "2", "--sign", "C1", "--i1", "1", "--i2", "1"]),
            ("compare-analog", [src, "--r", "1", "--r", "3", "--samples", str(self.samples)]),
        ]
        reference = json.loads(REFERENCE_PATH.read_text())
        return CliInputs(files, script_file, script_data, scratch / "out.txt",
                         self.enumerate_runs, script, self.samples, at_index, reference)

    def warm_up(self, api, inputs):
        src = str(inputs.script_file)
        for argv in (["nodes", src], ["verify", src, "--r", "3"]):
            api.cli.main([*argv, "--out", str(inputs.out)])

    def _call(self, api, argv, inputs, rec, command):
        t0 = time.perf_counter()
        code = api.cli.main([*argv, "--out", str(inputs.out)])
        dt = time.perf_counter() - t0
        rec.command_s[command] = rec.command_s.get(command, 0.0) + dt
        text = inputs.out.read_text() if code == 0 else ""
        rec.output_bytes += len(text.encode())
        return code, text, dt

    def run_pass(self, api, inputs, ctx):
        rec = PassRecord()
        for n_nodes, r, m_max in inputs.enumerate_runs:
            argv = ["enumerate", str(inputs.enumerate_files[n_nodes]), "--r", str(r)]
            if m_max is not None:
                argv += ["--m-max", str(m_max)]
            where = f"enumerate {reference_key(n_nodes, r, m_max)}"
            code, text, dt = self._call(api, argv, inputs, rec, "enumerate")
            ref = inputs.reference[reference_key(n_nodes, r, m_max)]
            rec.time(where, depth(r), len(ref), dt)

            def gate():
                if code:
                    return [f"{where}: exit code {code}"]
                (block,) = checks.parse_csv(text)
                return ctx.same_as_first(where, text, where) + checks.enumerate_table(block, ref, where)

            ctx.check(where, gate)

        outputs = {}
        for command, argv in inputs.script:
            code, text, dt = self._call(api, [command, *argv], inputs, rec, command)
            rec.time(command, None, 0, dt)

            def gate():
                if code:
                    return [f"{command}: exit code {code}"]
                outputs[command] = _SCRIPT_CHECKS[command](text, inputs, self.script_nodes)
                return ctx.same_as_first(command, text, command)

            ctx.check(command, gate)
        if len(outputs) == len(inputs.script):
            ctx.check("cross-check", lambda: self._cross_check(api, outputs, inputs, rec))
        return rec, rec.timed_s

    def _cross_check(self, api, outputs, inputs, rec):
        """sample output against the oracles, compare-analog and build-eval."""
        n = self.script_nodes
        grid = api.GridSpec(n, 0)
        problems = []
        for r, kind in ((1, "broken_line"), (3, "cubic")):
            pts = outputs["sample"][r]
            diff = pts[:, 1] - fit_oracle(api, kind, inputs.script_data, grid)(pts[:, 0])
            rec.deviation(kind, diff, f"sample --r {r}")
            reported = outputs["compare-analog"][r]
            problems += checks.agree(np.abs(diff).max(), reported, f"compare-analog r={r}",
                                     tol=checks.DEVIATION_RTOL * reported)
        problems += checks.agree(outputs["build-eval"], outputs["sample"][3][inputs.at_index, 1],
                                 "build-eval vs sample")
        return problems


def _spec_r(header: str) -> int:
    return int(header.split(" r=")[1].split()[0])


def _check_nodes(text, inputs, n):
    (block,) = checks.parse_csv(text)
    rows = checks.numeric_rows(block, 2, "nodes")
    want = np.pi * (2.0 * np.arange(n) + 1.0) / n
    if checks.agree(rows[:, 1], want, "nodes", tol=1e-14):
        raise ValueError("nodes: kind-1 node angles are wrong")
    return rows


def _check_coeffs(text, inputs, n):
    (block,) = checks.parse_csv(text)
    rows = checks.numeric_rows(block, 3, "coeffs")
    t = 2.0 * np.pi * np.arange(n) / n
    k = rows[1:, 0]
    rebuilt = rows[0, 1] / 2.0 + np.cos(np.outer(t, k)) @ rows[1:, 1] + np.sin(np.outer(t, k)) @ rows[1:, 2]
    if checks.agree(rebuilt, inputs.script_data, "coeffs"):
        raise ValueError("coeffs: the coefficients do not reproduce the data")
    return rows


def _check_factors(text, inputs, n):
    blocks = checks.parse_csv(text)
    if [_spec_r(b["header"]) for b in blocks] != [2, 3]:
        raise ValueError("factors: expected blocks for r=2 and r=3")
    for blk in blocks:
        rows = checks.numeric_rows(blk, 3, "factors")
        if len(rows) != (n - 1) // 2 or not (np.abs(rows[:, 1:]) > 0).all():
            raise ValueError("factors: missing or zero hc/hs")
    return blocks


def _check_build_eval(text, inputs, n):
    (block,) = checks.parse_csv(text)
    rows = checks.numeric_rows(block, 2, "build-eval")
    if checks.agree(rows[:, 0], 2.0 * np.pi * inputs.at_index / inputs.samples, "build-eval", tol=0.0):
        raise ValueError("build-eval: angles do not round-trip")
    return rows[:, 1]


def _check_sample(text, inputs, n):
    out = {}
    for blk in checks.parse_json(text):
        rows = np.array(blk["rows"], dtype=float)
        if blk["columns"] != ["t", "value"] or rows.shape != (inputs.samples, 2):
            raise ValueError("sample: wrong columns or row count")
        if not np.isfinite(rows).all():
            raise ValueError("sample: non-finite value")
        out[blk["spec"]["r"]] = rows
    if sorted(out) != [1, 3]:
        raise ValueError("sample: expected blocks for r=1 and r=3")
    return out


def _check_verify(text, inputs, n):
    (block,) = checks.parse_csv(text)
    rows = checks.numeric_rows(block, 5, "verify")
    (trailer,) = block["trailers"]
    if not trailer.startswith("# max_residual = "):
        raise ValueError(f"verify: unexpected trailer {trailer!r}")
    reported = float(trailer.split("=")[1])
    problems = checks.nodal(reported, "verify")
    problems += checks.agree(np.abs(rows[:, 4]).max(), reported, "verify max_residual", tol=0.0)
    if problems:
        raise ValueError("; ".join(problems))
    return rows


def _check_compare_analog(text, inputs, n):
    out = {}
    for blk in checks.parse_csv(text):
        (row,) = blk["rows"]
        r, analog, samples, dev, note = row
        if note not in ("", "analog-mismatch-finding") or int(samples) != inputs.samples:
            raise ValueError(f"compare-analog: malformed row {row!r}")
        out[int(r)] = float(dev)
    if sorted(out) != [1, 3]:
        raise ValueError("compare-analog: expected rows for r=1 and r=3")
    return out


_SCRIPT_CHECKS = {
    "nodes": _check_nodes,
    "coeffs": _check_coeffs,
    "factors": _check_factors,
    "build-eval": _check_build_eval,
    "sample": _check_sample,
    "verify": _check_verify,
    "compare-analog": _check_compare_analog,
}

WORKLOADS = {cls.name: cls for cls in (EvalScattered, SampleOracle, CliSweep)}
