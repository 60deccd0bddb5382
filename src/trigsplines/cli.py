"""Command-line front end.

Reads sampled data from a JSON or single-column CSV file (the node count N is
always inferred from the data, never passed as a flag), builds spline
variants, and emits deterministic CSV or JSON: grid nodes, harmonic
coefficients, interpolation factors, point evaluations, equispaced samples,
interpolation residuals, a 64-row classification feasibility table, and
deviations from the periodic polynomial oracles.

Every float is printed with 17 significant digits, so identical inputs and
flags produce byte-identical output.  Domain errors exit nonzero with a
single machine-parsable line ``<ErrorName>: detail`` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analog import (
    fit_broken_line,
    fit_periodic_cubic,
    fit_periodic_quadratic,
    max_deviation,
)
from .basis import DEFAULT_FIXED_M, TruncationPolicy, alias_grid
from .errors import DegenerateVariant, InvalidGrid, TrigSplineError, TruncationNotConverged
from .factors import default_alpha, sinc_power
from .grid import GridSpec, nodes
from .harmonics import SampleSet, dft_coeffs
from .interp_factors import interp_factors
from .signs import ELEMENT_NAMES, lookup
from .spline import SplineSpec, assemble, build, evaluate, sample, verify_interpolation

# Deviations above this mark a variant whose polynomial analog is not confirmed.
ANALOG_FINDING_LIMIT = 1e-4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_values(path: str) -> np.ndarray:
    """Data values from a JSON object {"values": [...]} or a single-column CSV."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(float(line.rstrip(",")))
        values = rows
    else:
        if isinstance(obj, dict) and "values" in obj:
            values = obj["values"]
        elif isinstance(obj, list):
            values = obj
        else:
            raise ValueError(f"{path}: JSON input must be a list or an object with 'values'")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) < 3 or len(arr) % 2 == 0:
        raise InvalidGrid(
            f"{path}: need an odd number (>= 3) of data values, got {arr.shape}"
        )
    return arr


def _policy_from_args(args, r: int) -> TruncationPolicy:
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if r == 0 and args.fixed_m is None:
        raise TruncationNotConverged(
            "r = 0 has no tolerance-based truncation; pass --fixed-m "
            f"(bare --fixed-m uses M = {DEFAULT_FIXED_M})"
        )
    return TruncationPolicy(tol=args.tol, m_max=args.m_max, fixed_m=args.fixed_m)


def _emit(args, blocks: list[dict]) -> None:
    """Write blocks as CSV or as structurally equivalent JSON.

    A block is ``{"spec": dict, "columns": list, "rows": list}`` with an
    optional ``"summary": dict``.  In CSV it is a ``# spec: k=v ...`` comment
    header, the data rows, and one ``# name = value`` trailer per summary
    entry; in JSON the summary entries are top-level fields.
    """
    if args.format == "csv":
        lines = []
        for blk in blocks:
            lines.append("# spec: " + " ".join(f"{k}={_cell(v)}" for k, v in blk["spec"].items()))
            lines += [",".join(_cell(x) for x in row) for row in blk["rows"]]
            lines += [f"# {k} = {_cell(v)}" for k, v in blk.get("summary", {}).items()]
        text = "\n".join(lines) + "\n"
    else:
        payload = [
            {"spec": b["spec"], "columns": b["columns"], "rows": b["rows"], **b.get("summary", {})}
            for b in blocks
        ]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"

    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return _fmt(x)
    if x is None:
        return ""
    return str(x)


def _specs(args, signs, i1: int, i2: int) -> tuple[np.ndarray, list[SplineSpec]]:
    """The data and one spline spec per ``--r`` (default 1); every ``--r``
    and its policy are checked before the file is read."""
    policies = [(r, _policy_from_args(args, r)) for r in args.r or [1]]
    values = load_values(args.input)
    n_nodes = len(values)
    alpha = args.alpha if args.alpha is not None else default_alpha(n_nodes)
    specs = [
        SplineSpec(family=sinc_power(r, alpha), signs=signs, r=r, n_nodes=n_nodes, i1=i1, i2=i2,
                   policy=policy)
        for r, policy in policies
    ]
    return values, specs


def _per_variant(args, block) -> list[dict]:
    """One block per ``--r``: ``block(values, spec)`` gives its columns, rows
    and summary, and the variant's spec is attached here."""
    values, specs = _specs(args, lookup(args.sign), args.i1, args.i2)
    blocks = []
    for spec in specs:
        blk = block(values, spec)
        blk["spec"] = {
            "sign": spec.signs.name,
            "r": spec.r,
            "i1": spec.i1,
            "i2": spec.i2,
            "N": spec.n_nodes,
            "alpha": spec.family.alpha,
        }
        blocks.append(blk)
    return blocks


def cmd_nodes(args) -> list[dict]:
    values = load_values(args.input)
    grid = GridSpec(len(values), args.i2)
    t = nodes(grid)
    return [
        {
            "spec": {"N": grid.n_nodes, "kind": grid.kind},
            "columns": ["j", "t"],
            "rows": [[j + 1, float(t[j])] for j in range(grid.n_nodes)],
        }
    ]


def cmd_coeffs(args) -> list[dict]:
    values = load_values(args.input)
    grid = GridSpec(len(values), args.i2)
    coeffs = dft_coeffs(SampleSet(values=values, grid=grid))
    rows = [[0, coeffs.a0, 0.0]]
    rows += [
        [k, float(coeffs.a[k - 1]), float(coeffs.b[k - 1])]
        for k in range(1, grid.n_harmonics + 1)
    ]
    return [
        {
            "spec": {"N": grid.n_nodes, "i2": grid.kind},
            "columns": ["k", "a", "b"],
            "rows": rows,
        }
    ]


def cmd_factors(args) -> list[dict]:
    def block(values, spec):
        grid = alias_grid(spec.family, spec.n_nodes, spec.policy)
        pair = interp_factors(grid, spec.signs, spec.i1, spec.i2)
        rows = [[k, float(hc), float(hs)] for k, (hc, hs) in enumerate(zip(pair.hc, pair.hs), 1)]
        return {"columns": ["k", "hc", "hs"], "rows": rows}

    return _per_variant(args, block)


def cmd_build_eval(args) -> list[dict]:
    at = [float(x) for x in args.at.split(",") if x.strip()]
    if not at:
        raise ValueError("--at needs at least one angle")

    def block(values, spec):
        out = evaluate(build(values, spec), np.asarray(at))
        return {"columns": ["t", "value"], "rows": [[t, float(v)] for t, v in zip(at, out)]}

    return _per_variant(args, block)


def cmd_sample(args) -> list[dict]:
    def block(values, spec):
        pts = sample(build(values, spec), args.samples)
        return {"columns": ["t", "value"], "rows": [[float(t), float(v)] for t, v in pts]}

    return _per_variant(args, block)


def cmd_verify(args) -> list[dict]:
    def block(values, spec):
        report = verify_interpolation(build(values, spec))
        rows = [
            [j, float(t), float(f), float(f + e), float(e)]
            for j, (t, f, e) in enumerate(zip(report.node_angles, values, report.residuals), 1)
        ]
        return {
            "columns": ["j", "t", "data", "value", "residual"],
            "rows": rows,
            "summary": {"max_residual": report.max_residual},
        }

    return _per_variant(args, block)


def cmd_enumerate(args) -> list[dict]:
    values, specs = _specs(args, lookup(ELEMENT_NAMES[0]), 0, 0)
    blocks = []
    for base in specs:
        grid = alias_grid(base.family, base.n_nodes, base.policy)  # shared by all 64 variants
        rows = []
        for name in ELEMENT_NAMES:
            for i1, i2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                spec = base._replace(signs=lookup(name), i1=i1, i2=i2)
                try:
                    model = assemble(values, spec, grid)
                except DegenerateVariant as exc:
                    pair, residual = exc.pair, None
                else:
                    pair, residual = model.factors, verify_interpolation(model).max_residual
                rows.append(
                    [
                        name,
                        i1,
                        i2,
                        float(np.abs(pair.hc).min()),
                        float(np.abs(pair.hs).min()),
                        residual is None,
                        residual,
                    ]
                )
        blocks.append(
            {
                "spec": {"r": base.r, "N": base.n_nodes, "alpha": base.family.alpha},
                "columns": [
                    "sign",
                    "i1",
                    "i2",
                    "min_abs_hc",
                    "min_abs_hs",
                    "degenerate",
                    "max_residual",
                ],
                "rows": rows,
            }
        )
    return blocks


def cmd_compare_analog(args) -> list[dict]:
    def block(values, spec):
        # r -> oracle name, its fit, and the grid kind of the data it fits
        analogs = {
            1: ("broken-line", fit_broken_line, spec.i2),
            2: ("quadratic", fit_periodic_quadratic, 1),
            3: ("cubic", fit_periodic_cubic, spec.i2),
        }
        if spec.r not in analogs:
            raise ValueError(f"no polynomial analog oracle for r={spec.r}; supported: 1, 2, 3")
        kind, fit, grid_kind = analogs[spec.r]
        analog = fit(values, GridSpec(spec.n_nodes, grid_kind))
        dev = max_deviation(build(values, spec), analog, args.samples)
        note = "analog-mismatch-finding" if dev > ANALOG_FINDING_LIMIT else ""
        return {
            "columns": ["r", "analog", "samples", "max_deviation", "note"],
            "rows": [[spec.r, kind, args.samples, dev, note]],
        }

    return _per_variant(args, block)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and reused; subcommand ``name`` runs ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="trigsplines",
        description="Construct, classify, and evaluate interpolation trigonometric splines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("input", help="data file: JSON {\"values\": [...]} or one value per line")
    io_parent.add_argument("--format", choices=("csv", "json"), default="csv")
    io_parent.add_argument("--out", default="-", help="output path (default: stdout)")
    grid_parent = argparse.ArgumentParser(add_help=False, parents=[io_parent])
    grid_parent.add_argument("--i2", type=int, choices=(0, 1), default=0,
                             help="interpolation grid kind")

    series_parent = argparse.ArgumentParser(add_help=False)
    series_parent.add_argument("--r", action="append", type=int, default=None,
                               help="smoothness parameter; repeat for several runs")
    series_parent.add_argument("--alpha", type=float, default=None,
                               help="factor width (default: 2*pi/N)")
    series_parent.add_argument("--tol", type=float, default=TruncationPolicy().tol)
    series_parent.add_argument("--m-max", type=int, default=TruncationPolicy().m_max)
    series_parent.add_argument("--fixed-m", type=int, nargs="?", const=DEFAULT_FIXED_M,
                               default=None,
                               help="fixed summation order (required when r=0; "
                                    f"bare flag means {DEFAULT_FIXED_M})")

    spline_parent = argparse.ArgumentParser(add_help=False)
    spline_parent.add_argument("--sign", default="A1", help="sign element A1..D4")
    spline_parent.add_argument("--i1", type=int, choices=(0, 1), default=0,
                               help="crosslink grid kind")
    variant = [grid_parent, series_parent, spline_parent]

    sub.add_parser("nodes", parents=[grid_parent], help="emit grid node angles")
    sub.add_parser("coeffs", parents=[grid_parent], help="emit harmonic coefficients")
    sub.add_parser("factors", parents=variant, help="emit interpolation factors hc, hs")
    p = sub.add_parser("build-eval", parents=variant,
                       help="build a spline and evaluate at given angles")
    p.add_argument("--at", required=True, help="comma-separated angles")
    p = sub.add_parser("sample", parents=variant, help="sample a spline on an equispaced grid")
    p.add_argument("--samples", type=int, default=512)
    sub.add_parser("verify", parents=variant, help="report nodal interpolation residuals")
    sub.add_parser("enumerate", parents=[io_parent, series_parent],
                   help="classification feasibility table over all 16 elements x 4 grid pairs")
    p = sub.add_parser("compare-analog", parents=variant,
                       help="max deviation from the polynomial-spline oracle")
    p.add_argument("--samples", type=int, default=2048)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "-1,7" in "--at -1,7" as an option; bind it as "--at=-1,7".
    while "--at" in argv[:-1]:
        i = argv.index("--at")
        argv[i : i + 2] = [f"--at={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    # Looked up on each call, so a rebound cmd_* is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _emit(args, handler(args))
    except (TrigSplineError, ValueError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
