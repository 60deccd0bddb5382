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
from .errors import InvalidGrid, TrigSplineError, TruncationNotConverged
from .factors import default_alpha, sinc_power
from .grid import GridSpec, nodes
from .harmonics import SampleSet, dft_coeffs
from .interp_factors import degenerate_harmonic, interp_factors, nodal_factors
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
    if r == 0 and args.fixed_m is None:
        raise TruncationNotConverged(
            "r = 0 has no tolerance-based truncation; pass --fixed-m "
            f"(bare --fixed-m uses M = {DEFAULT_FIXED_M})"
        )
    return TruncationPolicy(tol=args.tol, m_max=args.m_max, fixed_m=args.fixed_m)


def _spline_spec(args, r: int, n_nodes: int) -> SplineSpec:
    signs = lookup(args.sign)
    alpha = args.alpha if args.alpha is not None else default_alpha(n_nodes)
    family = sinc_power(r, alpha)
    return SplineSpec(
        family=family,
        signs=signs,
        r=r,
        n_nodes=n_nodes,
        i1=args.i1,
        i2=args.i2,
        policy=_policy_from_args(args, r),
    )


def _spec_header(spec: SplineSpec) -> tuple[str, dict]:
    line = (
        f"# spec: sign={spec.signs.name} r={spec.r} i1={spec.i1} i2={spec.i2} "
        f"N={spec.n_nodes} alpha={_fmt(spec.family.alpha)}"
    )
    mapping = {
        "sign": spec.signs.name,
        "r": spec.r,
        "i1": spec.i1,
        "i2": spec.i2,
        "N": spec.n_nodes,
        "alpha": spec.family.alpha,
    }
    return line, mapping


def _emit(args, blocks: list[dict]) -> None:
    """Write blocks as CSV (comment header + data rows) or structurally
    equivalent JSON."""
    if args.format == "csv":
        chunks = []
        for blk in blocks:
            lines = [blk["header"]]
            for row in blk["rows"]:
                lines.append(",".join(_cell(x) for x in row))
            for extra in blk.get("trailers", []):
                lines.append(extra)
            chunks.append("\n".join(lines) + "\n")
        text = "".join(chunks)
    else:
        payload = []
        for blk in blocks:
            item = {"spec": blk["spec"], "columns": blk["columns"], "rows": blk["rows"]}
            item.update(blk.get("extra_json", {}))
            payload.append(item)
        out = payload[0] if len(payload) == 1 else payload
        text = json.dumps(out, indent=2) + "\n"

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


def cmd_nodes(args) -> list[dict]:
    values = load_values(args.input)
    grid = GridSpec(len(values), args.i2)
    t = nodes(grid)
    return [
        {
            "header": f"# spec: N={grid.n_nodes} kind={grid.kind}",
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
        for k in range(1, coeffs.n_harmonics + 1)
    ]
    return [
        {
            "header": f"# spec: N={grid.n_nodes} i2={grid.kind}",
            "spec": {"N": grid.n_nodes, "i2": grid.kind},
            "columns": ["k", "a", "b"],
            "rows": rows,
        }
    ]


def cmd_factors(args) -> list[dict]:
    values = load_values(args.input)
    n_nodes = len(values)
    blocks = []
    for r in args.r:
        spec = _spline_spec(args, r, n_nodes)
        pair = interp_factors(
            spec.family, spec.signs, spec.i1, spec.i2, n_nodes, spec.policy
        )
        header, mapping = _spec_header(spec)
        rows = [
            [k, float(pair.hc[k - 1]), float(pair.hs[k - 1])]
            for k in range(1, spec.n_harmonics + 1)
        ]
        blocks.append(
            {"header": header, "spec": mapping, "columns": ["k", "hc", "hs"], "rows": rows}
        )
    return blocks


def cmd_build_eval(args) -> list[dict]:
    values = load_values(args.input)
    at = [float(x) for x in args.at.split(",") if x.strip()]
    if not at:
        raise ValueError("--at needs at least one angle")
    blocks = []
    for r in args.r:
        spec = _spline_spec(args, r, len(values))
        model = build(values, spec)
        out = evaluate(model, np.asarray(at))
        header, mapping = _spec_header(spec)
        blocks.append(
            {
                "header": header,
                "spec": mapping,
                "columns": ["t", "value"],
                "rows": [[t, float(v)] for t, v in zip(at, out)],
            }
        )
    return blocks


def cmd_sample(args) -> list[dict]:
    values = load_values(args.input)
    blocks = []
    for r in args.r:
        spec = _spline_spec(args, r, len(values))
        model = build(values, spec)
        pts = sample(model, args.samples)
        header, mapping = _spec_header(spec)
        blocks.append(
            {
                "header": header,
                "spec": mapping,
                "columns": ["t", "value"],
                "rows": [[float(t), float(v)] for t, v in pts],
            }
        )
    return blocks


def cmd_verify(args) -> list[dict]:
    values = load_values(args.input)
    blocks = []
    for r in args.r:
        spec = _spline_spec(args, r, len(values))
        model = build(values, spec)
        report = verify_interpolation(model)
        header, mapping = _spec_header(spec)
        rows = [
            [
                j + 1,
                float(report.node_angles[j]),
                float(values[j]),
                float(values[j] + report.residuals[j]),
                float(report.residuals[j]),
            ]
            for j in range(len(values))
        ]
        blocks.append(
            {
                "header": header,
                "spec": mapping,
                "columns": ["j", "t", "data", "value", "residual"],
                "rows": rows,
                "trailers": [f"# max_residual = {_fmt(report.max_residual)}"],
                "extra_json": {"max_residual": report.max_residual},
            }
        )
    return blocks


def cmd_enumerate(args) -> list[dict]:
    values = load_values(args.input)
    n_nodes = len(values)
    alpha = args.alpha if args.alpha is not None else default_alpha(n_nodes)
    blocks = []
    for r in args.r:
        family = sinc_power(r, alpha)
        policy = _policy_from_args(args, r)
        grid = alias_grid(family, n_nodes, policy)  # shared by all 64 variants
        rows = []
        for name in ELEMENT_NAMES:
            signs = lookup(name)
            for i1, i2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                pair = nodal_factors(grid, signs, i1, i2)
                degenerate = degenerate_harmonic(family, pair) is not None
                residual = None
                if not degenerate:
                    spec = SplineSpec(
                        family=family,
                        signs=signs,
                        r=r,
                        n_nodes=n_nodes,
                        i1=i1,
                        i2=i2,
                        policy=policy,
                    )
                    model = assemble(values, spec, grid, pair)
                    residual = verify_interpolation(model).max_residual
                rows.append(
                    [
                        name,
                        i1,
                        i2,
                        float(np.abs(pair.hc).min()),
                        float(np.abs(pair.hs).min()),
                        degenerate,
                        residual,
                    ]
                )
        blocks.append(
            {
                "header": f"# spec: r={r} N={n_nodes} alpha={_fmt(alpha)}",
                "spec": {"r": r, "N": n_nodes, "alpha": alpha},
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
    values = load_values(args.input)
    n_nodes = len(values)
    blocks = []
    for r in args.r:
        if r == 1:
            analog = fit_broken_line(values, GridSpec(n_nodes, args.i2))
            kind = "broken-line"
        elif r == 3:
            analog = fit_periodic_cubic(values, GridSpec(n_nodes, args.i2))
            kind = "cubic"
        elif r == 2:
            analog = fit_periodic_quadratic(values, GridSpec(n_nodes, 1))
            kind = "quadratic"
        else:
            raise ValueError(f"no polynomial analog oracle for r={r}; supported: 1, 2, 3")
        spec = _spline_spec(args, r, n_nodes)
        model = build(values, spec)
        dev = max_deviation(model, analog, args.samples)
        note = "analog-mismatch-finding" if dev > ANALOG_FINDING_LIMIT else ""
        header, mapping = _spec_header(spec)
        blocks.append(
            {
                "header": header,
                "spec": mapping,
                "columns": ["r", "analog", "samples", "max_deviation", "note"],
                "rows": [[r, kind, args.samples, dev, note]],
            }
        )
    return blocks


_COMMANDS = {
    "nodes": cmd_nodes,
    "coeffs": cmd_coeffs,
    "factors": cmd_factors,
    "build-eval": cmd_build_eval,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "compare-analog": cmd_compare_analog,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsplines",
        description="Construct, classify, and evaluate interpolation trigonometric splines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("input", help="data file: JSON {\"values\": [...]} or one value per line")
    io_parent.add_argument("--format", choices=("csv", "json"), default="csv")
    io_parent.add_argument("--out", default="-", help="output path (default: stdout)")
    io_parent.add_argument("--i2", type=int, choices=(0, 1), default=0,
                           help="interpolation grid kind")

    series_parent = argparse.ArgumentParser(add_help=False)
    series_parent.add_argument("--r", action="append", type=int, default=None,
                               help="smoothness parameter; repeat for several runs")
    series_parent.add_argument("--alpha", type=float, default=None,
                               help="factor width (default: 2*pi/N)")
    series_parent.add_argument("--tol", type=float, default=1e-10)
    series_parent.add_argument("--m-max", type=int, default=20_000)
    series_parent.add_argument("--fixed-m", type=int, nargs="?", const=DEFAULT_FIXED_M,
                               default=None,
                               help="fixed summation order (required when r=0; "
                                    f"bare flag means {DEFAULT_FIXED_M})")

    spline_parent = argparse.ArgumentParser(add_help=False)
    spline_parent.add_argument("--sign", default="A1", help="sign element A1..D4")
    spline_parent.add_argument("--i1", type=int, choices=(0, 1), default=0,
                               help="crosslink grid kind")

    sub.add_parser("nodes", parents=[io_parent], help="emit grid node angles")
    sub.add_parser("coeffs", parents=[io_parent], help="emit harmonic coefficients")
    sub.add_parser("factors", parents=[io_parent, series_parent, spline_parent],
                   help="emit interpolation factors hc, hs")
    p = sub.add_parser("build-eval", parents=[io_parent, series_parent, spline_parent],
                       help="build a spline and evaluate at given angles")
    p.add_argument("--at", required=True, help="comma-separated angles")
    p = sub.add_parser("sample", parents=[io_parent, series_parent, spline_parent],
                       help="sample a spline on an equispaced grid")
    p.add_argument("--samples", type=int, default=512)
    sub.add_parser("verify", parents=[io_parent, series_parent, spline_parent],
                   help="report nodal interpolation residuals")
    sub.add_parser("enumerate", parents=[io_parent, series_parent],
                   help="classification feasibility table over all 16 elements x 4 grid pairs")
    p = sub.add_parser("compare-analog", parents=[io_parent, series_parent, spline_parent],
                       help="max deviation from the polynomial-spline oracle")
    p.add_argument("--samples", type=int, default=2048)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "r") and args.r is None:
        args.r = [1]
    try:
        # Flag validation happens before any file is read.
        if hasattr(args, "sign"):
            lookup(args.sign)
        if hasattr(args, "r"):
            for r in args.r:
                if r < 0:
                    raise ValueError(f"r must be >= 0, got {r}")
                _policy_from_args(args, r)
        blocks = _COMMANDS[args.command](args)
        _emit(args, blocks)
    except (TrigSplineError, ValueError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
