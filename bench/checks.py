"""Correctness gates.  Each returns a list of problems; empty means passed.

The gates are pure functions of the library's outputs so that the
benchmark's own tests can feed them deliberately corrupted results.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Nodal interpolation is exact at any truncation depth, up to rounding.
NODAL_TOL = 1e-9
# Two summation orders of the same truncated series (sample vs evaluate).
AGREE_TOL = 1e-9
# compare-analog's reported deviation against the benchmark's own recomputation.
DEVIATION_RTOL = 1e-9


def nodal(max_residual: float, where: str) -> list[str]:
    if not (math.isfinite(max_residual) and abs(max_residual) <= NODAL_TOL):
        return [f"{where}: nodal residual {max_residual!r} exceeds {NODAL_TOL}"]
    return []


def agree(got, want, where: str, tol: float = AGREE_TOL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{where}: shape {got.shape} != {want.shape}"]
    if not np.isfinite(got).all():
        return [f"{where}: non-finite values"]
    scale = 1.0 + float(np.abs(want).max(initial=0.0))
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= tol * scale:
        return [f"{where}: differs by {err:.3e} (tolerance {tol * scale:.3e})"]
    return []


def identical(got, want, where: str) -> list[str]:
    """Outputs of a repeated, identical operation must not change."""
    if isinstance(want, (bytes, str)):
        return [] if got == want else [f"{where}: output changed between passes"]
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        return [f"{where}: result changed between passes"]
    return []


def parse_csv(text: str) -> list[dict]:
    """CLI CSV output as blocks: ``header`` line, data ``rows`` (lists of
    cells) and ``trailers``.  Raises ValueError on anything malformed."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("# spec:"):
            blocks.append({"header": line, "rows": [], "trailers": []})
        elif not blocks:
            raise ValueError(f"data before the first header: {line!r}")
        elif line.startswith("#"):
            blocks[-1]["trailers"].append(line)
        else:
            if blocks[-1]["trailers"]:
                raise ValueError(f"row after a trailer: {line!r}")
            blocks[-1]["rows"].append(line.split(","))
    if not blocks:
        raise ValueError("no output blocks")
    return blocks


def parse_json(text: str) -> list[dict]:
    obj = json.loads(text)
    blocks = obj if isinstance(obj, list) else [obj]
    for blk in blocks:
        if not isinstance(blk, dict) or not {"spec", "columns", "rows"} <= blk.keys():
            raise ValueError("JSON block lacks spec/columns/rows")
        if any(len(row) != len(blk["columns"]) for row in blk["rows"]):
            raise ValueError("JSON row width differs from its columns")
    return blocks


def numeric_rows(block: dict, width: int, where: str) -> np.ndarray:
    rows = block["rows"]
    if not rows or any(len(row) != width for row in rows):
        raise ValueError(f"{where}: expected non-empty rows of {width} cells")
    arr = np.array(rows, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: non-finite cell")
    return arr


def enumerate_table(block: dict, reference: list, where: str) -> list[str]:
    """An ``enumerate`` block against the stored reference rows
    ``[sign, i1, i2, degenerate]``, plus the nodal gate on every row."""
    problems = []
    rows = block["rows"]
    if len(rows) != len(reference):
        return [f"{where}: {len(rows)} rows, reference has {len(reference)}"]
    for row, (sign, i1, i2, degenerate) in zip(rows, reference):
        if len(row) != 7:
            return [f"{where}: row {row!r} does not have 7 cells"]
        name, r_i1, r_i2, hc, hs, flag, residual = row
        if (name, int(r_i1), int(r_i2)) != (sign, i1, i2):
            return [f"{where}: row order differs from the reference at {row!r}"]
        if flag not in ("true", "false"):
            return [f"{where}: degenerate cell {flag!r} is not a boolean"]
        if (flag == "true") != degenerate:
            problems.append(f"{where}: {sign} i1={i1} i2={i2} degenerate={flag}, reference {degenerate}")
        if not (float(hc) >= 0.0 and float(hs) >= 0.0):
            problems.append(f"{where}: {sign} i1={i1} i2={i2} bad factor magnitudes")
        if flag == "false":
            problems += nodal(float(residual), f"{where}: {sign} i1={i1} i2={i2}")
        elif residual != "":
            problems.append(f"{where}: degenerate row carries a residual")
    return problems
