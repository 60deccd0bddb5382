import json
import math

import numpy as np
import pytest

from trigsplines import (
    DegenerateVariant,
    TruncationPolicy,
    factor_sums,
    interp_factors,
    lookup,
    sinc_power,
)
from trigsplines.cli import main

DEMO = [3, 1, 3, 2, 4, 1, 3, 1, 2]


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"values": DEMO}))
    return str(path)


@pytest.fixture
def csv_data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(str(v) for v in DEMO) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nodes_command(capsys, data_file):
    code, out, err = run(capsys, "nodes", data_file)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# spec: N=9 kind=0"
    assert len(lines) == 10
    assert lines[1] == "1,0"
    j, t = lines[2].split(",")
    assert j == "2" and float(t) == pytest.approx(2.0 * np.pi / 9.0, rel=1e-16)


def test_csv_input_accepted(capsys, csv_data_file):
    code, out, _ = run(capsys, "coeffs", csv_data_file)
    assert code == 0
    first_row = out.strip().splitlines()[1].split(",")
    assert float(first_row[1]) == pytest.approx(40.0 / 9.0, rel=1e-15)


def test_sample_header_and_shape(capsys, data_file):
    code, out, err = run(capsys, "sample", data_file, "--r", "3", "--samples", "32")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("# spec: sign=A1 r=3 i1=0 i2=0 N=9 alpha=")
    assert len(lines) == 33
    t0, v0 = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(v0) == pytest.approx(3.0, abs=1e-8)


def test_sample_deterministic_output(capsys, data_file):
    _, out1, _ = run(capsys, "sample", data_file, "--r", "3", "--samples", "64")
    _, out2, _ = run(capsys, "sample", data_file, "--r", "3", "--samples", "64")
    assert out1 == out2


def test_sample_repeat_r_blocks(capsys, data_file):
    code, out, _ = run(
        capsys, "sample", data_file, "--r", "1", "--r", "3", "--samples", "8",
        "--m-max", "500",
    )
    assert code == 0
    headers = [l for l in out.splitlines() if l.startswith("# spec:")]
    assert len(headers) == 2
    assert "r=1" in headers[0] and "r=3" in headers[1]


def test_sample_json_mirrors_csv(capsys, data_file):
    code, out, _ = run(
        capsys, "sample", data_file, "--r", "3", "--samples", "16", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["sign"] == "A1" and doc["spec"]["N"] == 9
    assert doc["columns"] == ["t", "value"]
    assert len(doc["rows"]) == 16


def test_verify_command(capsys, data_file):
    code, out, _ = run(capsys, "verify", data_file, "--r", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + 9 nodes + max line
    assert lines[-1].startswith("# max_residual = ")
    assert float(lines[-1].split("=")[1]) < 1e-8


def test_factors_command(capsys, data_file):
    code, out, _ = run(capsys, "factors", data_file, "--r", "1", "--m-max", "2000")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-12)


def test_build_eval_command(capsys, data_file):
    code, out, _ = run(capsys, "build-eval", data_file, "--r", "3", "--at", "0,3.14159")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    assert float(rows[0].split(",")[1]) == pytest.approx(3.0, abs=1e-8)


@pytest.mark.parametrize("angles", ["-1,7", "-1e-3", "-0.5", "-2,-3.5e1"])
def test_build_eval_accepts_negative_angles_as_written(capsys, data_file, angles):
    expected = run(capsys, "build-eval", data_file, "--r", "3", f"--at={angles}")
    assert expected[0] == 0
    assert run(capsys, "build-eval", data_file, "--r", "3", "--at", angles) == expected


def test_enumerate_command(capsys, data_file):
    code, out, _ = run(capsys, "enumerate", data_file, "--r", "1", "--m-max", "300")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 64
    assert rows[0][0] == "A1" and rows[0][1] == "0" and rows[0][2] == "0"
    assert rows[-1][0] == "D4" and rows[-1][1] == "1" and rows[-1][2] == "1"
    for row in rows:
        assert row[5] in ("true", "false")
        if row[5] == "false":
            assert float(row[6]) < 1e-7


def test_compare_analog_r1(capsys, data_file):
    code, out, _ = run(capsys, "compare-analog", data_file, "--r", "1", "--samples", "256")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "1" and row[1] == "broken-line"
    assert float(row[3]) < 1e-3


def test_compare_analog_r2_reports_finding(capsys, data_file):
    code, out, _ = run(
        capsys, "compare-analog", data_file, "--r", "2", "--i2", "1", "--samples", "128"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == "quadratic"
    assert row[4] == "analog-mismatch-finding"


def test_output_file(tmp_path, capsys, data_file):
    out_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "sample", data_file, "--r", "3", "--samples", "8",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("# spec: sign=A1")


def test_nodes_kind1_grid(capsys, data_file):
    code, out, _ = run(capsys, "nodes", data_file, "--i2", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# spec: N=9 kind=1"
    assert float(lines[1].split(",")[1]) == pytest.approx(np.pi / 9.0, rel=1e-15)


def test_alpha_override_propagates(capsys, data_file):
    code, out, _ = run(capsys, "factors", data_file, "--r", "3", "--alpha", "0.5")
    assert code == 0
    assert out.splitlines()[0].endswith("alpha=0.5")
    # A different width changes the factors.
    _, out_default, _ = run(capsys, "factors", data_file, "--r", "3")
    assert out != out_default


def test_verify_json_format(capsys, data_file):
    code, out, _ = run(capsys, "verify", data_file, "--r", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["j", "t", "data", "value", "residual"]
    assert len(doc["rows"]) == 9
    assert doc["max_residual"] < 1e-8


def test_unknown_sign_rejected(capsys, data_file):
    code, _, err = run(capsys, "sample", data_file, "--sign", "E9")
    assert code == 1
    assert err.startswith("UnknownElement:")
    assert err.count("\n") == 1


def test_r0_without_fixed_m_rejected(capsys, data_file):
    code, _, err = run(capsys, "sample", data_file, "--r", "0")
    assert code == 1
    assert err.startswith("TruncationNotConverged:")


def test_r0_with_bare_fixed_m_runs(capsys, data_file):
    # Bare --fixed-m falls back to the documented default order.
    code, out, err = run(capsys, "verify", data_file, "--r", "0", "--fixed-m")
    assert code == 0 and err == ""
    assert out.strip().splitlines()[-1].startswith("# max_residual = ")


def test_even_length_data_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"values": [1, 2, 3, 4]}))
    code, _, err = run(capsys, "sample", str(path))
    assert code == 1
    assert err.startswith("InvalidGrid:")


def test_unsupported_analog_r(capsys, data_file):
    code, _, err = run(capsys, "compare-analog", data_file, "--r", "4")
    assert code == 1
    assert err.startswith("ValueError:")


def test_missing_file(capsys):
    code, _, err = run(capsys, "sample", "/nonexistent/file.json")
    assert code == 1


@pytest.mark.filterwarnings("error")
def test_infinite_alpha_rejected_with_one_line(capsys, data_file):
    code, out, err = run(capsys, "verify", data_file, "--alpha", "inf")
    assert code == 1 and out == ""
    assert err.startswith("ValueError:") and "alpha" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["coeffs", "verify"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_data_rejected_with_one_line(tmp_path, capsys, command, bad):
    path = tmp_path / "bad.json"
    path.write_text('{"values": [1, 2, %s, 4, 5]}' % bad)
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.startswith("ValueError:") and "finite" in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_non_finite_angle_rejected_with_one_line(capsys, data_file):
    code, out, err = run(capsys, "build-eval", data_file, "--r", "3", "--at", "0.5,nan,inf")
    assert code == 1 and out == ""
    assert err == "ValueError: angles must be finite, got nan at index 1\n"


@pytest.mark.parametrize("argv, error", [
    (["verify", "--sign", "Z1"], "UnknownElement:"),
    (["verify", "--r", "-2"], "ValueError: r must be >= 0"),
    (["verify", "--r", "0"], "TruncationNotConverged:"),
    (["enumerate", "--r", "-1"], "ValueError: r must be >= 0"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_flag_errors_come_before_reading_the_file(tmp_path, capsys, argv, error):
    command, *flags = argv
    code, out, err = run(capsys, command, str(tmp_path / "missing.json"), *flags)
    assert code == 1 and out == ""
    assert err.startswith(error) and err.count("\n") == 1


def test_enumerate_has_no_i2(capsys, data_file):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", data_file, "--r", "3", "--i2", "0"])
    assert exc.value.code == 2
    assert "--i2" in capsys.readouterr().err


def test_enumerate_matches_library_gate(tmp_path, capsys):
    # At this width and depth some variants of N=3, r=3 are degenerate.
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"values": [1.0, -0.5, 2.0]}))
    alpha = 0.30000000000000004
    code, out, _ = run(capsys, "enumerate", str(path), "--r", "3", "--m-max", "300",
                       "--alpha", repr(alpha))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    policy = TruncationPolicy(m_max=300)
    family = sinc_power(3, alpha)
    for name, i1, i2, min_hc, min_hs, degenerate, residual in rows:
        args = (family, lookup(name), int(i1), int(i2), 3, policy)
        pair = factor_sums(*args)
        assert float(min_hc) == np.abs(pair.hc).min()
        assert float(min_hs) == np.abs(pair.hs).min()
        try:
            interp_factors(*args)
        except DegenerateVariant:
            assert degenerate == "true" and residual == ""
        else:
            assert degenerate == "false" and float(residual) < 1e-12
    assert {row[5] for row in rows} == {"true", "false"}


@pytest.mark.parametrize("alpha, k", [(2.0 * math.pi, 1), (4.0 * math.pi / 3.0, 3)])
def test_alpha_with_vanishing_factors_rejected_with_one_line(capsys, data_file, alpha, k):
    code, out, err = run(capsys, "verify", data_file, "--r", "3", "--alpha", repr(alpha))
    assert code == 1 and out == ""
    assert err == f"DegenerateVariant: interpolation factor hc[k={k}] is numerically zero\n"


def test_m_max_below_minimum_names_m_max(capsys, data_file):
    code, _, err = run(capsys, "verify", data_file, "--m-max", "3")
    assert code == 1
    assert err.startswith("ValueError:") and "m_max" in err and "m_min" not in err


def _same_cell(text, value):
    """A CSV cell and the JSON value it mirrors."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, float):
        return float(text) == value or (math.isnan(value) and text == "nan")
    return text == str(value)


def _csv_blocks(text):
    """CSV output split into blocks of header fields, rows and trailers."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("# spec: "):
            fields = [field.split("=", 1) for field in line[len("# spec: "):].split(" ")]
            blocks.append({"spec": fields, "rows": [], "trailers": []})
        elif line.startswith("# "):
            name, value = line[2:].split(" = ")
            blocks[-1]["trailers"].append((name, value))
        else:
            assert not blocks[-1]["trailers"], "data row after a trailer"
            blocks[-1]["rows"].append(line.split(","))
    return blocks


@pytest.mark.parametrize("argv", [
    ["nodes", "--i2", "1"],
    ["coeffs", "--i2", "1"],
    ["factors", "--r", "2", "--r", "3", "--alpha", "0.5"],
    ["build-eval", "--r", "3", "--at", "0.5,2.25"],
    ["sample", "--r", "1", "--r", "3", "--samples", "8", "--m-max", "300"],
    ["verify", "--r", "2", "--r", "3", "--sign", "C1", "--i1", "1", "--i2", "1"],
    ["enumerate", "--r", "1", "--m-max", "300"],
    ["compare-analog", "--r", "1", "--r", "3", "--samples", "64", "--m-max", "300"],
], ids=lambda argv: argv[0])
def test_csv_blocks_mirror_json(capsys, data_file, argv):
    command, *flags = argv
    code, csv_out, _ = run(capsys, command, data_file, *flags)
    assert code == 0
    code, json_out, _ = run(capsys, command, data_file, *flags, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    docs = doc if isinstance(doc, list) else [doc]
    blocks = _csv_blocks(csv_out)
    assert len(blocks) == len(docs) == max(1, flags.count("--r"))
    for blk, doc in zip(blocks, docs):
        assert [name for name, _ in blk["spec"]] == list(doc["spec"])
        assert all(_same_cell(text, doc["spec"][name]) for name, text in blk["spec"])
        assert len(blk["rows"]) == len(doc["rows"])
        for row, json_row in zip(blk["rows"], doc["rows"]):
            assert len(row) == len(json_row) == len(doc["columns"])
            assert all(_same_cell(text, value) for text, value in zip(row, json_row))
        summary = {k: v for k, v in doc.items() if k not in ("spec", "columns", "rows")}
        assert [name for name, _ in blk["trailers"]] == list(summary)
        assert all(_same_cell(text, summary[name]) for name, text in blk["trailers"])
