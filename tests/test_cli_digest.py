"""``tools/cli_digest.py`` runs its whole invocation matrix in-process: every
command is covered, and every single-fault case fails with one line.  Its
saved outcomes compare with no change against themselves, and a perturbed
number or text is reported."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
COMMANDS = {"nodes", "coeffs", "factors", "build-eval", "sample", "verify", "enumerate",
            "compare-analog"}


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def outcomes(digest):
    return dict(digest.run_matrix())


def test_matrix_covers_every_command(digest, outcomes):
    assert len(outcomes) == len(digest.MATRIX) + len(digest.ERRORS) >= 90
    assert {argv[0] for argv in digest.MATRIX} == COMMANDS
    for argv in digest.MATRIX:
        assert outcomes[argv].code == 0 and outcomes[argv].stderr == "", argv
        assert outcomes[argv].stdout or outcomes[argv].out_file, argv


def test_each_error_exits_1_with_one_stderr_line(digest, outcomes):
    for argv in digest.ERRORS:
        outcome = outcomes[argv]
        assert outcome.code == 1 and outcome.stdout == "", argv
        assert outcome.stderr.count("\n") == 1 and outcome.stderr.endswith("\n"), argv
        assert outcome.stderr.split(":")[0].isidentifier(), argv


def test_compare_with_itself_reports_no_change(digest, outcomes, tmp_path, capsys):
    results = list(outcomes.items())
    digest.save(results, tmp_path / "outcomes.json")
    saved = digest.load(tmp_path / "outcomes.json")
    assert saved == outcomes
    digest.compare(saved, results)
    assert capsys.readouterr().out == (
        f"0 of {len(results)} invocations differ; largest relative change 0.000e+00\n")


def test_compare_reports_one_perturbed_number(digest, outcomes, capsys):
    argv = ("coeffs", "d9.json")
    # a0 = 40/9 of the demo data moves by 1; N = 9 is the largest number.
    old = outcomes[argv]
    assert old.stdout.startswith("# spec: N=9 i2=0\n0,4.4444444444444446,0\n")
    saved = dict(outcomes)
    perturbed = old.stdout.replace("4.4444444444444446", "5.4444444444444446")
    saved[argv] = digest.Outcome(old.code, perturbed, old.stderr, old.out_file)
    [(where, change, relative)] = digest.changes(saved, list(outcomes.items()))
    assert where == argv
    assert change == pytest.approx(1.0, abs=1e-14)
    assert relative == pytest.approx(1.0 / 9.0, abs=1e-14)
    digest.compare(saved, list(outcomes.items()))
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["coeffs d9.json: max |change| 1.000e+00, relative 1.111e-01",
                     f"1 of {len(outcomes)} invocations differ; largest relative change 1.111e-01"]


def test_compare_reports_a_text_change(digest, outcomes):
    argv = ("verify", "d9.json")
    saved = dict(outcomes)
    saved[argv] = digest.Outcome(1, "", "ValueError: boom\n", None)
    assert digest.changes(saved, list(outcomes.items())) == [(argv, None, None)]
