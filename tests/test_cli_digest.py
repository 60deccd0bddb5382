"""``tools/cli_digest.py`` runs its whole invocation matrix in-process: every
command is covered, and every single-fault case fails with one line."""

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
