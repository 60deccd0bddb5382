"""``tools/import_cost.py`` times ``import trigsplines.cli`` in fresh
interpreters and prints the minimum, the median and the bytecode flag."""

import os
import re
import subprocess
import sys
from pathlib import Path

import trigsplines

TOOL = Path(__file__).resolve().parents[1] / "tools" / "import_cost.py"


def test_import_cost_prints_min_median_and_the_bytecode_flag():
    env = {**os.environ, "PYTHONPATH": str(Path(trigsplines.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "2"], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    timing, flag = proc.stdout.splitlines()
    match = re.fullmatch(r"import trigsplines\.cli after numpy, 2 runs: "
                         r"min (\d+\.\d\d) ms, median (\d+\.\d\d) ms", timing)
    assert match and 0 < float(match[1]) <= float(match[2])
    assert re.fullmatch(r"sys\.flags\.dont_write_bytecode = [01]", flag)
