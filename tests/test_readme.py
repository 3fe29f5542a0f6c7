"""README's library quick start runs as written and prints what it states."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_prints_its_stated_outputs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    # The block states two of its outputs: 22/35, and the verdict dict on
    # the comment line after the last print.
    assert "# 22/35, exact" in block
    verdicts = block.rstrip().splitlines()[-1]
    assert verdicts.startswith("# {1: 'Quantum'")
    proc = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    assert lines[0] == "22/35"
    assert lines[2] == verdicts.removeprefix("# ")
