"""README's library quick start runs as written and prints what it states,
and its CLI section names every command-line option, and no other."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from deltamachine import cli

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


def test_cli_section_names_the_parsers_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)
    documented = set(re.findall(r"--[A-Za-z][\w-]*", section))
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert sorted(documented - options) == [], "README names options no command has"
    assert sorted(options - documented) == [], "README's CLI section omits options"
