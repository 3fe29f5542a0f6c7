"""README's library quick start runs as written and prints what it states,
its CLI section names every command-line option, and no other, and states
every size bound as the ``cli`` constant has it, and every name it gives
in the package exists."""

import argparse
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import deltamachine
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


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def test_cli_section_states_the_size_bounds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)
    # "up to 32,768 = 2¹⁵ (`cli.MAX_CLUSTER_SIZE`)": the figure, an optional
    # power of two, maybe a unit word, then the constant's name.
    stated = re.findall(r"up to ([\d,]+)(?: = 2([⁰¹²³⁴⁵⁶⁷⁸⁹]+))?\s+(?:\w+\s+)?\(`cli\.(MAX_\w+)`", section)
    bounds = {}
    for figure, power, name in stated:
        bounds[name] = int(figure.replace(",", ""))
        if power:
            assert bounds[name] == 2 ** int(power.translate(_SUPERSCRIPTS)), figure
    # Every bound of the command line, found by name, so none ships undocumented.
    assert bounds == {name: value for name, value in vars(cli).items() if name.startswith("MAX_")}


def test_every_package_name_in_readme_exists():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {info.name: f"deltamachine.{info.name}" for info in pkgutil.iter_modules(deltamachine.__path__)}
    modules["deltamachine"] = "deltamachine"
    # `cli.MAX_ARGS`, `spheres.mixed_transmission(...)`, `deltamachine.band`
    named = sorted({ref for ref in re.findall(r"`(\w+)\.(\w+)[`(]", readme) if ref[0] in modules})
    assert len(named) > 10, named
    missing = [
        f"{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(modules[module]), name)
    ]
    assert missing == [], f"README names what the package does not define: {missing}"
