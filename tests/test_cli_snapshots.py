"""Byte-exact CLI output: every README command in text, JSON and CSV.

The README commands are read from the ``sh`` block under README's ``## CLI``
heading, without ``deltamachine``, the comment and any ``--format X``.  The
fixture holds ``(exit code, stdout)`` per command line.  It pins the
rendered bytes, so any change to a report's layout, number formatting or
CSV columns shows up here.  Every JSON report must also parse as strict
JSON.  Record the fixture with::

    PYTHONPATH=src python tests/test_cli_snapshots.py --record

only when an output change is intended; a refactor must pass unchanged.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from deltamachine import cli
from test_cli import parse_json

FIXTURE = Path(__file__).with_name("data") / "cli_snapshots.json"
README = Path(__file__).resolve().parents[1] / "README.md"

FORMATS = ("text", "json", "csv")


def readme_commands() -> list[str]:
    """The command lines of README's ``## CLI`` block, without the format."""
    readme = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = []
    for line in block.splitlines():
        program, *argv = line.partition("#")[0].split()
        assert program == "deltamachine", line
        if "--format" in argv:
            at = argv.index("--format")
            del argv[at:at + 2]
        commands.append(" ".join(argv))
    return commands


COMMANDS = (
    *readme_commands(),
    # edge cases
    "tables --K 1",
    "epsilon --theta 1.0472 --eps 0.5",
    "epsilon --theta 1.0472 --eps 0 --n 1000 --seed 7",
    "classify --K 1",
    "classify --K 2",
    "classify --K 12",
    "convergence --kp 3 --km 1 --k 2 --seed 6 --schedule 50,200 --z 2.5",
    # usage errors
    "tables --K 0",
    "tables --K 9 --golden",
)

CASES = [f"{command} --format {fmt}" for command in COMMANDS for fmt in FORMATS]


def run(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.split())
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(snapshots):
    assert sorted(snapshots) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_snapshot(snapshots, case, monkeypatch, tmp_path):
    # The CLI reads no environment: the names of two removed overrides, set
    # to a writable output file and a ceiling of 1, change no byte.
    monkeypatch.setenv("DELTAMACHINE_OUTPUT", str(tmp_path / "out.txt"))
    monkeypatch.setenv("DELTAMACHINE_TABLE_CEILING", "1")
    result = run(case)
    assert result == snapshots[case]
    if case.endswith("--format json") and result["exit"] == 0:
        parse_json(result["stdout"])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({case: run(case) for case in CASES}, indent=1) + "\n", encoding="utf-8"
    )
