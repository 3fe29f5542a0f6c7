"""Byte-exact CLI output: every README command in text, JSON and CSV.

The fixture holds ``(exit code, stdout)`` per command line.  It pins the
rendered bytes, so any change to a report's layout, number formatting or
CSV columns shows up here.  Record it with::

    PYTHONPATH=src python tests/test_cli_snapshots.py --record

only when an output change is intended; a refactor must pass unchanged.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from deltamachine import cli

FIXTURE = Path(__file__).with_name("data") / "cli_snapshots.json"

FORMATS = ("text", "json", "csv")

COMMANDS = (
    # README commands
    "tables --K 5",
    "tables --K 5 --golden",
    "tables --K 7",
    "simulate --kp 2 --km 1 --k 1 --n 100000 --seed 42",
    "scatter --E 1 --E 4",
    "scatter --grid 0.1:100:1000 --coupling 1.5",
    "epsilon --theta 1.0472 --eps 0.5 --n 100000 --seed 7",
    "classify --K 5",
    "convergence --kp 2 --km 1 --k 1 --seed 42",
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
def test_output_matches_snapshot(snapshots, case, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTPUT, raising=False)
    monkeypatch.delenv(cli.ENV_CEILING, raising=False)
    assert run(case) == snapshots[case]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({case: run(case) for case in CASES}, indent=1) + "\n", encoding="utf-8"
    )
