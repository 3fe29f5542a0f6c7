"""Tests of the benchmark's own checker: corrupted outputs must count as failures.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from deltamachine import spheres  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _tally(op: workloads.Op) -> workloads.Tally:
    tally = workloads.Tally()
    workloads.execute(op, tally)
    return tally


def _with_run(op: workloads.Op, run) -> workloads.Op:
    return dataclasses.replace(op, run=run)


def test_correct_outputs_pass():
    ensemble = workloads.ensemble_op(2, 1, 1, 1000, seed=5, pinned=None)
    table = workloads.table_op(16, checks.load_fingerprints()["tables"]["16"])
    for op in (ensemble, table):
        tally = _tally(op)
        assert (tally.attempted, tally.failed) == (1, 0), tally.problems


def test_corrupted_count_is_a_failure():
    op = workloads.ensemble_op(2, 1, 1, 1000, seed=5, pinned=None)
    result = op.run()
    for count in (result.transmitted + 200, -1):
        corrupted = dataclasses.replace(result, transmitted=count)
        tally = _tally(_with_run(op, lambda: corrupted))
        assert tally.failed == 1, count


def test_count_off_by_one_fails_the_pinned_fingerprint():
    (first, *_) = workloads.monte_carlo(checks.load_fingerprints()["default_seed"])
    result = first.run()
    assert _tally(_with_run(first, lambda: result)).failed == 0
    corrupted = dataclasses.replace(result, transmitted=result.transmitted + 1)
    tally = _tally(_with_run(first, lambda: corrupted))
    assert tally.failed == 1
    assert "pinned count" in tally.problems[0]


def test_corrupted_table_cell_is_a_failure():
    K = 16
    op = workloads.table_op(K, checks.load_fingerprints()["tables"][str(K)])
    table = op.run()
    row = table.rows[4]
    state, value = row.entries[7]
    entries = list(row.entries)
    entries[7] = (state, value + Fraction(1, 10**9))
    rows = list(table.rows)
    rows[4] = spheres.ProbabilityTableRow(k=row.k, entries=tuple(entries))
    corrupted = spheres.ProbabilityTable(K=K, rows=tuple(rows))
    tally = _tally(_with_run(op, lambda: corrupted))
    assert tally.failed == 1


def test_table_digest_alone_catches_a_cell_that_keeps_the_invariants():
    # Swapping two symmetric rows' values keeps every invariant but the digest.
    K = 16
    cells = checks.table_cells(spheres.probability_table(K))
    digest = checks.table_digest(cells)
    assert checks.table_problems(K, cells, digest) == []
    cells[4][7], cells[4][6] = cells[4][6], cells[4][7]
    cells[4][K - 7], cells[4][K - 6] = cells[4][K - 6], cells[4][K - 7]
    cells[5] = list(cells[4])
    assert checks.table_problems(K, cells, None) == []
    assert checks.table_problems(K, cells, digest) != []


def test_nonzero_exit_code_is_a_failure():
    (command, *_) = workloads.cli_commands(seed=3)
    for fmt in workloads.CLI_FORMATS:
        op = workloads.cli_op(command, fmt, workloads.inprocess_run)
        assert _tally(op).failed == 0
        tally = _tally(workloads.cli_op(command, fmt, lambda argv: (2, "")))
        assert tally.failed == 1
        assert "exit code 2" in tally.problems[0]


def test_raising_operation_is_a_failure():
    op = workloads.ensemble_op(2, 1, 1, 1000, seed=5, pinned=None)

    def boom():
        raise ValueError("broken")

    tally = _tally(_with_run(op, boom))
    assert (tally.attempted, tally.failed) == (1, 1)
