"""Record the outputs that the benchmark's checks pin, into fingerprints.json.

    python3 bench/record_fingerprints.py

Records the seeded counts of one monte_carlo cycle at the default workload
seed, and a digest of every exact table and verdict list for K = 1..128.
Run it only when the benchmark's workloads change: the program must keep
reproducing the recorded values, so a program change that needs new
fingerprints is a change of the published outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from deltamachine import machine, regimes, spheres  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

MAX_K = 128


def op_counts(op: workloads.Op) -> list[int]:
    """The seeded counts of a monte_carlo operation."""
    out = op.run()
    return workloads.empirical_counts(out) if isinstance(out, machine.EmpiricalTable) else [out.transmitted]


def main() -> int:
    tables, verdicts = {}, {}
    for K in range(1, MAX_K + 1):
        ceiling = max(K, spheres.DEFAULT_TABLE_CEILING)
        tables[str(K)] = checks.table_digest(checks.table_cells(spheres.probability_table(K, ceiling=ceiling)))
        verdicts[str(K)] = checks.verdict_digest(checks.verdict_lines(regimes.classify_table(K, ceiling=ceiling)))
    # Write the digests first: building a cycle reads the fingerprint file.
    record = {"default_seed": workloads.DEFAULT_SEED, "monte_carlo": None, "tables": tables, "verdicts": verdicts}
    checks.FINGERPRINTS.write_text(json.dumps(record, indent=1) + "\n")
    cycle = workloads.monte_carlo(workloads.DEFAULT_SEED, pin=False)
    record["monte_carlo"] = [op_counts(op) for op in cycle]
    checks.FINGERPRINTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
