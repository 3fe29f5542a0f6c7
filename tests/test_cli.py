"""CLI contract: exit codes, formats, determinism, golden checks."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from deltamachine import cli, golden, regimes, rng, serialize
from deltamachine.machine import Outcome, run_trial
from deltamachine.regimes import Regime, RegimeVerdict, Witness, WitnessKind
from deltamachine.scattering import (
    ScatteringConfig,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    scatter_row,
    transmission_probability,
)
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    probability_table,
    transmission_probability_exact,
)
from oracles import classify_text, scatter_text

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def parse_json(out):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(out, parse_constant=_not_json)


def parse_csv(out):
    rows = list(csv.reader(io.StringIO(out)))
    return rows[0], rows[1:]


def assert_exact_table(payload, table):
    """Every state and every cell of a ``tables`` payload equals the library's."""
    assert payload["K"] == table.K
    for row, library_row in zip(payload["rows"], table.rows, strict=True):
        assert row["k"] == library_row.k
        assert [(s["k_plus"], s["k_minus"]) for s in payload["states"]] == [
            (s.k_plus, s.k_minus) for s, _ in library_row.entries
        ]
        cells = [Fraction(cell["num"], cell["den"]) for cell in row["cells"]]
        assert cells == list(library_row.probabilities())


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--K", "3")
        assert code == 0 and "K = 3" in out

    def test_usage_error_is_two(self, capsys):
        assert run_cli(capsys, "tables")[0] == 2           # missing --K
        assert run_cli(capsys, "nonsense")[0] == 2         # unknown command
        assert run_cli(capsys, "tables", "--K", "0")[0] == 2
        assert run_cli(capsys, "tables", "--K", str(cli.MAX_TABLE_SIZE + 1))[0] == 2
        assert run_cli(capsys, "simulate", "--kp", "2", "--km", "1", "--k", "4", "--n", "10")[0] == 2
        assert run_cli(capsys, "simulate", "--kp", "-1", "--km", "1", "--k", "1", "--n", "10")[0] == 2
        assert run_cli(capsys, "simulate", "--kp", "1", "--km", "1", "--k", "1", "--n", "10", "--z", "-1")[0] == 2
        assert run_cli(capsys, "scatter")[0] == 2          # no energies
        assert run_cli(capsys, "scatter", "--E", "-3")[0] == 2
        assert run_cli(capsys, "epsilon", "--theta", "9", "--eps", "0.5")[0] == 2
        assert run_cli(capsys, "convergence", "--kp", "1", "--km", "1", "--k", "1", "--seed", "1", "--schedule", "0,10")[0] == 2

    def test_golden_outside_embedded_range_is_usage_error(self, capsys):
        assert run_cli(capsys, "tables", "--K", "9", "--golden")[0] == 2

    def test_golden_mismatch_is_three(self, capsys, monkeypatch):
        corrupted = dict(golden._RAW)
        corrupted[4] = (("0", "1/4", "1/2", "3/4", "1"),) * 2 + (
            ("0", "0", "1/3", "1", "1"),  # wrong balanced cell
            ("0", "0", "1/2", "1", "1"),
        )
        monkeypatch.setattr(golden, "_RAW", corrupted)
        code, _, err = run_cli(capsys, "tables", "--K", "4", "--golden")
        assert code == 3
        assert "golden mismatch" in err and "k=3" in err


class TestGoldenTables:
    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7])
    def test_embedded_tables_pass(self, capsys, K):
        code, out, err = run_cli(capsys, "tables", "--K", str(K), "--golden")
        assert code == 0, err
        assert "golden check passed" in out

    def test_golden_matches_library_values(self):
        for K in golden.GOLDEN_SIZES:
            table = probability_table(K)
            reference = golden.golden_table(K)
            for row, ref in zip(table.rows, reference):
                assert row.probabilities() == ref

    @pytest.mark.parametrize(
        "pad, message",
        [
            (lambda rows: (*rows, rows[-1]), "lengths [5, 5, 5, 5], golden [5, 5, 5, 5, 5]"),
            (lambda rows: tuple((*row, row[-1]) for row in rows), "lengths [5, 5, 5, 5], golden [6, 6, 6, 6]"),
        ],
        ids=["extra-row", "extra-cell-per-row"],
    )
    def test_golden_of_another_shape_is_a_mismatch(self, capsys, monkeypatch, pad, message):
        reference = golden.golden_table
        monkeypatch.setattr(cli, "golden_table", lambda K: pad(reference(K)))
        code, _, err = run_cli(capsys, "tables", "--K", "4", "--golden")
        assert code == 3
        assert "golden mismatch" in err and message in err

    def test_missing_size_raises_key_error(self):
        with pytest.raises(KeyError, match="K=8"):
            golden.golden_table(8)


class TestTables:
    def test_json_carries_the_exact_table(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--K", "7", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert_exact_table(payload, probability_table(7))
        # spot-check a famous cell: k=3 at energy 4/3 is 22/35
        cell = payload["rows"][2]["cells"][4]
        assert (cell["num"], cell["den"]) == (22, 35)

    def test_single_sphere_text_row(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--K", "1")
        assert code == 0
        assert out.splitlines()[1].split() == ["k\\E", "0", "inf"]
        assert out.splitlines()[2].split() == ["1", "0", "1"]

    def test_csv_and_json_values_identical(self, capsys):
        # K = 128, past the library's default ceiling, has cells whose
        # numerator and denominator share large factors before reduction.
        for K in (5, 128):
            args = ("tables", "--K", str(K))
            _, json_out, _ = run_cli(capsys, *args, "--format", "json")
            _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
            payload = parse_json(json_out)
            header, rows = parse_csv(csv_out)
            assert header[3:5] == ["p_tr_num", "p_tr_den"]
            assert len(rows) == K * (K + 1)
            cells = {}
            for r in rows:
                num, den = int(r[3]), int(r[4])
                assert den > 0 and math.gcd(num, den) == 1, r
                cells[(int(r[0]), int(r[1]))] = Fraction(num, den)
            for row in payload["rows"]:
                for k_plus, cell in enumerate(row["cells"]):
                    assert cells[(row["k"], k_plus)] == Fraction(cell["num"], cell["den"])


class TestTableLimit:
    def test_limit_covers_the_tests_and_bounds_memory(self):
        # The tests send K = 128 through the CLI; a K = 512 table peaks near
        # 290 MiB.
        assert 128 <= cli.MAX_TABLE_SIZE <= 512

    @pytest.mark.parametrize("command", ["tables", "classify"])
    def test_size_above_the_limit_is_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "MAX_TABLE_SIZE", 8)
        # The name of the removed environment override changes nothing.
        monkeypatch.setenv("DELTAMACHINE_TABLE_CEILING", "9")
        assert run_cli(capsys, command, "--K", "8")[0] == 0
        code, out, err = run_cli(capsys, command, "--K", "9")
        assert code == 2 and out == ""
        assert err == "error: K=9 exceeds the table ceiling 8\n"

    @pytest.mark.parametrize("command", ["tables", "classify"])
    def test_ceiling_flag_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--K", "3", "--ceiling", "9")
        assert code == 2 and out == ""
        assert "--ceiling" in err and "usage:" in err


class TestSimulate:
    ARGS = ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--n", "2000", "--seed", "42")

    def test_report_contains_exact_expectation(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["expected"] == {"num": 2, "den": 3, "decimal": 2 / 3}
        assert payload["result"]["seed"] == 42
        assert payload["result"]["generator"] == "splitmix64"

    def test_reruns_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_deterministic_cell_is_exact_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--kp", "0", "--km", "4", "--k", "2", "--n", "10",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert parse_json(out)["result"]["transmitted"] == 0

    def test_random_seed_recorded_when_omitted(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--kp", "1", "--km", "1", "--k", "1", "--n", "10",
            "--format", "json",
        )
        assert code == 0
        payload = parse_json(out)
        assert isinstance(payload["result"]["seed"], int)

    def test_each_run_draws_a_fresh_seed(self, capsys):
        args = ("simulate", "--kp", "1", "--km", "1", "--k", "1", "--n", "10", "--format", "json")
        seeds = {parse_json(run_cli(capsys, *args)[1])["result"]["seed"] for _ in range(2)}
        assert len(seeds) == 2

    def test_csv_matches_json(self, capsys):
        _, json_out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *self.ARGS, "--format", "csv")
        payload = parse_json(json_out)
        header, rows = parse_csv(csv_out)
        record = dict(zip(header, rows[0]))
        assert int(record["transmitted"]) == payload["result"]["transmitted"]
        assert int(record["frequency_num"]) == payload["result"]["frequency"]["num"]
        assert float(record["lower"]) == payload["result"]["lower"]
        assert float(record["upper"]) == payload["result"]["upper"]


    @pytest.mark.parametrize(
        "kp, km, k",
        [(2, 1, 1), (128, 128, 10), (300, 20, 9)],
        ids=["one-word", "two-words", "byte-rows"],
    )
    def test_each_kernel_representation_replays(self, capsys, kp, km, k):
        # One cluster per kernel representation (one word, two words, byte
        # rows): the count is the sum of the trials that run_trial replays
        # from the child seeds.
        argv = ("--kp", str(kp), "--km", str(km), "--k", str(k), "--n", "1000", "--seed", "42")
        code, out, _ = run_cli(capsys, "simulate", *argv, "--format", "json")
        assert code == 0
        state, meas = ElectricState(kp, km), KMeasurement(k)
        replayed = sum(
            run_trial(state, meas, rng.substream_seed(42, i)) is Outcome.TRANSMITTED
            for i in range(1000)
        )
        assert parse_json(out)["result"]["transmitted"] == replayed


class TestTrialCount:
    """``--n`` below 1 or above ``MAX_TRIALS`` is a usage error, found before
    the exact value is computed; so is such a ``--schedule`` entry."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--seed", "1", "--n", "0"),
            ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--seed", "1", "--n", "-3"),
            ("epsilon", "--theta", "1", "--eps", "0.5", "--n", "0"),
        ],
        ids=["simulate-zero", "simulate-negative", "epsilon-zero"],
    )
    def test_nonpositive_n_is_usage_error(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("the exact value was computed")

        monkeypatch.setattr(cli, "transmission_probability_exact", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage:" in err and "argument --n: expected a positive integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--kp", "1", "--km", "0", "--k", "1", "--seed", "1", "--n", str(2**53 + 1)),
            ("epsilon", "--theta", "0", "--eps", "0.5", "--n", str(2**53 + 1)),
            ("convergence", "--kp", "2", "--km", "0", "--k", "1", "--seed", "1", "--schedule", f"5,{2**53 + 1}"),
        ],
        ids=["simulate", "epsilon", "convergence"],
    )
    def test_counts_above_the_bound_are_usage_errors(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("the exact value was computed")

        monkeypatch.setattr(cli, "transmission_probability_exact", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage:" in err and f"at most 2**53 = {cli.MAX_TRIALS}" in err

    def test_the_bound_itself_is_accepted(self, capsys):
        # A certain cell is counted without drawing, so 2**53 trials run at once.
        assert cli.MAX_TRIALS == 2**53
        code, out, _ = run_cli(
            capsys, "simulate", "--kp", "1", "--km", "0", "--k", "1", "--seed", "1",
            "--n", str(2**53), "--format", "json",
        )
        assert code == 0
        result = parse_json(out)["result"]
        assert result["n_trials"] == result["transmitted"] == 2**53

    def test_non_integer_n_keeps_the_int_message(self, capsys):
        code, _, err = run_cli(capsys, "epsilon", "--theta", "1", "--eps", "0.5", "--n", "x")
        assert code == 2 and "argument --n: invalid int value: 'x'" in err


class TestDigitLimit:
    """An exact value longer than CPython's int-to-str digit limit still renders.

    The cell's reduced ``expected`` has a 702-digit numerator and a
    705-digit denominator, past 640, the lowest limit CPython accepts.
    """

    CELL = ("--kp", "1500", "--km", "1700", "--k", "1501", "--seed", "1")
    EXPECTED = transmission_probability_exact(ElectricState(1500, 1700), KMeasurement(1501))

    def run_at_limit(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "deltamachine", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONINTMAXSTRDIGITS="640"),
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_simulate_renders_every_format(self, fmt):
        out = self.run_at_limit("simulate", *self.CELL, "--n", "1", "--format", fmt)
        num, den = self.EXPECTED.numerator, self.EXPECTED.denominator
        assert len(str(num)) > 640 and len(str(den)) > 640
        if fmt == "json":
            assert parse_json(out)["expected"]["num"] == num
        else:
            assert str(num) in out and str(den) in out

    def test_convergence_renders(self):
        out = self.run_at_limit("convergence", *self.CELL, "--schedule", "1", "--format", "json")
        assert parse_json(out)["expected"]["num"] == self.EXPECTED.numerator

    @pytest.fixture
    def digit_limit(self):
        """Run the test under the given limit, then restore the interpreter's."""
        before = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(before)

    def test_limit_guards_argv_and_is_restored(self, capsys, digit_limit):
        digit_limit(640)
        code, _, err = run_cli(capsys, "simulate", "--kp", "1" * 641, "--km", "1", "--k", "1", "--n", "1")
        assert code == 2 and "invalid int value" in err
        assert sys.get_int_max_str_digits() == 640
        assert run_cli(capsys, "simulate", *self.CELL, "--n", "1")[0] == 0
        assert sys.get_int_max_str_digits() == 640

    def test_limit_off_stays_off(self, capsys, digit_limit):
        digit_limit(0)
        assert run_cli(capsys, "simulate", *self.CELL, "--n", "1")[0] == 0
        assert sys.get_int_max_str_digits() == 0


class TestClusterLimit:
    def test_limit_covers_the_tests_and_fits_int16_labels(self):
        # TestDigitLimit's cell has K = 3200; at K <= 2**15 the slot labels
        # 0..K-1 fit int16 and the shuffle's modulo bias is at most 2**-49.
        assert 3200 <= cli.MAX_CLUSTER_SIZE <= 2**15

    @pytest.mark.parametrize("command,extra", [("simulate", ("--n", "10")), ("convergence", ("--schedule", "10"))])
    def test_cluster_above_the_limit_is_usage_error(self, capsys, monkeypatch, command, extra):
        monkeypatch.setattr(cli, "MAX_CLUSTER_SIZE", 8)
        cell = ("--k", "3", "--seed", "1", *extra)
        assert run_cli(capsys, command, "--kp", "4", "--km", "4", *cell)[0] == 0
        code, out, err = run_cli(capsys, command, "--kp", "4", "--km", "5", *cell)
        assert code == 2 and out == ""
        assert err == "error: K+ + K- is at most 8, got 9\n"


class TestScatter:
    def test_unit_energy(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--E", "1", "--format", "json")
        assert code == 0
        point = parse_json(out)["points"][0]
        assert point["p_transmission"] == 0.5
        assert point["jump_residual"] < 1e-12

    def test_grid_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys, "scatter", "--grid", "1:5:5", "--format", "json"
        )
        assert code == 0
        energies = [p["energy"] for p in parse_json(out)["points"]]
        assert energies == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_csv_matches_json(self, capsys):
        _, json_out, _ = run_cli(capsys, "scatter", "--E", "4", "--format", "json")
        _, csv_out, _ = run_cli(capsys, "scatter", "--E", "4", "--format", "csv")
        point = parse_json(json_out)["points"][0]
        header, rows = parse_csv(csv_out)
        record = dict(zip(header, rows[0]))
        assert float(record["p_tr"]) == point["p_transmission"]
        assert float(record["t_re"]) == point["transmission"]["re"]

    def test_coupling_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "scatter", "--E", "4", "--coupling", "2", "--format", "json"
        )
        assert code == 0
        assert parse_json(out)["points"][0]["p_transmission"] == 0.5

    @pytest.mark.parametrize("grid", ["1:2:x", "a:2:3", "1:2", "1:2:1"])
    def test_malformed_grid_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(capsys, "scatter", "--grid", grid)
        assert code == 2 and out == ""
        assert "--grid" in err and "usage:" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_negative_zero_energy_prints_as_zero(self, capsys, fmt):
        negative = run_cli(capsys, "scatter", "--E", "-0", "--format", fmt)
        positive = run_cli(capsys, "scatter", "--E", "0", "--format", fmt)
        assert negative == positive and negative[0] == 0

    def test_zero_energy_row_keeps_the_signed_zeros_of_its_amplitudes(self, capsys):
        # The input's sign is dropped, but the complex division in
        # amplitudes gives t and r's imaginary part signed zeros of their own.
        _, out, _ = run_cli(capsys, "scatter", "--E", "-0", "--format", "csv")
        assert [float(x).hex() for x in out.splitlines()[1].split(",")] == [
            "0x0.0p+0", "-0x0.0p+0", "-0x0.0p+0", "-0x1.0000000000000p+0",
            "-0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        ]

    @pytest.mark.parametrize(
        "E, coupling",
        [
            ("1", "1e-200"),  # coupling^2 underflows to 0
            ("1e300", "1e-10"),  # kappa^2 = E / coupling^2 overflows
            ("1", "1e200"),  # coupling^2 overflows, so kappa would be 0
            ("1e308", "1"),  # k^2 = 2 E overflows in the jump residual
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_out_of_range_numerics_exit_two(self, capsys, E, coupling, fmt):
        code, out, err = run_cli(
            capsys, "scatter", "--E", E, "--coupling", coupling, "--format", fmt
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ")


def _edge_couplings():
    """The smallest and the largest coupling whose square is a normal, finite double."""
    lo = math.sqrt(sys.float_info.min)
    while lo * lo < sys.float_info.min:
        lo = math.nextafter(lo, math.inf)
    hi = math.sqrt(sys.float_info.max)
    while hi * hi > sys.float_info.max:
        hi = math.nextafter(hi, 0.0)
    return lo, hi


def _scatter_case(
    coupling, energies=("0.0", "-0.0", "5e-324", "1e-300", "1.0", "1e+300"), grid=None
):
    """``(argv, coupling, library rows)``; only the energies valid at ``coupling``.

    ``energies`` are spelled as on the command line, and ``coupling=None``
    leaves ``--coupling`` out.  A row holds the public functions' values in
    the CSV column order, and every value is finite: the JSON writer has no
    ``NaN`` or ``Infinity``.
    """
    config = ScatteringConfig() if coupling is None else ScatteringConfig(coupling)
    argv = ["scatter"] if coupling is None else ["scatter", "--coupling", repr(coupling)]
    valid = []
    for text in energies:
        e = float(text)
        try:
            jump_condition_residual(e, config)  # every energy check, 2 E included
        except ValueError:
            continue
        argv += ["--E", text]
        valid.append(e)
    if grid is not None:
        argv += ["--grid", grid]
        valid += cli._parse_grid(grid)
    rows = []
    for e in valid:
        amp = amplitudes(e, config)
        t, r = amp.transmission, amp.reflection
        rows.append((
            amp.energy, t.real, t.imag, r.real, r.imag,
            transmission_probability(e, config),
            reflection_probability(e, config),
            jump_condition_residual(e, config),
        ))
    assert all(math.isfinite(v) for row in rows for v in row), argv
    return argv, config.coupling, rows


SCATTER_CASES = {
    "coupling=1": _scatter_case(1.0),
    "coupling=1.5": _scatter_case(1.5),
    "smallest coupling": _scatter_case(_edge_couplings()[0]),
    "largest coupling": _scatter_case(_edge_couplings()[1]),
    "grid to 1e300": _scatter_case(1.0, ("0.0", "-0.0"), "0:1e300:1000"),
    "subnormal grid": _scatter_case(1.0, ("0.0", "-0.0"), "5e-324:1e-300:50"),
    "edge energies": _scatter_case(None, ("0", "5e-324", "1e300"), "1e-300:1e-299:50"),
}


def test_edge_couplings_drop_only_out_of_range_energies():
    counts = {name: len(case[2]) for name, case in SCATTER_CASES.items()}
    assert counts["coupling=1"] == counts["largest coupling"] == 6
    assert counts["smallest coupling"] == 5  # kappa^2 = 1e300 / coupling^2 overflows


class TestScatterWriters:
    """Each format's writer equals the generic renderer over the library's values."""

    @pytest.fixture(params=list(SCATTER_CASES), autouse=True)
    def case(self, request):
        self.argv, self.coupling, self.rows = SCATTER_CASES[request.param]

    def test_point_values_are_the_library_values(self):
        payload = cli._cmd_scatter(cli.build_parser().parse_args(self.argv))
        assert {type(v) for row in payload["rows"] for v in row} == {float}
        # float.hex tells -0.0 from 0.0
        assert [[v.hex() for v in row] for row in payload["rows"]] == [
            [v.hex() for v in row] for row in self.rows
        ]

    def test_scatter_row_is_the_library_values(self):
        # Each column is amplitudes', transmission_probability's,
        # reflection_probability's or jump_condition_residual's value.
        args = cli.build_parser().parse_args(self.argv)
        config = ScatteringConfig(args.coupling)
        rows = [scatter_row(amplitudes(e, config), config) for e in (args.E or []) + (args.grid or [])]
        assert [[v.hex() for v in row] for row in rows] == [[v.hex() for v in row] for row in self.rows]

    def test_json_is_json_dumps(self, capsys):
        document = {
            "command": "scatter",
            "coupling": self.coupling,
            "points": [serialize.scatter_point_payload(row) for row in self.rows],
        }
        code, out, _ = run_cli(capsys, *self.argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(document, indent=2) + "\n"
        # Strict JSON, and json.dumps(indent=2) of what it parses to.
        assert json.dumps(parse_json(out), indent=2) + "\n" == out

    def test_csv_is_csv_writer(self, capsys):
        payload = cli._cmd_scatter(cli.build_parser().parse_args(self.argv))
        header, rows = serialize.scatter_csv_rows(payload)
        assert header == list(serialize.SCATTER_COLUMNS)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        code, out, _ = run_cli(capsys, *self.argv, "--format", "csv")
        assert code == 0
        assert out == buf.getvalue()

    def test_text_is_the_column_formatter(self, capsys):
        code, out, _ = run_cli(capsys, *self.argv, "--format", "text")
        assert code == 0
        assert out == scatter_text(self.coupling, self.rows)


class TestGridLimit:
    def test_limit_is_ten_benchmark_grids(self):
        assert cli.MAX_GRID_POINTS == 100_000

    def test_grid_above_the_limit_is_usage_error(self, capsys, monkeypatch):
        # Rejected before the 100001 points are built.
        code, out, err = run_cli(capsys, "scatter", "--grid", "0:1:100001")
        assert code == 2 and out == ""
        assert "--grid" in err and "at most 100000" in err and "usage:" in err
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        code, out, _ = run_cli(capsys, "scatter", "--grid", "0:1:5", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 6
        code, out, err = run_cli(capsys, "scatter", "--grid", "0:1:6")
        assert code == 2 and out == ""
        assert "--grid" in err and "at most 5" in err and "usage:" in err


class TestArgvLimit:
    def test_limits_hold_every_energy_and_option(self):
        assert cli.MAX_ENERGIES == 1_000 and cli.MAX_ARGS == 2_048
        longest = ["scatter", *["--E", "1"] * cli.MAX_ENERGIES, "--grid", "0:1:2", "--coupling", "1"]
        assert len(longest + ["--format", "csv", "--output", "x"]) <= cli.MAX_ARGS

    def test_every_energy_up_to_the_bound(self, capsys):
        argv = ["scatter", *["--E", "1"] * cli.MAX_ENERGIES, "--coupling", "2", "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 1 + cli.MAX_ENERGIES

    def test_energies_above_the_bound_are_usage_errors(self, capsys):
        # One token per value, so argv itself stays within its bound.
        code, out, err = run_cli(capsys, "scatter", *["--E=1"] * (cli.MAX_ENERGIES + 1))
        assert (code, out) == (2, "")
        assert err == "error: scatter takes at most 1000 --E values, got 1001\n"

    @pytest.mark.parametrize("from_sys_argv", [False, True])
    def test_long_argv_is_refused_before_argparse(self, capsys, monkeypatch, from_sys_argv):
        def never():
            raise AssertionError("argparse read an argv above the bound")

        monkeypatch.setattr(cli, "build_parser", never)
        argv = ["scatter", *["--E", "1.0"] * 100_000]
        monkeypatch.setattr(sys, "argv", ["deltamachine", *argv])
        start = time.perf_counter()
        code = cli.main(None if from_sys_argv else argv)
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: at most 2048 arguments, got 200001\n"


def test_grid_ends_at_hi():
    # LO + (N-1) * step misses HI here (0.10000000000000002), and in about
    # one short decimal grid in twenty below.
    assert cli._parse_grid("0:0.1:12")[-1] == 0.1
    decimals = [f"{i / 10:g}" for i in range(31)]  # 0, 0.1, ..., 3
    for a, lo in enumerate(decimals):
        for hi in decimals[a + 1:]:
            for n in range(2, 111):
                spec = f"{lo}:{hi}:{n}"
                points = cli._parse_grid(spec)
                assert len(points) == n and points[0] == float(lo), spec
                assert points[-1] == float(hi), spec
                assert all(p <= q for p, q in zip(points, points[1:])), spec


class TestEpsilon:
    def test_closed_form_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "epsilon", "--theta", "0", "--eps", "0.3", "--format", "json"
        )
        assert code == 0
        payload = parse_json(out)
        assert payload["closed_form"]["p_plus"] == 1.0
        assert payload["simulation"] is None

    def test_with_simulation(self, capsys):
        code, out, _ = run_cli(
            capsys, "epsilon", "--theta", "1.5707963267948966", "--eps", "1",
            "--n", "2000", "--seed", "5", "--format", "json",
        )
        assert code == 0
        sim = parse_json(out)["simulation"]
        assert sim["n_trials"] == 2000 and sim["seed"] == 5
        assert abs(sim["frequency"]["decimal"] - 0.5) < 0.05

    def test_csv_matches_json(self, capsys):
        args = ("epsilon", "--theta", "0.8", "--eps", "0.6", "--n", "500", "--seed", "3")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        payload = parse_json(json_out)
        header, rows = parse_csv(csv_out)
        record = dict(zip(header, rows[0]))
        assert float(record["p_plus"]) == payload["closed_form"]["p_plus"]
        assert float(record["cos_theta"]) == payload["cos_theta"]
        assert int(record["transmitted"]) == payload["simulation"]["transmitted"]
        assert float(record["lower"]) == payload["simulation"]["lower"]
        assert float(record["upper"]) == payload["simulation"]["upper"]


class TestClassify:
    def test_json_verdict_mapping(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--K", "5", "--format", "json")
        assert code == 0
        payload = parse_json(out)
        assert payload["verdicts"] == {
            "1": "Quantum",
            "2": "Quantum",
            "3": "Intermediate",
            "4": "Intermediate",
            "5": "Classical",
        }
        assert payload["witnesses"]["3"][0] == {
            "kind": "NonQuantumZeroTransmission",
            "k_plus": 1,
            "k_minus": 4,
        }
        assert payload["notes"] == {str(k): None for k in range(1, 6)}

    def test_note_renders_in_every_format(self):
        # classify_table produces no note for small K (see test_regimes), so
        # a hand-built verdict carries it through the payload and renderers.
        verdict = RegimeVerdict(
            verdict=Regime.INTERMEDIATE,
            witnesses=(Witness(WitnessKind.NON_CLASSICAL_INDETERMINISM, ElectricState(1, 2)),),
            note=regimes._UNDECIDED_NOTE,
        )
        payload = {"command": "classify", "K": 3, **serialize.verdicts_payload({2: verdict})}
        assert cli._classify_text(payload) == (
            "regime classification, K = 3\n"
            "k=2: Intermediate  [NonClassicalIndeterminism(1/2)]"
            f"  note: {regimes._UNDECIDED_NOTE}\n"
        )
        header, rows = serialize.classify_csv_rows(payload)
        assert header[-1] == "note"
        assert rows == [[2, "Intermediate", "NonClassicalIndeterminism(1/2)", regimes._UNDECIDED_NOTE]]

    def test_text_lists_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--K", "5")
        assert code == 0
        assert "k=3: Intermediate" in out
        assert "NonQuantumZeroTransmission(1/4)" in out

    @pytest.mark.parametrize("K", range(1, 129))
    def test_text_matches_the_payload_reference(self, K):
        # Large K gives the longest witness lists, each re-joined from its CSV
        # cell.  Lines are compared, since pytest's diff of two long strings is slow.
        verdicts = regimes.classify_table(K, ceiling=K)
        payload = {"command": "classify", "K": K, **serialize.verdicts_payload(verdicts)}
        assert cli._classify_text(payload).split("\n") == classify_text(payload).split("\n")

    def test_noted_text_matches_the_payload_reference(self):
        verdict = RegimeVerdict(
            verdict=Regime.INTERMEDIATE,
            witnesses=(
                Witness(WitnessKind.NON_CLASSICAL_INDETERMINISM, ElectricState(1, 2)),
                Witness(WitnessKind.NON_QUANTUM_ZERO_TRANSMISSION, ElectricState(0, 3)),
            ),
            note=regimes._UNDECIDED_NOTE,
        )
        payload = {"command": "classify", "K": 3, **serialize.verdicts_payload({2: verdict})}
        assert cli._classify_text(payload) == classify_text(payload)


class TestConvergence:
    def test_series_shrinks_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--kp", "2", "--km", "1", "--k", "1",
            "--seed", "3", "--schedule", "100,1000,10000", "--format", "json",
        )
        assert code == 0
        series = parse_json(out)["series"]
        for e in series:
            assert 0.0 <= e["lower"] <= e["frequency"]["decimal"] <= e["upper"] <= 1.0
        widths = [e["upper"] - e["lower"] for e in series]
        assert widths[0] > widths[1] > widths[2]

    def test_prefix_consistency(self, capsys):
        # Counter-mode per-trial seeds: the first 100 trials of a longer run
        # are the 100-trial run.
        _, out_small, _ = run_cli(
            capsys, "convergence", "--kp", "2", "--km", "1", "--k", "1",
            "--seed", "9", "--schedule", "100", "--format", "json",
        )
        _, out_big, _ = run_cli(
            capsys, "convergence", "--kp", "2", "--km", "1", "--k", "1",
            "--seed", "9", "--schedule", "100,400", "--format", "json",
        )
        small = parse_json(out_small)["series"][0]
        big = parse_json(out_big)["series"][0]
        assert small["transmitted"] == big["transmitted"]

    @pytest.mark.parametrize("schedule", ["10,x", "", "10,-5"])
    def test_malformed_schedule_is_usage_error(self, capsys, schedule):
        code, out, err = run_cli(
            capsys, "convergence", "--kp", "1", "--km", "1", "--k", "1",
            "--seed", "1", "--schedule", schedule,
        )
        assert code == 2 and out == ""
        assert "usage:" in err
        message = (
            "expected a positive integer, got '-5'" if schedule == "10,-5"
            else f"expected comma-separated integers, got {schedule!r}"
        )
        assert f"argument --schedule: {message}" in err

    def test_default_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--kp", "1", "--km", "1", "--k", "1",
            "--seed", "2", "--schedule", "10,20", "--format", "json",
        )
        assert code == 0
        assert parse_json(out)["schedule"] == [10, 20]
        assert cli.DEFAULT_SCHEDULE == (100, 1000, 10_000, 100_000)

    def test_csv_matches_json(self, capsys):
        args = ("convergence", "--kp", "3", "--km", "1", "--k", "2",
                "--seed", "6", "--schedule", "50,200")
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        series = parse_json(json_out)["series"]
        header, rows = parse_csv(csv_out)
        assert len(rows) == len(series)
        for row, entry in zip(rows, series):
            record = dict(zip(header, row))
            assert int(record["transmitted"]) == entry["transmitted"]
            assert float(record["abs_error"]) == entry["abs_error"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--n", "20", "--seed", "3"),
        ("epsilon", "--theta", "0.8", "--eps", "0.6", "--n", "20", "--seed", "3"),
        ("convergence", "--kp", "2", "--km", "1", "--k", "1", "--seed", "3", "--schedule", "10,20"),
    ],
    ids=lambda argv: argv[0],
)
def test_negative_zero_z_prints_as_zero(capsys, argv, fmt):
    negative = run_cli(capsys, *argv, "--z", "-0", "--format", fmt)
    positive = run_cli(capsys, *argv, "--z", "0", "--format", fmt)
    assert negative == positive and negative[0] == 0


@pytest.mark.parametrize("z", ["-1", "nan", "inf", "1e400", "abc"])
@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--n", "20", "--seed", "3"),
        ("convergence", "--kp", "2", "--km", "1", "--k", "1", "--seed", "3", "--schedule", "10"),
        ("epsilon", "--theta", "1", "--eps", "0.5", "--n", "20", "--seed", "3"),
        # No ensemble runs without --n, and --z is still checked.
        ("epsilon", "--theta", "1", "--eps", "0.5"),
    ],
    ids=["simulate", "convergence", "epsilon", "epsilon-closed-form"],
)
def test_bad_z_is_usage_error(capsys, argv, z):
    code, out, err = run_cli(capsys, *argv, "--z", z)
    assert (code, out) == (2, "")
    assert "--z" in err and "usage:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--kp", "2", "--km", "1", "--k", "1", "--n", "500", "--seed", "4"),
        ("epsilon", "--theta", "0.8", "--eps", "0.6", "--n", "500", "--seed", "3"),
        ("epsilon", "--theta", "0.8", "--eps", "0.6"),
        ("convergence", "--kp", "3", "--km", "1", "--k", "2", "--seed", "6", "--schedule", "50,200"),
    ],
    ids=["simulate", "epsilon", "epsilon-closed-form", "convergence"],
)
def test_ensemble_text_is_the_csv_grid(capsys, argv):
    code, text, _ = run_cli(capsys, *argv)
    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    title, *grid = text.splitlines()
    assert code == 0 and title.endswith(("ensemble", "measurement"))
    assert [line.split() for line in grid] == list(csv.reader(io.StringIO(csv_out)))


@pytest.mark.parametrize("row", [["1"], ["1", "22", "333"]], ids=["short", "long"])
def test_grid_text_refuses_a_row_unlike_the_header(row):
    # zip without strict= would drop the extra or missing column, and the
    # misshapen row would fail later, in % formatting, with a TypeError.
    assert cli._grid_text(["a", "b"], [["1", "22"]]) == "a   b\n1  22\n"
    with pytest.raises(ValueError):
        cli._grid_text(["a", "b"], [["1", "22"], row])


@pytest.mark.parametrize(
    "argv, lower, upper",
    [
        # Every trial agrees, yet the exact p is 1/201: the interval keeps a width.
        (("--kp", "1", "--km", "200", "--n", "50", "--seed", "3"), 0.0, 9 / 59),
        # A z far beyond any confidence level still bounds a probability.
        (("--kp", "2", "--km", "1", "--n", "3", "--seed", "1", "--z", "1e308"), 0.0, 1.0),
    ],
)
def test_interval_stays_honest_at_the_edges(capsys, argv, lower, upper):
    code, out, _ = run_cli(capsys, "simulate", "--k", "1", *argv, "--format", "json")
    result = parse_json(out)["result"]
    assert code == 0 and (result["lower"], result["upper"]) == (lower, upper)
    code, out, _ = run_cli(capsys, "simulate", "--k", "1", *argv, "--format", "csv")
    header, (row,) = parse_csv(out)
    record = dict(zip(header, row))
    assert code == 0 and (float(record["lower"]), float(record["upper"])) == (lower, upper)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_negative_zero_angle_and_fraction_print_as_zero(capsys, fmt):
    argv = ("epsilon", "--n", "5", "--seed", "1", "--format", fmt)
    negative = run_cli(capsys, *argv, "--theta", "-0", "--eps", "-0")
    positive = run_cli(capsys, *argv, "--theta", "0", "--eps", "0")
    assert negative == positive and negative[0] == 0


class TestOutputDestinations:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "tables", "--K", "3", "--format", "json", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert_exact_table(json.loads(target.read_text()), probability_table(3))

    def test_unwritable_output_flag_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, "tables", "--K", "3", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(cli._DISPATCH))
    def test_unwritable_output_is_refused_before_the_command_runs(
        self, capsys, monkeypatch, tmp_path, command
    ):
        def never(args):
            raise AssertionError(f"{command} ran although its output is unwritable")

        monkeypatch.setitem(cli._DISPATCH, command, never)
        argv = {
            "tables": ["--K", "3"],
            "classify": ["--K", "3"],
            "simulate": ["--kp", "1", "--km", "1", "--k", "1", "--n", "10"],
            "convergence": ["--kp", "1", "--km", "1", "--k", "1"],
            "scatter": ["--E", "1"],
            "epsilon": ["--theta", "1", "--eps", "0.5"],
        }[command]
        for target in (str(tmp_path / "missing" / "x.txt"), ""):
            code, out, err = run_cli(capsys, command, *argv, "--output", target)
            assert (code, out) == (2, ""), target
            assert err.startswith("error: cannot write output:") and "Traceback" not in err

    def test_a_failed_command_leaves_an_existing_file_unchanged(self, capsys, tmp_path):
        target = tmp_path / "table.txt"
        target.write_bytes(b"kept\n")
        code, out, err = run_cli(capsys, "simulate", "--kp", "2", "--km", "1", "--k", "4", "--n", "10", "--output", str(target))
        assert (code, out) == (2, "") and err.startswith("error:")
        assert target.read_bytes() == b"kept\n"


_CELL = ("--kp", "2", "--km", "1", "--k", "1")

#: Edge inputs of every command: each exits 0 or 2, never with a traceback.
EDGE_ARGV = [
    *[(command, "--K", K) for command in ("tables", "classify") for K in ("0", "-3", "257")],
    *[("scatter", "--E", E) for E in ("nan", "inf", "-0.0", "1e-320")],
    *[("scatter", "--E", "1", "--coupling", g) for g in ("0", "-1", "inf", "nan", "1e154")],
    ("scatter", "--E", "1e308", "--coupling", "1e-160"),
    ("scatter", "--grid", "0:1e308:3"),
    ("scatter", "--E", "1e300", "--coupling", "1e-5"),
    *[
        ("simulate", "--kp", kp, "--km", km, "--k", k, "--n", "10", "--seed", "1")
        for kp, km, k in (("0", "0", "1"), ("-1", "2", "1"), ("2", "1", "0"), ("2", "1", "4"), ("20001", "20000", "1"))
    ],
    *[("simulate", *_CELL, "--n", "10", "--seed", seed) for seed in ("-1", str(2**80))],
    *[("simulate", *_CELL, "--n", "10", "--seed", "1", "--z", z) for z in ("1e200", "1e-200")],
    ("epsilon", "--theta", "nan", "--eps", "0.5"),
    ("epsilon", "--theta", "1", "--eps", "2"),
    ("epsilon", "--theta", "-0.0", "--eps", "-0.0"),
    ("epsilon", "--theta", "1", "--eps", "5e-324", "--n", "3", "--seed", "1"),
    *[("convergence", *_CELL, "--seed", "1", "--schedule", schedule) for schedule in ("0", "3,,4", "5,3")],
    # Certain cells, counted without drawing, at a count no double holds.
    ("simulate", "--kp", "1", "--km", "0", "--k", "1", "--n", str(10**400), "--seed", "1"),
    ("convergence", "--kp", "2", "--km", "0", "--k", "1", "--schedule", f"5,{10**400}"),
    ("epsilon", "--theta", "0", "--eps", "0.5", "--n", str(10**400)),
]


def check_exit_contract(capsys, argv, fmt):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code in (0, 2) and "Traceback" not in err, err
    if code == 2:
        assert out == ""
    elif fmt == "json":
        parse_json(out)
    return code, err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", EDGE_ARGV, ids=" ".join)
def test_edge_inputs_keep_the_exit_code_contract(capsys, argv, fmt):
    check_exit_contract(capsys, argv, fmt)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_full_device_is_a_usage_error(capsys, fmt):
    code, err = check_exit_contract(capsys, ("tables", "--K", "3", "--output", "/dev/full"), fmt)
    assert code == 2 and err.startswith("error: cannot write output:") and "No space" in err


class TestModuleSeams:
    """Commands call the library through ``cli`` module attributes.

    ``bench/tracing.py`` counts scattering points, tables, verdicts and output
    bytes by wrapping these attributes, so each call must go through them.
    """

    def test_commands_call_the_module_attributes(self, capsys, monkeypatch):
        calls = Counter()
        for name in ("amplitudes", "probability_table", "classify_table"):
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        written = []
        write = cli._write_output
        monkeypatch.setattr(
            cli, "_write_output", lambda output, rendered: (written.append(rendered), write(output, rendered))
        )
        outputs = [
            run_cli(capsys, "scatter", "--E", "2", "--grid", "0.1:10:7")[1],
            run_cli(capsys, "tables", "--K", "4")[1],
            run_cli(capsys, "classify", "--K", "4")[1],
        ]
        assert calls == {"amplitudes": 8, "probability_table": 1, "classify_table": 1}
        assert written == outputs


def test_module_entry_point_runs(tmp_path):
    # The names of two removed environment overrides, set to values that
    # would change the report if the entry point read them.
    hostile = {"DELTAMACHINE_OUTPUT": str(tmp_path / "out.txt"), "DELTAMACHINE_TABLE_CEILING": "1"}
    env = dict(os.environ, PYTHONPATH=SRC, **hostile)
    proc = subprocess.run(
        [sys.executable, "-m", "deltamachine", "tables", "--K", "3", "--golden"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "golden check passed" in proc.stdout
