"""Event-level machine simulation: determinism, traces, statistics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from deltamachine import ensemble as ensemble_mod
from deltamachine import machine as machine_mod
from deltamachine import rng
from deltamachine.ensemble import normal_half_width
from deltamachine.machine import (
    MachinePhase,
    Outcome,
    PHASE_ORDER,
    Sphere,
    Tilt,
    empirical_table,
    run_ensemble,
    run_trial,
    spheres_for_state,
)
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    probability_table,
    transmission_probability_exact,
)


class TestSphere:
    def test_rejects_neutral_charge(self):
        with pytest.raises(ValueError):
            Sphere(charge=0, id=1)

    def test_state_labelling(self):
        spheres = spheres_for_state(ElectricState(2, 3))
        assert [s.charge for s in spheres] == [1, 1, -1, -1, -1]
        assert sorted(s.id for s in spheres) == list(range(5))


class TestRunTrial:
    def test_all_negative_always_reflects(self):
        for seed in range(25):
            out = run_trial(ElectricState(0, 5), KMeasurement(1), seed)
            assert out.result is Outcome.REFLECTED
            assert not out.tie_broken

    def test_all_positive_always_transmits(self):
        for seed in range(25):
            out = run_trial(ElectricState(5, 0), KMeasurement(3), seed)
            assert out.result is Outcome.TRANSMITTED

    def test_balanced_pair_always_tie_broken(self):
        for seed in range(50):
            out = run_trial(ElectricState(1, 1), KMeasurement(2), seed)
            assert out.tie_broken

    def test_odd_tranches_never_tie(self):
        for seed in range(200):
            out = run_trial(ElectricState(3, 4), KMeasurement(3), seed)
            assert not out.tie_broken

    def test_rejects_oversized_tranche(self):
        with pytest.raises(ValueError):
            run_trial(ElectricState(2, 2), KMeasurement(5), 0)

    def test_deterministic_in_seed(self):
        state, meas = ElectricState(3, 2), KMeasurement(2)
        for seed in (0, 7, 2**63 + 11):
            a = run_trial(state, meas, seed, record_trace=True)
            b = run_trial(state, meas, seed, record_trace=True)
            assert a == b

    def test_trace_off_by_default(self):
        assert run_trial(ElectricState(2, 1), KMeasurement(1), 5).trace is None


class TestTrace:
    def trial(self, kp=3, km=2, k=2, seed=11):
        return run_trial(
            ElectricState(kp, km), KMeasurement(k), seed, record_trace=True
        )

    def test_phases_in_order_exactly_once(self):
        trace = self.trial().trace
        assert tuple(r.phase for r in trace) == PHASE_ORDER

    def test_queue_is_permutation_of_cluster(self):
        out = self.trial(seed=99)
        queue = out.trace[1].queue
        assert sorted(s.id for s in queue) == list(range(5))
        assert sum(s.charge for s in queue) == 1

    def test_first_tranche_is_queue_head(self):
        out = self.trial(k=3, seed=4)
        assert out.trace[2].tranche == out.trace[1].queue[:3]

    def test_settled_routes_every_sphere(self):
        out = self.trial(seed=21)
        settled = out.trace[3]
        assert settled.phase is MachinePhase.SETTLED
        assert settled.routed == 5
        assert out.trace[4].tilt is settled.tilt

    def test_result_matches_tilt(self):
        for seed in range(40):
            out = self.trial(seed=seed)
            tilt = out.trace[3].tilt
            expected = Outcome.TRANSMITTED if tilt is Tilt.RIGHT else Outcome.REFLECTED
            assert out.result is expected

    def test_replay_first_tranche_decides_outcome(self):
        # Independent replay: the first tranche's majority must explain the
        # recorded tilt; balanced tranches must carry the tie flag.
        for kp, km, k in [(3, 2, 2), (2, 2, 2), (4, 3, 3), (1, 1, 2), (5, 3, 4)]:
            for seed in range(60):
                out = self.trial(kp, km, k, seed)
                charge = sum(s.charge for s in out.trace[2].tranche)
                if charge > 0:
                    assert out.trace[3].tilt is Tilt.RIGHT and not out.tie_broken
                elif charge < 0:
                    assert out.trace[3].tilt is Tilt.LEFT and not out.tie_broken
                else:
                    assert out.tie_broken


class TestRunEnsemble:
    def test_matches_scalar_trials(self):
        state, meas, master = ElectricState(3, 2), KMeasurement(2), 123456789
        n = 500
        result = run_ensemble(state, meas, n, master)
        scalar = sum(
            run_trial(state, meas, rng.substream_seed(master, i)).result
            is Outcome.TRANSMITTED
            for i in range(n)
        )
        assert result.transmitted == scalar

    def test_bitwise_reproducible(self):
        a = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10_000, 42)
        b = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10_000, 42)
        assert a == b

    def test_chunking_invisible(self, monkeypatch):
        args = (ElectricState(4, 3), KMeasurement(3), 4096, 7)
        full = run_ensemble(*args)
        monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 129 * (7 + ensemble_mod.TRIAL_BYTES))
        chunked = run_ensemble(*args)
        assert full == chunked

    def test_result_fields(self):
        r = run_ensemble(ElectricState(2, 1), KMeasurement(1), 1000, 9, z=2.5)
        assert r.n_trials == 1000
        assert r.frequency == Fraction(r.transmitted, 1000)
        assert r.z == 2.5
        assert r.generator == rng.GENERATOR_NAME
        assert r.seed == 9
        p = float(r.frequency)
        assert r.half_width == pytest.approx(2.5 * math.sqrt(p * (1 - p) / 1000))

    def test_deterministic_state_is_exact(self):
        assert run_ensemble(ElectricState(0, 3), KMeasurement(2), 100, 5).frequency == 0
        assert run_ensemble(ElectricState(4, 0), KMeasurement(2), 100, 5).frequency == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_ensemble(ElectricState(2, 1), KMeasurement(4), 10, 0)
        with pytest.raises(ValueError):
            run_ensemble(ElectricState(2, 1), KMeasurement(1), 0, 0)
        with pytest.raises(TypeError):
            ensemble_mod.run_counted(True, 0, lambda seeds: seeds % 2 == 0)
        with pytest.raises(TypeError):
            ensemble_mod.run_counted(10.0, 0, lambda seeds: seeds % 2 == 0)

    def test_numpy_integer_trial_count(self):
        result = run_ensemble(ElectricState(2, 1), KMeasurement(1), np.int64(500), 7)
        assert result == run_ensemble(ElectricState(2, 1), KMeasurement(1), 500, 7)
        assert type(result.n_trials) is int

    def test_balanced_full_tranche_frequency(self):
        # K+ = K- with k = K: every trial is a tie and the coin is fair.
        result = run_ensemble(ElectricState(2, 2), KMeasurement(4), 50_000, 77)
        for seed in range(30):
            assert run_trial(
                ElectricState(2, 2), KMeasurement(4), rng.substream_seed(77, seed)
            ).tie_broken
        assert abs(float(result.frequency) - 0.5) <= normal_half_width(0.5, 50_000, 4.0)


class TestKernelParity:
    """The truncated vectorized kernel against the full scalar shuffle."""

    SEEDS = rng.substream_seeds(2024, 0, 32)

    def check(self, kp, km, k):
        state = ElectricState(kp, km)
        charges = np.array([s.charge for s in spheres_for_state(state)], dtype=np.int8)
        got = machine_mod._transmitted_mask(charges, k, self.SEEDS)
        expected = [
            run_trial(state, KMeasurement(k), int(seed)).result is Outcome.TRANSMITTED
            for seed in self.SEEDS
        ]
        assert got.tolist() == expected, (kp, km, k)

    @pytest.mark.parametrize("K", range(1, 13))
    def test_every_cell_up_to_twelve(self, K):
        for kp in range(K + 1):
            for k in range(1, K + 1):
                self.check(kp, K - kp, k)

    @pytest.mark.parametrize("K", [64, 256])
    def test_truncation_boundary_and_ties(self, K):
        for kp in (K // 2 - 1, K // 2):
            for k in (1, 2, K - 1, K):
                self.check(kp, K - kp, k)

    @pytest.mark.parametrize("block", [1, 3 * 32])
    def test_draw_blocks_invisible(self, monkeypatch, block):
        # One step per RNG call (chunks of 16384+ trials), and blocks of
        # three steps with a partial last block.
        monkeypatch.setattr(machine_mod, "_DRAWS_PER_BLOCK", block)
        for kp, k in ((5, 1), (6, 2), (6, 7), (4, 8), (3, 11)):
            self.check(kp, 12 - kp, k)


class TestChunkBudget:
    def spy_sizes(self, monkeypatch):
        sizes = []
        kernel = machine_mod._transmitted_mask

        def spy(charges, k, trial_seeds):
            sizes.append(trial_seeds.size)
            return kernel(charges, k, trial_seeds)

        monkeypatch.setattr(machine_mod, "_transmitted_mask", spy)
        return sizes

    @pytest.mark.parametrize(
        "trial_bytes, n", [(1, 5000), (32, 70_000), (288, 10_000), (20_032, 100), (3 << 20, 5)]
    )
    def test_run_counted_respects_budget(self, trial_bytes, n):
        sizes = []

        def mask(seeds):
            sizes.append(seeds.size)
            return seeds % 2 == 0

        result = ensemble_mod.run_counted(n, 5, mask, trial_bytes=trial_bytes)
        assert max(sizes) <= max(1, ensemble_mod.CHUNK_BYTES // trial_bytes)
        assert sum(sizes) == n
        assert result == ensemble_mod.run_counted(n, 5, mask)

    def test_rejects_bad_trial_bytes(self):
        for bad, error in ((0, ValueError), (-32, ValueError), (32.0, TypeError)):
            with pytest.raises(error):
                ensemble_mod.run_counted(10, 0, lambda seeds: seeds % 2 == 0, trial_bytes=bad)

    def test_default_chunk_is_32768_trials(self):
        sizes = []
        ensemble_mod.run_counted(70_000, 5, lambda seeds: sizes.append(seeds.size) or seeds % 2 == 0)
        assert sizes == [32768, 32768, 70_000 - 65536]

    def test_large_cluster_chunks_stay_small(self, monkeypatch):
        sizes = self.spy_sizes(monkeypatch)
        K = 20_000
        result = run_ensemble(ElectricState(K // 2, K // 2), KMeasurement(K - 1), 100, 3)
        assert result.n_trials == 100
        assert sum(sizes) == 100
        assert max(sizes) <= 52 == ensemble_mod.CHUNK_BYTES // (K + ensemble_mod.TRIAL_BYTES)

    def test_tiny_chunks_leave_counts_unchanged(self, monkeypatch):
        args = (ElectricState(128, 128), KMeasurement(10), 5000, 17)
        full = run_ensemble(*args)
        sizes = self.spy_sizes(monkeypatch)
        monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 7 * (256 + ensemble_mod.TRIAL_BYTES))
        assert run_ensemble(*args) == full
        assert max(sizes) == 7


class TestStatisticalAgreement:
    # K in {3, 5, 7} at 1e5 trials runs in the acceptance suite; the even
    # and tiny sizes are covered here at the same confidence level.
    @pytest.mark.parametrize("K", [1, 2, 4, 6])
    def test_even_and_tiny_sizes(self, K):
        n = 100_000
        table = empirical_table(K, n, 1905 + K, z=4.0)
        exact = probability_table(K)
        for exact_row, emp_row in zip(exact.rows, table.rows):
            for (state, p), (_, res) in zip(exact_row.entries, emp_row.entries):
                pf = float(p)
                bound = normal_half_width(pf, n, 4.0)
                assert abs(float(res.frequency) - pf) <= bound, (K, exact_row.k, state)

    def test_reference_cells_at_seed_42(self):
        n = 100_000
        r = run_ensemble(ElectricState(2, 1), KMeasurement(1), n, 42)
        assert abs(float(r.frequency) - 2 / 3) <= normal_half_width(2 / 3, n, 3.0)
        r = run_ensemble(ElectricState(3, 2), KMeasurement(4), n, 42)
        assert abs(float(r.frequency) - 7 / 10) <= normal_half_width(7 / 10, n, 3.0)

    def test_three_sphere_table_at_three_sigma(self):
        n = 100_000
        emp = empirical_table(3, n, 42, z=3.0)
        exact = probability_table(3)
        for exact_row, emp_row in zip(exact.rows, emp.rows):
            for (state, p), (_, res) in zip(exact_row.entries, emp_row.entries):
                pf = float(p)
                bound = normal_half_width(pf, n, 3.0)
                assert abs(float(res.frequency) - pf) <= bound, (exact_row.k, state)


class TestEmpiricalTable:
    def test_single_sphere_cells_exact(self):
        table = empirical_table(1, 50, 3)
        row = table.rows[0]
        assert row.entries[0][1].frequency == 0
        assert row.entries[1][1].frequency == 1

    def test_reruns_identical(self):
        a = empirical_table(5, 300, 11)
        b = empirical_table(5, 300, 11)
        assert a == b

    def test_geometry_matches_exact_table(self):
        table = empirical_table(4, 10, 2)
        assert [row.k for row in table.rows] == [1, 2, 3, 4]
        for row in table.rows:
            assert [s.k_plus for s, _ in row.entries] == list(range(5))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            empirical_table(0, 10, 1)
        with pytest.raises(ValueError):
            empirical_table(80, 10, 1)

    def test_row_index_types(self):
        table = empirical_table(2, 10, 5)
        assert table.row(np.int64(2)) is table.rows[1]
        for bad in (True, 1.0):
            with pytest.raises(TypeError):
                table.row(bad)


class TestSeedTypes:
    """A seed is an integer, so a result reports the stream it really used."""

    STATE, MEAS = ElectricState(3, 4), KMeasurement(3)
    NON_INTEGERS = (1.0, 1.2, 1.9, True, "1")

    @pytest.mark.parametrize("seed", NON_INTEGERS)
    def test_non_integer_seeds_rejected(self, seed):
        with pytest.raises(TypeError, match="seed"):
            run_ensemble(self.STATE, self.MEAS, 1000, seed)
        with pytest.raises(TypeError, match="seed"):
            run_trial(self.STATE, self.MEAS, seed)
        with pytest.raises(TypeError, match="seed"):
            empirical_table(2, 10, seed)

    def test_numpy_and_negative_seeds_accepted(self):
        reference = run_ensemble(self.STATE, self.MEAS, 1000, 1)
        for seed in (np.int64(1), np.uint64(1)):
            assert run_ensemble(self.STATE, self.MEAS, 1000, seed) == reference
            assert run_trial(self.STATE, self.MEAS, seed) == run_trial(self.STATE, self.MEAS, 1)
        assert run_ensemble(self.STATE, self.MEAS, 1000, -1).seed == 2**64 - 1
        assert run_trial(self.STATE, self.MEAS, -1) == run_trial(self.STATE, self.MEAS, 2**64 - 1)
        table = empirical_table(2, 10, np.int64(-1))
        assert table.seed == 2**64 - 1 and type(table.seed) is int

    @pytest.mark.parametrize("ceiling", (5.5, 70.0, True))
    def test_empirical_table_rejects_non_integer_ceiling(self, ceiling):
        with pytest.raises(TypeError, match="ceiling"):
            empirical_table(2, 10, 1, ceiling=ceiling)


def test_exact_expectation_reference():
    # The cell the CLI example uses: expected exactly 2/3.
    assert transmission_probability_exact(
        ElectricState(2, 1), KMeasurement(1)
    ) == Fraction(2, 3)
