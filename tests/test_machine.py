"""Sphere-machine simulation: kernel parity, replay, chunking, statistics."""

import inspect
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import normal_half_width
from deltamachine import ensemble as ensemble_mod
from deltamachine import machine as machine_mod
from deltamachine import cli, elastic, rng, spheres
from deltamachine.machine import Outcome, empirical_table, run_ensemble, run_trial
from deltamachine.spheres import (
    ElectricState,
    KMeasurement,
    determinism_threshold,
    probability_table,
    transmission_probability_exact,
)


class TestRunTrial:
    def test_all_negative_always_reflects(self):
        for seed in range(25):
            assert run_trial(ElectricState(0, 5), KMeasurement(1), seed) is Outcome.REFLECTED

    def test_all_positive_always_transmits(self):
        for seed in range(25):
            assert run_trial(ElectricState(5, 0), KMeasurement(3), seed) is Outcome.TRANSMITTED

    def test_balanced_pair_is_the_coin_of_draw_one(self):
        # Every tranche of (1, 1) with k = 2 is balanced: draw K-1 decides.
        for seed in range(50):
            transmitted = run_trial(ElectricState(1, 1), KMeasurement(2), seed) is Outcome.TRANSMITTED
            assert transmitted == oracles.coin(oracles.reference_draw(seed, 1))
            assert transmitted == oracles.sphere_trial(1, 1, 2, seed)

    def test_rejects_oversized_tranche(self):
        with pytest.raises(ValueError):
            run_trial(ElectricState(2, 2), KMeasurement(5), 0)

    def test_deterministic_in_seed(self):
        state, meas = ElectricState(3, 2), KMeasurement(2)
        for seed in (0, 7, 2**63 + 11):
            assert run_trial(state, meas, seed) is run_trial(state, meas, seed)


class TestReplay:
    """Trial i of an ensemble is run_trial on child seed i, at any chunking."""

    CELLS = [(3, 2, 2), (4, 3, 3), (2, 2, 4), (10, 6, 5), (1, 0, 1)]

    def check(self, monkeypatch, kp, km, k):
        n, master = 300, 20261018
        masks = []
        kernel = machine_mod._transmitted_mask

        def spy(charges, k, trial_seeds):
            masks.append(kernel(charges, k, trial_seeds))
            return masks[-1]

        monkeypatch.setattr(machine_mod, "_transmitted_mask", spy)
        state, meas = ElectricState(kp, km), KMeasurement(k)
        result = run_ensemble(state, meas, n, master)
        monkeypatch.setattr(machine_mod, "_transmitted_mask", kernel)
        replayed = [
            run_trial(state, meas, rng.substream_seed(master, i)) is Outcome.TRANSMITTED
            for i in range(n)
        ]
        assert sum(replayed) == result.transmitted
        if k >= determinism_threshold(state):
            # The ensemble of a certain cell runs no kernel; every replay agrees.
            assert masks == [] and len(set(replayed)) == 1
            return
        chunk = ensemble_mod.CHUNK_BYTES // machine_mod._trial_bytes(state)
        assert len(masks) == -(-n // chunk)
        assert np.concatenate(masks).tolist() == replayed

    @pytest.mark.parametrize("kp, km, k", CELLS)
    def test_default_chunks(self, monkeypatch, kp, km, k):
        self.check(monkeypatch, kp, km, k)

    @pytest.mark.parametrize("kp, km, k", CELLS)
    def test_small_chunks(self, monkeypatch, kp, km, k):
        # 35 trials per chunk: 9 chunks, the last one partial.
        trial_bytes = machine_mod._trial_bytes(ElectricState(kp, km))
        monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 35 * trial_bytes + trial_bytes - 1)
        self.check(monkeypatch, kp, km, k)


class TestRunEnsemble:
    def test_matches_scalar_trials(self):
        state, meas, master = ElectricState(3, 2), KMeasurement(2), 123456789
        n = 500
        result = run_ensemble(state, meas, n, master)
        scalar = sum(
            oracles.sphere_trial(3, 2, 2, rng.substream_seed(master, i)) for i in range(n)
        )
        assert result.transmitted == scalar

    def test_bitwise_reproducible(self):
        a = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10_000, 42)
        b = run_ensemble(ElectricState(2, 1), KMeasurement(1), 10_000, 42)
        assert a == b

    def test_chunking_invisible(self, monkeypatch):
        args = (ElectricState(4, 3), KMeasurement(3), 4096, 7)
        full = run_ensemble(*args)
        monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 129 * machine_mod._trial_bytes(args[0]))
        chunked = run_ensemble(*args)
        assert full == chunked

    def test_result_fields(self):
        r = run_ensemble(ElectricState(2, 1), KMeasurement(1), 1000, 9)
        assert [f.name for f in fields(r)] == ["n_trials", "transmitted", "seed"]
        assert r.n_trials == 1000
        assert r.frequency == Fraction(r.transmitted, 1000)
        assert r.generator == rng.GENERATOR_NAME
        assert r.seed == 9

    def test_frequency_and_generator_follow_the_fields(self):
        r = run_ensemble(ElectricState(2, 1), KMeasurement(1), 1000, 9)
        changed = replace(r, transmitted=r.transmitted + 1)
        assert changed.frequency == Fraction(r.transmitted + 1, 1000)
        assert changed.generator == rng.GENERATOR_NAME
        assert replace(r, n_trials=3000).frequency == Fraction(r.transmitted, 3000)

    @pytest.mark.parametrize(
        "name, value", [("frequency", Fraction(1, 2)), ("generator", rng.GENERATOR_NAME)]
    )
    def test_derived_values_are_not_fields(self, name, value):
        with pytest.raises(TypeError):
            ensemble_mod.EnsembleResult(n_trials=10, transmitted=5, seed=1, **{name: value})
        r = ensemble_mod.EnsembleResult(n_trials=10, transmitted=5, seed=1)
        with pytest.raises(AttributeError):
            setattr(r, name, value)

    @pytest.mark.parametrize(
        "function",
        [ensemble_mod.run_counted, run_ensemble, elastic.simulate_elastic, empirical_table],
    )
    def test_simulations_take_no_interval_level(self, function):
        # The interval and its level z belong to the report (serialize).
        assert "z" not in inspect.signature(function).parameters

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
        for i in range(30):
            seed = rng.substream_seed(77, i)
            coin = oracles.coin(oracles.reference_draw(seed, 3))
            assert oracles.sphere_trial(2, 2, 4, seed) == coin
            assert (run_trial(ElectricState(2, 2), KMeasurement(4), seed) is Outcome.TRANSMITTED) == coin
        assert abs(float(result.frequency) - 0.5) <= normal_half_width(0.5, 50_000, 4.0)


class TestKernelParity:
    """The truncated vectorized kernel against the full scalar shuffle."""

    SEEDS = rng.substream_seeds(2024, 0, 32)

    def check(self, kp, km, k):
        charges = np.array([1] * kp + [-1] * km, dtype=np.int8)
        got = machine_mod._transmitted_mask(charges, k, self.SEEDS)
        expected = [oracles.sphere_trial(kp, km, k, seed) for seed in self.SEEDS.tolist()]
        assert got.tolist() == expected, (kp, km, k)

    @pytest.mark.parametrize("K", range(1, 13))
    def test_every_cell_up_to_twelve(self, K):
        for kp in range(K + 1):
            for k in range(1, K + 1):
                self.check(kp, K - kp, k)

    @pytest.mark.parametrize("kp", [0, 1, 63, 64, 65, 128, 129, 256, 257])
    def test_truncation_boundary_and_ties(self, kp):
        # Both sides of every word count (64, 128) and of the byte rows
        # (K+ > 256); k on both sides of K+ and at the ends.
        for km in sorted({0, 1, kp}):
            K = kp + km
            for k in sorted({1, 2, kp - 1, kp, kp + 1, K - 1, K} & set(range(1, K + 1))):
                self.check(kp, km, k)

    @staticmethod
    def both_kernels(charges, k, seeds, blocks):
        """Negative spheres per tranche of the word and the byte-row kernel;
        ``blocks()`` gives a fresh block sequence, since each kernel consumes
        its own."""
        return [
            kernel(charges, k, seeds.size, blocks())
            for kernel in (machine_mod._word_negatives, machine_mod._row_negatives)
        ]

    def check_both_kernels(self, kp, km, k, seeds):
        charges = machine_mod._charges(ElectricState(kp, km))
        words, rows = self.both_kernels(
            charges, k, seeds, lambda: machine_mod._step_blocks(kp + km, k, seeds)
        )
        assert words.tolist() == rows.tolist(), (kp, km, k)
        return words

    def test_word_and_byte_kernels_agree(self):
        # Canonical charges only: the words hold the positions below K+ and
        # rely on every later position staying negative.
        gen = np.random.default_rng(64)
        for _ in range(40):
            kp = int(gen.integers(0, machine_mod._WORD_POSITIONS + 1))
            km = int(gen.integers(kp == 0, 600 - kp))
            k = int(gen.integers(1, kp + km + 1))
            seeds = rng.substream_seeds(int(gen.integers(2**63)), 0, 200)
            self.check_both_kernels(kp, km, k, seeds)

    @pytest.mark.parametrize("kp, km, k", [(1, 600, 400), (64, 536, 600), (250, 350, 520)])
    def test_tranche_far_past_the_words(self, kp, km, k):
        # More than 255 tranche positions lie past the words, so the word
        # kernel's count of negatives outgrows its uint8 popcounts.
        seeds = rng.substream_seeds(400, 0, 64)
        negatives = self.check_both_kernels(kp, km, k, seeds)
        assert negatives.min() > 255 and negatives.max() <= k
        expected = [oracles.sphere_trial(kp, km, k, seed) for seed in seeds.tolist()[:8]]
        got = machine_mod._transmitted_mask(machine_mod._charges(ElectricState(kp, km)), k, seeds)
        assert got[:8].tolist() == expected

    def test_every_partner_sequence_gives_the_exact_table(self):
        # One block holds every partner sequence r_j in [0, j], j = K-1 .. k,
        # as the K!/k! columns of a mixed-radix count, so the share of
        # transmitting columns (a tie counting one half) is the exact cell.
        # A tranche of n negatives transmits iff 2 n < k and ties iff 2 n = k.
        def every_sequence(total, k):
            m = math.perm(total, total - k)
            index = np.arange(m, dtype=np.uint64)
            partners = np.empty((total - k, m), dtype=np.uint64)
            for i, j in enumerate(range(total - 1, k - 1, -1)):
                index, partners[i] = np.divmod(index, np.uint64(j + 1))
            return [(total - 1, partners)]

        for K in range(1, 9):
            for k in range(1, K + 1):
                seeds = np.zeros(math.perm(K, K - k), dtype=np.uint64)
                for kp in range(K + 1):
                    state = ElectricState(kp, K - kp)
                    exact = transmission_probability_exact(state, KMeasurement(k))
                    charges = machine_mod._charges(state)
                    for n in self.both_kernels(charges, k, seeds, lambda: every_sequence(K, k)):
                        n = n.astype(np.int64)
                        share = Fraction(2 * int((2 * n < k).sum()) + int((2 * n == k).sum()), 2 * seeds.size)
                        assert share == exact, (kp, K - kp, k)

    def test_tranche_of_256_negatives_in_four_words(self):
        # Steps j = 492 .. 300 swap the 193 positives out to final positions,
        # so all 256 positions of the four words hold negatives: a count no
        # uint8 holds.
        kp, km, k = 193, 300, 256
        partners = np.arange(kp + km - 1, k - 1, -1, dtype=np.uint64)
        partners[:kp] = np.arange(kp, dtype=np.uint64)
        seeds = np.zeros(1, dtype=np.uint64)
        charges = machine_mod._charges(ElectricState(kp, km))
        blocks = lambda: [(kp + km - 1, partners[:, None].copy())]
        assert [n.tolist() for n in self.both_kernels(charges, k, seeds, blocks)] == [[256], [256]]

    @pytest.mark.parametrize("block", [1, 3 * 32])
    def test_draw_blocks_invisible(self, monkeypatch, block):
        # One step per RNG call (chunks of 16384+ trials), and blocks of
        # three steps with a partial last block.
        monkeypatch.setattr(machine_mod, "_DRAWS_PER_BLOCK", block)
        for kp, k in ((5, 1), (6, 2), (6, 7), (4, 8), (3, 11)):
            self.check(kp, 12 - kp, k)


class TestKernelAssumptions:
    """What the kernel takes from numpy and from the draw layout."""

    def test_uint64_shifts_by_64_or_more_give_zero(self):
        # A partner outside a word is shifted by r - 64 w >= 64 (it wraps
        # when r < 64 w) and must leave nothing in that word.
        edges = [64, 65, 127, 128, 255, 2**32, 2**63 - 1, 2**63, 2**64 - 192, 2**64 - 1]
        spread = rng.substream_seeds(7, 0, 64) | np.uint64(64)
        amounts = np.concatenate([np.array(edges, dtype=np.uint64), spread])
        for value in (1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15):
            values = np.full(amounts.size, value, dtype=np.uint64)
            for shift in (np.left_shift, np.right_shift):
                assert not shift(values, amounts).any(), shift.__name__
                assert not shift(np.uint64(value), amounts).any(), shift.__name__
                for amount in amounts:
                    assert shift(values, amount).tolist() == [0] * values.size

    def test_every_residue_has_floor_or_ceil_preimages(self):
        # The partner of step j is draw % s with span s = j + 1 <= K.  Of the
        # 2**64 draws, the r residues below r have q + 1 preimages and the
        # others q, so each partner's probability is count / 2**64 and its
        # relative bias |count s / 2**64 - 1| at most s / 2**64: 2**-49 at the
        # CLI's largest cluster, the bound the machine docstring states.
        for s in range(1, cli.MAX_CLUSTER_SIZE + 1):
            q, r = divmod(2**64, s)
            for residue in {0, max(r - 1, 0), r % s, s - 1}:
                count = (2**64 - 1 - residue) // s + 1  # draws residue, residue + s, ...
                assert count == q + (residue < r), (s, residue)
            assert r * (q + 1) + (s - r) * q == 2**64
            assert max(abs(count * s - 2**64) for count in (q, q + 1)) <= s
        assert cli.MAX_CLUSTER_SIZE / 2**64 <= 2**-49

    @pytest.mark.parametrize("span", [2, 3, 2**15 - 1, 2**15])
    def test_partner_rows_are_draws_modulo_the_span(self, span):
        # Draw 0 decides the first step, j = K - 1, so with K = span each
        # seed puts one chosen draw at that step; the later steps take
        # whatever draws follow.
        largest_multiple = (2**64 - 1) // span * span
        pinned = sorted({0, span - 1, span, largest_multiple, 2**64 - span, 2**64 - 1})
        seeds = np.array([oracles.seed_with_draw(value, 0) for value in pinned], dtype=np.uint64)
        K, k = span, max(1, span - 4)
        rows = 0
        for top, partners in machine_mod._step_blocks(K, k, seeds):
            for i, row in enumerate(partners):
                j = top - i
                draws = pinned if j == K - 1 else [rng.draw(seed, K - 1 - j) for seed in seeds.tolist()]
                assert row.tolist() == [draw % (j + 1) for draw in draws], (span, j)
                rows += 1
        assert rows == K - k

    def record_draws(self, monkeypatch):
        """(index, rows) of every draws_at call: a block's row i is draw
        index + i (rng.advanced_seeds, or the trial seeds as one row), a 1-D
        call is one draw per seed."""
        calls = []
        draws_at = rng.draws_at

        def spy(seeds, index):
            calls.append((index, seeds.shape[0] if seeds.ndim == 2 else 0))
            return draws_at(seeds, index)

        monkeypatch.setattr(machine_mod.rng, "draws_at", spy)
        return calls

    @pytest.mark.parametrize("kp, km", [(1, 1), (3, 3), (5, 2), (2, 5), (40, 40), (130, 130), (257, 257)])
    def test_tie_coin_is_draw_K_minus_1_after_the_partner_draws(self, monkeypatch, kp, km):
        K = kp + km
        seeds = rng.substream_seeds(99, 0, 40)
        monkeypatch.setattr(machine_mod, "_DRAWS_PER_BLOCK", 3 * seeds.size)
        calls = self.record_draws(monkeypatch)
        charges = machine_mod._charges(ElectricState(kp, km))
        # Every k, but only the boundaries on the byte rows (K+ > 256).
        ks = range(1, K + 1) if kp <= 256 else (1, 2, kp - 1, kp, kp + 1, K - 1, K)
        for k in ks:
            calls.clear()
            got = machine_mod._transmitted_mask(charges, k, seeds)
            partner_draws = [index + i for index, rows in calls if rows for i in range(rows)]
            assert partner_draws == list(range(K - k))
            coin_draws = [index for index, rows in calls if not rows]
            assert coin_draws in ([], [K - 1])
            assert K - 1 not in partner_draws
        if kp != km:
            return
        # k = K with K+ = K-: every tranche is balanced, every trial a coin.
        assert coin_draws == [K - 1]
        assert got.tolist() == [rng.draw(seed, K - 1) & 1 == 1 for seed in seeds.tolist()]


class TestTieStep:
    """The tie coins at their extremes, and the certain cells that draw none."""

    SEEDS = rng.substream_seeds(31, 0, 500)

    @pytest.mark.parametrize("kp, km, k", [(1, 1, 2), (2, 2, 4)])
    def test_chunks_where_every_trial_ties(self, kp, km, k):
        charges = machine_mod._charges(ElectricState(kp, km))
        got = machine_mod._transmitted_mask(charges, k, self.SEEDS)
        assert got.tolist() == [oracles.sphere_trial(kp, km, k, s) for s in self.SEEDS.tolist()]

    def test_even_k_cells_of_a_six_sphere_table(self):
        n, master = 200, 6
        table = empirical_table(6, n, master)
        for k in (2, 4, 6):
            for state, result in table.row(k).entries:
                cell_seed = rng.substream_seed(master, (k - 1) * 7 + state.k_plus)
                seeds = rng.substream_seeds(cell_seed, 0, n)
                expected = [
                    oracles.sphere_trial(state.k_plus, state.k_minus, k, s) for s in seeds.tolist()
                ]
                got = machine_mod._transmitted_mask(machine_mod._charges(state), k, seeds)
                assert got.tolist() == expected, (state, k)
                assert result.transmitted == sum(expected), (state, k)

    @pytest.mark.parametrize("kp, km", [(0, 256), (1, 255), (255, 1)])
    def test_certain_cells_skip_the_kernel(self, monkeypatch, kp, km):
        state, meas, n = ElectricState(kp, km), KMeasurement(10), 1000
        charges = machine_mod._charges(state)
        drawn = ensemble_mod.run_counted(
            n, -5, lambda seeds: machine_mod._transmitted_mask(charges, meas.k, seeds)
        )

        def refuse(*args):
            raise AssertionError("drew for a certain cell")

        monkeypatch.setattr(machine_mod, "_transmitted_mask", refuse)
        monkeypatch.setattr(rng, "substream_seeds", refuse)
        result = run_ensemble(state, meas, n, -5)
        assert result == drawn
        assert (result.transmitted, result.seed) == (n if kp > km else 0, 2**64 - 5)
        # The same argument checks as a drawn ensemble.
        with pytest.raises(ValueError):
            run_ensemble(state, meas, 0, 1)
        with pytest.raises(TypeError):
            run_ensemble(state, meas, n, 1.5)


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
        assert max(sizes) <= 52 == ensemble_mod.CHUNK_BYTES // machine_mod._trial_bytes(
            ElectricState(K // 2, K // 2)
        )

    #: Fixed bytes a kernel call may allocate beyond its chunk's budget: the
    #: spans of every step (K = 256 in 2 KiB) and numpy's small objects.
    ALLOWANCE = 16 << 10

    @pytest.mark.parametrize(
        "kp, km, k", [(2, 1, 1), (40, 40, 10), (100, 28, 10), (128, 128, 10), (128, 128, 250), (150, 50, 10)]
    )
    def test_kernel_peak_fits_the_chunk_budget(self, kp, km, k):
        # One, two and three words (K+ <= 192) per trial: chunks of more than
        # 8,192 trials (9,362 at three words), whose blocks are one step each.
        state = ElectricState(kp, km)
        trial_bytes = machine_mod._trial_bytes(state)
        m = ensemble_mod.CHUNK_BYTES // trial_bytes
        seeds, charges = rng.substream_seeds(11, 0, m), machine_mod._charges(state)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            machine_mod._transmitted_mask(charges, k, seeds)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= trial_bytes * m + self.ALLOWANCE, (peak / m, trial_bytes)

    def test_tiny_chunks_leave_counts_unchanged(self, monkeypatch):
        args = (ElectricState(128, 128), KMeasurement(10), 5000, 17)
        full = run_ensemble(*args)
        sizes = self.spy_sizes(monkeypatch)
        monkeypatch.setattr(ensemble_mod, "CHUNK_BYTES", 7 * machine_mod._trial_bytes(args[0]))
        assert run_ensemble(*args) == full
        assert max(sizes) == 7


class TestStatisticalAgreement:
    # K in {3, 5, 7} at 1e5 trials runs in the acceptance suite; the even
    # and tiny sizes are covered here at the same confidence level.
    @pytest.mark.parametrize("K", [1, 2, 4, 6])
    def test_even_and_tiny_sizes(self, K):
        n = 100_000
        table = empirical_table(K, n, 1905 + K)
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
        emp = empirical_table(3, n, 42)
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

    def test_holds_counts_and_no_interval(self):
        table = empirical_table(2, 10, 5)
        assert [f.name for f in fields(table)] == ["K", "n_trials", "seed", "rows"]

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

    def test_numpy_integer_size(self):
        table = empirical_table(np.int64(3), 100, 1)
        assert table == empirical_table(3, 100, 1)
        assert type(table.K) is int
        assert type(empirical_table(3, np.int64(100), 1).n_trials) is int

    def test_builds_no_table(self, monkeypatch):
        expected = empirical_table(4, 200, 7)

        def no_table(*args, **kwargs):
            raise AssertionError("empirical_table built a probability table")

        monkeypatch.setattr(machine_mod, "probability_table", no_table)
        monkeypatch.setattr(spheres, "probability_table", no_table)
        assert empirical_table(4, 200, 7) == expected

    def test_row_index_types(self):
        table = empirical_table(2, 10, 5)
        assert table.row(np.int64(2)) is table.rows[1]
        for bad in (True, 1.0):
            with pytest.raises(TypeError):
                table.row(bad)
        for missing in (0, 3):
            with pytest.raises(KeyError, match=f"k={missing}"):
                table.row(missing)


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
