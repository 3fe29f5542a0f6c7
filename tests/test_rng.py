"""Counter-indexed generator: scalar/vector parity and stream structure."""

import numpy as np
import pytest

from deltamachine import rng
from oracles import reference_mix

MASK = rng.MASK64


class TestScalar:
    def test_matches_reference_transcription(self):
        for z in (0, 1, 42, 2**63, MASK, 0xDEADBEEFCAFEBABE):
            assert rng.mix64(z) == reference_mix(z)

    def test_draw_is_indexed_splitmix_sequence(self):
        seed = 987654321
        for j in range(10):
            expected = reference_mix((seed + (j + 1) * rng.GOLDEN) & MASK)
            assert rng.draw(seed, j) == expected

    def test_seed_reduced_mod_2_64(self):
        assert rng.draw(MASK + 1 + 5, 0) == rng.draw(5, 0)
        assert rng.draw(-1, 3) == rng.draw(MASK, 3)


class TestVectorParity:
    def test_mix_array_matches_scalar(self):
        values = np.array([0, 1, 42, 2**63, MASK, 0x123456789ABCDEF0], dtype=np.uint64)
        mixed = rng._mix64_inplace(values.copy())
        for raw, got in zip(values.tolist(), mixed.tolist()):
            assert got == rng.mix64(raw)

    def test_draws_at_matches_scalar(self):
        seeds = np.array([3, 2**40, MASK - 7], dtype=np.uint64)
        for index in (0, 1, 63):
            vec = rng.draws_at(seeds, index)
            for s, got in zip(seeds.tolist(), vec.tolist()):
                assert got == rng.draw(s, index)

    def test_draws_at_zero_dim_seed(self, recwarn):
        for seed in (np.uint64(MASK - 7), np.array(MASK - 7, dtype=np.uint64)):
            got = rng.draws_at(seed, 5)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert int(got) == rng.draw(MASK - 7, 5)
        assert not recwarn.list

    def test_substream_seeds_matches_scalar(self):
        seed = 20260811
        vec = rng.substream_seeds(seed, 5, 100)
        for offset, got in enumerate(vec.tolist()):
            assert got == rng.substream_seed(seed, 5 + offset)

    def test_advanced_seeds_give_later_draws(self):
        seeds = np.array([0, 1, 2**63 + 5, MASK], dtype=np.uint64)
        block = rng.draws_at(rng.advanced_seeds(seeds, 4), 7)
        assert block.shape == (4, 4)
        for i, row in enumerate(block.tolist()):
            assert row == [rng.draw(s, 7 + i) for s in seeds.tolist()]


class TestStreamStructure:
    def test_distinct_substreams(self):
        seeds = rng.substream_seeds(1, 0, 10_000)
        assert len(set(seeds.tolist())) == 10_000

    def test_frozen_regression_values(self):
        # Guard against accidental constant or indexing changes.
        assert rng.mix64(0) == 0
        assert rng.draw(0, 0) == 16294208416658607535
        assert rng.draw(42, 1) == 2949826092126892291
        assert rng.substream_seed(20260811, 3) == 2417856310110734935

    def test_rough_uniformity(self):
        draws = rng.draws_at(rng.substream_seeds(7, 0, 20_000), 0)
        u = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53  # top 53 bits
        assert abs(float(u.mean()) - 0.5) < 0.01
        assert 0.07 < float(u.var()) < 0.10


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_draws_deterministic(seed):
    assert rng.draw(seed, 5) == rng.draw(seed, 5)
