"""Counter-based RNG: determinism, stream independence, offset addressing."""

import numpy as np
import pytest

from scipy.special import ndtri

from particlevi import rng as rng_module
from particlevi.rng import RngStream


class TestDeterminism:
    def test_same_key_same_sequence(self):
        """Identical (seed, stream) pairs reproduce the draw sequence bit-exactly."""
        a = RngStream(1234, stream=7).uniforms(64)
        b = RngStream(1234, stream=7).uniforms(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(1234, stream=0).uniforms(64)
        b = RngStream(1234, stream=1).uniforms(64)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = RngStream(1, stream=0).uniforms(64)
        b = RngStream(2, stream=0).uniforms(64)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = RngStream(5).split(3, 1, 4).normals(8)
        b = RngStream(5).split(3, 1, 4).normals(8)
        assert np.array_equal(a, b)

    def test_split_labels_matter(self):
        """Different label paths give independent streams; label order matters."""
        base = RngStream(5)
        a = base.split(1, 2).uniforms(16)
        b = base.split(2, 1).uniforms(16)
        c = base.split(1).split(2).uniforms(16)
        assert not np.array_equal(a, b)
        # chained splits hash the same label path as one call
        assert np.array_equal(a, c)


class TestOffsetAddressing:
    def test_uniforms_at_matches_sequential(self):
        """Drawing at explicit counter offsets equals consuming the stream in order."""
        seq = RngStream(99).uniforms(32)
        at = RngStream(99).uniforms_at(np.arange(32))
        assert np.array_equal(seq, at)

    def test_batch_element_equals_lone_draw(self):
        """Element k of a vectorized batch equals a lone draw at offset k."""
        batch = RngStream(42, stream=3).normals_at(np.arange(10))
        for k in range(10):
            lone = RngStream(42, stream=3).normals_at(np.asarray([k]))
            assert batch[k] == lone[0]

    def test_counter_advances(self):
        r = RngStream(7)
        first = r.uniforms(4)
        second = r.uniforms(4)
        assert not np.array_equal(first, second)
        assert np.array_equal(np.concatenate([first, second]), RngStream(7).uniforms(8))


class TestDistributionQuality:
    def test_uniform_range_and_moments(self):
        u = RngStream(2024).uniforms(200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        z = RngStream(2025).normals(200_000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_no_obvious_serial_correlation(self):
        u = RngStream(11).uniforms(100_000)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.02


class TestNormalMap:
    def test_extreme_words_give_finite_normals(self):
        """The lowest word maps near -8.29 and the highest stays finite.

        The top word's bin centre (2^53 - 1/2) 2^-53 rounds to 1.0, where the
        inverse CDF is +inf; the map holds it at the largest double below 1.
        """
        words = np.asarray([0, 2**64 - 1], dtype=np.uint64)
        z = rng_module._normals_of(words)
        assert np.all(np.isfinite(z))
        assert z[0] == ndtri(2.0**-54) and -8.30 < z[0] < -8.29
        assert z[1] == ndtri(1.0 - 2.0**-53) and 8.20 < z[1] < 8.21

    def test_other_words_keep_their_bin_centres(self):
        """Below the top bin every word maps to ndtri(k 2^-53 + 2^-54) of its top 53 bits."""
        tops = np.asarray([0, 1, 2**52, 2**53 - 3, 2**53 - 2], dtype=np.uint64)
        z = rng_module._normals_of(tops << np.uint64(11))
        assert np.array_equal(z, ndtri(tops.astype(np.float64) * 2.0**-53 + 2.0**-54))


class TestSplitReads:
    """One vectorized read over many child streams equals one split read per row."""

    labels = np.asarray([[t, p] for t in range(1, 12) for p in (0, 1, 2)] + [[-1, 5], [2**62, 3]])

    def test_rows_equal_per_split_reads(self):
        root = RngStream(123456789, stream=77)
        offsets = np.arange(37)
        normals = root.split_normals_at(self.labels, offsets)
        uniforms = root.split_uniforms_at(self.labels, offsets)
        for row, lab in enumerate(self.labels):
            child = root.split(*lab)
            assert np.array_equal(normals[row], child.normals_at(offsets))
            assert np.array_equal(uniforms[row], child.uniforms_at(offsets))

    def test_label_paths_of_any_length(self):
        root = RngStream(2**64 - 1, stream=2**64 - 1)
        for labels in ([[3]], [[4, 1, 5]], [[9, 2], [2, 9]]):
            got = root.split_normals_at(labels, [5, 0])
            want = [root.split(*lab).normals_at([5, 0]) for lab in labels]
            assert np.array_equal(got, np.stack(want))


class TestBlockedSplitReads:
    """A many-stream read is evaluated in row blocks of at most ``_BLOCK_WORDS`` words."""

    @pytest.mark.parametrize("k, m", [(13, 3000), (3, 2**14 + 5), (6, 100)],
                             ids=["several-rows-a-block", "one-row-a-block", "one-block"])
    def test_rows_equal_per_split_reads(self, k, m):
        """Blocks of 5, 5 and 3 rows (3000 does not divide 2^14); rows longer than a block; one block."""
        assert (k * m > rng_module._BLOCK_WORDS) == (m != 100)
        root = RngStream(31337, stream=5)
        labels = np.stack([np.arange(k) - 2, np.arange(k) % 4], axis=1)
        offsets = 3 * np.arange(m) + 11
        normals = root.split_normals_at(labels, offsets)
        uniforms = root.split_uniforms_at(labels, offsets)
        assert normals.shape == uniforms.shape == (k, m)
        for row, lab in enumerate(labels):
            child = root.split(*lab)
            assert np.array_equal(normals[row], child.normals_at(offsets))
            assert np.array_equal(uniforms[row], child.uniforms_at(offsets))

    @pytest.mark.parametrize("words", [1, 40, 100, 2**20])
    def test_bits_do_not_depend_on_the_block_size(self, words, monkeypatch):
        root = RngStream(99, stream=3)
        labels = np.stack([np.arange(9), np.full(9, 2)], axis=1)
        offsets = np.arange(37)
        want = root.split_normals_at(labels, offsets), root.split_uniforms_at(labels, offsets)
        monkeypatch.setattr(rng_module, "_BLOCK_WORDS", words)
        got = root.split_normals_at(labels, offsets), root.split_uniforms_at(labels, offsets)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
