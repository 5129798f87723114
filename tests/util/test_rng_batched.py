"""Batched keyed-uniform primitive vs the per-stream reference.

The contract under test is *bit-for-bit* equality: every element the
vectorised pipeline (``derive_seeds`` → ``repro.util.pcg`` →
``keyed_uniforms``) produces must equal what a freshly constructed
``np.random.Generator(np.random.PCG64(seed))`` would draw first, and
the fused C path (``ckernel.keyed_words``) must equal that pipeline.  The
golden traces and the cross-kernel differential both rest on this.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ckernel
from repro.util.pcg import bounded_uint32, first_uniforms, raw_outputs
from repro.util.rng import RngFactory, derive_seed, derive_seeds, keyed_uniforms, keyed_words

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def reference_first_uniform(seed: int) -> float:
    return np.random.Generator(np.random.PCG64(int(seed))).random()


class TestFirstUniforms:
    def test_edge_seeds_exact(self):
        seeds = np.array([0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        expected = np.array([reference_first_uniform(s) for s in seeds])
        np.testing.assert_array_equal(first_uniforms(seeds), expected)

    def test_random_seed_sample_exact(self):
        rng = np.random.default_rng(1234)
        seeds = rng.integers(0, 2**64, size=500, dtype=np.uint64)
        expected = np.array([reference_first_uniform(s) for s in seeds])
        np.testing.assert_array_equal(first_uniforms(seeds), expected)

    def test_empty(self):
        out = first_uniforms(np.empty(0, dtype=np.uint64))
        assert out.shape == (0,) and out.dtype == np.float64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_any_seed_exact(self, seed):
        got = first_uniforms(np.array([seed], dtype=np.uint64))[0]
        assert got == reference_first_uniform(seed)


class TestRawOutputs:
    def test_kth_word_matches_random_raw(self):
        rng = np.random.default_rng(99)
        seeds = np.concatenate([
            np.array([0, 1, 2**32, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64, size=200, dtype=np.uint64),
        ])
        got = raw_outputs(seeds, 3)
        assert got.shape == (seeds.size, 3) and got.dtype == np.uint64
        expected = np.array([np.random.PCG64(int(s)).random_raw(3) for s in seeds])
        np.testing.assert_array_equal(got, expected)

    def test_shape_and_empty(self):
        assert raw_outputs(np.empty(0, dtype=np.uint64), 2).shape == (0, 2)
        assert raw_outputs(np.arange(6, dtype=np.uint64).reshape(2, 3), 1).shape == (2, 3, 1)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 4))
    @settings(max_examples=30)
    def test_any_seed_exact(self, seed, n):
        got = raw_outputs(np.array([seed], dtype=np.uint64), n)[0]
        np.testing.assert_array_equal(got, np.random.PCG64(seed).random_raw(n))


def _reference_bounded(seed: int, lo: int, hi: int, skip: int):
    """numpy's draw and whether it needed more than one 32-bit candidate."""
    gen = np.random.Generator(np.random.PCG64(seed))
    for _ in range(skip):
        gen.random()
    before = gen.bit_generator.state
    value = int(gen.integers(lo, hi + 1, size=1, dtype=np.int32)[0])
    after = gen.bit_generator.state
    after_one_word = np.random.PCG64(seed)
    after_one_word.random_raw(skip + 1)
    no_candidate = after == before  # lo == hi draws nothing
    one_candidate = (
        after["has_uint32"] == 1 and after["state"] == after_one_word.state["state"]
    )
    return value, not (no_candidate or one_candidate)


class TestBoundedUint32:
    """Lemire draws vs ``Generator.integers(lo, hi + 1, dtype=np.int32)``."""

    SEEDS = np.random.default_rng(5).integers(0, 2**64, size=300, dtype=np.uint64)

    def _check(self, lo, hi, skip):
        words = raw_outputs(self.SEEDS, skip + 1)[:, skip]
        values, rejected = bounded_uint32(words, lo, hi)
        for s, v, r in zip(self.SEEDS, values, rejected):
            ref, numpy_rejected = _reference_bounded(int(s), lo, hi, skip)
            assert bool(r) == numpy_rejected
            if not r:
                assert v == ref
        return rejected

    def test_small_ranges_after_zero_and_one_random(self):
        for lo, hi in [(1, 1), (1, 3), (3, 6), (7, 1000), (1, 2**31 - 2)]:
            for skip in (0, 1):
                self._check(lo, hi, skip)

    def test_rejection_heavy_range(self):
        # span ~2**32 / 3: about a third of first candidates are rejected.
        for skip in (0, 1):
            rejected = self._check(1, 1_431_655_766, skip)
            assert 0.2 < rejected.mean() < 0.45

    def test_per_element_bounds_broadcast(self):
        words = raw_outputs(self.SEEDS[:50], 1)[:, 0]
        lo = np.arange(1, 51)
        values, rejected = bounded_uint32(words, lo, lo + 4)
        assert not rejected.any()
        assert np.all((values >= lo) & (values <= lo + 4))


class TestDeriveSeeds:
    def test_matches_scalar_derivation(self):
        keys = np.array([[0, 0, 0], [1, 2, 3], [-1, 5, 2**31], [7, -9, -(2**62)]])
        got = derive_seeds(42, keys)
        expected = np.array([derive_seed(42, *row) for row in keys], dtype=np.uint64)
        np.testing.assert_array_equal(got, expected)

    def test_one_dimensional_input_is_one_row(self):
        got = derive_seeds(0, np.array([3, 4]))
        assert got.shape == (1,)
        assert int(got[0]) == derive_seed(0, 3, 4)

    def test_empty(self):
        out = derive_seeds(0, np.empty((0, 4), dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.uint64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(i64, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_any_key_tuple(self, root, keys):
        got = derive_seeds(root, np.array([keys], dtype=np.int64))
        assert int(got[0]) == derive_seed(root, *keys)


class TestKeyedUniforms:
    def test_matches_per_stream_draws(self):
        f = RngFactory(7)
        days = np.arange(40) % 5
        persons = np.arange(40) * 13 % 29
        got = f.keyed_uniforms(RngFactory.LOCATION, days, persons)
        expected = np.array(
            [f.stream(RngFactory.LOCATION, int(d), int(p)).random()
             for d, p in zip(days, persons)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_scalar_columns_broadcast(self):
        got = keyed_uniforms(3, 2, np.arange(10), 0)
        expected = np.array(
            [np.random.Generator(np.random.PCG64(derive_seed(3, 2, i, 0))).random()
             for i in range(10)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_keyed_words_match_random_raw(self):
        persons = np.array([0, 7, 2**40, 3])
        got = keyed_words(11, 2, RngFactory.PERSON, -1, persons, 1)
        assert got.shape == (4, 2)
        expected = np.array([
            np.random.PCG64(derive_seed(11, RngFactory.PERSON, -1, int(p), 1)).random_raw(2)
            for p in persons
        ])
        np.testing.assert_array_equal(got, expected)

    def test_preserves_shape(self):
        locs = np.arange(12).reshape(3, 4)
        got = keyed_uniforms(0, 1, locs)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got.ravel(), keyed_uniforms(0, 1, locs.ravel()))


class TestUniformsForRegression:
    """The satellite: ``uniforms_for`` must delegate without drift."""

    def test_exact_equality_with_per_stream_reference(self):
        f = RngFactory(4)
        ids = [5, 9, 2, 0, 2**31 - 1]
        for salt in (0, 1, 17):
            got = f.uniforms_for(RngFactory.INTERVENTION, 3, ids, salt)
            expected = np.array(
                [f.stream(RngFactory.INTERVENTION, 3, i, salt).random() for i in ids]
            )
            np.testing.assert_array_equal(got, expected)

    def test_accepts_generators_and_ranges(self):
        f = RngFactory(0)
        a = f.uniforms_for(RngFactory.PERSON, 0, range(50))
        b = f.uniforms_for(RngFactory.PERSON, 0, (i for i in range(50)))
        np.testing.assert_array_equal(a, b)

    def test_empty_ids(self):
        f = RngFactory(0)
        out = f.uniforms_for(RngFactory.PERSON, 0, [])
        assert out.shape == (0,)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-1, max_value=400),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30)
    def test_property_exact(self, root, day, ids, salt):
        f = RngFactory(root)
        got = f.uniforms_for(RngFactory.PERSON, day, ids, salt)
        expected = np.array(
            [f.stream(RngFactory.PERSON, day, i, salt).random() for i in ids]
        )
        np.testing.assert_array_equal(got, expected)


roots = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
key_values = st.one_of(st.sampled_from([0, -1, 2**63 - 1, -(2**63)]), i64)


@st.composite
def key_matrices(draw):
    """(rows, k) int64 key matrices, 1–6 columns, extremes included."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(key_values, min_size=k, max_size=k), max_size=12))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


def reference_words(root, keys, n):
    return raw_outputs(derive_seeds(root, keys), n)


needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason=f"no C library: {ckernel.build_error()}"
)


@needs_ckernel
class TestCompiledKeyedWords:
    """The fused C loop vs hashlib BLAKE2b + the numpy PCG64 replay."""

    @given(roots, key_matrices(), st.integers(1, 3))
    @settings(max_examples=150)
    def test_bit_identical_to_hashlib_path(self, root, keys, n):
        got = ckernel.keyed_words(root, keys, n)
        assert got.shape == (keys.shape[0], n) and got.dtype == np.uint64
        np.testing.assert_array_equal(got, reference_words(root, keys, n))

    @given(roots, key_matrices(), st.integers(1, 3))
    @settings(max_examples=50)
    def test_public_keyed_words_takes_the_c_path(self, root, keys, n):
        got = keyed_words(root, n, *keys.T)
        np.testing.assert_array_equal(got, reference_words(root, keys, n))

    def test_widest_key_rows(self):
        keys = np.random.default_rng(3).integers(
            -(2**63), 2**63 - 1, size=(40, ckernel.MAX_KEY_COLUMNS), dtype=np.int64
        )
        for root in (0, 2**64 - 1):
            np.testing.assert_array_equal(
                ckernel.keyed_words(root, keys, 2), reference_words(root, keys, 2)
            )

    def test_empty_input(self):
        out = ckernel.keyed_words(5, np.empty((0, 3), dtype=np.int64), 2)
        assert out.shape == (0, 2) and out.dtype == np.uint64

    def test_rejects_what_the_c_loop_cannot_take(self):
        keys = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="k <= 15"):
            ckernel.keyed_words(0, np.zeros((2, 16), dtype=np.int64), 1)
        for root in (-1, 2**64):
            with pytest.raises(ValueError, match=str(root)):
                ckernel.keyed_words(root, keys, 1)


class TestKeyedWordsContract:
    """Holds on both paths (CI repeats this file with REPRO_NO_CKERNEL=1)."""

    def test_empty_input(self):
        out = keyed_words(5, 2, np.empty(0, dtype=np.int64), 1)
        assert out.shape == (0, 2) and out.dtype == np.uint64

    def test_more_than_fifteen_columns_rejected(self):
        keyed_words(0, 1, *range(15))  # the widest accepted key
        with pytest.raises(ValueError, match="15 key columns"):
            keyed_words(0, 1, *range(16))

    @pytest.mark.parametrize("root", [-1, 2**64])
    def test_root_outside_uint64_rejected(self, root):
        with pytest.raises(ValueError, match=str(root)):
            keyed_words(root, 1, np.arange(3))
