"""Property tests: the vectorized derive pass vs its scalar references.

Every derived column must agree element-wise with the scalar function
the cache would otherwise call per request — ``hash_key`` /
``class_for_size`` / ``PamaConfig.bin_for`` / ``shard_of``.  End-to-end
replay results are pinned ``==``-exact in ``test_replay_differential``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.hashing import (PAIR_SEED_DELTA, hash_key, hash_key_array,
                                 hash_pair, hash_pair_arrays, key_shard,
                                 key_shard_array)
from repro.cache import SizeClassConfig
from repro.cache.sizeclasses import InvalidItemError, ItemTooLargeError
from repro.core.config import PamaConfig
from repro.sim.derive import class_index_array, penalty_bin_array

INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


class TestHashParity:
    @given(st.lists(INT64, max_size=64),
           st.sampled_from([0, 1, PAIR_SEED_DELTA, 0x51A8D]))
    @settings(max_examples=60, deadline=None)
    def test_hash_key_array_matches_scalar(self, keys, seed):
        got = hash_key_array(np.array(keys, dtype=np.int64), seed)
        assert got.dtype == np.uint64
        assert got.tolist() == [hash_key(k, seed) for k in keys]

    @given(st.lists(INT64, min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_hash_pair_arrays_matches_scalar_pair(self, keys):
        h1, h2 = hash_pair_arrays(np.array(keys, dtype=np.int64))
        pairs = [hash_pair(k) for k in keys]
        assert h1.tolist() == [p[0] for p in pairs]
        assert h2.tolist() == [p[1] for p in pairs]
        # h2 odd: 0 stays the "pair absent" sentinel everywhere.
        assert all(v & 1 for v in h2.tolist())

    def test_uint64_column_accepted(self):
        keys = np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)
        got = hash_key_array(keys)
        assert got.tolist() == [hash_key(int(k)) for k in keys.tolist()]


class TestClassIndexParity:
    @pytest.fixture(scope="class")
    def classes(self):
        return SizeClassConfig(slab_size=64 << 10, base_size=64)

    def scalar_index(self, classes, ks, vs):
        """The lookup path's scalar semantics, sentinels included."""
        if ks < 0:
            return -1
        try:
            return classes.class_for_size(ks + vs)
        except ItemTooLargeError:
            return -1
        except InvalidItemError:
            return -2

    @given(st.lists(st.tuples(
        st.integers(min_value=-64, max_value=256),
        st.integers(min_value=-256, max_value=1 << 20)), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, classes, rows):
        ks = np.array([r[0] for r in rows], dtype=np.int32)
        vs = np.array([r[1] for r in rows], dtype=np.int32)
        got = class_index_array(ks, vs, classes).tolist()
        assert got == [self.scalar_index(classes, k, v) for k, v in rows]

    def test_sentinel_precedence(self, classes):
        # unknown key size wins over invalid item size: the scalar path
        # never validates a "miss details unknown" row.
        got = class_index_array(np.array([-1, 10, 10]),
                                np.array([-5, -20, 64 << 20]),
                                classes).tolist()
        assert got == [-1, -2, -1]


class TestPenaltyBinParity:
    CONFIG = PamaConfig(penalty_edges=(0.001, 0.01, 0.1, 1.0))

    @given(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-10.0, max_value=-1e-9),
        st.just(float("nan")), st.just(float("inf"))), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, penalties):
        got = penalty_bin_array(np.array(penalties, dtype=np.float64),
                                self.CONFIG.penalty_edges).tolist()
        for value, idx in zip(penalties, got):
            if math.isnan(value) or value < 0:
                assert idx == -1  # sentinel: consumer re-dispatches
            else:
                assert idx == self.CONFIG.bin_for(value)

    def test_empty_edges_single_bin(self):
        got = penalty_bin_array(np.array([0.0, 5.0, -1.0, float("nan")]),
                                ()).tolist()
        assert got == [0, 0, -1, -1]


class TestShardParity:
    @given(st.lists(INT64, max_size=64),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_key_shard_array_matches_scalar(self, keys, nshards):
        got = key_shard_array(np.array(keys, dtype=np.int64),
                              nshards).tolist()
        assert got == [key_shard(k, nshards) for k in keys]
