"""Vectorized derive pass: the replay engine's row stream.

Several per-request values are pure functions of the trace row: the
key's splitmix64 hash pair (for Bloom-tracked policies), the size class
of ``key_size + value_size`` and the penalty bin.  This module computes
them **per trace window** as NumPy column operations, and every replay
(:meth:`repro.sim.simulator.Simulator.run`) threads the derived columns
into :meth:`repro.cache.cache.SlabCache.lookup_hashed` /
:meth:`~repro.cache.cache.SlabCache.set_classed`, so the innermost loop
does table lookups only.

Every array helper here agrees element-wise with its scalar reference
(``hash_key`` / ``class_for_size`` / ``PamaConfig.bin_for`` /
``shard_of``) — the property tests in ``tests/sim/test_derive.py`` pin
that, and the replay differential suite pins end-to-end results
``==``-exact.

Rows the vector pass cannot prove valid carry sentinels (class ``-1``
unknown/too-large, ``-2`` invalid sizes; bin ``-1`` NaN or negative
penalty, or dynamic binning) that make the cache compute the value
itself, so errors raise exactly where a per-request computation raises
them.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.bloom.hashing import (hash_key_array, hash_pair_arrays,
                                 key_shard_array)
from repro.traces.record import trace_windows

__all__ = ["hash_key_array", "hash_pair_arrays", "key_shard_array",
           "class_index_array", "penalty_bin_array", "derived_rows"]


def class_index_array(key_sizes, value_sizes, size_classes):
    """Vectorized ``class_for_size(key_size + value_size)`` per row.

    Returns an int64 array of size-class indices with the lookup path's
    sentinel conventions:

    * ``-1`` — no class is accounted: ``key_size < 0`` ("miss details
      unknown") or the item exceeds the largest class (the scalar path
      catches ``ItemTooLargeError`` and proceeds with class ``-1``);
    * ``-2`` — invalid sizes (``key_size + value_size <= 0`` with a
      known key size): the consumer must call the scalar
      ``class_for_size`` so ``InvalidItemError`` raises as before.
    """
    slots = np.asarray(size_classes.slot_sizes, dtype=np.int64)
    ks = np.asarray(key_sizes).astype(np.int64, copy=False)
    item_size = ks + np.asarray(value_sizes).astype(np.int64, copy=False)
    total = item_size + size_classes.item_overhead
    idx = np.searchsorted(slots, total, side="left").astype(np.int64)
    idx[total > slots[-1]] = -1
    idx[item_size <= 0] = -2
    idx[ks < 0] = -1  # last: unknown-size rows never raise
    return idx


def penalty_bin_array(penalties, edges):
    """Vectorized static-edge penalty binning per row.

    ``edges`` is a policy's :meth:`~repro.policies.base.AllocationPolicy.bin_edges`
    result — ascending upper edges (``bisect_left`` then clamp to the
    last bin, the ``PamaConfig.bin_for`` contract) or an empty tuple
    for single-bin policies.  Rows whose penalty is NaN or negative get
    the sentinel ``-1``: the consumer re-dispatches those to the
    policy's ``bin_for`` (or the scalar ``set``) so invalid penalties
    keep raising exactly where they used to, while NaN misses keep the
    lookup path's "bin 0, no accounting" semantics.
    """
    p = np.asarray(penalties, dtype=np.float64)
    if len(edges):
        e = np.asarray(edges, dtype=np.float64)
        idx = np.searchsorted(e, p, side="left").astype(np.int64)
        np.minimum(idx, len(edges) - 1, out=idx)
    else:
        idx = np.zeros(len(p), dtype=np.int64)
    idx[~(p >= 0.0)] = -1  # NaN and negatives
    return idx


def derived_rows(source, service, size_classes, policy):
    """The replay row stream: per-request scalars plus derived columns.

    Yields 11-tuples ``(op, key, key_size, value_size, penalty,
    miss_cost, h1, h2, class_idx, bin_idx, tenant)``, one bounded window
    at a time, so a streamed source replays with memory bounded by its
    window.  Columns that would cost ``policy`` work or memory for
    nothing are constants instead:

    * ``(h1, h2)`` is ``(0, 0)`` unless the policy ``wants_key_hashes``
      (the cache's own "no hash pair" value);
    * ``bin_idx`` is ``-1`` when ``policy.bin_edges()`` is ``None``
      (dynamic binning: the cache calls ``bin_for`` per request);
    * ``tenant`` is ``0`` unless the policy ``wants_tenants``.
    """
    edges = policy.bin_edges()
    for w in trace_windows(source):
        if policy.wants_key_hashes:
            a1, a2 = hash_pair_arrays(w.keys)
            h1, h2 = a1.tolist(), a2.tolist()
        else:
            h1 = h2 = repeat(0)
        cls = class_index_array(w.key_sizes, w.value_sizes,
                                size_classes).tolist()
        bins = (repeat(-1) if edges is None
                else penalty_bin_array(w.penalties, edges).tolist())
        tenants = w.tenants.tolist() if policy.wants_tenants else repeat(0)
        # The default miss cost is the penalty itself: the two columns
        # share one set of float objects.
        penalties = w.penalties.tolist()
        yield from zip(w.ops.tolist(), w.keys.tolist(),
                       w.key_sizes.tolist(), w.value_sizes.tolist(),
                       penalties, service.miss_array(penalties),
                       h1, h2, cls, bins, tenants)
