"""Differential pins: the replay engine vs earlier engines.

Engine rewrites must not change *any* simulation output.  The constants
below were produced by earlier engines on a mixed GET/SET/DELETE trace
and are asserted exactly (``==``, not approx): every float must match
bit-for-bit, every counter must match to the unit.

* ``SEED_RESULTS`` — the pre-optimization (seed) engine, before the
  hash-once / allocation-free overhaul.  The exact-tracker
  configurations cover the full PAMA machinery (segment tracker, ghost
  lists, value accumulators, slab migration) plus the memcached
  baseline.
* ``ENGINE_PINS`` — the last engine with separate scalar and derived
  replay loops, on the configurations the seed pins miss: the Bloom
  tracker (hash pairs threaded from the derive pass), dynamic penalty
  bins (``pama-adaptive``: the cache calls ``bin_for`` per request)
  and Memcached's 1 MiB slabs (a heavily migrating pool).  Each pins
  the whole result: totals, cache stats, final slab maps and every
  window with its slab snapshots.
"""

import random

import numpy as np
import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.policies import make_policy
from repro.sim.simulator import simulate
from repro.traces.record import Trace

#: policy -> (total_gets, hit_ratio, avg_service_time, evictions,
#: migrations) as produced by the seed replay engine on mixed_trace().
SEED_RESULTS = {
    "memcached": (31968, 0.7724286786786787, 0.09354627439945866, 4608, 0),
    "pre-pama": (31968, 0.8480668168168168, 0.06371160848345903, 1318, 20),
    "pama": (31968, 0.7140890890890891, 0.11643821321329532, 7091, 5289),
}

#: name -> (policy, policy kwargs, slab size) of the ENGINE_PINS configs;
#: every one replays mixed_trace() into an 8 MiB cache, window 10_000.
ENGINE_CONFIGS = {
    "pama-bloom": ("pama", {"value_window": 10_000, "tracker": "bloom"},
                   64 << 10),
    "pama-adaptive": ("pama-adaptive", {"value_window": 10_000}, 64 << 10),
    "pama-1m": ("pama", {"value_window": 10_000}, 1 << 20),
}

#: name -> _result_tuple() of the replay, as produced by the two-loop
#: engine (scalar loop for exact trackers and dynamic bins, derived loop
#: for the Bloom tracker).
ENGINE_PINS = {'pama-bloom': (31968,
                0.5796421421421422,
                0.17175305930937906,
                {'gets': 31968,
                 'hits': 18530,
                 'misses': 13438,
                 'sets': 19429,
                 'deletes': 1170,
                 'evictions': 12935,
                 'migrations': 10361,
                 'expired': 0,
                 'hit_ratio': 0.5796421421421422,
                 'total_miss_penalty': 5488.748799999482},
                {4: 6, 0: 2, 2: 3, 6: 15, 8: 102},
                {(4, 3): 1,
                 (0, 3): 1,
                 (2, 4): 1,
                 (2, 2): 2,
                 (4, 2): 5,
                 (6, 4): 15,
                 (0, 2): 1,
                 (8, 3): 29,
                 (8, 4): 73},
                [(0,
                  10000,
                  4810,
                  2173.0319999998783,
                  2173.51299999985,
                  {0: 2, 4: 4, 2: 3, 8: 106, 6: 13},
                  {(0, 3): 1,
                   (4, 1): 1,
                   (2, 4): 1,
                   (2, 2): 1,
                   (4, 2): 3,
                   (8, 2): 20,
                   (6, 4): 13,
                   (0, 2): 1,
                   (8, 3): 33,
                   (8, 4): 53,
                   (2, 1): 1}),
                 (1,
                  10000,
                  6195,
                  1567.3347999999435,
                  1567.9542999998102,
                  {0: 2, 2: 3, 4: 4, 6: 16, 8: 103},
                  {(0, 3): 1,
                   (2, 4): 1,
                   (2, 2): 2,
                   (4, 2): 4,
                   (6, 1): 1,
                   (6, 4): 15,
                   (0, 2): 1,
                   (8, 3): 38,
                   (8, 4): 65}),
                 (2,
                  10000,
                  6256,
                  1447.1975999999563,
                  1447.8231999998327,
                  {8: 103, 0: 2, 2: 3, 4: 5, 6: 15},
                  {(8, 0): 1,
                   (0, 3): 1,
                   (2, 4): 1,
                   (2, 2): 2,
                   (4, 2): 5,
                   (6, 4): 15,
                   (0, 2): 1,
                   (8, 3): 29,
                   (8, 4): 73}),
                 (3,
                  1968,
                  1269,
                  301.1844000000009,
                  301.3112999999989,
                  {4: 6, 0: 2, 2: 3, 6: 15, 8: 102},
                  {(4, 3): 1,
                   (0, 3): 1,
                   (2, 4): 1,
                   (2, 2): 2,
                   (4, 2): 5,
                   (6, 4): 15,
                   (0, 2): 1,
                   (8, 3): 29,
                   (8, 4): 73})]),
 'pama-adaptive': (31968,
                   0.7077702702702703,
                   0.11917881006014058,
                   {'gets': 31968,
                    'hits': 22626,
                    'misses': 9342,
                    'sets': 15333,
                    'deletes': 1437,
                    'evictions': 7455,
                    'migrations': 5581,
                    'expired': 0,
                    'hit_ratio': 0.7077702702702703,
                    'total_miss_penalty': 3807.645599999683},
                   {4: 11, 0: 3, 6: 26, 2: 4, 8: 84},
                   {(4, 4): 3,
                    (0, 4): 1,
                    (6, 2): 1,
                    (2, 3): 1,
                    (4, 3): 3,
                    (6, 3): 13,
                    (0, 3): 1,
                    (2, 4): 1,
                    (2, 2): 2,
                    (4, 2): 5,
                    (6, 4): 12,
                    (0, 2): 1,
                    (8, 3): 31,
                    (8, 4): 53},
                   [(0,
                     10000,
                     5812,
                     1760.9615999999241,
                     1761.5427999997808,
                     {4: 10, 0: 3, 6: 21, 2: 3, 8: 91},
                     {(4, 4): 3,
                      (0, 4): 1,
                      (6, 2): 1,
                      (2, 3): 1,
                      (4, 3): 3,
                      (6, 3): 9,
                      (0, 3): 1,
                      (4, 1): 1,
                      (2, 4): 1,
                      (2, 2): 1,
                      (4, 2): 3,
                      (6, 4): 11,
                      (0, 2): 1,
                      (8, 3): 44,
                      (8, 4): 47}),
                    (1,
                     10000,
                     7523,
                     994.449200000006,
                     995.2014999998571,
                     {0: 4, 4: 9, 2: 3, 6: 23, 8: 89},
                     {(0, 0): 1,
                      (4, 4): 3,
                      (0, 4): 1,
                      (2, 3): 1,
                      (4, 3): 3,
                      (6, 3): 11,
                      (0, 3): 1,
                      (2, 4): 1,
                      (2, 2): 1,
                      (4, 2): 3,
                      (6, 4): 12,
                      (0, 2): 1,
                      (8, 3): 38,
                      (8, 4): 51}),
                    (2,
                     10000,
                     7802,
                     852.791600000006,
                     853.5717999998851,
                     {0: 4, 4: 11, 2: 4, 6: 24, 8: 85},
                     {(0, 0): 1,
                      (4, 4): 3,
                      (0, 4): 1,
                      (2, 3): 1,
                      (4, 3): 3,
                      (6, 3): 12,
                      (0, 3): 1,
                      (2, 4): 1,
                      (2, 2): 2,
                      (4, 2): 5,
                      (6, 4): 12,
                      (0, 2): 1,
                      (8, 3): 32,
                      (8, 4): 53}),
                    (3,
                     1968,
                     1489,
                     199.4432000000002,
                     199.5921000000041,
                     {4: 11, 0: 3, 6: 26, 2: 4, 8: 84},
                     {(4, 4): 3,
                      (0, 4): 1,
                      (6, 2): 1,
                      (2, 3): 1,
                      (4, 3): 3,
                      (6, 3): 13,
                      (0, 3): 1,
                      (2, 4): 1,
                      (2, 2): 2,
                      (4, 2): 5,
                      (6, 4): 12,
                      (0, 2): 1,
                      (8, 3): 31,
                      (8, 4): 53})]),
 'pama-1m': (31968,
             0.20382882882882883,
             0.32960878378383046,
             {'gets': 31968,
              'hits': 6516,
              'misses': 25452,
              'sets': 31443,
              'deletes': 418,
              'evictions': 29086,
              'migrations': 27254,
              'expired': 0,
              'hit_ratio': 0.20382882882882883,
              'total_miss_penalty': 10536.282000001936},
             {4: 1, 6: 2, 8: 5},
             {(4, 3): 1, (6, 4): 2, (8, 4): 5},
             [(0,
               10000,
               1586,
               3540.2803999997345,
               3540.4389999998884,
               {4: 1, 6: 2, 8: 5},
               {(4, 1): 1, (6, 4): 2, (8, 4): 5}),
              (1,
               10000,
               2140,
               3232.252799999755,
               3232.4667999998983,
               {6: 2, 8: 5, 2: 1},
               {(6, 4): 2, (8, 4): 5, (2, 1): 1}),
              (2,
               10000,
               2307,
               3117.6171999997728,
               3117.847899999894,
               {0: 1, 6: 2, 8: 5},
               {(0, 3): 1, (6, 4): 2, (8, 4): 5}),
              (3,
               1968,
               483,
               646.1316000000066,
               646.1798999999996,
               {4: 1, 6: 2, 8: 5},
               {(4, 3): 1, (6, 4): 2, (8, 4): 5})])}

KWARGS = {"pama": {"value_window": 10_000},
          "pre-pama": {"value_window": 10_000}}


def mixed_trace(n=40_000, seed=1234):
    """Mixed GET/SET/DELETE trace — must stay byte-identical forever.

    80% GET / 15% SET / 5% DELETE over 3000 keys, five value sizes and
    five penalty levels; any change to the construction invalidates the
    pinned constants above.
    """
    rng = random.Random(seed)
    ops, keys, ks, vs, pens = [], [], [], [], []
    sizes = (48, 150, 700, 2600, 9000)
    penalties = (0.0004, 0.004, 0.04, 0.4, 1.6)
    for _ in range(n):
        r = rng.random()
        op = 0 if r < 0.80 else (1 if r < 0.95 else 2)
        ops.append(op)
        keys.append(rng.randrange(3000))
        ks.append(16)
        vs.append(rng.choice(sizes))
        pens.append(rng.choice(penalties))
    return Trace(np.array(ops, dtype=np.uint8),
                 np.array(keys, dtype=np.int64),
                 np.array(ks, dtype=np.int32),
                 np.array(vs, dtype=np.int32),
                 np.array(pens, dtype=np.float64),
                 meta={"name": "mixed"})


class TestReplayDifferential:
    def _run(self, policy):
        cache = SlabCache(8 << 20,
                          make_policy(policy, **KWARGS.get(policy, {})),
                          SizeClassConfig(slab_size=64 << 10))
        return simulate(mixed_trace(), cache, window_gets=10_000)

    def test_memcached_bit_identical_to_seed(self):
        self._check("memcached")

    def test_pre_pama_bit_identical_to_seed(self):
        self._check("pre-pama")

    def test_pama_bit_identical_to_seed(self):
        self._check("pama")

    def _check(self, policy):
        result = self._run(policy)
        gets, hit_ratio, avg_service, evictions, migrations = \
            SEED_RESULTS[policy]
        assert result.total_gets == gets
        # exact equality on purpose: the optimization must not perturb a
        # single float operation, let alone a hit/miss decision.
        assert result.hit_ratio == hit_ratio
        assert result.avg_service_time == avg_service
        assert result.cache_stats["evictions"] == evictions
        assert result.cache_stats["migrations"] == migrations


def _result_tuple(r):
    return (r.total_gets, r.hit_ratio, r.avg_service_time, r.cache_stats,
            r.final_class_slabs, r.final_queue_slabs,
            [(w.index, w.gets, w.hits, w.penalty_sum, w.service_sum,
              w.class_slabs, w.queue_slabs) for w in r.windows])


class TestEnginePins:
    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_bit_identical(self, name):
        policy, kwargs, slab_size = ENGINE_CONFIGS[name]
        cache = SlabCache(8 << 20, make_policy(policy, **kwargs),
                          SizeClassConfig(slab_size=slab_size))
        result = simulate(mixed_trace(), cache, window_gets=10_000)
        assert _result_tuple(result) == ENGINE_PINS[name]
