"""The key-sharded single-replay engine and the metrics merge.

Pinned contracts:

* ``run_sharded(shards=1)`` is ``==``-exact to ``Simulator.run`` —
  results, window series, and cache-stat counters;
* sharded runs are deterministic for any fixed shard count, and the
  process-pool path produces exactly what the serial in-process path
  produces (shard replays are independent, so scheduling cannot change
  them);
* ``MetricsCollector.merge`` is window-aligned, order-independent, and
  the identity on a single part;
* the guards: tenant policies and below-one-slab capacities are
  rejected.
"""

import math
import random

import numpy as np
import pytest

from repro.bloom.hashing import key_shard
from repro.sim import (ExperimentSpec, MetricsCollector, ServiceTimeModel,
                       Simulator, run_sharded, shard_windows)
from repro.sim.metrics import WindowStats
from repro.traces.record import Trace

MIB = 1 << 20


def _mixed_trace(n=30_000, seed=5):
    rng = random.Random(seed)
    ops, keys, vs, pens = [], [], [], []
    for _ in range(n):
        r = rng.random()
        ops.append(0 if r < 0.8 else (1 if r < 0.95 else 2))
        keys.append(rng.randrange(4000))
        vs.append(rng.choice((40, 200, 900, 3000)))
        pens.append(rng.choice((0.0005, 0.05, 2.0)))
    return Trace(np.array(ops, np.uint8), np.array(keys, np.int64),
                 np.full(n, 16, np.int32), np.array(vs, np.int32),
                 np.array(pens, np.float64))


def _spec(**overrides) -> ExperimentSpec:
    defaults = dict(name="sharded-test", cache_bytes=4 * MIB,
                    window_gets=6000,
                    policy_kwargs={"pama": {"value_window": 6000},
                                   "pre-pama": {"value_window": 6000}})
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _result_tuple(r):
    return (r.total_gets, r.hit_ratio, r.avg_service_time, r.cache_stats,
            r.final_class_slabs, r.final_queue_slabs,
            [(w.index, w.gets, w.hits, w.penalty_sum, w.service_sum,
              w.class_slabs, w.queue_slabs) for w in r.windows])


class TestShardsOneExact:
    @pytest.mark.parametrize("policy", ["memcached", "pre-pama", "pama"])
    def test_exact_vs_simulator_run(self, policy):
        trace = _mixed_trace()
        spec = _spec()
        cache = spec.build_cache(policy)
        sim = Simulator(cache, ServiceTimeModel(hit_time=spec.hit_time),
                        window_gets=spec.window_gets,
                        fill_on_miss=spec.fill_on_miss)
        direct = sim.run(trace)
        sharded = run_sharded(trace, spec, policy, shards=1)
        assert _result_tuple(direct) == _result_tuple(sharded)


class TestShardedDeterminism:
    def test_fixed_shards_reproducible(self):
        trace = _mixed_trace()
        spec = _spec()
        a = run_sharded(trace, spec, "pama", shards=2, jobs=1)
        b = run_sharded(trace, spec, "pama", shards=2, jobs=1)
        assert _result_tuple(a) == _result_tuple(b)

    def test_pool_matches_serial(self):
        trace = _mixed_trace(12_000)
        spec = _spec()
        serial = run_sharded(trace, spec, "pama", shards=2, jobs=1)
        pooled = run_sharded(trace, spec, "pama", shards=2, jobs=2)
        assert _result_tuple(serial) == _result_tuple(pooled)

    def test_capacity_and_gets_conserved(self):
        trace = _mixed_trace()
        spec = _spec()
        direct = run_sharded(trace, spec, "memcached", shards=1)
        sharded = run_sharded(trace, spec, "memcached", shards=4, jobs=1)
        # every GET lands in exactly one shard
        assert sharded.total_gets == direct.total_gets
        gets = sharded.cache_stats["gets"]
        assert gets == direct.cache_stats["gets"]


class TestShardWindows:
    def test_partition_is_exact_and_disjoint(self):
        trace = _mixed_trace(5000)
        nshards = 3
        parts = [list(shard_windows(trace, s, nshards))[0]
                 for s in range(nshards)]
        assert sum(len(p) for p in parts) == len(trace)
        for s, part in enumerate(parts):
            assert all(key_shard(k, nshards) == s
                       for k in part.keys.tolist())

    def test_single_shard_passthrough(self):
        trace = _mixed_trace(100)
        (window,) = shard_windows(trace, 0, 1)
        assert window is trace


class TestGuards:
    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            run_sharded(_mixed_trace(100), _spec(), "pama", shards=0)

    def test_capacity_guard(self):
        spec = _spec(cache_bytes=512 * 1024)
        with pytest.raises(ValueError, match="below one"):
            run_sharded(_mixed_trace(100), spec, "pama", shards=64)


class TestMetricsMerge:
    def _collector(self, outcomes, window_gets=4):
        mc = MetricsCollector(window_gets=window_gets)
        for hit, value in outcomes:
            (mc.record_hit if hit else mc.record_miss)(value)
        mc.flush()
        return mc

    def test_identity_on_single_part(self):
        mc = self._collector([(True, 1e-4), (False, 0.5), (True, 1e-4),
                              (False, 2.0), (True, 1e-4)])
        merged = MetricsCollector.merge([mc])
        assert merged.total_gets == mc.total_gets
        assert merged.total_hits == mc.total_hits
        assert merged.total_penalty == mc.total_penalty
        assert merged.total_service == mc.total_service
        assert merged.windows == mc.windows

    def test_order_independent(self):
        rng = random.Random(3)
        parts = [self._collector(
            [(rng.random() < 0.7, rng.choice((1e-4, 0.05, 2.0)))
             for _ in range(rng.randrange(5, 40))]) for _ in range(4)]
        forward = MetricsCollector.merge(parts)
        backward = MetricsCollector.merge(list(reversed(parts)))
        assert forward.windows == backward.windows
        assert forward.total_service == backward.total_service
        assert forward.total_penalty == backward.total_penalty

    def test_window_aligned_with_ragged_tails(self):
        a = self._collector([(True, 1.0)] * 10, window_gets=4)  # 3 windows
        b = self._collector([(False, 2.0)] * 5, window_gets=4)  # 2 windows
        merged = MetricsCollector.merge([a, b])
        assert [w.gets for w in merged.windows] == [8, 5, 2]
        assert merged.windows[0].hits == 4
        assert merged.windows[2] == WindowStats(
            index=2, gets=2, hits=2, penalty_sum=0.0, service_sum=2.0)

    def test_float_sums_use_fsum(self):
        # per-part totals chosen so naive left-to-right addition across
        # parts would lose the middle value (1e16 + 1.0 == 1e16)
        parts = [self._collector([(False, v)], window_gets=10)
                 for v in (1e16, 1.0, -1e16)]
        merged = MetricsCollector.merge(parts)
        assert merged.total_penalty == 1.0
        assert merged.windows[0].penalty_sum == 1.0
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0  # the mechanism

    def test_rejects_unflushed(self):
        mc = MetricsCollector(window_gets=100)
        mc.record_hit(1e-4)
        with pytest.raises(ValueError, match="flushed"):
            MetricsCollector.merge([mc])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            MetricsCollector.merge([])


class TestTenantRejection:
    def test_arbiter_policy_rejected_when_sharded(self, monkeypatch):
        from repro.tenancy import TenantArbiter

        # run_sharded instantiates policies by registry name; the
        # arbiter is constructed directly in real use, so route the
        # probe to one to pin the engine's rejection path.
        arbiter = TenantArbiter(2)
        assert arbiter.wants_tenants
        import repro.sim.sharded as sharded_mod
        monkeypatch.setattr(sharded_mod, "make_policy",
                            lambda name, **kw: arbiter)
        with pytest.raises(ValueError, match="tenant"):
            run_sharded(_mixed_trace(100), _spec(), "pama", shards=2,
                        jobs=1)
