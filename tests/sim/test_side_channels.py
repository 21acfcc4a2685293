"""Side channels combine in the one replay engine.

Fault injection, tenant tagging, the timeline and per-request
histograms all ride the same loop, so any combination replays — and
turning observability on must not change which cache entry points run
or what they compute.
"""

import math

import numpy as np
import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy
from repro.faults import FaultInjector
from repro.faults.plan import BackendErrorBurst, BackendSpike, FaultPlan
from repro.obs import Registry, TimelineRecorder
from repro.sim.simulator import simulate
from repro.tenancy import TenantArbiter
from repro.traces.record import Trace
from tests.sim.test_replay_differential import _result_tuple, mixed_trace


def _plan():
    return FaultPlan([BackendSpike(5_000, 15_000, 4.0),
                      BackendErrorBurst(20_000, 26_000, 0.3)], seed=7)


def _faulted(policy, trace):
    inj = FaultInjector(_plan())
    cache = SlabCache(8 << 20, policy, SizeClassConfig(slab_size=64 << 10))
    return simulate(trace, cache, window_gets=10_000, faults=inj), inj


class TestTenantsTimesFaults:
    def test_single_tenant_is_plain_pama(self):
        plain, plain_inj = _faulted(PamaPolicy(PamaConfig(value_window=10_000)),
                                    mixed_trace())
        arb, arb_inj = _faulted(
            TenantArbiter(1, config=PamaConfig(value_window=10_000)),
            mixed_trace())
        assert _result_tuple(arb) == _result_tuple(plain)
        assert arb_inj.snapshot() == plain_inj.snapshot()
        assert plain_inj.counters["backend_spiked"] > 0
        assert plain_inj.counters["backend_error"] > 0

    def test_two_tenant_metrics_add_up(self):
        base = mixed_trace()
        trace = Trace(base.ops, base.keys, base.key_sizes, base.value_sizes,
                      base.penalties, tenants=(base.keys % 2).astype(np.uint16))
        result, inj = _faulted(
            TenantArbiter(2, config=PamaConfig(value_window=10_000)), trace)
        assert inj.counters["backend_error"] > 0
        cells = result.tenant_metrics
        assert set(cells) == {0, 1}
        assert sum(m["gets"] for m in cells.values()) == result.total_gets
        assert (sum(m["hits"] for m in cells.values())
                == sum(w.hits for w in result.windows))
        # Faulted service times (spikes, degraded answers) are what the
        # tenants are charged.
        assert math.fsum(m["service_sum"] for m in cells.values()) \
            == pytest.approx(result.avg_service_time * result.total_gets,
                             rel=1e-12)


class TestObsTimesDerive:
    def _run(self, **obs):
        cache = SlabCache(8 << 20,
                          PamaPolicy(PamaConfig(value_window=10_000,
                                                tracker="bloom")),
                          SizeClassConfig(slab_size=64 << 10))
        return simulate(mixed_trace(), cache, window_gets=10_000, **obs)

    def test_obs_on_keeps_the_engine_and_results(self, monkeypatch):
        calls = {"lookup_hashed": 0, "lookup": 0}
        for name in calls:
            original = getattr(SlabCache, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(SlabCache, name, counted)
        off = self._run()
        off_calls = dict(calls)
        timeline = TimelineRecorder(stride=5_000)
        on = self._run(obs=Registry(), timeline=timeline)

        assert off_calls["lookup_hashed"] == off.total_gets
        assert calls["lookup_hashed"] == 2 * off.total_gets
        assert calls["lookup"] == 0
        assert on.hit_ratio == off.hit_ratio
        assert on.avg_service_time == off.avg_service_time
        assert _result_tuple(on)[6] == _result_tuple(off)[6]  # windows
        assert on.service_quantiles and not off.service_quantiles
        assert sum(row["gets"] for row in timeline.rows) == on.total_gets
