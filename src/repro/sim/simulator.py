"""Trace-driven simulation: replay a trace against a policy-driven cache.

The replay follows the paper's methodology: GETs probe the cache; a
miss costs the item's penalty and is immediately followed by a SET
re-installing the item (fill-on-miss); SET/DELETE trace records are
applied directly.  Hit ratio and average service time are collected per
window of GETs, with per-class and per-queue slab snapshots at each
window close (the Figs 3/4 series).

Replay sources: an in-memory :class:`~repro.traces.record.Trace`, or
any *streaming* source — a :class:`~repro.traces.compile.CompiledTrace`
or an iterable of bounded :class:`Trace` windows.  Every source feeds
one engine: the derive pass (:mod:`repro.sim.derive`) turns each window
into rows carrying the request's precomputed hash pair, size class and
penalty bin, and one loop dispatches them to the cache's GET and SET
bodies.  A 100M-op compiled trace replays with resident memory bounded
by the window, and results identical to the whole-trace replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.cache.cache import SlabCache
from repro.sim.derive import derived_rows
from repro.sim.metrics import MetricsCollector, WindowStats
from repro.sim.service import ServiceTimeModel


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    policy: str
    windows: list[WindowStats]
    hit_ratio: float
    avg_service_time: float
    total_gets: int
    cache_stats: dict[str, float]
    elapsed_seconds: float
    #: final slab allocation per size class
    final_class_slabs: dict[int, int] = field(default_factory=dict)
    #: final slab allocation per queue (class, bin)
    final_queue_slabs: dict[tuple[int, int], int] = field(default_factory=dict)
    #: service-time tail estimates ("p50"/"p90"/"p99"/"p999", seconds),
    #: populated only when an obs registry was active for the run.
    service_quantiles: dict[str, float] = field(default_factory=dict)
    #: same split by outcome (hit service times / miss penalties).
    hit_quantiles: dict[str, float] = field(default_factory=dict)
    miss_quantiles: dict[str, float] = field(default_factory=dict)
    #: per-tenant outcome summaries, populated only for a policy with
    #: ``wants_tenants`` (the tenant arbiter): tenant id ->
    #: {name, gets, hits, hit_ratio, service_sum, avg_service_time,
    #:  penalty_sum, sla_weight, slabs, quantiles}.
    tenant_metrics: dict[int, dict] = field(default_factory=dict)

    def total_weighted_service_time(self) -> float:
        """Sum over tenants of ``sla_weight * service_sum`` (the
        multi-tenant objective the scenarios compare on)."""
        return sum(m["sla_weight"] * m["service_sum"]
                   for m in self.tenant_metrics.values())

    def hit_ratio_series(self) -> list[float]:
        return [w.hit_ratio for w in self.windows]

    def service_time_series(self) -> list[float]:
        return [w.avg_service_time for w in self.windows]

    def class_slab_series(self, class_idx: int) -> list[int]:
        """Per-window slab count of one size class (a Fig 3 line)."""
        return [w.class_slabs.get(class_idx, 0) for w in self.windows]

    def queue_slab_series(self, class_idx: int, bin_idx: int) -> list[int]:
        """Per-window slab count of one subclass (a Fig 4 line)."""
        return [w.queue_slabs.get((class_idx, bin_idx), 0)
                for w in self.windows]


class Simulator:
    """Replays traces against a cache.

    Args:
        cache: the cache under test (policy already attached).
        service_model: hit/miss cost model.
        window_gets: GETs per metrics window (paper: 1M; scale down with
            the trace).
        fill_on_miss: re-install missed items via SET, per the paper's
            "a GET request miss immediately follows ... a SET request".
    """

    def __init__(self, cache: SlabCache,
                 service_model: ServiceTimeModel | None = None,
                 window_gets: int = 100_000, fill_on_miss: bool = True,
                 obs=None, faults=None, timeline=None,
                 tracing=None) -> None:
        self.cache = cache
        self.service_model = service_model or ServiceTimeModel()
        self.fill_on_miss = fill_on_miss
        self.window_gets = window_gets
        #: optional obs registry for per-request histograms; falls back
        #: to the module-level registry when observability is enabled.
        self.obs = obs
        #: optional :class:`~repro.faults.injector.FaultInjector` —
        #: backend spikes/errors, routed-op latency, graceful
        #: degradation.  Share the same injector with the cache when it
        #: is a fault-aware cluster.
        self.faults = faults
        #: optional :class:`~repro.obs.timeline.TimelineRecorder`.
        self.timeline = timeline
        #: optional :class:`~repro.obs.spans.SpanTracer` — sampled
        #: requests open a root "request" span; a fault-aware cluster
        #: sharing the tracer nests under it.
        self.tracing = tracing
        # Rebuilt at the top of every run(); kept as an attribute so a
        # run's collector stays inspectable after it returns.
        self.metrics = MetricsCollector(window_gets, self._snapshot)

    def _snapshot(self):
        return (self.cache.class_slab_distribution(),
                self.cache.slab_distribution())

    def run(self, trace) -> SimulationResult:
        """Replay a trace source to completion and return the result.

        ``trace`` is a :class:`Trace`, a
        :class:`~repro.traces.compile.CompiledTrace`, or an iterable of
        bounded :class:`Trace` windows; streaming sources replay with
        memory bounded by the window and results identical to the
        whole-trace replay.

        Each run gets a fresh :class:`MetricsCollector`: reusing the
        one from a previous run would carry its windows and totals into
        the new result and skew repeat-pass experiments (Fig 7 style).
        """
        cache = self.cache
        policy = cache.policy
        metrics = self.metrics = MetricsCollector(self.window_gets,
                                                  self._snapshot)
        service = self.service_model
        timeline = self.timeline
        if timeline is not None:
            attach = getattr(cache, "attach_timeline", None)
            if attach is not None:
                attach(timeline)
            else:
                # Re-bind unconditionally: a recorder reused across
                # simulators must snapshot *this* run's cache, not the
                # first cache it ever met.
                timeline.snapshot_fn = self._snapshot
        registry = self.obs if self.obs is not None else _obs.get_registry()
        side = None
        if (self.faults is not None or timeline is not None
                or self.tracing is not None or registry is not None
                or policy.wants_tenants or service.bandwidth is not None):
            side = _SideChannels(self, metrics, registry)
        rows = derived_rows(trace, service, cache.size_classes, policy)
        fill = self.fill_on_miss
        hit_cost = service.hit_time
        lookup_hashed = cache.lookup_hashed
        set_classed = cache.set_classed
        cache_set = cache.set
        cache_delete = cache.delete
        record_hit = metrics.record_hit
        record_miss = metrics.record_miss
        started = time.perf_counter()
        # One loop.  A request takes the side-channel path when anything
        # is attached; the plain path below pays one check per row.
        for (op, key, key_size, value_size, penalty, miss_cost,
             h1, h2, class_idx, bin_idx, tenant) in rows:
            if side is not None:
                side(op, key, key_size, value_size, penalty, miss_cost,
                     h1, h2, class_idx, bin_idx, tenant)
                continue
            if op == 0:  # GET
                if lookup_hashed(key, key_size, value_size, penalty,
                                 h1, h2, class_idx, bin_idx) is not None:
                    record_hit(hit_cost)
                    continue
                record_miss(miss_cost)
                if not fill:
                    continue
            elif op != 1:  # DELETE
                cache_delete(key)
                continue
            # SET, or the fill after a GET miss: rows the derive pass
            # proved valid take the SET body directly, the rest go
            # through set()'s validation.
            if class_idx >= 0 and value_size >= 0 and penalty >= 0:
                set_classed(key, key_size, value_size, penalty,
                            class_idx, bin_idx)
            else:
                cache_set(key, key_size, value_size, penalty)
        elapsed = time.perf_counter() - started
        metrics.flush()
        if timeline is not None:
            timeline.finish()

        hists = side.hists if side is not None else None
        return SimulationResult(
            policy=policy.name,
            windows=list(metrics.windows),
            hit_ratio=metrics.overall_hit_ratio,
            avg_service_time=metrics.overall_avg_service_time,
            total_gets=metrics.total_gets,
            cache_stats=cache.stats.snapshot(),
            elapsed_seconds=elapsed,
            final_class_slabs=cache.class_slab_distribution(),
            final_queue_slabs=cache.slab_distribution(),
            service_quantiles=hists[0].quantiles() if hists else {},
            hit_quantiles=hists[1].quantiles() if hists else {},
            miss_quantiles=hists[2].quantiles() if hists else {},
            tenant_metrics=side.tenant_metrics() if side is not None else {},
        )


def _store(cache, key, key_size, value_size, penalty, class_idx, bin_idx):
    """The replay loop's SET dispatch (see :meth:`Simulator.run`)."""
    if class_idx >= 0 and value_size >= 0 and penalty >= 0:
        cache.set_classed(key, key_size, value_size, penalty,
                          class_idx, bin_idx)
    else:
        cache.set(key, key_size, value_size, penalty)


#: (name, help) of the per-request histograms, in SimulationResult
#: quantile order: all GETs, hits, misses.
_HISTOGRAMS = (
    ("sim_service_time_seconds", "per-request GET service time"),
    ("sim_hit_time_seconds", "per-request service time of GET hits"),
    ("sim_miss_penalty_seconds", "per-request penalty of GET misses"),
)


class _SideChannels:
    """Everything a replayed request may feed besides the metrics.

    The side channels are fault injection (backend spikes and errors,
    routed-op latency, graceful degradation), span tracing, the
    timeline, per-request service-time histograms, per-tenant cells
    (a policy with ``wants_tenants``) and size-dependent hit costs.
    :meth:`Simulator.run` hands a request here only when at least one
    is attached, so a plain replay never pays for them.
    """

    def __init__(self, sim: Simulator, metrics: MetricsCollector,
                 registry) -> None:
        cache = sim.cache
        self.cache = cache
        self.policy = cache.policy
        self.fill = sim.fill_on_miss
        self.record_hit = metrics.record_hit
        self.record_miss = metrics.record_miss
        self.service_hit = sim.service_model.hit
        self.faults = sim.faults
        self.tracer = sim.tracing
        self.timeline = sim.timeline
        self.registry = registry
        #: (all, hits, misses) histograms, when a registry is active.
        #: Labelled by policy so back-to-back runs against one shared
        #: registry (e.g. a serial comparison) keep separate tails.
        self.hists = None
        if registry is not None:
            self.hists = tuple(
                registry.histogram(name, doc, lo=1e-6, growth=1.25,
                                   policy=self.policy.name)
                for name, doc in _HISTOGRAMS)
        self.tenants = self.policy.wants_tenants
        #: tenant -> [gets, hits, service_sum, penalty_sum]
        self.cells: dict[int, list] = {}
        self.tenant_hists: dict[int, object] = {}
        # Request index: the access tick the timeline windows key on,
        # unless the fault injector owns the clock.
        self.tick = -1

    def __call__(self, op, key, key_size, value_size, penalty, miss_cost,
                 h1, h2, class_idx, bin_idx, tenant) -> None:
        inj = self.faults
        if inj is not None:
            tick = inj.advance()
        else:
            tick = self.tick = self.tick + 1
        tracer = self.tracer
        root = None
        if tracer is not None and tracer.sampled(tick):
            root = tracer.start_trace(
                tick, ("get", "set", "delete")[op], key=str(key))
        if self.tenants:
            # The arbiter's bin and miss dispatch key on this.
            self.policy.current_tenant = tenant
        cache = self.cache
        if op == 0:  # GET
            self._get(tick, key, key_size, value_size, penalty, miss_cost,
                      h1, h2, class_idx, bin_idx, tenant)
        else:
            if op == 1:  # SET
                _store(cache, key, key_size, value_size, penalty,
                       class_idx, bin_idx)
            else:  # DELETE
                cache.delete(key)
            if inj is not None:
                inj.consume_latency()
            if self.timeline is not None:
                self.timeline.advance(tick)
        if root is not None:
            tracer.end(root, tick)

    def _get(self, tick, key, key_size, value_size, penalty, miss_cost,
             h1, h2, class_idx, bin_idx, tenant) -> None:
        """One GET: outcome, its service time, then the fill.

        With fault injection, routed-op latency is folded into the
        service time, and a miss consults the plan's backend faults
        before filling: an error burst either degrades gracefully
        (serve-stale: cheap fallback answer, no fill) or charges the
        error penalty; a latency spike multiplies the miss penalty —
        the condition PAMA's penalty-weighted allocation is built for.
        """
        inj = self.faults
        item = self.cache.lookup_hashed(key, key_size, value_size, penalty,
                                        h1, h2, class_idx, bin_idx)
        extra = inj.consume_latency() if inj is not None else 0.0
        do_fill = self.fill
        if item is not None:
            cost = self.service_hit(item.total_size)
            if inj is not None:
                cost += extra
            self.record_hit(cost)
        else:
            cost = miss_cost
            if inj is not None:
                plan = inj.plan
                if plan.backend_error(tick):
                    # The backend refused the recompute: degrade.
                    cfg = inj.resilience
                    inj.count("backend_error")
                    inj.event("backend_error", key=key)
                    do_fill = False
                    if cfg.serve_stale:
                        cost = extra + cfg.stale_serve_time
                        inj.count("stale_served")
                    else:
                        cost = extra + cfg.error_penalty
                        inj.count("backend_give_up")
                    inj.note_degraded(cost)
                else:
                    mult = plan.backend_multiplier(tick)
                    if mult != 1.0:
                        inj.count("backend_spiked")
                    cost = extra + miss_cost * mult
            self.record_miss(cost)
        hit = item is not None
        if self.timeline is not None:
            self.timeline.record_get(tick, hit, cost,
                                     0.0 if hit else penalty,
                                     tenant if self.tenants else -1)
        if self.hists is not None:
            self.hists[0].record(cost)
            self.hists[1 if hit else 2].record(cost)
        if self.tenants:
            self._tenant_get(tenant, hit, cost, penalty)
        if not hit and do_fill:
            _store(self.cache, key, key_size, value_size, penalty,
                   class_idx, bin_idx)
            if inj is not None:
                inj.consume_latency()  # the fill is off the GET path

    def _tenant_get(self, tenant, hit, cost, penalty) -> None:
        cell = self.cells.get(tenant)
        if cell is None:
            cell = self.cells[tenant] = [0, 0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += hit
        cell[2] += cost
        if not hit and penalty == penalty:
            cell[3] += penalty
        if self.registry is not None:
            th = self.tenant_hists.get(tenant)
            if th is None:
                th = self.tenant_hists[tenant] = self.registry.histogram(
                    "sim_tenant_service_time_seconds",
                    "per-request GET service time by tenant",
                    lo=1e-6, growth=1.25, policy=self.policy.name,
                    tenant=str(tenant))
            th.record(cost)

    def tenant_metrics(self) -> dict[int, dict]:
        """Per-tenant outcome summaries (``SimulationResult.tenant_metrics``)."""
        if not self.tenants:
            return {}
        configs = self.policy.tenants
        slabs = self.policy.tenant_slabs()
        out: dict[int, dict] = {}
        for tenant in sorted(self.cells):
            gets, hits, service_sum, penalty_sum = self.cells[tenant]
            cfg = configs[tenant] if tenant < len(configs) else None
            th = self.tenant_hists.get(tenant)
            out[tenant] = {
                "name": cfg.name if cfg is not None else f"t{tenant}",
                "gets": gets,
                "hits": hits,
                "hit_ratio": hits / gets if gets else 0.0,
                "service_sum": service_sum,
                "avg_service_time": service_sum / gets if gets else 0.0,
                "penalty_sum": penalty_sum,
                "sla_weight": (cfg.sla_weight if cfg is not None else 1.0),
                "slabs": slabs[tenant] if tenant < len(slabs) else 0,
                "quantiles": th.quantiles() if th is not None else {},
            }
        return out


def simulate(trace, cache: SlabCache, *,
             hit_time: float = 1e-4, window_gets: int = 100_000,
             fill_on_miss: bool = True, obs=None, faults=None,
             timeline=None, tracing=None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    ``trace`` accepts every :meth:`Simulator.run` source, including
    streaming :class:`~repro.traces.compile.CompiledTrace` replays.
    """
    sim = Simulator(cache, ServiceTimeModel(hit_time=hit_time),
                    window_gets=window_gets, fill_on_miss=fill_on_miss,
                    obs=obs, faults=faults, timeline=timeline,
                    tracing=tracing)
    return sim.run(trace)
