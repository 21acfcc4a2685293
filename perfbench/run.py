#!/usr/bin/env python3
"""The repository benchmark: steady-state PAMA replay and closed-loop serving.

Run from the repository root::

    python3 perfbench/run.py --workload etc-pama-1m --seed 1 --seconds 10 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``etc-pama-1m``   ETC trace, exact-tracker PAMA, 64 MiB, 1 MiB slabs,
  in-memory trace, scalar replay loop;
* ``var-bloom-64k`` VAR trace (half key universe), Bloom-tracked PAMA,
  8 MiB, 64 KiB slabs, compiled ``.ctrc`` trace streamed by windows;
* ``serve-pama``    ``repro-kv serve`` in a subprocess under a
  closed-loop pipelined client.

Each run sets up three times.  A replay set-up warms untimed until the
slab pool is full and migrating; then one ``Simulator.run`` over the
rest of its trace is timed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` times one phase untraced and again with timing
wrappers on every layer's public functions, and prints the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (compiled traces, spans, snapshots)
WORK = ROOT / ".perfbench_work"

#: set-ups per run; ``setup_s`` is their median.  A replay times one
#: phase after each set-up (each its own stretch of the request stream)
#: and reports the median throughput
SETUP_REPEATS = 3
#: untimed rows per warm-up Simulator.run call; the pool is checked
#: after each, which gives the rows it took to fill
WARM_STEP = 10_000
#: the largest share of the traced time the ledger may leave in no
#: wrapped function, per workload (measured: see perfbench/README.md)
RESIDUAL_LIMIT = {"etc-pama-1m": 0.01, "var-bloom-64k": 0.01,
                  "serve-pama": 0.7}

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s", "hit_ratio": "ratio",
    "avg_service_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


class NotMeasuring(Exception):
    """The run would not measure what its workload claims to."""


@dataclass(frozen=True)
class ReplaySpec:
    profile: str
    scale: float
    tracker: str
    cache_mib: int
    slab_kib: int
    #: untimed rows replayed before timing (the pool must be full and
    #: migrating by then)
    warm_rows: int
    #: timed rows per requested second (over all of a run's phases),
    #: sized so the timed phases last about that long on a 2-core host
    rows_per_second: int
    #: replay a compiled trace by streaming windows (else in memory)
    streamed: bool


REPLAYS = {
    "etc-pama-1m": ReplaySpec("etc", 1.0, "exact", 64, 1024, 200_000,
                              70_000, False),
    "var-bloom-64k": ReplaySpec("var", 0.5, "bloom", 8, 64, 300_000,
                                100_000, True),
}
WORKLOADS = (*REPLAYS, "serve-pama")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def metric(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def proc_status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


#: resolution of the CPU times in ``/proc/<pid>/stat`` (seconds)
CPU_TICK = 1.0 / os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int | str) -> float:
    """User + system CPU time of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * CPU_TICK


def per(num: float, den: float) -> float:
    return num / den if den else 0.0


def cpus_quietest_first() -> list[int]:
    """The CPUs this process may use, the one running Python fastest first.

    Shared hosts often have one core that is busier than the others
    (interrupts, neighbours); a run landing on it measures the
    neighbours.  A short probe of identical work on each core picks the
    quiet one, and the timed process is pinned there.
    """
    from speed import probe

    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return allowed
    score = {}
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            score[cpu] = statistics.median(probe() for _ in range(40))
    finally:
        os.sched_setaffinity(0, allowed)
    return sorted(allowed, key=score.__getitem__)


class CoreSampler:
    """``perfbench/speed.py`` probing the timed process's core meanwhile."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), "--cpu", str(cpu)],
            cwd=ROOT, stdout=subprocess.PIPE)

    def stop(self):
        """Stop sampling; returns a SpeedMeter holding the samples."""
        from speed import SpeedMeter

        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        samples = []
        if self.proc.returncode == 0 and out:
            samples = [tuple(x) for x in json.loads(out)]
        return SpeedMeter(samples)


# ---------------------------------------------------------------------------
# replay workloads
# ---------------------------------------------------------------------------

class ReplayRun:
    """One set-up replay: a warmed cache and the timed rows to come."""

    def __init__(self, spec: ReplaySpec, seed: int, stream: int,
                 seconds: int, tag: str) -> None:
        from repro.cache import SizeClassConfig, SlabCache
        from repro.core.config import PamaConfig
        from repro.policies import make_policy
        from repro.sim.simulator import Simulator
        from repro.traces import (SyntheticTraceGenerator, compile_trace,
                                  get_profile)
        from repro.traces.compile import CompiledTrace

        self.setup_window = (time.monotonic(), 0.0)
        started = time.perf_counter()
        self.timed_rows = spec.rows_per_second * seconds // SETUP_REPEATS
        warm, n = spec.warm_rows, spec.warm_rows + self.timed_rows
        profile = get_profile(spec.profile)
        if spec.scale != 1.0:
            profile = profile.scaled(spec.scale)
        # The key population (sizes, penalties, churn schedule) is the
        # profile's own at population seed 0; --seed and the phase's
        # stream number draw the request stream from it.  Seeds then
        # differ by sampling, not by which few keys happen to be hot,
        # which is what keeps the run-to-run spread inside the bounds.
        trace = SyntheticTraceGenerator(profile, seed=0).generate(
            n, start_position=seed * SETUP_REPEATS + stream)
        self.generate_s = time.perf_counter() - started
        timed = trace.slice(warm, n)
        self.timed_gets = int((timed.ops == 0).sum())
        self.compile_s = 0.0
        self.path = None
        if spec.streamed:
            self.path = WORK / f"{tag}.ctrc"
            shutil.rmtree(self.path, ignore_errors=True)
            t0 = time.perf_counter()
            compile_trace(timed, self.path)
            self.compile_s = time.perf_counter() - t0
            # The program's default window; Simulator.run streams it.
            self.source = CompiledTrace(self.path)
        else:
            self.source = timed
        policy = make_policy("pama", config=PamaConfig(tracker=spec.tracker))
        self.cache = SlabCache(spec.cache_mib << 20, policy,
                               SizeClassConfig(slab_size=spec.slab_kib << 10))
        self.sim = Simulator(self.cache)
        # Warm untimed, in steps, noting when the pool first fills.
        self.rows_to_fill = 0
        for lo in range(0, warm, WARM_STEP):
            hi = min(lo + WARM_STEP, warm)
            self.sim.run(trace.slice(lo, hi))
            if not self.rows_to_fill and self.cache.pool.free == 0:
                self.rows_to_fill = hi
        # Steady-state guard: no timing of cold fill.
        if self.cache.pool.free != 0 or self.cache.stats.migrations == 0:
            raise NotMeasuring(
                f"cache not full and migrating after {warm} warm rows "
                f"(free slabs {self.cache.pool.free}, migrations "
                f"{self.cache.stats.migrations})")
        self.setup_s = time.perf_counter() - started
        self.setup_window = (self.setup_window[0], time.monotonic())

    def timed(self) -> "Timed":
        """Replay the rest of the trace in one ``Simulator.run`` call."""
        before = _cache_counters(self.cache)
        gc.collect()
        from_ = time.monotonic()
        t0 = time.perf_counter()
        result = self.sim.run(self.source)
        wall = time.perf_counter() - t0
        after = _cache_counters(self.cache)
        return Timed(wall, self.timed_rows, result,
                     {k: after[k] - before[k] for k in after},
                     (from_, time.monotonic()))

    def close(self) -> None:
        self.source = None
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Timed:
    """What one timed replay phase measured."""

    wall: float
    rows: int
    #: the program's SimulationResult of the timed Simulator.run
    result: object
    #: program counters (cache stats, PAMA decisions) over the phase
    delta: dict
    #: monotonic start and end of the phase
    window: tuple[float, float]
    #: machine-speed factor (perfbench/speed.py), set once sampled
    factor: float = 1.0

    @property
    def throughput(self) -> float:
        """Rows per second, scaled to the reference machine speed."""
        return self.rows / (self.wall * self.factor)


def _cache_counters(cache) -> dict:
    stats = cache.stats
    policy = cache.policy
    out = {k: getattr(stats, k) for k in (
        "gets", "hits", "misses", "sets", "set_failures", "deletes",
        "evictions", "migrations", "rejected_too_large")}
    out["approved"] = policy.migrations_approved
    out["declined"] = policy.migrations_declined
    out["forced"] = policy.migrations_forced
    out["rebuilds"] = sum(getattr(t, "rebuilds", 0) for t in _trackers(cache))
    return out


def _trackers(cache) -> list:
    """The segment tracker of every PAMA queue."""
    return [q.policy_data.tracker for q in cache.queues.values()]


def check_replay(run: ReplayRun, t: Timed) -> list[str]:
    """Output checks after the timed phase (outside the timing)."""
    problems = []
    try:
        run.cache.check_invariants()
        run.cache.policy.check_ghost_sync()
    except AssertionError as exc:
        problems.append(f"invariant violated: {exc}")
    delta = t.delta
    if delta["hits"] + delta["misses"] != run.timed_gets:
        problems.append(f"hits + misses = {delta['hits'] + delta['misses']}"
                        f", timed GETs = {run.timed_gets}")
    if t.result.total_gets != run.timed_gets:
        problems.append(f"simulator counted {t.result.total_gets} GETs, "
                        f"trace has {run.timed_gets}")
    return problems


def _failed(delta: dict) -> int:
    return delta["set_failures"] + delta["rejected_too_large"]


def replay_end_to_end(spec: ReplaySpec, args) -> dict:
    setups, phases, problems = [], [], []
    sampler = CoreSampler(args.cpus[0])
    try:
        for stream in range(SETUP_REPEATS):
            run = ReplayRun(spec, args.seed, stream, args.seconds,
                            f"{args.workload}-{args.seed}-{stream}")
            try:
                t = run.timed()
                problems += check_replay(run, t)
            finally:
                run.close()
            setups.append((run.setup_s, run.setup_window))
            phases.append(t)
            print(f"[{args.workload}] phase {stream}: rows to fill the "
                  f"pool {run.rows_to_fill}; timed rows {t.rows} in "
                  f"{t.wall:.2f}s; migrations {t.delta['migrations']}",
                  file=sys.stderr)
            del run
            gc.collect()
    finally:
        meter = sampler.stop()
    for t in phases:
        t.factor = meter.factor(*t.window)
    rows = sum(t.rows for t in phases)
    wall = sum(t.wall for t in phases)
    gets = sum(t.result.total_gets for t in phases)
    values = {
        "throughput_ops_s": statistics.median(t.throughput for t in phases),
        "hit_ratio": sum(t.delta["hits"] for t in phases) / gets,
        "avg_service_ms": sum(t.result.avg_service_time * t.result.total_gets
                              for t in phases) / gets * 1e3,
        "setup_s": statistics.median(
            raw * meter.factor(*window) for raw, window in setups),
        "peak_rss_mb": proc_status_kb("self", "VmHWM") / 1024,
    }
    print(f"[{args.workload}] {rows} timed rows in {wall:.2f}s, raw "
          f"throughput {rows / wall:.1f} (speed factor "
          f"{statistics.median(t.factor for t in phases):.4f})",
          file=sys.stderr)
    return _result(problems, rows, sum(_failed(t.delta) for t in phases),
                   metric(values, END_TO_END_UNITS))


def replay_traced(spec: ReplaySpec, args) -> dict:
    sampler = CoreSampler(args.cpus[0])
    try:
        ref, run, t, ledger = _replay_traced_phases(spec, args)
    finally:
        meter = sampler.stop()
    ref.factor = meter.factor(*ref.window)
    t.factor = meter.factor(*t.window)
    try:
        problems = check_replay(run, t)
        aggs = ledger.snapshot()
        n_spans = ledger.write_spans(
            str(WORK / f"spans-{args.workload}-{args.seed}.jsonl"))
        filters = [f for tr in _trackers(run.cache)
                   for f in getattr(tr, "filters", ())]
        saturation = (statistics.fmean(f.saturation() for f in filters)
                      if filters else 0.0)
    finally:
        run.close()
    rows = t.rows
    gets = t.result.total_gets
    residual = t.wall - ledger.top_level_seconds
    values = layer_metrics(aggs, rows=rows, residual=residual,
                           counters=t.delta, denominator=t.wall)
    values.update({
        "traces.generate_s": run.generate_s,
        "traces.compile_s": run.compile_s,
        "traces.window_ns_per_row": per(_agg(aggs, "traces.window")["self"],
                                        rows) * 1e9,
        "sim.loop_self_ns_per_row": per(_agg(aggs, "sim.run")["self"],
                                        rows) * 1e9,
        "sim.derive_ns_per_row": per(_agg(aggs, "sim.derive")["self"],
                                     rows) * 1e9,
        "sim.metrics_ns_per_get": per(_agg(aggs, "sim.metrics")["self"],
                                      gets) * 1e9,
        "bloom.saturation": saturation,
        "trace.overhead_ratio": per(ref.throughput, t.throughput),
    })
    problems += ledger_problems(aggs, ledger.spans, residual, t.wall,
                                RESIDUAL_LIMIT[args.workload])
    print(f"[{args.workload}] traced wall {t.wall:.2f}s, residual share "
          f"{values['trace.residual_share']:.2e}, {n_spans} sampled spans "
          f"written", file=sys.stderr)
    return _result(problems, rows, _failed(t.delta), per_layer(values))


def _replay_traced_phases(spec: ReplaySpec, args):
    """An untraced reference phase, then the traced one."""
    import repro.sim.derive as derive
    from ledger import REQ_MARK_FILL, Ledger, install_program_layers
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulator import Simulator

    run = ReplayRun(spec, args.seed, 0, args.seconds, f"{args.workload}-ref")
    try:
        ref = run.timed()
    finally:
        run.close()
    del run
    gc.collect()

    run = ReplayRun(spec, args.seed, 0, args.seconds,
                    f"{args.workload}-trace")
    ledger = Ledger()
    try:
        install_program_layers(ledger, request_mode=True)
        ledger.install(Simulator, "run", "sim.run")
        ledger.install(MetricsCollector, "record_hit", "sim.metrics")
        ledger.install(MetricsCollector, "record_miss", "sim.metrics",
                       request=REQ_MARK_FILL)
        for attr in ("hash_pair_arrays", "class_index_array",
                     "penalty_bin_array"):
            ledger.install(derive, attr, "sim.derive")
        if spec.streamed:
            ledger.install_generator(run.source, "iter_windows",
                                     "traces.window")
        ledger.reset()
        t = run.timed()
    except BaseException:
        run.close()
        raise
    finally:
        ledger.restore()
    return ref, run, t, ledger


# ---------------------------------------------------------------------------
# the per-layer ledger (shared by replays and serving)
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "traces.generate_s": "s", "traces.compile_s": "s",
    "traces.window_ns_per_row": "ns",
    "sim.loop_self_ns_per_row": "ns", "sim.derive_ns_per_row": "ns",
    "sim.metrics_ns_per_get": "ns",
    "cache.lookup_calls_per_row": "count", "cache.lookup_self_ns": "ns",
    "cache.lookup_p99_us": "us", "cache.set_calls_per_row": "count",
    "cache.set_self_ns": "ns", "cache.set_p99_us": "us",
    "cache.delete_calls_per_row": "count",
    "cache.migrations_per_miss": "ratio", "cache.evictions_per_set": "ratio",
    "core.on_hit_ns": "ns", "core.on_miss_ns": "ns", "core.on_evict_ns": "ns",
    "core.on_insert_ns": "ns", "core.segment_access_ns": "ns",
    "core.resolve_pressure_calls_per_row": "count",
    "core.resolve_pressure_us": "us", "core.resolve_pressure_share": "ratio",
    "core.outgoing_value_calls_per_pressure": "count",
    "core.approved_per_pressure": "ratio",
    "core.declined_per_pressure": "ratio",
    "core.forced_per_pressure": "ratio",
    "core.ghost_hit_ratio": "ratio",
    "bloom.segment_access_ns": "ns", "bloom.segment_access_calls_per_row":
    "count", "bloom.segment_found_ratio": "ratio", "bloom.rollover_ms": "ms",
    "bloom.rebuilds": "count", "bloom.saturation": "ratio",
    "server.cpu_util": "ratio", "server.cpu_us_per_req": "us",
    "server.read_us_per_req": "us", "server.decode_us_per_req": "us",
    "server.reqs_per_read": "count", "server.cache_us_per_req": "us",
    "server.encode_us_per_req": "us", "server.write_us_per_req": "us",
    "server.loop_residual_us_per_req": "us",
    "client.cpu_util": "ratio",
    #: per-request round trip of the untraced reference phase.  Not an
    #: end-to-end metric: with 128 requests always in flight the median
    #: restates throughput (Little's law), and the p99's run-to-run
    #: spread on shared 2-core hosts (23-28% over 10 runs) reaches any
    #: bound a regression check could use
    "client.latency_p50_ms": "ms", "client.latency_p99_ms": "ms",
    "trace.overhead_ratio": "ratio", "trace.residual_share": "ratio",
    **{f"ledger.{layer}_share": "ratio" for layer in (
        "traces", "sim", "cache", "core", "bloom", "server")},
}

_EMPTY_AGG = {"calls": 0, "total": 0.0, "self": 0.0, "found": 0,
              "events": 0, "durations": None}


def _agg(aggs: dict, name: str) -> dict:
    return aggs.get(name, _EMPTY_AGG)


def _mean_ns(aggs: dict, name: str) -> float:
    a = _agg(aggs, name)
    return per(a["self"], a["calls"]) * 1e9


def _p99_us(aggs: dict, name: str) -> float:
    durations = _agg(aggs, name)["durations"]
    return percentile(durations, 99) * 1e6 if durations else 0.0


def layer_metrics(aggs: dict, *, rows: int, residual: float,
                  counters: dict, denominator: float) -> dict:
    """Cache, core and Bloom metrics plus the ledger shares.

    ``denominator`` is the time the shares divide: the traced wall time
    of a replay, the server's CPU time when serving.
    """
    from ledger import layer_of

    pressure = _agg(aggs, "core.resolve_pressure")
    bloom_access = _agg(aggs, "bloom.segment_access")
    rollover = _agg(aggs, "bloom.rollover")
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update({
        "cache.lookup_calls_per_row": per(_agg(aggs, "cache.lookup")["calls"],
                                          rows),
        "cache.lookup_self_ns": _mean_ns(aggs, "cache.lookup"),
        "cache.lookup_p99_us": _p99_us(aggs, "cache.lookup"),
        "cache.set_calls_per_row": per(_agg(aggs, "cache.set")["calls"], rows),
        "cache.set_self_ns": _mean_ns(aggs, "cache.set"),
        "cache.set_p99_us": _p99_us(aggs, "cache.set"),
        "cache.delete_calls_per_row": per(_agg(aggs, "cache.delete")["calls"],
                                          rows),
        "cache.migrations_per_miss": per(counters["migrations"],
                                         counters["misses"]),
        "cache.evictions_per_set": per(counters["evictions"],
                                       counters["sets"]),
        "core.on_hit_ns": _mean_ns(aggs, "core.on_hit"),
        "core.on_miss_ns": _mean_ns(aggs, "core.on_miss"),
        "core.on_evict_ns": _mean_ns(aggs, "core.on_evict"),
        "core.on_insert_ns": _mean_ns(aggs, "core.on_insert"),
        "core.segment_access_ns": _mean_ns(aggs, "core.segment_access"),
        "core.resolve_pressure_calls_per_row": per(pressure["calls"], rows),
        "core.resolve_pressure_us": per(pressure["total"],
                                        pressure["calls"]) * 1e6,
        "core.resolve_pressure_share": per(pressure["total"], denominator),
        "core.outgoing_value_calls_per_pressure": per(
            _agg(aggs, "core.outgoing_value")["calls"], pressure["calls"]),
        "core.approved_per_pressure": per(counters["approved"],
                                          pressure["calls"]),
        "core.declined_per_pressure": per(counters["declined"],
                                          pressure["calls"]),
        "core.forced_per_pressure": per(counters["forced"],
                                        pressure["calls"]),
        "core.ghost_hit_ratio": per(_agg(aggs, "core.ghost_hit")["calls"],
                                    _agg(aggs, "core.on_miss")["calls"]),
        "bloom.segment_access_ns": _mean_ns(aggs, "bloom.segment_access"),
        "bloom.segment_access_calls_per_row": per(bloom_access["calls"],
                                                  rows),
        "bloom.segment_found_ratio": per(bloom_access["found"],
                                         bloom_access["calls"]),
        "bloom.rollover_ms": per(rollover["total"], rollover["events"]) * 1e3,
        "bloom.rebuilds": counters.get("rebuilds", 0),
        "trace.residual_share": per(residual, denominator),
    })
    shares: dict[str, float] = {}
    for name, a in aggs.items():
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + a["self"]
    for layer, seconds in shares.items():
        values[f"ledger.{layer}_share"] = per(seconds, denominator)
    return values


def ledger_problems(aggs: dict, spans, residual: float, traced: float,
                    limit: float, slack: float = 0.0) -> list[str]:
    """Checks that the layers account for the traced time.

    ``traced`` is measured outside the wrappers: the replay's wall time
    around ``Simulator.run``, or the server's CPU time from ``/proc``.
    ``residual`` is what the wrapped spans leave of it; it must be
    neither negative (spans counting more time than passed, beyond the
    ``slack`` of the outside measurement) nor above ``limit`` of it.
    Every self time must be non-negative (beyond rounding), and the
    sampled spans must nest inside their parents.
    """
    from ledger import span_problems

    problems = []
    if not -slack <= residual <= limit * traced:
        problems.append(f"ledger does not account for the traced time: "
                        f"residual {residual:.6f}s of {traced:.6f}s, "
                        f"allowed -{slack:g}s to {limit:g} of it")
    negative = sorted(n for n, a in aggs.items() if a["self"] < -1e-9)
    if negative:
        problems.append(f"negative self time: {', '.join(negative)}")
    return problems + span_problems(spans)


def per_layer(values: dict) -> dict:
    """Every per-layer metric, in ``BENCHMARK.json`` order."""
    return metric({k: values[k] for k in PER_LAYER_UNITS}, PER_LAYER_UNITS)


def _result(problems: list[str], attempted: int, failed: int,
            metrics: dict) -> dict:
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# serving workload
# ---------------------------------------------------------------------------

SERVE_ARGS = ["serve", "--policy", "pama", "--cache-size", "64MiB",
              "--slab-size", "64KiB", "--shards", "4",
              "--host", "127.0.0.1", "--port", "0"]
_PORT_RE = re.compile(rb" on 127\.0\.0\.1:(\d+) ")


class Server:
    """``repro-kv serve`` in a subprocess, started by the launcher."""

    def __init__(self, trace_prefix: str | None, inject: str | None,
                 cpu: int) -> None:
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_prefix:
            cmd += ["--trace", trace_prefix]
        if inject:
            cmd += ["--inject", inject]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(cmd + ["--"] + SERVE_ARGS, cwd=ROOT,
                                     env=env, stdout=subprocess.PIPE)
        os.sched_setaffinity(self.proc.pid, {cpu})
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        match = _PORT_RE.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        self.pid = self.proc.pid

    def signal_and_wait(self, signum: int, path: Path,
                        timeout: float = 60.0) -> None:
        """Send ``signum`` and wait for the launcher to write ``path``."""
        self.proc.send_signal(signum)
        deadline = time.monotonic() + timeout
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server did not write {path.name}")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def serve_setup(space, args, trace_prefix=None) -> tuple[Server, tuple]:
    """Start and preload a server; returns it with (seconds, window)."""
    from client import preload

    started = time.perf_counter()
    from_ = time.monotonic()
    server = Server(trace_prefix, args.inject, args.cpus[0])
    try:
        if preload(server.port, space):
            raise NotMeasuring("preload SETs were not all STORED")
    except BaseException:
        server.stop()
        raise
    return server, (time.perf_counter() - started,
                    (from_, time.monotonic()))


class ServeTimed:
    """What one timed closed-loop phase measured."""

    def __init__(self, server: Server, space, batches, seconds: float
                 ) -> None:
        from client import run_closed_loop

        from_ = time.monotonic()
        wall0 = time.perf_counter()
        s0, c0 = proc_cpu_seconds(server.pid), proc_cpu_seconds("self")
        self.res = run_closed_loop(server.port, space, batches, seconds)
        s1, c1 = proc_cpu_seconds(server.pid), proc_cpu_seconds("self")
        wall = time.perf_counter() - wall0
        self.window = (from_, time.monotonic())
        self.server_cpu = s1 - s0
        self.server_util = self.server_cpu / wall
        self.client_util = (c1 - c0) / wall
        #: machine-speed factor of the server's core, set once sampled
        self.factor = 1.0

    @property
    def throughput(self) -> float:
        """Requests per second, scaled to the reference machine speed."""
        return per(self.res.completed, self.res.elapsed * self.factor)


def serve_problems(res, server_util: float, client_util: float
                   ) -> list[str]:
    problems = []
    if res.error:
        problems.append(f"closed loop stopped: {res.error}")
    if client_util >= server_util:
        problems.append(
            f"not measuring the server: client CPU {client_util:.2f} >= "
            f"server CPU {server_util:.2f}")
    return problems


def serve_inputs(seed: int):
    from client import Keyspace, make_batches

    # A fixed key population; --seed draws the request stream.
    space = Keyspace(0)
    return space, make_batches(space, seed, 4096)


def serve_end_to_end(args) -> dict:
    space, batches = serve_inputs(args.seed)
    setups, phases, rss_kb = [], [], []
    sampler = CoreSampler(args.cpus[0])
    try:
        for _ in range(SETUP_REPEATS):
            server, setup = serve_setup(space, args)
            try:
                phases.append(ServeTimed(server, space, batches,
                                         args.seconds / SETUP_REPEATS))
                rss_kb.append(proc_status_kb(server.pid, "VmHWM"))
            finally:
                server.stop()
            setups.append(setup)
    finally:
        meter = sampler.stop()
    problems = []
    for t in phases:
        t.factor = meter.factor(*t.window)
        problems += serve_problems(t.res, t.server_util, t.client_util)
    gets = sum(t.res.gets for t in phases)
    values = {
        "throughput_ops_s": statistics.median(t.throughput for t in phases),
        "hit_ratio": per(sum(t.res.hits for t in phases), gets),
        # The server keeps no service time (a GET carries no penalty);
        # this is the paper's model over the hits and misses it returned.
        "avg_service_ms": per(sum(t.res.service_ms for t in phases), gets),
        "setup_s": statistics.median(
            raw * meter.factor(*window) for raw, window in setups),
        "peak_rss_mb": max(rss_kb) / 1024,
    }
    for i, t in enumerate(phases):
        res = t.res
        print(f"[serve-pama] phase {i}: {res.completed} requests in "
              f"{res.elapsed:.2f}s, raw throughput "
              f"{res.completed / res.elapsed:.1f} (speed factor "
              f"{t.factor:.4f}); server CPU {t.server_util:.2f}, client "
              f"CPU {t.client_util:.2f}", file=sys.stderr)
    raw = statistics.median(t.res.completed / t.res.elapsed for t in phases)
    print(f"[serve-pama] raw throughput {raw:.1f} (speed factor "
          f"{statistics.median(t.factor for t in phases):.4f})",
          file=sys.stderr)
    return _result(problems, max(sum(t.res.attempted for t in phases), 1),
                   sum(t.res.failed for t in phases),
                   metric(values, END_TO_END_UNITS))


def serve_traced(args) -> dict:
    from ledger import read_spans

    space, batches = serve_inputs(args.seed)
    prefix = WORK / f"serve-{args.seed}"
    for suffix in (".reset", ".json", ".spans.jsonl"):
        Path(str(prefix) + suffix).unlink(missing_ok=True)
    sampler = CoreSampler(args.cpus[0])
    try:
        # Untraced reference for the tracing overhead and the latencies.
        server, _ = serve_setup(space, args)
        try:
            ref = ServeTimed(server, space, batches, args.seconds)
        finally:
            server.stop()
        server, _ = serve_setup(space, args, trace_prefix=str(prefix))
        try:
            server.signal_and_wait(signal.SIGUSR1,
                                   Path(str(prefix) + ".reset"))
            t = ServeTimed(server, space, batches, args.seconds)
            server.signal_and_wait(signal.SIGUSR2,
                                   Path(str(prefix) + ".json"))
        finally:
            server.stop()
    finally:
        meter = sampler.stop()
    ref.factor = meter.factor(*ref.window)
    t.factor = meter.factor(*t.window)
    with open(str(prefix) + ".json") as fh:
        doc = json.load(fh)
    aggs, counters = doc["aggs"], doc["counters"]
    res = t.res
    requests = _agg(aggs, "server.decode")["events"]
    cpu = t.server_cpu
    residual = cpu - sum(a["self"] for a in aggs.values())
    values = layer_metrics(aggs, rows=requests, residual=residual,
                           counters=counters, denominator=cpu)
    cache_s = sum(_agg(aggs, n)["total"]
                  for n in ("cache.lookup", "cache.set", "cache.delete"))

    def us_per_req(*names: str) -> float:
        return per(sum(_agg(aggs, n)["self"] for n in names), requests) * 1e6

    values.update({
        "server.cpu_util": t.server_util,
        "server.cpu_us_per_req": per(cpu, requests) * 1e6,
        "server.read_us_per_req": us_per_req("server.read"),
        "server.decode_us_per_req": us_per_req("server.feed",
                                               "server.decode"),
        "server.reqs_per_read": per(requests,
                                    _agg(aggs, "server.read")["found"]),
        "server.cache_us_per_req": per(cache_s, requests) * 1e6,
        "server.encode_us_per_req": us_per_req("server.encode"),
        "server.write_us_per_req": us_per_req("server.write"),
        "server.loop_residual_us_per_req": per(residual, requests) * 1e6,
        "client.cpu_util": t.client_util,
        "client.latency_p50_ms": percentile(ref.res.latencies, 50)
        * ref.factor * 1e3,
        "client.latency_p99_ms": percentile(ref.res.latencies, 99)
        * ref.factor * 1e3,
        "trace.overhead_ratio": per(ref.throughput, t.throughput),
    })
    problems = serve_problems(res, t.server_util, t.client_util)
    if requests != res.completed:
        problems.append(f"server decoded {requests} requests, client "
                        f"completed {res.completed}")
    # The self times are wall time; /proc CPU time is read in whole
    # ticks at each end of the phase.
    problems += ledger_problems(
        aggs, read_spans(str(prefix) + ".spans.jsonl"), residual, cpu,
        RESIDUAL_LIMIT[args.workload], slack=2 * CPU_TICK)
    print(f"[serve-pama] traced: {requests} requests, residual share "
          f"{values['trace.residual_share']:.3f}, {doc['spans']} sampled "
          f"spans written", file=sys.stderr)
    return _result(problems, max(res.attempted, 1), res.failed,
                   per_layer(values))


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", metavar="NAME:US",
                    help="add a fixed busy-wait to one layer function "
                         "(the sensitivity self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    WORK.mkdir(exist_ok=True)
    from ledger import install_injection

    # The timed process gets the quietest core: the replay itself, or
    # the server, with the client on the next core.
    args.cpus = cpus_quietest_first()
    os.sched_setaffinity(0, {args.cpus[-1] if args.workload == "serve-pama"
                             else args.cpus[0]})
    try:
        if args.workload == "serve-pama":
            result = (serve_traced(args) if args.trace
                      else serve_end_to_end(args))
        else:
            install_injection(args.inject)
            spec = REPLAYS[args.workload]
            result = (replay_traced(spec, args) if args.trace
                      else replay_end_to_end(spec, args))
    except NotMeasuring as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
