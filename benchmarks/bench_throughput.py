"""Microbenchmark — cache operation throughput per policy.

Not a paper figure: this guards the simulator's own performance (the
paper replays ~10^9 requests; our per-request cost determines how far
the scaled experiments can go) and quantifies each policy's bookkeeping
overhead per operation.

The measured trajectory lives in ``benchmarks/results/BENCH_throughput.json``
(see ``record_throughput.py``, which appends to it and gates CI on
regressions).  ``REPRO_BENCH_OPS`` overrides the op count for quick
smoke runs.
"""

import os
import random

import numpy as np
import pytest

from repro._util import MIB
from repro.cache import SlabCache, SizeClassConfig
from repro.policies import make_policy
from repro.sim.experiment import ExperimentSpec
from repro.sim.sharded import run_sharded
from repro.sim.simulator import simulate
from repro.traces.record import Trace

N_OPS = int(os.environ.get("REPRO_BENCH_OPS", "30000"))


def drive(cache, n=N_OPS, seed=7):
    rng = random.Random(seed)
    randrange = rng.randrange
    choice = rng.choice
    sizes = (40, 200, 900, 3000)
    pens = (0.0005, 0.005, 0.05, 0.5, 2.0)
    lookup, set_ = cache.lookup, cache.set
    for _ in range(n):
        key = randrange(20_000)
        size = choice(sizes)
        pen = choice(pens)
        if lookup(key, 16, size, pen) is None:
            set_(key, 16, size, pen)
    return cache


def fresh_cache(policy_name, tracker="exact"):
    kwargs = {"value_window": 25_000} if "pama" in policy_name else {}
    if tracker != "exact":
        kwargs["tracker"] = tracker
    return SlabCache(16 * MIB, make_policy(policy_name, **kwargs),
                     SizeClassConfig(slab_size=64 << 10, base_size=64))


#: every tracked configuration, keyed by the label used in
#: BENCH_throughput.json.
CONFIGS = {
    "memcached": lambda: fresh_cache("memcached"),
    "psa": lambda: fresh_cache("psa"),
    "lama": lambda: fresh_cache("lama"),
    "pama": lambda: fresh_cache("pama"),
    "pre-pama": lambda: fresh_cache("pre-pama"),
    "pama+bloom": lambda: fresh_cache("pama", tracker="bloom"),
}


# -- replay-engine configurations --------------------------------------------
# The drive() loop measures raw cache-op cost (RNG included).  The
# replay-* labels measure the simulator on the same workload
# pre-generated as a columnar trace: the replay engine (label
# ``replay-derive``, after its vectorized derive pass) and the
# key-sharded parallel engine — both against the pama+bloom cache, the
# heaviest tracked configuration.

#: shard count of the ``replay-sharded4`` label.
REPLAY_SHARDS = 4
#: the sharded label replays a trace this many times larger than
#: ``--ops`` so worker startup amortizes; its ops/s stays comparable
#: (throughput is a rate).
REPLAY_SHARDED_SCALE = 4 * REPLAY_SHARDS


def make_bench_trace(n=N_OPS, seed=7):
    """All-GET columnar mirror of :func:`drive`'s request distribution.

    Same key space, size mix, and penalty mix as ``drive`` (fill-on-miss
    replay turns each GET miss into the same lookup-then-set pair), so
    replay-engine ops/s are comparable with the drive-based labels.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    choice = rng.choice
    sizes = (40, 200, 900, 3000)
    pens = (0.0005, 0.005, 0.05, 0.5, 2.0)
    keys = [randrange(20_000) for _ in range(n)]
    vals = [choice(sizes) for _ in range(n)]
    penalties = [choice(pens) for _ in range(n)]
    return Trace(np.zeros(n, np.uint8), np.array(keys, np.int64),
                 np.full(n, 16, np.int32), np.array(vals, np.int32),
                 np.array(penalties, np.float64))


def replay_spec(cache_bytes=16 * MIB) -> ExperimentSpec:
    """The pama+bloom replay experiment behind the replay-* labels."""
    return ExperimentSpec(name="bench", cache_bytes=cache_bytes,
                          slab_size=64 << 10, base_size=64,
                          window_gets=1 << 30,  # windows off the hot path
                          policy_kwargs={"pama": {"value_window": 25_000,
                                                  "tracker": "bloom"}})


def replay_derive(trace) -> None:
    cache = replay_spec().build_cache("pama")
    simulate(trace, cache, window_gets=1 << 30)


def replay_sharded(trace) -> None:
    run_sharded(trace, replay_spec(), "pama", shards=REPLAY_SHARDS)


#: replay-engine labels tracked in BENCH_throughput.json, mapping to a
#: whole-replay callable over a :func:`make_bench_trace` trace.
REPLAY_ENGINES = {
    "replay-derive": replay_derive,
    f"replay-sharded{REPLAY_SHARDS}": replay_sharded,
}


def replay_trace_ops(label: str, n_ops: int) -> int:
    """Trace length behind one replay label at a given ``--ops``."""
    if label == f"replay-sharded{REPLAY_SHARDS}":
        return n_ops * REPLAY_SHARDED_SCALE
    return n_ops


@pytest.mark.parametrize("policy", ["memcached", "psa", "lama", "pama",
                                    "pre-pama"])
def bench_ops_throughput(benchmark, policy):
    result = benchmark.pedantic(
        lambda: drive(CONFIGS[policy]()), rounds=3, iterations=1)
    result.check_invariants()
    assert result.stats.gets == N_OPS


def bench_pama_bloom_throughput(benchmark):
    result = benchmark.pedantic(
        lambda: drive(CONFIGS["pama+bloom"]()), rounds=3, iterations=1)
    assert result.stats.gets == N_OPS


def bench_replay_engine_throughput(benchmark):
    trace = make_bench_trace(N_OPS)
    benchmark.pedantic(lambda: replay_derive(trace), rounds=3, iterations=1)
