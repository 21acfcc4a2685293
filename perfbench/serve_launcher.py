"""Run ``repro-kv serve`` with the benchmark's wrappers installed.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/serve_launcher.py [--trace PREFIX] [--inject NAME:US] \
        -- serve --policy pama --port 0 ...

Without options this is exactly ``python -m repro.cli serve ...``.  With
``--trace PREFIX`` the server's layers are timed from outside:

* ``SIGUSR1`` zeroes the aggregates (start of the timed phase) and
  writes ``PREFIX.reset`` when done;
* ``SIGUSR2`` writes the aggregates and the program's own counters to
  ``PREFIX.json`` and the sampled spans to ``PREFIX.spans.jsonl``.

``--inject`` adds a fixed busy-wait to one layer function (the layer
sensitivity self-test).  The server stops on ``SIGINT``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import sys

from ledger import Ledger, install_injection, install_program_layers


def _nonempty(data) -> bool:
    return bool(data)


def install_server_layers(ledger: Ledger, shard_sets: list) -> None:
    """Wrap the server's read, decode, encode and write steps."""
    from repro.server import protocol
    from repro.server.shard import ShardSet

    ledger.install(socket.socket, "recv", "server.read", found=_nonempty)
    ledger.install(protocol.StreamDecoder, "feed", "server.feed")
    ledger.install_generator(protocol.StreamDecoder, "events",
                             "server.decode", request_per_item=True)
    for attr in [a for a in vars(protocol) if a.startswith("format_")]:
        ledger.install(protocol, attr, "server.encode")
    ledger.install(asyncio.StreamWriter, "write", "server.write")

    init = ShardSet.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shard_sets.append(self)

    ledger.patch(ShardSet, "__init__", capture)


def program_counters(shard_sets: list) -> dict:
    """Counters the program keeps itself, summed over every shard."""
    keys = ("gets", "hits", "misses", "sets", "deletes", "evictions",
            "migrations", "set_failures")
    out = dict.fromkeys(keys, 0)
    out.update(approved=0, declined=0, forced=0)
    for shards in shard_sets:
        for cache in shards.shards:
            for k in keys:
                out[k] += getattr(cache.stats, k)
            policy = cache.policy
            out["approved"] += getattr(policy, "migrations_approved", 0)
            out["declined"] += getattr(policy, "migrations_declined", 0)
            out["forced"] += getattr(policy, "migrations_forced", 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", metavar="PREFIX")
    ap.add_argument("--inject", metavar="NAME:US")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args
    if cli_args and cli_args[0] == "--":
        cli_args = cli_args[1:]

    from repro import cli

    install_injection(args.inject)
    if args.trace:
        ledger = Ledger()
        shard_sets: list = []
        install_program_layers(ledger, request_mode=False)
        install_server_layers(ledger, shard_sets)
        prefix = args.trace
        baseline: dict = {}

        def on_reset(signum, frame) -> None:
            ledger.reset()
            baseline.clear()
            baseline.update(program_counters(shard_sets))
            with open(prefix + ".reset", "w") as fh:
                fh.write("ok\n")

        def on_dump(signum, frame) -> None:
            now = program_counters(shard_sets)
            doc = {"aggs": ledger.snapshot(),
                   "counters": {k: now[k] - baseline.get(k, 0) for k in now},
                   "spans": ledger.write_spans(prefix + ".spans.jsonl")}
            tmp = prefix + ".json.tmp"
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, prefix + ".json")

        signal.signal(signal.SIGUSR1, on_reset)
        signal.signal(signal.SIGUSR2, on_dump)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
