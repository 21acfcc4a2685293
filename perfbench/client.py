"""Closed-loop memcached text client for the ``serve-pama`` workload.

Memcached callers block on each reply, so the load is a closed loop:
each connection keeps one batch of ``PIPELINE`` requests on the wire
and sends the next batch only when every reply of the last one has
arrived.  Request bytes and the exact reply each request may get are
generated before timing starts, so the client spends its time on the
socket and on byte comparisons, and stays far less busy than the
server (the run checks that).

Every value is a deterministic function of its key, so a reply is
correct only if it is byte-equal to the key's expected ``VALUE`` block
(a hit), ``END`` (a miss) or, for a SET, ``STORED``.
"""

from __future__ import annotations

import random
import selectors
import socket
import time

PIPELINE = 32
#: enough batches in flight that the server always has a queued batch,
#: so its throughput does not hinge on how fast the client wakes up
CONNECTIONS = 4
#: keys stored during set-up; GETs draw from 1.1x this universe, so
#: about one GET in eleven misses.
PRELOAD_KEYS = 50_000
GET_UNIVERSE = PRELOAD_KEYS * 11 // 10
GET_FRACTION = 0.9
#: flags carry the miss penalty in microseconds (repro.server.protocol)
PENALTIES_US = (1_000, 8_000, 27_000, 64_000, 125_000)
#: ServiceTimeModel's default hit cost, for the modelled service time
HIT_TIME_MS = 0.1
MISS = b"END\r\n"
STORED = b"STORED\r\n"


class ReplyError(Exception):
    """A reply that is not one the request may get."""


class Keyspace:
    """Deterministic keys, values and penalties drawn from a seed."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.names: list[bytes] = []
        self.set_lines: list[bytes] = []
        self.hit_replies: list[bytes] = []
        self.penalty_ms: list[float] = []
        for i in range(GET_UNIVERSE):
            name = b"pb%07d" % i
            size = rng.randint(16, 784)
            flags = PENALTIES_US[rng.randrange(len(PENALTIES_US))]
            value = (name * (size // len(name) + 1))[:size]
            head = b"%s %d 0 %d" % (name, flags, size)
            self.names.append(name)
            self.set_lines.append(b"set " + head + b"\r\n" + value + b"\r\n")
            self.hit_replies.append(b"VALUE %s %d %d\r\n%s\r\nEND\r\n"
                                    % (name, flags, size, value))
            self.penalty_ms.append(flags / 1000.0)


class Batch:
    """One pipelined batch: its request bytes and per-request keys.

    ``keys[i]`` is the key index of request ``i``; a negative entry
    ``-1 - k`` marks a SET of key ``k``.
    """

    __slots__ = ("data", "keys")

    def __init__(self, data: bytes, keys: list[int]) -> None:
        self.data = data
        self.keys = keys


def make_batches(space: Keyspace, seed: int, count: int) -> list[Batch]:
    """``count`` batches of the timed mix: 90% GET, 10% SET overwrite."""
    rng = random.Random(seed * 7919 + 1)
    batches = []
    for _ in range(count):
        parts, keys = [], []
        for _ in range(PIPELINE):
            if rng.random() < GET_FRACTION:
                k = rng.randrange(GET_UNIVERSE)
                parts.append(b"get " + space.names[k] + b"\r\n")
                keys.append(k)
            else:
                k = rng.randrange(PRELOAD_KEYS)
                parts.append(space.set_lines[k])
                keys.append(-1 - k)
        batches.append(Batch(b"".join(parts), keys))
    return batches


def preload(port: int, space: Keyspace, timeout: float = 60.0) -> int:
    """SET every preloaded key, pipelined; returns how many failed."""
    failed = 0
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        step = 256
        for lo in range(0, PRELOAD_KEYS, step):
            hi = min(lo + step, PRELOAD_KEYS)
            s.sendall(b"".join(space.set_lines[lo:hi]))
            want = (hi - lo) * len(STORED)
            buf = bytearray()
            while len(buf) < want:
                chunk = s.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed during preload")
                buf += chunk
            failed += (hi - lo) - bytes(buf).count(STORED)
    return failed


class _Conn:
    __slots__ = ("sock", "buf", "pos", "batch", "index", "sent_at")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = bytearray()
        self.pos = 0
        self.batch: Batch | None = None
        self.index = 0
        self.sent_at = 0.0


class LoadResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.gets = 0
        self.hits = 0
        self.service_ms = 0.0
        self.latencies: list[float] = []
        self.elapsed = 0.0
        self.error: str | None = None


def _consume(conn: _Conn, space: Keyspace, res: LoadResult,
             now: float) -> None:
    """Check every complete reply in ``conn.buf`` against its request."""
    buf, pos = conn.buf, conn.pos
    keys = conn.batch.keys
    i = conn.index
    n = len(keys)
    while i < n:
        k = keys[i]
        if k >= 0:
            if buf.startswith(MISS, pos):
                pos += len(MISS)
                res.service_ms += space.penalty_ms[k]
            else:
                hit = space.hit_replies[k]
                if len(buf) - pos < len(hit):
                    partial = bytes(buf[pos:])
                    if not (hit.startswith(partial)
                            or MISS.startswith(partial)):
                        raise ReplyError(f"bad reply to get #{k}")
                    break
                if not buf.startswith(hit, pos):
                    raise ReplyError(f"wrong value for get #{k}")
                pos += len(hit)
                res.hits += 1
                res.service_ms += HIT_TIME_MS
            res.gets += 1
        else:
            if len(buf) - pos < len(STORED):
                break
            if not buf.startswith(STORED, pos):
                raise ReplyError(f"SET #{-1 - k} not stored")
            pos += len(STORED)
        res.latencies.append(now - conn.sent_at)
        res.completed += 1
        i += 1
    conn.index = i
    if pos > 1 << 16:
        del buf[:pos]
        pos = 0
    conn.pos = pos


def run_closed_loop(port: int, space: Keyspace, batches: list[Batch],
                    seconds: float) -> LoadResult:
    """Drive the server for ``seconds``; in-flight batches then finish."""
    res = LoadResult()
    sel = selectors.DefaultSelector()
    conns = []
    next_batch = 0
    try:
        for _ in range(CONNECTIONS):
            s = socket.create_connection(("127.0.0.1", port), timeout=30)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            c = _Conn(s)
            conns.append(c)
            sel.register(s, selectors.EVENT_READ, c)
        perf = time.perf_counter
        start = perf()
        deadline = start + seconds

        def send(c: _Conn) -> None:
            nonlocal next_batch
            c.batch = batches[next_batch % len(batches)]
            next_batch += 1
            c.index = 0
            c.sent_at = perf()
            c.sock.sendall(c.batch.data)
            res.attempted += len(c.batch.keys)

        for c in conns:
            send(c)
        active = len(conns)
        while active:
            events = sel.select(timeout=30)
            if not events:
                raise TimeoutError("server stopped answering")
            for key, _ in events:
                c = key.data
                chunk = c.sock.recv(1 << 20)
                now = perf()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                c.buf += chunk
                _consume(c, space, res, now)
                if c.index == len(c.batch.keys):
                    if now < deadline:
                        send(c)
                    else:
                        c.batch = None
                        sel.unregister(c.sock)
                        active -= 1
        res.elapsed = perf() - start
    except (ReplyError, OSError, TimeoutError) as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    finally:
        sel.close()
        for c in conns:
            c.sock.close()
    res.failed = res.attempted - res.completed
    return res
