"""Per-layer ledger: timing wrappers installed from outside the program.

The benchmark measures the program's layers without editing them: it
replaces public functions on their classes or modules with wrappers
that time each call, and restores the originals afterwards.  Wrappers
nest, so every span knows how much of its duration its child spans
covered; a span's *self time* is its duration minus that.  The time a
run measures outside the wrappers, less the self times of every wrapped
function, is the *residual*: time in no wrapped function.  The run
checks it against that outside measurement (see ``run.py``), and checks
that the sampled spans nest (:func:`span_problems`).

Aggregates cover every call.  Full spans (name, start, end, parent,
request id) are kept only for a deterministic sample of requests, in
memory, and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array

#: request-id bookkeeping a wrapper performs before its call.
REQ_NONE = 0        # not a request boundary
REQ_START = 1       # every call starts a new request (GET, DELETE, decode)
REQ_UNLESS_FILL = 2  # starts a request unless it is a miss's fill SET
REQ_MARK_FILL = 3   # a GET miss: the next SET belongs to the same request

#: requests whose id is a multiple of this keep their full spans
SAMPLE_EVERY = 1009

#: marks a patched attribute that the owner inherited rather than defined
_INHERITED = object()


class Agg:
    """Running totals of one wrapped function."""

    __slots__ = ("calls", "total", "self_", "found", "events", "last_req",
                 "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_ = 0.0
        #: calls whose result passed the wrapper's result test
        self.found = 0
        #: distinct requests during which the function was called
        self.events = 0
        self.last_req = -1
        self.durations = array("d") if keep_durations else None

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_,
                "found": self.found, "events": self.events,
                "durations": (list(self.durations)
                              if self.durations is not None else None)}


class Ledger:
    """Span stack, aggregates and sampled spans for one process."""

    def __init__(self) -> None:
        self.aggs: dict[str, Agg] = {}
        #: one frame per open span: [child seconds, span id]
        self.stack: list[list] = [[0.0, 0]]
        self.next_id = 1
        self.request = -1
        self.sampled = False
        self.fill_pending = False
        self.spans: list[tuple] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- request ids ---------------------------------------------------
    def new_request(self) -> None:
        self.request += 1
        self.sampled = self.request % SAMPLE_EVERY == 0

    def _request_hook(self, mode: int) -> None:
        if mode == REQ_START:
            self.fill_pending = False
            self.new_request()
        elif mode == REQ_UNLESS_FILL:
            if self.fill_pending:
                self.fill_pending = False
            else:
                self.new_request()
        elif mode == REQ_MARK_FILL:
            self.fill_pending = True

    # -- wrappers ------------------------------------------------------
    def agg(self, name: str, keep_durations: bool = False) -> Agg:
        a = self.aggs.get(name)
        if a is None:
            a = self.aggs[name] = Agg(keep_durations)
        return a

    def wrap(self, name: str, fn, *, keep_durations: bool = False,
             request: int = REQ_NONE, found=None):
        """A timing wrapper around ``fn`` recorded under ``name``.

        ``found`` is an optional test of the result; calls that pass it
        are counted in :attr:`Agg.found` (a useful-outcome ratio).
        """
        a = self.agg(name, keep_durations)
        stack = self.stack
        durations = a.durations
        perf = time.perf_counter
        hook = self._request_hook if request != REQ_NONE else None
        ledger = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(request)
            sid = ledger.next_id
            ledger.next_id = sid + 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                a.calls += 1
                a.total += dt
                a.self_ += dt - frame[0]
                if durations is not None:
                    durations.append(dt)
                req = ledger.request
                if req != a.last_req:
                    a.last_req = req
                    a.events += 1
                if ledger.sampled:
                    ledger.spans.append((name, t0, t1, sid, parent, req))
            if found is not None and found(result):
                a.found += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, genfn, *,
                       request_per_item: bool = False):
        """Wrap a generator function: each ``next()`` is one span.

        With ``request_per_item`` every yielded item starts a request
        (one decoded command of the server's stream decoder).
        """
        def wrapper(*args, **kwargs):
            return self.wrap_iter(name, genfn(*args, **kwargs),
                                  request_per_item=request_per_item)

        wrapper.__wrapped__ = genfn
        return wrapper

    def wrap_iter(self, name: str, it, *, request_per_item: bool = False):
        """Time each ``next()`` of an existing iterator as one span."""
        a = self.agg(name)
        stack = self.stack
        perf = time.perf_counter
        ledger = self

        def timed():
            while True:
                sid = ledger.next_id
                ledger.next_id = sid + 1
                parent = stack[-1][1]
                frame = [0.0, sid]
                stack.append(frame)
                t0 = perf()
                done = False
                try:
                    item = next(it)
                except StopIteration:
                    done = True
                finally:
                    t1 = perf()
                    dt = t1 - t0
                    stack.pop()
                    stack[-1][0] += dt
                    a.calls += 1
                    a.total += dt
                    a.self_ += dt - frame[0]
                    if ledger.sampled:
                        ledger.spans.append(
                            (name, t0, t1, sid, parent, ledger.request))
                if done:
                    return
                if request_per_item:
                    ledger.fill_pending = False
                    ledger.new_request()
                    a.events += 1
                yield item

        return timed()

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`restore` puts it back."""
        self._patched.append((owner, attr,
                              owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, replacement)

    def install(self, owner, attr: str, name: str, **kwargs) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                          **kwargs))

    def install_generator(self, owner, attr: str, name: str,
                          **kwargs) -> None:
        self.patch(owner, attr, self.wrap_generator(
            name, getattr(owner, attr), **kwargs))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def snapshot(self) -> dict:
        return {name: a.to_dict() for name, a in self.aggs.items()}

    def reset(self) -> None:
        """Zero every aggregate (the wrappers stay installed)."""
        for a in self.aggs.values():
            a.calls = a.found = a.events = 0
            a.total = a.self_ = 0.0
            a.last_req = -1
            if a.durations is not None:
                del a.durations[:]
        self.stack[0][0] = 0.0
        self.spans.clear()

    @property
    def top_level_seconds(self) -> float:
        """Inclusive time of every outermost span since the last reset."""
        return self.stack[0][0]

    def write_spans(self, path: str) -> int:
        """Write the sampled spans as JSON lines; returns the count."""
        with open(path, "w") as fh:
            for name, t0, t1, sid, parent, req in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "id": sid, "parent": parent,
                                     "request": req}) + "\n")
        return len(self.spans)


def read_spans(path: str) -> list[tuple]:
    """Spans written by :meth:`Ledger.write_spans`, as tuples."""
    with open(path) as fh:
        return [(d["name"], d["start"], d["end"], d["id"], d["parent"],
                 d["request"]) for d in map(json.loads, fh)]


def span_problems(spans: list[tuple]) -> list[str]:
    """Sampled spans must exist and nest.

    Each span must end after it starts and lie inside its parent (when
    the parent was sampled too), and the durations of a span's sampled
    children must not add up to more than its own.
    """
    if not spans:
        return ["no sampled spans"]
    by_id = {s[3]: s for s in spans}
    children: dict[int, float] = {}
    outside = 0
    for _name, t0, t1, _sid, parent, _req in spans:
        p = by_id.get(parent)
        if t1 < t0 or (p is not None and not p[1] <= t0 <= t1 <= p[2]):
            outside += 1
        if p is not None:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
    overfull = sum(1 for sid, total in children.items()
                   if total > by_id[sid][2] - by_id[sid][1] + 1e-9)
    problems = []
    if outside:
        problems.append(f"{outside} of {len(spans)} sampled spans lie "
                        f"outside their parent")
    if overfull:
        problems.append(f"{overfull} sampled spans have children longer "
                        f"than themselves")
    return problems


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to: its prefix before the dot."""
    return span_name.split(".", 1)[0]


def install_program_layers(ledger: Ledger, request_mode: bool) -> None:
    """Wrap the cache, core and Bloom layers' public entry points.

    ``request_mode`` makes the cache entry points mark request
    boundaries (the replay: one trace row per request); the server marks
    them at its decoder instead.
    """
    from repro.cache.cache import SlabCache
    from repro.core.bloom_tracker import BloomSegmentTracker
    from repro.core.pama import PamaPolicy
    from repro.core.segments import SegmentTracker
    from repro.core.value import ValueAccumulator

    start = REQ_START if request_mode else REQ_NONE
    unless_fill = REQ_UNLESS_FILL if request_mode else REQ_NONE
    for attr in ("lookup", "lookup_hashed"):
        ledger.install(SlabCache, attr, "cache.lookup",
                       keep_durations=True, request=start)
    for attr in ("set", "set_classed"):
        ledger.install(SlabCache, attr, "cache.set", keep_durations=True,
                       request=unless_fill)
    ledger.install(SlabCache, "delete", "cache.delete", request=start)
    for attr in ("on_hit", "on_miss", "on_insert", "on_evict", "on_remove",
                 "resolve_pressure"):
        ledger.install(PamaPolicy, attr, f"core.{attr}")
    ledger.install(SegmentTracker, "segment_on_access", "core.segment_access")
    ledger.install(ValueAccumulator, "outgoing_value", "core.outgoing_value")
    # add_incoming runs once per ghost hit (PamaPolicy.on_miss).
    ledger.install(ValueAccumulator, "add_incoming", "core.ghost_hit")
    ledger.install(BloomSegmentTracker, "segment_on_access",
                   "bloom.segment_access", found=_nonnegative)
    ledger.install(BloomSegmentTracker, "rollover", "bloom.rollover")


def _nonnegative(result) -> bool:
    return result >= 0


#: injection points of the layer sensitivity self-test:
#: name -> (module, class, method)
INJECTION_POINTS = {
    "resolve_pressure": ("repro.core.pama", "PamaPolicy", "resolve_pressure"),
    "bloom_access": ("repro.core.bloom_tracker", "BloomSegmentTracker",
                     "segment_on_access"),
    "decode_feed": ("repro.server.protocol", "StreamDecoder", "feed"),
}


def install_injection(spec: str | None) -> None:
    """Add a fixed busy-wait to one layer function: ``name:microseconds``."""
    if not spec:
        return
    import importlib

    name, _, micros = spec.partition(":")
    if name not in INJECTION_POINTS or not micros:
        raise SystemExit(f"bad --inject {spec!r}; expected one of "
                         f"{sorted(INJECTION_POINTS)} as name:microseconds")
    module, cls_name, attr = INJECTION_POINTS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    original = getattr(cls, attr)
    delay = float(micros) * 1e-6

    def delayed(*args, **kwargs):
        end = time.perf_counter() + delay
        while time.perf_counter() < end:
            pass
        return original(*args, **kwargs)

    setattr(cls, attr, delayed)
