"""Spans recorded from outside the program, by wrapping its entry points.

Two recorders, both installed by patching class attributes for the
length of one measured window and restoring them afterwards:

- :class:`Tracer` -- wall-clock spans around the synchronous layer entry
  points (kernel loop, disk, trace log, network, OCS invoke, change log,
  database, monitor bus).  Installed only in the traced run.  It keeps
  every span in memory and maintains each layer's *self time* online:
  a span's duration minus the time its direct child spans cover.
- :class:`SimProbe` -- simulated-time spans around settop-side
  ``RebindingProxy.call``, ``NameClient.resolve`` and
  ``AppManager.tune``.  These only read ``kernel.now`` and await the
  original coroutine, so they change no simulated behaviour; they are
  on in every run because the end-to-end latencies come from them.

Wrapping is strict: an entry point or attribute the program no longer
has raises, so a renamed method breaks the run instead of reading as a
layer that does no work.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# --------------------------------------------------------------------------
# patching
# --------------------------------------------------------------------------


class Patches:
    """Class-attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            raise AttributeError(f"{owner.__qualname__} defines no {attr!r} "
                                 f"to wrap")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# wall-clock layer spans
# --------------------------------------------------------------------------

#: (module, class, method, layer, counter) -- the synchronous entry points
#: the traced run wraps.  ``counter`` names the per-method call count.
LAYER_ENTRY_POINTS = (
    ("repro.sim.kernel", "Kernel", "run", "sim.kernel", "runs"),
    ("repro.sim.kernel", "Kernel", "run_until_complete", "sim.kernel", "runs"),
    ("repro.sim.host", "Disk", "read", "sim.disk", "reads"),
    ("repro.sim.host", "Disk", "write", "sim.disk", "writes"),
    ("repro.sim.host", "Disk", "delete", "sim.disk", "deletes"),
    ("repro.sim.host", "Disk", "sync", "sim.disk", "syncs"),
    ("repro.sim.trace", "TraceLog", "emit", "sim.trace", "events"),
    ("repro.net.network", "Network", "send", "net", "sends"),
    ("repro.net.network", "Network", "send_reserved", "net", "sends"),
    ("repro.net.network", "Network", "broadcast", "net", "broadcasts"),
    ("repro.ocs.runtime", "OCSRuntime", "invoke", "ocs", "invokes"),
    ("repro.core.replication", "ChangeLog", "append", "core.replication",
     "appends"),
    ("repro.db.service", "DatabaseService", "get", "db", "gets"),
    ("repro.db.service", "DatabaseService", "apply_write", "db", "writes"),
    ("repro.chaos.monitors", "MonitorBus", "probe", "chaos.monitor",
     "probes"),
)


class Tracer:
    """Wall-clock spans with online self-time accounting.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.counters: Dict[str, int] = {}
        # the open spans: [ns covered by direct children, span id]
        self._stack: List[list] = []
        # every recorded span, as parallel arrays
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")

    def layer_index(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self.layers.index(name)

    def wrap(self, layer: str, counter: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer`` that bumps ``counter``."""
        ix = self.layer_index(layer)
        key = f"{layer}.{counter}"
        self.counters.setdefault(key, 0)
        clock = self.clock
        stack = self._stack
        counters = self.counters
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(span_start)
            span_layer.append(ix)
            span_parent.append(stack[-1][1] if stack else -1)
            span_start.append(0)
            span_end.append(0)
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[ix] += 1
                total_ns[ix] += duration
                self_ns[ix] += duration - frame[0]
                counters[key] += 1
                if stack:
                    stack[-1][0] += duration
                span_start[sid] = start
                span_end[sid] = end

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- reading ---------------------------------------------------------

    def self_ms(self, layer: str) -> float:
        if layer not in self.layers:
            return 0.0
        return self.self_ns[self.layers.index(layer)] / 1e6

    def total_self_ms(self) -> float:
        return sum(self.self_ns) / 1e6

    def spans(self) -> Iterable[Tuple[int, str, int, int, int]]:
        """(span id, layer, parent id, start ns, end ns) of every span."""
        for sid in range(len(self.span_start)):
            yield (sid, self.layers[self.span_layer[sid]],
                   self.span_parent[sid], self.span_start[sid],
                   self.span_end[sid])

    def write_tsv(self, path: str) -> int:
        """Write every span, times relative to the first; returns rows."""
        origin = self.span_start[0] if len(self.span_start) else 0
        rows = 0
        with open(path, "w") as fh:
            fh.write("span\tlayer\tparent\tstart_us\tend_us\n")
            for sid, layer, parent, start, end in self.spans():
                fh.write(f"{sid}\t{layer}\t{parent}\t"
                         f"{(start - origin) / 1e3:.3f}\t"
                         f"{(end - origin) / 1e3:.3f}\n")
                rows += 1
        return rows


def self_times(spans: Iterable[Tuple[int, str, int, int, int]]
               ) -> Dict[str, int]:
    """Offline self time per layer from raw spans (the reference the
    online accounting is tested against): a span's duration minus the
    part of it its direct children cover."""
    spans = list(spans)
    child: Dict[int, int] = {}
    for _sid, _layer, parent, start, end in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (end - start)
    out: Dict[str, int] = {}
    for sid, layer, _parent, start, end in spans:
        out[layer] = out.get(layer, 0) + (end - start) - child.get(sid, 0)
    return out


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer entry point; a missing one raises."""
    import importlib

    for module, cls_name, method, layer, counter in LAYER_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        patches.wrap(cls, method,
                     lambda fn, l=layer, c=counter: tracer.wrap(l, c, fn))
    _install_counts(tracer, patches)


def _install_counts(tracer: Tracer, patches: Patches) -> None:
    """Count-only wrappers for events that have no span of their own."""
    from repro.ocs.admission import AdmissionGate
    from repro.ocs.replycache import ReplyCache
    from repro.ocs.runtime import OCSRuntime

    def count_sheds(fn):
        def try_admit(gate, *args, **kwargs):
            admitted = fn(gate, *args, **kwargs)
            if not admitted:
                tracer.count("ocs.admission.sheds")
            return admitted
        return try_admit

    def count_replays(fn):
        def begin(cache, *args, **kwargs):
            verdict = fn(cache, *args, **kwargs)
            if verdict and verdict[0] == "replay":
                tracer.count("ocs.reply_cache.replays")
            return verdict
        return begin

    def count_timeouts(fn):
        # The reply timer fires for every call still pending at its
        # deadline; a call that already completed is not a timeout.
        def on_timeout(runtime, call_id, *args, **kwargs):
            if call_id in runtime._pending:
                tracer.count("ocs.timeouts")
            return fn(runtime, call_id, *args, **kwargs)
        return on_timeout

    for key in ("ocs.admission.sheds", "ocs.reply_cache.replays",
                "ocs.timeouts"):
        tracer.counters.setdefault(key, 0)
    patches.wrap(AdmissionGate, "try_admit", count_sheds)
    patches.wrap(ReplyCache, "begin", count_replays)
    patches.wrap(OCSRuntime, "_on_timeout", count_timeouts)


# --------------------------------------------------------------------------
# simulated-time spans on the settop side
# --------------------------------------------------------------------------


class SimProbe:
    """Simulated-time spans around settop-side calls, resolves and tunes.

    Only spans that *end* while :attr:`active` is set are kept, so a
    window's numbers cover exactly the calls that completed inside it.
    Cancelled calls (an app torn down by a channel change) are neither
    successes nor failures.  With ``check_bookmarks`` the probe also
    checks read-your-writes on VOD bookmarks: every ``getBookmark`` a
    settop issues must return the position it last reported.
    """

    def __init__(self) -> None:
        self.kernel = None
        self.settop_ips: set = set()
        self.active = False
        self.check_bookmarks = False
        self.spans: List[Tuple[str, str, float, float, str]] = []
        self.call_ms: List[float] = []
        self.call_failures = 0
        self.resolve_ms: List[float] = []
        self.resolve_failures = 0
        self.tune_s: List[float] = []
        self.tune_failures = 0
        self.retries = 0
        self.bookmarks: Dict[Tuple[str, str], Optional[float]] = {}
        self.bookmark_checks = 0
        self.bookmark_mismatches: List[str] = []

    def reset_window(self) -> None:
        self.spans.clear()
        self.call_ms.clear()
        self.resolve_ms.clear()
        self.tune_s.clear()
        self.call_failures = self.resolve_failures = self.tune_failures = 0
        self.retries = 0

    def _keep(self, kind: str, ip: str, t0: float, t1: float,
              outcome: str) -> None:
        self.spans.append((kind, ip, t0, t1, outcome))

    # -- wrappers -------------------------------------------------------

    def install(self, patches: Patches) -> None:
        from repro.core.naming.client import NameClient
        from repro.core.rebind import RebindingProxy
        from repro.settop.app_manager import AppManager
        from repro.sim.errors import CancelledError

        probe = self

        # Whether a proxy or client is a settop's is decided per call, so
        # proxies built before the settops are known (during boot) count.
        def proxy_call(fn):
            async def call(proxy, method, *args, **kwargs):
                ip = proxy._runtime.ip
                if ip not in probe.settop_ips:
                    return await fn(proxy, method, *args, **kwargs)
                kernel = probe.kernel
                t0 = kernel.now
                rebinds = proxy.rebinds
                try:
                    result = await fn(proxy, method, *args, **kwargs)
                except CancelledError:
                    raise
                except Exception:
                    probe._call_done(proxy, ip, method, args, t0, False,
                                     None, rebinds)
                    raise
                probe._call_done(proxy, ip, method, args, t0, True, result,
                                 rebinds)
                return result
            return call

        def resolve(fn):
            async def resolve(client, name, *args, **kwargs):
                ip = client.runtime.ip
                if ip not in probe.settop_ips:
                    return await fn(client, name, *args, **kwargs)
                t0 = probe.kernel.now
                try:
                    ref = await fn(client, name, *args, **kwargs)
                except CancelledError:
                    raise
                except Exception:
                    probe._resolve_done(ip, t0, False)
                    raise
                probe._resolve_done(ip, t0, True)
                return ref
            return resolve

        def tune(fn):
            async def tune(am, channel, *args, **kwargs):
                kernel = am.kernel
                t0 = kernel.now
                before = am.last_tune
                try:
                    await fn(am, channel, *args, **kwargs)
                except CancelledError:
                    raise
                except Exception:
                    probe._tune_done(am, t0, kernel.now, False)
                    raise
                # A re-tune to the running app starts nothing.
                if am.last_tune is not before:
                    probe._tune_done(am, t0, kernel.now, True)
            return tune

        patches.wrap(RebindingProxy, "call", proxy_call)
        patches.wrap(NameClient, "resolve", resolve)
        patches.wrap(AppManager, "tune", tune)

    # -- outcomes -------------------------------------------------------

    def _call_done(self, proxy, ip: str, method: str, args: tuple,
                   t0: float, ok: bool, result: Any, rebinds: int) -> None:
        t1 = self.kernel.now
        if self.check_bookmarks and args:
            self._bookmark(ip, method, args, ok, result)
        if not self.active:
            return
        self.retries += proxy.rebinds - rebinds
        self._keep("call", ip, t0, t1, method if ok else f"{method}!")
        if ok:
            self.call_ms.append((t1 - t0) * 1e3)
        else:
            self.call_failures += 1

    def _resolve_done(self, ip: str, t0: float, ok: bool) -> None:
        if not self.active:
            return
        t1 = self.kernel.now
        self._keep("resolve", ip, t0, t1, "ok" if ok else "failed")
        if ok:
            self.resolve_ms.append((t1 - t0) * 1e3)
        else:
            self.resolve_failures += 1

    def _tune_done(self, am, t0: float, t1: float, ok: bool) -> None:
        if not self.active:
            return
        ip = am.settop.host.ip
        self._keep("tune", ip, t0, t1, "ok" if ok else "failed")
        if ok:
            self.tune_s.append(t1 - t0)
        else:
            self.tune_failures += 1

    def _bookmark(self, ip: str, method: str, args: tuple, ok: bool,
                  result: Any) -> None:
        key = (ip, args[0])
        if method == "reportPosition":
            # A failed report may or may not have landed: stop checking.
            self.bookmarks[key] = args[1] if ok else None
        elif method == "getBookmark" and ok:
            expected = self.bookmarks.get(key)
            if expected is None:
                return
            self.bookmark_checks += 1
            if result != expected:
                self.bookmark_mismatches.append(
                    f"{ip}/{args[0]}: read {result!r}, last wrote "
                    f"{expected!r}")

    def write_tsv(self, path: str) -> int:
        with open(path, "w") as fh:
            fh.write("kind\tsettop\tstart_s\tend_s\toutcome\n")
            for kind, ip, t0, t1, outcome in self.spans:
                fh.write(f"{kind}\t{ip}\t{t0:.6f}\t{t1:.6f}\t{outcome}\n")
        return len(self.spans)
