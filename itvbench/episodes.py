"""The three workloads, each as a seeded episode: set up, measure, drain.

An episode builds a fresh cluster from the seed, sets it up (build,
settle, boot, and for ``population`` a warm-up in which every settop
makes its first tune), then runs one measured window, then finishes.
:class:`Meter` marks the window: the benchmark times the wall clock
between its ``start`` and ``stop``, snapshots the program's own counters
at both ends, and installs the traced run's span wrappers only inside
it.  Every workload is closed loop: each settop waits for its reply,
then thinks.

The workloads drive the public API of ``repro.cluster``,
``repro.workloads`` and ``repro.chaos``; nothing here changes what the
simulation does, so one seed always yields one trace digest.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Optional

from repro.chaos import run_seed, trace_digest
from repro.cluster import Scenario, build_full_cluster
from repro.cluster.builder import fresh_run_state
from repro.core.params import Params
from repro.sim.rand import SeededRandom
from repro.workloads import ViewerSession
from repro.workloads.population import PopulationEngine

from tracing import Patches, SimProbe, Tracer, install_tracer

# population: E15-shaped (section 5.1 / 9.6)
POP_SETTOPS = 1000
POP_NEIGHBORHOODS_PER_SERVER = 4
POP_THINK = (12.0, 24.0)
POP_WARMUP_S = 25.0      # every settop's staggered first tune lands here
POP_WINDOW_S = 40.0
POP_GRACE_S = 16.0       # stragglers finish (give-up budget is 15 s)

# prime_time / failover: fully booted settops running viewer evenings
VIEWER_SETTOPS = 64
EVENING_S = 240.0

#: the calibration loop's time on the host the bounds were set on;
#: ``setup_s`` is reported in that host's seconds
REF_CALIB_MS = 8.0

# failover: the chaos engine's generated schedule
FAULTS = 12
FAULT_HORIZON_S = 600.0


def calibrate_ms() -> float:
    """Median wall time of a fixed pure-Python loop: host speed, so host
    drift can be told apart from a program change.  The loop builds
    small dicts and tuples and indexes them, as the simulator does all
    the time; it tracks the simulator's slowdowns on a busy host better
    than a loop of arithmetic alone."""
    samples = []
    gc.disable()   # a collection's cost would depend on the caller's heap
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            # small batches, freed as they go: the loop must not raise
            # the episode's peak memory
            for _ in range(10):
                rows = [{"a": i, "b": (i, str(i))} for i in range(2_000)]
                index = {row["b"][1]: row for row in rows}
                del rows, index
            samples.append((time.perf_counter() - t0) * 1e3)
    finally:
        gc.enable()
    return sorted(samples)[1]


class Meter:
    """Marks one episode's measured window and reads what it cost."""

    def __init__(self, probe: SimProbe, tracer: Optional[Tracer] = None):
        self.probe = probe
        self.tracer = tracer
        self.patches = Patches()
        self.cluster = None
        self.settop_hosts: List[Any] = []
        self.t_start = self.t_stop = 0.0
        self.sim_start = self.sim_stop = 0.0
        self.before: Dict[str, Any] = {}
        self.after: Dict[str, Any] = {}

    def attach(self, cluster, settop_hosts) -> None:
        self.cluster = cluster
        self.settop_hosts = list(settop_hosts)
        self.probe.kernel = cluster.kernel
        self.probe.settop_ips = {h.ip for h in self.settop_hosts}

    def start(self) -> None:
        self.probe.reset_window()
        self.before = counters(self.cluster, self.settop_hosts)
        self.sim_start = self.cluster.now
        if self.tracer is not None:
            install_tracer(self.tracer, self.patches)
        self.probe.active = True
        self.t_start = time.perf_counter()

    def stop(self) -> None:
        self.t_stop = time.perf_counter()
        self.probe.active = False
        self.patches.restore()
        self.sim_stop = self.cluster.now
        self.after = counters(self.cluster, self.settop_hosts)

    @property
    def wall_s(self) -> float:
        return self.t_stop - self.t_start

    @property
    def sim_s(self) -> float:
        return self.sim_stop - self.sim_start

    def delta(self, key: str) -> float:
        return self.after[key] - self.before[key]


def counters(cluster, settop_hosts) -> Dict[str, Any]:
    """The program's own counters, read without side effects."""
    net = cluster.net
    hits = misses = 0
    for host in settop_hosts:
        # a host gets a binding cache on its first cached resolve
        cache = getattr(host, "binding_cache", None)
        if cache is not None:
            hits += cache.hits
            misses += cache.misses
    served = {}
    for host in cluster.servers:
        proc = host.find_process("ns")
        replica = proc.attachments.get("ns_replica") if proc else None
        if replica is not None:
            served[id(replica)] = replica.resolves_served
    events = cluster.trace.events
    return {
        "kernel_events": cluster.kernel._seq,
        "net_msgs": net.messages_sent,
        "net_bytes": sum(net.bytes_by_kind.values()),
        "net_dropped": net.messages_dropped + net.messages_lost,
        "trace_len": len(events),
        "cache_hits": hits,
        "cache_misses": misses,
        "ns_served": served,
    }


def ns_resolves(meter: Meter) -> int:
    """Resolves the NS replicas served inside the window (a replica that
    was restarted counts from zero)."""
    before = meter.before["ns_served"]
    return sum(n - before.get(key, 0)
               for key, n in meter.after["ns_served"].items())


def trace_events_named(meter: Meter, name: str) -> int:
    events = meter.cluster.trace.events
    lo, hi = meter.before["trace_len"], meter.after["trace_len"]
    return sum(1 for ev in events[lo:hi] if ev.event == name)


class SetupDone(Exception):
    """Ends a set-up-only play as soon as its set-up is timed."""


class Episode:
    """One run of a workload from a seed; subclasses set the shape."""

    name = ""
    check_bookmarks = False

    def __init__(self, seed: int, meter: Meter):
        self.seed = seed
        self.meter = meter
        self.cluster = None
        self.violations: List[Any] = []
        self.digest = ""
        self.setup_s = 0.0
        self.calib_ms: List[float] = []   # around the set-up
        self.checks: List[str] = []   # failed correctness checks

    def run(self, setup_only: bool = False) -> None:
        """Play the episode; with ``setup_only``, stop once set up."""
        self.calib_ms = [calibrate_ms()]
        t0 = time.perf_counter()
        self.meter.probe.check_bookmarks = self.check_bookmarks
        try:
            self.play(lambda: self._started(t0, setup_only))
        except SetupDone:
            return
        self.digest = trace_digest(self.cluster)
        self.verify()

    def _started(self, t0: float, setup_only: bool) -> None:
        self.setup_s = time.perf_counter() - t0
        self.calib_ms.append(calibrate_ms())
        if setup_only:
            raise SetupDone
        self.meter.start()

    def play(self, start_window: Callable[[], None]) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Workload-specific output checks; append failures to checks."""


class PhasedCluster:
    """A view of a cluster whose ``run_for`` runs in three phases.

    :class:`PopulationEngine` drives its whole run with one
    ``run_for(duration + grace)``; handing it this view splits that run
    into warm-up, measured window and drain, each its own kernel run,
    with the meter started and stopped between them.
    """

    def __init__(self, cluster, warmup: float, window: float,
                 start_window: Callable[[], None],
                 stop_window: Callable[[], None]):
        self._cluster = cluster
        self._warmup = warmup
        self._window = window
        self._start_window = start_window
        self._stop_window = stop_window

    def __getattr__(self, name: str):
        return getattr(self._cluster, name)

    def run_for(self, duration: float) -> None:
        cluster = self._cluster
        cluster.run_for(self._warmup)
        self._start_window()
        cluster.run_for(self._window)
        self._stop_window()
        cluster.run_for(duration - self._warmup - self._window)


class Population(Episode):
    """~1000 lightweight settops, E15-shaped: 45% getBookmark, 35%
    reportPosition, 20% catalog, binding cache on."""

    name = "population"
    check_bookmarks = True

    def play(self, start_window):
        fresh_run_state()
        params = Params().with_overrides(binding_cache=True)
        self.cluster = build_full_cluster(
            n_servers=3, neighborhoods_per_server=POP_NEIGHBORHOODS_PER_SERVER,
            params=params, seed=self.seed)
        view = PhasedCluster(self.cluster, POP_WARMUP_S, POP_WINDOW_S,
                             start_window, self.meter.stop)
        engine = PopulationEngine(view, POP_SETTOPS, seed=self.seed,
                                  think=POP_THINK, cached=True)
        self.meter.attach(self.cluster, engine.hosts)
        engine.run(POP_WARMUP_S + POP_WINDOW_S, grace=POP_GRACE_S)

    def verify(self):
        probe = self.meter.probe
        if probe.bookmark_mismatches:
            self.checks.append(
                f"{len(probe.bookmark_mismatches)} bookmark reads missed the "
                f"settop's own last write, e.g. "
                f"{probe.bookmark_mismatches[0]}")
        self.checks.extend(self._db_holds_bookmarks())

    def _db_holds_bookmarks(self) -> List[str]:
        """After the drain the db primary holds every settop's last
        acknowledged bookmark."""
        from repro.services.vod import BOOKMARK_TABLE

        primary = self.cluster.db_primary_ip()
        host = self.cluster.net.host_at(primary) if primary else None
        proc = host.find_process("db") if host else None
        db = proc.attachments.get("service") if proc else None
        if db is None:
            return ["no db primary after the drain"]
        wrong = []
        for (ip, title), pos in sorted(self.meter.probe.bookmarks.items()):
            if pos is None:
                continue
            try:
                stored = db.get(BOOKMARK_TABLE, f"{ip}/{title}")
            except Exception as err:  # noqa: BLE001 - reported as a miss
                stored = repr(err)
            if stored != pos:
                wrong.append(f"{ip}/{title}: db has {stored!r}, "
                             f"settop wrote {pos!r}")
        if wrong:
            return [f"{len(wrong)} bookmarks missing from the db primary, "
                    f"e.g. {wrong[0]}"]
        return []


class PrimeTime(Episode):
    """64 settops booted by one simultaneous broadcast (E11-shaped),
    then a fault-free evening of ViewerSessions."""

    name = "prime_time"

    def play(self, start_window):
        fresh_run_state()
        cluster = self.cluster = build_full_cluster(n_servers=3,
                                                    seed=self.seed)
        nbhds = cluster.neighborhoods
        kernels = [cluster.add_settop_kernel(nbhds[i % len(nbhds)])
                   for i in range(VIEWER_SETTOPS)]
        if not cluster.boot_settops(kernels, timeout=300.0):
            raise RuntimeError(f"seed {self.seed}: settops failed to boot")
        self.meter.attach(cluster, [stk.host for stk in kernels])
        rng = SeededRandom(self.seed).stream("prime-time-viewers")
        for i, stk in enumerate(kernels):
            session = ViewerSession(cluster, stk, rng.stream(f"v{i}"))
            cluster.kernel.create_task(session.run(EVENING_S),
                                       name=f"viewer-{i}")
        start_window()
        cluster.run_for(EVENING_S)
        self.meter.stop()


class Failover(Episode):
    """prime_time's viewers plus a generated fault schedule, probed by
    the chaos MonitorBus, healed and quiesced: the chaos engine's own
    ``run_seed``, with the measured window around its ``Scenario.run``."""

    name = "failover"

    def play(self, start_window):
        episode = self

        def measured(fn):
            def run(scenario, cluster):
                episode.cluster = cluster
                episode.meter.attach(cluster, cluster.settops)
                start_window()
                try:
                    return fn(scenario, cluster)
                finally:
                    episode.meter.stop()
            return run

        patches = Patches()
        patches.wrap(Scenario, "run", measured)
        try:
            result = run_seed(self.seed, n_faults=FAULTS,
                              horizon=FAULT_HORIZON_S,
                              settops=VIEWER_SETTOPS)
        finally:
            patches.restore()
        self.violations = list(result.violations)


WORKLOADS = {cls.name: cls for cls in (Population, PrimeTime, Failover)}
