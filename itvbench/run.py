"""End-to-end ITV benchmark: one workload, one seed, one JSON verdict.

Usage (from the root of a checkout)::

    python3 itvbench/run.py --workload population --seed 1 --seconds 20 --trace 0
    python3 itvbench/run.py --workload all --seed 1 --seconds 20 --trace 0

An untraced run (``--trace 0``) plays the seed's episode twice in full,
checks that both plays produced the same simulated trace digest, then
repeats only the episode's set-up until ``--seconds`` of wall time are
spent (at least seven set-ups in all), and reports the end-to-end
metrics as medians over the plays and set-ups.  A traced run
(``--trace 1``) plays the episode once untraced and once with the layer
spans installed, reports the per-layer metrics, and writes the spans
under ``itvbench/out/``.  Every run prints a readable report first; the
last line of standard output is the JSON verdict.

The simulator is pure Python and is imported from ``src/`` of the
checkout; there is nothing to build.  See ``itvbench/README.md`` for why
each workload was chosen and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: an untraced run plays its episode in full this often, so every run
#: checks that one seed gives one digest
FULL_PLAYS = 2

#: an untraced run times at least this many set-ups (full plays count);
#: set-up-only plays make up the rest, and fill ``--seconds``
MIN_SETUPS = 7

#: layers each workload must exercise in a traced run: a layer with no
#: calls means an entry point stopped being reached
EXERCISED = {
    "population": ("sim.kernel", "sim.disk", "sim.trace", "net", "ocs",
                   "db", "core.replication"),
    "prime_time": ("sim.kernel", "sim.disk", "sim.trace", "net", "ocs"),
    "failover": ("sim.kernel", "sim.disk", "sim.trace", "net", "ocs", "db",
                 "core.replication", "chaos.monitor"),
}

#: E15's floors for the population workload
POP_MAX_FAILED_SHARE = 0.01
POP_MIN_HIT_RATE = 0.90


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def play_episode(workload: str, seed: int, mode: str) -> Dict:
    """Play one episode in this process (``mode`` is ``plain``, ``traced``
    or ``setup``); returns its summary as plain data.  Runs in a child
    process of its own (see :func:`spawn_episode`)."""
    from episodes import WORKLOADS, Meter
    from tracing import Patches, SimProbe, Tracer

    probe = SimProbe()
    tracer = Tracer() if mode == "traced" else None
    patches = Patches()
    probe.install(patches)
    try:
        episode = WORKLOADS[workload](seed, Meter(probe, tracer))
        episode.run(setup_only=mode == "setup")
    finally:
        patches.restore()
    if mode == "setup":
        return setup_summary(episode)
    summary = summarize(episode)
    if tracer is not None:
        summary["tracer"] = {
            "counters": tracer.counters,
            "calls": dict(zip(tracer.layers, tracer.calls)),
            "self_ms": {layer: tracer.self_ms(layer)
                        for layer in tracer.layers},
            "total_self_ms": tracer.total_self_ms(),
        }
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{workload}-seed{seed}")
        tracer.write_tsv(stem + "-spans.tsv")
        probe.write_tsv(stem + "-sim-spans.tsv")
    return summary


def spawn_episode(workload: str, seed: int, mode: str) -> Dict:
    """One episode in a fresh child process, waited for.

    A fresh process per episode gives each its own peak memory and
    keeps one episode's leftovers out of the next: a finished cluster
    is not reliably freed in-process (unfinished tasks keep their
    coroutines, and so the whole cluster, reachable).
    """
    _report, summary = run_child(workload, seed, "--episode", mode)
    return summary


def run_child(workload: str, seed: int, *flags: str):
    """Run this script for ``workload`` in a child process and wait for
    it; returns its report lines and its last line, parsed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), *flags],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (seed {seed}, {' '.join(flags)}) "
                           f"exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def setup_summary(ep) -> Dict:
    """An episode's set-up time and the host speed around it."""
    return {"setup_wall_s": ep.setup_s,
            "setup_calib_ms": sum(ep.calib_ms) / len(ep.calib_ms)}


def summarize(ep) -> Dict:
    """Everything later steps need from one episode, as plain data."""
    from episodes import ns_resolves, trace_events_named

    meter, probe = ep.meter, ep.meter.probe
    return {
        "digest": ep.digest,
        **setup_summary(ep),
        "wall_s": meter.wall_s,
        "sim_s": meter.sim_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok": len(probe.call_ms),
        "ops_failed": probe.call_failures,
        "open_data_calls": sum(1 for kind, _ip, _t0, _t1, outcome
                               in probe.spans
                               if kind == "call"
                               and outcome.rstrip("!") == "openData"),
        "call_ms": probe.call_ms,
        "tune_s": probe.tune_s,
        "tune_failures": probe.tune_failures,
        "resolve_ms": probe.resolve_ms,
        "resolve_failures": probe.resolve_failures,
        "retries": probe.retries,
        "violations": [(v.monitor, v.time, v.detail) for v in ep.violations],
        "checks": ep.checks,
        "bookmark_checks": probe.bookmark_checks,
        "settops": len(meter.settop_hosts),
        "kernel_events": meter.delta("kernel_events"),
        "net_msgs": meter.delta("net_msgs"),
        "net_bytes": meter.delta("net_bytes"),
        "net_dropped": meter.delta("net_dropped"),
        "cache_hits": meter.delta("cache_hits"),
        "cache_misses": meter.delta("cache_misses"),
        "ns_resolves": ns_resolves(meter),
        "catch_ups": trace_events_named(meter, "catch_up"),
        "snapshot_fetches": trace_events_named(meter, "state_fetched"),
    }


def simulated_signature(s: Dict) -> tuple:
    """What must repeat exactly when the seed repeats."""
    return (s["digest"], s["ops_ok"], s["ops_failed"], tuple(s["call_ms"]),
            tuple(s["tune_s"]), len(s["violations"]), s["kernel_events"])


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def sim_metrics(s: Dict) -> Dict[str, tuple]:
    """End-to-end metrics in simulated time: name -> (value, unit, n)."""
    from stats import finite, latencies, percentile

    ops = latencies(s["call_ms"], s["ops_failed"])
    tunes = latencies(s["tune_s"], s["tune_failures"])
    attempted = s["ops_ok"] + s["ops_failed"]
    return {
        "op_sim_ms_p50": (finite(percentile(ops, 50)), "ms", len(ops)),
        "op_sim_ms_p99": (finite(percentile(ops, 99)), "ms", len(ops)),
        "op_samples": (len(ops), "count", len(ops)),
        "app_start_sim_s_p50": (finite(percentile(tunes, 50)), "s",
                                len(tunes)),
        "app_start_sim_s_p95": (finite(percentile(tunes, 95)), "s",
                                len(tunes)),
        "app_start_samples": (len(tunes), "count", len(tunes)),
        "failed_op_share": (s["ops_failed"] / attempted if attempted else 0.0,
                            "share", attempted),
        "invariant_violations": (len(s["violations"]), "count",
                                 len(s["violations"])),
    }


def host_metrics(episodes: List[Dict], setups: List[Dict]
                 ) -> Dict[str, tuple]:
    """End-to-end host metrics: medians over the untraced full plays,
    and over every timed set-up for the set-up time.

    ``setup_s`` is each set-up's wall time scaled to the reference host
    speed by the calibration loop timed just before and just after that
    set-up (see README.md, "Steadiness"); ``setup_wall_s`` is the same
    set-up unscaled, printed but not exported.
    """
    from statistics import median

    from episodes import REF_CALIB_MS

    n = len(episodes)
    return {
        "setup_s": (median([e["setup_wall_s"] * REF_CALIB_MS
                            / e["setup_calib_ms"] for e in setups]),
                    "s", len(setups)),
        "setup_wall_s": (median([e["setup_wall_s"] for e in setups]), "s",
                         len(setups)),
        "sim_s_per_wall_s": (median([e["sim_s"] / e["wall_s"]
                                     for e in episodes]), "sim_s/s", n),
        "wall_ms_per_op": (median([e["wall_s"] * 1e3 / max(1, e["ops_ok"])
                                   for e in episodes]), "ms", n),
        "peak_rss_mb": (median([e["peak_rss_mb"] for e in episodes]), "MB",
                        n),
    }


def layer_metrics(plain: Dict, traced: Dict) -> Dict[str, tuple]:
    """Per-layer metrics of the traced episode: name -> (value, unit)."""
    from stats import finite, latencies, percentile

    tr = traced["tracer"]
    c = tr["counters"]

    def self_ms(layer: str) -> float:
        return tr["self_ms"].get(layer, 0.0)

    ops = max(1, traced["ops_ok"])
    lookups = traced["cache_hits"] + traced["cache_misses"]
    resolves = latencies(traced["resolve_ms"], traced["resolve_failures"])
    return {
        "trace.overhead_ratio": (traced["wall_s"] / plain["wall_s"], "ratio"),
        "trace.accounted_share": (tr["total_self_ms"]
                                  / (traced["wall_s"] * 1e3), "share"),
        "sim.kernel.events": (traced["kernel_events"], "count"),
        "sim.kernel.self_ms": (self_ms("sim.kernel"), "ms"),
        "sim.kernel.us_per_event": (plain["wall_s"] * 1e6
                                    / max(1, plain["kernel_events"]), "us"),
        "sim.disk.reads": (c.get("sim.disk.reads", 0), "count"),
        "sim.disk.writes": (c.get("sim.disk.writes", 0), "count"),
        "sim.disk.syncs": (c.get("sim.disk.syncs", 0), "count"),
        "sim.disk.self_ms": (self_ms("sim.disk"), "ms"),
        "db.gets": (c.get("db.gets", 0), "count"),
        "db.writes": (c.get("db.writes", 0), "count"),
        "db.self_ms": (self_ms("db"), "ms"),
        "core.replication.appends": (c.get("core.replication.appends", 0),
                                     "count"),
        "core.replication.append_self_ms": (self_ms("core.replication"),
                                            "ms"),
        "core.replication.catch_ups": (traced["catch_ups"], "count"),
        "core.replication.snapshot_fetches": (traced["snapshot_fetches"],
                                              "count"),
        "net.sends": (c.get("net.sends", 0), "count"),
        "net.broadcasts": (c.get("net.broadcasts", 0), "count"),
        "net.bytes": (traced["net_bytes"], "bytes"),
        "net.dropped": (traced["net_dropped"], "count"),
        "net.self_ms": (self_ms("net"), "ms"),
        "net.msgs_per_op": (traced["net_msgs"] / ops, "msgs/op"),
        "ocs.invokes": (c.get("ocs.invokes", 0), "count"),
        "ocs.invoke_self_ms": (self_ms("ocs"), "ms"),
        "ocs.calls_per_op": (c.get("ocs.invokes", 0) / ops, "calls/op"),
        "ocs.timeouts": (c.get("ocs.timeouts", 0), "count"),
        "ocs.reply_cache.replays": (c.get("ocs.reply_cache.replays", 0),
                                    "count"),
        "ocs.admission.sheds": (c.get("ocs.admission.sheds", 0), "count"),
        "core.naming.cache_hit_rate": (traced["cache_hits"] / lookups
                                       if lookups else 0.0, "share"),
        "core.naming.ns_resolves_per_settop": (
            traced["ns_resolves"] / max(1, traced["settops"]), "count"),
        "core.naming.resolve_sim_ms_p50": (finite(percentile(resolves, 50)),
                                           "ms"),
        "core.naming.resolve_sim_ms_p99": (finite(percentile(resolves, 99)),
                                           "ms"),
        "core.rebind.retries": (traced["retries"], "count"),
        "sim.trace.events": (c.get("sim.trace.events", 0), "count"),
        "sim.trace.self_ms": (self_ms("sim.trace"), "ms"),
        "chaos.monitor.probes": (c.get("chaos.monitor.probes", 0), "count"),
        "chaos.monitor.self_ms": (self_ms("chaos.monitor"), "ms"),
    }


# --------------------------------------------------------------------------
# checks and report
# --------------------------------------------------------------------------


def correctness(workload: str, episodes: List[Dict]) -> List[str]:
    """Failed correctness checks of one run (empty when correct)."""
    failed: List[str] = []
    first = episodes[0]
    signatures = {simulated_signature(e) for e in episodes}
    if len(signatures) != 1:
        digests = sorted({e["digest"][:12] for e in episodes})
        failed.append(f"one seed gave {len(signatures)} different simulated "
                      f"runs (digests {', '.join(digests)})")
    for e in episodes:
        failed.extend(c for c in e["checks"] if c not in failed)
    if first["ops_ok"] < 1:
        failed.append("no settop-side call completed in the window")
    if workload != "population" and first["open_data_calls"] < 1:
        failed.append("no settop app download (openData) in the window")
    for e in episodes:
        if "tracer" not in e:
            continue
        calls = e["tracer"]["calls"]
        idle = [layer for layer in EXERCISED[workload]
                if not calls.get(layer)]
        if idle:
            failed.append(f"traced layers with no calls: {', '.join(idle)}")
    if workload == "population":
        attempted = first["ops_ok"] + first["ops_failed"]
        share = first["ops_failed"] / attempted if attempted else 1.0
        if share > POP_MAX_FAILED_SHARE:
            failed.append(f"population failed {share:.2%} of ops "
                          f"(floor {POP_MAX_FAILED_SHARE:.0%})")
        lookups = first["cache_hits"] + first["cache_misses"]
        rate = first["cache_hits"] / lookups if lookups else 0.0
        if rate < POP_MIN_HIT_RATE:
            failed.append(f"population binding-cache hit rate {rate:.3f} "
                          f"(floor {POP_MIN_HIT_RATE})")
        if first["bookmark_checks"] < 1:
            failed.append("no bookmark read could be checked")
    return failed


def describe(value: float) -> str:
    return f"{value:.6g}"


def print_report(workload: str, seed: int, trace: int, calib: float,
                 episodes: List[Dict], host: Dict, sim: Dict,
                 layers: Optional[Dict], failed: List[str]) -> None:
    from stats import fmt_percentile, tail_percentile

    first = episodes[0]
    print(f"itvbench workload={workload} seed={seed} trace={trace} "
          f"episodes={len(episodes)} digest={first['digest'][:16]} "
          f"host.calib_ms={calib:.3f}")
    print(f"  window: {first['sim_s']:.1f} sim-s, "
          f"{first['ops_ok'] + first['ops_failed']} settop-side calls")
    for name, (value, unit, n) in host.items():
        print(f"  {name:<24} {describe(value):>12} {unit:<8} n={n}")
    tails = {"op_sim_ms_p99": first["ops_ok"] + first["ops_failed"],
             "app_start_sim_s_p95": len(first["tune_s"])
             + first["tune_failures"]}
    for name, (value, unit, n) in sim.items():
        note = ""
        if name in tails:
            note = (f"  (tail with >=10 beyond: "
                    f"{fmt_percentile(tail_percentile(tails[name]))})")
        shown = "missed" if value >= 1e9 else describe(value)
        print(f"  {name:<24} {shown:>12} {unit:<8} n={n}{note}")
    if first["violations"]:
        counts: Dict[str, int] = {}
        for monitor, _t, _detail in first["violations"]:
            counts[monitor] = counts.get(monitor, 0) + 1
        print("  violations by monitor: " + ", ".join(
            f"{m} x{n}" for m, n in sorted(counts.items())))
        for monitor, t, detail in first["violations"]:
            print(f"    {monitor} t={t:.1f}: {detail}")
    if layers:
        for name, (value, unit) in layers.items():
            print(f"  {name:<36} {describe(value):>12} {unit}")
    lookups = first["cache_hits"] + first["cache_misses"]
    print(f"  checked: {len(episodes)} plays of the seed agree; "
          f"window cache hit rate "
          f"{first['cache_hits'] / lookups if lookups else 0.0:.4f}; "
          f"{first['bookmark_checks']} bookmark reads checked")
    for problem in failed:
        print(f"  CHECK FAILED: {problem}")


def run_one(args) -> int:
    from episodes import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from episodes import calibrate_ms

    calib = calibrate_ms()
    t0 = time.perf_counter()
    layers = None
    if args.trace:
        plain = spawn_episode(args.workload, args.seed, "plain")
        traced = spawn_episode(args.workload, args.seed, "traced")
        episodes = [plain, traced]
        layers = layer_metrics(plain, traced)
        layers["host.calib_ms"] = (calib, "ms")
        host = host_metrics([plain], [plain])
    else:
        episodes = [spawn_episode(args.workload, args.seed, "plain")
                    for _ in range(FULL_PLAYS)]
        setups = list(episodes)
        while (len(setups) < MIN_SETUPS
               or time.perf_counter() - t0 < args.seconds):
            setups.append(spawn_episode(args.workload, args.seed, "setup"))
        host = host_metrics(episodes, setups)
    sim = sim_metrics(episodes[0])
    failed = correctness(args.workload, episodes)
    print_report(args.workload, args.seed, args.trace, calib, episodes, host,
                 sim, layers, failed)
    # The verdict carries exactly the metrics BENCHMARK.json lists for
    # this kind of run: its end_to_end ones untraced, its per_layer ones
    # traced.  The window's wall rates are per_layer because on a shared
    # host their spread exceeds any bound the gate allows (README.md).
    measured = {k: (v, u) for k, (v, u, _n) in {**host, **sim}.items()}
    measured.update(layers or {})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: {"value": measured[m["name"]][0],
                           "unit": measured[m["name"]][1]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    first = episodes[0]
    print(json.dumps({"correct": not failed,
                      "attempted": first["ops_ok"] + first["ops_failed"],
                      "failed": first["ops_failed"],
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process (so peak memory
    is per workload); prints their reports and one combined verdict."""
    from episodes import WORKLOADS

    verdict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        report, result = run_child(name, args.seed,
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace))
        print("\n".join(report))
        verdict["correct"] = verdict["correct"] and result["correct"]
        verdict["attempted"] += result["attempted"]
        verdict["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            verdict["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(verdict))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="population, prime_time, failover or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds an untraced run spends repeating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episode", choices=("plain", "traced", "setup"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.episode:
        summary = play_episode(args.workload, args.seed, args.episode)
        print(json.dumps(summary))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
