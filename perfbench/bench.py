"""Workloads, the batch runner and the correctness oracle of the
end-to-end cluster benchmark (see ``NOTES.md`` beside this file).

One *batch* builds a fresh cluster through ``ClusterBuilder``, preloads
every key, drains replication, schedules a seeded scenario op list on
the cluster's simulator (open loop in virtual time), runs it once with
the wall clock running, drains again and checks every replica against
an oracle.  Everything the cluster does is decided by the seed, so the
virtual-time results of two batches of one seed are identical; only the
wall-clock numbers vary.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

from repro.bench import scenarios
from repro.cluster import ClusterBuilder
from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadRequest, is_weaker
from repro.errors import ReproError
from repro.merge.deltas import Delta
from repro.sim.rng import SeededRNG

from spans import SpanRecorder

ENTITY = "item"
FIELD = "value"
DELTA = Delta.add(FIELD, 1)
#: The per-read consistency mix: 10% strong, 80% bounded(20), 10% eventual.
REQUESTS = (ReadRequest.strong(), ReadRequest.bounded(20.0), ReadRequest.eventual())
MIX_THRESHOLDS = (0.10, 0.90)
STRONG = ConsistencyLevel.STRONG
CACHE = {"capacity": 1024, "hot_capacity": 32}
#: Drain rounds (of one ship interval each) before a cluster that will
#: not converge is reported instead of waited on.
MAX_DRAIN_ROUNDS = 400


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one cluster shape.

    Attributes:
        name: Workload name (``--workload``); ``BENCHMARK.json`` gives
            the reason it is in the benchmark.
        scenario: The sized :mod:`repro.bench.scenarios` shape.
        geo: Three-site geo cluster (else 3-node master/slave).
        outage_site: Site whose nodes are crashed across the middle
            third of the run.
    """

    name: str
    scenario: scenarios.Scenario
    geo: bool = False
    outage_site: Optional[str] = None

    def builder(self, seed: int) -> ClusterBuilder:
        """The cluster declaration: builder defaults everywhere except
        the features this workload names (no ``with_batching``)."""
        builder = ClusterBuilder(seed=seed).with_read_cache(**CACHE)
        if self.geo:
            return (
                builder.with_topology(("us", "eu", "ap"), wan_latency=30.0)
                .with_placement(replicas=2, shards=16)
                .with_front_door(site="us")
            )
        return builder.with_replicas(
            3, mode="master_slave", ship_interval=5.0
        ).with_front_door()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "hot_reads",
            replace(scenarios.get("zipf_hot"), entities=10_000, read_rate=90.0, write_rate=10.0, duration=400.0),
        ),
        Workload(
            "write_ship",
            replace(scenarios.get("zipf_mild"), entities=50_000, read_rate=10.0, write_rate=90.0, duration=300.0),
        ),
        Workload(
            "geo_outage",
            replace(scenarios.get("diurnal"), duration=400.0),
            geo=True,
            outage_site="eu",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program, made from the seed alone."""

    seed: int
    keys: list[str]
    preload: dict[str, int]
    ops: list[Any]
    requests: list[Optional[ReadRequest]]

    @classmethod
    def make(cls, workload: Workload, seed: int) -> "Inputs":
        scenario = workload.scenario
        ops = scenario.ops(seed)
        rng = SeededRNG(seed * 7919 + 1)
        keys = scenario.keys()
        preload = {key: rng.randint(0, 1000) for key in keys}
        strong_below, bounded_below = MIX_THRESHOLDS
        requests: list[Optional[ReadRequest]] = []
        for op in ops:
            if op.kind != "read":
                requests.append(None)
                continue
            draw = rng.random()
            requests.append(
                REQUESTS[0] if draw < strong_below
                else REQUESTS[1] if draw < bounded_below
                else REQUESTS[2]
            )
        return cls(seed, keys, preload, ops, requests)


@dataclass
class Batch:
    """One batch's measurements and verdict."""

    setup_s: float = 0.0
    run_s: float = 0.0
    read_ns: list[int] = field(default_factory=list)
    write_ns: list[int] = field(default_factory=list)
    #: Virtual-time results, identical for every batch of one seed.
    virtual: dict[str, float] = field(default_factory=dict)
    #: Per-layer counts (deltas over the timed run), also seed-exact.
    counts: dict[str, int] = field(default_factory=dict)
    #: Per-layer self time in ns (traced batches only).
    self_ns: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    #: Reads rejected or raised, plus writes that raised (not acked).
    failed: int = 0
    #: Every disagreement with the oracle; empty means correct.
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Cluster plumbing
# ---------------------------------------------------------------------- #


def is_geo(cluster) -> bool:
    return cluster.placement is not None


def replicas_of(cluster) -> list[Any]:
    """Every replica node of the cluster's replication scheme."""
    scheme = cluster.replication
    if is_geo(cluster):
        return scheme.replica_list()
    return [scheme.master, *scheme.slaves.values()]


def holders_of(cluster, key: str) -> list[Any]:
    """The replicas that must hold ``key``: its shard group on a geo
    cluster, every node on master/slave."""
    scheme = cluster.replication
    if is_geo(cluster):
        return scheme.groups[scheme.placement.shard_of(ENTITY, key)]
    return replicas_of(cluster)


def replication_lag(cluster) -> int:
    scheme = cluster.replication
    if is_geo(cluster):
        return scheme.replication_lag_events
    return max(scheme.slave_lag_events(slave) for slave in scheme.slaves)


def drain(cluster) -> None:
    """Run the simulator until every replica has applied every event."""
    sim, step = cluster.sim, cluster.replication.ship_interval
    for _ in range(MAX_DRAIN_ROUNDS):
        if replication_lag(cluster) == 0:
            return
        sim.run(until=sim.now + step)
    raise RuntimeError(f"replication did not drain in {MAX_DRAIN_ROUNDS} rounds")


def counters(cluster) -> dict[str, int]:
    """The components' own public counters, summed per layer."""
    door, stats = cluster.front_door, cluster.network.stats
    caches = cluster.read_caches
    return {
        "door_reads": door.reads,
        "door_rejects": door.rejects,
        "door_degraded": door.degraded_serves,
        "cache_hits": sum(cache.hits for cache in caches),
        "cache_misses": sum(cache.misses for cache in caches),
        "cache_evictions": sum(cache.evictions for cache in caches),
        "net_sent": stats.sent,
        "net_frames": stats.frames,
        "net_frame_payloads": stats.frame_payloads,
        "net_wan_frames": stats.wan_frames,
        "net_wan_payloads": stats.wan_payloads,
        "rows_ingested": sum(node.events_received for node in replicas_of(cluster)),
        "sim_events": cluster.sim.processed,
    }


# ---------------------------------------------------------------------- #
# One batch
# ---------------------------------------------------------------------- #


class _Sink:
    """Where the op actions leave their outcomes (outside the timing)."""

    def __init__(self) -> None:
        self.read_ns: list[int] = []
        self.write_ns: list[int] = []
        #: ``(key, request, result, value, writes to key acked so far)``
        #: per read.  ``value`` is copied out at once: a result may hold
        #: the store's live state, which later writes change.
        self.results: list[tuple[str, ReadRequest, Any, Any, int]] = []
        #: Acked writes per key.
        self.acked: dict[str, int] = {}


def _read_action(read, key: str, request: ReadRequest, sink: _Sink):
    read_ns, results, acked = sink.read_ns, sink.results, sink.acked

    def action() -> None:
        start = perf_counter_ns()
        try:
            result = read(ENTITY, key, request=request)
        except ReproError:
            result = None
        read_ns.append(perf_counter_ns() - start)
        state = None if result is None else result.value
        value = None if state is None else state.fields.get(FIELD)
        results.append((key, request, result, value, acked.get(key, 0)))

    return action


def _write_action(write, key: str, sink: _Sink):
    write_ns, acked = sink.write_ns, sink.acked

    def action() -> None:
        start = perf_counter_ns()
        try:
            write(ENTITY, key, DELTA)
            ok = True
        except ReproError:
            ok = False
        write_ns.append(perf_counter_ns() - start)
        if ok:
            acked[key] = acked.get(key, 0) + 1

    return action


def setup(workload: Workload, inputs: Inputs, sink: _Sink, trace=None):
    """Build, preload, drain and compile the schedule; returns the
    cluster and the virtual time the schedule starts at.

    ``trace`` (a ``(recorder, extra_counts)`` pair) wraps the layers
    after the drain and before the schedule binds their methods, so
    only the timed run is traced.
    """
    cluster = workload.builder(inputs.seed).create()
    scheme = cluster.replication
    for key in inputs.keys:
        scheme.write_insert(ENTITY, key, {FIELD: inputs.preload[key]})
    drain(cluster)
    if trace is not None:
        install_tracing(trace[0], cluster, trace[1])
    sim = cluster.sim
    start = sim.now
    read, write = cluster.read, scheme.write_delta
    for op, request in zip(inputs.ops, inputs.requests):
        action = (
            _read_action(read, op.key, request, sink)
            if request is not None
            else _write_action(write, op.key, sink)
        )
        sim.schedule_at(start + op.at, action)
    duration = workload.scenario.duration
    if workload.outage_site is not None:
        nodes = [
            cluster.network.nodes[node_id]
            for node_id in cluster.topology.nodes_of(workload.outage_site)
        ]
        for node in nodes:
            sim.schedule_at(start + duration / 3, node.crash)
            sim.schedule_at(start + 2 * duration / 3, node.recover)
    return cluster, start


def install_tracing(recorder: SpanRecorder, cluster, extra: dict[str, int]) -> None:
    """Wrap the public methods each layer is entered through."""
    scheme = cluster.replication
    scheme_layer = "replication.geo" if is_geo(cluster) else "replication.master_slave"
    recorder.install(cluster.sim, "run", "sim.scheduler")
    recorder.install(cluster.front_door, "read", "frontdoor")
    recorder.install(scheme, "read", scheme_layer + ".read")
    recorder.install(scheme, "write_delta", scheme_layer + ".write")
    for cache in cluster.read_caches:
        recorder.install(cache, "lookup", "lsdb.readcache.lookup")
    for node in replicas_of(cluster):
        store = node.store
        recorder.install(store, "apply_delta", "lsdb.store.append")
        for method in ("apply_remote", "apply_remote_batch", "apply_remote_frame"):
            recorder.install(store, method, "lsdb.store.ingest")
        recorder.install(node, "ship_events", "replication.replica.ship")
        recorder.install(node, "handle_message", "replication.replica.apply")
        recorder.patch(node, "handle_message", _offer_counter(node.handle_message, extra))
    recorder.install(cluster.network, "send", "sim.network.send")
    recorder.install(cluster.network, "send_batch", "sim.network.send")
    for gateway in getattr(scheme, "gateways", {}).values():
        recorder.install(gateway, "flush", "replication.geo.flush")
    backpressure = cluster.front_door.backpressure
    recorder.patch(backpressure, "tripped", _trip_counter(backpressure.tripped, extra))


def _offer_counter(handle, extra: dict[str, int]):
    """Count event messages and the events they offer a replica."""

    def counted(source: str, message: Any) -> Any:
        if message.get("type") == "events":
            frame = message.get("frame")
            extra["replica_frames"] += 1
            extra["events_offered"] += (
                len(frame) if frame is not None else len(message.get("events", ()))
            )
        return handle(source, message)

    return counted


def _trip_counter(tripped, extra: dict[str, int]):
    """Count door reads during which backpressure was tripped."""

    def counted() -> list[str]:
        over = tripped()
        if over:
            extra["shed"] += 1
        return over

    return counted


def run_batch(workload: Workload, inputs: Inputs, *, traced: bool = False, spans_out: Optional[str] = None) -> Batch:
    """Set up, run, drain and check one batch."""
    batch = Batch(attempted=len(inputs.ops))
    sink = _Sink()
    extra = {"replica_frames": 0, "events_offered": 0, "shed": 0}
    recorder = SpanRecorder() if traced else None
    gc.collect()
    started = perf_counter()
    cluster, start = setup(
        workload, inputs, sink, None if recorder is None else (recorder, extra)
    )
    batch.setup_s = perf_counter() - started
    before = counters(cluster)
    gc.collect()
    started = perf_counter()
    cluster.sim.run(until=start + workload.scenario.duration)
    batch.run_s = perf_counter() - started
    if recorder is not None:
        recorder.uninstall()
        batch.self_ns = recorder.self_ns()
        if spans_out is not None:
            recorder.write(spans_out)
    after = counters(cluster)
    batch.counts = {name: after[name] - before[name] for name in after}
    if traced:
        batch.counts.update(extra)

    batch.read_ns, batch.write_ns = sink.read_ns, sink.write_ns
    drain(cluster)
    batch.errors = check(cluster, inputs, sink)
    batch.virtual = virtual_metrics(sink)
    batch.failed = failed_ops(sink)
    return batch


# ---------------------------------------------------------------------- #
# Correctness: the oracle and the stamps
# ---------------------------------------------------------------------- #


def check(cluster, inputs: Inputs, sink: _Sink) -> list[str]:
    """Every way the drained cluster's answers disagree with the oracle:
    each key's preload plus the writes to it that were acked."""
    errors: list[str] = []
    ran = len(sink.results) + len(sink.write_ns)
    if ran != len(inputs.ops):
        errors.append(f"{ran} ops ran, {len(inputs.ops)} were scheduled")
    for key, preload in inputs.preload.items():
        value = preload + sink.acked.get(key, 0)
        for node in holders_of(cluster, key):
            state = node.store.get(ENTITY, key)
            got = None if state is None else state.fields.get(FIELD)
            if got != value:
                errors.append(f"{node.node_id} holds {key}={got!r}, oracle says {value}")
    errors.extend(check_reads(sink.results, inputs.preload))
    return errors


def check_reads(results, preload: dict[str, int]) -> list[str]:
    """Every served read is stamped (delivered level, numeric staleness)
    and returns a value between the key's preload and the preload plus
    the writes acked before the read; a read delivered STRONG returns
    exactly the latter."""
    errors: list[str] = []
    for key, _request, result, got, acked in results:
        if result is None or result.rejected:
            continue
        staleness = result.staleness
        if result.delivered_level is None:
            errors.append(f"read {key}: served without a delivered level")
        if isinstance(staleness, bool) or not isinstance(staleness, (int, float)):
            errors.append(f"read {key}: staleness {staleness!r} is not a number")
        low, high = preload[key], preload[key] + acked
        if got is None or not low <= got <= high:
            errors.append(f"read {key}: value {got!r} outside [{low}, {high}]")
        elif result.delivered_level is STRONG and got != high:
            errors.append(f"read {key}: delivered STRONG with {got}, latest acked is {high}")
    return errors


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def failed_ops(sink: _Sink) -> int:
    """Reads rejected or raised, plus writes that raised (not acked)."""
    return len(sink.write_ns) - sum(sink.acked.values()) + sum(
        1 for _key, _request, result, _value, _acked in sink.results
        if result is None or result.rejected
    )


def virtual_metrics(sink: _Sink) -> dict[str, float]:
    """The virtual-time end-to-end metrics of one batch."""
    served = [
        (request, result) for _key, request, result, _value, _acked in sink.results
        if result is not None and not result.rejected
    ]
    attempted = len(sink.results) + len(sink.write_ns)
    as_requested = sum(
        1 for request, result in served
        if not is_weaker(result.delivered_level, request.level)
    )
    # Worked out as ``readpath.deliver`` stamps it: the front door's
    # rungs re-wrap results without their ``bound_violated`` flag.
    within_bound = sum(
        1 for request, result in served
        if request.max_staleness is None or result.staleness <= request.max_staleness
    )
    stalenesses = [float(result.staleness) for _request, result in served]
    return {
        "served_share": (attempted - failed_ops(sink)) / attempted,
        "as_requested_share": as_requested / len(served),
        "within_bound_share": within_bound / len(served),
        "staleness_p99": percentile(stalenesses, 0.99),
    }
