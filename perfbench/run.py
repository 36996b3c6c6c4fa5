"""End-to-end cluster benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 20 --trace 0

Runs batches of the workload (see ``bench.py``) until ``--seconds`` of
wall time have passed and at least ``MIN_BATCHES`` batches are done,
checks every batch against the oracle, and prints one JSON object as
the last line of standard output:

* ``--trace 0``: the end-to-end metrics, medians over the batches;
* ``--trace 1``: the per-layer metrics from traced batches, each paired
  with an untraced batch for ``trace.overhead``.  Spans of the last
  traced batch are written to ``.perfbench_out/<workload>.spans``.

Metric units come from ``BENCHMARK.json`` at the repository root.
Exits 1 when any check fails, 2 when ``src/`` or ``BENCHMARK.json`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_out"
#: Batches per plain run, at least, so ``setup_s`` is a median of
#: several set-ups; a traced run needs one untraced/traced pair.
MIN_BATCHES = 3

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ops_per_s(batches) -> float:
    """Schedule ops per wall second over all the batches' timed runs."""
    return sum(b.attempted for b in batches) / sum(b.run_s for b in batches)


def end_to_end(batches, percentile) -> dict[str, float]:
    """The end-to-end metrics over untraced batches: pooled over the
    batches for throughput and call latency, a median for set-up."""
    reads = [ns for batch in batches for ns in batch.read_ns]
    writes = [ns for batch in batches for ns in batch.write_ns]
    metrics = {
        "ops_per_s": ops_per_s(batches),
        "read_p50_us": percentile(reads, 0.50) / 1e3,
        "read_p99_us": percentile(reads, 0.99) / 1e3,
        "write_p50_us": percentile(writes, 0.50) / 1e3,
        "write_p99_us": percentile(writes, 0.99) / 1e3,
        "setup_s": statistics.median(b.setup_s for b in batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics.update(batches[0].virtual)
    return metrics


def per_layer(plain, traced) -> dict[str, float]:
    """The per-layer metrics: self time (median over traced batches)
    and counts (seed-exact, from the first traced batch)."""
    counts = traced[0].counts

    def ms(layer: str) -> float:
        return statistics.median(b.self_ns.get(layer, 0) for b in traced) / 1e6

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ops = traced[0].attempted
    lookups = counts["cache_hits"] + counts["cache_misses"]
    sent = counts["net_sent"]
    payloads = counts["net_frame_payloads"] + sent - counts["net_frames"]
    return {
        "frontdoor.calls": counts["door_reads"],
        "frontdoor.self_ms": ms("frontdoor"),
        "frontdoor.reject_share": share(counts["door_rejects"], counts["door_reads"]),
        "frontdoor.shed": counts["shed"],
        "replication.master_slave.read_self_ms": ms("replication.master_slave.read"),
        "replication.master_slave.write_self_ms": ms("replication.master_slave.write"),
        "replication.geo.read_self_ms": ms("replication.geo.read"),
        "replication.geo.write_self_ms": ms("replication.geo.write"),
        "replication.geo.flush_ms": ms("replication.geo.flush"),
        "replication.geo.wan_payloads": counts["net_wan_payloads"],
        "lsdb.readcache.lookup_ms": ms("lsdb.readcache.lookup"),
        "lsdb.readcache.hit_ratio": share(counts["cache_hits"], lookups),
        "lsdb.readcache.lookups_per_read": share(lookups, counts["door_reads"]),
        "lsdb.readcache.evictions": counts["cache_evictions"],
        "lsdb.store.append_ms": ms("lsdb.store.append"),
        "lsdb.store.ingest_ms": ms("lsdb.store.ingest"),
        "lsdb.store.rows_ingested": counts["rows_ingested"],
        "replication.replica.ship_ms": ms("replication.replica.ship"),
        "replication.replica.frames": counts["replica_frames"],
        "replication.replica.events_per_frame": share(counts["events_offered"], counts["replica_frames"]),
        "replication.replica.apply_ms": ms("replication.replica.apply"),
        "replication.replica.apply_useful_ratio": share(counts["rows_ingested"], counts["events_offered"]),
        "sim.network.send_ms": ms("sim.network.send"),
        "sim.network.frames": sent,
        "sim.network.payloads_per_frame": share(payloads, sent),
        "sim.network.wan_frames": counts["net_wan_frames"],
        "sim.scheduler.events": counts["sim_events"],
        "sim.scheduler.events_per_op": share(counts["sim_events"], ops),
        "sim.scheduler.self_ms": ms("sim.scheduler"),
        "trace.overhead": ops_per_s(plain) / ops_per_s(traced),
    }


def determinism_errors(batches) -> list[str]:
    """Batches of one seed must agree on every virtual-time metric and
    every count both kinds of batch share."""
    errors = []
    first = batches[0]
    for batch in batches[1:]:
        if batch.virtual != first.virtual:
            errors.append(f"virtual metrics differ between batches: {first.virtual} vs {batch.virtual}")
        shared = first.counts.keys() & batch.counts.keys()
        if any(first.counts[name] != batch.counts[name] for name in shared):
            errors.append(f"counts differ between batches: {first.counts} vs {batch.counts}")
    return errors


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not DECLARATION.is_file():
        print(f"perfbench: no {DECLARATION}", file=sys.stderr)
        return 2
    declared = json.loads(DECLARATION.read_text())
    sys.path.insert(0, str(SRC))
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = bench.Inputs.make(workload, args.seed)
    traced = bool(args.trace)
    spans_out = None
    if traced:
        OUT.mkdir(exist_ok=True)
        spans_out = str(OUT / workload.name)

    plain, traced_batches = [], []
    started = perf_counter()
    while True:
        plain.append(bench.run_batch(workload, inputs))
        if traced:
            traced_batches.append(bench.run_batch(workload, inputs, traced=True, spans_out=spans_out))
        done = bool(traced_batches) if traced else len(plain) >= MIN_BATCHES
        if done and perf_counter() - started >= args.seconds:
            break

    batches = plain + traced_batches
    errors = [error for batch in batches for error in batch.errors]
    errors += determinism_errors(batches)
    if traced:
        metrics, kind = per_layer(plain, traced_batches), "per_layer"
    else:
        metrics, kind = end_to_end(plain, bench.percentile), "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}
    if units.keys() != metrics.keys():
        errors.append(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    for error in errors[:20]:
        print(f"perfbench: FAIL {error}", file=sys.stderr)
    print(
        f"perfbench: {workload.name} seed={args.seed} batches={len(plain)}+{len(traced_batches)} traced "
        f"ops/batch={len(inputs.ops)} reads/batch={len(plain[0].read_ns)} writes/batch={len(plain[0].write_ns)}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(batch.attempted for batch in batches),
        "failed": sum(batch.failed for batch in batches),
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
