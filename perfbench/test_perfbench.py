"""Tests of the benchmark itself: the correctness check must fire on
planted wrong answers, batches must be deterministic, spans must
reduce to the right self time, and the recorded findings must still
reproduce.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import findings  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro.core.consistency import ConsistencyLevel  # noqa: E402


def tiny(name: str) -> bench.Workload:
    """The named workload over 64 entities and a short schedule."""
    workload = bench.WORKLOADS[name]
    return replace(
        workload, scenario=replace(workload.scenario, entities=64, duration=20.0)
    )


def ran(name: str, seed: int = 3):
    """A tiny workload's cluster, inputs and sink after run and drain."""
    workload = tiny(name)
    inputs = bench.Inputs.make(workload, seed)
    sink = bench._Sink()
    cluster, start = bench.setup(workload, inputs, sink)
    cluster.sim.run(until=start + workload.scenario.duration)
    bench.drain(cluster)
    return cluster, inputs, sink


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_clean_run_passes_the_check(name):
    cluster, inputs, sink = ran(name)
    assert sink.results and sink.write_ns
    assert bench.check(cluster, inputs, sink) == []


@pytest.mark.parametrize("name", ["hot_reads", "geo_outage"])
def test_check_fires_on_a_replica_holding_a_wrong_value(name):
    cluster, inputs, sink = ran(name)
    key = inputs.keys[0]
    replica = bench.holders_of(cluster, key)[-1]
    replica.store.apply_delta(bench.ENTITY, key, bench.DELTA)  # a write nobody acked
    errors = bench.check(cluster, inputs, sink)
    assert any(replica.node_id in error and key in error for error in errors)


def test_check_fires_when_an_acked_write_is_missing():
    cluster, inputs, sink = ran("hot_reads")
    written = next(op.key for op in inputs.ops if op.kind == "write")
    sink.acked[written] -= 1  # the oracle now expects one delta less
    errors = bench.check(cluster, inputs, sink)
    assert any(written in error for error in errors)


def test_check_fires_when_a_scheduled_op_never_ran():
    cluster, inputs, sink = ran("hot_reads")
    sink.write_ns.pop()
    errors = bench.check(cluster, inputs, sink)
    assert any("ops ran" in error for error in errors)


def first_read(sink, level=None) -> int:
    """Index of the first served read (delivered at ``level``, if given)."""
    return next(
        index for index, (_key, _request, result, _value, _acked) in enumerate(sink.results)
        if not result.rejected and level in (None, result.delivered_level)
    )


@pytest.mark.parametrize(
    "plant, expected",
    [
        (lambda result: setattr(result, "delivered_level", None), "delivered level"),
        (lambda result: setattr(result, "staleness", None), "not a number"),
        (lambda result: setattr(result, "staleness", True), "not a number"),
    ],
)
def test_check_fires_on_a_wrongly_stamped_read(plant, expected):
    cluster, inputs, sink = ran("hot_reads")
    plant(sink.results[first_read(sink)][2])
    errors = bench.check(cluster, inputs, sink)
    assert any(expected in error for error in errors)


@pytest.mark.parametrize(
    "value, expected",
    [
        (lambda low, high: None, "outside"),
        (lambda low, high: low - 1, "outside"),  # below the preload
        (lambda low, high: high + 1, "outside"),  # a write not yet acked
    ],
)
def test_check_fires_on_a_wrong_read_value(value, expected):
    cluster, inputs, sink = ran("hot_reads")
    index = first_read(sink)
    key, request, result, _value, acked = sink.results[index]
    low = inputs.preload[key]
    sink.results[index] = (key, request, result, value(low, low + acked), acked)
    errors = bench.check(cluster, inputs, sink)
    assert any(expected in error and key in error for error in errors)


@pytest.mark.parametrize("name", ["hot_reads", "geo_outage"])
def test_check_fires_on_a_strong_read_missing_an_acked_write(name):
    cluster, inputs, sink = ran(name)
    index = first_read(sink, bench.STRONG)
    key, request, result, value, acked = sink.results[index]
    sink.results[index] = (key, request, result, value, acked + 1)
    errors = bench.check(cluster, inputs, sink)
    assert any("delivered STRONG" in error and key in error for error in errors)


def test_a_read_served_past_its_bound_counts_as_a_violation():
    _cluster, _inputs, sink = ran("hot_reads")
    before = bench.virtual_metrics(sink)["within_bound_share"]
    index = next(
        index for index, (_key, request, result, _value, _acked) in enumerate(sink.results)
        if request.max_staleness is not None and result.staleness <= request.max_staleness
    )
    result = sink.results[index][2]
    result.staleness = sink.results[index][1].max_staleness + 1.0
    assert not result.bound_violated  # as the front door leaves it
    assert bench.virtual_metrics(sink)["within_bound_share"] < before


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_batches_repeat_exactly_and_tracing_changes_nothing(name):
    workload = tiny(name)
    inputs = bench.Inputs.make(workload, 5)
    plain = bench.run_batch(workload, inputs)
    traced = bench.run_batch(workload, inputs, traced=True)
    assert plain.errors == [] and traced.errors == []
    assert plain.virtual == traced.virtual
    assert all(plain.counts[counter] == traced.counts[counter] for counter in plain.counts)
    assert traced.self_ns["sim.scheduler"] > 0
    other = bench.run_batch(workload, bench.Inputs.make(workload, 6))
    assert other.errors == []


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()

    class Layer:
        def leaf(self):
            return sum(range(2000))

        def middle(self):
            return self.leaf() + self.leaf()

    layer = Layer()
    recorder.install(layer, "leaf", "leaf")
    recorder.install(layer, "middle", "middle")
    layer.middle()
    recorder.uninstall()
    assert "leaf" not in layer.__dict__ and "middle" not in layer.__dict__
    assert len(recorder) == 3
    starts, ends = recorder.start_col, recorder.end_col
    total = ends[0] - starts[0]
    leaves = sum(ends[i] - starts[i] for i in (1, 2))
    assert recorder.self_ns() == {"leaf": leaves, "middle": total - leaves}


def test_findings_still_reproduce():
    caches, lookups = findings.geo_cache_lookups()
    assert caches > 0 and lookups == 0
    result = findings.quorum_strong_read()
    assert result.value is None
    assert result.delivered_level is ConsistencyLevel.STRONG
    assert result.staleness is None
    result = findings.door_bounded_read_past_bound()
    assert result.staleness > 20.0 and not result.bound_violated
