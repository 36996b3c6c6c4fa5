"""Reproductions of the findings recorded in ``NOTES.md``.

``test_perfbench.py`` asserts that each still reproduces, so the notes
are updated when one is fixed.
"""

from __future__ import annotations

from repro.cluster import ClusterBuilder
from repro.core.readpath import ReadRequest
from repro.merge.deltas import Delta


def geo_cache_lookups() -> tuple[int, int]:
    """(caches wired, lookups made) after bounded reads through the
    front door of a geo cluster built with a read cache."""
    cluster = (
        ClusterBuilder(seed=1)
        .with_topology(("us", "eu", "ap"), wan_latency=30.0)
        .with_placement(replicas=2, shards=16)
        .with_front_door(site="us")
        .with_read_cache(capacity=1024, hot_capacity=32)
        .create()
    )
    for index in range(8):
        cluster.replication.write_insert("item", f"e{index}", {"value": index})
    cluster.sim.run(until=200.0)
    for _ in range(2):
        for index in range(8):
            cluster.read("item", f"e{index}", request=ReadRequest.bounded(20.0))
    lookups = sum(cache.hits + cache.misses for cache in cluster.read_caches)
    return len(cluster.read_caches), lookups


def quorum_strong_read():
    """A STRONG read through the front door of a quorum cluster, after
    the simulator has had time to finish the quorum round."""
    cluster = (
        ClusterBuilder(seed=1)
        .with_replicas(3, mode="quorum")
        .with_front_door()
        .create()
    )
    cluster.replication.write("item", "e0", {"value": 5})
    cluster.sim.run(until=50.0)
    result = cluster.read("item", "e0", request=ReadRequest.strong())
    cluster.sim.run(until=100.0)
    return result


def door_bounded_read_past_bound():
    """A ``bounded(20)`` read through the front door of a master/slave
    cluster whose slaves are down, 60 time units after a write the
    master's cached copy lacks: the eventual rung serves that copy."""
    cluster = (
        ClusterBuilder(seed=1)
        .with_replicas(3, mode="master_slave", ship_interval=5.0)
        .with_front_door()
        .with_read_cache(capacity=1024, hot_capacity=32)
        .create()
    )
    cluster.replication.write_insert("item", "e0", {"value": 1})
    cluster.sim.run(until=20.0)
    cluster.read("item", "e0", request=ReadRequest.eventual())
    cluster.replication.write_delta("item", "e0", Delta.add("value", 1))
    for slave in cluster.replication.slaves.values():
        slave.crash()
    cluster.sim.run(until=80.0)
    return cluster.read("item", "e0", request=ReadRequest.bounded(20.0))
