"""One read protocol: ``read(entity_type, entity_key, *, request)`` is
the only read on every surface, and it always answers a ReadResult."""

from __future__ import annotations

import pytest

from repro import ClusterBuilder
from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadRequest, ReadResult
from repro.lsdb.readcache import ReadCache
from repro.lsdb.store import LSDBStore
from repro.replication.quorum import QuorumGroup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.scheduler import Simulator


def _master_slave(builder):
    return builder.with_replicas(3, mode="master_slave", ship_interval=5.0)


def _geo(builder):
    return builder.with_topology(("us", "eu", "ap")).with_placement(
        replicas=2, shards=8
    )


#: Every kind of cluster the builder makes, by the surfaces it wires.
CLUSTERS = {
    "store": lambda builder: builder.with_store(),
    "async": lambda builder: builder.with_replicas(2, mode="async"),
    "sync": lambda builder: builder.with_replicas(2, mode="sync"),
    "master_slave": _master_slave,
    "active_active": lambda builder: builder.with_replicas(3, mode="active_active"),
    "quorum": lambda builder: builder.with_replicas(3, mode="quorum"),
    "geo": _geo,
    "front_door": lambda builder: _master_slave(builder).with_front_door(),
    "geo_front_door": lambda builder: _geo(builder).with_front_door(site="us"),
    "cache_and_warehouse": lambda builder: _master_slave(builder)
    .with_read_cache(capacity=64)
    .with_warehouse(interval=10.0),
}


def build(config: str):
    return CLUSTERS[config](ClusterBuilder(seed=1)).create()


def read_surfaces(cluster) -> dict:
    """Every read surface a built cluster exposes, by name."""
    surfaces = {
        "cluster": cluster,
        "replication": cluster.replication,
        "store": cluster.store,
        "front_door": cluster.front_door,
        "warehouse": cluster.warehouse,
    }
    for index, cache in enumerate(cluster.read_caches):
        surfaces[f"read_cache{index}"] = cache
    return {name: surface for name, surface in surfaces.items() if surface is not None}


def bare_surfaces() -> dict:
    """A store, a read cache and a warehouse wired by hand."""
    sim = Simulator(seed=1)
    store = LSDBStore(clock=lambda: sim.now)
    store.insert("order", "o-1", {"total": 1})
    cached = LSDBStore(name="cached", clock=lambda: sim.now)
    cache = ReadCache.over_store(cached)
    warehouse = WarehouseExtract(sim, store, interval=10.0)
    sim.run(until=15.0)
    return {"LSDBStore": store, "ReadCache": cache, "WarehouseExtract": warehouse}


CASES = [
    (config, name) for config in CLUSTERS for name in read_surfaces(build(config))
] + [("bare", name) for name in bare_surfaces()]


def surface_for(config: str, name: str):
    """``(surface, sim or None, pending_strong)`` for one case;
    ``pending_strong`` marks a quorum STRONG read, which returns a
    pending result the simulator completes later."""
    if config == "bare":
        return bare_surfaces()[name], None, False
    cluster = build(config)
    pending = (
        isinstance(cluster.replication, QuorumGroup)
        and cluster.front_door is None
        and name in ("cluster", "replication")
    )
    return read_surfaces(cluster)[name], cluster.sim, pending


@pytest.mark.parametrize("config, name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
class TestEverySurface:
    def test_read_without_request_is_a_type_error(self, config, name):
        surface, _sim, _pending = surface_for(config, name)
        with pytest.raises(TypeError):
            surface.read("order", "o-1")

    def test_node_addressed_read_is_a_type_error(self, config, name):
        surface, _sim, _pending = surface_for(config, name)
        with pytest.raises(TypeError):
            surface.read("node", "order", "o-1", request=ReadRequest())

    @pytest.mark.parametrize(
        "request_",
        [ReadRequest.strong(), ReadRequest.bounded(50.0), ReadRequest.eventual()],
        ids=["strong", "bounded", "eventual"],
    )
    def test_typed_read_returns_a_stamped_result(self, config, name, request_):
        surface, sim, pending = surface_for(config, name)
        result = surface.read("order", "o-1", request=request_)
        assert isinstance(result, ReadResult)
        assert result.requested_level is request_.level
        if pending and request_.level is ConsistencyLevel.STRONG:
            assert result.delivered_level is None
            sim.run()
            assert result.delivered_level is ConsistencyLevel.STRONG
        else:
            assert result.delivered_level is not None


class TestClusterRead:
    def test_type_error_inside_a_typed_read_propagates(self):
        cluster = build("async")
        assert cluster.front_door is None
        calls = []

        def read_with_a_bug(*args, **kwargs):
            calls.append((args, kwargs))
            if "request" in kwargs:
                raise TypeError("bug inside the typed read")
            return None  # what a raw re-read would have answered

        cluster.replication.read = read_with_a_bug
        with pytest.raises(TypeError, match="bug inside the typed read"):
            cluster.read("order", "o-1", request=ReadRequest.strong())
        assert len(calls) == 1  # no second, untyped read


@pytest.mark.parametrize(
    "level",
    [ConsistencyLevel.EXTRACT, ConsistencyLevel.TENTATIVE],
    ids=lambda level: level.value,
)
@pytest.mark.parametrize("bottom", ["warehouse", "checkpoint", "store"])
def test_bottom_rung_never_degrades_a_weaker_request(bottom, level):
    """A request weaker than EVENTUAL falls to the bottom rung; serving
    it at EVENTUAL is stronger than asked, so no branch of that rung
    marks it degraded or owes an apology."""
    builder = _master_slave(ClusterBuilder(seed=1))
    if bottom == "warehouse":
        builder = builder.with_warehouse(interval=10.0)
    cluster = builder.with_front_door().create()
    if bottom == "checkpoint":
        cluster.store.enable_checkpoints()
    cluster.replication.write_insert("order", "o-1", {"total": 3})
    cluster.sim.run(until=30.0)
    if bottom == "checkpoint":
        cluster.store.checkpoints.take()

    result = cluster.read("order", "o-1", request=ReadRequest(level=level))

    assert result.ok and result.value.fields["total"] == 3
    assert result.delivered_level is ConsistencyLevel.EVENTUAL
    expected_server = cluster.store.name if bottom == "store" else bottom
    assert result.served_by == expected_server
    assert not result.degraded
    assert result.apology is None
    assert cluster.front_door.degraded_serves == 0
