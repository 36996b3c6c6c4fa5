"""Tests for quorum read-repair and incremental warehouse extracts."""

from __future__ import annotations

from repro.core.readpath import ReadRequest
from repro.lsdb.store import LSDBStore
from repro.merge.deltas import Delta
from repro.replication.quorum import QuorumGroup
from repro.replication.warehouse import WarehouseExtract
from repro.sim.network import Network
from repro.sim.scheduler import Simulator


def world(latency=2.0, seed=0):
    sim = Simulator(seed=seed)
    return sim, Network(sim, latency=latency)


class TestReadRepair:
    def _group_with_stale_replica(self, read_repair=True):
        sim, net = world()
        group = QuorumGroup(
            sim, net, ["q1", "q2", "q3"], read_quorum=3, read_repair=read_repair
        )
        group.write("stock", "w", {"n": 1})
        sim.run()
        # A newer value lands at two replicas only (q3 missed it).
        sim.run(until=sim.now + 5.0)
        for replica in group.replicas[:2]:
            replica.store.set_fields("stock", "w", {"n": 2})
        return sim, group

    def test_stale_replica_healed_after_read(self):
        sim, group = self._group_with_stale_replica()
        group.read("stock", "w", request=ReadRequest.strong())
        sim.run()
        assert group.read_repairs_sent == 1
        # The straggler now holds the freshest value.
        assert group.replicas[2].store.get("stock", "w").fields["n"] == 2

    def test_repair_can_be_disabled(self):
        sim, group = self._group_with_stale_replica(read_repair=False)
        group.read("stock", "w", request=ReadRequest.strong())
        sim.run()
        assert group.read_repairs_sent == 0
        assert group.replicas[2].store.get("stock", "w").fields["n"] == 1

    def test_repair_is_tagged_and_not_reapplied(self):
        sim, group = self._group_with_stale_replica()
        group.read("stock", "w", request=ReadRequest.strong())
        sim.run()
        repaired_events = [
            event
            for event in group.replicas[2].store.log.events()
            if "read-repair" in event.tags
        ]
        assert len(repaired_events) == 1
        # A second read finds everyone fresh: no more repairs.
        group.read("stock", "w", request=ReadRequest.strong())
        sim.run()
        assert group.read_repairs_sent == 1

    def test_up_to_date_replicas_not_touched(self):
        sim, group = self._group_with_stale_replica()
        head_before = group.replicas[0].store.log.head_lsn
        group.read("stock", "w", request=ReadRequest.strong())
        sim.run()
        assert group.replicas[0].store.log.head_lsn == head_before

    def test_read_value_unaffected_by_repair(self):
        sim, group = self._group_with_stale_replica()
        seen = []
        group.read(
            "stock", "w", request=ReadRequest.strong(), on_done=seen.append
        )
        sim.run()
        assert seen[0].value == {"n": 2}


class TestIncrementalWarehouse:
    def _setup(self, incremental):
        sim = Simulator()
        store = LSDBStore(clock=lambda: sim.now)
        warehouse = WarehouseExtract(
            sim, store, interval=10.0, incremental=incremental
        )
        return sim, store, warehouse

    def test_incremental_matches_full_extract(self):
        sim_a, store_a, incremental = self._setup(incremental=True)
        sim_b, store_b, full = self._setup(incremental=False)
        for sim, store in ((sim_a, store_a), (sim_b, store_b)):
            store.insert("order", "o1", {"total": 5})
            sim.run(until=15.0)
            store.apply_delta("order", "o1", Delta.add("total", 3))
            store.insert("order", "o2", {"total": 7})
            sim.run(until=25.0)
        assert incremental.get("order", "o1").fields == full.get(
            "order", "o1"
        ).fields
        assert incremental.aggregate("order", "total") == full.aggregate(
            "order", "total"
        ) == 15

    def test_incremental_applies_only_the_suffix(self):
        sim, store, warehouse = self._setup(incremental=True)
        for index in range(100):
            store.insert("order", f"o{index}", {"total": 1})
        sim.run(until=15.0)  # first extract: full copy
        store.insert("order", "late", {"total": 1})
        sim.run(until=25.0)  # second extract: one event
        assert warehouse.events_applied_incrementally == 1
        assert warehouse.aggregate("order", "total") == 101

    def test_quiescent_extracts_are_free(self):
        sim, store, warehouse = self._setup(incremental=True)
        store.insert("order", "o1", {"total": 5})
        sim.run(until=55.0)  # several extract rounds, no new events
        assert warehouse.extracts_taken >= 5
        assert warehouse.events_applied_incrementally == 0

    def test_deletions_propagate_incrementally(self):
        sim, store, warehouse = self._setup(incremental=True)
        store.insert("order", "o1", {"total": 5})
        sim.run(until=15.0)
        store.tombstone("order", "o1")
        sim.run(until=25.0)
        assert warehouse.scan("order") == []
