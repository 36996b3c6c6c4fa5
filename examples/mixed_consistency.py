"""Mixed consistency from one metadata-driven infrastructure.

Reproduces sections 3.1/3.2: "a system that takes business application
requirements and automatically delivers appropriate consistency levels
based on metadata."  One policy router serves three data classes at
three levels over one master/slave deployment plus a warehouse extract:

* ``book_stock``  — STRONG   (fulfilment must not oversell)
* ``book_order``  — BOUNDED_STALENESS (entry reads may lag the master)
* ``sales_report``— EXTRACT  (analytics run on periodic extracts)

Run with::

    python examples/mixed_consistency.py
"""

from __future__ import annotations

from repro import (
    Cluster,
    ConsistencyLevel,
    ConsistencyPolicy,
    PolicyRouter,
    SchemeBinding,
)
from repro.merge.deltas import Delta


def main() -> None:
    cluster = (
        Cluster.build(seed=5)
        .with_network(latency=2.0)
        .with_replicas(2, mode="master_slave", ship_interval=10.0)
        .with_warehouse(interval=30.0)
        .create()
    )
    sim = cluster.sim
    group = cluster.replication
    warehouse = cluster.warehouse

    router = PolicyRouter()
    policies = [
        ConsistencyPolicy("book_stock", ConsistencyLevel.STRONG,
                          rationale="fulfilment must not oversell"),
        ConsistencyPolicy("book_order", ConsistencyLevel.BOUNDED_STALENESS,
                          rationale="entry reads tolerate shipping lag",
                          max_staleness=10.0),
        ConsistencyPolicy("sales_report", ConsistencyLevel.EXTRACT,
                          rationale="analytics run on periodic extracts"),
    ]
    for policy in policies:
        router.add_policy(policy)

    # The bindings speak the read protocol (repro.core.readpath): the
    # router hands each read a ReadRequest built from the policy table,
    # and the scheme answers with a stamped ReadResult — the group
    # routes STRONG to the master and weaker levels to a slave.
    router.bind(ConsistencyLevel.STRONG, SchemeBinding(
        write=lambda etype, key, fields: group.write_insert(etype, key, fields),
        read=group.read,
        describe="master reads/writes (unapologetic, 3.1)",
    ))
    router.bind(ConsistencyLevel.BOUNDED_STALENESS, SchemeBinding(
        write=lambda etype, key, fields: group.write_insert(etype, key, fields),
        read=group.read,
        describe="master writes, slave reads (may apologise)",
    ))
    router.bind(ConsistencyLevel.EXTRACT, SchemeBinding(
        write=lambda *args: (_ for _ in ()).throw(RuntimeError("read-only")),
        read=warehouse.read,
        describe="periodic OLTP extract (read-only)",
    ))

    print("consistency metadata (the policy table, 3.2):")
    for policy in router.policies():
        staleness = (
            f", max_staleness={policy.max_staleness}" if policy.max_staleness else ""
        )
        print(f"   {policy.entity_type:<13} -> {policy.level.value:<18} "
              f"({policy.rationale}{staleness})")

    # Writes and reads just name the data class; the router applies the
    # right scheme.
    print("\nwriting stock, an order, and a daily report row...")
    router.write("book_stock", "moby", {"copies": 5})
    router.write("book_order", "o-1", {"customer": "ada", "status": "entered"})
    group.write_insert("sales_report", "today", {"revenue": 60})

    print("\nimmediately after the writes:")
    print(f"   STRONG  stock read : {router.read('book_stock', 'moby').value.fields}")
    print(f"   BOUNDED order read : {router.read('book_order', 'o-1').value} "
          "(slave hasn't received it yet)")
    print(f"   EXTRACT report read: {router.read('sales_report', 'today').value} "
          "(no extract taken yet)")

    sim.run(until=15.0)
    print(f"\nafter one shipping interval (t={sim.now:.0f}):")
    print(f"   BOUNDED order read : {router.read('book_order', 'o-1').value.fields}")
    print(f"   slave lag: {group.slave_lag_events('slave-1')} events")

    sim.run(until=35.0)
    print(f"\nafter the first warehouse extract (t={sim.now:.0f}):")
    print(f"   EXTRACT report read: {router.read('sales_report', 'today').value.fields}")
    print(f"   extract staleness  : {warehouse.staleness:.0f} time units "
          "(bounded by the interval)")

    print(f"\noperations routed per level: "
          f"{ {level.value: count for level, count in router.routed.items()} }")
    print("one infrastructure, three consistency levels — chosen by")
    print("metadata, not by hand-wired application code (3.1).")


if __name__ == "__main__":
    main()
