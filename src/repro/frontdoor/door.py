"""The front door: admission, backpressure, breakers, and the ladder.

One object in front of the cluster's read surfaces that embodies the
paper's overload posture: **admit what fits, degrade what doesn't,
reject only when even the weakest rung refuses** — and stamp every
response with the truth (delivered level, measured staleness, apology
token when the answer is weaker than asked).

The flow of :meth:`FrontDoor.read`:

1. expired deadline → reject (``deadline``) — serving a dead request
   is work the requester will never see;
2. admission — charge the tenant's token bucket the cheapest eligible
   rung's cost; a throttled tenant is rejected (``quota``) before any
   replica is touched;
3. walk the :class:`~repro.frontdoor.ladder.DegradeLadder` from the
   requested level down: skip rungs whose breaker is open or whose
   capacity bucket is dry; when backpressure has tripped, skip the
   strong rung outright (shedding by downgrade, the headline valve);
4. the first rung that serves wins; a degraded serve records an
   apology token on the result (and in the ledger, when one is wired);
5. nothing served → reject (``saturated``).

Everything is counted in ``frontdoor.*`` metrics and optionally traced
as ``frontdoor.read`` spans.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.readpath import ReadRequest, ReadResult, is_weaker
from repro.frontdoor.admission import AdmissionController, TenantQuota, TokenBucket
from repro.frontdoor.backpressure import BackpressureMonitor
from repro.frontdoor.breaker import BreakerBoard
from repro.frontdoor.ladder import DegradeLadder, Rung


class FrontDoor:
    """Admission-controlled, degrading read path over a ladder.

    Args:
        sim: The simulator (clock + metrics + tracer source).
        ladder: The :class:`DegradeLadder` to serve from.
        admission: Per-tenant admission control; default admits all.
        backpressure: Overload monitor; default has no signals.
        apologies: Optional
            :class:`~repro.core.compensation.ApologyLedger`; every
            degraded serve records an apology ("served you stale data,
            here is how stale") and the token rides on the result.
    """

    def __init__(
        self,
        sim,
        ladder: DegradeLadder,
        admission: Optional[AdmissionController] = None,
        backpressure: Optional[BackpressureMonitor] = None,
        apologies=None,
    ):
        self.sim = sim
        self.ladder = ladder
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(lambda: sim.now, metrics=sim.metrics)
        )
        self.backpressure = (
            backpressure
            if backpressure is not None
            else BackpressureMonitor(metrics=sim.metrics)
        )
        self.apologies = apologies
        self.metrics = sim.metrics
        self.tracer = sim.tracer
        self.reads = 0
        self.rejects = 0
        self.degraded_serves = 0

    # ------------------------------------------------------------------ #
    # The read path
    # ------------------------------------------------------------------ #

    def read(
        self, entity_type: str, entity_key: str, *, request: ReadRequest
    ) -> ReadResult:
        """The read protocol (:mod:`repro.core.readpath`) through the
        valve chain; always returns a :class:`ReadResult` (rejections
        come back with ``rejected=True`` and a reason, never as
        exceptions)."""
        self.reads += 1
        span = (
            self.tracer.start_span(
                "frontdoor.read",
                entity=f"{entity_type}/{entity_key}",
                level=request.level.value,
                tenant=request.tenant or "default",
            )
            if self.tracer is not None
            else None
        )
        result = self._serve(entity_type, entity_key, request)
        if span is not None:
            status = "rejected" if result.rejected else (
                "degraded" if result.degraded else "served"
            )
            self.tracer.end_span(span, status=status)
        return result

    def _serve(
        self, entity_type: str, entity_key: str, request: ReadRequest
    ) -> ReadResult:
        now = self.sim.now
        if request.deadline is not None and request.deadline.expired(now):
            return self._reject(request, "deadline")

        candidates = self.ladder.candidates(request)
        if not candidates:
            return self._reject(request, "no_rung")

        # Admission charges the *cheapest* eligible rung: a tenant out
        # of strong-read budget can still afford the degraded rungs, so
        # quota pressure pushes traffic down the ladder before it ever
        # rejects.
        cost = min(rung.cost for rung in candidates)
        if not self.admission.try_admit(request.tenant, cost):
            return self._reject(request, "quota")

        overloaded = self.backpressure.tripped()
        for rung in candidates:
            if (
                overloaded
                and rung.level is ConsistencyLevel.STRONG
                and len(candidates) > 1
            ):
                # Backpressure sheds the strong rung (when a weaker one
                # exists to shed onto); the breakers and capacity
                # buckets below handle the rest.
                self._count("frontdoor.shed", reason=overloaded[0])
                continue
            if rung.breaker is not None and not rung.breaker.allow():
                continue
            result = rung.serve(entity_type, entity_key, request)
            if result is None:
                continue
            self._count("frontdoor.served", level=rung.level.value)
            if self.metrics is not None and result.staleness is not None:
                self.metrics.histogram(
                    "frontdoor.staleness", level=rung.level.value
                ).record(result.staleness)
            if result.degraded:
                self.degraded_serves += 1
                self._count(
                    "frontdoor.degraded",
                    requested=request.level.value,
                    delivered=rung.level.value,
                )
                result.apology = self._apologize(
                    entity_type, entity_key, request, result
                )
            return result
        return self._reject(request, "saturated")

    # ------------------------------------------------------------------ #
    # Outcomes
    # ------------------------------------------------------------------ #

    def _reject(self, request: ReadRequest, reason: str) -> ReadResult:
        self.rejects += 1
        self._count("frontdoor.rejected", reason=reason)
        result = ReadResult(
            None,
            requested_level=request.level,
            delivered_level=None,
            staleness=None,
            rejected=True,
            reject_reason=reason,
        )
        result.apology = self._apologize_reject(request, reason)
        return result

    def _apologize(
        self,
        entity_type: str,
        entity_key: str,
        request: ReadRequest,
        result: ReadResult,
    ) -> Any:
        """The apology-token hook: a degraded serve owes the caller an
        explanation (paper section 3.2 — apologies must be
        comprehensible)."""
        delivered = (
            result.delivered_level.value if result.delivered_level else "none"
        )
        if self.apologies is not None:
            return self.apologies.record(
                to_party=request.tenant or "default",
                reason="degraded_read",
                at=self.sim.now,
                related_op=f"read {entity_type}/{entity_key}",
                compensation=(
                    f"served {delivered} (staleness {result.staleness}) "
                    f"instead of {request.level.value}"
                ),
            )
        return {
            "reason": "degraded_read",
            "requested": request.level.value,
            "delivered": delivered,
            "staleness": result.staleness,
        }

    def _apologize_reject(self, request: ReadRequest, reason: str) -> Any:
        if self.apologies is not None:
            return self.apologies.record(
                to_party=request.tenant or "default",
                reason=f"rejected_{reason}",
                at=self.sim.now,
                compensation="retry later",
            )
        return {"reason": f"rejected_{reason}"}

    def _count(self, name: str, **labels: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc()

    # ------------------------------------------------------------------ #
    # Construction over a cluster
    # ------------------------------------------------------------------ #

    @classmethod
    def for_cluster(
        cls,
        cluster,
        *,
        quotas: Optional[dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        bounded_staleness: Optional[float] = None,
        queue_depth_limit: Optional[float] = None,
        lag_limit_events: Optional[float] = None,
        strong_capacity: Optional[float] = None,
        bounded_capacity: Optional[float] = None,
        breaker_threshold: int = 3,
        breaker_reset=None,
        apologies=None,
        site: Optional[str] = None,
    ) -> "FrontDoor":
        """Wire a door over whatever the cluster was built with.

        Rungs are assembled from the cluster's surfaces:

        * **STRONG** — the replication scheme's strong read (master /
          primary / quorum), breaker on the primary node's live crash
          state, optional capacity bucket (``strong_capacity`` reads
          per unit time);
        * **BOUNDED_STALENESS** — the scheme's replica read, present
          when the scheme has a second copy; refuses above
          ``bounded_staleness`` (default: twice the scheme's shipping
          interval when it has one, else 100 time units);
        * **EVENTUAL** — the cheapest copy that never says no: the
          warehouse extract when one was built, else the primary
          store's latest rollup checkpoint, else the store itself.

        On a geo-replicated cluster the door is additionally *sited*:
        ``site`` names the datacenter this door fronts, and every rung
        prefers a site-local replica before crossing the WAN — the
        strong rung refuses (walking the ladder) rather than lie when
        a true strong read is unreachable, the bounded rung serves the
        nearest hosting replica with its measured cross-DC staleness
        against the declared bound.

        Backpressure signals are registered for ``queue_depth_limit``
        (over ``sim.pending``), ``lag_limit_events`` (over the scheme's
        replication-lag view) and — when the cluster has a rebalancer —
        rebalance-in-progress.
        """
        sim = cluster.sim
        scheme = cluster.replication
        store = cluster.store
        if scheme is None and store is None:
            raise ValueError("front door needs a readable surface")
        clock = lambda: sim.now
        board = BreakerBoard(
            clock,
            metrics=sim.metrics,
            failure_threshold=breaker_threshold,
            reset=breaker_reset,
        )
        if _is_geo(scheme):
            rungs = _geo_rungs(
                scheme,
                site,
                clock=clock,
                board=board,
                bounded_staleness=bounded_staleness,
                strong_capacity=strong_capacity,
                bounded_capacity=bounded_capacity,
            )
        else:
            rungs = _flat_rungs(
                cluster,
                scheme,
                store,
                clock=clock,
                board=board,
                bounded_staleness=bounded_staleness,
                strong_capacity=strong_capacity,
                bounded_capacity=bounded_capacity,
            )

        monitor = BackpressureMonitor(metrics=sim.metrics)
        if queue_depth_limit is not None:
            monitor.add(
                "queue_depth", lambda: float(sim.pending), queue_depth_limit
            )
        if lag_limit_events is not None:
            lag_probe = _lag_probe_for(scheme)
            if lag_probe is not None:
                monitor.add("replication_lag", lag_probe, lag_limit_events)
        rebalancer = getattr(cluster, "rebalancer", None)
        if rebalancer is not None:
            monitor.add(
                "rebalance",
                lambda: 1.0 if _rebalance_in_progress(cluster) else 0.0,
                0.5,
            )

        admission = AdmissionController(
            clock,
            default_quota=default_quota,
            quotas=quotas,
            metrics=sim.metrics,
        )
        if apologies is None:
            apologies = getattr(
                getattr(cluster, "compensation", None), "apologies", None
            )
        return cls(
            sim,
            DegradeLadder(rungs),
            admission=admission,
            backpressure=monitor,
            apologies=apologies,
        )


# ---------------------------------------------------------------------- #
# Rung assembly
# ---------------------------------------------------------------------- #


def _restamp(
    result: ReadResult,
    request: ReadRequest,
    delivered: ConsistencyLevel,
    *,
    served_by: Optional[str] = None,
) -> ReadResult:
    """Re-anchor a rung's answer to the outer request.

    A rung reads its surface with a request of its own level; the door
    answers the caller's request, so the result is rebuilt as delivered
    at ``delivered`` and ``degraded`` only when that is weaker than what
    the caller asked for (serving stronger than asked is never a
    downgrade).  Staleness, server and site carry over from the rung's
    answer; ``served_by`` overrides the server name.
    """
    return ReadResult(
        result.value,
        requested_level=request.level,
        delivered_level=delivered,
        staleness=result.staleness,
        degraded=is_weaker(delivered, request.level),
        served_by=result.served_by if served_by is None else served_by,
        site=result.site,
    )


def _is_geo(scheme) -> bool:
    """Whether the scheme is a geo-replicated group (site placement plus
    per-site WAN gateways)."""
    return (
        getattr(scheme, "placement", None) is not None
        and hasattr(scheme, "gateways")
    )


def _flat_rungs(
    cluster,
    scheme,
    store,
    *,
    clock,
    board,
    bounded_staleness,
    strong_capacity,
    bounded_capacity,
) -> list:
    """The single-datacenter ladder: master/primary/quorum strong rung,
    backup/slave bounded rung, warehouse/checkpoint/store eventual rung."""
    rungs: list[Rung] = []

    primary_node = (
        getattr(scheme, "primary", None)
        or getattr(scheme, "master", None)
        or getattr(scheme, "coordinator", None)
    )
    strong_surface = scheme if scheme is not None else store

    def strong_reader(entity_type, entity_key, request):
        result = strong_surface.read(
            entity_type,
            entity_key,
            request=ReadRequest(
                level=ConsistencyLevel.STRONG,
                max_staleness=request.max_staleness,
                tenant=request.tenant,
            ),
        )
        return _restamp(result, request, ConsistencyLevel.STRONG)

    strong_health = None
    if primary_node is not None:
        strong_health = lambda: not getattr(primary_node, "crashed", False)
    rungs.append(
        Rung(
            level=ConsistencyLevel.STRONG,
            reader=strong_reader,
            cost=4.0,
            capacity=(
                TokenBucket(strong_capacity, strong_capacity, clock)
                if strong_capacity is not None
                else None
            ),
            breaker=board.get("strong", health=strong_health),
        )
    )

    replica_surface = scheme if _has_replica_copy(scheme) else None
    if replica_surface is not None:
        if bounded_staleness is None:
            ship = getattr(scheme, "ship_interval", None)
            bounded_staleness = 2.0 * ship if ship else 100.0

        def bounded_reader(entity_type, entity_key, request):
            result = replica_surface.read(
                entity_type,
                entity_key,
                request=ReadRequest(
                    level=ConsistencyLevel.BOUNDED_STALENESS,
                    max_staleness=request.max_staleness,
                    tenant=request.tenant,
                ),
            )
            return _restamp(result, request, ConsistencyLevel.BOUNDED_STALENESS)

        backup_node = _replica_node_of(scheme)
        bounded_health = None
        if backup_node is not None:
            bounded_health = (
                lambda: not getattr(backup_node, "crashed", False)
            )
        rungs.append(
            Rung(
                level=ConsistencyLevel.BOUNDED_STALENESS,
                reader=bounded_reader,
                cost=2.0,
                capacity=(
                    TokenBucket(bounded_capacity, bounded_capacity, clock)
                    if bounded_capacity is not None
                    else None
                ),
                breaker=board.get("bounded", health=bounded_health),
                declared_bound=bounded_staleness,
            )
        )

    eventual_reader = _eventual_reader_for(cluster)
    rungs.append(
        Rung(
            level=ConsistencyLevel.EVENTUAL,
            reader=eventual_reader,
            cost=1.0,
        )
    )
    return rungs


def _geo_rungs(
    scheme,
    site,
    *,
    clock,
    board,
    bounded_staleness,
    strong_capacity,
    bounded_capacity,
) -> list:
    """The sited ladder over a geo group.

    Every rung delegates to the group's placement-aware read with the
    door's home ``site``, so site-local replicas answer before any WAN
    hop.  The strong rung forbids degradation — when the shard's home
    replica is down or lagging, the group raises and the rung refuses,
    which is exactly how the walk reaches the bounded rung instead of
    serving a strong lie.  The scheme's own honest stamp (delivered
    level, measured cross-DC staleness, serving site) is re-anchored to
    the outer request so degradation accounting stays truthful.
    """
    def sited_reader(level, allow_degraded):
        def reader(entity_type, entity_key, request):
            result = scheme.read(
                entity_type,
                entity_key,
                request=ReadRequest(
                    level=level,
                    max_staleness=request.max_staleness,
                    tenant=request.tenant,
                    allow_degraded=allow_degraded,
                ),
                site=site,
            )
            return _restamp(result, request, result.delivered_level)

        return reader

    def any_gateway_up():
        return any(not gw.crashed for gw in scheme.gateways.values())

    if bounded_staleness is None:
        bounded_staleness = 2.0 * scheme.ship_interval

    return [
        Rung(
            level=ConsistencyLevel.STRONG,
            reader=sited_reader(ConsistencyLevel.STRONG, False),
            cost=4.0,
            capacity=(
                TokenBucket(strong_capacity, strong_capacity, clock)
                if strong_capacity is not None
                else None
            ),
            breaker=board.get("strong", health=any_gateway_up),
        ),
        Rung(
            level=ConsistencyLevel.BOUNDED_STALENESS,
            reader=sited_reader(ConsistencyLevel.BOUNDED_STALENESS, True),
            cost=2.0,
            capacity=(
                TokenBucket(bounded_capacity, bounded_capacity, clock)
                if bounded_capacity is not None
                else None
            ),
            breaker=board.get("bounded", health=any_gateway_up),
            declared_bound=bounded_staleness,
        ),
        Rung(
            level=ConsistencyLevel.EVENTUAL,
            reader=sited_reader(ConsistencyLevel.EVENTUAL, True),
            cost=1.0,
        ),
    ]


# ---------------------------------------------------------------------- #
# Cluster introspection helpers
# ---------------------------------------------------------------------- #


def _has_replica_copy(scheme) -> bool:
    """Whether the scheme has a weaker second copy worth a rung."""
    if scheme is None:
        return False
    return any(
        getattr(scheme, attr, None) is not None
        for attr in ("backup", "slaves", "replicas")
    )


def _replica_node_of(scheme):
    backup = getattr(scheme, "backup", None)
    if backup is not None:
        return backup
    slaves = getattr(scheme, "slaves", None)
    if slaves:
        return next(iter(slaves.values()))
    return None


def _lag_probe_for(scheme):
    if scheme is None:
        return None
    if hasattr(scheme, "replication_lag_events"):
        return lambda: float(scheme.replication_lag_events)
    slaves = getattr(scheme, "slaves", None)
    if slaves:
        return lambda: float(
            max(scheme.slave_lag_events(slave_id) for slave_id in scheme.slaves)
        )
    return None


def _rebalance_in_progress(cluster) -> bool:
    runs = getattr(cluster.rebalancer, "runs", None)
    if not runs:
        return False
    return any(not getattr(run, "done", True) for run in runs)


def _eventual_reader_for(cluster):
    """The bottom rung: the cheapest copy that always answers.

    Preference order: the warehouse extract (already a read model),
    else the primary store's latest rollup checkpoint (a frozen
    snapshot — zero marginal load on the serving path), else the store
    itself.
    """
    sim = cluster.sim
    warehouse = getattr(cluster, "warehouse", None)
    store = cluster.store

    def reader(entity_type, entity_key, request):
        snapshot_request = ReadRequest(
            level=ConsistencyLevel.EVENTUAL, tenant=request.tenant
        )
        if warehouse is not None and warehouse.extracted_at >= 0:
            result = warehouse.read(
                entity_type, entity_key, request=snapshot_request
            )
            return _restamp(
                result, request, ConsistencyLevel.EVENTUAL, served_by="warehouse"
            )
        checkpoint = None
        manager = getattr(store, "checkpoints", None)
        if manager is not None:
            checkpoint = manager.latest()
        if checkpoint is not None:
            state = checkpoint.states.get((entity_type, entity_key))
            return ReadResult(
                state,
                requested_level=request.level,
                delivered_level=ConsistencyLevel.EVENTUAL,
                staleness=max(0.0, sim.now - checkpoint.taken_at),
                degraded=is_weaker(ConsistencyLevel.EVENTUAL, request.level),
                served_by="checkpoint",
            )
        result = store.read(entity_type, entity_key, request=snapshot_request)
        return _restamp(result, request, ConsistencyLevel.EVENTUAL)

    return reader
