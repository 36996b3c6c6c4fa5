"""The read protocol: one typed form on every surface.

Every read surface in the library — :class:`~repro.lsdb.store.LSDBStore`,
:class:`~repro.lsdb.readcache.ReadCache`, the warehouse extract, the six
replication schemes, the front door and
:class:`~repro.cluster.Cluster` — answers exactly one call::

    surface.read(entity_type, entity_key, request=ReadRequest(...))

* ``entity_type`` / ``entity_key`` name the entity, exactly as in the
  entity catalog.
* ``request`` is keyword-only and required: a :class:`ReadRequest`
  carrying everything the caller wants the read path to honour — the
  requested :class:`~repro.core.consistency.ConsistencyLevel`, a
  tolerated staleness bound, a deadline, the requesting tenant, and
  whether the caller accepts a degraded (weaker-than-requested) answer.
* The answer is always a :class:`ReadResult` stamped with the
  consistency *actually delivered* and the staleness measured while
  serving — delivered-vs-requested is first-class, which is what lets
  the front door degrade reads honestly instead of lying about them
  (paper sections 2.3/2.9: serve and apologize rather than block).
  The entity state itself is ``result.value``.

Code that wants one node's raw state, with no consistency contract,
asks that node's store: ``node.store.get(entity_type, entity_key)``.
A store's ``get`` is the state accessor, not a read surface.

:func:`deliver` is the one place a served read is stamped; it is also
where :class:`ConsistencyPolicy.max_staleness` is enforced: a delivered
staleness above the declared bound marks the result ``bound_violated``
and increments ``read.staleness_violations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.consistency import ConsistencyLevel
from repro.core.policy import Deadline
from repro.errors import ConsistencyPolicyError


class ConsistencyUnavailable(ConsistencyPolicyError):
    """The surface cannot serve the requested level and the request
    forbids degradation (``allow_degraded=False``)."""


#: Strongest-to-weakest rank used for degradation decisions.  A read is
#: *degraded* when its delivered level ranks strictly weaker than the
#: requested one.
LEVEL_STRENGTH: dict[ConsistencyLevel, int] = {
    ConsistencyLevel.STRONG: 0,
    ConsistencyLevel.BOUNDED_STALENESS: 1,
    ConsistencyLevel.EVENTUAL: 2,
    ConsistencyLevel.TENTATIVE: 3,
    ConsistencyLevel.EXTRACT: 4,
}


def is_weaker(level: ConsistencyLevel, than: ConsistencyLevel) -> bool:
    """Whether ``level`` gives strictly weaker guarantees than ``than``."""
    return LEVEL_STRENGTH[level] > LEVEL_STRENGTH[than]


def replica_level(requested: ConsistencyLevel) -> ConsistencyLevel:
    """The level a lagging replica read actually delivers: the requested
    level, floored at ``BOUNDED_STALENESS`` when the caller asked for
    something stronger than a replica can promise."""
    if LEVEL_STRENGTH[requested] < LEVEL_STRENGTH[
        ConsistencyLevel.BOUNDED_STALENESS
    ]:
        return ConsistencyLevel.BOUNDED_STALENESS
    return requested


@dataclass(frozen=True)
class ReadRequest:
    """Everything a caller declares about one read.

    Attributes:
        level: Requested :class:`ConsistencyLevel`.  Defaults to
            ``STRONG`` — the caller who does not think about
            consistency gets the unapologetic semantics and pays for
            them, exactly the paper's framing of the default.
        max_staleness: Tolerated staleness in simulated time units;
            ``None`` means unbounded.  A surface that measures a larger
            staleness while serving marks the result
            ``bound_violated`` and bumps ``read.staleness_violations``.
        deadline: Optional :class:`~repro.core.policy.Deadline`; the
            front door rejects expired requests instead of serving them.
        tenant: Admission-control identity; empty string is the
            anonymous/default tenant.
        allow_degraded: Whether the caller accepts a weaker-than-
            requested answer.  ``False`` turns degradation into
            :class:`ConsistencyUnavailable` (or a rejection at the
            front door).
    """

    level: ConsistencyLevel = ConsistencyLevel.STRONG
    max_staleness: Optional[float] = None
    deadline: Optional[Deadline] = None
    tenant: str = ""
    allow_degraded: bool = True

    @classmethod
    def strong(cls, **kwargs: Any) -> "ReadRequest":
        return cls(level=ConsistencyLevel.STRONG, **kwargs)

    @classmethod
    def bounded(cls, max_staleness: float, **kwargs: Any) -> "ReadRequest":
        return cls(
            level=ConsistencyLevel.BOUNDED_STALENESS,
            max_staleness=max_staleness,
            **kwargs,
        )

    @classmethod
    def eventual(cls, **kwargs: Any) -> "ReadRequest":
        return cls(level=ConsistencyLevel.EVENTUAL, **kwargs)


class ReadResult:
    """One read's answer plus the truth about how it was served.

    Wraps the raw :class:`~repro.lsdb.rollup.EntityState` (or ``None``)
    and stamps what the infrastructure actually did: the delivered
    level, the staleness measured at serve time, whether the answer is
    degraded below the requested level, which physical unit (and, in a
    geo deployment, which site) served it, and — when the front door had
    to apologize — the apology token.

    The entity state is :attr:`value`.  A result is falsy when there
    is no value (or the read was rejected).
    """

    __slots__ = (
        "value",
        "requested_level",
        "delivered_level",
        "staleness",
        "degraded",
        "served_by",
        "site",
        "rejected",
        "reject_reason",
        "bound_violated",
        "apology",
    )

    def __init__(
        self,
        value: Any,
        *,
        requested_level: ConsistencyLevel,
        delivered_level: Optional[ConsistencyLevel],
        staleness: Optional[float] = 0.0,
        degraded: bool = False,
        served_by: str = "",
        site: str = "",
        rejected: bool = False,
        reject_reason: str = "",
        bound_violated: bool = False,
        apology: Any = None,
    ):
        self.value = value
        self.requested_level = requested_level
        self.delivered_level = delivered_level
        self.staleness = staleness
        self.degraded = degraded
        self.served_by = served_by
        self.site = site
        self.rejected = rejected
        self.reject_reason = reject_reason
        self.bound_violated = bound_violated
        self.apology = apology

    @property
    def ok(self) -> bool:
        """Served (possibly degraded) rather than rejected."""
        return not self.rejected

    def __bool__(self) -> bool:
        return self.value is not None and not self.rejected

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        delivered = self.delivered_level.value if self.delivered_level else None
        flags = []
        if self.degraded:
            flags.append("degraded")
        if self.bound_violated:
            flags.append("bound_violated")
        if self.rejected:
            flags.append(f"rejected:{self.reject_reason}")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (
            f"ReadResult({self.value!r}, delivered={delivered}, "
            f"staleness={self.staleness}{suffix})"
        )


def deliver(
    value: Any,
    request: ReadRequest,
    delivered_level: ConsistencyLevel,
    *,
    staleness: Optional[float] = 0.0,
    served_by: str = "",
    site: str = "",
    metrics: Any = None,
) -> ReadResult:
    """Stamp one served read into a :class:`ReadResult`.

    Centralizes the two policy checks every surface owes the caller:

    * *degradation* — delivered weaker than requested is marked, and
      raises :class:`ConsistencyUnavailable` when the request forbids it;
    * *staleness bound* — measured staleness above
      ``request.max_staleness`` marks ``bound_violated`` and increments
      the ``read.staleness_violations`` counter (labelled by delivered
      level) on ``metrics``.  This is the enforcement
      :class:`~repro.core.consistency.ConsistencyPolicy.max_staleness`
      always promised and never had.
    """
    degraded = is_weaker(delivered_level, request.level)
    if degraded and not request.allow_degraded:
        raise ConsistencyUnavailable(
            f"read served at {delivered_level.value} but "
            f"{request.level.value} was required and degradation is not allowed"
        )
    result = ReadResult(
        value,
        requested_level=request.level,
        delivered_level=delivered_level,
        staleness=staleness,
        degraded=degraded,
        served_by=served_by,
        site=site,
    )
    if (
        request.max_staleness is not None
        and staleness is not None
        and staleness > request.max_staleness
    ):
        result.bound_violated = True
        if metrics is not None:
            metrics.counter(
                "read.staleness_violations", level=delivered_level.value
            ).inc()
    return result
