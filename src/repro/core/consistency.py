"""Metadata-driven consistency: the "single infrastructure" question.

Sections 2.9 and 3.1 ask "whether a single infrastructure can deliver
different levels of consistency for different data and different
applications", and section 3.2 sketches the answer this module builds:
"a system that takes business application requirements and automatically
delivers appropriate consistency levels based on metadata (describing
data, applications, customer expectations, etc.)".

:class:`ConsistencyPolicy` is that metadata — per data class, a level
and a rationale.  :class:`PolicyRouter` binds each level to a concrete
scheme (an active/active group, a master, a quorum group, a warehouse
extract...) and routes every read/write by the entity type's policy.
The mixed-consistency bookstore of experiment E10 and the
``examples/mixed_consistency.py`` scenario run on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ConsistencyPolicyError


class ConsistencyLevel(enum.Enum):
    """The spectrum of guarantees the infrastructure can deliver.

    Ordered strongest to weakest:

    * ``STRONG`` — single-copy semantics (master writes, quorum ops);
      unapologetic, pays latency/availability.
    * ``BOUNDED_STALENESS`` — reads may lag by a declared bound
      (slave reads behind a shipping interval).
    * ``EVENTUAL`` — subjective reads/writes, convergence later;
      apologies possible.
    * ``TENTATIVE`` — operations are explicitly revocable commitments
      (reservations/offers) managed by the compensation machinery.
    * ``EXTRACT`` — read-only analytics over a periodic extract.
    """

    STRONG = "strong"
    BOUNDED_STALENESS = "bounded_staleness"
    EVENTUAL = "eventual"
    TENTATIVE = "tentative"
    EXTRACT = "extract"


@dataclass(frozen=True)
class ConsistencyPolicy:
    """The metadata record binding a data class to a level.

    Attributes:
        entity_type: The data class this policy governs.
        level: Required consistency level.
        rationale: Why — the business justification ("fulfilment must
            not oversell", "order entry must always accept").  Required:
            unexplained policies are how foolish consistency creeps in.
        max_staleness: For ``BOUNDED_STALENESS``, the tolerated lag.
    """

    entity_type: str
    level: ConsistencyLevel
    rationale: str
    max_staleness: Optional[float] = None


@dataclass
class SchemeBinding:
    """The concrete handlers implementing one consistency level.

    Attributes:
        write: ``(entity_type, *args, **kwargs)`` write handler.
        read: ``(entity_type, entity_key, *, request)`` read handler on
            the read protocol (:mod:`repro.core.readpath`): it receives
            a :class:`~repro.core.readpath.ReadRequest` and returns a
            :class:`~repro.core.readpath.ReadResult` stamped with the
            delivered level and staleness.
        describe: Human-readable scheme description for reports.
    """

    write: Callable[..., Any]
    read: Callable[..., Any]
    describe: str = ""


class PolicyRouter:
    """Routes operations to schemes according to policy metadata.

    Args:
        default_level: Level applied to entity types with no explicit
            policy (``None`` means unpolicied access is an error — the
            strict posture).

    Example:
        >>> router = PolicyRouter(default_level=ConsistencyLevel.EVENTUAL)
        >>> router.bind(ConsistencyLevel.EVENTUAL, SchemeBinding(
        ...     write=lambda *a, **k: "eventual-write",
        ...     read=lambda *a, **k: "eventual-read"))
        >>> router.add_policy(ConsistencyPolicy(
        ...     "order", ConsistencyLevel.EVENTUAL,
        ...     rationale="order entry must always accept"))
        >>> router.write("order", "o1", {})
        'eventual-write'
    """

    def __init__(self, default_level: Optional[ConsistencyLevel] = None):
        self.default_level = default_level
        self._policies: dict[str, ConsistencyPolicy] = {}
        self._bindings: dict[ConsistencyLevel, SchemeBinding] = {}
        self.routed: dict[ConsistencyLevel, int] = {}

    def add_policy(self, policy: ConsistencyPolicy) -> None:
        """Register the policy for one data class."""
        if not policy.rationale:
            raise ConsistencyPolicyError(
                f"policy for {policy.entity_type!r} needs a rationale"
            )
        self._policies[policy.entity_type] = policy

    def bind(self, level: ConsistencyLevel, binding: SchemeBinding) -> None:
        """Attach the concrete scheme implementing ``level``."""
        self._bindings[level] = binding

    def policy_for(self, entity_type: str) -> ConsistencyPolicy:
        """The effective policy of a data class.

        Raises:
            ConsistencyPolicyError: If no policy exists and there is no
                default level.
        """
        policy = self._policies.get(entity_type)
        if policy is not None:
            return policy
        if self.default_level is None:
            raise ConsistencyPolicyError(
                f"no consistency policy for {entity_type!r} and no default"
            )
        return ConsistencyPolicy(
            entity_type=entity_type,
            level=self.default_level,
            rationale="library default",
        )

    def level_for(self, entity_type: str) -> ConsistencyLevel:
        """The effective level of a data class."""
        return self.policy_for(entity_type).level

    def _binding_for(self, entity_type: str) -> SchemeBinding:
        level = self.level_for(entity_type)
        binding = self._bindings.get(level)
        if binding is None:
            raise ConsistencyPolicyError(
                f"{entity_type!r} requires {level.value} but no scheme is bound"
            )
        self.routed[level] = self.routed.get(level, 0) + 1
        return binding

    def write(self, entity_type: str, *args: Any, **kwargs: Any) -> Any:
        """Route a write through the data class's scheme."""
        return self._binding_for(entity_type).write(entity_type, *args, **kwargs)

    def read(
        self, entity_type: str, entity_key: str, *, request: Any = None
    ) -> Any:
        """Route a read through the data class's scheme.

        The router builds the :class:`~repro.core.readpath.ReadRequest`
        from the entity type's policy metadata — level *and*
        ``max_staleness`` — unless the caller passes ``request``.  The
        declared bound is therefore enforced on every routed read,
        including the EVENTUAL/EXTRACT paths that historically ignored
        it: the bound surface's :func:`~repro.core.readpath.deliver`
        stamps ``bound_violated`` and counts
        ``read.staleness_violations``.
        """
        policy = self.policy_for(entity_type)
        binding = self._binding_for(entity_type)
        if request is None:
            from repro.core.readpath import ReadRequest

            request = ReadRequest(
                level=policy.level, max_staleness=policy.max_staleness
            )
        return binding.read(entity_type, entity_key, request=request)

    def policies(self) -> list[ConsistencyPolicy]:
        """All registered policies (the metadata table, for reports)."""
        return sorted(self._policies.values(), key=lambda p: p.entity_type)
