"""Measurement utilities for the experiment suite.

Throughput windows and availability probes — the numbers the paper's
prose claims are about (availability, throughput).  Latency
percentiles are recorded in :class:`repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ThroughputWindow:
    """Committed operations over a virtual-time window."""

    start: float
    end: float
    operations: int = 0

    def record(self) -> None:
        """Count one completed operation."""
        self.operations += 1

    @property
    def duration(self) -> float:
        """Window length."""
        return self.end - self.start

    @property
    def per_time_unit(self) -> float:
        """Operations per virtual time unit."""
        if self.duration <= 0:
            return 0.0
        return self.operations / self.duration


@dataclass
class AvailabilityProbe:
    """Success/failure accounting for an operation stream.

    ``attempted``/``succeeded`` counters, with a separate window for
    operations issued during a failure (partition/crash), so a report
    can state availability *during* the failure — the CAP measurement
    of experiment E1.
    """

    attempted: int = 0
    succeeded: int = 0
    attempted_during_failure: int = 0
    succeeded_during_failure: int = 0

    def record(self, ok: bool, during_failure: bool = False) -> None:
        """Count one operation outcome."""
        self.attempted += 1
        if ok:
            self.succeeded += 1
        if during_failure:
            self.attempted_during_failure += 1
            if ok:
                self.succeeded_during_failure += 1

    @property
    def availability(self) -> float:
        """Overall success fraction."""
        return self.succeeded / self.attempted if self.attempted else 1.0

    @property
    def availability_during_failure(self) -> float:
        """Success fraction among operations issued during the failure."""
        if not self.attempted_during_failure:
            return 1.0
        return self.succeeded_during_failure / self.attempted_during_failure
