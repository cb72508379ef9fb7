"""System-wide observability: metrics registry + causal spans + exporters.

One :class:`Observability` object travels with each
:class:`~repro.system.DatabaseSystem` (created implicitly when none is
passed in). It bundles:

* a :class:`~repro.obs.metrics.MetricsRegistry` — always live, because
  its cost model is pull-based (components register *collectors* that
  scrape counters they keep anyway) plus rare push updates;
* a :class:`~repro.obs.spans.SpanRecorder` — spans and timeline instants
  are **off by default** and enabled per run (``repro run``,
  :meth:`Observability.enable_timeline`): span sites pay a single
  branch when disabled, and the timeline subscribes to the kernel's
  probe bus only once it is enabled.

Exporters (`repro.obs.export`) turn a recorder into JSONL or a Chrome
``chrome://tracing`` file; `repro.obs.report` computes the
recovery-timeline report (MTTR, time-to-nominally-up vs
time-to-fully-current, drain curves). See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.spans import Instant, Span, SpanRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "TimeSeries",
]


class Observability:
    """The instrumentation bundle carried by one system."""

    def __init__(
        self, kernel: "Kernel", spans: bool = False, timeline: bool = False
    ) -> None:
        self.kernel = kernel
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(kernel, enabled=spans, timeline=timeline)
        # Handles to whatever is attached, for reports and the CLI to
        # find after the run; each is None until its ``attach_*`` sets
        # it. None of them is tested on a hot path: every observer does
        # its watching through ``kernel.probes`` (repro.sim.probes).
        #: The protocol auditor (:func:`repro.audit.attach_auditor`).
        self.audit: typing.Any = None
        #: The windowed time-series sampler
        #: (:func:`repro.obs.timeseries.attach_sampler`).
        self.sampler: typing.Any = None
        #: The host-CPU profiler
        #: (:func:`repro.obs.profiler.attach_profiler`).
        self.profiler: typing.Any = None
        #: The tie-break policy (:func:`repro.sanitize.policy.attach_policy`);
        #: its ``decisions`` are the run's recorded schedule.
        self.policy: typing.Any = None

    @property
    def spans_on(self) -> bool:
        """True when span recording is enabled (checked on hot paths)."""
        return self.spans.enabled

    @property
    def timeline_on(self) -> bool:
        """True when instant/timeline recording is enabled."""
        return self.spans.timeline_on

    def enable_spans(self) -> None:
        self.spans.enabled = True

    def enable_timeline(self) -> None:
        self.spans.enable_timeline()
