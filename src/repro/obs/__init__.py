"""Control-plane observability: tracing, latency histograms, export.

This package profiles the orchestrator process itself, in wall-clock
time — where a 32-slice batch install actually spends its
milliseconds, stage by stage.  It
holds the one metrics registry and the one Prometheus writer; the
*simulated world's* telemetry is not stored anywhere but read off live
state per scrape (:func:`repro.core.epoch.sim_gauges`) and rendered
by the same writer.

Enabled per orchestrator via ``OrchestratorConfig.observability``
(process-wide default: the ``REPRO_OBS_ENABLED=1`` environment
variable); the default-off path is the shared, allocation-free
:data:`NOOP_OBS` / :data:`NOOP_SPAN` pair.

See ``docs/ARCHITECTURE.md`` ("Observability") for the span model and
``docs/API.md`` for ``GET /v1/admin/metrics`` and ``/v1/admin/traces``.
"""

from repro.obs.histogram import DEFAULT_BUCKETS_MS, LatencyHistogram
from repro.obs.registry import (
    NOOP_OBS,
    NOOP_SPAN,
    ControlPlaneObservability,
    NoopObservability,
    default_observability,
)
from repro.obs.span import Span, SpanContext, Tracer

__all__ = [
    "ControlPlaneObservability",
    "DEFAULT_BUCKETS_MS",
    "LatencyHistogram",
    "NOOP_OBS",
    "NOOP_SPAN",
    "NoopObservability",
    "Span",
    "SpanContext",
    "Tracer",
    "default_observability",
]
