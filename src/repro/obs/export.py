"""Prometheus text exposition: the one writer behind
``GET /v1/admin/metrics``.

Two namespaces share the scrape, rendered by the same code:

- ``cp_*`` — the control plane's own histograms/counters/gauges
  (this subsystem; wall-clock milliseconds, suffixed ``_ms``).
- ``sim_*`` — the simulated world's telemetry: gauges the caller read
  off live state for this scrape (per-slice demand/delivery labelled
  ``slice="…"``, per-domain utilisation ratios).  Nothing is stored
  between scrapes, so a slice that is gone has no series.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: The standard Prometheus text-format content type.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _sanitize(name: str) -> str:
    """Dotted metric name → Prometheus-legal name."""
    return name.replace(".", "_").replace("-", "_")


def _escape_label(value: str) -> str:
    return (
        str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels(label: str, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = []
    if label:
        pairs.append(f'label="{_escape_label(label)}"')
    for key, value in (extra or {}).items():
        pairs.append(f'{key}="{_escape_label(value)}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(
    obs: Any, sim_gauges: Optional[Mapping[Tuple[str, str], float]] = None
) -> str:
    """The full scrape body: ``cp_*`` control-plane metrics (empty when
    observability is disabled) + the ``sim_*`` telemetry namespace,
    ``sim_gauges`` mapping ``(metric, slice id or "")`` to its value."""
    lines: List[str] = []
    typed: set = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    if getattr(obs, "enabled", False):
        for (metric, label), hist in sorted(obs.histograms().items()):
            base = f"cp_{_sanitize(metric)}_ms"
            declare(base, "histogram")
            data = hist.to_dict()
            for bound, cumulative in data["buckets"]:
                lines.append(
                    f"{base}_bucket{_labels(label, {'le': _fmt(bound)})} {cumulative}"
                )
            lines.append(f"{base}_sum{_labels(label)} {_fmt(data['sum_ms'])}")
            lines.append(f"{base}_count{_labels(label)} {data['count']}")
            max_name = f"{base}_max"
            declare(max_name, "gauge")
            lines.append(f"{max_name}{_labels(label)} {_fmt(data['max_ms'])}")
        for (metric, label), value in sorted(obs.counters().items()):
            name = f"cp_{_sanitize(metric)}_total"
            declare(name, "counter")
            lines.append(f"{name}{_labels(label)} {_fmt(value)}")
        for (metric, label), value in sorted(obs.gauges().items()):
            name = f"cp_{_sanitize(metric)}"
            declare(name, "gauge")
            lines.append(f"{name}{_labels(label)} {_fmt(value)}")
        tracer = obs.status().get("tracer", {})
        for key in ("spans_started", "spans_finished", "spans_dropped"):
            name = f"cp_tracer_{key}_total"
            declare(name, "counter")
            lines.append(f"{name} {tracer.get(key, 0)}")
    for (metric, slice_id), value in sorted((sim_gauges or {}).items()):
        name = f"sim_{_sanitize(metric)}"
        declare(name, "gauge")
        labels = _labels("", {"slice": slice_id}) if slice_id else ""
        lines.append(f"{name}{labels} {_fmt(value)}")
    return "\n".join(lines) + "\n"


#: ``name{labels} value`` / ``name value`` sample line (our exposition
#: never emits timestamps, so the value is the last field).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{.*\})?\s+(?P<value>\S+)$"
)


def inject_label(text: str, key: str, value: str) -> str:
    """Add ``key="value"`` to every sample line of an exposition.

    The sharded control plane's router serves one merged ``GET
    /v1/admin/metrics`` scrape over N per-shard expositions; injecting
    a ``shard`` label keeps same-named series (every shard runs the
    same pipeline) distinguishable instead of silently colliding.
    Comment lines (``# TYPE`` / ``# HELP``) pass through untouched.
    """
    escaped = _escape_label(str(value))
    out: List[str] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            out.append(line)
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:  # not a sample line we understand — keep as-is
            out.append(line)
            continue
        name, labels, sample = match.group("name", "labels", "value")
        inner = (labels or "{}")[1:-1]
        if inner:
            inner += ","
        out.append(f'{name}{{{inner}{key}="{escaped}"}} {sample}')
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


def merge_expositions(shard_texts: Dict[int, str]) -> str:
    """One scrape body over per-shard expositions: every sample gains a
    ``shard`` label; duplicate ``# TYPE``/``# HELP`` declarations (each
    shard declares the same metric families) keep their first
    occurrence only, as the text format requires."""
    lines: List[str] = []
    declared: set = set()
    for shard_id in sorted(shard_texts):
        labelled = inject_label(shard_texts[shard_id], "shard", str(shard_id))
        for line in labelled.splitlines():
            if line.startswith("#"):
                if line in declared:
                    continue
                declared.add(line)
            lines.append(line)
    return "\n".join(lines) + "\n"


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "inject_label",
    "merge_expositions",
    "render_prometheus",
]
